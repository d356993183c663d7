"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each criterion prints a PASS line on success (run with -s to see them all).
"""

import random
import time
from fractions import Fraction

import pytest

from matcanon import (Block, CongruenceWitness, ExactMatrix,
                      NoRootStrictPolicy, NotSplit,
                      artin_schreier_root_or_adjoin, canonical_block_matrix,
                      canonicalize, equivalent, gf4, invariants,
                      inverse_or_rank, prime_field, rationals,
                      transpose_witness)
from matcanon.field import EXTEND, STRICT
from matcanon.spectral import asymmetry

from elementary import AddSym, elementary_congruence
from filtration import (alternating_flag, elementary_divisor_multiplicities,
                        filtration)
from oracle import bruteforce_congruent, congruence_class_map, matrix_flat


def _report(num, text, t0):
    print("ACCEPTANCE %d: PASS (%.1fs) %s" % (num, time.time() - t0, text))


def rand_matrix(ctx, rng, n, lo=-3, hi=3):
    if ctx.kind == "rational":
        return ExactMatrix(ctx, [[rng.randint(lo, hi) for _ in range(n)]
                                 for _ in range(n)])
    return ExactMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(n)]
                             for _ in range(n)])


def rand_invertible(ctx, rng, n, lo=-3, hi=3):
    while True:
        y = rand_matrix(ctx, rng, n, lo, hi)
        if inverse_or_rank(y).inverse is not None:
            return y


def test_criterion_1_block_table():
    """Every table row: elementary divisors exact, canonicalize exact."""
    t0 = time.time()
    q = rationals()
    f2 = prime_field(2)
    rows = []
    for n in (1, 3, 5, 7):
        rows.append((q, Block("A", n), [(q.one(), n)]))
        rows.append((f2, Block("B", n), [(f2.one(), n)]))
    for n in (2, 4, 6, 8):
        rows.append((q, Block("C", n), [(-q.one(), n)]))
    for n in (4, 8):
        m = n // 2
        rows.append((q, Block("D", n), [(q.one(), m)] * 2))
        rows.append((f2, Block("D", n), [(f2.one(), m)] * 2))
    for n in (2, 6):
        m = n // 2
        rows.append((f2, Block("E", n), [(f2.one(), m)] * 2))
        rows.append((q, Block("F", n), [(-q.one(), m)] * 2))
    for lam in (Fraction(2), Fraction(3), Fraction(1, 2)):
        for n in (2, 4, 6, 8):
            m = n // 2
            lam_s = q.scalar(lam)
            rows.append((q, Block("G", n, lam_s),
                         [(lam_s, m), (lam_s.inverse(), m)]))
    for ctx, desc, divisors in rows:
        a = canonical_block_matrix(desc, ctx)
        s = asymmetry(a).s
        expected = {}
        for lam, m in divisors:
            key = tuple(lam.coords)
            expected.setdefault(key, (lam, {}))[1].setdefault(m, 0)
            expected[key][1][m] += 1
        for lam, mults in expected.values():
            assert elementary_divisor_multiplicities(s, lam) == mults, desc
        form, wit = canonicalize(a)
        assert form.gabriel == []
        assert len(form.blocks) == 1
        got = form.blocks[0]
        assert (got.family, got.n) == (desc.family, desc.n), (desc, got)
        if desc.family == "G":
            lam = desc.lam.promote(form.context)
            assert got.lam in (lam, lam.inverse())
    assert time.time() - t0 < 5.0
    _report(1, "block table reproduced for %d rows" % len(rows), t0)


def test_criterion_2_worked_examples():
    """The worked reductions reproduce the displayed matrices exactly."""
    t0 = time.time()
    # (a) the characteristic-2 order-3 chain over GF(4) with a = omega
    f4 = gf4()
    om = f4.base_element((0, 1))
    c = ExactMatrix(f4, [[om, f4.zero(), f4.one()],
                         [f4.one(), f4.one(), f4.zero()],
                         [f4.one(), f4.zero(), f4.zero()]])
    x, ctx = artin_schreier_root_or_adjoin(om, EXTEND)  # GF(16)
    cp = c.promote(ctx)
    mid, w1 = elementary_congruence(cp, AddSym(0, 1, x))
    expect_mid = ExactMatrix(ctx, [[ctx.zero(), x, ctx.one()],
                                   [x + ctx.one(), ctx.one(), ctx.zero()],
                                   [ctx.one(), ctx.zero(), ctx.zero()]])
    assert mid == expect_mid
    final, w2 = elementary_congruence(mid, AddSym(1, 2, x))
    expect_final = ExactMatrix(ctx, [[0, 0, 1], [1, 1, 0], [1, 0, 0]])
    assert final == expect_final
    CongruenceWitness(w1.x @ w2.x, cp, expect_final)

    # (b) order-2 corner clearing over GF(4) with a = b = 1: the quadratic
    # b x^2 + x + a vanishes at x = omega
    c2 = ExactMatrix(f4, [[1, 0, 1, 1], [0, 0, 0, 1],
                          [1, 0, 0, 0], [0, 1, 0, 1]])
    step, _w = elementary_congruence(c2, AddSym(0, 3, om))
    assert step[0, 0].is_zero()
    # and order-3 corner clearing over the rationals with a = alpha = 1
    q = rationals()
    c6 = ExactMatrix(q, [[1, 2, 0, -1, 1, 0],
                         [-2, 0, 0, 0, -1, 1],
                         [0, 0, 0, 0, 0, -1],
                         [1, 0, 0, 0, 0, 0],
                         [0, 1, 0, 0, 0, 2],
                         [0, 0, 1, 0, -2, 1]])
    s1, _ = elementary_congruence(c6, AddSym(0, 4, -1))
    assert s1[0, 0].is_zero()
    assert s1 == ExactMatrix(q, [[0, 1, 0, -1, 1, -2],
                                 [-1, 0, 0, 0, -1, 1],
                                 [0, 0, 0, 0, 0, -1],
                                 [1, 0, 0, 0, 0, 0],
                                 [0, 1, 0, 0, 0, 2],
                                 [2, 0, 1, 0, -2, 1]])
    s2, _ = elementary_congruence(s1, AddSym(1, 5, Fraction(1, 2)))
    assert s2[0, 1].is_zero() and s2[1, 0].is_zero()
    assert time.time() - t0 < 1.0
    _report(2, "worked example chains reproduced", t0)


def test_criterion_3_counterexample_fidelity():
    """The two order-2 pair matrices over GF(2) are not congruent."""
    t0 = time.time()
    f2 = prime_field(2)
    c11 = ExactMatrix(f2, [[1, 0, 1, 1], [0, 0, 0, 1],
                           [1, 0, 0, 0], [0, 1, 0, 1]])
    c00 = ExactMatrix(f2, [[0, 0, 1, 1], [0, 0, 0, 1],
                           [1, 0, 0, 0], [0, 1, 0, 0]])
    verdict, _ = bruteforce_congruent(c11, c00)   # all 20160 of GL_4(2)
    assert verdict is False
    # the tool must not claim base-field congruence under strict policy
    with pytest.raises(NoRootStrictPolicy):
        canonicalize(c11, STRICT)
    res = equivalent(c11, c00, EXTEND)
    assert res.equivalent and res.extensions
    assert time.time() - t0 < 30.0
    _report(3, "GL_4(2) exhaustion separates the pair over GF(2)", t0)


def test_criterion_4_oracle_agreement():
    """Strict verdicts (when defined) match brute force; zero discrepancies."""
    t0 = time.time()
    disagreements = 0
    compared = 0

    def strict_record(cache, ctx, a):
        key = matrix_flat(a)
        if key not in cache:
            try:
                cache[key] = invariants(a, STRICT)
            except (NoRootStrictPolicy, NotSplit):
                cache[key] = None
        return cache[key]

    for p in (2, 3):
        ctx = prime_field(p)
        mats = []
        for code in range(p ** 4):
            c = code
            flat = []
            for _ in range(4):
                flat.append(c % p)
                c //= p
            mats.append(ExactMatrix(ctx, [[flat[0], flat[1]],
                                          [flat[2], flat[3]]]))
        cache = {}
        cmap = congruence_class_map(2, p)
        for a in mats:
            ra = strict_record(cache, ctx, a)
            for b in mats:
                rb = strict_record(cache, ctx, b)
                if ra is None or rb is None:
                    continue
                verdict = (ra == rb)
                truth = cmap[matrix_flat(a)] == cmap[matrix_flat(b)]
                compared += 1
                if verdict != truth:
                    disagreements += 1
    # 2000 random pairs at n = 3
    rng = random.Random(2024)
    for p in (2, 3):
        ctx = prime_field(p)
        cmap = congruence_class_map(3, p)
        cache = {}
        for _ in range(1000):
            a = rand_matrix(ctx, rng, 3)
            b = rand_matrix(ctx, rng, 3)
            ra = strict_record(cache, ctx, a)
            rb = strict_record(cache, ctx, b)
            if ra is None or rb is None:
                continue
            verdict = (ra == rb)
            truth = cmap[matrix_flat(a)] == cmap[matrix_flat(b)]
            compared += 1
            if verdict != truth:
                disagreements += 1
            if verdict:
                res = equivalent(a, b, STRICT)
                assert res.equivalent and res.witness is not None
    assert disagreements == 0
    assert time.time() - t0 < 120.0
    _report(4, "%d strict verdicts agree with brute force" % compared, t0)


def test_criterion_5_congruence_invariance():
    """500 + 500 random congruent pairs give identical canonical forms."""
    t0 = time.time()
    rng = random.Random(500)
    failures = 0
    checked = 0
    for ctx in (rationals(), prime_field(3)):
        for _ in range(500):
            n = rng.randint(1, 6)
            a = rand_matrix(ctx, rng, n)
            y = rand_invertible(ctx, rng, n)
            b = y.transpose() @ a @ y
            try:
                fa, _ = canonicalize(a)
            except NotSplit:
                # not-split classification must itself be invariant
                try:
                    canonicalize(b)
                    failures += 1
                except NotSplit:
                    checked += 1
                continue
            fb, _ = canonicalize(b)
            checked += 1
            if fa.gabriel != fb.gabriel or fa.blocks != fb.blocks:
                failures += 1
    assert checked == 1000
    assert failures == 0
    assert time.time() - t0 < 120.0
    _report(5, "1000 congruent pairs, invariant canonical forms", t0)


def test_criterion_6_witness_soundness():
    """Witness verification is structural: a bad relation cannot build."""
    t0 = time.time()
    from matcanon.exactmat import WitnessError
    q = rationals()
    a = ExactMatrix(q, [[1, 0], [0, 1]])
    with pytest.raises(WitnessError):
        CongruenceWitness(ExactMatrix(q, [[2, 0], [0, 1]]), a, a)
    with pytest.raises(WitnessError):
        CongruenceWitness(ExactMatrix.zeros(q, 2, 2),
                          ExactMatrix.zeros(q, 2, 2),
                          ExactMatrix.zeros(q, 2, 2))
    # every witness that reaches the caller re-verified here
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(0, 4)
        a = rand_matrix(prime_field(3), rng, n)
        form, wit = canonicalize(a)
        lhs = wit.x.transpose() @ a.promote(wit.x.ctx) @ wit.x
        assert lhs == wit.target
    _report(6, "witness soundness structurally enforced", t0)


def test_criterion_7_transpose_congruence():
    """200 random matrices: verified Y' A Y = A'."""
    t0 = time.time()
    rng = random.Random(7)
    done = 0
    for ctx in (prime_field(3), rationals()):
        count = 0
        attempts = 0
        while count < 100 and attempts < 2000:
            attempts += 1
            n = rng.randint(1, 4)
            a = rand_matrix(ctx, rng, n)
            try:
                y = transpose_witness(a)
            except NotSplit:
                continue
            lhs = y.x.transpose() @ a.promote(y.x.ctx) @ y.x
            assert lhs == a.transpose().promote(y.x.ctx)
            count += 1
        assert count == 100
        done += count
    assert done == 200
    assert time.time() - t0 < 60.0
    _report(7, "200 verified transpose witnesses", t0)


def test_criterion_8_filtration_dichotomy():
    """Sign table, single/pair dichotomy, and even-order parity, 500 cases."""
    t0 = time.time()
    rng = random.Random(8)
    q = rationals()
    f2 = prime_field(2)
    f3 = prime_field(3)
    cases = 0
    while cases < 500:
        ctx = (q, f2, f3)[rng.randrange(3)]
        char = ctx.characteristic
        # random orthogonal sum of unipotent blocks, then scrambled
        parts = []
        eps_sign = rng.choice([1, -1]) if char != 2 else 1
        total = 0
        while total < 1 or (total < 5 and rng.random() < 0.6):
            if char == 2:
                choices = [("B", 1), ("B", 3), ("E", 2), ("E", 6), ("D", 4)]
            elif eps_sign == 1:
                choices = [("A", 1), ("A", 3), ("A", 5), ("D", 4)]
            else:
                choices = [("C", 2), ("C", 4), ("F", 2), ("F", 6)]
            fam, n = rng.choice(choices)
            parts.append(canonical_block_matrix(Block(fam, n), ctx))
            total += n
        a = ExactMatrix.block_diag(ctx, parts)
        n = a.nrows
        y = rand_invertible(ctx, rng, n, -2, 2)
        b = y.transpose() @ a @ y
        eps = ctx.one() if eps_sign == 1 else -ctx.one()
        s = asymmetry(b).s
        nmat = s - ExactMatrix.identity(ctx, n).scale(eps)
        comps = filtration(b, nmat, eps)
        for comp in comps:
            m = comp.order
            hat = comp.hat_gram
            # hat-form scalar asymmetry sign table
            sign = (-1) ** (m - 1) if eps == ctx.one() else (-1) ** m
            assert hat.transpose() == hat.scale(ctx.scalar(sign))
            # dichotomy: the hat form is alternating iff all pieces pair up
            kinds = {p.kind for p in comp.pieces}
            if alternating_flag(hat):
                assert kinds == {"pair"}
            else:
                assert "single" in kinds
            # characteristic-2 parity: even order forces pairs only
            if char == 2 and m % 2 == 0:
                assert kinds == {"pair"}
                count = sum(2 for p in comp.pieces)
                assert count % 2 == 0
        cases += 1
    assert time.time() - t0 < 120.0
    _report(8, "500 filtration instances satisfy all three laws", t0)
