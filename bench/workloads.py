"""Seeded inputs for the benchmark workloads.

Every case is built from two random streams of its own.  The structure
stream, named by workload and case index, fixes what the case is: the
congruence class of its matrices (a random matrix, a list of blocks, the
eigenvalue of a G(lam) block).  The seeded stream, named by workload, seed and
index, draws the representatives matcanon receives: the scrambles Y'AY and
any entries the class leaves free.  How long a call takes mostly follows
the class, so runs with different seeds measure much the same mix of work,
while the same seed gives the same inputs.  (An exception: over GF(4) some
scrambles make canonicalize adjoin an extension and equivalent rerun in it,
which can triple the call.)

Scrambles, ranks and kernels are computed here with plain Python values
(Fraction, int mod p, GF(4) as the ints 0..3) rather than with matcanon, so
that how a pair was built does not depend on the code under test.
matcanon receives only ExactMatrix inputs (and, for the CLI, JSON files).
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple
from fractions import Fraction

from matcanon import (Block, ExactMatrix, canonical_block_matrix, gf4,
                      prime_field, rationals)

# One call into matcanon.  kind is "canon", "equiv", "transpose" or "cli";
# args are matrices (or JSON paths for "cli"); expect is the verdict the
# construction fixes (None for canon).
Op = namedtuple("Op", "kind args expect")

# ops run in order.  pair: ops 0 and 1 canonicalize A and a scramble of A,
# so their forms must agree.  base: the unscrambled block sum, whose form
# every canon op of the case must match.  plan: how the inputs were built.
Case = namedtuple("Case", "index label ops pair base plan")


# -- plain arithmetic ---------------------------------------------------------

_GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


class Plain:
    """Field arithmetic on plain values: Q, GF(p), or GF(4) = GF(2)[t]/(t^2+t+1).

    A GF(4) element c0 + c1*t is the int c0 + 2*c1.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.gf4 = ctx.kind == "gfq"
        self.p = ctx.p

    def add(self, x, y):
        if self.gf4:
            return x ^ y
        return (x + y) % self.p if self.p else x + y

    def neg(self, x):
        if self.gf4:
            return x
        return (-x) % self.p if self.p else -x

    def mul(self, x, y):
        if self.gf4:
            return _GF4_MUL[x][y]
        return (x * y) % self.p if self.p else x * y

    def inv(self, x):
        if self.gf4:
            return next(y for y in range(1, 4) if _GF4_MUL[x][y] == 1)
        return pow(x, self.p - 2, self.p) if self.p else 1 / Fraction(x)

    def from_scalar(self, s):
        c = s.coords[0]
        return c[0] + 2 * c[1] if self.gf4 else c

    def to_entry(self, v):
        return (v & 1, v >> 1) if self.gf4 else v

    def exact(self, rows):
        return ExactMatrix(self.ctx, [[self.to_entry(v) for v in row]
                                      for row in rows])

    def plain(self, a):
        return [[self.from_scalar(s) for s in row] for row in a.rows]

    def random_entry(self, rng):
        if self.gf4:
            return rng.randrange(4)
        return rng.randrange(self.p) if self.p else rng.randint(-3, 3)

    def random_matrix(self, rng, n):
        return [[self.random_entry(rng) for _ in range(n)] for _ in range(n)]

    def random_invertible(self, rng, n):
        while True:
            y = self.random_matrix(rng, n)
            if self.rank(y) == n:
                return y

    def matmul(self, x, y):
        cols = list(zip(*y))
        out = []
        for row in x:
            out_row = []
            for col in cols:
                acc = 0
                for u, v in zip(row, col):
                    if u and v:
                        acc = self.add(acc, self.mul(u, v))
                out_row.append(acc)
            out.append(out_row)
        return out

    def scramble(self, a, y):
        """Y' A Y."""
        return self.matmul(self.matmul([list(c) for c in zip(*y)], a), y)

    def rank(self, a):
        work = [list(row) for row in a]
        r = 0
        ncols = len(work[0]) if work else 0
        for c in range(ncols):
            piv = next((i for i in range(r, len(work)) if work[i][c]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = self.inv(work[r][c])
            work[r] = [self.mul(inv, v) for v in work[r]]
            for i in range(len(work)):
                if i != r and work[i][c]:
                    f = self.neg(work[i][c])
                    work[i] = [self.add(v, self.mul(f, w))
                               for v, w in zip(work[i], work[r])]
            r += 1
        return r

    def eigen_nullity(self, a, lam):
        """dim ker(S - lam I) for the asymmetry S = A^{-1} A' of invertible A.

        S - lam I has the kernel of A' - lam A, which needs no inverse.
        """
        n = len(a)
        m = [[self.add(a[j][i], self.neg(self.mul(lam, a[i][j])))
              for j in range(n)] for i in range(n)]
        return n - self.rank(m)


# -- block sums ---------------------------------------------------------------

# Block sizes drawn for each family; the family rules are those of
# canonical_block_matrix (A, B odd; C even; D n = 4k; E, F n = 2 mod 4).
_SIZES = {"A": (1, 3, 5), "B": (1, 3, 5), "C": (2, 4), "D": (4, 8),
          "E": (2, 6), "F": (2, 6), "G": (2, 4)}


def block_sum(ctx, plan):
    """Plain matrix of J_k (each k in plan["jordan"]) plus the planted blocks."""
    pf = Plain(ctx)
    parts = [ExactMatrix.jordan_block(ctx, k) for k in plan["jordan"]]
    parts += [canonical_block_matrix(b, ctx) for b in plan["blocks"]]
    return pf.plain(ExactMatrix.block_diag(ctx, parts))


def _random_blocks(rng, ctx, families, total):
    blocks = []
    while total > 0:
        fam = rng.choice(families)
        size = rng.choice([s for s in _SIZES[fam] if s <= total] or [0])
        if not size:
            continue
        if fam == "G":
            lam = ctx.scalar((0, 1) if rng.random() < 0.5 else (1, 1))
            blocks.append(Block("G", size, lam))
        else:
            blocks.append(Block(fam, size))
        total -= size
    return blocks


def false_partner(plan, kind):
    """A plan that differs from `plan` in an invariant fixed by construction.

    "sign": the first D_{4k} becomes C_{4k}, moving two +1 elementary
    divisors of order 2k to one -1 divisor of order 4k (odd characteristic).
    "gabriel": the last planted block of size s becomes a 0-Jordan block
    J_s, so the Gabriel sizes differ.
    """
    blocks = list(plan["blocks"])
    if kind == "sign":
        i = next(i for i, b in enumerate(blocks) if b.family == "D")
        blocks[i] = Block("C", blocks[i].n)
        return {"jordan": list(plan["jordan"]), "blocks": blocks}
    last = blocks.pop()
    return {"jordan": list(plan["jordan"]) + [last.n], "blocks": blocks}


# -- workloads ----------------------------------------------------------------

def _streams(workload, seed, index):
    """The seeded stream of a case, and its structure stream, which depends
    on the index alone."""
    return (random.Random("%s/%d/%d" % (workload, seed, index)),
            random.Random("%s/structure/%d" % (workload, index)))


_SMALL_FIELDS = (rationals(), prime_field(3))


def small_case(seed, index, workdir):
    """Criterion-5 generator: A and Y'AY for n in [1, 6] over Q and GF(3).

    Field and size cycle with the index.  One case in two also asks for a
    transpose witness of Y'AY, and one in four runs `matcanon equiv
    --machine` on scrambles of a pair of matrices whose ranks differ, so the
    expected verdict is False.
    A and the CLI pair come from the case's structure stream, the scrambles
    from its seeded stream.
    """
    rng, structure = _streams("small-batch", seed, index)
    ctx = _SMALL_FIELDS[index % 2]
    n = 1 + (index // 2) % 6
    pf = Plain(ctx)
    a = pf.random_matrix(structure, n)
    eb = pf.exact(pf.scramble(a, pf.random_invertible(rng, n)))
    ops = [Op("canon", (pf.exact(a),), None), Op("canon", (eb,), None)]
    plan = {"field": repr(ctx), "n": n}
    extra = (index // 12 + index) % 4
    if extra in (1, 2):
        ops.append(Op("transpose", (eb,), True))
    elif extra == 3:
        pair = [pf.scramble(m, pf.random_invertible(rng, n))
                for m in rank_differing_pair(pf, structure, n)]
        plan["ranks"] = tuple(pf.rank(m) for m in pair)
        paths = []
        for side, rows in zip("ab", pair):
            path = os.path.join(workdir, "s%d-c%d-%s.json" % (seed, index, side))
            paths.append(path)
            plan.setdefault("files", []).append(
                (path, {"field": cli_field(ctx),
                        "matrix": [[str(v) for v in row] for row in rows]}))
        ops.append(Op("cli", tuple(paths), False))
    return Case(index, "%s n=%d" % (ctx, n), ops, True, None, plan)


def rank_differing_pair(pf, rng, n):
    """Two n x n matrices whose ranks differ; the second has a zero row."""
    while True:
        left = pf.random_matrix(rng, n)
        right = pf.random_matrix(rng, n)
        right[-1] = [0] * n
        if pf.rank(left) != pf.rank(right):
            return left, right


def cli_field(ctx):
    if ctx.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "gfp", "p": ctx.p}


# (context, block families, false-partner kinds) for blocksum-gfp
_BLOCK_FIELDS = ((prime_field(3), "ACDF", ("sign", "gabriel")),
                 (prime_field(2), "BDE", ("gabriel",)),
                 (gf4(), "BDEG", ("gabriel",)))
BLOCK_SIZES = (8, 10)


def blocksum_case(seed, index, workdir=None):
    """A congruence-scrambled direct sum of canonical blocks over GF(3),
    GF(2) or GF(4).

    Field, size and whether a degenerate part J_k is planted cycle with the
    index.  Every case canonicalizes A; even cases then decide A against a
    second scramble of the same sum (True), odd cases against a scramble of
    a false partner (False).

    The blocks come from the case's structure stream, the scrambles from
    its seeded stream.
    """
    rng, structure = _streams("blocksum-gfp", seed, index)
    ctx, families, kinds = _BLOCK_FIELDS[index % 3]
    degenerate = (index // 3) % 2 == 1
    n = BLOCK_SIZES[(index // 6) % len(BLOCK_SIZES)]
    jordan = [structure.randint(1, 3)] if degenerate else []
    kind = kinds[(index // 2) % len(kinds)]
    core = n - sum(jordan)
    if kind == "sign":
        blocks = [Block("D", 4)] + _random_blocks(structure, ctx, families,
                                                   core - 4)
    else:
        blocks = _random_blocks(structure, ctx, families, core)
    structure.shuffle(blocks)
    if kind == "sign":
        # keep a D block first so the partner swaps a known block
        blocks.sort(key=lambda b: b.family != "D")
    plan = {"jordan": jordan, "blocks": blocks}
    pf = Plain(ctx)
    base = block_sum(ctx, plan)
    a = pf.exact(pf.scramble(base, pf.random_invertible(rng, n)))
    ops = [Op("canon", (a,), None)]
    if index % 2 == 0:
        other = pf.scramble(base, pf.random_invertible(rng, n))
        ops.append(Op("equiv", (a, pf.exact(other)), True))
    else:
        partner = false_partner(plan, kind)
        plan["partner"] = (kind, partner)
        other = pf.scramble(block_sum(ctx, partner), pf.random_invertible(rng, n))
        ops.append(Op("equiv", (a, pf.exact(other)), False))
    label = "%s n=%d%s" % (ctx, n, " +J" if degenerate else "")
    return Case(index, label, ops, False, pf.exact(base), plan)


# roots-bigp: the primes of its random matrices, and the size of one period
# (see roots_case)
ROOT_PRIMES = (65521, 65537, 1000003)
ROOT_PERIOD = 12
# block sizes of the G(lam) sums in the last three slots of a period
_G_SUMS = ((2,), (4,), (2, 2))


def roots_case(seed, index, workdir=None):
    """Random matrices over GF(65521), GF(65537) and GF(1000003), and
    scrambled G(lam) block sums over GF(65521).

    Each case canonicalizes a matrix A, then decides A against a scramble
    Y'AY (True).  In the first nine cases of each period of ROOT_PERIOD, A
    is random: n x n, n in [2, 4], entries uniform over GF(p), every
    (prime, n) pair once.  What root search meets is left to the draw: over
    GF(65521) the field is enumerated; over the larger fields a splitting
    factor raises BudgetExceeded (the enumeration guard) and an irreducible
    one is answered in an extension or, over GF(1000003), hangs in the
    square-root search until the time limit.  In the last three cases A is
    a scrambled G2, G4 or G2 + G2 over GF(65521), with one lam != +-1
    uniform over the field.

    A, or lam, comes from the case's structure stream, the scrambles from
    its seeded stream.
    """
    rng, structure = _streams("roots-bigp", seed, index)
    slot = index % ROOT_PERIOD
    if slot < 3 * len(ROOT_PRIMES):
        ctx = prime_field(ROOT_PRIMES[slot % len(ROOT_PRIMES)])
        n = 2 + slot // len(ROOT_PRIMES)
        pf = Plain(ctx)
        a = pf.random_matrix(structure, n)
        b = pf.scramble(a, pf.random_invertible(rng, n))
        plan, label = {"matrix": a}, "%s n=%d" % (ctx, n)
    else:
        ctx = prime_field(ROOT_PRIMES[0])
        pf = Plain(ctx)
        lam = structure.randrange(2, ctx.p - 1)
        sizes = _G_SUMS[slot - 3 * len(ROOT_PRIMES)]
        plan = {"jordan": [], "blocks": [Block("G", k, ctx.scalar(lam))
                                         for k in sizes], "lam": lam}
        base = block_sum(ctx, plan)
        a, b = (pf.scramble(base, pf.random_invertible(rng, len(base)))
                for _ in range(2))
        label = "%s %s" % (ctx, "+".join("G%d" % k for k in sizes))
    a, b = pf.exact(a), pf.exact(b)
    ops = [Op("canon", (a,), None), Op("equiv", (a, b), True)]
    return Case(index, label, ops, False, None, plan)


_BUILDERS = {"small-batch": small_case, "blocksum-gfp": blocksum_case,
             "roots-bigp": roots_case}
WORKLOADS = tuple(_BUILDERS)

# the field of each workload's warm-up call
_WARM_UP_FIELDS = {"small-batch": rationals(), "blocksum-gfp": prime_field(3),
                   "roots-bigp": prime_field(ROOT_PRIMES[0])}


def warm_up_op(workload):
    """The call that warms up a run: canonicalize a fixed 2 x 2 matrix over
    the workload's first field."""
    ctx = _WARM_UP_FIELDS[workload]
    return Op("canon", (ExactMatrix(ctx, [[1, 1], [0, 1]]),), None)


def make_case(workload, seed, index, workdir):
    return _BUILDERS[workload](seed, index, workdir)


def build_pool(workload, seed, count, workdir):
    """Cases 0 .. count-1 of a workload, with their CLI files written."""
    cases = [make_case(workload, seed, i, workdir) for i in range(count)]
    for case in cases:
        for path, payload in case.plan.get("files", ()):
            with open(path, "w") as handle:
                json.dump(payload, handle)
    return cases
