"""The transpose witness: per-block witnesses of the canonical form.

transpose_witness canonicalizes A once, X'AX = B, and composes X with a
fixed Z per canonical block, Z'BZ = B'.  These tests check each block's Z
exactly, for every family in each characteristic where it exists, and that
one canonicalization is all a transpose witness costs.
"""

import pytest

from matcanon import ExactMatrix, canon, gf4, prime_field, rationals
from matcanon.canon import (Block, CanonicalForm, _block_transpose,
                            _reversal, canonical_block_matrix,
                            canonical_form_matrix, transpose_witness)
from matcanon.unipotent import FAMILIES, gamma_matrix

Q, GF2, GF3, GF13, GF4 = (rationals(), prime_field(2), prime_field(3),
                          prime_field(13), gf4())

# family -> the fields it is checked over
FAMILY_FIELDS = {"A": (Q, GF3), "C": (Q, GF3), "F": (Q, GF3),
                 "B": (GF2, GF4), "E": (GF2, GF4), "D": (Q, GF3, GF2, GF4)}


def _valid_blocks(fam, ctx):
    """Block(fam, n) for every n the family admits: up to 8, and odd
    n <= 15 for Gamma_n^0 (B)."""
    top = 15 if fam == "B" else 8
    count = 1 if FAMILIES[fam][1] == "single" else 2
    parity = FAMILIES[fam][3]
    return [Block(fam, n) for n in range(1, top + 1)
            if n % count == 0 and (n // count) % 2 == parity]


def _assert_transposes(z, b):
    assert z.transpose() @ b @ z == b.transpose()


@pytest.mark.parametrize("fam", sorted(FAMILY_FIELDS))
def test_block_witness_of_every_family(fam):
    assert set(FAMILY_FIELDS) == set(FAMILIES)
    for ctx in FAMILY_FIELDS[fam]:
        descs = _valid_blocks(fam, ctx)
        assert descs, (fam, ctx)
        if fam == "B":
            assert [d.n for d in descs] == list(range(1, 16, 2))
        for desc in descs:
            b = canonical_block_matrix(desc, ctx)
            _assert_transposes(_block_transpose(desc, ctx), b)


def test_reversal_transposes_gabriel_jordan_blocks():
    for ctx in (Q, GF2):
        for s in range(1, 7):
            _assert_transposes(_reversal(ctx, s),
                               ExactMatrix.jordan_block(ctx, s))


def test_block_witness_of_g_blocks():
    q2 = Q.adjoin_sqrt(Q.scalar(2))
    lams = [(q2, q2.generator(1)), (q2, 1 + q2.generator(1)),
            (q2, Q.scalar(3)), (GF13, GF13.scalar(2)),
            (GF13, GF13.scalar(5)), (GF4, GF4.scalar((0, 1))),
            (GF4, GF4.scalar((1, 1)))]
    for ctx, lam in lams:
        for n in (2, 4, 6, 8):
            desc = Block("G", n, lam)
            _assert_transposes(_block_transpose(desc, ctx),
                               canonical_block_matrix(desc, ctx))


def test_transpose_witness_of_a_canonical_matrix():
    # Gabriel blocks first, then the sorted blocks, as canonical_form_matrix
    # lays them out; the witness is certified, so this must not raise
    for ctx, blocks in ((Q, ["A3", "C2", "D4", "F2"]),
                        (GF2, ["B5", "D4", "E2"])):
        form = CanonicalForm((3, 1), [Block(b[0], int(b[1:])) for b in blocks],
                             ctx, [])
        b = canonical_form_matrix(form)
        y = transpose_witness(b).x
        assert y.transpose() @ b.promote(y.ctx) @ y == \
            b.transpose().promote(y.ctx)


def test_transpose_witness_canonicalizes_once(monkeypatch):
    calls = []
    original = canon._canonicalize

    def counted(*args, **kwargs):
        calls.append(args[0].nrows)
        return original(*args, **kwargs)

    monkeypatch.setattr(canon, "_canonicalize", counted)
    a = ExactMatrix.block_diag(Q, [ExactMatrix.jordan_block(Q, 2),
                                   gamma_matrix(Q, 3),
                                   ExactMatrix(Q, [[1, 2], [0, 3]])])
    y = transpose_witness(a)
    assert calls == [7]
    assert y.x.transpose() @ a.promote(y.x.ctx) @ y.x == \
        a.transpose().promote(y.x.ctx)


def test_transpose_witness_stays_in_the_canonical_field():
    # G2(sqrt 2) scrambled over Q(sqrt 2): the witness is written over the
    # field canonicalize reaches, not a merged one
    q2 = Q.adjoin_sqrt(Q.scalar(2))
    b = canonical_block_matrix(Block("G", 2, q2.generator(1)), q2)
    y = ExactMatrix(q2, [[1, 2], [q2.generator(1), 1]])
    a = y.transpose() @ b @ y
    form, _wit = canon.canonicalize(a)
    assert transpose_witness(a).x.ctx == form.context
