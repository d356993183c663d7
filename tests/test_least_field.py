"""Each stage runs in the least field that holds its values.

Over Q every answer is built in a tower of square roots, and tower
arithmetic is the slow kind.  So the stages that need no root run below the
tower: equivalent decomposes both sides and takes their minimal
polynomials in the inputs' own field, also for a pair it then merges into
one tower, the +-1 eigenspaces are taken in S's field, and a unipotent
class is peeled in the field of its Gram matrix.  Each test records the
contexts a stage sees by monkeypatching the name its caller looks up.
"""

from matcanon import (ExactMatrix, canonicalize, equivalent, inverse_or_rank,
                      rationals)
from matcanon import canon, spectral
from matcanon.spectral import asymmetry, eigen_split, split_min_poly

Q = rationals()

# a 2 x 2 form whose asymmetry has the roots 3/4 +- sqrt(-7)/4, a pair
PAIR = ExactMatrix(Q, [[-2, -2], [-1, -2]])
# the pair beside a 1 x 1 class at eigenvalue 1
WITH_ONE = ExactMatrix.block_diag(Q, [ExactMatrix(Q, [[1]]), PAIR])


def test_a_merged_pair_decomposes_in_the_inputs_field(monkeypatch):
    """A scrambled 3 x 3 pair whose two sides settle in different towers,
    which equivalent merges: both sides run Gabriel and the minimal
    polynomial over Q."""
    a = ExactMatrix(Q, [[2, -1, -2], [0, -2, -2], [-2, 2, 2]])
    p = ExactMatrix(Q, [[-2, -1, 1], [0, 2, 0], [-1, -2, 0]])
    seen, merges = [], []

    gabriel_decompose = canon.gabriel_decompose
    first_dependence = spectral.first_dependence
    merge_contexts = canon.merge_contexts

    def decompose(m, *args):
        seen.append(m.ctx)
        return gabriel_decompose(m, *args)

    def dependence(mats):
        def recorded():
            for m in mats:
                seen.append(m.ctx)
                yield m
        return first_dependence(recorded())

    def merge(*args):
        merges.append(args)
        return merge_contexts(*args)

    monkeypatch.setattr(canon, "gabriel_decompose", decompose)
    monkeypatch.setattr(spectral, "first_dependence", dependence)
    monkeypatch.setattr(canon, "merge_contexts", merge)
    res = equivalent(a, p.transpose() @ a @ p)
    assert res.equivalent and res.context.tower
    assert merges
    assert seen and all(ctx == Q for ctx in seen)


def test_plus_minus_one_eigenspaces_stay_in_the_field_of_s(monkeypatch):
    asym = split_min_poly(asymmetry(WITH_ONE))
    assert asym.ctx.tower and asym.s.ctx == Q
    seen = []
    eigenline = spectral._eigenline

    def eliminating(m, **kwargs):
        seen.append(("elimination", m.ctx == Q))
        return inverse_or_rank(m, **kwargs)

    def recording(min_poly, lam, krylov):
        seen.append(("eigenline", lam.ctx == Q))
        return eigenline(min_poly, lam, krylov)

    monkeypatch.setattr(spectral, "inverse_or_rank", eliminating)
    monkeypatch.setattr(spectral, "_eigenline", recording)
    eigen_split(WITH_ONE, asym)
    # the eigenvalue-1 space first, eliminated in Q, then the pair's rep,
    # a simple root of the cyclic S, as an eigenline in the tower; the other
    # space of the pair is the rep's conjugate, computed neither way
    assert seen == [("elimination", True), ("eigenline", False)]


def test_a_unipotent_class_is_peeled_in_the_field_of_its_gram(monkeypatch):
    seen = []
    original = canon.peel_all

    def peel_all(gram, nmat):
        seen.append((gram.ctx, None if nmat is None else nmat.ctx))
        return original(gram, nmat)

    monkeypatch.setattr(canon, "peel_all", peel_all)
    # a 1 x 1 class forms no operator; a 2 x 2 class forms it in Q
    with_two = ExactMatrix.block_diag(Q, [ExactMatrix.identity(Q, 2), PAIR])
    for a, want in ((WITH_ONE, [(Q, None)]), (with_two, [(Q, Q)])):
        seen.clear()
        form, _witness = canonicalize(a)
        assert form.context.tower  # the answer still lives in the tower
        assert seen == want
