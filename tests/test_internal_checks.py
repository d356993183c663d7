"""Every internal-error raise left in src/matcanon is reached by a test.

The pipeline stages do not check their own results: a wrong congruence is
caught once, where an answer leaves the package, by the certificate
(exactmat.CongruenceWitness, exact X'AX = B with X invertible).  The
raises of InternalDegenerate and WitnessError left in src/ guard what that
certificate cannot see: the canonicity of a block list, the end of a
bounded search, a missing solution, inverse or nonzero column, and a
defect that would otherwise change its exit code.  Each test below makes
one of them fire, mostly by monkeypatching a stage or helper to return a
corrupt value, and checks the error's type and message.
test_every_internal_raise_is_reached scans src/ for these raises: one
added without a test here, or a test left for a raise that is gone, fails
it.

The canonical cyclic Gram matrices depend only on the characteristic, eps
and n, so their laws are checked here over a range, not at every call.
"""

import ast
import json
import pathlib
import re
import sys

import pytest

from matcanon import (canon, cli, exactmat, field, gabriel, roots, spectral,
                      unipotent)
from matcanon.canon import (Block, CanonicalForm, InvariantRecord,
                            blocks_from_record, canonical_block_matrix,
                            canonicalize, equivalent, record_from_form,
                            transpose_witness)
from matcanon.errors import InternalDegenerate
from matcanon.exactmat import Congruence, ExactMatrix, WitnessError
from matcanon.field import prime_field, rationals
from matcanon.unipotent import (canon_single, canonical_cyclic_gram,
                                family_of, gamma_block)

SRC = pathlib.Path(exactmat.__file__).resolve().parent
INTERNAL_ERRORS = ("InternalDegenerate", "WitnessError")


def _template(call):
    """The message of a raise: its string, or the left side of a %."""
    arg = call.args[0]
    return (arg.left if isinstance(arg, ast.BinOp) else arg).value


def internal_raises():
    """{(module, message template): error class name} for every raise of
    an internal error in src/matcanon."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) in INTERNAL_ERRORS):
                found[(path.stem, _template(node.exc))] = node.exc.func.id
    return found


RAISES = internal_raises()
ERRORS = {"InternalDegenerate": InternalDegenerate,
          "WitnessError": WitnessError}


def reaches(module, template):
    """pytest.raises for the raise of template in module: its error type,
    and its message with each %-field matching any text."""
    pattern = re.sub(r"%[dsr]", ".+", re.escape(template))
    return pytest.raises(ERRORS[RAISES[(module, template)]],
                         match="^%s$" % pattern)


def test_every_internal_raise_is_reached():
    """The raises this file drives are exactly those in src/."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    driven = {tuple(a.value for a in node.args) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "reaches"}
    assert driven == set(RAISES)


@pytest.fixture(autouse=True)
def fresh_gamma_cache(monkeypatch):
    """A patched stage must not leave a Gamma reduction behind."""
    monkeypatch.setattr(unipotent, "_gamma_reduction_cache", {})


Q = rationals()


def block(desc, ctx=Q):
    return canonical_block_matrix(desc, ctx)


def patch_result(monkeypatch, module, name, corrupt):
    """Replace module.name by the original followed by corrupt(result)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **k: corrupt(original(*a, **k)))


# -- the canonical cyclic Gram matrices ------------------------------------------

def single_orders():
    """(ctx, eps, n) for each single of order n <= 10 at eps = +-1 in
    characteristics 0, 2 and 3."""
    for ctx in (Q, prime_field(2), prime_field(3)):
        for eps in (ctx.one(), -ctx.one()):
            for n in range(1, 11):
                sign = 1 if eps == ctx.one() else -1
                if family_of("single", sign, ctx.characteristic, n):
                    yield ctx, eps, n


def test_canonical_cyclic_gram_laws():
    # G S = G' for the asymmetry S = J_n(eps) on a cyclic basis, zero below
    # the anti-diagonal and nonzero on it
    cases = list(single_orders())
    assert len(cases) == 30
    for ctx, eps, n in cases:
        cg = canonical_cyclic_gram(ctx, eps, n)
        assert cg @ ExactMatrix.jordan_block(ctx, n, eps) == cg.transpose()
        for a in range(n):
            assert not cg[a, n - 1 - a].is_zero(), (ctx, eps, n)
            assert all(cg[a, b].is_zero() for b in range(n - a, n))


def test_gamma_cyclic_gram_reduces_to_the_canonical_one():
    # the single reduction of Gamma_n(^0) on its cyclic basis lands on
    # canonical_cyclic_gram, which the stages do not check per call
    for ctx, eps, n in single_orders():
        gamma = gamma_block(ctx, n)
        nmat = spectral.asymmetry_matrix(gamma).minus_scalar(eps)
        bmat = nmat.krylov(unipotent._height_vector(nmat.power(n - 1)), n)
        g = bmat.transpose() @ gamma @ bmat
        x = canon_single(g, eps, n)
        assert x.transpose() @ g @ x == \
            canonical_cyclic_gram(x.ctx, eps, n), (ctx, eps, n)


# -- canon: canonicity and the verdicts --------------------------------------------

def test_piece_without_family(monkeypatch):
    monkeypatch.setattr(canon, "family_of", lambda *args: None)
    with reaches("canon", "no family has a %s of order %d at eigenvalue "
                          "%d in characteristic %d"):
        canonicalize(ExactMatrix(Q, [[1]]))


def test_b_and_e_blocks_share_an_order():
    f2 = prime_field(2)
    form = CanonicalForm((), [Block("B", 3), Block("E", 6)], f2, [])
    with reaches("canon", "B and E blocks share one order"):
        record_from_form(form)


def test_odd_pair_multiplicity():
    # order 2 at eigenvalue 1 over Q is a D pair: its count must be even
    record = InvariantRecord((), [(Q.one(), {2: 1}, {})], [], Q)
    with reaches("canon", "odd pair multiplicity"):
        blocks_from_record(record)


def test_equivalent_with_a_singular_witness(monkeypatch):
    patch_result(monkeypatch, canon, "_canonicalize", lambda res: (
        res[0], res[1]._replace(x=res[1].x.scale(Q.zero()))))
    a = ExactMatrix(Q, [[1]])
    with reaches("canon", "witness matrix is singular"):
        equivalent(a, a)


def test_transpose_witness_with_a_wrong_block_witness(monkeypatch, tmp_path,
                                                     capsys):
    # the identity for a Gamma_n block is no Z with Z'BZ = B': the one
    # certificate of the witness catches it, and the CLI exits 5
    monkeypatch.setattr(canon, "_block_transpose",
                        lambda desc, ctx: ExactMatrix.identity(ctx, desc.n))
    a = unipotent.gamma_matrix(Q, 3)
    with reaches("exactmat", "congruence relation X'AX = B failed"):
        transpose_witness(a)
    path = tmp_path / "gamma3.json"
    path.write_text(json.dumps({"field": {"kind": "rational"},
                                "matrix": [["0", "0", "1"], ["0", "-1", "-1"],
                                           ["1", "1", "0"]]}))
    assert cli.main(["transpose", str(path)]) == 5
    assert "internal error: congruence relation" in capsys.readouterr().err


# -- exactmat: the certificate -------------------------------------------------------

def _corrupt_gabriel(monkeypatch, x):
    """gabriel_decompose answering the zero 1 x 1 matrix with witness x."""
    def corrupt(dec):
        return dec._replace(congruence=Congruence(
            x, dec.congruence.source, dec.congruence.target))
    patch_result(monkeypatch, canon, "gabriel_decompose", corrupt)


def test_certificate_rejects_a_non_square_witness(monkeypatch):
    _corrupt_gabriel(monkeypatch, ExactMatrix(Q, [[1, 0]]))
    with reaches("exactmat", "witness parts must be square"):
        canonicalize(ExactMatrix(Q, [[0]]))


def _doubled_basis(classes):
    # each class's basis doubled, its Gram matrix kept: canon builds X from
    # the bases (but for a class that fills the core, whose basis is I) and
    # reduces the Gram matrices
    return [cl._replace(basis=cl.basis.scale(cl.basis.ctx.scalar(2)))
            for cl in classes]


def test_certificate_rejects_a_false_relation(monkeypatch):
    patch_result(monkeypatch, canon, "eigen_split", _doubled_basis)
    with reaches("exactmat", "congruence relation X'AX = B failed"):
        # a class at 1 and a class at -1
        canonicalize(ExactMatrix.block_diag(Q, [
            ExactMatrix(Q, [[1]]), ExactMatrix(Q, [[1, 2], [0, 1]])]))


def test_certificate_rejects_a_singular_witness(monkeypatch):
    _corrupt_gabriel(monkeypatch, ExactMatrix(Q, [[0]]))
    with reaches("exactmat", "witness matrix is singular"):
        canonicalize(ExactMatrix(Q, [[0]]))


# -- field: bounded searches ------------------------------------------------------------

def test_no_primitive_element(monkeypatch):
    # a product that never returns to 1 gives no element of order q - 1
    monkeypatch.setattr(field._VectorOps, "mul", lambda self, a, b: a)
    with reaches("field", "no primitive element in %r"):
        field._build_tables(prime_field(3))


def test_no_quadratic_non_residue(monkeypatch):
    # draws of squares alone; 4 is a square mod 65537 whose root needs the
    # non-residue correction (65537 - 1 = 2^16).  The correction is kept on
    # the field's one instance, so with the field memo empty GF(65537) is a
    # new instance, on which no earlier root can have left one
    monkeypatch.setattr(field, "_fields_cache", {})
    monkeypatch.setattr(field, "random_elements",
                        lambda ctx: iter([ctx.one()] * 100))
    with reaches("field", "no quadratic non-residue in %d draws"):
        field._find_sqrt(prime_field(65537).scalar(4))


# -- gabriel ----------------------------------------------------------------------------

J3 = ExactMatrix.jordan_block(Q, 3)  # singular, with a zero radical


def test_kernel_rows_lose_rank(monkeypatch):
    # K'A[:, ext] without full row rank means a radical; J3' has none, so
    # the radical elimination finds none and would recurse on J3' itself
    monkeypatch.setattr(gabriel, "_reduce_columns", lambda nb: None)
    with reaches("gabriel", "kernel rows lost rank, but the radical is "
                            "zero"):
        gabriel.gabriel_decompose(J3.transpose())


def test_end_column_block_loses_rank(monkeypatch):
    # step 5 extends E_hat to a basis; a zero matrix there has no inverse
    monkeypatch.setattr(gabriel, "_extend_to_basis",
                        lambda cols: ExactMatrix.zeros(cols.ctx, cols.nrows,
                                                       cols.nrows))
    with reaches("gabriel", "end-column block lost column rank"):
        gabriel.gabriel_decompose(J3)


def test_row_space_split_without_a_solution(monkeypatch):
    # only the row-space system fails, not _reduce_columns' NB X = I_k
    def solve(a, b):
        if sys._getframe(1).f_code.co_name == "_split_off_rowspace":
            return None, None
        return exactmat.solve(a, b)

    monkeypatch.setattr(gabriel, "solve", solve)
    with reaches("gabriel", "row space split failed"):
        gabriel.gabriel_decompose(J3)


# -- spectral ---------------------------------------------------------------------------

G2 = block(Block("G", 2, Q.scalar(2)))  # eigenvalues 2 and 1/2
# a class of order 2: a G2 class has its X in closed form, with no chains
G4 = block(Block("G", 4, Q.scalar(2)))


def test_minimal_polynomial_without_a_dependence(monkeypatch):
    monkeypatch.setattr(spectral, "first_dependence", lambda mats: None)
    with reaches("spectral", "I, S, ..., S^n are independent"):
        spectral.asymmetry(ExactMatrix(Q, [[1]]))


def test_claimed_root_does_not_divide(monkeypatch):
    monkeypatch.setattr(spectral, "find_one_root",
                        lambda poly, listed=None:
                        (poly[0].ctx.scalar(7), None))
    with reaches("spectral", "claimed root does not divide"):
        canonicalize(ExactMatrix(Q, [[1]]))


def test_roots_not_closed_under_inversion(monkeypatch):
    calls = []
    original = spectral.extract_root

    def miscount(work, root):
        quotient, mult = original(work, root)
        calls.append(root)
        return quotient, mult + (len(calls) == 1)

    monkeypatch.setattr(spectral, "extract_root", miscount)
    with reaches("spectral", "asymmetry roots are not closed under "
                             "inversion"):
        canonicalize(G2)


def test_roots_of_a_polynomial_not_closed_under_inversion():
    # (X - 2)(X - 5) over Q: no asymmetry has it, as 1/2 and 1/5 are not
    # roots, and the split refuses it unpatched
    poly = [Q.scalar(c) for c in (10, -7, 1)]
    asym = spectral.Asymmetry(ExactMatrix(Q, [[2, 0], [0, 5]]), poly, Q)
    with reaches("spectral", "asymmetry roots are not closed under "
                             "inversion"):
        spectral.split_min_poly(asym)


def test_root_splitting_runs_out_of_shifts(monkeypatch):
    # a constant splitting polynomial never separates two roots
    gf7 = prime_field(7)
    monkeypatch.setattr(roots, "_splitting_poly",
                        lambda ops, h, a, q: [ops.one])
    poly = [gf7.scalar(c) for c in (-6, 11, -6, 1)]  # (X-1)(X-2)(X-3)
    with reaches("roots", "no shift split a degree-%d factor in %d "
                          "tries"):
        roots._finite_field_roots(poly)


def test_jordan_chains_of_a_wrong_eigenvalue():
    # S - lam is not nilpotent on the lam side for a lam that is not its
    # eigenvalue
    lam = spectral.asymmetry_matrix(G4)[0, 0]
    with reaches("spectral", "matrix is not nilpotent"):
        spectral.hyperbolic_canonical(G4, lam + 1)


def test_eigenline_of_a_vanishing_krylov_matrix():
    # with Krylov matrices of zeros, q(S) e_j is 0 for every j
    asym = spectral.split_min_poly(spectral.asymmetry(G2))
    lam = asym.split_roots[0][0]
    with reaches("spectral", "q(S) e_j = 0 for every j"):
        spectral._eigenline(asym.min_poly, lam,
                            lambda j: ExactMatrix.zeros(Q, 2, 2))


def test_lam_pairing_degenerate(monkeypatch):
    monkeypatch.setattr(spectral, "nilpotent_jordan_chains", lambda nmat: [
        ExactMatrix.zeros(nmat.ctx, nmat.nrows, nmat.nrows)])
    with reaches("spectral", "lam pairing is degenerate"):
        canonicalize(G4)


def test_eigenspaces_that_do_not_fill_the_space():
    # with the roots 2 and 1/2 left out of the split, the classes at +-1
    # miss the G2 block's space
    a = ExactMatrix.block_diag(Q, [block(Block("A", 1)), block(Block("C", 2)),
                                   G2])
    asym = spectral.split_min_poly(spectral.asymmetry(a))
    asym.split_roots = [(r, m) for r, m in asym.split_roots
                        if r in (Q.one(), -Q.one())]
    with reaches("spectral", "generalized eigenspaces do not fill the "
                             "space"):
        spectral.eigen_split(a, asym)


# -- unipotent: peeling -------------------------------------------------------------------

F2 = block(Block("F", 2))  # one pair of order 1 at eigenvalue -1
# a 1 x 1 class is one single of order 1 without a peel, so these peel a
# class of dimension 2 or 3


def test_peeled_operator_not_nilpotent(monkeypatch):
    # the class operator S - 1 for S = 2 I
    operator = ExactMatrix.identity(Q, 2).scale(2).minus_scalar(1)
    patch_result(monkeypatch, canon, "eigen_split", lambda classes: [
        cl._replace(operator=operator) for cl in classes])
    with reaches("unipotent", "operator is not nilpotent"):
        canonicalize(ExactMatrix.identity(Q, 2))


def test_single_split_tries_run_out(monkeypatch):
    monkeypatch.setattr(unipotent, "_strands_alternating", lambda *args: True)
    monkeypatch.setattr(unipotent, "_repair_single_choice",
                        lambda comp, top, v: v)
    with reaches("unipotent", "could not keep the remainder "
                              "non-alternating"):
        canonicalize(ExactMatrix.identity(Q, 2))


def test_no_full_height_repair_vector(monkeypatch):
    # an A3 block is one single: no vector is orthogonal to the one it
    # splits off
    monkeypatch.setattr(unipotent, "_strands_alternating", lambda *args: True)
    with reaches("unipotent", "no full-height repair vector available"):
        canonicalize(block(Block("A", 3)))


def test_socle_functional_vanishes(monkeypatch):
    monkeypatch.setattr(unipotent, "_height_vector",
                        lambda top: ExactMatrix.zeros(top.ctx, top.nrows, 1))
    with reaches("unipotent", "socle functional vanished on a "
                              "non-degenerate part"):
        canonicalize(F2)


def test_no_vector_of_full_height(monkeypatch):
    patch_result(monkeypatch, unipotent, "_nilpotency_index",
                 lambda res: (res[0], res[1].scale(res[1].ctx.zero())))
    with reaches("unipotent", "no vector of full height"):
        canonicalize(F2)


def test_complement_dimension_mismatch(monkeypatch):
    monkeypatch.setattr(unipotent, "_orthogonal_complement",
                        lambda bg:
                        (ExactMatrix.zeros(bg.ctx, bg.ncols, 0), []))
    with reaches("unipotent", "complement dimension mismatch"):
        canonicalize(ExactMatrix.identity(Q, 2))


def test_restricted_span_not_invariant():
    # e_0, I on its free row 0, spans no invariant line of the lower shift:
    # J e_0 = e_1
    with reaches("unipotent", "the span is not invariant under the "
                              "operator"):
        unipotent._restricted(ExactMatrix.jordan_block(Q, 2),
                              ExactMatrix.unit_column(Q, 2, 0), [0])


# -- unipotent: the single reduction ---------------------------------------------------

def test_cyclic_row_system_without_a_solution(monkeypatch):
    monkeypatch.setattr(unipotent, "solve", lambda a, b: (None, None))
    with reaches("unipotent", "cyclic row system inconsistent"):
        canonicalize(block(Block("A", 3)))


def test_singular_gamma_side_basis(monkeypatch):
    # over GF(2) a reduction scaled by 2 is zero, and so is the Gamma
    # side's reduction of B5, whose basis then has no inverse
    f2 = prime_field(2)
    patch_result(monkeypatch, unipotent, "canon_single",
                 lambda x: x.scale(f2.scalar(2)))
    with reaches("unipotent", "Gamma-side reduction basis is singular"):
        canonicalize(block(Block("B", 5), f2))


# -- unipotent: the pair reduction --------------------------------------------------

def test_module_pairing_degenerate(monkeypatch):
    monkeypatch.setattr(unipotent, "_repair_generator",
                        lambda g, gen, other, m: gen.scale(gen.ctx.zero()))
    with reaches("unipotent", "module pairing is degenerate"):
        canonicalize(block(Block("D", 4)))
