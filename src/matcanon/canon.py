"""Full canonicalization under congruence and the complete invariant.

The pipeline: Gabriel decomposition, asymmetry of the invertible core,
splitting of its minimal polynomial (extending the field when the policy
allows), the eigenvalue splitting, and per-class reduction to the canonical
indecomposable blocks, named by the family table unipotent.FAMILIES.  Every
stage returns a plain, unverified congruence (exactmat.Congruence).  Only
the composed congruence is an answer, and it is certified once, against the
assembled canonical matrix, where it leaves canonicalize or equivalent.

The field travels on the values: a stage's result lives in the tower it
reached, read off as x.ctx, and the arithmetic lifts whatever it meets, so
no stage takes or returns a context beside its values.  Each stage runs in
the least field that holds its values: Gabriel, the asymmetry and its
minimal polynomial in the field of the input's entries (in equivalent's
merge rounds, the inputs' own field, not the merged tower); the +-1
eigenspaces in S's field; a unipotent class's asymmetry and peeling in the
field of its Gram matrix, and a pair class's reduction in the field of its
Gram matrix and lam.  The one choice made on purpose is where a root search
or a reduction starts: the root search in the input's context, and each
single or pair reduction in the running tower the one before it reached,
which never shrinks, so a root that two reductions need is found the
second time, not adjoined again at another height.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key

from .errors import InternalDegenerate, InvalidDescriptor, TowerCapExceeded
from .exactmat import (Congruence, CongruenceWitness, ExactMatrix,
                       WitnessError, inverse_or_rank)
from .field import (EXTEND, RECORD_KINDS, adjunctions, canonical_compare,
                    format_scalar, merge_contexts)
from .gabriel import _check_square, _runs, gabriel_decompose
from .spectral import (UnipotentClass, asymmetry, asymmetry_matrix,
                       eigen_split, hyperbolic_block_matrix,
                       hyperbolic_canonical, split_min_poly)
from .unipotent import (CHARACTERISTICS, FAMILIES, eigen_sign, exists_in,
                        family_of, gamma_block, peel_all, reduce_pair,
                        reduce_single)


class Block:
    """Descriptor of one canonical indecomposable block.

    The eigenvalue of a G block is stored trimmed to its minimal prefix
    context, so descriptors compare across towers that diverge later.
    """

    __slots__ = ("family", "n", "lam")

    def __init__(self, family, n, lam=None):
        self.family = family
        self.n = n
        self.lam = lam.trim() if lam is not None else None

    def __eq__(self, other):
        if not isinstance(other, Block):
            return NotImplemented
        if self.family != other.family or self.n != other.n:
            return False
        if self.lam is None:
            return other.lam is None
        return other.lam is not None and self.lam == other.lam

    def __hash__(self):
        return hash((self.family, self.n))

    def __repr__(self):
        if self.family == "G":
            return "G%d(%s)" % (self.n, format_scalar(self.lam))
        return "%s%d" % (self.family, self.n)


# gabriel plus blocks is the congruence invariant; context and
# extension_report carry the witness (the field X is written over, and how it
# was reached) and can differ between congruent inputs
CanonicalForm = namedtuple("CanonicalForm",
                           "gabriel blocks context extension_report")

# records: (record of a, record of b) behind a false verdict reached by
# canonicalizing both sides, else None
EquivalenceResult = namedtuple(
    "EquivalenceResult", "equivalent witness context extensions records",
    defaults=(None,))


def canonical_block_matrix(desc, ctx):
    """The exact block matrix for one descriptor in the given context."""
    fam, n = desc.family, desc.n
    if fam != "G" and fam not in FAMILIES:
        raise InvalidDescriptor("unknown family %r" % (fam,))
    if n < 1:
        raise InvalidDescriptor("%s_n needs n >= 1" % fam)
    if fam == "G":
        if n % 2 == 1:
            raise InvalidDescriptor("G_n needs even n")
        lam = desc.lam
        if lam.is_zero() or lam * lam == ctx.one():
            raise InvalidDescriptor("G_n(lam) needs lam with lam^2 != 0, 1")
        return hyperbolic_block_matrix(ctx, n // 2, lam)
    sign, kind, where, parity = FAMILIES[fam]
    count = 1 if kind == "single" else 2  # elementary divisors
    if n % count:
        raise InvalidDescriptor("%s_n needs even n" % fam)
    if (n // count) % 2 != parity or not exists_in(where, ctx.characteristic):
        raise InvalidDescriptor("%s_n needs %s %s%s" % (
            fam, ("even", "odd")[parity], "nm"[count - 1],
            CHARACTERISTICS[where]))
    if kind == "single":
        return gamma_block(ctx, n)
    return hyperbolic_block_matrix(ctx, n // 2, ctx.scalar(sign))


def canonical_form_matrix(form):
    """The full canonical matrix: Gabriel blocks then sorted blocks."""
    ctx = form.context
    parts = [ExactMatrix.jordan_block(ctx, s) for s in form.gabriel]
    parts.extend(canonical_block_matrix(d, ctx) for d in form.blocks)
    return ExactMatrix.block_diag(ctx, parts)


def _block_key(desc):
    """A block's place in the canonical order: the non-G families in table
    order, then G blocks by eigenvalue; larger blocks first within each."""
    if desc.family == "G":
        return (len(FAMILIES), _LamKey(desc.lam), -desc.n)
    return (list(FAMILIES).index(desc.family), -desc.n)


_LamKey = cmp_to_key(canonical_compare)


def canonicalize(a, policy=EXTEND):
    """Canonical form and verified witness for a square matrix.

    Returns (CanonicalForm, CongruenceWitness); the witness target is
    canonical_form_matrix(form), possibly over an extended context.
    """
    form, cong = _canonicalize(a, policy)
    return form, CongruenceWitness(*cong)


def _canonicalize(a, policy):
    """canonicalize without the certificate: (CanonicalForm, Congruence)."""
    dec = gabriel_decompose(a.trim())
    core = dec.core
    if core.nrows == 0:
        form = CanonicalForm(dec.jordan_sizes, [], a.ctx, [])
        x, _source, target = dec.congruence
        return form, Congruence(x.promote(a.ctx), a, target.promote(a.ctx))

    asym = split_min_poly(asymmetry(core, a.ctx), policy)
    split = eigen_split(core, asym)

    ctx = asym.ctx  # the running tower: each class starts where the last ended
    pending = []    # (descriptors, x_local) per class
    offset = 0
    for cl in split.classes:
        dim = (cl.basis.ncols if isinstance(cl, UnipotentClass)
               else cl.basis_lam.ncols + cl.basis_inv.ncols)
        idx = list(range(offset, offset + dim))
        class_gram = split.gram.submatrix(idx, idx).trim()
        if isinstance(cl, UnipotentClass):
            descs, x_local = _reduce_unipotent_class(
                class_gram, cl.eigenvalue, policy, ctx)
        else:
            descs, x_local = _reduce_pair_class(class_gram, cl)
        ctx = ctx.common(x_local.ctx)
        pending.append((descs, x_local))
        offset += dim

    # assemble the class reductions in the final context
    njord = sum(dec.jordan_sizes)
    blocks = [d for descs, _x in pending for d in descs]
    x_classes = ExactMatrix.block_diag(ctx, [x for _d, x in pending])

    # witness so far: A -> jordan + core -> jordan + eigen gram -> ...
    x_total = dec.congruence.x @ ExactMatrix.block_diag(ctx, [
        ExactMatrix.identity(ctx, njord), split.x @ x_classes])

    # order the blocks canonically: a column order, the columns of the
    # blocks following those of the Gabriel part
    cols = _runs(njord, [d.n for d in blocks])
    order = sorted(range(len(blocks)), key=lambda i: _block_key(blocks[i]))
    x_total = x_total.columns([*range(njord),
                               *(c for i in order for c in cols[i])])

    form = CanonicalForm(dec.jordan_sizes, [blocks[i] for i in order],
                         ctx, [])
    target = canonical_form_matrix(form)
    return _trim_result(form, Congruence(x_total, a, target))


def _trim_result(form, cong):
    """Drop tower levels that the congruence's X and target never touch.

    Scaffolding adjunctions from intermediate reductions can cancel in the
    composed congruence; the reported context keeps only what the relation
    actually uses, and never less than the input's, cong.source.ctx.
    Trimming comes before the one certification, so the trimmed relation
    is the one certified.
    """
    start_ctx = cong.source.ctx
    height = len(start_ctx.tower)
    x, target = cong.x.trim(height), cong.target.trim(height)
    ctx = x.ctx.common(target.ctx)
    cong = Congruence(x.promote(ctx), cong.source.promote(ctx),
                      target.promote(ctx))
    report = _extension_report(start_ctx, ctx)
    return CanonicalForm(form.gabriel, form.blocks, ctx, report), cong


def _extension_report(start_ctx, ctx):
    return ["%s(%s)" % (RECORD_KINDS[c1].report, format_scalar(d))
            for c1, d in adjunctions(ctx, len(start_ctx.tower))]


def _reduce_unipotent_class(class_gram, eps, policy, ctx):
    """Reduce one eigenvalue +-1 class; returns descriptors and local X,
    over the context the reductions reached from the running tower ctx.
    The class is peeled in class_gram's field."""
    nmat = asymmetry_matrix(class_gram).minus_scalar(eps.trim())
    pieces = peel_all(class_gram, nmat, eps)
    sign, char = eigen_sign(eps), ctx.characteristic
    descs = []
    xs = []
    for piece in pieces:
        reduce = reduce_single if piece.kind == "single" else reduce_pair
        # each piece starts from the tower the piece before it reached
        x = reduce(piece.gram.promote(ctx), eps, piece.order, policy).x
        ctx = x.ctx
        fam = family_of(piece.kind, sign, char, piece.order)
        if fam is None:
            raise InternalDegenerate(
                "no family has a %s of order %d at eigenvalue %d in "
                "characteristic %d" % (piece.kind, piece.order, sign, char))
        descs.append(Block(fam, piece.basis.ncols))
        xs.append(x)
    x_peel = ExactMatrix.blocks(class_gram.ctx, [[p.basis for p in pieces]])
    return descs, x_peel @ ExactMatrix.block_diag(ctx, xs)


def _reduce_pair_class(class_gram, cl):
    """Reduce one hyperbolic pair class to G blocks, in the least field
    that holds class_gram and lam."""
    lam = cl.lam.trim()
    class_gram = class_gram.promote(class_gram.ctx.common(lam.ctx))
    res = hyperbolic_canonical(class_gram, asymmetry_matrix(class_gram),
                               lam, cl.basis_lam.ncols)
    return [Block("G", 2 * m, lam) for m in res.blocks], res.x


# -- invariants and congruence decision --------------------------------------------


class InvariantRecord:
    """Complete invariant: Gabriel sizes, per-class elementary divisor
    multisets, and (characteristic 2) alternating flags for odd orders."""

    def __init__(self, gabriel, unipotent, pairs, context):
        self.gabriel = tuple(gabriel)
        self.unipotent = unipotent  # list of (eps, {m: count}, {m: flag})
        self.pairs = pairs          # list of (lam, {m: count})
        self.context = context

    def __eq__(self, other):
        if not isinstance(other, InvariantRecord):
            return NotImplemented
        return ((self.gabriel, self.unipotent, self.pairs)
                == (other.gabriel, other.unipotent, other.pairs))

    def __repr__(self):
        return ("InvariantRecord(gabriel=%r, unipotent=%r, pairs=%r)"
                % (list(self.gabriel), self.unipotent, self.pairs))


def record_from_form(form):
    """Derive the invariant record from a canonical form (bijectively)."""
    ctx = form.context
    char = ctx.characteristic
    one = ctx.one()
    uni = {}
    flags = {}
    pair_entries = []   # (lam, m) occurrences
    for b in form.blocks:
        if b.family == "G":
            pair_entries.append((b.lam, b.n // 2))
            continue
        sign, kind, _where, _parity = FAMILIES[b.family]
        count = 1 if kind == "single" else 2
        order = b.n // count
        mults = uni.setdefault(sign, {})
        mults[order] = mults.get(order, 0) + count
        if char == 2 and order % 2 == 1:
            # a B block gives an odd order the flag False, an E block True
            if flags.setdefault(order, kind == "pair") != (kind == "pair"):
                raise InternalDegenerate("B and E blocks share one order")
    unipotent = []
    for sign in (1, -1):
        if sign in uni:
            eps = (one if sign == 1 else -one).trim()
            unipotent.append((eps, uni[sign],
                              flags if (char == 2 and sign == 1) else {}))
        if char == 2:
            break
    pair_entries.sort(key=lambda lm: (_LamKey(lm[0]), lm[1]))
    pair_list = []
    for lam, m in pair_entries:
        if pair_list and pair_list[-1][0] == lam:
            pair_list[-1][1][m] = pair_list[-1][1].get(m, 0) + 1
        else:
            pair_list.append((lam, {m: 1}))
    return InvariantRecord(form.gabriel, unipotent, pair_list, ctx)


def blocks_from_record(record):
    """Reconstruct the sorted block list from an invariant record."""
    char = record.context.characteristic
    blocks = []
    for eps, mults, flags in record.unipotent:
        sign = eigen_sign(eps)
        for m in sorted(mults):
            count = mults[m]
            single = family_of("single", sign, char, m)
            if single is not None and not flags.get(m, False):
                blocks.extend(Block(single, m) for _ in range(count))
                continue
            if count % 2:
                raise InternalDegenerate("odd pair multiplicity")
            pair = family_of("pair", sign, char, m)
            blocks.extend(Block(pair, 2 * m) for _ in range(count // 2))
    for lam, mults in record.pairs:
        for m in sorted(mults):
            blocks.extend(Block("G", 2 * m, lam) for _ in range(mults[m]))
    return sorted(blocks, key=_block_key)


def invariants(a, policy=EXTEND):
    form, _w = canonicalize(a, policy)
    return record_from_form(form)


_MERGE_ROUNDS = 8


def equivalent(a, b, policy=EXTEND):
    """Decide congruence; verdict true carries an exactly verified witness.

    A false verdict carries both invariant records in `records`, and the
    two canonicalizations behind it are certified before it returns.
    Canonicalizing two matrices can demand different (but compatible)
    towers, e.g. sqrt(2) on one side and sqrt(8) on the other; the loop
    merges the contexts and re-canonicalizes until both sides settle in
    one field.
    """
    _check_square(a, b)
    if a.nrows != b.nrows:
        return EquivalenceResult(False, None, a.ctx, [])
    start_ctx = a.ctx.common(b.ctx)
    ctx = start_ctx
    for _ in range(_MERGE_ROUNDS):
        form_a, cong_a = _canonicalize(a.promote(ctx), policy)
        form_b, cong_b = _canonicalize(b.promote(ctx), policy)
        if form_a.context == form_b.context:
            break
        ctx = merge_contexts(form_a.context, form_b.context, policy)
    else:
        raise TowerCapExceeded("context reconciliation did not converge")
    rec_a = record_from_form(form_a)
    rec_b = record_from_form(form_b)
    report = _extension_report(start_ctx, form_a.context)
    if rec_a != rec_b:
        # the verdict rests on both canonical forms: certify them
        CongruenceWitness(*cong_a)
        CongruenceWitness(*cong_b)
        return EquivalenceResult(False, None, form_a.context, report,
                                 (rec_a, rec_b))
    ctx = form_a.context
    xb_inv = inverse_or_rank(cong_b.x).inverse
    if xb_inv is None:
        raise WitnessError("witness matrix is singular")
    y = cong_a.x @ xb_inv
    witness = CongruenceWitness(y, a, b)
    return EquivalenceResult(True, witness, ctx, report)


def transpose_witness(a, policy=EXTEND):
    """Y with Y' A Y = A'; succeeds whenever canonicalize does."""
    res = equivalent(a, a.transpose(), policy)
    if not res.equivalent:
        raise InternalDegenerate("a matrix failed to be congruent to its "
                                 "transpose")
    return res.witness
