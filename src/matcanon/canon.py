"""Full canonicalization under congruence and the complete invariant.

The pipeline: Gabriel decomposition, asymmetry of the invertible core,
splitting of its minimal polynomial (extending the field where needed),
the eigenvalue splitting, and per-class reduction to the canonical
indecomposable blocks, named by the family table unipotent.FAMILIES.  Every
stage returns a plain, unverified congruence (exactmat.Congruence).  Only
the composed congruence is an answer, and it is certified once, against the
assembled canonical matrix, where it leaves canonicalize or equivalent.

Every stage extends the field where a root is missing.  The strict
policy, an answer in the input's field only, is decided once, in
_canonicalize: a split or an answer beyond the input's field is refused,
naming the first record beyond it.  A tower cap that stops the split is
that refusal too; one that stops a reduction is not, as the reduction's
record may cancel in the answer.  Under strict both sides of equivalent
answer in the input's field, so only the extend policy merges towers.

The field travels on the values: a stage's result lives in the tower it
reached, read off as x.ctx, and the arithmetic lifts whatever it meets, so
no stage takes or returns a context beside its values.  Each stage runs in
the least field that holds its values: Gabriel, the asymmetry and its
minimal polynomial in the field of the input's entries; the +-1
eigenspaces in S's field; a unipotent class's asymmetry and peeling in the
field of its Gram matrix, a pair class's reduction in the field of its
Gram matrix and lam, and a class's columns B x_local in its own field (an
image class, see spectral, maps its source's).  The one choice made on
purpose is where a root search or a reduction starts: the root search in
the input's context, and each single or pair reduction in the running
tower the one before it reached, which never shrinks, so a root two
reductions need is found the second time, not adjoined again elsewhere.

equivalent canonicalizes each side once.  When the two sides settle in
different towers, it merges them once into a field M, and b's form and
congruence are carried into M by the images of its generators
(field.coordinate_map), which fix the records the two towers share.  The
normal form is unique, so the records decide: records that differ give
the false verdict, and equal records compose into the witness
Y = X_a X_b^-1, one solve in M.  transpose_witness canonicalizes once: a
fixed Z'BZ = B' per canonical block gives Y = X Z X^-1 in A's form's field.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key

from .errors import (InternalDegenerate, InvalidDescriptor,
                     NoArtinSchreierRootStrict, NoRootStrictPolicy, NotSplit,
                     TowerCapExceeded)
from .exactmat import (Congruence, CongruenceWitness, ExactMatrix,
                       WitnessError, solve)
from .field import (EXTEND, RECORD_KINDS, STRICT, adjunctions,
                    canonical_compare, coordinate_map, embed_scalar,
                    format_scalar, merge_contexts)
from .gabriel import _check_square, _runs, gabriel_decompose
from .spectral import (UnipotentClass, asymmetry, asymmetry_matrix,
                       eigen_split, hyperbolic_block_matrix,
                       hyperbolic_canonical, named_pair, split_min_poly)
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


def _block_transpose(desc, ctx):
    """Z with Z'BZ = B' for the canonical block B of desc: the reversal
    for a hyperbolic cell ((0, J_m(lam)), (I, 0)), which every pair and G
    block is, diag(1, -1, 1, ...) for Gamma_n, and for Gamma_n^0, which has
    no closed form known here, the witness equivalent finds for B and B'."""
    n = desc.n
    if desc.family == "G" or FAMILIES[desc.family][1] == "pair":
        return _reversal(ctx, n)
    if ctx.characteristic != 2:
        return ExactMatrix(ctx, [[(-1) ** i * (i == j) for j in range(n)]
                                 for i in range(n)])
    b = canonical_block_matrix(desc, ctx)
    return equivalent(b, b.transpose()).witness.x


def _reversal(ctx, n):
    """F_n, the reversal: F J_n F = J_n' for any Jordan block J_n(lam)."""
    return ExactMatrix.identity(ctx, n).columns(range(n - 1, -1, -1))


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
    if dec.core.nrows == 0:
        form = CanonicalForm(dec.jordan_sizes, [], a.ctx, [])
        x, _source, target = dec.congruence
        return form, Congruence(x.promote(a.ctx), a, target.promote(a.ctx))

    height = len(a.ctx.tower)
    try:
        asym = split_min_poly(asymmetry(dec.core, a.ctx))
    except TowerCapExceeded as exc:
        # strict refuses a split that needs any record, the capped one too
        if policy != STRICT:
            raise
        raise _split_refusal(exc.records[height][0]) from None
    if policy == STRICT and asym.ctx != a.ctx:
        raise _split_refusal(adjunctions(asym.ctx, height)[0][0])

    ctx = asym.ctx  # running tower: a class starts where the last ended
    pending = []    # (descriptors, columns) per class
    for cl in eigen_split(dec.core, asym).classes:
        if isinstance(cl, UnipotentClass):
            descs, x = _reduce_unipotent_class(cl, ctx)
            ctx = ctx.common(x.ctx)
        elif cl.image is None:  # in the least field of its gram and lam
            lam, gram = cl.lam.trim(), cl.gram.trim()
            res = hyperbolic_canonical(
                gram.promote(gram.ctx.common(lam.ctx)), lam)
            descs = [Block("G", 2 * m, lam) for m in res.blocks]
            x = cl.basis @ res.x
        else:  # an image class: its source's blocks and columns mapped
            j, f = cl.image
            descs = [Block("G", d.n, cl.lam) for d in pending[j][0]]
            x = f(pending[j][1])
        pending.append((descs, x))

    # the class columns side by side, in the final context; with a
    # Gabriel part, after its Jordan columns, on its core columns
    njord = sum(dec.jordan_sizes)
    blocks = [d for descs, _x in pending for d in descs]
    x_total = ExactMatrix.blocks(ctx, [[x for _d, x in pending]])
    if njord:
        x = dec.congruence.x
        x_total = ExactMatrix.blocks(ctx, [[
            x.columns(range(njord)),
            x.columns(range(njord, x.ncols)) @ x_total]])

    # order the blocks canonically: a column order, the columns of the
    # blocks following those of the Gabriel part
    cols = _runs(njord, [d.n for d in blocks])
    order = sorted(range(len(blocks)), key=lambda i: _block_key(blocks[i]))
    x_total = x_total.columns([*range(njord),
                               *(c for i in order for c in cols[i])])

    form = CanonicalForm(dec.jordan_sizes, [blocks[i] for i in order],
                         ctx, [])
    target = canonical_form_matrix(form)
    form, cong = _trim_result(form, Congruence(x_total, a, target))
    if policy == STRICT and form.extension_report:
        c1, d = adjunctions(form.context, height)[0]
        raise (NoRootStrictPolicy, NoArtinSchreierRootStrict)[c1](
            RECORD_KINDS[c1].no_root % (format_scalar(d), d.ctx))
    return form, cong


def _split_refusal(c1):
    """The strict policy's refusal of a split whose first record beyond the
    input's field has kind c1."""
    return NotSplit("quadratic factor %s under strict policy" % (
        "has non-square discriminant",
        "needs an Artin-Schreier extension")[c1])


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


def _reduce_unipotent_class(cl, ctx):
    """Reduce one eigenvalue +-1 class; returns descriptors and its columns
    B X, over the context the reductions reached from the running tower
    ctx.  The class is peeled in the field of its Gram matrix."""
    class_gram, eps = cl.gram.trim(), cl.eigenvalue
    nmat = (asymmetry_matrix(class_gram).minus_scalar(eps.trim())
            if class_gram.nrows > 1 else None)
    pieces = peel_all(class_gram, nmat, eps)
    sign, char = eigen_sign(eps), ctx.characteristic
    descs = []
    xs = []
    for piece in pieces:
        reduce = reduce_single if piece.kind == "single" else reduce_pair
        # each piece starts from the tower the piece before it reached
        x = reduce(piece.gram.promote(ctx), eps, piece.order).x
        ctx = x.ctx
        fam = family_of(piece.kind, sign, char, piece.order)
        if fam is None:
            raise InternalDegenerate(
                "no family has a %s of order %d at eigenvalue %d in "
                "characteristic %d" % (piece.kind, piece.order, sign, char))
        descs.append(Block(fam, piece.basis.ncols))
        xs.append(x)
    x_peel = ExactMatrix.blocks(class_gram.ctx, [[p.basis for p in pieces]])
    return descs, cl.basis @ x_peel @ ExactMatrix.block_diag(ctx, xs)


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


def equivalent(a, b, policy=EXTEND):
    """Decide congruence; verdict true carries an exactly verified witness.

    A false verdict carries both invariant records in `records`, and the
    two canonicalizations behind it are certified before it returns.  Each
    side is canonicalized once; when the two settle in different towers
    (sqrt(2) on one side, sqrt(8) on the other), they are merged once into
    a field M, and b's form and X_b are carried into M.  Records that
    differ give the false verdict, equal ones the witness Y = X_a X_b^-1,
    one solve in M.

    Equal records mean equal canonical matrices in M: congruent inputs
    have similar asymmetries, hence one minimal polynomial, which the same
    deterministic root search splits in the same start context.  So the
    eigenvalue records are the shared prefix of the two towers, which the
    images fix, and every G block keeps its eigenvalue and its place.  The
    witness is still certified, so a broken map raises WitnessError, never
    a wrong verdict.
    """
    _check_square(a, b)
    start_ctx = a.ctx.common(b.ctx)
    if a.nrows != b.nrows:
        return EquivalenceResult(False, None, start_ctx, [])
    form_a, cong_a = _canonicalize(a.promote(start_ctx), policy)
    form_b, cong_b = _canonicalize(b.promote(start_ctx), policy)
    x_b = cong_b.x
    if form_a.context != form_b.context:
        ctx, images = merge_contexts(form_a.context, form_b.context)
        x_b = x_b.mapped(coordinate_map(form_b.context, ctx, images), ctx)
        form_a = form_a._replace(context=ctx)
        form_b = _mapped_form(form_b, ctx, images)
    records = (record_from_form(form_a), record_from_form(form_b))
    if records[0] != records[1]:
        return _false_verdict(start_ctx, records, cong_a, cong_b)
    return _true_verdict(a, b, start_ctx, cong_a.x, x_b)


def _mapped_form(form, ctx, images):
    """form carried into ctx by the images of the generators of form's
    context: each G block's eigenvalue is mapped, and its pair named again
    as eigen_split names it."""
    blocks = [d if d.lam is None else
              Block(d.family, d.n, named_pair(embed_scalar(d.lam, ctx,
                                                           images))[0])
              for d in form.blocks]
    return CanonicalForm(form.gabriel, blocks, ctx, [])


def _false_verdict(start_ctx, records, cong_a, cong_b):
    # the verdict rests on both canonical forms: certify them
    CongruenceWitness(*cong_a)
    CongruenceWitness(*cong_b)
    ctx = records[0].context
    return EquivalenceResult(False, None, ctx,
                             _extension_report(start_ctx, ctx), records)


def _true_verdict(a, b, start_ctx, x_a, x_b):
    # Y = X_a X_b^-1, the solution of X_b' Y' = X_a'
    y_t, kernel = solve(x_b.transpose(), x_a.transpose())
    if kernel.ncols:
        raise WitnessError("witness matrix is singular")
    ctx = y_t.ctx
    return EquivalenceResult(True, CongruenceWitness(y_t.transpose(), a, b),
                             ctx, _extension_report(start_ctx, ctx))


def transpose_witness(a, policy=EXTEND):
    """Y with Y' A Y = A'; succeeds whenever canonicalize does.  One
    canonicalization X'AX = B gives X'A'X = B', so with Z'BZ = B' block by
    block, Y = X Z X^-1: one solve in A's canonical field, certified."""
    form, cong = _canonicalize(a, policy)
    z = ExactMatrix.block_diag(form.context, [
        *(_reversal(form.context, s) for s in form.gabriel),
        *(_block_transpose(d, form.context) for d in form.blocks)])
    return _true_verdict(a, a.transpose(), a.ctx, cong.x @ z, cong.x).witness
