"""Asymmetry of a non-degenerate form and its eigenvalue-based splitting.

For invertible A the asymmetry is S = A^{-1} A'.  Its minimal polynomial is
split into linear factors, each root (roots.py) peeled with its inverse,
extending the field by quadratic or Artin-Schreier adjunctions where needed;
the space then decomposes into generalized eigenspaces, orthogonal except
for the pairing of V_lam with V_{1/lam}.  Paired classes reduce to
hyperbolic blocks ((0, J_m(lam)), (I, 0)).  A +-1 class carries S - eps on
its basis B, I on its free rows, so S B is B times its free rows; when eps
is the only root B = I, and none is formed.
An automorphism sigma over S's field (that of A) sends ker (S - lam)^m onto
ker (S - sigma(lam))^m raw value for raw value, as elimination reads an
entry only as zero or nonzero; so one space is computed per orbit found,
over Q under the signed generator permutations that respect the records,
over GF(q) under the top record's conjugation.  For a simple root lam of
a cyclic S above S's field, V_lam = q(S) F^n, q = min_poly / (X - lam),
is read off S's Krylov matrices (Giesbrecht 1995); the rest is eliminated.
The search always extends: whether an answer beyond the input's field is
refused is decided once, in canon, on the split's and the answer's field.

The splitting stages return bases and X, not the matrices these reach,
and do not check them (the eigen classes' orthogonality, the Jordan chains,
the hyperbolic normal form): a wrong one is caught where canon certifies
the composed congruence, against the canonical matrix it assembles once.
The raises left stop a bounded search, report a missing dependence or
inverse, and keep the roots closed under inversion, without which a defect
would be refused as NotSplit.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cmp_to_key, partial

from .errors import InternalDegenerate, SingularInput
from .exactmat import ExactMatrix, first_dependence, inverse_or_rank, solve
from .field import adjunctions, canonical_compare, coordinate_map
from .roots import extract_root, find_one_root, poly_eval


class Asymmetry:
    """S = A^{-1}A' with its minimal polynomial and (optional) split roots.

    ctx is where the roots were found, which splitting may extend beyond
    the context of S; the arithmetic lifts S and its polynomial there.
    """

    def __init__(self, s, min_poly, ctx, split_roots=None):
        self.s = s
        self.min_poly = min_poly      # monic, low-to-high Scalar coefficients
        self.ctx = ctx
        self.split_roots = split_roots  # list of (root, multiplicity) or None


def asymmetry(a, ctx=None, s=None):
    """Asymmetry of an invertible Gram matrix, with exact minimal polynomial,
    both in a's field; ctx, a tower over it (a's own by default), is where
    the root search starts; s, if given, is S (asymmetry_or_kernel)."""
    if s is None:
        s = asymmetry_matrix(a)
    return Asymmetry(s, _minimal_polynomial(s), a.ctx if ctx is None else ctx)


def asymmetry_matrix(a):
    """S = A^{-1} A' for an invertible Gram matrix A; a singular A raises
    SingularInput."""
    s, _kernel = asymmetry_or_kernel(a)
    if s is None:
        raise SingularInput("asymmetry needs an invertible Gram matrix")
    return s


def asymmetry_or_kernel(a):
    """(S, A's right kernel) for a square A from the one elimination of
    [A | A'], solving A S = A': S and an empty kernel when A is invertible,
    else None and the kernel, A's own, as the pivots are searched in A's
    columns alone."""
    s, kernel = solve(a, a.transpose())
    return None if kernel.ncols else s, kernel


def _minimal_polynomial(s):
    """Monic minimal polynomial: the first dependence among I, S, S^2, ...

    The powers are formed one at a time and each, flattened, is reduced
    against the ones before it (exactmat.first_dependence), so a minimal
    polynomial of degree d costs d - 1 products, not the n of all powers up
    to S^n.
    """
    n = s.nrows

    def powers():
        yield ExactMatrix.identity(s.ctx, n)
        p = s
        for _ in range(n):  # S^n depends on I, ..., S^(n-1) (Cayley-Hamilton)
            yield p
            p = p @ s

    poly = first_dependence(powers())
    if poly is None:
        raise InternalDegenerate("I, S, ..., S^n are independent")
    return poly


# -- root splitting ---------------------------------------------------------------

def split_min_poly(asym):
    """Factor the minimal polynomial into linear factors, extending the field.

    Returns a new Asymmetry with split_roots filled and a possibly larger
    context; each root is searched for in the tower the one before it
    reached.  Raises NotSplit when a factor cannot be reached by quadratic
    (or Artin-Schreier) adjunctions.
    """
    ctx = asym.ctx
    work = [c.promote(ctx) for c in asym.min_poly]
    roots = []
    # None, or the roots of work in its context not yet peeled, least first:
    # X^q mod work is computed once per context, not once per root
    listed = None
    while len(work) >= 2:
        root, listed = find_one_root(work, listed)
        ctx = root.ctx
        work, mult = extract_root(work, root)
        if mult == 0:
            raise InternalDegenerate("claimed root does not divide")
        roots.append((root, mult))
        # keep the remaining factor inversion-closed: the partner 1/root
        # lives in the same tower, so peel it now
        partner = root.inverse()
        if partner != root and len(work) > 1 \
                and poly_eval(work, partner).is_zero():
            work, mult2 = extract_root(work, partner)
            roots.append((partner, mult2))
        listed = listed and [r for r in listed if r not in (root, partner)]
    _check_inverse_closed(roots)
    return Asymmetry(asym.s, asym.min_poly, ctx, split_roots=roots)


def _check_inverse_closed(roots):
    mults = dict(roots)
    if any(mults.get(r.inverse()) != m for r, m in roots):
        raise InternalDegenerate("asymmetry roots are not closed under "
                                 "inversion")


# -- eigen splitting -----------------------------------------------------------------

# gram B'AB and operator S - eps on B (None when 1 x 1), in gram's field
UnipotentClass = namedtuple("UnipotentClass", "eigenvalue basis gram operator")
# basis spans V_lam (its first half) and V_1/lam; image is None, or (j, f)
# when the class is the image of classes[j], f the automorphism's matrix map
PairClass = namedtuple("PairClass", "lam lam_inv basis gram image")


def named_pair(lam):
    """The pair {lam, 1/lam} as (rep, other): rep, the one that names the
    pair, is the lesser by canonical_compare."""
    inv = lam.inverse()
    return (lam, inv) if canonical_compare(lam, inv) <= 0 else (inv, lam)


def eigen_split(a, asym):
    """Split into unipotent classes (eigenvalue +-1) and hyperbolic pairs.

    Returns the classes: their bases B side by side are X, and X'AX is the
    block diagonal of their Gram matrices B'AB (trimmed at +-1); canon tiles
    X, in its final context.  The +-1 eigenspaces are taken in S's field,
    each pair's in the field of S and its root: a pair class whose rep is
    sigma of an earlier class's rep takes sigma of its basis, V_1/lam is
    sigma of V_lam when sigma(lam) = 1/lam, and the other spaces are
    computed (_automorphisms, _eigenline).
    """
    n, s_ctx = a.nrows, asym.s.ctx
    one = s_ctx.one()
    roots = [r for r, _m in asym.split_roots]
    automorphisms = cache(lambda level: _automorphisms(level, s_ctx))
    krylov = cache(lambda j: asym.s.krylov(
        ExactMatrix.unit_column(s_ctx, n, j), n))

    def gen_eigenspace(lam):
        # the min-poly multiplicity bounds the nilpotency index on V_lam
        expo = next((m for r, m in asym.split_roots if r == lam), n)
        if expo == 1 and len(asym.min_poly) == n + 1 \
                and len(lam.trim().ctx.tower) > len(s_ctx.tower):
            return _eigenline(asym.min_poly, lam, krylov), None
        m = asym.s.minus_scalar(lam)
        ker = inverse_or_rank(m.power(expo), rank_only=True)
        return ker.kernel, [i for i in range(n) if i not in ker.pivots]

    def image(x, y):
        # the matrix map of a sigma of the field of x and y with sigma(x) = y
        level = x.ctx.common(y.ctx)
        x, y = x.promote(level).raw, y.promote(level).raw
        sigma = next((f for f in automorphisms(level) if f(x) == y), None)
        return sigma and (lambda m: m.promote(level).mapped(sigma, level))

    classes = []
    for eps in dict.fromkeys((one, -one)):  # one entry in characteristic 2
        if eps not in roots:
            continue
        if roots == [eps]:  # the class fills the core: basis I, Gram A
            basis, gram, op = ExactMatrix.identity(s_ctx, n), a.trim(), asym.s
        else:  # S B = B (S B)[free], as B is I on its free rows
            basis, free = gen_eigenspace(eps)
            gram = (basis.transpose() @ a @ basis).trim()
            op = (asym.s.submatrix(free, range(n)) @ basis
                  if len(free) > 1 else None)
        classes.append(UnipotentClass(eps, basis, gram, op.minus_scalar(
            eps).trim(len(gram.ctx.tower)) if gram.nrows > 1 else None))
    paired = []
    for r in roots:
        if r not in (one, -one) and not any(r in pr for pr in paired):
            paired.append(named_pair(r))
    paired.sort(key=lambda pr: cmp_to_key(canonical_compare)(pr[0]))
    for rep, other in paired:
        height = len(s_ctx.common(rep.ctx).tower)  # where it is eliminated
        found = next(((j, f) for j, cl in enumerate(classes)
                      if isinstance(cl, PairClass)
                      for f in [image(cl.lam, rep)] if f), None)
        if found:
            src = classes[found[0]]
            basis, gram = (found[1](m).trim(height)
                           for m in (src.basis, src.gram))
        else:
            basis, f = gen_eigenspace(rep)[0], image(rep, other)
            basis = ExactMatrix.blocks(basis.ctx, [[basis, (
                f(basis).trim(height) if f else gen_eigenspace(other)[0])]])
            gram = basis.transpose() @ a @ basis
        classes.append(PairClass(rep, other, basis, gram, found))

    if sum(cl.basis.ncols for cl in classes) != n:
        raise InternalDegenerate("generalized eigenspaces do not fill the "
                                 "space")
    return classes


def _eigenline(min_poly, lam, krylov):
    """ker (S - lam), lam a simple root of cyclic S's minimal polynomial: the
    first nonzero q(S) e_j = krylov(j) q, 1 at its last nonzero entry, for
    q = min_poly / (X - lam)."""
    q = ExactMatrix(lam.ctx, [[c] for c in extract_root(min_poly, lam)[0]])
    v = next((v for j in range(q.nrows) for v in [krylov(j) @ q]
              if not v.is_zero()), None)
    if v is None:
        raise InternalDegenerate("q(S) e_j = 0 for every j")
    last = max(i for i in range(v.nrows) if not v[i, 0].is_zero())
    return v.scale(v[last, 0].inverse())


def _automorphisms(ctx, s_ctx):
    """The automorphisms of ctx over s_ctx that eigen_split tries, as raw
    maps: over a finite field the top record's conjugation, if above
    s_ctx; over Q each that sends every generator g_i above s_ctx to +-g_j,
    found generator by generator, j where the image of d_i is d_j (a ring
    map from a field is one to one, so no j is taken twice)."""
    h0, h = len(s_ctx.tower), len(ctx.tower)
    if ctx.kind != "rational":
        return [top_conjugation(ctx)] if h > h0 else []
    records = [d.promote(ctx).raw for _c1, d in adjunctions(ctx)]
    tables = [[(t, 1) for t in range(1 << h0)]]  # S's field is fixed
    for i in range(h0, h):
        tables = [table + [(t | 1 << j, s * sign) for t, s in table]
                  for table in tables for j in range(h0, h)
                  if _signed(table, records[i]) == records[j]
                  for sign in (1, -1)]
    return [partial(_signed, table) for table in tables]


def _signed(table, x):
    """x, a raw value of a Q tower, with g_S sent to sign g_T for (T, sign)
    = table[S]: a signed permutation of its numerators."""
    out = [0] * (len(x) - 1)
    for (t, sign), c in zip(table, x):
        out[t] = sign * c
    return (*out, x[-1])


def top_conjugation(ctx):
    """The raw map of the automorphism of ctx over the level below its top
    record g^2 = c1 g + d: it fixes g_1, ..., g_(h-1) and sends g = g_h to
    the other root c1 - g."""
    h = len(ctx.tower)
    c1 = ctx.tower[-1][0]
    images = [ctx.generator(i) for i in range(1, h)]
    return coordinate_map(ctx, ctx, images + [c1 - ctx.generator(h)])


# -- Jordan structure ---------------------------------------------------------------

def nilpotent_jordan_chains(nmat):
    """Jordan chains of a nilpotent matrix: a list of matrices with the
    columns v, Nv, ..., heights descending; deterministic."""
    ctx = nmat.ctx
    m = nmat.nrows
    if m == 0:
        return []
    kernels = [ExactMatrix.zeros(ctx, m, 0)]  # kernels[j]: a basis of ker N^j
    power = nmat
    heights = 0
    while True:
        ker = inverse_or_rank(power, rank_only=True).kernel
        kernels.append(ker)
        if ker.ncols == m:
            heights = len(kernels) - 1
            break
        power = power @ nmat
        if len(kernels) > m + 1:
            raise InternalDegenerate("matrix is not nilpotent")
    chains = []
    for h in range(heights, 0, -1):
        # new chain tops: the vectors of ker N^h independent of ker N^{h-1},
        # of the existing chains' elements of height h (chain[len - h]) and
        # of the tops already taken, i.e. the pivot columns among them
        below = [kernels[h - 1], *(c.columns([c.ncols - h])
                                   for c in chains if c.ncols >= h)]
        r = sum(b.ncols for b in below)
        pivots = inverse_or_rank(ExactMatrix.blocks(
            ctx, [[*below, kernels[h]]]), rank_only=True).pivots
        for p in pivots:
            if p >= r:
                top = kernels[h].columns([p - r])
                chains.append(nmat.krylov(top, h))
    chains.sort(key=lambda c: -c.ncols)
    return chains


# -- hyperbolic classes -------------------------------------------------------------

def hyperbolic_canonical(class_gram, lam):
    """Reduce one paired class to a direct sum of ((0, J_m(lam)), (I, 0)).

    class_gram is the Gram matrix on bases of V_lam and V_1/lam, ((0, U),
    (W, 0)) as both are isotropic; lam the chosen eigenvalue, whose side is
    Jordan-reduced by S = W^-1 U' on V_lam.  Returns (X, blocks): the
    block sizes m (Jordan sizes on the lam side) and X with X' class_gram X
    the block diagonal of hyperbolic_block_matrix(ctx, m, lam) over them,
    which canon builds once, as the target of its certificate.
    """
    ctx = class_gram.ctx
    n2, m = class_gram.nrows, class_gram.nrows // 2
    if m == 1:  # one G2(lam): the X the chains below give
        return ExactMatrix(ctx, [[1, 0],
                                 [0, class_gram[1, 0].inverse()]]), [1]
    pairing = class_gram.submatrix(range(m, n2), range(m))  # W
    # Jordan-reduce the lam side
    s_lam, kernel = solve(pairing, class_gram.submatrix(
        range(m), range(m, n2)).transpose())
    if kernel.ncols:
        raise InternalDegenerate("lam pairing is degenerate")
    chains = nilpotent_jordan_chains(s_lam.minus_scalar(lam))
    sizes = [c.ncols for c in chains]
    # reversed chains, highest power of N first; duals on the
    # inverse-eigenvalue side: f(t_j, s_i) = delta_ij; with P = (f(c_l, s_i))
    # for the inverse-side unit vectors c_l, the coordinates of t_j are row j
    # of P^{-1}
    smat = ExactMatrix.blocks(ctx, [[
        c.columns(range(c.ncols - 1, -1, -1)) for c in chains]])
    pinv = inverse_or_rank(pairing @ smat).inverse
    if pinv is None:
        raise InternalDegenerate("lam pairing is degenerate")
    x1 = ExactMatrix.block_diag(ctx, [smat, pinv.transpose()])
    # interleave into per-block hyperbolic cells: the s-side of each block,
    # then its t-side
    order = []
    off = 0
    for sz in sizes:
        order += [*range(off, off + sz), *range(m + off, m + off + sz)]
        off += sz
    return x1.columns(order), sizes


def hyperbolic_block_matrix(ctx, m, lam):
    """The canonical paired-class cell ((0, J_m(lam)), (I_m, 0))."""
    z = ExactMatrix.zeros(ctx, m, m)
    return ExactMatrix.blocks(ctx, [
        [z, ExactMatrix.jordan_block(ctx, m, lam)],
        [ExactMatrix.identity(ctx, m), z]])
