"""Dense exact matrices over a FieldContext and certified congruences.

Kernel.  Matrix products (ExactMatrix.__matmul__) and one Gauss-Jordan
elimination (_rref, behind inverse_or_rank and solve; first_dependence is
its incremental form) run on the raw values of the entries (Scalar.raw) and
build their result's Scalars on raw values.  The arithmetic is the
context's ctx.ops (field._raw_ops), which the Scalar operators and root
finding's polynomial layer share, and the kernels are written once against
its row interface (neg, inverse, scale, axpy, matmul).  It has four cases.
Q and its towers have one normalized integer vector per entry (numerators
over a positive common denominator, gcd 1, so equal entries have equal raw
values), multiplied by one flat pass over the monomial products g_S g_T; a
matrix product sums each entry over one denominator and normalizes it
once.  GF(p) at tower height 0 has flat ints with one reduction mod p per
dot product (after FFPACK, Dumas, Giorgi and Pernet, ISSAC 2004).  Every
other finite field of at most 256 elements has element indices, multiplied
through exp/log tables and added by XOR or a Zech logarithm.  Larger finite
fields have integer vectors mod p, multiplied like the rational vectors by
one pass over the monomial products, each entry of a matrix product reduced
mod p once.

An elimination builds only what its caller reads.  inverse_or_rank appends
an identity, and so builds the row transform, only for a square input (for
its inverse) or with transform=True; with rank_only=True it never augments
and returns rank, kernel and pivots alone, as every rank, kernel and
invertibility test does (the witness check needs rank n, not X^-1).
first_dependence reduces vectors as they are read and stops at the first
dependence, so the minimal polynomial forms only the powers it needs.

Two product helpers are built on it: ExactMatrix.power (field.power's
square and multiply) and ExactMatrix.krylov (the columns v, Mv, ...,
M^(k-1) v).  The pipeline stages reach the kernel only through @,
inverse_or_rank, solve, first_dependence and these two; they keep no
elimination, power loop or bilinear sum of their own.  A product with an
empty side is the zero matrix of its shape, without the kernel.  A reorder
of a basis is a column order, X.submatrix(range(n), order), with Gram
matrix G.submatrix(order, order); no permutation matrix is multiplied.

Contexts meet here.  A matrix lives in one FieldContext, and the arithmetic
lifts: @, +, scale, minus_scalar and == work in the common context of their
operands (the longer of two prefix-compatible towers), and ExactMatrix(ctx,
rows) (so from_columns and block_diag) and krylov build in the common
context of ctx and of all the entries, never in the context of the first
entry, which may lie lower.  promote only goes up a tower.  So a value
computed from an extension carries it, and no caller passes a context beside
a value that has one.

Certification.  A Congruence (x, source, target) is a plain, unverified
claim that x' * source * x == target, such as a pipeline stage returns.
CongruenceWitness(*c) certifies one: it checks X'AX = B and the
invertibility of X exactly when it is built.  Answers are certified once,
where they leave the library: in canonicalize, equivalent and
transpose_witness, and in the CLI's gabriel subcommand, which prints the
Gabriel congruence.  One check of the composed X of a chain of stages
certifies the answer whatever the links did, so the links, the Gabriel
decomposition among them, are not checked on their own.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .errors import ContextMismatch, DimensionMismatch, MatcanonError
from .field import Scalar, power


def _raw(rows):
    """The raw values of rows of scalars, as lists."""
    return [[e.raw for e in row] for row in rows]


def _scalars(ctx, rows):
    """Rows of raw values of ctx as tuples of scalars."""
    new = functools.partial(Scalar, ctx)
    return tuple(tuple(map(new, row)) for row in rows)


def _trusted(ctx, rows, ncols):
    """ExactMatrix from a tuple of tuples of ncols scalars, all in ctx.

    Unlike ExactMatrix(), it checks, converts and lifts nothing.  ncols is
    given rather than read off the first row, so a matrix with no rows
    keeps its column count.
    """
    m = object.__new__(ExactMatrix)
    m.ctx = ctx
    m.rows = rows
    m.nrows = len(rows)
    m.ncols = ncols
    return m


class ExactMatrix:
    """Immutable dense matrix of scalars sharing one field context.

    ExactMatrix(ctx, rows) lives in the common context of ctx and of all
    its Scalar entries (ints and Fractions are read in ctx), so rows that
    mix a field and its extensions need no promotion first.
    """

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx, rows):
        rows = tuple(map(tuple, rows))
        for e in itertools.chain.from_iterable(rows):
            if isinstance(e, Scalar) and e.ctx is not ctx:
                ctx = ctx.common(e.ctx)
        self.ctx = ctx
        # an entry already in ctx is kept as it is; ctx.scalar converts an
        # int or Fraction and lifts a Scalar from a prefix of ctx
        rows = tuple(tuple(e if isinstance(e, Scalar) and e.ctx is ctx
                           else ctx.scalar(e) for e in row) for row in rows)
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(ctx, nrows, ncols):
        row = (ctx.zero(),) * ncols
        return _trusted(ctx, (row,) * nrows, ncols)

    @staticmethod
    def identity(ctx, n):
        z, o = ctx.zero(), ctx.one()
        return _trusted(ctx, tuple(tuple(o if i == j else z for j in range(n))
                                   for i in range(n)), n)

    @staticmethod
    def jordan_block(ctx, n, lam=None):
        """Lower-triangular Jordan block: lam on the diagonal, 1 below it."""
        lam = ctx.zero() if lam is None else ctx.scalar(lam)
        z, o = ctx.zero(), ctx.one()
        return ExactMatrix(ctx, [[lam if j == i else o if j == i - 1 else z
                                  for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diag(ctx, blocks):
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        out = [[ctx.zero()] * m for _ in range(n)]
        r = c = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out[r + i][c + j] = b.rows[i][j]
            r += b.nrows
            c += b.ncols
        return ExactMatrix(ctx, out)

    @staticmethod
    def from_columns(ctx, nrows, cols):
        """The nrows x len(cols) matrix with these columns, also when nrows
        or len(cols) is 0."""
        if any(len(col) != nrows for col in cols):
            raise DimensionMismatch("columns must have %d entries" % nrows)
        if not nrows or not cols:
            return ExactMatrix.zeros(ctx, nrows, len(cols))
        return ExactMatrix(ctx, zip(*cols))

    # -- basics -------------------------------------------------------------

    def promote(self, ctx):
        """The same matrix in ctx, whose tower must extend self.ctx's."""
        if ctx == self.ctx:
            return self
        return _trusted(ctx, tuple(tuple(e.promote(ctx) for e in row)
                                   for row in self.rows), self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        try:
            a, b, _ctx = self._common(other)
        except ContextMismatch:
            return False
        return all(x.raw == y.raw
                   for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        from .field import format_scalar
        body = "; ".join(", ".join(format_scalar(e) for e in row)
                         for row in self.rows)
        return "ExactMatrix[%s]" % body

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    # -- arithmetic ---------------------------------------------------------

    def _common(self, other):
        ctx = self.ctx.common(other.ctx)
        return self.promote(ctx), other.promote(ctx), ctx

    def __add__(self, other):
        a, b, ctx = self._common(other)
        if (a.nrows, a.ncols) != (b.nrows, b.ncols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return ExactMatrix(ctx, [[x + y for x, y in zip(r1, r2)]
                                 for r1, r2 in zip(a.rows, b.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(self.ctx, [[-x for x in row] for row in self.rows])

    def scale(self, c):
        c = self.ctx.scalar(c) if not isinstance(c, Scalar) else c
        return ExactMatrix(self.ctx.common(c.ctx),
                           [[x * c for x in row] for row in self.rows])

    def minus_scalar(self, c):
        """self - c I in the common context of self and c, as scale has it;
        only the diagonal changes."""
        c = self.ctx.scalar(c) if not isinstance(c, Scalar) else c
        return ExactMatrix(self.ctx.common(c.ctx),
                           [[*row[:i], row[i] - c, *row[i + 1:]]
                            for i, row in enumerate(self.rows)])

    def __matmul__(self, other):
        a, b, ctx = self._common(other)
        if a.ncols != b.nrows:
            raise DimensionMismatch("matrix product %dx%d @ %dx%d"
                                    % (a.nrows, a.ncols, b.nrows, b.ncols))
        if not (a.nrows and a.ncols and b.ncols):
            return ExactMatrix.zeros(ctx, a.nrows, b.ncols)
        product = ctx.ops.matmul(_raw(a.rows), _raw(zip(*b.rows)))
        return _trusted(ctx, _scalars(ctx, product), b.ncols)

    def power(self, k):
        """self^k for k >= 0, by square and multiply."""
        if not self.is_square():
            raise DimensionMismatch("power of a %dx%d matrix"
                                    % (self.nrows, self.ncols))
        return power(self, k, operator.matmul,
                     ExactMatrix.identity(self.ctx, self.nrows))

    def krylov(self, v, length):
        """The columns v, Mv, ..., M^(length-1) v, as an n x length matrix
        in the common context of M and of all the entries of v."""
        row = ExactMatrix(self.ctx, [v])
        rows = [row.rows[0]][:length]
        mt = self.transpose().promote(row.ctx)
        for _ in range(length - 1):
            row = row @ mt
            rows.append(row.rows[0])
        return _trusted(row.ctx, tuple(rows), len(v)).transpose()

    def transpose(self):
        if self.nrows == 0 or self.ncols == 0:
            return ExactMatrix.zeros(self.ctx, self.ncols, self.nrows)
        return _trusted(self.ctx, tuple(zip(*self.rows)), self.nrows)

    def submatrix(self, row_idx, col_idx):
        rows = self.rows
        return _trusted(self.ctx, tuple(tuple(rows[i][j] for j in col_idx)
                                        for i in row_idx), len(col_idx))


InverseRank = namedtuple("InverseRank", "inverse rank kernel pivots transform")


def inverse_or_rank(a, transform=False, rank_only=False):
    """Exact inverse when full rank, else rank and a right-kernel basis.

    Returns InverseRank(inverse or None, rank, kernel basis as a list of
    column vectors, pivot columns, transform).  Pivots are the first nonzero
    entry in column order, so results are deterministic.  transform is the
    invertible T with T @ A in reduced row echelon form; it is computed for
    a square A (it is the inverse when A has full rank), and for any shape
    when transform=True, else it is None.  rank_only=True is for callers
    that read only rank, kernel and pivots: A is reduced alone, with no
    identity appended, and inverse and transform are None.
    """
    ctx = a.ctx
    ops = ctx.ops
    n, m = a.nrows, a.ncols
    work = _raw(a.rows)
    augment = not rank_only and (transform or n == m)
    if augment:
        zero, one = ops.zero, ops.one
        for i, row in enumerate(work):
            row.extend(one if i == j else zero for j in range(n))
    pivots = _rref(ops, work, m)
    rank = len(pivots)
    t = None
    if augment and (transform or rank == n == m):
        t = _trusted(ctx, _scalars(ctx, [row[m:] for row in work]), n)
    return InverseRank(t if rank == n == m else None, rank,
                       _kernel(ops, work, pivots, m), tuple(pivots), t)


def solve(a, b):
    """Solve a x = b exactly: (particular solution or None, kernel basis).

    b is a list of scalars (one per row of a).
    """
    ctx = a.ctx
    ops = ctx.ops
    n, m = a.nrows, a.ncols
    rhs = [ctx.scalar(b[i]).raw for i in range(n)]
    work = _raw(a.rows)
    for row, v in zip(work, rhs):
        row.append(v)
    pivots = _rref(ops, work, m)
    kernel = _kernel(ops, work, pivots, m)
    if any(work[i][m] != ops.zero for i in range(len(pivots), n)):
        return None, kernel
    particular = [ops.zero] * m
    for row_i, pc in enumerate(pivots):
        particular[pc] = work[row_i][m]
    return [Scalar(ctx, v) for v in particular], kernel


# -- the raw kernel ---------------------------------------------------------------

def _rref(ops, work, m):
    """Gauss-Jordan reduction of raw rows in place; returns the pivot columns.

    Pivots are searched in the first m columns only, so columns beyond m (a
    right-hand side, an identity that becomes the transform) ride along.
    """
    zero = ops.zero
    n = len(work)
    pivots = []
    r = 0
    for c in range(m):
        if r == n:
            break
        piv = next((i for i in range(r, n) if work[i][c] != zero), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r] = ops.scale(work[r], ops.inverse(work[r][c]))
        for i in range(n):
            if i != r and work[i][c] != zero:
                work[i] = ops.axpy(work[i], work[i][c], prow)
        pivots.append(c)
        r += 1
    return pivots


def first_dependence(ctx, vectors):
    """[c_0, ..., c_(d-1), 1] for the least d with c_0 v_0 + ... + v_d = 0,
    the vectors being equal-length lists of scalars; None if independent.

    Each vector is reduced against the earlier ones as it is read, carrying
    the combination of the originals it equals, so nothing after v_d is read
    (the Krylov minimal polynomial of Keller-Gehrig, TCS 36, 1985).
    """
    ops = ctx.ops
    zero = ops.zero
    basis = []  # (pivot column, row scaled to 1 there)
    for k, v in enumerate(vectors):
        row = [e.raw for e in v]
        m = len(row)
        row += [zero] * k + [ops.one]
        for pc, prow in basis:
            if row[pc] != zero:
                head = len(prow)
                row[:head] = ops.axpy(row[:head], row[pc], prow)
        pc = next((j for j in range(m) if row[j] != zero), None)
        if pc is None:
            return [Scalar(ctx, v) for v in row[m:]]
        basis.append((pc, ops.scale(row, ops.inverse(row[pc]))))
    return None


def _kernel(ops, work, pivots, m):
    """Right-kernel basis (lists of scalars) read off reduced raw rows."""
    piv_set = set(pivots)
    vectors = []
    for fcol in (j for j in range(m) if j not in piv_set):
        vec = [ops.zero] * m
        vec[fcol] = ops.one
        for row_i, pc in enumerate(pivots):
            vec[pc] = ops.neg(work[row_i][fcol])
        vectors.append(vec)
    return [[Scalar(ops.ctx, v) for v in vec] for vec in vectors]


class WitnessError(MatcanonError):
    pass


Congruence = namedtuple("Congruence", "x source target")


class CongruenceWitness:
    """Invertible X with X' * source * X == target, verified on construction."""

    __slots__ = ("x", "source", "target")

    def __init__(self, x, source, target):
        ctx = x.ctx.common(source.ctx.common(target.ctx))
        x, source, target = x.promote(ctx), source.promote(ctx), target.promote(ctx)
        if not (x.is_square() and source.is_square() and target.is_square()):
            raise WitnessError("witness parts must be square")
        if x.transpose() @ source @ x != target:
            raise WitnessError("congruence relation X'AX = B failed")
        if inverse_or_rank(x, rank_only=True).rank != x.nrows:
            raise WitnessError("witness matrix is singular")
        self.x = x
        self.source = source
        self.target = target
