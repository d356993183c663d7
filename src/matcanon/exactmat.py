"""Dense exact matrices over a FieldContext and certified congruences.

Kernel.  An ExactMatrix holds rows of raw values (Scalar.raw), the values
its context's ctx.ops (field._raw_ops) computes on, and every constructor,
comparison and kernel here works on them; a Scalar is built only where an
entry is read out (A[i, j], rows, first_dependence's coefficients).  A set
of vectors is a matrix, one vector per column: a kernel basis, the
solutions of solve (one per right-hand side column), a Krylov chain.
Matrix products (ExactMatrix.__matmul__) and one Gauss-Jordan elimination
(_rref, behind inverse_or_rank and solve; first_dependence is its
incremental form) are written once against the ops' row interface (neg,
inverse, scale, axpy, matmul), which the Scalar operators and root
finding's polynomial layer share.  field.py has its four cases: Q towers
on normalized integer vectors, GF(p) on ints reduced once per dot product
(after FFPACK, Dumas, Giorgi and Pernet, ISSAC 2004), fields of at most 256
elements on exp/log/Zech tables, larger finite fields on vectors mod p.
The one elimination loop reduces rows in one of two forms, ops.work: the
raw rows themselves, or over Q itself integer rows over one denominator,
reduced fraction-free with one gcd per row operation and normalized entry
by entry as they leave; both hold the same values, so pivots, reduced rows
and transforms agree.

An elimination builds only what its caller reads.  inverse_or_rank appends
an identity, and so builds the row transform, only for a square input (for
its inverse) or with transform=True; with rank_only=True it never augments
and returns rank, kernel and pivots alone, as every rank, kernel and
invertibility test does (the witness check needs rank n, not X^-1).
first_dependence reduces matrices, flattened, as they are read and stops
at the first dependence, so the minimal polynomial forms only the powers
it needs.

Two product helpers are built on it: ExactMatrix.power (field.power's
square and multiply) and ExactMatrix.krylov (the columns v, Mv, ...,
M^(k-1) v of an n x 1 matrix v).  The pipeline stages reach the kernel
only through @, inverse_or_rank, solve, first_dependence and these two,
and the raw rows not at all: they tile (blocks, block_diag), cut
(submatrix, columns), combine (@, +, scale) and read (A[i, j]) matrices
here; a unit vector is ExactMatrix.unit_column, a column of the identity.
A product with an empty side is the zero matrix of its shape, without the
kernel.  A reorder of a basis is a column order, X.columns(order), with
Gram matrix G.submatrix(order, order); no permutation matrix is
multiplied.

Contexts meet here.  A matrix lives in one FieldContext, and the arithmetic
lifts: @, +, scale, minus_scalar and == work in the common context of their
operands (the longer of two prefix-compatible towers), and ExactMatrix(ctx,
rows), block_diag, blocks, krylov and solve build in the common context of
ctx and of all the entries, never in the context of the first entry, which
may lie lower.  promote only goes up a tower, trim down to
the least level holding every entry.  So a value computed from an
extension carries it, and no caller passes a context beside a value that
has one.

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


def _trusted(ctx, raw, ncols):
    """ExactMatrix from a tuple of tuples of ncols raw values of ctx,
    unchecked; ncols is given, so a matrix with no rows keeps it."""
    m = object.__new__(ExactMatrix)
    m.ctx = ctx
    m.nrows = len(raw)
    m.ncols = ncols
    m.raw = raw
    return m


def _common_context(ctx, matrices):
    """The common context of ctx and of the matrices'."""
    return functools.reduce(lambda c, m: c.common(m.ctx), matrices, ctx)


class ExactMatrix:
    """Immutable dense matrix over one field context, held as raw rows.

    raw is a tuple of rows, each a tuple of ncols raw values of ctx.ops.
    ExactMatrix(ctx, rows) takes ints, Fractions, base elements and
    Scalars, and lives in the common context of ctx and of all its Scalar
    entries (ints and Fractions are read in ctx), so rows that mix a field
    and its extensions need no promotion first.  A[i, j] and rows read
    entries out as Scalars.
    """

    __slots__ = ("ctx", "nrows", "ncols", "raw")

    def __init__(self, ctx, rows):
        rows = tuple(map(tuple, rows))
        for e in itertools.chain.from_iterable(rows):
            if isinstance(e, Scalar) and e.ctx is not ctx:
                ctx = ctx.common(e.ctx)
        self.ctx = ctx
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(row) != self.ncols for row in rows):
            raise DimensionMismatch("ragged rows")
        # an entry already in ctx gives its raw value; ctx.scalar converts
        # an int or Fraction and lifts a Scalar from a prefix of ctx
        self.raw = tuple(tuple(e.raw if isinstance(e, Scalar) and e.ctx is ctx
                               else ctx.scalar(e).raw for e in row)
                         for row in rows)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(ctx, nrows, ncols):
        row = (ctx.ops.zero,) * ncols
        return _trusted(ctx, (row,) * nrows, ncols)

    @staticmethod
    def identity(ctx, n):
        z, o = ctx.ops.zero, ctx.ops.one
        return _trusted(ctx, tuple(tuple(o if i == j else z for j in range(n))
                                   for i in range(n)), n)

    @staticmethod
    def unit_column(ctx, n, j):
        """The n x 1 unit vector e_j, column j of the identity."""
        z, o = ctx.ops.zero, ctx.ops.one
        return _trusted(ctx, tuple((o if i == j else z,) for i in range(n)), 1)

    @staticmethod
    def jordan_block(ctx, n, lam=None):
        """Lower-triangular Jordan block: lam on the diagonal, 1 below it."""
        z, o = ctx.ops.zero, ctx.ops.one
        lam = z if lam is None else ctx.scalar(lam).raw
        return _trusted(ctx, tuple(tuple(lam if j == i else o if j == i - 1
                                         else z for j in range(n))
                                   for i in range(n)), n)

    @staticmethod
    def block_diag(ctx, blocks):
        ctx = _common_context(ctx, blocks)
        zero = ctx.ops.zero
        m = sum(b.ncols for b in blocks)
        raw, c = [], 0
        for b in blocks:
            left, right = (zero,) * c, (zero,) * (m - c - b.ncols)
            raw.extend(left + row + right for row in b.promote(ctx).raw)
            c += b.ncols
        return _trusted(ctx, tuple(raw), m)

    @staticmethod
    def blocks(ctx, grid):
        """The matrix tiled by a grid, given as rows of blocks, in the
        common context of ctx and of all the blocks.  The blocks of a grid
        row have one row count, and each grid row has the same columns."""
        grid = [list(row) for row in grid]
        ctx = _common_context(ctx, itertools.chain.from_iterable(grid))
        ncols = sum(b.ncols for b in grid[0]) if grid else 0
        raw = []
        for row in grid:
            if len({b.nrows for b in row}) > 1 or \
               sum(b.ncols for b in row) != ncols:
                raise DimensionMismatch("the blocks do not tile a matrix")
            raw.extend(tuple(itertools.chain.from_iterable(parts)) for parts
                       in zip(*[b.promote(ctx).raw for b in row]))
        return _trusted(ctx, tuple(raw), ncols)

    # -- basics -------------------------------------------------------------

    def _moved(self, ctx):
        """The same raw rows moved into ctx, a context of self.ctx's tower
        that holds every entry."""
        move, ops = ctx.ops.move, self.ctx.ops
        return _trusted(ctx, tuple(tuple([move(x, ops) for x in row])
                                   for row in self.raw), self.ncols)

    def promote(self, ctx):
        """The same matrix in ctx, whose tower must extend self.ctx's."""
        if ctx == self.ctx:
            return self
        if not self.ctx.is_prefix_of(ctx):
            raise ContextMismatch("cannot promote %r matrix into %r"
                                  % (self.ctx, ctx))
        return self._moved(ctx)

    def trim(self, height=0):
        """The same matrix in the least prefix of its context that holds
        every entry and has at least `height` adjunctions."""
        if not self.ctx.tower:
            return self
        ops = self.ctx.ops
        height = max(height, 0, *map(ops.height,
                                     itertools.chain.from_iterable(self.raw)))
        sub = self.ctx.truncated(height)
        return self if sub is self.ctx else self._moved(sub)

    @property
    def rows(self):
        """The entries as a tuple of rows, each a tuple of Scalars."""
        new = functools.partial(Scalar, self.ctx)
        return tuple(tuple(map(new, row)) for row in self.raw)

    def __getitem__(self, ij):
        i, j = ij
        return Scalar(self.ctx, self.raw[i][j])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        try:
            a, b, _ctx = self._common(other)
        except ContextMismatch:
            return False
        return a.raw == b.raw

    def __hash__(self):
        # promotions compare equal: hash the raw rows in the least context
        return hash((self.nrows, self.ncols, self.trim().raw))

    def __repr__(self):
        from .field import format_scalar
        body = "; ".join(", ".join(format_scalar(e) for e in row)
                         for row in self.rows)
        return "ExactMatrix[%s]" % body

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        zero = self.ctx.ops.zero
        return all(x == zero for row in self.raw for x in row)

    # -- arithmetic ---------------------------------------------------------

    def _common(self, other):
        ctx = self.ctx.common(other.ctx)
        return self.promote(ctx), other.promote(ctx), ctx

    def __add__(self, other):
        a, b, ctx = self._common(other)
        if (a.nrows, a.ncols) != (b.nrows, b.ncols):
            raise DimensionMismatch("matrix addition shape mismatch")
        add = ctx.ops.add
        return _trusted(ctx, tuple(tuple(map(add, r1, r2))
                                   for r1, r2 in zip(a.raw, b.raw)), a.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ctx.ops.neg
        return _trusted(self.ctx, tuple(tuple(map(neg, row))
                                        for row in self.raw), self.ncols)

    def _lifted(self, c):
        """(self, c's raw value) in the common context of self and c."""
        c = self.ctx.scalar(c) if not isinstance(c, Scalar) else c
        ctx = self.ctx.common(c.ctx)
        return self.promote(ctx), c.promote(ctx).raw

    def scale(self, c):
        a, c = self._lifted(c)
        scale = a.ctx.ops.scale
        return _trusted(a.ctx, tuple(tuple(scale(row, c)) for row in a.raw),
                        a.ncols)

    def minus_scalar(self, c):
        """self - c I in the common context of self and c, as scale has it;
        only the diagonal changes."""
        a, c = self._lifted(c)
        ops = a.ctx.ops
        c = ops.neg(c)
        return _trusted(a.ctx, tuple((*row[:i], ops.add(row[i], c),
                                      *row[i + 1:])
                                     for i, row in enumerate(a.raw)), a.ncols)

    def __matmul__(self, other):
        a, b, ctx = self._common(other)
        if a.ncols != b.nrows:
            raise DimensionMismatch("matrix product %dx%d @ %dx%d"
                                    % (a.nrows, a.ncols, b.nrows, b.ncols))
        if not (a.nrows and a.ncols and b.ncols):
            return ExactMatrix.zeros(ctx, a.nrows, b.ncols)
        product = ctx.ops.matmul(a.raw, tuple(zip(*b.raw)))
        return _trusted(ctx, tuple(map(tuple, product)), b.ncols)

    def power(self, k):
        """self^k for k >= 0, by square and multiply."""
        if not self.is_square():
            raise DimensionMismatch("power of a %dx%d matrix"
                                    % (self.nrows, self.ncols))
        return power(self, k, operator.matmul,
                     ExactMatrix.identity(self.ctx, self.nrows))

    def krylov(self, v, length):
        """The columns v, Mv, ..., M^(length-1) v of an n x 1 matrix v, as
        an n x length matrix in the common context of M and v."""
        if (v.nrows, v.ncols) != (self.ncols, 1):
            raise DimensionMismatch("krylov of a %dx%d vector" % (v.nrows,
                                                                 v.ncols))
        ctx = self.ctx.common(v.ctx)
        row = v.transpose().promote(ctx)
        raw = [row.raw[0]][:length]
        mt = self.transpose().promote(ctx)
        for _ in range(length - 1):
            row = row @ mt
            raw.append(row.raw[0])
        return _trusted(ctx, tuple(raw), v.nrows).transpose()

    def transpose(self):
        if self.nrows == 0 or self.ncols == 0:
            return ExactMatrix.zeros(self.ctx, self.ncols, self.nrows)
        return _trusted(self.ctx, tuple(zip(*self.raw)), self.nrows)

    def submatrix(self, row_idx, col_idx):
        raw = self.raw
        return _trusted(self.ctx, tuple(tuple([raw[i][j] for j in col_idx])
                                        for i in row_idx), len(col_idx))

    def columns(self, col_idx):
        """The columns at the given indices, in that order."""
        return self.submatrix(range(self.nrows), col_idx)


InverseRank = namedtuple("InverseRank", "inverse rank kernel pivots transform")


def inverse_or_rank(a, transform=False, rank_only=False):
    """Exact inverse when full rank, else rank and a right-kernel basis.

    Returns InverseRank(inverse or None, rank, kernel basis as the columns
    of an m x (m - rank) matrix, pivot columns, transform).  Pivots are the
    first nonzero entry in column order, so results are deterministic.
    transform is the invertible T with T @ A in reduced row echelon form; it
    is computed for a square A (it is the inverse when A has full rank), and
    for any shape when transform=True, else it is None.  rank_only=True is
    for callers that read only rank, kernel and pivots: A is reduced alone,
    with no identity appended, and inverse and transform are None.
    """
    ctx = a.ctx
    ops = ctx.ops
    n, m = a.nrows, a.ncols
    work = list(map(list, a.raw))
    augment = not rank_only and (transform or n == m)
    if augment:
        zero, one = ops.zero, ops.one
        for i, row in enumerate(work):
            row.extend(one if i == j else zero for j in range(n))
    pivots = _rref(ops, work, m)
    rank = len(pivots)
    t = None
    if augment and (transform or rank == n == m):
        t = _trusted(ctx, tuple(tuple(row[m:]) for row in work), n)
    return InverseRank(t if rank == n == m else None, rank,
                       _kernel(ctx, work, pivots, m), tuple(pivots), t)


def solve(a, b):
    """Solve a x = b exactly for every column of b at once, in the common
    context of a and b: (particular solution or None, kernel basis).

    b has a.nrows rows; the particular solution is an a.ncols x b.ncols
    matrix, None if any column has no solution, and the kernel basis is
    inverse_or_rank's.
    """
    if b.nrows != a.nrows:
        raise DimensionMismatch("solve: %d right-hand side rows for %d "
                                "equations" % (b.nrows, a.nrows))
    a, b, ctx = a._common(b)
    ops = ctx.ops
    n, m = a.nrows, a.ncols
    work = [[*row, *rhs] for row, rhs in zip(a.raw, b.raw)]
    pivots = _rref(ops, work, m)
    kernel = _kernel(ctx, work, pivots, m)
    if any(x != ops.zero for row in work[len(pivots):] for x in row[m:]):
        return None, kernel
    zeros = (ops.zero,) * b.ncols
    particular = [zeros] * m
    for row_i, pc in enumerate(pivots):
        particular[pc] = tuple(work[row_i][m:])
    return _trusted(ctx, tuple(particular), b.ncols), kernel


# -- the raw kernel ---------------------------------------------------------------

def _rref(ops, work, m):
    """Gauss-Jordan reduction of raw rows in place; returns the pivot columns.

    Pivots are searched in the first m columns only, so columns beyond m (a
    right-hand side, an identity that becomes the transform) ride along.
    The loop reduces the rows in the working form of ops.work, which holds
    the same values, and leaves them as raw rows.
    """
    rows = ops.work
    rows.enter(work)
    zero = rows.zero
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
        prow = work[r] = rows.unit(work[r], c)
        for i in range(n):
            if i != r and work[i][c] != zero:
                work[i] = rows.axpy(work[i], work[i][c], prow)
        pivots.append(c)
        r += 1
    rows.leave(work)
    return pivots


def first_dependence(matrices):
    """[c_0, ..., c_(d-1), 1] for the least d with c_0 M_0 + ... + M_d = 0,
    the matrices sharing one shape and context and each read as the vector
    of its entries, row by row; None if they are independent.

    Each is reduced against the earlier ones as it is read, carrying the
    combination of the originals it equals, so nothing after M_d is read
    (the Krylov minimal polynomial of Keller-Gehrig, TCS 36, 1985).
    """
    basis = []  # (pivot column, working row scaled to 1 there)
    for k, mat in enumerate(matrices):
        ops = mat.ctx.ops
        rows = ops.work
        work = [[*itertools.chain.from_iterable(mat.raw), *[ops.zero] * k,
                 ops.one]]
        rows.enter(work)
        row, zero = work[0], rows.zero
        m = mat.nrows * mat.ncols
        for pc, prow in basis:
            prow.insert(m + k, zero)  # the coordinate of M_k, zero so far
            if row[pc] != zero:
                row = rows.axpy(row, row[pc], prow)
        pc = next((j for j in range(m) if row[j] != zero), None)
        if pc is None:
            work[0] = row
            rows.leave(work)
            return [Scalar(mat.ctx, v) for v in work[0][m:]]
        basis.append((pc, rows.unit(row, pc)))
    return None


def _kernel(ctx, work, pivots, m):
    """Right-kernel basis read off reduced raw rows, as the columns of an
    m x (m - rank) matrix, one per free column: 1 in its own row, minus the
    reduced entries of that column in the pivot rows."""
    ops = ctx.ops
    piv_set = set(pivots)
    free = [j for j in range(m) if j not in piv_set]
    rows = [None] * m
    for c, fcol in enumerate(free):
        rows[fcol] = tuple(ops.one if d == c else ops.zero
                           for d in range(len(free)))
    for row, pc in zip(work, pivots):
        rows[pc] = tuple([ops.neg(row[fcol]) for fcol in free])
    return _trusted(ctx, tuple(rows), len(free))


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
