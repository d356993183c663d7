"""Elementary congruence moves: one row-and-column operation at a time.

The worked reductions of the acceptance suite are written as chains of
these moves.  Each move returns the new matrix with its certified witness,
so every step of a chain is checked exactly.
"""

from __future__ import annotations

from collections import namedtuple

from matcanon.errors import DimensionMismatch, MatcanonError
from matcanon.exactmat import CongruenceWitness, ExactMatrix
from matcanon.field import Scalar


class IndexOutOfRange(MatcanonError):
    pass


class ZeroScale(MatcanonError):
    pass


AddSym = namedtuple("AddSym", "i j c")      # row/col i += c * row/col j
ScaleSym = namedtuple("ScaleSym", "i c")    # row/col i *= c
SwapSym = namedtuple("SwapSym", "i j")      # swap rows and columns i, j


def elementary_congruence(a, move):
    """Apply one elementary congruence transformation; returns (A', witness)."""
    if not a.is_square():
        raise DimensionMismatch("congruence needs a square matrix")
    n = a.nrows
    ctx = a.ctx
    if isinstance(move, AddSym):
        i, j, c = move
        _check_index(n, i, j)
        if i == j:
            raise IndexOutOfRange("AddSym needs distinct indices")
        where = (j, i)
    elif isinstance(move, ScaleSym):
        i, c = move
        _check_index(n, i)
        where = (i, i)
    elif isinstance(move, SwapSym):
        i, j = move
        _check_index(n, i, j)
        where = None
    else:
        raise TypeError("unknown congruence move %r" % (move,))
    if where:
        c = ctx.scalar(c) if not isinstance(c, Scalar) else c
        if isinstance(move, ScaleSym) and c.is_zero():
            raise ZeroScale("cannot scale a basis vector by zero")
    x = [[ctx.one() if r == k else ctx.zero() for k in range(n)]
         for r in range(n)]
    if where:
        x[where[0]][where[1]] = c
    else:
        x[i][i] = x[j][j] = ctx.zero()
        x[i][j] = x[j][i] = ctx.one()
    xm = ExactMatrix(ctx, x)
    a2 = xm.transpose() @ a @ xm
    return a2, CongruenceWitness(xm, a, a2)


def _check_index(n, *idx):
    for i in idx:
        if not 0 <= i < n:
            raise IndexOutOfRange("index %d out of range for size %d" % (i, n))
