"""Brute-force congruence ground truth over tiny prime fields.

Used by tests and the acceptance suite to validate verdicts.  Matrices are
handled as flat integer tuples mod p for speed; results convert back to
ExactMatrix at the boundary.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from matcanon.exactmat import ExactMatrix
from matcanon.field import prime_field

DEFAULT_GL_BUDGET = 10 ** 6
DEFAULT_ORBIT_BUDGET = 2 * 10 ** 6

OrbitReport = namedtuple("OrbitReport", "p n classes sizes")


class BudgetExceeded(Exception):
    """A brute-force search would exceed its budget, or cannot run here."""


def matrix_flat(a):
    """Flat tuple of an ExactMatrix over a plain prime field."""
    p = a.ctx.p
    return tuple(a[i, j].coords[0] % p for i in range(a.nrows)
                 for j in range(a.ncols))


def _from_flat(flat, n, ctx):
    return ExactMatrix(ctx, [[flat[i * n + j] for j in range(n)]
                             for i in range(n)])


def _mat_mul(x, y, n, p):
    out = [0] * (n * n)
    for i in range(n):
        for k in range(n):
            v = x[i * n + k]
            if v:
                for j in range(n):
                    out[i * n + j] = (out[i * n + j] + v * y[k * n + j]) % p
    return tuple(out)


def _transpose(x, n):
    return tuple(x[j * n + i] for i in range(n) for j in range(n))


def _is_invertible(x, n, p):
    m = [list(x[i * n:(i + 1) * n]) for i in range(n)]
    rank = 0
    for c in range(n):
        piv = None
        for i in range(rank, n):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(n):
            if i != rank and m[i][c] % p:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank == n


def _all_flat(n, p):
    """Every n x n matrix over GF(p) as a flat tuple, the first entry
    varying fastest."""
    for t in itertools.product(range(p), repeat=n * n):
        yield t[::-1]


def _gl_size(n, p):
    size = 1
    for i in range(n):
        size *= p ** n - p ** i
    return size


_gl_cache = {}


def _gl_elements(n, p):
    """All invertible n x n matrices over GF(p), deterministic order."""
    key = (n, p)
    if key in _gl_cache:
        return _gl_cache[key]
    out = [flat for flat in _all_flat(n, p) if _is_invertible(flat, n, p)]
    _gl_cache[key] = out
    return out


def bruteforce_congruent(a, b, budget=DEFAULT_GL_BUDGET):
    """Exhaustive congruence test over GF(p); (verdict, witness or None)."""
    ctx = a.ctx
    if ctx.kind != "gfp" or ctx.tower:
        raise BudgetExceeded("brute force runs over plain prime fields only")
    p = ctx.p
    n = a.nrows
    if b.nrows != n:
        return False, None
    if _gl_size(n, p) > budget:
        raise BudgetExceeded("|GL_%d(%d)| exceeds the budget" % (n, p))
    fa, fb = matrix_flat(a), matrix_flat(b)
    for x in _gl_elements(n, p):
        if _mat_mul(_mat_mul(_transpose(x, n), fa, n, p), x, n, p) == fb:
            return True, _from_flat(x, n, ctx)
    return False, None


def _gl_generators(n, p):
    """Transvections plus one scaling: a generating set of GL_n(p)."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            flat = [1 if a == b else 0 for a in range(n) for b in range(n)]
            flat[i * n + j] = 1
            gens.append(tuple(flat))
    if p > 2:
        # a primitive root scaling on the first coordinate
        g = _primitive_root(p)
        flat = [1 if a == b else 0 for a in range(n) for b in range(n)]
        flat[0] = g
        gens.append(tuple(flat))
    return gens


def _primitive_root(p):
    for g in range(2, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = (v * g) % p
            seen.add(v)
        if len(seen) == p - 1:
            return g
    raise ValueError("no primitive root (p not prime?)")


def _orbits(n, p, budget):
    """(representative, orbit) for each congruence class of n x n matrices
    over GF(p), in order of first appearance among all matrices.

    BFS orbit expansion under a generating set of GL keeps the cost at the
    orbit sum instead of |GL| * p^(n^2).  Representatives are the
    lexicographically least flat tuples; deterministic.
    """
    total = p ** (n * n)
    if total > budget:
        raise BudgetExceeded("p^(n^2) = %d exceeds the budget" % total)
    gens = _gl_generators(n, p)
    gen_pairs = [(g, _transpose(g, n)) for g in gens]
    seen = set()
    for start in _all_flat(n, p):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for g, gt in gen_pairs:
                nxt = _mat_mul(_mat_mul(gt, cur, n, p), g, n, p)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        yield min(orbit), orbit


def congruence_class_map(n, p, budget=DEFAULT_ORBIT_BUDGET):
    """Map flat matrix tuple -> class representative tuple, by BFS orbits."""
    return {m: rep for rep, orbit in _orbits(n, p, budget) for m in orbit}


def orbit_partition(n, p, budget=DEFAULT_ORBIT_BUDGET):
    """Partition all n x n matrices over GF(p) into congruence classes
    (see _orbits)."""
    orbits = list(_orbits(n, p, budget))
    ctx = prime_field(p)
    return OrbitReport(p, n, [_from_flat(rep, n, ctx) for rep, _ in orbits],
                       [len(orbit) for _, orbit in orbits])
