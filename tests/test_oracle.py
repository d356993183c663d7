import random

import pytest

from matcanon import ExactMatrix, prime_field
from matcanon.errors import BudgetExceeded
from matcanon.gabriel import gabriel_decompose

from oracle import (bruteforce_congruent, orbit_partition, _gl_elements,
                    _gl_size)


def test_gl_sizes():
    assert len(_gl_elements(2, 2)) == 6
    assert _gl_size(2, 2) == 6
    assert _gl_size(4, 2) == 20160
    assert _gl_size(3, 3) == 11232


def test_identity_congruent_to_itself():
    f2 = prime_field(2)
    a = ExactMatrix.identity(f2, 2)
    verdict, x = bruteforce_congruent(a, a)
    assert verdict
    assert x.transpose() @ a @ x == a
    # deterministic: the same witness every run
    verdict2, x2 = bruteforce_congruent(a, a)
    assert x2 == x


def test_rank_distinguishes():
    f2 = prime_field(2)
    verdict, _ = bruteforce_congruent(ExactMatrix(f2, [[1]]),
                                      ExactMatrix(f2, [[0]]))
    assert not verdict


def test_alternating_vs_identity_gf2():
    f2 = prime_field(2)
    verdict, _ = bruteforce_congruent(ExactMatrix.identity(f2, 2),
                                      ExactMatrix(f2, [[0, 1], [1, 0]]))
    assert not verdict


def test_budget_exceeded():
    f2 = prime_field(2)
    a = ExactMatrix.identity(f2, 3)
    with pytest.raises(BudgetExceeded):
        bruteforce_congruent(a, a, budget=10)


def test_orbit_partition_n1():
    rep2 = orbit_partition(1, 2)
    assert len(rep2.classes) == 2
    rep3 = orbit_partition(1, 3)
    # (1) and (2) are distinct: 2 is not a square mod 3
    assert len(rep3.classes) == 3
    assert sum(rep3.sizes) == 3


def test_orbit_partition_n2_gf2():
    rep = orbit_partition(2, 2)
    assert sum(rep.sizes) == 16
    # regression-frozen class count for 2x2 over GF(2)
    assert len(rep.classes) == 6
    # orbits agree with exhaustive pairwise brute force
    f2 = prime_field(2)
    for i, a in enumerate(rep.classes):
        for j, b in enumerate(rep.classes):
            verdict, _ = bruteforce_congruent(a, b)
            assert verdict == (i == j)


def test_orbit_gabriel_invariance():
    # within every orbit the Gabriel block sizes are constant
    rep = orbit_partition(2, 2)
    f2 = prime_field(2)
    rng = random.Random(7)
    for cls in rep.classes:
        sizes = gabriel_decompose(cls).jordan_sizes
        for _ in range(5):
            x = rng.choice(_gl_elements(2, 2))
            xm = ExactMatrix(f2, [[x[0], x[1]], [x[2], x[3]]])
            b = xm.transpose() @ cls @ xm
            assert gabriel_decompose(b).jordan_sizes == sizes


def test_orbit_partition_budget():
    with pytest.raises(BudgetExceeded):
        orbit_partition(4, 3, budget=100)
