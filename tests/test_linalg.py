from __future__ import annotations

from fractions import Fraction

import pytest

from symcanon import linalg
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ

FIELDS = [QQ, GF(DEFAULT_PRIME), GF(3)]


def random_matrix(rng, rows, cols, field):
    return [[rng.scalar(field) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", FIELDS)
def test_rref_idempotent_and_rank(field):
    rng = DetRng(1)
    a = random_matrix(rng, 4, 6, field)
    red, pivots = linalg.rref(a, field)
    red2, pivots2 = linalg.rref(red, field)
    assert red == red2 and pivots == pivots2
    assert linalg.rank(a, field) == len(pivots)


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace_annihilates(field):
    rng = DetRng(2)
    a = random_matrix(rng, 3, 7, field)
    for v in linalg.nullspace(a, field):
        assert all(field.is_zero(c) for c in linalg.matvec(a, v, field))
    assert len(linalg.nullspace(a, field)) == 7 - linalg.rank(a, field)


@pytest.mark.parametrize("field", FIELDS)
def test_solve_particular(field):
    rng = DetRng(3)
    a = random_matrix(rng, 4, 5, field)
    x = [rng.scalar(field) for _ in range(5)]
    b = linalg.matvec(a, x, field)
    sol = linalg.solve_particular(a, b, field)
    assert sol is not None
    assert linalg.matvec(a, sol, field) == b


def test_solve_inconsistent():
    field = QQ
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    b = [Fraction(1), Fraction(2)]
    assert linalg.solve_particular(a, b, field) is None


@pytest.mark.parametrize("field", FIELDS)
def test_solve_columns_matches_separate_solves(field):
    rng = DetRng(7)
    # a rank-3 system in 5 unknowns: free variables are set to zero
    a = linalg.matmul(random_matrix(rng, 6, 3, field), random_matrix(rng, 3, 5, field), field)
    good = [linalg.matvec(a, [rng.scalar(field) for _ in range(5)], field) for _ in range(3)]
    bad = next(
        b
        for b in (random_matrix(rng, 1, 6, field)[0] for _ in range(20))
        if linalg.solve_particular(a, b, field) is None
    )
    sols, k = linalg.solve_columns(a, good, field)
    assert k is None and sols == [linalg.solve_particular(a, b, field) for b in good]
    sols, k = linalg.solve_columns(a, good[:2] + [bad] + good[2:], field)
    assert k == 2 and sols == [linalg.solve_particular(a, b, field) for b in good[:2]]
    assert all(type(x) is type(field.zero()) for x in sols[0])


@pytest.mark.parametrize("field", FIELDS)
def test_det_and_inverse(field):
    rng = DetRng(4)
    while True:
        a = random_matrix(rng, 4, 4, field)
        if not field.is_zero(linalg.det(a, field)):
            break
    inv = linalg.inverse(a, field)
    assert linalg.matmul(a, inv, field) == linalg.identity(4, field)


def test_det_multiplicative():
    field = QQ
    rng = DetRng(5)
    a = random_matrix(rng, 3, 3, field)
    b = random_matrix(rng, 3, 3, field)
    lhs = linalg.det(linalg.matmul(a, b, field), field)
    assert lhs == linalg.det(a, field) * linalg.det(b, field)


def test_bareiss_matches_modp_rank():
    rngq = DetRng(6)
    a = [[Fraction(rngq.randint(-20, 20), rngq.randint(1, 7)) for _ in range(6)] for _ in range(5)]
    r_q = linalg.rank(a, QQ)
    red, pivots = linalg.rref(a, QQ)
    assert r_q == len(pivots)


def test_rank_at_largest_admitted_prime():
    field = GF(3037000493)  # the largest prime with (p-1)^2 < 2^63
    rng = DetRng(3)
    u = [rng.nonzero_scalar(field) for _ in range(4)]
    v = [rng.nonzero_scalar(field) for _ in range(4)]
    assert linalg.rank([[field.mul(a, b) for b in v] for a in u], field) == 1


def test_empty_shapes():
    assert linalg.rank([], QQ) == 0
    assert linalg.nullspace([], QQ, ncols=3) == linalg.identity(3, QQ)
