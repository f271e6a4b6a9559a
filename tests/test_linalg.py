from __future__ import annotations

from fractions import Fraction

import numpy as np
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


# -- the blocked GF(p) kernel against the per-column loop it replaced ---------

ADMITTED_PRIMES = (3, 32003, 2**31 - 1, 3037000493)


def _column_loop_rref(a, p):
    """Oracle: unblocked Gauss-Jordan, one rank-1 update per pivot column."""
    a = a % p
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _random_residues(gen, m, n, p, density=1.0, rank=None):
    """Seeded m x n residues mod p; ``rank`` caps the rank through a product
    of m x rank and rank x n factors, formed exactly over the integers."""
    def draw(rows, cols):
        x = gen.integers(0, p, size=(rows, cols), dtype=np.int64)
        return x * (gen.random((rows, cols)) < density)

    if rank is None:
        return draw(m, n)
    product = draw(m, rank).astype(object).dot(draw(rank, n).astype(object))
    return (product % p).astype(np.int64).reshape(m, n)


SHAPES = [(0, 5), (0, 130), (5, 0), (7, 64), (70, 65), (40, 200), (200, 130), (129, 129)]


@pytest.mark.parametrize("p", ADMITTED_PRIMES)
def test_blocked_rref_matches_column_loop(p):
    gen = np.random.default_rng(p % 10007)
    for m, n in SHAPES:
        for density in (1.0, 0.01):
            for rank in (None, min(m, n) // 3):
                a = _random_residues(gen, m, n, p, density, rank)
                if n > 128:
                    a[:, 64:128] = 0  # an all-zero panel
                if density == 1.0 and rank is None:
                    a = a - p * gen.integers(0, 2, size=a.shape)  # unreduced input
                want, want_pivots = _column_loop_rref(a.copy(), p)
                before = a.copy()
                got, got_pivots = linalg._np_rref(a, p)
                assert np.array_equal(a, before), "the kernel must not touch its input"
                assert got_pivots == want_pivots and np.array_equal(got, want), (m, n, density, rank)
                assert got.dtype == np.int64


def _pivot_loop_contains(ech, vec, p):
    """Oracle: subtract vec[c] times the row of each pivot c in turn."""
    v = np.array(vec, dtype=ech.rows.dtype)
    for row, c in zip(ech.rows, ech.pivots):
        if v[c]:
            v = v - v[c] * row
            if p:
                v %= p
    return not v.any()


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(3037000493)])
def test_echelon_contains_matches_pivot_loop(field):
    rng = DetRng(11)
    m, n, r = 12, 30, 7
    a = linalg.matmul(random_matrix(rng, m, r, field), random_matrix(rng, r, n, field), field)
    ech = linalg.Echelon(a, field)
    assert len(ech.pivots) == r and ech.rows.shape == (r, n)  # only the rank rows are kept
    free = next(c for c in range(n) if c not in ech.pivots)
    for _ in range(6):
        coeffs = [rng.scalar(field) for _ in range(m)]
        member = [field.zero()] * n
        for c, row in zip(coeffs, a):
            member = [field.add(x, field.mul(c, y)) for x, y in zip(member, row)]
        outside = list(member)
        outside[free] = field.add(outside[free], field.one())
        noise = [rng.scalar(field) for _ in range(n)]
        for vec, expected in ((member, True), (outside, False), (noise, None)):
            got = ech.contains(vec)
            assert got == _pivot_loop_contains(ech, vec, field.characteristic)
            if expected is not None:
                assert got is expected
    zero = linalg.Echelon([[field.zero()] * n], field)
    assert zero.pivots == [] and zero.contains([field.zero()] * n)
    assert not zero.contains([field.one()] + [field.zero()] * (n - 1))
