from __future__ import annotations

import types
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symcanon import linalg
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ

from conftest import bareiss_rank, fraction_rref

FIELDS = [QQ, GF(DEFAULT_PRIME), GF(3)]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
                got, got_pivots, _ = linalg._np_rref(a, p)
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


def test_echelon_reduce_over_q_matches_the_full_product():
    # only the rows of nonzero pivot entries enter the residual; it equals
    # vec - vec[pivots] . rows entry for entry, Fractions throughout
    rng = DetRng(12)

    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 6))

    m, n, r = 10, 24, 6
    a = linalg.matmul([[frac() for _ in range(r)] for _ in range(m)], [[frac() for _ in range(n)] for _ in range(r)], QQ)
    ech = linalg.Echelon(a, QQ)
    assert len(ech.pivots) >= 2
    for case in range(6):
        v = np.array([frac() for _ in range(n)], dtype=object)
        v[ech.pivots[case % 2 :: 2] if case < 4 else ech.pivots] = Fraction(0)
        full = v - v[ech.pivots].dot(ech.rows)
        got = ech.reduce(v)
        assert got.tolist() == full.tolist() and [type(c) for c in got] == [type(c) for c in full]
        assert not got[ech.pivots].any()
        if case >= 4:
            assert got.tolist() == v.tolist()


def test_rational_inverse_is_exact():
    inverse, quotient = QQ.inv(3), QQ.div(QQ.of_int(2), 3)
    assert (inverse, quotient) == (Fraction(1, 3), Fraction(2, 3))
    assert type(inverse) is Fraction and type(quotient) is Fraction
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)


# -- the row rank profile -------------------------------------------------------


def _greedy_profile(a, p):
    """Oracle: keep row i iff it raises the rank of the rows before it,
    decided by reducing it against the kept rows in turn (each kept row
    has a 1 at its lead column and zeros at the earlier leads); p = None
    is Q."""
    basis, kept = [], []
    for i, row in enumerate(a):
        v = np.array([Fraction(x) for x in row], dtype=object) if p is None else np.array(row, dtype=np.int64) % p
        for c, b in basis:
            if v[c]:
                v = v - v[c] * b if p is None else (v - v[c] * b) % p
        lead = np.flatnonzero(v)
        if lead.size:
            c = int(lead[0])
            v = v / v[c] if p is None else (v * pow(int(v[c]), -1, p)) % p
            basis.append((c, v))
            kept.append(i)
    return kept


@st.composite
def profile_matrices(draw, p):
    """An m x n matrix (mod p, or small integers over Q) from a seed: a
    random or sparse one, or a product L R of lower rank; then, maybe,
    each row's leading entries cleared up to a random column (as in a
    Macaulay matrix, rows start at different columns), zero rows, and
    copies of earlier rows further down.  GF(p) shapes span several
    panels; over Q the rank stays small, so the Fraction loop stays cheap."""
    big = 150 if p else 72
    m = draw(st.one_of(st.integers(65, big), st.integers(0, big)))
    n = draw(st.one_of(st.integers(65, big), st.integers(1, big)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.one_of(st.none(), st.integers(0, min(m, n))) if p else st.integers(0, min(m, n, 6)))
    density = draw(st.sampled_from([1.0, 0.05]))

    def draw_entries(rows, cols):
        x = gen.integers(0, p, size=(rows, cols)) if p else gen.integers(-3, 4, size=(rows, cols))
        return (x * (gen.random((rows, cols)) < density)).astype(object)

    a = draw_entries(m, n) if rank is None else draw_entries(m, rank).dot(draw_entries(rank, n))
    a = a % p if p else a
    if draw(st.booleans()):
        a[np.arange(n) < gen.integers(0, n + 1, size=(m, 1))] = 0
    for _ in range(draw(st.integers(0, m // 4))):
        a[gen.integers(0, m)] = 0
    for _ in range(draw(st.integers(0, m // 4))):
        i, j = sorted(gen.integers(0, m, size=2))
        a[j] = a[i]
    return a.reshape(m, n)


def _profile_case(a, field):
    p = field.p if field.kind == "prime_field" else None
    want = _greedy_profile(a, p)
    red, pivots, profile = linalg.rref(a.tolist(), field, return_profile=True)
    assert profile == want and linalg.rref(a.tolist(), field) == (red, pivots)
    if p:
        assert linalg._np_rref(a.astype(np.int64), p)[2] == want
        certificate = _column_loop_rref(a[np.ix_(want, pivots)].astype(np.int64), p)[0]
    else:
        certificate = np.array(linalg.rref(a[np.ix_(want, pivots)].tolist(), field)[0], dtype=object)
        certificate = certificate.reshape(len(want), len(want))
    # the rows of the profile on the pivot columns: an invertible block,
    # which certifies rank >= len(pivots)
    assert len(pivots) == len(want)
    assert np.array_equal(certificate, np.eye(len(want), dtype=np.int64))
    ech = linalg.Echelon(a, field)
    assert ech.pivots == pivots and ech.independent.shape == (len(want), a.shape[1])
    assert np.array_equal(ech.independent, a[want])


@pytest.mark.parametrize("p", [3, 7, 32003, 3037000493])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_row_rank_profile_matches_greedy(p, data):
    _profile_case(data.draw(profile_matrices(p)), GF(p))


@settings(max_examples=12, deadline=None)
@given(a=profile_matrices(None))
def test_row_rank_profile_matches_greedy_over_q(a):
    _profile_case(a, QQ)


@pytest.mark.parametrize("field", FIELDS)
def test_row_rank_profile_after_a_row_swap(field):
    # the first pivot, row 2, swaps places with row 0; then row 1 = 2 row 0
    # stands first in column 1, but row 0 comes first in the input
    _profile_case(np.array([[0, 1], [0, 2], [1, 0]], dtype=object), field)


# -- the fraction-free elimination over Q against the Fraction loop -----------


@st.composite
def rational_matrices(draw):
    """An m x n matrix of small rationals over mixed denominators, 1 x n and
    m x 1 shapes among them; then, maybe, zero rows and columns and rows
    that are rational combinations of earlier rows."""
    m = draw(st.one_of(st.just(1), st.integers(1, 9)))
    n = draw(st.one_of(st.just(1), st.integers(1, 9)))
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12]))
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        a[i] = [Fraction(0)] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in a:
            row[j] = Fraction(0)
    for i in range(1, m):
        if draw(st.integers(0, 3)) == 0:
            k, c, d = draw(st.integers(0, i - 1)), draw(entry), draw(entry)
            a[i] = [c * x + d * y for x, y in zip(a[k], a[draw(st.integers(0, i - 1))])]
    return a


@settings(max_examples=200, deadline=None)
@given(a=rational_matrices())
def test_integer_rref_matches_the_fraction_loop(a):
    red, pivots, profile = linalg.rref(a, QQ, return_profile=True)
    assert (red, pivots, profile) == fraction_rref(a)
    assert all(type(x) is Fraction for row in red for x in row)
    assert linalg.rank(a, QQ) == len(pivots) == bareiss_rank(a)
    ech = linalg.Echelon(a, QQ)
    assert ech.pivots == pivots and ech.rows.tolist() == red[: len(pivots)]
    assert ech.independent.tolist() == [a[i] for i in profile]
    # the integer pivot rows are the rref's rows over their lcm denominator,
    # up to sign: their entries have no common factor
    rows = linalg._integer_rref(a)[0]
    for row, want in zip(rows[: len(pivots)], red):
        den = lcm(*(x.denominator for x in want))
        assert row in ([int(x * den) for x in want], [-int(x * den) for x in want])
        assert gcd(*row) == 1
    assert not any(any(row) for row in rows[len(pivots) :])


def test_vecmat_over_q_matches_the_object_product():
    # integer numerators over common denominators give the product of
    # Fractions entry for entry, every entry a Fraction, zeros included
    rng = DetRng(13)

    def fracs(*shape):
        x = np.array([Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(int(np.prod(shape)))])
        return x.astype(object).reshape(shape)

    zeros = np.full((3, 4), Fraction(0), dtype=object)
    cases = [
        (fracs(3), fracs(3, 4)),
        (fracs(2, 3), fracs(3, 4)),
        (fracs(4, 3), fracs(3)),
        (zeros, fracs(4, 2)),
        (fracs(2, 3), np.array([[Fraction(0), Fraction(1, 2)]] * 3, dtype=object)),
        (fracs(0, 3), fracs(3, 2)),
        (fracs(2, 3), fracs(3, 0)),
        (fracs(2, 0), fracs(0, 3)),
    ]
    for x, y in cases:
        got = linalg.vecmat(x, y, QQ)
        want = x.dot(y)
        assert got.shape == want.shape and got.tolist() == want.tolist(), (x.shape, y.shape)
        assert all(type(v) is Fraction for v in got.flat)


def test_tracer_measure_of_the_kernel():
    # the benchmark's tracer records rows x columns and the rank of each
    # kernel call from its arguments and result (the pivots, second);
    # spans.py is executed from its text, so nothing is written beside it
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    measure = next(m for mod, attr, _, m in spans.TARGETS if (mod, attr) == ("linalg", "_np_rref"))
    p = 32003
    a = _random_residues(np.random.default_rng(3), 90, 140, p, rank=40)
    rank = len(_column_loop_rref(a.copy(), p)[1])
    assert rank == 40
    args = (a, p)
    assert measure(args, linalg._np_rref(*args)) == (90 * 140, rank)
