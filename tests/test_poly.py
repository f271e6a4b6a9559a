from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from symcanon.errors import ContractError, DegreeOverflowError, ParseError, RingMismatchError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.linalg import rank
from symcanon.poly import (
    PolyRing,
    Polynomial,
    graded_basis,
    graded_piece,
    parse_poly,
    poly_matmul,
    poly_to_string,
)

from conftest import coeff_matrix, matmul_poly, random_homogeneous, random_linear, row_coefficients


@pytest.fixture(scope="module")
def R():
    return PolyRing(field=QQ)


def P(text, ring):
    return parse_poly(text, ring)


def test_parse_zero(R):
    assert P("0", R).is_zero()


def test_parse_two_term_cubic(R):
    f = P("x0^2*x1 - 3*x2", R)
    assert f.degree() == 3
    assert len(f.terms) == 2


def test_merge_and_canonical_print(R):
    assert poly_to_string(P("x1*x0 + x0*x1", R)) == "2*x0*x1"


def test_parse_errors(R):
    with pytest.raises(ParseError):
        P("x0 + ", R)
    with pytest.raises(ParseError):
        P("y3", R)
    with pytest.raises(ParseError):
        P("x0 ^^ 2", R)


def test_coefficient_not_in_field():
    ring = PolyRing(field=GF(5))
    assert poly_to_string(parse_poly("7/3*x0", ring)) == "4*x0"
    with pytest.raises(ContractError):
        parse_poly("1/5*x0", ring)


def test_add_identity(R):
    f = P("x0^2 - x1*x4", R)
    assert f + R.zero() == f


def test_difference_of_squares(R):
    x = R.gens()
    assert (x[0] + x[1]) * (x[0] - x[1]) == P("x0^2 - x1^2", R)


def test_scale_mod_5():
    ring = PolyRing(field=GF(5))
    f = parse_poly("3*x0", ring).scale(2)
    assert poly_to_string(f) == "x0"


def test_ring_mismatch(R):
    other = PolyRing(("y0", "y1", "y2", "y3", "y4"), QQ)
    with pytest.raises(RingMismatchError):
        P("x0", R) + other.variable(0)


def test_degree_overflow():
    ring = PolyRing(field=QQ, degree_bound=8)
    f = ring.variable(0) ** 4
    with pytest.raises(DegreeOverflowError):
        f * f * f


def test_graded_basis_counts(R):
    for d in range(13):
        assert len(graded_basis(R, d)) == comb(d + 4, 4)
    assert len(graded_basis(R, 1)) == 5
    assert len(graded_basis(R, 2)) == 15
    assert len(graded_basis(R, 3)) == 35  # stars and bars


def test_coeff_matrix_examples(R):
    x = R.gens()
    rows = graded_piece([x[0], x[1]], 1, R, 0)
    assert rank(rows, QQ) == 2
    rows = graded_piece([x[0] + x[1], x[0] + x[1]], 1, R, 0)
    assert rank(rows, QQ) == 1
    rows = graded_piece([x[0] * x[0], x[0] * x[1], x[1] * x[1]], 2, R, 0)
    assert len(rows) == 3 and len(rows[0]) == 15
    assert rank(rows, QQ) == 3


def test_coeff_matrix_rejects_inhomogeneous(R):
    with pytest.raises(ContractError):
        graded_piece([P("x0 + x1^2", R)], 2, R, 0)


def test_coeff_matrix_rank_permutation_invariant(R):
    x = R.gens()
    polys = [x[0] * x[1], x[2] * x[3] - x[0] * x[0], x[4] * x[4]]
    rows1 = graded_piece(polys, 2, R, 0)
    rows2 = graded_piece(list(reversed(polys)), 2, R, 0)
    assert rank(rows1, QQ) == rank(rows2, QQ)


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)])
def test_graded_piece_matches_polynomial_products(field):
    ring = PolyRing(field=field)
    gens = [P(t, ring) for t in ("x0^2 - 3*x1*x4", "0", "x2^3 + 2*x0*x1*x3", "x0 + x1^2", "x3^5")]
    rows = graded_piece(gens, 4, ring)
    # zero, inhomogeneous and too high generators give no rows
    products = [g * ring.monomial(m) for g in (gens[0], gens[2]) for m in graded_basis(ring, 4 - g.degree())]
    assert rows.tolist() == coeff_matrix(products, 4, ring)[0]
    # with a multiplier degree a zero entry keeps its (zero) rows
    entries = [gens[0], gens[1], -gens[0]]
    rows = graded_piece(entries, 3, ring, 1)
    products = [g * ring.monomial(m) for g in entries for m in graded_basis(ring, 1)]
    assert rows.shape == (15, 35)
    assert rows.tolist() == coeff_matrix(products, 3, ring)[0]
    with pytest.raises(ContractError):
        graded_piece([gens[2]], 3, ring, 1)


# -- randomized algebra laws -------------------------------------------------

coeff_st = st.integers(-9, 9)
expvec_st = st.lists(st.integers(0, 3), min_size=5, max_size=5).map(tuple)
terms_st = st.dictionaries(expvec_st, coeff_st, max_size=6)


def build(ring, terms):
    return ring.from_terms({m: ring.field.of_int(c) for m, c in terms.items()})


@settings(max_examples=60, deadline=None)
@given(terms_st, terms_st, terms_st, st.booleans())
def test_ring_axioms(t1, t2, t3, over_gf):
    ring = PolyRing(field=GF(DEFAULT_PRIME) if over_gf else QQ)
    f, g, h = build(ring, t1), build(ring, t2), build(ring, t3)
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(max_examples=60, deadline=None)
@given(terms_st, st.booleans())
def test_parse_print_roundtrip(t, over_gf):
    ring = PolyRing(field=GF(DEFAULT_PRIME) if over_gf else QQ)
    f = build(ring, t)
    assert parse_poly(poly_to_string(f), ring) == f


def test_mul_degree_additive_over_domain(R):
    f = P("x0^2 + x1*x2", R)
    g = P("x3^3 - x4^3", R)
    assert (f * g).degree() == f.degree() + g.degree()


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)])
def test_poly_matmul_matches_earlier_product(field):
    # same sums in the same order: equal entries with equal term order
    ring = PolyRing(field=field)
    rng = DetRng(5)
    for rows, inner, cols in ((3, 6, 3), (1, 4, 1), (6, 4, 2)):
        a = [[random_homogeneous(ring, rng, 1 + (i + k) % 3) for k in range(inner)] for i in range(rows)]
        b = [[random_homogeneous(ring, rng, 2) if (k + j) % 4 else ring.zero() for j in range(cols)] for k in range(inner)]
        new, old = poly_matmul(a, b, ring), matmul_poly(a, b, ring)
        assert [[list(e.terms.items()) for e in r] for r in new] == [[list(e.terms.items()) for e in r] for r in old]
    with pytest.raises(ContractError):
        poly_matmul(a, a, ring)


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)])
def test_linear_rows_match_earlier_coefficients(field):
    ring = PolyRing(field=field)
    rng = DetRng(6)
    row = [random_linear(ring, rng) for _ in range(5)] + [ring.zero()]
    assert graded_piece(row, 1, ring, 0).tolist() == row_coefficients(row, ring)
