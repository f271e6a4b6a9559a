from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from symcanon import basechange, normalform, poly, tableau, univariate
from symcanon.errors import ContractError, DegreeOverflowError, ParseError, RingMismatchError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.linalg import nullspace, rank
from symcanon.poly import (
    CERTIFICATE_LINES,
    PolyRing,
    Polynomial,
    binary_minors_gcd,
    coprime_on_a_line,
    graded_basis,
    graded_piece,
    parse_poly,
    poly_matmul,
    poly_to_string,
    restrict_to_line,
)

from conftest import (
    coeff_matrix,
    matmul_poly,
    random_homogeneous,
    random_linear,
    row_coefficients,
    seed_add,
    seed_dot,
    seed_product,
)


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
    ring = PolyRing(field=QQ)
    f = ring.variable(0) ** 22
    assert (f * f).degree() == 44
    with pytest.raises(DegreeOverflowError):
        f * f * f  # degree 66 > DEGREE_BOUND = 64


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


# -- the sum-of-products kernel ------------------------------------------------------

KERNEL_FIELDS = [GF(3), GF(7), GF(DEFAULT_PRIME), GF(2**31 - 1), QQ]
KERNEL_FIELD_IDS = ["GF3", "GF7", "GF32003", "GF2^31-1", "Q"]
# twelve monomials and small coefficients: products share monomials, so
# pair sums and running sums cancel and come back often
dense_terms_st = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.just(0), st.just(0)),
    st.integers(-3, 3),
    max_size=8,
)


def same_terms(f, g):
    return f == g and list(f.terms.items()) == list(g.terms.items())


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_FIELD_IDS)
@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(dense_terms_st, dense_terms_st), max_size=4))
def test_dot_matches_earlier_products_and_sums(field, pairs):
    # values and term order of the earlier loop: each pair summed with a
    # delete on cancel, each product added with the earlier +
    ring = PolyRing(field=field)
    us = [build(ring, a) for a, _ in pairs]
    vs = [build(ring, b) for _, b in pairs]
    assert same_terms(poly.dot(us, vs, ring), seed_dot(us, vs, ring))
    for f, g in zip(us, vs):
        assert same_terms(f * g, seed_product(f, g))
        assert same_terms(f + g, seed_add(f, g))


@pytest.mark.parametrize(
    "field, f, g",
    [
        (QQ, "-2*x0^2 - 2*x0 + 1", "x0^2*x1 + x0*x1 - x1"),
        (QQ, "x0 + 1 + x0^2", "x0^2 - x0 + x1 + 1"),
        (GF(3), "2*x0^2*x1 + x0^2 + 2", "x0^2*x1 + x1 + 1"),
    ],
    ids=["Q", "Q-two-variables", "GF3"],
)
def test_product_term_order_when_a_pair_sum_cancels(field, f, g):
    # a monomial's pair sum cancels and comes back later in the product: the
    # earlier loop appends it again at the end, after terms first seen since
    ring = PolyRing(field=field)
    f, g = parse_poly(f, ring), parse_poly(g, ring)
    assert same_terms(f * g, seed_product(f, g))
    assert same_terms(poly.dot([g, f], [g, g], ring), seed_dot([g, f], [g, g], ring))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_FIELD_IDS)
@settings(max_examples=40, deadline=None)
@given(t=dense_terms_st, c=coeff_st)
def test_neg_and_scale_match_field_operations(field, t, c):
    ring = PolyRing(field=field)
    f = build(ring, t)
    c = field.of_int(c)
    assert list((-f).terms.items()) == [(m, field.neg(v)) for m, v in f.terms.items()]
    want = [(m, field.mul(c, v)) for m, v in f.terms.items()] if c else []
    assert list(f.scale(c).terms.items()) == want


def test_dot_of_zero_operands_and_empty_sequences(R):
    f, g = P("x0 + 2*x1", R), P("x2^2 - x3*x4", R)
    zero = R.zero()
    assert poly.dot([], [], R) == zero
    assert poly.dot([zero, f], [g, zero], R) == zero
    assert same_terms(poly.dot([f, zero, f], [g, g, zero], R), f * g)
    assert same_terms(poly.dot([f, g], [g, f], R), f * g + g * f)
    with pytest.raises(ContractError):
        poly.dot([f], [g, g], R)


def test_dot_refuses_factors_of_another_ring(R):
    other = PolyRing(field=GF(DEFAULT_PRIME))
    f, g = P("x0 + x1", R), P("x0 + x1", other)
    with pytest.raises(RingMismatchError):
        poly.dot([f], [g], R)
    with pytest.raises(RingMismatchError):
        poly.dot([g], [g], R)
    with pytest.raises(RingMismatchError):
        f * g
    # the ring is checked before a zero factor is skipped
    with pytest.raises(RingMismatchError):
        poly.dot([other.zero()], [f], R)


def test_dot_checks_degree_before_packing(R):
    x0 = R.variable(0)
    assert x0**32 * x0**32 == R.monomial((64, 0, 0, 0, 0))
    with pytest.raises(DegreeOverflowError):
        x0**33 * x0**32
    with pytest.raises(DegreeOverflowError):
        poly.dot([x0, x0**33], [x0, x0**32], R)
    # an exponent too wide for a 16-bit field is refused by the degree
    # check, not by the packing; a zero factor is skipped before it
    wide = R.monomial((1 << 16, 0, 0, 0, 0))
    with pytest.raises(DegreeOverflowError):
        poly.dot([wide], [R.one()], R)
    assert poly.dot([wide], [R.zero()], R) == R.zero()


def test_every_product_path_reaches_dot(monkeypatch, golden_tableau):
    assert tableau.dot is normalform.dot is basechange.dot is poly.dot
    calls = []
    kernel = poly.dot

    def counted(us, vs, ring):
        calls.append(len(us))
        return kernel(us, vs, ring)

    for module in (poly, tableau, normalform):
        monkeypatch.setattr(module, "dot", counted)
    T = golden_tableau
    ring = T.ring
    f, g = T.alpha[1][0], T.beta[1][1]

    def count(run):
        calls.clear()
        run()
        return list(calls)

    assert count(lambda: f * g) == [1]
    assert count(lambda: poly_matmul([[f, g]], [[g], [f]], ring)) == [2]
    # two dots of length width per entry of the strict upper triangle
    w = T.width
    assert count(lambda: tableau.check_symmetry(T.alpha, T.beta, ring)) == [w] * (w * (w - 1))
    # one dot over the nonzero entries of the expanded row
    full = T.full_matrix()
    heads = [c for c in (1, 2) if not full[1][c].is_zero()]
    assert heads
    assert count(lambda: tableau.Minors(full, ring)((1, 2), (1, 2))) == [len(heads)]
    assert count(lambda: normalform.verify_normal_shape(T)) == [4, 4]


def test_graded_basis_is_one_shared_tuple(R):
    basis = graded_basis(R, 3)
    assert isinstance(basis, tuple)
    assert graded_basis(PolyRing(field=GF(DEFAULT_PRIME)), 3) is basis
    assert graded_basis(PolyRing(("a", "b"), QQ), 3) == ((3, 0), (2, 1), (1, 2), (0, 3))


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)])
def test_linear_rows_match_earlier_coefficients(field):
    ring = PolyRing(field=field)
    rng = DetRng(6)
    row = [random_linear(ring, rng) for _ in range(5)] + [ring.zero()]
    assert graded_piece(row, 1, ring, 0).tolist() == row_coefficients(row, ring)


# -- grade certificates on a line ------------------------------------------------


def test_restrict_to_line_is_the_form_on_the_line(R):
    f = P("x0^2*x1 - 3*x2^3 + x3*x4^2", R)
    line = CERTIFICATE_LINES[0]
    g = restrict_to_line(f, line)
    assert len(g) == 4
    for t in range(-2, 3):
        point = [a + t * b for a, b in zip(*line)]
        assert univariate.evaluate(g, Fraction(t), QQ) == f.evaluate(point)
    assert g[-1] == f.evaluate(line[1])  # the top coefficient is f at q
    assert restrict_to_line(R.zero(), line) == []


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)], ids=["Q", "GF"])
def test_coprime_on_a_line_certifies_coprime_minors(field):
    ring = PolyRing(field=field)
    x = ring.gens()
    assert coprime_on_a_line([[x[0], x[1]]], ring) == CERTIFICATE_LINES[0]
    # the twisted cubic: its 2x2 minors generate an ideal of codimension 2
    assert coprime_on_a_line([[x[0], x[1], x[2]], [x[1], x[2], x[3]]], ring) is not None


@pytest.mark.parametrize("factor", ["x4", "x0^3 + 2*x1*x2*x3 - x4^2*x0"])
def test_coprime_on_a_line_refuses_a_common_factor(factor):
    ring = PolyRing(field=GF(DEFAULT_PRIME))
    x = ring.gens()
    h = P(factor, ring)
    assert coprime_on_a_line([[h * x[0], h * (x[1] + x[2])]], ring) is None
    # a common factor of the maximal minors, not of the entries
    assert coprime_on_a_line([[h * x[0], h * x[1], h * x[2]], [x[1], x[2], x[3]]], ring) is None


def test_coprime_on_a_line_needs_a_minor_alive_at_q(R):
    # h vanishes at the point q of every line and is constant on each: the
    # forms h*x0 and h*x1 restrict to coprime forms, and only their top
    # coefficients, all zero, show the common factor
    qs = [list(map(Fraction, q)) for _, q in CERTIFICATE_LINES]
    a, b = nullspace(qs, QQ)
    h = next(
        R.linear_form(c)
        for c in (a, b, [u + v for u, v in zip(a, b)])
        if all(R.linear_form(c).evaluate(p) != 0 for p, _ in CERTIFICATE_LINES)
    )
    forms = [h * R.variable(0), h * R.variable(1)]
    restricted = [restrict_to_line(f, CERTIFICATE_LINES[0]) for f in forms]
    assert univariate.gcd(*restricted, QQ) == [1]
    assert all(g[-1] == 0 for g in restricted)
    assert coprime_on_a_line([forms], R) is None


def test_coprime_on_a_line_outside_five_variables():
    ring = PolyRing(("x", "y"), QQ)
    assert coprime_on_a_line([ring.gens()], ring) is None
    assert coprime_on_a_line([], PolyRing(field=QQ)) is None


# -- the gcd of minors of binary forms ---------------------------------------------
# A binary form of degree d is its d + 1 coefficients ascending in t; in the
# matrices below s = [1, 0], t = [0, 1] and h = t - 2s = [-2, 1].

FIELDS = [QQ, GF(7)]
FIELD_IDS = ["Q", "GF7"]


def _forms(rows, field):
    return [[[field.of_int(c) for c in f] for f in row] for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_binary_minors_gcd_finds_a_common_linear_factor(field):
    # minors h*s^2, h*s*t, h*t^2
    M = _forms([[[-2, 1, 0], [0, -2, 1], []], [[], [1, 0], [0, 1]]], field)
    assert binary_minors_gcd(M, field) == _forms([[[-2, 1]]], field)[0][0]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_binary_minors_gcd_keeps_a_common_power_of_s(field):
    # minors s^3, s^2*t, s*t^2: every top entry is zero, the gcd in t is 1
    M = _forms([[[1, 0, 0], [0, 1, 0], []], [[], [1, 0], [0, 1]]], field)
    assert binary_minors_gcd(M, field) == [field.one(), field.zero()]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_binary_minors_gcd_of_one_row_is_the_gcd_of_its_entries(field):
    # (t - s)(t - 2s), s(t - s) and the zero form
    M = _forms([[[2, -3, 1], [-1, 1, 0], []]], field)
    assert binary_minors_gcd(M, field) == _forms([[[-1, 1]]], field)[0][0]
    # t^2 and s*t share t; s*t^2 and t^3 share t^2
    assert binary_minors_gcd(_forms([[[0, 0, 1], [0, 1, 0]]], field), field) == [field.zero(), field.one()]
    assert binary_minors_gcd(_forms([[[0, 0, 1, 0], [0, 0, 0, 1]]], field), field) == [field.zero(), field.zero(), field.one()]
    assert binary_minors_gcd(_forms([[[], []]], field), field) == []


def _full_fold(M, field):
    """gcd of every nonzero maximal minor, then the fewest zero top entries."""
    memo = {}
    minors = [poly._line_minor(M, 0, cols, memo, field) for cols in combinations(range(len(M[0])), len(M))]
    nonzero = [m for m in minors if univariate.trim(m, field)]
    if not nonzero:
        return []
    common = []
    for m in nonzero:
        common = univariate.gcd(common, m, field)
    return common + [field.zero()] * min(len(m) - len(univariate.trim(m, field)) for m in nonzero)


def _times(h, f, field):
    """h*f as a binary form of degree deg h + deg f; the zero form [] stays []."""
    if not f:
        return []
    product = univariate.mul(h, f, field)
    return product + [field.zero()] * (len(h) + len(f) - 1 - len(product))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_binary_minors_gcd_early_stop_agrees_with_the_full_fold(field, monkeypatch):
    # random matrices of linear binary forms, a third of them with a row
    # times t - 2s and a third times s; the fold stops early on some
    rng = DetRng(41)
    top_calls = []
    line_minor = poly._line_minor

    def counted(M, r, cols, memo, field):
        if r == 0:
            top_calls.append(cols)
        return line_minor(M, r, cols, memo, field)

    monkeypatch.setattr(poly, "_line_minor", counted)
    factors = [None, [field.of_int(-2), field.one()], [field.one(), field.zero()]]
    stopped = 0
    for trial in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(3, 5)
        M = [[[rng.scalar(field), rng.scalar(field)] if rng.randint(0, 5) else [] for _ in range(cols)] for _ in range(rows)]
        h = factors[trial % 3]
        if h:
            M[0] = [_times(h, f, field) for f in M[0]]
        top_calls.clear()
        got = binary_minors_gcd(M, field)
        stopped += len(top_calls) < comb(cols, rows)
        assert got == _full_fold(M, field)
    assert stopped
