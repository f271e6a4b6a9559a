from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symcanon import ideals, linalg
from symcanon.errors import BudgetExceededError, ContractError, DegreeOverflowError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import (
    Ideal,
    codimension,
    dimension,
    groebner_basis,
    hilbert_function,
    ideal_contains,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    multiplicity,
    normal_form_poly,
    same_hilbert_polynomial,
    PointAlgebra,
    regular_length,
    saturate,
    zero_dim_analysis,
    _multiplication_operator,
    _standard_monomials,
    _trial_forms,
)
from symcanon.orders import GREVLEX, LEX, elimination, grevlex_with_last
from symcanon.poly import EXPONENT_BOUND, Polynomial, PolyRing, graded_basis, graded_piece, parse_poly
from symcanon.paramgen import realize, sample
from symcanon.tableau import Minors, degeneracy_scheme, erase_first_row, fitting_ideal

from conftest import (
    GOLDEN_SEEDS,
    groebner_multiplication_operator,
    groebner_standard_monomials,
    irrelevant_ideal,
    iterated_saturation,
    k2_10_fixture,
    random_homogeneous,
    random_linear,
    seeded_zero_dim,
)


@pytest.fixture(scope="module")
def R():
    return PolyRing(field=QQ)


def I(ring, *texts):
    return Ideal(ring, [parse_poly(t, ring) for t in texts])


def test_gb_containment(R):
    gb = groebner_basis(I(R, "x0^2", "x0"))
    assert [str(g) for g in gb] == ["x0"]


def test_gb_rejects_inhomogeneous(R):
    with pytest.raises(ContractError):
        I(R, "x0*x1 - 1")


def test_gb_linear_elimination(R):
    gb = groebner_basis(I(R, "x0 + x1", "x0 - x1"))
    assert {str(g) for g in gb} == {"x0", "x1"}


def test_gb_budget_loud(R, monkeypatch):
    ideal = I(R, "x0^2 - x1*x2", "x1^2 - x0*x3", "x2^2 - x3*x4")
    monkeypatch.setattr(ideals, "DEGREE_BUDGET", 1)
    monkeypatch.setattr(ideals, "PAIR_BUDGET", 10)
    with pytest.raises(BudgetExceededError) as err:
        groebner_basis(ideal)
    assert "pair degree 4, 0 pairs processed, basis size 3" in str(err.value)
    monkeypatch.setattr(ideals, "DEGREE_BUDGET", 48)
    monkeypatch.setattr(ideals, "PAIR_BUDGET", 2)
    with pytest.raises(BudgetExceededError) as err:
        groebner_basis(ideal)
    message = str(err.value)
    assert "pair budget 2" in message and "2 pairs processed" in message
    assert "pair degree" in message and "basis size" in message


# every entry point that runs Buchberger, on fresh ideals: the linear
# I = (x0, x1), J = (x0*x2, x1*x2) and f = x0*x2, whose runs all meet a
# pair of degree 2
BUCHBERGER_ENTRY_POINTS = {
    "groebner_basis": lambda I, J, f: groebner_basis(I),
    "normal_form_poly": lambda I, J, f: normal_form_poly(f, I),
    "ideal_contains": lambda I, J, f: ideal_contains(I, f),
    "ideal_equal": lambda I, J, f: ideal_equal(J, I),
    "ideal_intersection": lambda I, J, f: ideal_intersection(I, J),
    "saturate": lambda I, J, f: saturate(I),
    "codimension": lambda I, J, f: codimension(I),
    "same_hilbert_polynomial": lambda I, J, f: same_hilbert_polynomial(I, J),
    "multiplicity": lambda I, J, f: multiplicity(I),
}


@pytest.mark.parametrize("entry", BUCHBERGER_ENTRY_POINTS)
def test_every_entry_point_reads_the_degree_budget(R, monkeypatch, entry):
    monkeypatch.setattr(ideals, "DEGREE_BUDGET", 1)
    f = parse_poly("x0*x2", R)
    with pytest.raises(BudgetExceededError, match="Groebner degree budget 1 exceeded"):
        BUCHBERGER_ENTRY_POINTS[entry](I(R, "x0", "x1"), I(R, "x0*x2", "x1*x2"), f)


def test_gb_degree_budget_at_its_value(R):
    with pytest.raises(BudgetExceededError) as err:
        groebner_basis(I(R, "x0^25*x1", "x0*x1^25"))
    assert str(err.value) == (
        "Groebner degree budget 48 exceeded (pair degree 50, 0 pairs processed, basis size 2)"
    )


def test_gb_refuses_unpackable_exponent(R):
    # ring.monomial accepts the exponent; the packed engine must not
    big = Ideal(R, [R.monomial((EXPONENT_BOUND, 0, 0, 0, 0))])
    with pytest.raises(DegreeOverflowError):
        groebner_basis(big)
    # nor may an order key whose 16-bit fields would overflow
    with pytest.raises(DegreeOverflowError):
        GREVLEX.key((EXPONENT_BOUND - 1,) * 2 + (2, 0, 0))


def test_normal_form_membership(R):
    ideal = I(R, "x0^2 - x1*x2", "x3*x4")
    for g in ideal.generators:
        assert normal_form_poly(g, ideal).is_zero()


def test_normal_form_unit(R):
    ideal = I(R, "x0", "x1^2")
    one = R.one()
    assert normal_form_poly(one, ideal) == one


def test_normal_form_substitution(R):
    ideal = I(R, "x0 - x1")
    f = parse_poly("x0^2", R)
    assert str(normal_form_poly(f, ideal)) == "x1^2"


def test_normal_form_absorption(R):
    rng = DetRng(11)
    ideal = I(R, "x0*x1 - x2^2", "x3^2")
    for _ in range(10):
        f = ideal.generators[rng.randint(0, 1)]
        g = random_linear(R, rng)
        assert normal_form_poly(f * g, ideal).is_zero()


def test_ideal_equal_cases(R):
    a = I(R, "x0", "x1")
    assert ideal_equal(a, I(R, "x1", "x0"))
    assert not ideal_equal(I(R, "x0"), I(R, "x0^2"))
    assert ideal_equal(I(R, "x0 + x1", "x1"), a)


def test_quotients(R):
    assert ideal_equal(ideal_quotient(I(R, "x0*x1"), parse_poly("x0", R)), I(R, "x1"))
    ideal = I(R, "x0^2 - x1*x2", "x3^2")
    assert ideal_equal(ideal_quotient(ideal, R.one()), ideal)
    q = ideal_quotient(I(R, "x0^2", "x0*x1"), parse_poly("x0", R))
    assert ideal_equal(q, I(R, "x0", "x1"))


def test_saturation_examples(R):
    m = irrelevant_ideal(R)
    square = Ideal(R, [a * b for a in R.gens() for b in R.gens()])
    assert saturate(square).contains_one()
    principal = I(R, "x0")
    assert ideal_equal(saturate(principal), principal)
    R2 = PolyRing(("x", "y"), QQ)
    s = saturate(I(R2, "x^2*y", "x^3"))
    assert ideal_equal(s, I(R2, "x^2"))


def test_saturation_idempotent_monotone(R):
    ideal = I(R, "x0^2*x4", "x1*x4^2", "x2^3")
    s = saturate(ideal)
    assert all(ideal_contains(s, g) for g in ideal.generators)
    assert ideal_equal(saturate(s), s)


def test_saturation_routes_agree(R):
    # irrelevant-ideal fast path vs the stabilized iterated quotient
    ideal = I(R, "x0^2*x4", "x0*x1", "x3^2*x4^2")
    assert ideal_equal(saturate(ideal), iterated_saturation(ideal))


def test_saturation_no_op_when_locus_missed(R):
    # associated primes of these monomial fixtures avoid V(J)
    ideal = I(R, "x0^2", "x1*x2")
    j = I(R, "x3", "x4")
    assert ideal_equal(iterated_saturation(ideal, j), ideal)


def _saturation_fallbacks(ring):
    """Ideals whose x4-saturation is not yet sat(I), so saturate intersects
    in further variables (1 to 4 intersections)."""
    x = ring.gens()
    m = list(x)
    two = ring.one() + ring.one()
    return {
        # the point (0:0:0:1:0), on x4 = 0, with an embedded component
        "point_on_x4": Ideal(ring, [g * v for g in (x[0], x[1], x[2], x[4]) for v in m]),
        "x1..x4 times m": Ideal(ring, [g * v for g in x[1:] for v in m]),
        "five_coordinate_points": Ideal(ring, [x[i] * x[j] for i in range(5) for j in range(i + 1, 5)]),
        # (1:0:0:0:a) for a = 0, 1, 2: over GF(3) they meet every hyperplane
        "three_points_on_a_line": Ideal(
            ring, [x[1], x[2], x[3], x[4] * (x[4] - x[0]) * (x[4] - two * x[0])]
        ),
        "embedded_line": Ideal(ring, [x[3] ** 2, x[3] * x[4], x[0] * x[4] ** 2]),
        "x4 times m": Ideal(ring, [x[4] * v for v in m]),
    }


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), GF(7), GF(3), QQ], ids=["gf32003", "gf7", "gf3", "q"])
def test_saturation_fallbacks_match_iterated_quotient(field):
    ring = PolyRing(field=field)
    for name, ideal in _saturation_fallbacks(ring).items():
        assert ideal_equal(saturate(ideal), iterated_saturation(ideal)), name


def _elimination_corpus(ring):
    """Small intersections, quotients and fallback saturations, by kind,
    each a function giving the resulting ideal."""
    x = ring.gens()
    two = ring.one() + ring.one()
    rng = DetRng(2718)
    lin = [random_linear(ring, rng) for _ in range(6)]

    def J(*gens):
        return Ideal(ring, list(gens))

    meets = [
        (J(x[0], x[1]), J(x[2], x[3])),
        (J(x[0], x[1], x[2], x[3]), J(x[0] - x[4], x[1], x[2], x[3])),
        (J(x[0] ** 2 - x[1] * x[2], x[3]), J(x[1], x[4] ** 2)),
        (J(x[0] * x[1] + two * x[2] ** 2, x[3] * x[4]), J(x[0] + x[4], x[1] ** 3 - x[2] * x[3] * x[4])),
        (J(lin[0] * lin[1], lin[2]), J(lin[3], lin[4] * lin[5])),
    ]
    quotients = [
        (J(x[0] * x[1], x[2] ** 3), x[0]),
        (J(x[0] ** 2, x[0] * x[1], x[2] * x[3]), x[0] + x[2]),
        (J(x[0] ** 2 - x[1] * x[2], x[1] * x[3] - two * x[4] ** 2, x[2] * x[4]), x[1]),
        (J(lin[0] * lin[1] * lin[2], lin[3] * lin[4]), lin[1] * lin[4]),
    ]
    return {
        "intersection": [lambda a=a, b=b: ideal_intersection(a, b) for a, b in meets],
        "quotient": [lambda a=a, f=f: ideal_quotient(a, f) for a, f in quotients],
        "saturate": [lambda a=a: saturate(a) for a in _saturation_fallbacks(ring).values()],
    }


def _printed_digest(ideal_list):
    text = "\n\n".join("\n".join(str(g) for g in J.generators) for J in ideal_list)
    return hashlib.sha256(text.encode()).hexdigest()


_ELIMINATION_PINS = {
    "gf32003": {
        "intersection": "47794c80689180afc561485fe881525bed286270cc44312ca5c56e8a0563f11c",
        "quotient": "6c5271f9cba41345b21430957f6740a83255f268b8cbcbaf8d868db9c2062f60",
        "saturate": "6be02203a1acf190b0dad6f8bc5a17fe4166f07edd13d321c06b26e6c1a8edf7",
    },
    "gf3": {
        "intersection": "29f473306c93f0132f73859951bc3bfc5c035b84b5d8805213a2b371f74bdcb2",
        "quotient": "dd5af4ecaefb22119c8067d5620de85e3dbc0b852d5b2765a4c5bd63c8e9ab1d",
        "saturate": "7a113432983bde4e50cd70044e13985b8c4d2a4a27617963cee6b11d4c455e5d",
    },
    "q": {
        "intersection": "66e5e96e835069d8da7d03cdc1c6f34492f95469e4e00f5d8c50ecfe7321fb15",
        "quotient": "1951ea9aae0e929ebc22f2b43db00d3dbda1cc48fbc70fd06d5aac50ff601add",
        "saturate": "5ef63f15530e1b3f5a16016ea5031eaadd96be669a29774cc847cb8467d8dc0b",
    },
}


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), GF(3), QQ], ids=["gf32003", "gf3", "q"])
def test_elimination_outputs_pinned(field, request):
    # printed generators, pinned from the engine that graded the elimination
    # variable with weight 0 in the ring: equality of ideals would not catch
    # a changed elimination run
    pins = _ELIMINATION_PINS[request.node.callspec.id]
    for kind, cases in _elimination_corpus(PolyRing(field=field)).items():
        assert _printed_digest([case() for case in cases]) == pins[kind], kind


def test_intersection_budget_counts_the_kept_variables(R, monkeypatch):
    # the reduced basis is the same for any pair order, so the pins above
    # cannot see which degree the run counts; its budget can: the pair
    # t*x0*x1 of (t*x0, (1 - t)*x1) has degree 2 in x0..x4
    monkeypatch.setattr(ideals, "DEGREE_BUDGET", 2)
    meet = ideal_intersection(I(R, "x0"), I(R, "x1"))
    assert [str(g) for g in meet.generators] == ["x0*x1"]
    monkeypatch.setattr(ideals, "DEGREE_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="pair degree 2"):
        ideal_intersection(I(R, "x0"), I(R, "x1"))


@pytest.mark.parametrize("names", [("t_", "x1", "x2", "x3", "x4"), ("t_", "t__", "x2", "x3", "x4")])
def test_elimination_in_a_ring_with_the_auxiliary_name(names):
    # ring variable names come from user input; the intersection's own
    # variable must still be a new one
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(names, field)
    renamed = PolyRing(("y0", "y1", "x2", "x3", "x4"), field)
    x = ring.gens()
    ideal = Ideal(ring, [x[0] * x[4], x[1], x[2], x[3] * x[4]])
    assert ideal_equal(saturate(ideal), iterated_saturation(ideal))

    def rename(J):
        return Ideal(renamed, [Polynomial(renamed, g.terms) for g in J.generators])

    for a, b in (
        (Ideal(ring, [x[1]]), Ideal(ring, [x[2]])),
        (Ideal(ring, [x[0] * x[1], x[2]]), Ideal(ring, [x[0] - x[3]])),
        (Ideal(ring, [x[0] ** 2, x[1] * x[4]]), Ideal(ring, [x[0] * x[4], x[3] ** 2])),
    ):
        meet = ideal_intersection(a, b)
        assert ideal_equal(rename(meet), ideal_intersection(rename(a), rename(b)))


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), GF(3), QQ], ids=["gf32003", "gf3", "q"])
def test_contains_one_matches_the_groebner_basis(field):
    # contains_one reads the generators; the oracle is a constant in the
    # reduced grevlex basis
    ring = PolyRing(field=field)
    x = ring.gens()
    two = ring.one() + ring.one()
    square = Ideal(ring, [a * b for a in x for b in x])
    units = [
        Ideal(ring, [x[0], x[1] ** 2, two]),
        ideal_quotient(Ideal(ring, [x[0] * x[1], x[2]]), x[2]),
        ideal_intersection(Ideal(ring, [ring.one()]), Ideal(ring, [x[3], ring.one()])),
        saturate(square),
    ]
    assert all(J.contains_one() for J in units) and not square.contains_one()
    cases = units + [square]
    for J in _saturation_fallbacks(ring).values():
        cases += [J, saturate(J)]
    for J in cases:
        assert J.contains_one() == any(g.degree() == 0 for g in groebner_basis(J)), J.generators


def test_saturation_matches_iterated_quotient_on_fitting_ideals():
    field = GF(DEFAULT_PRIME)
    tableaux = [realize(sample(seed, field)) for seed in (0, 3)] + [k2_10_fixture(field)]
    for T in tableaux:
        for rows in (range(1, T.n + 1), None):
            ideal = fitting_ideal(T.minors(), T.n, rows=rows)
            assert ideal_equal(saturate(ideal), iterated_saturation(ideal))


def test_same_hilbert_polynomial_cases(R):
    for ideal in list(_saturation_fallbacks(R).values()) + [I(R, "x0^2*x4", "x1*x4^2", "x2^3")]:
        assert same_hilbert_polynomial(ideal, iterated_saturation(ideal))
    point = I(R, "x0", "x1", "x2", "x3")
    assert not same_hilbert_polynomial(point, I(R, "x0", "x1", "x2"))
    two_points = ideal_intersection(point, I(R, "x0 - x4", "x1", "x2", "x3"))
    assert not same_hilbert_polynomial(two_points, point)
    # a Hilbert polynomial is no ideal: two other points have the same one
    other_two = ideal_intersection(I(R, "x0", "x1", "x2", "x4"), I(R, "x0", "x1", "x3", "x4"))
    assert same_hilbert_polynomial(two_points, other_two)


def test_dimension_examples(R):
    assert dimension(I(R, "x0", "x1")) == 3
    assert codimension(I(R, "x0", "x1")) == 2
    assert dimension(Ideal(R, [])) == 5
    assert dimension(I(R, "x0", "x1", "x2", "x3", "x4")) == 0
    one = Ideal(R, [R.one()])
    assert dimension(one) == -1


def test_dimension_order_independent(R):
    fixtures = [
        I(R, "x0*x1", "x2^2"),
        I(R, "x0^2 - x1*x2", "x3*x4"),
        I(R, "x0", "x1^3", "x2*x3"),
        I(R, "x0*x4 - x1^2"),
    ]
    for ideal in fixtures:
        fresh = Ideal(R.__class__(R.variables, R.field), list(ideal.generators))
        assert dimension(ideal, GREVLEX) == dimension(fresh, LEX)


def test_generic_2x5_minors_dimension_and_degree():
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    rng = DetRng(42)
    rows = [[random_linear(ring, rng) for _ in range(5)] for _ in range(2)]
    minors = [
        rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    ideal = Ideal(ring, minors)
    assert dimension(ideal) == 1  # codim 4
    assert multiplicity(ideal) == 5  # Porteous degree of the degeneracy locus


def test_multiplicity_points(R):
    assert multiplicity(I(R, "x0", "x1", "x2", "x3")) == 1
    assert multiplicity(I(R, "x0^2", "x1", "x2", "x3")) == 2


def test_multiplicity_of_unions_of_points(R):
    # product of k distinct reduced point ideals, intersected: degree k
    points = [
        ("x0", "x1", "x2", "x3"),
        ("x0 - x4", "x1", "x2", "x3"),
        ("x0", "x1 - x4", "x2", "x3"),
        ("x0 - x4", "x1 - x4", "x2 - x4", "x3"),
    ]
    ideal = None
    for k, gens in enumerate(points, start=1):
        this = I(R, *gens)
        ideal = this if ideal is None else ideal_intersection(ideal, this)
        assert multiplicity(ideal) == k


def test_radical_and_point_count(R):
    point = zero_dim_analysis(I(R, "x0", "x1", "x2", "x3"))
    assert point.reduced and point.points == 1
    fat = zero_dim_analysis(I(R, "x0^2", "x1", "x2", "x3"))
    assert not fat.reduced and fat.points == 1


def test_radical_contract_violations(R):
    with pytest.raises(ContractError):
        zero_dim_analysis(I(R, "x0", "x1"))  # positive-dimensional
    small = PolyRing(field=GF(3))
    fat = Ideal(small, [small.variable(0) ** 3] + [small.variable(i) for i in (1, 2, 3)])
    with pytest.raises(ContractError):
        zero_dim_analysis(fat)  # length 3 over GF(3) is refused


def test_two_reduced_points_modp():
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    p1 = Ideal(ring, [ring.variable(i) for i in range(4)])
    x = ring.gens()
    p2 = Ideal(ring, [x[0] - x[4], x[1], x[2], x[3]])
    both = ideal_intersection(p1, p2)
    analysis = zero_dim_analysis(both)
    assert analysis.reduced and analysis.points == 2 and analysis.length == 2


# (reduced, points, length) of small point schemes, by name: a double
# point, a double point plus a simple point, a pair of points (conjugate
# over GF(7) and Q, where 3 is no square, and rational over GF(32003)) and
# two rational points
POINT_CORPUS = {
    "double": ([("x0^2", "x1", "x2", "x3")], (False, 1, 2)),
    "double_and_simple": ([("x0^2", "x1", "x2", "x3"), ("x0 - x4", "x1", "x2", "x3")], (False, 2, 3)),
    "conjugate_pair": ([("x0^2 - 3*x4^2", "x1", "x2", "x3")], (True, 2, 2)),
    "two_rational": ([("x0", "x1", "x2", "x3"), ("x0 - x4", "x1", "x2", "x3")], (True, 2, 2)),
}


def _points_ideal(ring, components):
    return reduce(ideal_intersection, [I(ring, *gens) for gens in components])


def _verdict(analysis):
    return analysis.reduced, analysis.points, analysis.length


@pytest.mark.parametrize("field", [GF(7), GF(DEFAULT_PRIME), QQ], ids=["gf7", "gf32003", "q"])
@pytest.mark.parametrize("name", sorted(POINT_CORPUS))
def test_point_corpus_verdicts(name, field):
    # the trace-form rank gives the expected verdicts, the same as the
    # seeded minimal-polynomial route's
    components, expected = POINT_CORPUS[name]
    ideal = _points_ideal(PolyRing(field=field), components)
    assert _verdict(zero_dim_analysis(ideal)) == expected
    assert seeded_zero_dim(ideal) == expected


def _degeneracy_ideal(T):
    return fitting_ideal(T.minors(), T.n, rows=range(1, T.n + 1))


@pytest.mark.parametrize(
    "case",
    [f"gf-{s}" for s in GOLDEN_SEEDS] + ["q-0", "q-2", "k2_10-gf", "k2_10-q"],
)
def test_point_analysis_matches_seeded_route(case):
    # the degeneracy schemes of the golden tableaux and the K2 = 10 fixture
    kind, arg = case.split("-")
    if kind == "k2_10":
        T = k2_10_fixture(GF(DEFAULT_PRIME) if arg == "gf" else QQ)
    else:
        T = realize(sample(int(arg), GF(DEFAULT_PRIME) if kind == "gf" else QQ))
    ideal = _degeneracy_ideal(T)
    assert _verdict(zero_dim_analysis(ideal)) == seeded_zero_dim(ideal)


@pytest.mark.parametrize("seed", [4, 11])
def test_gf7_degeneracy_points_answered(seed):
    # every seeded draw of the earlier route was degenerate on these two
    # schemes of 3 reduced points
    T = realize(sample(seed, GF(7)))
    with pytest.raises(BudgetExceededError):
        seeded_zero_dim(_degeneracy_ideal(T))
    scheme = degeneracy_scheme(T)
    assert scheme.finite and scheme.reduced and scheme.points == 3 and scheme.length == 3


affine_points = st.lists(
    st.tuples(*[st.integers(0, DEFAULT_PRIME - 1)] * 4), min_size=1, max_size=4, unique=True
)


@settings(max_examples=8, deadline=None)
@given(points=affine_points, doubled=st.booleans())
def test_rational_points_counted(points, doubled):
    # up to 4 points (a : 1), the first one doubled along x0 if asked
    ring = PolyRing(field=GF(DEFAULT_PRIME))
    x = ring.gens()
    components = [[x[k] - x[4].scale(a[k]) for k in range(4)] for a in points]
    if doubled:
        components[0][0] = components[0][0] * components[0][0]
    ideal = reduce(ideal_intersection, [Ideal(ring, lines) for lines in components])
    k = len(points)
    assert _verdict(zero_dim_analysis(ideal)) == (not doubled, k, k + doubled)


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ], ids=["gf", "q"])
def test_point_analysis_skips_zero_divisor_forms(field):
    # l_0 = x0 vanishes at (0:0:0:0:1) and l_1 = x0 + ... + x4 at
    # (1:-1:0:0:0), so the search takes l_2
    ring = PolyRing(field=field)
    ideal = _points_ideal(ring, [("x0", "x1", "x2", "x3"), ("x0 + x1", "x2", "x3", "x4")])
    sat = saturate(ideal)
    source, target = _standard_monomials(sat, 1), _standard_monomials(sat, 2)
    assert len(source) == 2
    for c in (0, 1):
        form = ring.linear_form([field.of_int(c**i) for i in range(5)])
        assert linalg.rank(_multiplication_operator(sat, form, source, target), field) < 2
    assert _verdict(zero_dim_analysis(ideal)) == (True, 2, 2)


def test_point_analysis_refuses_when_every_form_meets_a_point():
    # over GF(5), l_c vanishes at (0:4:1:4:1) for c = 0, 1, 2, 3 and at
    # (1:1:0:0:0) for c = 4
    ring = PolyRing(field=GF(5))
    ideal = _points_ideal(ring, [("x0", "x1 - 4*x4", "x2 - x4", "x3 - 4*x4"), ("x0 - x1", "x2", "x3", "x4")])
    assert multiplicity(ideal) == 2
    with pytest.raises(BudgetExceededError, match="0 <= c < 5"):
        zero_dim_analysis(ideal)


def _unit_rank_test(ideal, m):
    """Whether some trial form l has (I + l)_m = R_m."""
    ring = ideal.ring
    full = len(graded_basis(ring, m))
    return any(
        linalg.rank(np.vstack([ideal.piece(m).rows, graded_piece([l], m, ring)]), ring.field) == full
        for l in _trial_forms(ring, hilbert_function(ideal, m))
    )


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ], ids=["gf", "q"])
def test_regularity_certificate_refuses_and_the_groebner_route_answers(field):
    # the degree-2 part of (x2, x3, x0^2, x1^2) cuts a point of length 4
    # whose ideal is 3-regular, not 2-regular: HF is 4 in degrees 2 and 3,
    # and no form l has (I + l)_2 = R_2
    ring = PolyRing(field=field)
    x = ring.gens()
    quadrics = Ideal(ring, [x[2] * v for v in x] + [x[3] * v for v in x] + [x[0] ** 2, x[1] ** 2])
    assert [hilbert_function(quadrics, d) for d in (2, 3)] == [4, 4]
    assert not _unit_rank_test(quadrics, 2)
    assert regular_length(quadrics, 2) is None
    assert _verdict(zero_dim_analysis(quadrics)) == (False, 1, 4)


def test_regularity_certificate_needs_the_colon_test():
    # 13 random quadrics through (0:0:0:0:1): a form passes (I + l)_2 = R_2,
    # but HF is 2 in degree 2 and 1 in degree 3, so (I : l)_2 != I_2 for
    # every l, and the point is simple
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    rng = DetRng(7)
    through = [m for m in graded_basis(ring, 2) if m[4] < 2]
    ideal = Ideal(ring, [ring.from_terms({m: field.of_int(rng.randint(-5, 5)) for m in through}) for _ in range(13)])
    assert [hilbert_function(ideal, d) for d in (2, 3)] == [2, 1]
    assert _unit_rank_test(ideal, 2)
    assert regular_length(ideal, 2) is None
    assert _verdict(zero_dim_analysis(ideal)) == (True, 1, 1)


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ], ids=["gf", "q"])
def test_regularity_certificate_on_the_degeneracy_ideals(field):
    # I_n(A') of golden seed 0 (n = 2) and of the K2 = 10 fixture (n = 1)
    # are certified over GF(p) with the lengths 3 and 1, never over Q
    for T, e in ((realize(sample(0, field)), 3), (k2_10_fixture(field), 1)):
        expected = e if field.characteristic else None
        assert regular_length(_degeneracy_ideal(T), T.n) == expected


def test_point_algebra_refuses_a_degree_off_the_length(golden_tableau):
    # HF_{R/I}(1) = 5 for I = I_2(A'), not the length 3
    ideal = _degeneracy_ideal(golden_tableau)
    assert hilbert_function(ideal, 1) == 5
    with pytest.raises(ContractError, match="not the length 3"):
        PointAlgebra(ideal, 1, 3)
    assert PointAlgebra(ideal, 2, 3).points == 3


def _point_algebras(T):
    # the certified one, on I_n(A') in degree n, and the Groebner one, on
    # the saturation in its first stable degree
    ideal = _degeneracy_ideal(T)
    return [PointAlgebra(ideal, T.n, regular_length(ideal, T.n)), zero_dim_analysis(ideal)]


@pytest.mark.parametrize("seed", [0, 3])
def test_point_algebra_class_in_its_degree_is_the_residue(seed):
    # for f of degree m, sum_a f_a theta^a 1 is f's residue on the standard
    # monomials: theta^a 1 stands for x^a h^(m - |a|) with 1 for h^m
    T = realize(sample(seed, GF(DEFAULT_PRIME)))
    rng = DetRng(300 + seed)
    for algebra in _point_algebras(T):
        J, m = algebra.ideal, algebra.degree
        standard = [j for j in range(len(graded_basis(J.ring, m))) if j not in set(J.piece(m).pivots)]
        for _ in range(4):
            f = random_homogeneous(J.ring, rng, m)
            residue = J.piece(m).reduce(graded_piece([f], m, J.ring, 0)[0])[standard]
            assert list(algebra.classes([f], m)[0]) == list(residue)


@pytest.mark.parametrize("seed", [0, 3])
def test_point_algebra_class_zero_is_membership(seed):
    # in degree 4 the certified ideal is its saturation: a quartic's class is
    # zero exactly when it lies in I_2(A')_4, for members and for others,
    # and both algebras agree on it
    T = realize(sample(seed, GF(DEFAULT_PRIME)))
    ring = T.ring
    ideal = _degeneracy_ideal(T)
    rng = DetRng(400 + seed)
    quartics = []
    for k in range(12):
        f = ring.zero()
        for g in ideal.generators[:5]:
            f = f + random_homogeneous(ring, rng, 2) * g
        quartics.append(f if k % 2 else f + random_homogeneous(ring, rng, 4))
    members = [ideal.piece(4).contains(row) for row in graded_piece(quartics, 4, ring, 0)]
    assert members == [bool(k % 2) for k in range(12)]
    for algebra in _point_algebras(T):
        assert [not c.any() for c in algebra.classes(quartics, 4)] == members


def test_hilbert_function(R):
    ideal = I(R, "x0", "x1", "x2", "x3")
    assert [hilbert_function(ideal, m) for m in range(3)] == [1, 1, 1]


def test_reduced_basis_unique_under_generator_shuffle():
    # the reduced basis is a function of (ideal, order) alone
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    rng = DetRng(90)
    gens = [
        random_linear(ring, rng) * random_linear(ring, rng) for _ in range(5)
    ]
    gb1 = groebner_basis(Ideal(ring, gens))
    gb2 = groebner_basis(Ideal(ring, list(reversed(gens))))
    scaled = [g.scale(field.of_int(7)) for g in gens]
    gb3 = groebner_basis(Ideal(ring, scaled))
    assert gb1 == gb2 == gb3


def _tuple_key(order, exp):
    """The tuple keys that the int keys replaced, kept as the oracle."""

    def grevlex(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    if order.permutation is not None:
        exp = tuple(exp[i] for i in order.permutation)
    if order.kind == "grevlex":
        return grevlex(exp)
    if order.kind == "lex":
        return exp
    return grevlex(exp[: order.block]) + grevlex(exp[order.block :])


_STANDARD = PolyRing(field=QQ)


@pytest.mark.parametrize(
    "order, ring",
    [(GREVLEX, _STANDARD), (LEX, _STANDARD), (elimination(1), PolyRing(("t_",) + _STANDARD.variables, QQ))]
    + [(grevlex_with_last(5, v), _STANDARD) for v in range(5)],
)
def test_int_key_sorts_like_tuple_key(order, ring):
    rng = DetRng(1000 + ring.nvars)
    monos = []
    for i in range(600):
        top = (3, 12, 4000)[i % 3]  # small exponents make ties, large ones fill the fields
        monos.append(tuple(rng.randint(0, top) for _ in range(ring.nvars)))
    by_int = sorted(monos, key=order.key)
    by_tuple = sorted(monos, key=lambda m: _tuple_key(order, m))
    assert by_int == by_tuple
    for a, b in zip(monos, monos[1:]):
        assert order.key(tuple(x + y for x, y in zip(a, b))) == order.key(a) + order.key(b)
        assert (order.key(a) == order.key(b)) == (a == b)


def test_hilbert_function_matches_graded_rank(golden_tableau):
    # linear algebra (the pivots of the degree-d echelon, which is what
    # hilbert_function counts) against Buchberger (standard monomials of a
    # truncated basis): I_n(A') and I_{n+1}(A) of golden seed 0 over
    # GF(32003) and of k2_10_fixture over Q
    for T in (golden_tableau, k2_10_fixture(QQ)):
        for ideal in (
            fitting_ideal(Minors(erase_first_row(T), T.ring), T.n),
            fitting_ideal(Minors(T.full_matrix(), T.ring), T.n + 1),
        ):
            ring = ideal.ring
            for d in range(7):
                expected = groebner_standard_monomials(ideal, d)
                assert _standard_monomials(ideal, d) == expected, (ring.field.kind, d)
                assert hilbert_function(ideal, d) == len(expected), (ring.field.kind, d)


def test_fixed_degree_questions_make_no_groebner_call(golden_tableau, monkeypatch):
    # hilbert_function, the standard monomials and the point operators read
    # the ideal's echelons only
    calls = []

    def refuse(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return wrapper

    for name in ("groebner_basis", "_Packing", "_normal_form_terms"):
        monkeypatch.setattr(ideals, name, refuse(name))
    T = golden_tableau
    ideal = fitting_ideal(Minors(erase_first_row(T), T.ring), T.n)
    assert [hilbert_function(ideal, d) for d in range(4)] == [1, 5, 3, 3]
    source, target = _standard_monomials(ideal, 2), _standard_monomials(ideal, 3)
    op = _multiplication_operator(ideal, random_linear(T.ring, DetRng(5)), source, target)
    assert len(op) == len(target) and len(op[0]) == len(source)
    assert calls == []


@pytest.mark.parametrize("field", ["gf", "q"])
@pytest.mark.parametrize("seed", [0, 3])
def test_point_operators_match_groebner(field, seed):
    # the echelon point operators of the saturated degeneracy ideal equal the
    # ones that divide by the truncated Groebner basis, entry for entry
    F = GF(DEFAULT_PRIME) if field == "gf" else QQ
    T = realize(sample(seed, F))
    sat = saturate(fitting_ideal(Minors(erase_first_row(T), T.ring), T.n))
    rng = DetRng(100 + seed)
    for m in (1, 2):
        source, target = _standard_monomials(sat, m), _standard_monomials(sat, m + 1)
        assert source == groebner_standard_monomials(sat, m)
        assert target == groebner_standard_monomials(sat, m + 1)
        for _ in range(2):
            form = random_linear(T.ring, rng)
            op = _multiplication_operator(sat, form, source, target)
            assert op == groebner_multiplication_operator(sat, form, source, target), (m, form)
            assert all(type(c) is (int if field == "gf" else Fraction) for row in op for c in row)


@pytest.mark.parametrize("field", ["gf", "q"])
def test_echelon_reduce_is_normal_form(field, golden_tableau):
    # the residue of a coefficient vector against the degree-d echelon is the
    # coefficient vector of the grevlex normal form, inside the ideal (zero)
    # and outside it
    T = golden_tableau if field == "gf" else k2_10_fixture(QQ)
    ring = T.ring
    ideal = fitting_ideal(Minors(T.full_matrix(), ring), T.n + 1)
    rng = DetRng(17)
    top = max(g.degree() for g in ideal.generators)
    for d in (top, top + 1):
        inside = ring.zero()
        for g in ideal.generators:
            if g.degree() <= d:
                inside = inside + random_homogeneous(ring, rng, d - g.degree()) * g
        outside = inside + random_homogeneous(ring, rng, d)
        for f, member in ((inside, True), (outside, False)):
            nf = normal_form_poly(f, ideal)
            assert nf.is_zero() == member
            vec = graded_piece([f], d, ring, 0)[0]
            residue = ideal.piece(d).reduce(vec)
            assert list(residue) == list(graded_piece([nf], d, ring, 0)[0]), (d, member)
            assert ideal.piece(d).contains(vec) == member


def _digest(polys):
    return hashlib.sha256("\n".join(str(g) for g in polys).encode()).hexdigest()


def test_reduced_bases_pinned(golden_tableau):
    # printed reduced bases of golden seed 0's I_n(A'), pinned from the
    # tuple-keyed engine that the packed one replaced
    T = golden_tableau
    gens = fitting_ideal(Minors(erase_first_row(T), T.ring), T.n).generators
    pins = [
        (GREVLEX, "088cbddb3e03b377ad6fab9df1e7848eae704841747f75b96fb18f998fae0f34"),
        (grevlex_with_last(5, 2), "d3019262c2837f6be50715ae7af956fb1373afe5e9284be060367ad866a06a09"),
        (LEX, "f0e5a7d9459bbb6c23b9c63ff356666b666d0077b82b1505bdb7561bc8ee147c"),
    ]
    for order, digest in pins:
        assert _digest(groebner_basis(Ideal(T.ring, gens), order)) == digest
    sat = saturate(Ideal(T.ring, gens))
    assert _digest(groebner_basis(sat)) == (
        "6088ac2d7198c3b6e33cd740560b8ec48722c77666dbaf7e73bf88376a4939f0"
    )
