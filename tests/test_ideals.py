from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from symcanon import ideals
from symcanon.errors import BudgetExceededError, ContractError, DegreeOverflowError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import (
    GBConfig,
    Ideal,
    codimension,
    dimension,
    groebner_basis,
    hilbert_function,
    ideal_contains,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    ideal_quotient_by_ideal,
    irrelevant_ideal,
    is_radical_zerodim,
    multiplicity,
    normal_form_poly,
    point_count,
    saturate,
    zero_dim_analysis,
    _multiplication_operator,
    _standard_monomials,
)
from symcanon.orders import GREVLEX, LEX, elimination, grevlex_with_last
from symcanon.poly import EXPONENT_BOUND, PolyRing, graded_piece, parse_poly
from symcanon.paramgen import realize, sample
from symcanon.tableau import Minors, erase_first_row, fitting_ideal

from conftest import (
    groebner_multiplication_operator,
    groebner_standard_monomials,
    k2_10_fixture,
    random_homogeneous,
    random_linear,
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


def test_gb_budget_loud(R):
    small = GBConfig(degree_budget=1, pair_budget=10)
    ideal = I(R, "x0^2 - x1*x2", "x1^2 - x0*x3", "x2^2 - x3*x4")
    with pytest.raises(BudgetExceededError) as err:
        groebner_basis(ideal, config=small)
    assert "pair degree 4, 0 pairs processed, basis size 3" in str(err.value)
    with pytest.raises(BudgetExceededError) as err:
        groebner_basis(ideal, config=GBConfig(pair_budget=2))
    message = str(err.value)
    assert "pair budget 2" in message and "2 pairs processed" in message
    assert "pair degree" in message and "basis size" in message


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
    s = saturate(I(R2, "x^2*y", "x^3"), Ideal(R2, R2.gens()))
    assert ideal_equal(s, I(R2, "x^2"))


def test_saturation_idempotent_monotone(R):
    ideal = I(R, "x0^2*x4", "x1*x4^2", "x2^3")
    s = saturate(ideal)
    assert all(ideal_contains(s, g) for g in ideal.generators)
    assert ideal_equal(saturate(s), s)


def test_saturation_routes_agree(R):
    # irrelevant-ideal fast path vs the stabilized iterated quotient
    ideal = I(R, "x0^2*x4", "x0*x1", "x3^2*x4^2")
    fast = saturate(ideal)
    m = irrelevant_ideal(R)
    slow = ideal
    while True:
        nxt = ideal_quotient_by_ideal(slow, m)
        if ideal_equal(nxt, slow):
            break
        slow = nxt
    assert ideal_equal(fast, slow)


def test_saturation_no_op_when_locus_missed(R):
    # associated primes of these monomial fixtures avoid V(J)
    ideal = I(R, "x0^2", "x1*x2")
    j = I(R, "x3", "x4")
    assert ideal_equal(saturate(ideal, j), ideal)


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
    assert is_radical_zerodim(I(R, "x0", "x1", "x2", "x3"))
    fat = I(R, "x0^2", "x1", "x2", "x3")
    assert not is_radical_zerodim(fat)
    assert point_count(fat) == 1
    assert point_count(I(R, "x0", "x1", "x2", "x3")) == 1


def test_radical_contract_violations(R):
    with pytest.raises(ContractError):
        zero_dim_analysis(I(R, "x0", "x1"))  # positive-dimensional
    small = PolyRing(field=GF(3))
    fat = Ideal(small, [small.variable(0) ** 3] + [small.variable(i) for i in (1, 2, 3)])
    with pytest.raises(ContractError):
        zero_dim_analysis(fat)  # eliminant degree 3 over GF(3) is refused


def test_two_reduced_points_modp():
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    p1 = Ideal(ring, [ring.variable(i) for i in range(4)])
    x = ring.gens()
    p2 = Ideal(ring, [x[0] - x[4], x[1], x[2], x[3]])
    both = ideal_intersection(p1, p2)
    analysis = zero_dim_analysis(both)
    assert analysis.reduced and analysis.points == 2 and analysis.length == 2


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
    [(GREVLEX, _STANDARD), (LEX, _STANDARD), (elimination(1), _STANDARD.with_aux_variable())]
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
