from __future__ import annotations

import copy
import dataclasses
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from symcanon.canonical import (
    acyclicity_check,
    associativity_check,
    build_resolution,
    cokernel_graded_dim,
    conductor_ideal,
    generic_reflexivity_check,
    graded_dim,
    graded_membership,
    invariants,
    is_zero_in_cokernel,
    multiplication_table,
    ring_condition_check,
    shape_resolution,
    tables_agree,
    verify_instance,
)
from symcanon.errors import BudgetExceededError, ContractError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import (
    Ideal,
    codimension,
    dimension,
    ideal_equal,
    normal_form_poly,
    saturate,
    zero_dim_analysis,
)
from symcanon import canonical, ideals, linalg, poly, tableau
from symcanon.paramgen import realize, sample
from symcanon.poly import PolyRing, coprime_on_a_line, graded_basis, graded_piece, parse_poly
from symcanon.serialize import render_report, tableau_from_json, tableau_to_json
from symcanon.normalform import reduce_k11, verify_normal_shape
from symcanon.tableau import (
    Minors,
    SymmetricTableau,
    apply_op_word,
    check_symmetry,
    degeneracy_scheme,
    fitting_ideal,
    rows_move,
)

from conftest import (
    GOLDEN_SEEDS,
    Q_SEEDS,
    adjugate,
    coeff_matrix,
    cramer_solve,
    cramer_system,
    groebner_degeneracy_scheme,
    groebner_ring_condition,
    k2_10_fixture,
    matmul_poly,
    matrix_minor,
    random_linear,
    random_move_word,
)


def test_resolution_shapes_and_composite(golden_tableau):
    R = build_resolution(golden_tableau)
    assert len(R.first_map) == 3 and len(R.first_map[0]) == 6
    assert len(R.second_map) == 6 and len(R.second_map[0]) == 3
    assert R.shifts == ((0, 2, 2), (3, 3, 3, 3, 3, 3), (6, 4, 4))


def test_resolution_n1():
    T = k2_10_fixture(GF(DEFAULT_PRIME))
    R = build_resolution(T)
    assert len(R.first_map) == 2 and len(R.first_map[0]) == 4
    assert R.shifts == ((0, 2), (3, 3, 3, 3), (6, 4))


@pytest.mark.parametrize("n,k2", [(1, 10), (2, 11), (3, 12)])
def test_graded_dims_and_invariants(n, k2):
    ring = PolyRing(field=QQ)
    R = shape_resolution(ring, n)
    assert graded_dim(R, 0) == 1
    assert graded_dim(R, 1) == 5
    assert graded_dim(R, 2) == k2 + 6
    assert graded_dim(R, 3) == 3 * k2 + 6
    inv = invariants(R)
    assert (inv.p_g, inv.q, inv.K2, inv.chi) == (5, 0, k2, 6)
    assert inv.delta == {10: 1, 11: 3, 12: 6}[k2]


def test_euler_equals_cokernel_dimension(golden_tableau):
    R = build_resolution(golden_tableau)
    for m in range(6):
        assert graded_dim(R, m) == cokernel_graded_dim(golden_tableau, m)


def test_acyclicity_golden(golden_tableau):
    rep = acyclicity_check(build_resolution(golden_tableau))
    assert rep.passed
    assert rep.codim == 2
    assert rep.rank_ok


def _alpha_is_beta(T):
    # alpha = beta keeps the symmetry; I_{n+1}(A) is principal
    return SymmetricTableau(T.ring, T.alpha, [row[:] for row in T.alpha])


def _symmetry_broken(T):
    # a block edited after construction: no longer symmetric
    T = copy.deepcopy(T)
    T.alpha[1][1] = T.alpha[1][1] + T.ring.gens()[0]
    return T


def test_acyclicity_honours_the_groebner_budget(golden_tableau, monkeypatch):
    # the certificate runs no Buchberger; the codimension run of the
    # fallback reads the module budget.  The alpha = beta mutant takes the
    # fallback too, but its I_3(A) is principal (every nonzero maximal minor
    # is +-det alpha), so its run forms no S-pair and meets no budget
    monkeypatch.setattr(ideals, "DEGREE_BUDGET", 2)
    assert acyclicity_check(build_resolution(golden_tableau), symmetric=True).passed
    assert acyclicity_check(build_resolution(_alpha_is_beta(golden_tableau)), symmetric=True).codim == 1
    with pytest.raises(BudgetExceededError):
        acyclicity_check(build_resolution(_symmetry_broken(golden_tableau)), symmetric=False)


def _pool_tableau(golden_tableaux, case):
    kind, _, seed = case.partition("-")
    if kind == "gf":
        return golden_tableaux[GOLDEN_SEEDS.index(int(seed))]
    if kind == "q":
        return realize(sample(int(seed), QQ))
    if kind == "k2_10":
        return k2_10_fixture(GF(DEFAULT_PRIME) if seed == "gf" else QQ)
    return _alpha_is_beta(golden_tableaux[0])


@pytest.mark.parametrize(
    "case",
    [f"gf-{s}" for s in GOLDEN_SEEDS] + [f"q-{s}" for s in Q_SEEDS] + ["k2_10-gf", "k2_10-q", "alpha_is_beta"],
)
def test_grade_certificate_agrees_with_codimension(golden_tableaux, case):
    # the line certificate against Buchberger's codimension of the
    # built I_{n+1}(A), on every verify pool input, the K2 = 10 fixture over
    # both fields and the alpha = beta mutant
    T = _pool_tableau(golden_tableaux, case)
    R = build_resolution(T)
    codim = codimension(fitting_ideal(Minors(T.full_matrix(), T.ring), T.n + 1))
    line = coprime_on_a_line(T.full_matrix(), T.ring)
    rep = acyclicity_check(R, symmetric=True)
    assert (rep.rank_ok, rep.codim) == (True, codim)
    if case == "alpha_is_beta":
        assert line is None and codim == 1
    else:
        assert line is not None and codim == 2


def test_grade_certificate_needs_the_symmetry_verdict(golden_tableau):
    # without symmetry a certified grade does not make the codimension 2:
    # this tableau's minors are coprime on a line, and the codimension is 3,
    # from Buchberger
    T = _symmetry_broken(golden_tableau)
    assert not check_symmetry(T.alpha, T.beta, T.ring)[0]
    assert coprime_on_a_line(T.full_matrix(), T.ring) is not None
    rep = acyclicity_check(build_resolution(T))
    assert (rep.rank_ok, rep.codim) == (True, 3)
    assert verify_instance(T).checks["acyclicity"].detail == "codim I_3(A) = 3, second map 3"


def test_acyclicity_alpha_equals_beta_fails(golden_tableau):
    # alpha = beta keeps the symmetry but collapses I_3(A) to a principal
    # ideal: the grade condition fails with the codimension certificate
    T = golden_tableau
    mutated = SymmetricTableau(T.ring, T.alpha, [row[:] for row in T.alpha])
    rep = acyclicity_check(build_resolution(mutated))
    assert not rep.passed
    assert rep.codim == 1


def _minors_up_to_sign(M, k, ring):
    return Counter(frozenset((g, -g)) for g in fitting_ideal(Minors(M, ring), k).generators)


def _raw_pair(ring, seed, size=3):
    # alpha and beta of linear forms with no symmetry, outside the constructor
    rng = DetRng(seed)
    alpha, beta = ([[random_linear(ring, rng) for _ in range(size)] for _ in range(size)] for _ in range(2))
    table = Minors([a + b for a, b in zip(alpha, beta)], ring)
    return SimpleNamespace(ring=ring, n=size - 1, alpha=alpha, beta=beta, minors=lambda: table)


@pytest.mark.parametrize("case", ["golden", "k2_10_q", "raw_pair"])
def test_second_map_has_the_maximal_minors_of_the_first(golden_tableau, case):
    # row i of (-beta^t / alpha^t) is a column of A transposed, up to sign,
    # for every alpha and beta: the ground of the one-ideal acyclicity check
    if case == "golden":
        T = golden_tableau
    elif case == "k2_10_q":
        T = k2_10_fixture(QQ)
    else:
        T = _raw_pair(PolyRing(field=GF(DEFAULT_PRIME)), 17)
        assert not check_symmetry(T.alpha, T.beta, T.ring)[0]
    R = build_resolution(T)
    k = R.n + 1
    assert _minors_up_to_sign(R.second_map, k, R.ring) == _minors_up_to_sign(R.first_map, k, R.ring)


def _own_fitting_report(R):
    # each map's own Fitting ideal and its codimension, without the
    # shared-ideal argument acyclicity_check rests on
    out = []
    for M in (R.first_map, R.second_map):
        ideal = fitting_ideal(Minors(M, R.ring), R.n + 1)
        ok = any(not g.is_zero() for g in ideal.generators)
        out.append((ok, codimension(ideal) if ok else 0))
    return out


@pytest.mark.parametrize("case", ["seed0", "seed1", "seed2", "alpha_is_beta", "k2_10"])
def test_acyclicity_matches_each_maps_own_fitting_ideal(golden_tableaux, case):
    if case.startswith("seed"):
        T = golden_tableaux[int(case[-1])]
    elif case == "alpha_is_beta":
        G = golden_tableaux[0]
        T = SymmetricTableau(G.ring, G.alpha, [row[:] for row in G.alpha])
    else:
        T = k2_10_fixture(GF(DEFAULT_PRIME))
    R = build_resolution(T)
    rep = acyclicity_check(R)
    (ok1, codim1), (ok2, codim2) = _own_fitting_report(R)
    assert (rep.rank_ok, rep.codim) == (ok1, codim1)
    assert (rep.rank_ok, rep.codim) == (ok2, codim2)
    if case == "alpha_is_beta":
        assert codim1 == 1
    else:
        assert codim1 == 2


def test_verify_builds_no_surface_fitting_ideal(Fp, monkeypatch):
    # a freshly realized tableau, as a session fixture may hold a filled
    # table: the grade of I_{n+1}(A) is certified on a line, so a passing
    # verify builds none of its minors; each other minor is expanded once,
    # at most 98 polynomial products (308 with I_{n+1}(A) built, 368 when
    # each check formed its own minors)
    T = realize(sample(GOLDEN_SEEDS[0], Fp))
    sizes, keys, products = [], [], []
    build = canonical.fitting_ideal
    expand = tableau.Minors._expand
    multiply = poly.Polynomial.__mul__

    def counted(minors, k, rows=None):
        sizes.append(k)
        return build(minors, k, rows)

    def counted_expand(table, rows, cols):
        keys.append((rows, cols))
        return expand(table, rows, cols)

    def counted_mul(f, g):
        products.append(1)
        return multiply(f, g)

    monkeypatch.setattr(canonical, "fitting_ideal", counted)
    monkeypatch.setattr(tableau.Minors, "_expand", counted_expand)
    monkeypatch.setattr(poly.Polynomial, "__mul__", counted_mul)
    assert verify_instance(T).overall
    assert sizes.count(T.n + 1) == 0
    assert keys and len(keys) == len(set(keys))
    assert all(len(rows) <= T.n for rows, _ in keys)
    assert len(products) <= 98


def test_verify_checks_the_symmetry_once_per_tableau(golden_tableau, monkeypatch):
    # the constructor's verdict serves verify; an edit in place is judged
    # afresh, and only once
    calls = []
    check = tableau.check_symmetry

    def counted(alpha, beta, ring):
        calls.append(1)
        return check(alpha, beta, ring)

    monkeypatch.setattr(tableau, "check_symmetry", counted)
    T = tableau_from_json(tableau_to_json(golden_tableau))
    assert verify_instance(T).checks["symmetry"].status == "pass"
    assert len(calls) == 1
    T.beta[2][0] = T.beta[2][0] + T.ring.gens()[1]
    assert T.symmetry() == T.symmetry() == check(T.alpha, T.beta, T.ring)
    assert not T.symmetry()[0] and len(calls) == 2


def test_verify_reports_a_tableau_edited_after_construction(golden_tableau):
    # blocks changed after construction break the symmetry: verify reports
    # it as a failed check and does not raise
    T = copy.deepcopy(golden_tableau)
    T.alpha[1][1] = T.alpha[1][1] + T.ring.gens()[0]
    text = render_report(verify_instance(T), "text")
    assert "symmetry: FAIL (fails at (1, 2))" in text.splitlines()
    assert text.splitlines()[-1].startswith("OVERALL: FAIL")


def test_ring_condition_k11(golden_tableau):
    rc = ring_condition_check(golden_tableau)
    assert rc.passed
    assert rc.saturated_equal is True
    assert rc.unsaturated_equal is True  # Prop 2.2 unsaturated identity


def test_ring_condition_k10():
    T = k2_10_fixture(GF(DEFAULT_PRIME))
    rc = ring_condition_check(T)
    assert rc.passed and rc.saturated_equal is True
    assert rc.unsaturated_equal is None  # reported only for n = 2


def test_ring_condition_skipped_reason(golden_tableau):
    ring = golden_tableau.ring
    rng = DetRng(3)
    zero = ring.zero()
    a2, a3, b2, b3 = (random_linear(ring, rng) for _ in range(4))
    alpha = [[zero] * 3, [zero, a2, a3], [zero, a2, a3]]
    beta = [[zero] * 3, [zero, b2, b3], [zero, b2, b3]]
    degenerate = SymmetricTableau(ring, alpha, beta)
    rc = ring_condition_check(degenerate)
    assert rc.status == "skipped" and "finite" in rc.reason


def test_ring_condition_invariant_under_moves(golden_tableau):
    from conftest import random_move_word
    from symcanon.tableau import apply_op_word

    rng = DetRng(61)
    moved = apply_op_word(golden_tableau, random_move_word(rng, 10, 3, golden_tableau.ring.field))
    rc1 = ring_condition_check(golden_tableau)
    rc2 = ring_condition_check(moved)
    assert rc1.passed and rc2.passed
    assert ideal_equal(rc1.sat_aprime, rc2.sat_aprime)


def _ring_condition_by_saturation(T):
    """The saturated equality decided the earlier way: saturate I_n(A) and
    compare it with the scheme's ideal."""
    scheme = degeneracy_scheme(T)
    return ideal_equal(scheme.ideal, saturate(fitting_ideal(T.minors(), T.n)))


def _perturbed(T):
    # a cubic added to the first row changes I_n(A) but not I_n(A')
    T = copy.deepcopy(T)
    T.alpha[0][0] = T.alpha[0][0] + T.ring.variable(4) ** 3
    return T


def test_saturated_equal_matches_saturating_both(golden_tableaux):
    T10 = k2_10_fixture(GF(DEFAULT_PRIME))
    verdicts = []
    for T in golden_tableaux + [T10, _perturbed(golden_tableaux[0])]:
        rc = ring_condition_check(T)
        assert rc.saturated_equal is _ring_condition_by_saturation(T)
        verdicts.append(rc.saturated_equal)
    assert verdicts == [True] * (len(golden_tableaux) + 1) + [False]


def _gf5_reduce_input():
    # the scrambled input of test_reduce_k11_over_gf5
    field = GF(5)
    word = [rows_move([[1, 0, 0], [0, 1, 2], [0, 1, 1]])] + random_move_word(DetRng(1700), 20, 3, field)
    return apply_op_word(realize(sample(0, field)), word)


def _certified(scheme):
    """Whether the scheme's point algebra was read from I_n(A') itself."""
    return scheme.algebra is not None and scheme.algebra.ideal is scheme.fitting


LARGEST_PRIME = 3037000493
ROUTE_CASES = [f"gf-{s}" for s in GOLDEN_SEEDS] + [
    "k2_10-gf",
    "gf7-4",
    "gf7-11",
    "gfmax-0",
    "gf5-reduce",
    "alpha_is_beta",
    "perturbed",
] + [f"q-{s}" for s in Q_SEEDS] + ["k2_10-q", "alpha_is_beta-q", "perturbed-q"]


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_certified_route_matches_the_groebner_route(golden_tableaux, case):
    # the degeneracy scheme and the ring condition against the saturating
    # route kept in conftest, over GF(p) and over Q.  Every input but the
    # alpha = beta mutants is certified n-regular; the perturbed ones fail
    # the ring condition.  "-q" marks a mutant of golden Q seed 0
    kind, _, arg = case.partition("-")
    base = realize(sample(0, QQ)) if arg == "q" else golden_tableaux[0]
    if kind == "gf7":
        T = realize(sample(int(arg), GF(7)))
    elif kind == "gfmax":
        # the largest admitted prime: (p - 1)^2 just below 2^63, so every
        # product of residues is reduced before a second one is added
        T = realize(sample(int(arg), GF(LARGEST_PRIME)))
    elif kind == "gf5":
        T = _gf5_reduce_input()
    elif kind == "perturbed":
        T = _perturbed(base)
    elif kind == "alpha_is_beta":
        T = _alpha_is_beta(base)
    else:
        T = _pool_tableau(golden_tableaux, case)
    scheme = degeneracy_scheme(T)
    rc = ring_condition_check(T, scheme=scheme)
    assert (scheme.finite, scheme.reduced, scheme.points, scheme.length) == groebner_degeneracy_scheme(T)
    assert (rc.status, rc.reason, rc.saturated_equal, rc.unsaturated_equal) == groebner_ring_condition(T)
    assert _certified(scheme) == (kind != "alpha_is_beta")
    assert rc.passed == (kind not in ("alpha_is_beta", "perturbed"))


def test_gf_verify_and_reduce_run_no_buchberger(golden_tableaux, monkeypatch):
    # a passing verify op, over GF(p) or over Q, and a reduce_k11 op are
    # answered by linear algebra; the alpha = beta mutant is refused the
    # certificate and takes the Groebner route over both fields
    calls = []
    run = ideals._buchberger

    def counted(*args, **kwargs):
        calls.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(ideals, "_buchberger", counted)
    for T in golden_tableaux:
        assert verify_instance(T).overall
    T = golden_tableaux[0]
    scrambled = apply_op_word(T, random_move_word(DetRng(1700), 20, 3, T.ring.field))
    assert verify_normal_shape(reduce_k11(scrambled).tableau).ok
    golden_q = [realize(sample(s, QQ)) for s in Q_SEEDS]
    for Tq in golden_q:
        assert verify_instance(Tq).overall
    assert calls == []
    for base in (T, golden_q[0]):
        assert not verify_instance(_alpha_is_beta(base)).overall
        assert calls
        calls.clear()


def test_k2_10_answers_agree_over_q_and_gf():
    # the same small-integer data: both fields take the certified route,
    # and every answer agrees
    answers, routes = [], []
    for field in (QQ, GF(DEFAULT_PRIME)):
        T = k2_10_fixture(field)
        scheme = degeneracy_scheme(T)
        rc = ring_condition_check(T, scheme=scheme)
        answers.append(
            (
                (scheme.finite, scheme.reduced, scheme.points, scheme.length),
                (rc.status, rc.reason, rc.saturated_equal, rc.unsaturated_equal),
                verify_instance(T).to_json(),
            )
        )
        routes.append(_certified(scheme))
    assert answers[0] == answers[1]
    assert routes == [True, True]


def test_conductor(golden_tableau):
    cond = conductor_ideal(golden_tableau)
    assert codimension(cond) == 4
    assert zero_dim_analysis(cond).points == 3


def test_conductor_k10():
    T = k2_10_fixture(GF(DEFAULT_PRIME))
    cond = conductor_ideal(T)
    assert zero_dim_analysis(cond).points == 1


def test_conductor_requires_ring_condition(golden_tableau):
    from symcanon.canonical import RingConditionReport

    failed = RingConditionReport("skipped", "degeneracy scheme not finite", None, None, None)
    with pytest.raises(ContractError):
        conductor_ideal(golden_tableau, report=failed)


def test_multiplication_table(golden_tableau):
    table = multiplication_table(golden_tableau)
    n = table.n
    # unit laws by construction
    c0, cs = table.expansion(0, 1)
    assert c0.is_zero() and [str(c) for c in cs] == ["1", "0"]
    # commutativity through the shared (i, j) storage
    assert table.expansion(1, 2) == table.expansion(2, 1)
    # associativity for all triples
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert associativity_check(table, i, j, k)


def test_associativity_fails_on_perturbed_table(golden_tableau):
    # x0^4 added to c0 of v_1 v_2: a triple with i = k compares a product
    # with itself and passes, each of the other four must catch it
    table = multiplication_table(golden_tableau)
    c0, cs = table.entries[(1, 2)]
    x0 = golden_tableau.ring.variable(0)
    bad = dataclasses.replace(table, entries={**table.entries, (1, 2): (c0 + x0**4, cs)})
    triples = [(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)]
    failing = [t for t in triples if not associativity_check(bad, *t)]
    assert failing == [(1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 2, 1)]
    assert all(associativity_check(table, *t) for t in triples)


def test_multiplication_table_n1():
    T = k2_10_fixture(GF(DEFAULT_PRIME))
    table = multiplication_table(T)
    assert table.n == 1
    assert associativity_check(table, 1, 1, 1)
    c0, cs = table.expansion(0, 1)
    assert c0.is_zero() and str(cs[0]) == "1"


def test_multiplication_table_choice_independence(golden_tableau):
    t1 = multiplication_table(golden_tableau)
    # second valid column subset
    from itertools import combinations

    alt = None
    for cols in combinations(range(6), 2):
        if cols == t1.columns:
            continue
        try:
            alt = multiplication_table(golden_tableau, columns=cols)
            break
        except ContractError:
            continue
    assert alt is not None
    assert tables_agree(t1, alt)


@pytest.fixture(scope="module")
def cramer_tables(golden_tableaux):
    cases = [(f"gf-{s}", T) for s, T in zip(GOLDEN_SEEDS, golden_tableaux)]
    cases += [(f"k2_10-{F.kind}-{F.p}", k2_10_fixture(F)) for F in (GF(DEFAULT_PRIME), GF(3037000493), QQ)]
    return [(name, multiplication_table(T)) for name, T in cases]


def test_cramer_solve_matches_the_full_system(cramer_tables):
    # the table's system takes only the independent rows of the ideal's
    # piece, the earlier one took all of them: the c0/c_k part of every
    # solution, the first inconsistent right-hand side and the table's
    # entries must agree.  A random right-hand side, last, is inconsistent
    gen = np.random.default_rng(22)
    for name, table in cramer_tables:
        ring = table.denominator.ring
        field = ring.field
        rows, ideal_rows, rhss = cramer_system(table)
        if field.kind == "prime_field":
            noise = gen.integers(0, field.p, size=rhss.shape[1])
        else:
            noise = np.array([Fraction(int(x)) for x in gen.integers(-3, 4, size=rhss.shape[1])], dtype=object)
        system = [*rhss, noise]
        want = cramer_solve(rows, ideal_rows, system, field)
        assert want[1] == len(rhss), name
        independent = table.surface_ideal.piece(2 * table.n + 4).independent
        assert len(independent) < len(ideal_rows), name
        assert cramer_solve(rows, independent, system, field) == want, name
        if name == "gf-0":
            middle = [rhss[0], noise, *rhss[1:]]
            got = cramer_solve(rows, independent, middle, field)
            assert got == cramer_solve(rows, ideal_rows, middle, field) == (want[0][:1], 1)
        pairs = [(i, j) for i in range(1, table.n + 1) for j in range(i, table.n + 1)]
        entries = [
            np.concatenate([graded_piece([c0], 4, ring, 0)[0]] + [graded_piece([c], 2, ring, 0)[0] for c in cs]).tolist()
            for c0, cs in (table.entries[key] for key in pairs)
        ]
        assert entries == want[0], name


@pytest.mark.parametrize("case", ["seed0", "seed3", "k2_10_gf"])
def test_cramer_numerators_match_the_adjugate(golden_tableaux, case):
    # D and N_k read from the minor table against det(M') and the product of
    # the first row with the adjugate of M'
    if case.startswith("seed"):
        T = golden_tableaux[GOLDEN_SEEDS.index(int(case[-1]))]
    else:
        T = k2_10_fixture(GF(DEFAULT_PRIME))
    ring, n = T.ring, T.n
    table = multiplication_table(T)
    full = T.full_matrix()
    mprime = [[full[i][c] for c in table.columns] for i in range(1, n + 1)]
    D = matrix_minor(mprime, tuple(range(n)), tuple(range(n)), ring)
    m_row = [full[0][c] for c in table.columns]
    N = [-s for s in matmul_poly([m_row], adjugate(mprime, ring), ring)[0]]
    assert table.denominator == D
    assert table.numerators == [D] + N


@pytest.mark.parametrize("columns", [(-1, 0), (0,), (7, 0), (0, 1, 2), (1, 1)])
def test_multiplication_table_refuses_a_bad_column_selection(golden_tableau, columns):
    with pytest.raises(ContractError, match=re.escape(str(list(columns)))):
        multiplication_table(golden_tableau, columns=columns)


def test_multiplication_table_groebner_cross_check(golden_tableau):
    # one identity re-verified through the Groebner route instead of the
    # graded span
    table = multiplication_table(golden_tableau)
    (c0, cs) = table.expansion(1, 1)
    D = table.denominator
    lhs = table.numerators[1] * table.numerators[1]
    rhs = c0 * D * D
    for k, c in enumerate(cs):
        rhs = rhs + c * table.numerators[k + 1] * D
    residue = lhs - rhs
    assert normal_form_poly(residue, table.surface_ideal).is_zero()


def _span_solve_membership(f, gens, ring):
    """The earlier membership route, kept as the oracle: solve for f over
    the products g * x^m, formed by polynomial multiplication."""
    d = f.homogeneous_degree()
    products = [
        g * ring.monomial(m)
        for g in gens
        if not g.is_zero() and g.degree() <= d
        for m in graded_basis(ring, d - g.degree())
    ]
    span, _ = coeff_matrix(products, d, ring)
    vec = coeff_matrix([f], d, ring)[0][0]
    return linalg.solve_particular(linalg.transpose(span), vec, ring.field) is not None


@pytest.mark.parametrize("case", ["golden", "k2_10_q", "k2_10_largest_prime"])
def test_echelon_membership_matches_span_solve(case, request):
    if case == "golden":
        T = request.getfixturevalue("golden_tableau")
    else:
        T = k2_10_fixture(QQ if case == "k2_10_q" else GF(3037000493))
    table = multiplication_table(T)
    ring, ideal = T.ring, table.surface_ideal
    gens = ideal.generators
    D, N = table.denominator, table.numerators
    residues = [
        N[i] * N[j] - table.combination_residue(*table.entries[(i, j)]) * D
        for (i, j) in table.entries
        if i > 0
    ]
    assert residues and all(not r.is_zero() for r in residues)
    x0_top = ring.variable(0) ** (2 * table.n + 4)
    for r in residues:
        assert graded_membership(r, ideal)
        assert _span_solve_membership(r, gens, ring)
        outside = r + x0_top
        assert not graded_membership(outside, ideal)
        assert not _span_solve_membership(outside, gens, ring)
    # the column choice asked about degree n, the products about 2n + 4
    assert list(ideal._pieces) == [table.n, 2 * table.n + 4]

    # residue vectors equal the coefficients of the polynomial residues
    n = table.n
    for c0, cs in table.entries.values():
        residue = table.combination_residue(c0, cs)
        d, vec = table.residue_vector(c0, cs, 0)
        assert d == residue.homogeneous_degree()
        assert list(vec) == list(graded_piece([residue], d, ring, 0)[0])
        # times v_k: the residue of the product expanded through the table
        # by polynomials, (e0, e_1..e_n) = c0 v_k + sum_l c_l (v_l v_k)
        for k in range(1, n + 1):
            terms = [(c0, (ring.zero(), [ring.one() if m == k else ring.zero() for m in range(1, n + 1)]))]
            terms += [(c, table.expansion(l, k)) for l, c in enumerate(cs, 1)]
            e0 = sum((c * t0 for c, (t0, _) in terms), ring.zero())
            es = [sum((c * ts[m] for c, (_, ts) in terms), ring.zero()) for m in range(n)]
            product = table.combination_residue(e0, es)
            d, vec = table.residue_vector(c0, cs, k)
            assert d == product.homogeneous_degree()
            assert list(vec) == list(graded_piece([product], d, ring, 0)[0])
    zero = ring.zero()
    # the residue of 1 is D = det(M'), which the column choice put outside
    assert not is_zero_in_cokernel(table, ring.one(), [zero] * n)
    # a multiple of a generator of I_{n+1}(A) represents 0, so does 0
    assert is_zero_in_cokernel(table, gens[0], [zero] * n)
    for c0, cs in table.entries.values():
        assert is_zero_in_cokernel(table, c0 - c0, [c - c for c in cs])
    assert associativity_check(table, 1, 1, 1)
    with pytest.raises(ContractError):
        is_zero_in_cokernel(table, ring.one(), [ring.one()] * n)  # degrees n and n + 2


def test_multiply_op_makes_two_eliminations(golden_tableau, monkeypatch):
    # the tracer counts linalg._np_rref by wrapping the module attribute; a
    # multiply op must reach it twice (the piece's echelon, then the solve),
    # not once per panel of the blocked kernel.  The solve's columns are
    # the c0 and c_k unknowns, the piece's independent rows (as many as
    # its rank) and one right-hand side per product v_i v_j, i <= j
    calls = []
    kernel = linalg._np_rref

    def counted(a, p):
        calls.append(a.shape)
        return kernel(a, p)

    monkeypatch.setattr(linalg, "_np_rref", counted)
    table = multiplication_table(golden_tableau)
    n = table.n
    assert all(
        associativity_check(table, i, j, k)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    )
    ring = golden_tableau.ring
    piece = graded_piece(table.surface_ideal.generators, 2 * n + 4, ring)
    unknowns = len(graded_basis(ring, 4)) + n * len(graded_basis(ring, 2))
    rank = len(table.surface_ideal.piece(2 * n + 4).pivots)
    assert len(calls) == 2
    assert calls[0] == piece.shape
    assert calls[1] == (len(graded_basis(ring, 2 * n + 4)), unknowns + rank + n * (n + 1) // 2)


def test_reflexivity_composite_and_exactness():
    assert generic_reflexivity_check(p=DEFAULT_PRIME, degree_bound=2)


def test_reflexivity_negative_control():
    assert not generic_reflexivity_check(p=DEFAULT_PRIME, degree_bound=1, flip_sign=True)


def test_reflexivity_specialization(golden_tableau):
    # substitute the golden instance's own cubics for the indeterminates;
    # the composite-zero part must survive specialization
    T = golden_tableau
    # build X_i -> A_i, Y_i -> B_i from the local normal form is not
    # available globally; instead specialize to generic cubics and record
    rng = DetRng(13)
    ring = T.ring
    from symcanon.poly import graded_basis

    def cubic():
        return ring.from_terms({m: rng.scalar(ring.field) for m in graded_basis(ring, 3)})

    forms_x = [cubic() for _ in range(4)]
    forms_y = [cubic() for _ in range(4)]
    result = generic_reflexivity_check(
        p=DEFAULT_PRIME, degree_bound=0, specialization=(forms_x, forms_y)
    )
    assert isinstance(result, bool)


def test_verify_instance_golden(golden_tableau):
    rep = verify_instance(golden_tableau)
    assert rep.overall
    assert rep.assumed_count == 2
    assert rep.checks["ring_condition"].status == "pass"


def test_verify_instance_zero_tableau_fails():
    ring = PolyRing(field=GF(DEFAULT_PRIME))
    zero = ring.zero()
    alpha = [[zero] * 3 for _ in range(3)]
    beta = [[zero] * 3 for _ in range(3)]
    T = SymmetricTableau(ring, alpha, beta)
    rep = verify_instance(T)
    assert not rep.overall
    assert rep.checks["acyclicity"].status == "fail"


def test_verify_instance_field_independent():
    # same small-integer data over GF(p) and over Q gives the same report
    Tq = k2_10_fixture(QQ, seed=4)
    Tp = k2_10_fixture(GF(DEFAULT_PRIME), seed=4)
    rq = verify_instance(Tq)
    rp = verify_instance(Tp)
    assert {k: v.status for k, v in rq.checks.items()} == {
        k: v.status for k, v in rp.checks.items()
    }
