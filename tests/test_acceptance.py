"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is exact (these are combinatorial identities and
ideal-theoretic equalities, not approximations); the time budgets are the
stated ones.
"""

from __future__ import annotations

import time
from itertools import combinations

import pytest

from symcanon import linalg
from symcanon.basechange import SquareSymmetricPair, make_koszul_type
from symcanon.canonical import (
    acyclicity_check,
    associativity_check,
    build_resolution,
    generic_reflexivity_check,
    graded_dim,
    invariants,
    multiplication_table,
    ring_condition_check,
    shape_resolution,
    tables_agree,
)
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import Ideal, dimension, ideal_equal, multiplicity, zero_dim_analysis
from symcanon.koszul import RegularSequence, _skew_from_upper, ambiguity_dim, solve_skew
from symcanon.normalform import reduce_k11, scalar_orbit_reduce, verify_normal_shape
from symcanon.paramgen import ledger, quadric_jacobian_check, realize, sample
from symcanon.poly import PolyRing, graded_basis
from symcanon.tableau import ScalarTableau, SymmetricTableau, apply_op_word, degeneracy_scheme

from conftest import GOLDEN_SEEDS, k2_10_fixture, random_homogeneous, random_linear, random_move_word

FIELD = GF(DEFAULT_PRIME)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.name}] {status} ({self.elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert self.elapsed < self.seconds, f"{self.name} exceeded its time budget"
        return False


def test_criterion_01_koszul_ambiguity_dimensions():
    with Budget("criterion 01: Koszul ambiguity 19 and 10", 5):
        ring = PolyRing(field=FIELD)
        x = ring.gens()
        assert ambiguity_dim(RegularSequence.verify(x[:4]), 4) == 19
        assert ambiguity_dim(RegularSequence.verify(x[:5]), 3) == 10
        rng = DetRng(1)
        forms = [random_linear(ring, rng) for _ in range(4)]
        assert ambiguity_dim(RegularSequence.verify(forms), 4) == 19


def test_criterion_02_moduli_ledger():
    with Budget("criterion 02: moduli ledger 161 -> 38", 10):
        led = ledger()
        assert led.quadric_witness_ambiguities == (19, 19)
        assert led.linear_witness_ambiguities == (10, 10)
        assert (led.dim_G, led.dim_H, led.dim_L) == (24, 32, 9)
        assert led.result == 38


def test_criterion_03_hilbert_invariants():
    with Budget("criterion 03: Hilbert dimensions for n = 1, 2, 3", 1):
        ring = PolyRing(field=QQ)
        for n in (1, 2, 3):
            K2 = n + 9
            R = shape_resolution(ring, n)
            assert graded_dim(R, 1) == 5
            assert graded_dim(R, 2) == K2 + 6
            assert graded_dim(R, 3) == 3 * K2 + 6


def test_criterion_04_severi_counts(golden_tableaux):
    with Budget("criterion 04: Severi delta and 3 reduced points", 120):
        ring = PolyRing(field=QQ)
        for n, delta in ((1, 1), (2, 3), (3, 6)):
            assert invariants(shape_resolution(ring, n)).delta == delta
        for T in golden_tableaux[:3]:
            scheme = degeneracy_scheme(T)
            assert scheme.finite and scheme.reduced and scheme.points == 3


def test_criterion_05_ring_condition(golden_tableaux):
    with Budget("criterion 05: ring condition on 5 golden seeds + K2=10", 5 * 60 * 6):
        assert len(golden_tableaux) >= 5
        for T in golden_tableaux[:5]:
            start = time.time()
            rc = ring_condition_check(T)
            assert rc.passed and rc.saturated_equal and rc.unsaturated_equal
            assert time.time() - start < 300  # < 5 min per instance
        rc10 = ring_condition_check(k2_10_fixture(FIELD))
        assert rc10.passed and rc10.saturated_equal


def test_criterion_06_acyclicity(golden_tableaux):
    with Budget("criterion 06: Eisenbud-Buchsbaum acyclicity", 120):
        for T in golden_tableaux[:3]:
            rep = acyclicity_check(build_resolution(T))
            assert rep.passed and rep.codim == 2
        T = golden_tableaux[0]
        mutated = SymmetricTableau(T.ring, T.alpha, [row[:] for row in T.alpha])
        rep = acyclicity_check(build_resolution(mutated))
        assert not rep.passed
        assert rep.codim == 1  # the certificate: grade collapses to 1


def test_criterion_07_porteous_degree():
    with Budget("criterion 07: Porteous degree 5", 60):
        ring = PolyRing(field=FIELD)
        rng = DetRng(42)
        rows = [[random_linear(ring, rng) for _ in range(5)] for _ in range(2)]
        minors = [
            rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
            for i, j in combinations(range(5), 2)
        ]
        ideal = Ideal(ring, minors)
        assert dimension(ideal) == 1  # projective dimension 0
        assert multiplicity(ideal) == 5


def test_criterion_08_normal_form_round_trip(golden_tableau):
    with Budget("criterion 08: 25 (Op)-scramble reductions", 180):
        rng = DetRng(2024)
        T = golden_tableau
        base_ideal = degeneracy_scheme(T).ideal
        for trial in range(25):
            word = random_move_word(rng, rng.randint(5, 30), 3, T.ring.field)
            scrambled = apply_op_word(T, word)
            nf = reduce_k11(scrambled)
            assert verify_normal_shape(nf.tableau).ok
            assert ideal_equal(degeneracy_scheme(nf.tableau).ideal, base_ideal)


def test_criterion_09_orbit_classification():
    with Budget("criterion 09: orbit classification", 60):
        from itertools import product

        ring3 = PolyRing(field=GF(3))
        for vals in product(range(3), repeat=4):
            M = ScalarTableau(ring3, [[vals[0], vals[1]]], [[vals[2], vals[3]]])
            red = scalar_orbit_reduce(M)
            replay = linalg.matmul(
                linalg.matmul(red.left, M.full_matrix(), GF(3)), red.right, GF(3)
            )
            assert replay == red.canonical.full_matrix()
        for n in (1, 2, 3):
            ring = PolyRing(field=FIELD)
            rng = DetRng(300 + n)
            width = n + 1
            a = [[rng.scalar(FIELD) for _ in range(width)] for _ in range(n)]
            b = [[FIELD.zero()] * width for _ in range(n)]
            M = ScalarTableau(ring, a, b)
            base = scalar_orbit_reduce(M).cls.k
            current = M
            for _ in range(100):
                current = current.apply_column_move(random_move_word(rng, 1, width, FIELD)[0])
            assert scalar_orbit_reduce(current).cls.k == base


def test_criterion_10_skew_solver_soundness():
    with Budget("criterion 10: 100 skew solves", 60):
        ring = PolyRing(field=FIELD)
        rng = DetRng(10)
        x = ring.gens()
        seq = RegularSequence.verify(x[:4])
        amb = ambiguity_dim(seq, 4)
        assert amb == 19
        for trial in range(100):
            upper = [random_homogeneous(ring, rng, 2) for _ in range(6)]
            S0 = _skew_from_upper(ring, 4, upper)
            W = S0.apply(list(seq.forms))
            S1 = solve_skew(W, seq)
            assert S1.apply(list(seq.forms)) == W
            for i in range(4):
                for j in range(4):
                    assert S1.entries[i][j] == -S1.entries[j][i]
            # difference annihilates v, i.e. lies in the 19-dim kernel space
            resid = [
                sum(
                    ((S0.entries[i][j] - S1.entries[i][j]) * seq.forms[j] for j in range(4)),
                    ring.zero(),
                )
                for i in range(4)
            ]
            assert all(r.is_zero() for r in resid)


def test_criterion_11_generic_reflexivity():
    with Budget("criterion 11: generic reflexivity, D = 3", 300):
        assert generic_reflexivity_check(p=DEFAULT_PRIME, degree_bound=3)
        assert not generic_reflexivity_check(p=DEFAULT_PRIME, degree_bound=1, flip_sign=True)


def test_criterion_12_koszul_type_certification():
    with Budget("criterion 12: 10 base-change certificates", 300):
        from symcanon.ideals import ideal_quotient

        for seed in range(10):
            n = 2 + (seed % 2)
            rng = DetRng(seed + 500)
            ring = PolyRing(field=FIELD)
            alpha = [
                [random_linear(ring, rng) if i == j else ring.zero() for j in range(n)]
                for i in range(n)
            ]
            beta = [
                [random_linear(ring, rng) if i == j else ring.zero() for j in range(n)]
                for i in range(n)
            ]
            pair = SquareSymmetricPair(ring, alpha, beta).apply_word(
                random_move_word(rng, 8, n, FIELD)
            )
            cert = make_koszul_type(pair, seed=seed)
            # independent re-verification of the witnesses
            assert not cert.det_alpha.is_zero()
            principal = Ideal(pair.ring, [cert.det_alpha])
            assert ideal_equal(ideal_quotient(principal, cert.det_beta), principal)
            assert cert.reverify(pair)


def test_criterion_13_multiplication_table(golden_tableau):
    with Budget("criterion 13: multiplication table", 600):
        table = multiplication_table(golden_tableau)
        n = table.n
        c0, cs = table.expansion(0, 2)
        assert c0.is_zero() and str(cs[1]) == "1" and cs[0].is_zero()
        assert table.expansion(1, 2) == table.expansion(2, 1)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    assert associativity_check(table, i, j, k)
        alt = None
        for cols in combinations(range(2 * n + 2), n):
            if cols == table.columns:
                continue
            try:
                alt = multiplication_table(golden_tableau, columns=cols)
                break
            except Exception:
                continue
        assert alt is not None and tables_agree(table, alt)


def test_criterion_14_complete_intersection_jacobian():
    with Budget("criterion 14: symmetry-quadric Jacobian", 60):
        expected = {2: 10, 3: 20, 4: 33}
        for n in (2, 3, 4):
            rep = quadric_jacobian_check(n, seed=1)
            assert rep.ok
            assert rep.jacobian_rank == n * (n - 1) // 2
            assert rep.dim_ms == expected[n]
