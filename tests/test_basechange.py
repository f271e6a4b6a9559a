from __future__ import annotations

import re
import sys
from itertools import combinations

import pytest

from symcanon.basechange import (
    MinorIndex,
    SquareSymmetricPair,
    is_nzd_mod,
    make_koszul_type,
    plucker_residual,
)
import symcanon.basechange as bc
from symcanon.errors import BudgetExceededError, ContractError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import Ideal, codimension, ideal_equal, ideal_quotient, saturate
from symcanon.poly import PolyRing, parse_poly
from symcanon.canonical import verify_instance
from symcanon.normalform import reduce_k11, verify_normal_shape
from symcanon.paramgen import realize, sample
from symcanon.tableau import Minors, OpMove, apply_op_word

from conftest import k2_10_fixture, random_linear, random_move_word


@pytest.fixture(scope="module")
def ring():
    return PolyRing(field=GF(DEFAULT_PRIME))


def diag_pair(seed, n, scrambles=8, field=None):
    field = field or GF(DEFAULT_PRIME)
    rng = DetRng(seed)
    ring = PolyRing(field=field)
    alpha = [
        [random_linear(ring, rng) if i == j else ring.zero() for j in range(n)]
        for i in range(n)
    ]
    beta = [
        [random_linear(ring, rng) if i == j else ring.zero() for j in range(n)]
        for i in range(n)
    ]
    pair = SquareSymmetricPair(ring, alpha, beta)
    return pair.apply_word(random_move_word(rng, scrambles, n, field))


def singular_alpha_pair(seed):
    """det(alpha) = 0 with the maximal-minor ideal still of codimension 2."""
    field = GF(DEFAULT_PRIME)
    rng = DetRng(seed)
    ring = PolyRing(field=field)
    l, m, b11, b12 = (random_linear(ring, rng) for _ in range(4))
    c = rng.nonzero_scalar(field)
    zero = ring.zero()
    alpha = [[l, m], [zero, zero]]
    beta = [[b11, b12], [m.scale(c), -(l.scale(c))]]
    return SquareSymmetricPair(ring, alpha, beta)


# -- Pluecker relations -------------------------------------------------------------


def test_plucker_classical_three_term(ring):
    rng = DetRng(3)
    M = [[ring.constant(rng.scalar(ring.field)) for _ in range(4)] for _ in range(2)]
    assert plucker_residual(M, [], [3], [0, 1, 2], ring).is_zero()


def test_plucker_random_selections(ring):
    # the identity itself is exact; 200 valid selections on matrices up to
    # 3 x 8 probe every arity combination reachable there
    rng = DetRng(4)
    checked = 0
    for rows in (2, 3):
        for cols in (rows + 2, rows + 3, 6 if rows == 2 else 8):
            M = [[random_linear(ring, rng) for _ in range(cols)] for _ in range(rows)]
            per_config = 0
            guard = 0
            while per_config < 34 and guard < 500:
                guard += 1
                p = rng.randint(0, rows - 2)
                q = rng.randint(1, rows + 1)
                s = rows - p + q - 1
                if not (s > rows and rows - p > 0):
                    continue
                blen = rows - q + 1
                if s > cols or blen < 0:
                    continue
                a_cols = [rng.randint(0, cols - 1) for _ in range(p)]
                b_cols = [rng.randint(0, cols - 1) for _ in range(blen)]
                c_cols = [rng.randint(0, cols - 1) for _ in range(s)]
                assert plucker_residual(M, a_cols, b_cols, c_cols, ring).is_zero()
                per_config += 1
                checked += 1
    assert checked >= 200


def test_plucker_wrong_signs_nonzero(ring):
    # flipping one term's sign breaks the identity (negative control)
    rng = DetRng(5)
    M = [[random_linear(ring, rng) for _ in range(5)] for _ in range(2)]
    a_cols, b_cols, c_cols = [], [4], [0, 1, 2]
    total = ring.zero()
    all_rows = (0, 1)
    flip = True
    for chosen in combinations(range(3), 2):
        rest = [i for i in range(3) if i not in chosen]
        inversions = sum(1 for i in chosen for j in rest if j < i)
        first = Minors(M, ring)(all_rows, tuple(c_cols[i] for i in chosen))
        second = Minors(M, ring)(all_rows, (c_cols[rest[0]], b_cols[0]))
        term = first * second
        sign = 1 if inversions % 2 == 0 else -1
        if flip:
            sign = -sign
            flip = False
        total = total + term if sign > 0 else total - term
    assert not total.is_zero()


def test_plucker_arity_errors(ring):
    M = [[ring.zero()] * 4 for _ in range(2)]
    with pytest.raises(ContractError):
        plucker_residual(M, [0], [3], [0, 1], ring)


@pytest.mark.parametrize(
    "a_cols,b_cols,c_cols,bad",
    [([], [-1], [0, 1, 2], [-1]), ([], [3], [0, 1, 9], [0, 1, 9]), ([5], [], [0, 1, 2], [5])],
)
def test_plucker_refuses_a_column_outside_the_matrix(ring, a_cols, b_cols, c_cols, bad):
    M = [[random_linear(ring, DetRng(6)) for _ in range(4)] for _ in range(2)]
    with pytest.raises(ContractError, match=re.escape(str(bad))):
        plucker_residual(M, a_cols, b_cols, c_cols, ring)


# -- nonzerodivisor test --------------------------------------------------------------


def test_is_nzd_examples(ring):
    x = ring.gens()
    assert is_nzd_mod(x[0], Ideal(ring, [x[1]]))
    assert not is_nzd_mod(x[0], Ideal(ring, [x[0] * x[1]]))
    assert is_nzd_mod(x[0], Ideal(ring, []))
    with pytest.raises(ContractError):
        is_nzd_mod(ring.zero(), Ideal(ring, [x[0]]))
    with pytest.raises(ContractError, match="principal"):
        is_nzd_mod(x[2], Ideal(ring, [x[0], x[1]]))


def test_is_nzd_refuses_a_common_cubic_factor(ring, monkeypatch):
    # a and f share a cubic: no line certifies, and the codimension, run
    # as the fallback, decides False; a coprime pair is certified on a line
    x = ring.gens()
    c = parse_poly("x0^3 + 2*x1*x2*x3 - x4^2*x0", ring)
    a, f = c * (x[1] + x[2]), c * (x[3] - x[0])
    assert not is_nzd_mod(f, Ideal(ring, [a]))
    assert not _nzd_by_quotient(f, Ideal(ring, [a]))

    def refuse(I):
        raise AssertionError("codimension ran on a certified pair")

    monkeypatch.setattr(bc, "codimension", refuse)
    assert is_nzd_mod(c * x[3] + x[1] ** 3, Ideal(ring, [a]))


def _nzd_by_quotient(f, I):
    """The earlier nonzerodivisor test: (I : f) = I."""
    return ideal_equal(ideal_quotient(I, f), I)


def test_is_nzd_matches_quotient_on_small_cases(ring):
    x = ring.gens()
    one = ring.one()
    cases = [
        (one, Ideal(ring, [x[0]])),
        (x[0], Ideal(ring, [one.scale(3)])),
        (x[0] * x[1] + x[2] * x[1], Ideal(ring, [x[1] * x[3] ** 2])),  # common factor x1
        (x[0], Ideal(ring, [x[0] * x[1]])),
        (x[0] ** 2 + x[3] * x[4], Ideal(ring, [x[1] * x[2] - x[0] ** 2])),
    ]
    verdicts = [is_nzd_mod(f, I) for f, I in cases]
    assert verdicts == [_nzd_by_quotient(f, I) for f, I in cases]
    assert verdicts == [True, True, False, False, True]


def test_is_nzd_matches_quotient_on_the_search(monkeypatch):
    # every (det beta, (det alpha)) that make_koszul_type meets
    met = []

    def recording(f, I):
        met.append((f, I))
        return is_nzd_mod(f, I)

    monkeypatch.setattr(bc, "is_nzd_mod", recording)
    make_koszul_type(k2_10_fixture(GF(DEFAULT_PRIME)), seed=0)
    for pair, seed in ((diag_pair(21, 2), 1), (diag_pair(22, 3), 2), (singular_alpha_pair(31), 5)):
        make_koszul_type(pair, seed=seed)
    ring = met[0][0].ring
    rng = DetRng(9)
    alpha = [[random_linear(ring, rng) for _ in range(2)] for _ in range(2)]
    monkeypatch.setattr(bc, "TRIAL_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        make_koszul_type(SquareSymmetricPair(ring, alpha, [row[:] for row in alpha]))
    verdicts = [is_nzd_mod(f, I) for f, I in met]
    assert verdicts == [_nzd_by_quotient(f, I) for f, I in met]
    assert True in verdicts and False in verdicts


def test_no_elimination_on_verify_normalform_and_koszul_type(monkeypatch):
    # sat I_n(A), the ring condition and the nonzerodivisor test need no
    # elimination-order basis when the x4-saturation certifies
    def refuse(*args, **kwargs):
        raise AssertionError("elimination-order basis on a fast path")

    for name, module in list(sys.modules.items()):
        if name == "symcanon" or name.startswith("symcanon."):
            for attr in ("ideal_intersection", "ideal_quotient"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    T = realize(sample(0, GF(DEFAULT_PRIME)))
    assert verify_instance(T).overall
    scrambled = apply_op_word(T, random_move_word(DetRng(61), 10, 3, T.ring.field))
    assert not verify_normal_shape(scrambled).ok
    assert verify_normal_shape(reduce_k11(scrambled).tableau).ok
    pair = diag_pair(23, 3)
    cert = make_koszul_type(pair, seed=0)
    assert cert.verified and cert.reverify(pair)


# -- make_koszul_type -------------------------------------------------------------------


def test_already_koszul_type_empty_moves():
    pair = diag_pair(200, 2, scrambles=0)
    cert = make_koszul_type(pair, seed=0)
    assert cert.moves == []
    assert cert.verified and cert.reverify(pair)


@pytest.mark.parametrize("seed", range(5))
def test_scrambled_pairs_certify(seed):
    n = 2 + (seed % 2)
    pair = diag_pair(seed + 10, n)
    cert = make_koszul_type(pair, seed=seed)
    assert cert.verified
    # independent re-verification: replay + quotient test from scratch
    assert cert.reverify(pair)
    assert not cert.det_alpha.is_zero()
    q = ideal_quotient(Ideal(pair.ring, [cert.det_alpha]), cert.det_beta)
    assert ideal_equal(q, Ideal(pair.ring, [cert.det_alpha]))


def test_singular_alpha_start():
    pair = singular_alpha_pair(31)
    assert bc._det(pair, 0).is_zero()
    joined = [ar + br for ar, br in zip(pair.alpha, pair.beta)]
    gens = [
        Minors(joined, pair.ring)((0, 1), cols)
        for cols in combinations(range(4), 2)
    ]
    assert codimension(Ideal(pair.ring, gens)) == 2
    cert = make_koszul_type(pair, seed=5)
    assert cert.verified and cert.moves and cert.reverify(pair)


def test_moves_preserve_symmetry_on_replay():
    pair = singular_alpha_pair(8)
    cert = make_koszul_type(pair, seed=1)
    current = pair
    for mv in cert.moves:
        current = current.apply_column_move(mv)  # constructor re-checks symmetry
    assert current == cert.result


def test_cokernel_invariance():
    pair = diag_pair(77, 2)
    cert = make_koszul_type(pair, seed=3)
    before = [ar + br for ar, br in zip(pair.alpha, pair.beta)]
    after = [ar + br for ar, br in zip(cert.result.alpha, cert.result.beta)]
    gens_before = [
        Minors(before, pair.ring)((0, 1), cols) for cols in combinations(range(4), 2)
    ]
    gens_after = [
        Minors(after, pair.ring)((0, 1), cols) for cols in combinations(range(4), 2)
    ]
    s1 = saturate(Ideal(pair.ring, gens_before))
    s2 = saturate(Ideal(pair.ring, gens_after))
    assert ideal_equal(s1, s2)


def test_alpha_equals_beta_budget_exhaustion(ring, monkeypatch):
    rng = DetRng(9)
    alpha = [[random_linear(ring, rng) for _ in range(2)] for _ in range(2)]
    pair = SquareSymmetricPair(ring, alpha, [row[:] for row in alpha])
    monkeypatch.setattr(bc, "TRIAL_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        make_koszul_type(pair, seed=0)


def test_char_two_refused():
    # the field layer refuses p = 2 outright, keeping 2 invertible everywhere
    with pytest.raises(ContractError):
        GF(2)


def test_tableau_input(golden_tableau):
    cert = make_koszul_type(golden_tableau, seed=0)
    assert cert.verified
    assert cert.reverify(golden_tableau)


def test_minor_index_goodness():
    idx = MinorIndex((0, 1), (2,))
    assert idx.good and idx.overlap == 0
    idx2 = MinorIndex((0, 1), (1,))
    assert not idx2.good and idx2.overlap == 1
