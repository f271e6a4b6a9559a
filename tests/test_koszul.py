from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from symcanon.errors import ContractError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.koszul import (
    RegularSequence,
    _skew_from_upper,
    _skew_map,
    ambiguity_dim,
    is_regular_sequence,
    koszul_differential,
    solve_skew,
)
from symcanon.linalg import rank
from symcanon.poly import PolyRing, parse_poly

from conftest import random_homogeneous, random_linear, skew_system


@pytest.fixture(scope="module")
def ring():
    return PolyRing(field=GF(DEFAULT_PRIME))


def test_regular_sequences(ring):
    x = ring.gens()
    assert is_regular_sequence(x[:4])
    assert not is_regular_sequence([x[0], x[0] * x[1]])
    with pytest.raises(ContractError):
        is_regular_sequence([ring.zero()])


def test_k11_point_sequence_regular(golden_tableau):
    # the four linear forms cutting the first improper double point
    aprime = golden_tableau.full_matrix()[1]
    a2, a3 = aprime[1], aprime[2]
    b2, b3 = golden_tableau.beta[1][1], golden_tableau.beta[1][2]
    assert is_regular_sequence([a2, a3, b2, b3])


def test_koszul_two_variable(ring):
    x = ring.gens()
    seq = RegularSequence.verify([x[0], x[1]])
    d0 = koszul_differential(seq, 0)
    d1 = koszul_differential(seq, 1)
    assert [[str(e) for e in row] for row in d0] == [["x0", "x1"]]
    assert d1[0][0] == -x[1] and d1[1][0] == x[0]


def test_koszul_shapes_length4(ring):
    seq = RegularSequence.verify(ring.gens()[:4])
    shapes = [(len(m), len(m[0])) for m in (koszul_differential(seq, i) for i in range(4))]
    assert shapes == [(1, 4), (4, 6), (6, 4), (4, 1)]


@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_koszul_composites_vanish(ring, length):
    seq = RegularSequence.verify(ring.gens()[:length])
    for i in range(length - 1):
        a = koszul_differential(seq, i)
        b = koszul_differential(seq, i + 1)
        for r in range(len(a)):
            for c in range(len(b[0])):
                s = ring.zero()
                for k in range(len(b)):
                    s = s + a[r][k] * b[k][c]
                assert s.is_zero()


def test_koszul_composite_random_sequence(ring):
    rng = DetRng(44)
    while True:
        forms = [random_linear(ring, rng) for _ in range(4)]
        if is_regular_sequence(forms):
            break
    seq = RegularSequence.verify(forms)
    a = koszul_differential(seq, 1)
    b = koszul_differential(seq, 2)
    for r in range(len(a)):
        for c in range(len(b[0])):
            s = ring.zero()
            for k in range(len(b)):
                s = s + a[r][k] * b[k][c]
            assert s.is_zero()


def test_solve_skew_sign_toy(ring):
    x = ring.gens()
    seq = RegularSequence.verify([x[0], x[1]])
    w = solve_skew([x[1], -x[0]], seq)
    one = ring.one()
    assert w.entries[0][1] == one and w.entries[1][0] == -one


def test_solve_skew_zero(ring):
    seq = RegularSequence.verify(ring.gens()[:3])
    w = solve_skew([ring.zero()] * 3, seq)
    assert all(e.is_zero() for row in w.entries for e in row)


def test_solve_skew_rejects_nonrelation(ring):
    x = ring.gens()
    seq = RegularSequence.verify([x[0], x[1]])
    with pytest.raises(ContractError, match="residual"):
        solve_skew([x[1], x[0]], seq)


def test_solve_skew_soundness_and_ambiguity(ring):
    rng = DetRng(8)
    x = ring.gens()
    seq = RegularSequence.verify(x[:4])
    amb = ambiguity_dim(seq, 4)
    for trial in range(10):
        upper = [random_homogeneous(ring, rng, 2) for _ in range(6)]
        S0 = _skew_from_upper(ring, 4, upper)
        W = S0.apply(list(seq.forms))
        S1 = solve_skew(W, seq)
        assert S1.apply(list(seq.forms)) == W
        for i in range(4):
            for j in range(4):
                assert S1.entries[i][j] == -S1.entries[j][i]
        diff = [
            [S0.entries[i][j] - S1.entries[i][j] for j in range(4)] for i in range(4)
        ]
        resid = [
            sum((diff[i][j] * seq.forms[j] for j in range(4)), ring.zero())
            for i in range(4)
        ]
        assert all(r.is_zero() for r in resid)
    # the solution space of the homogeneous system has dimension amb = 19
    rows, pairs, src = skew_system(list(seq.forms), 2)
    assert len(pairs) * len(src) - rank(rows, ring.field) == amb == 19


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ])
def test_skew_map_matches_earlier_system(field):
    # the graded_map of the negated d_1 is the transpose of the earlier
    # product-built system
    ring = PolyRing(field=field)
    rng = DetRng(21)
    for length in (2, 4, 5):
        seq = RegularSequence.verify([random_linear(ring, rng) for _ in range(length)])
        for entry_degree in (0, 1, 2):
            rows, _, _ = skew_system(list(seq.forms), entry_degree)
            assert _skew_map(seq, entry_degree).T.tolist() == rows, (length, entry_degree)


def test_ambiguity_paper_values(ring):
    x = ring.gens()
    assert ambiguity_dim(RegularSequence.verify(x[:4]), 4) == 19
    assert ambiguity_dim(RegularSequence.verify(x[:5]), 3) == 10


def test_ambiguity_generic_linear_sequences(ring):
    rng = DetRng(12)
    forms = [random_linear(ring, rng) for _ in range(4)]
    seq = RegularSequence.verify(forms)
    assert ambiguity_dim(seq, 4) == 19


def test_ambiguity_length2_is_zero(ring):
    # a 2x2 skew matrix S has Sv = (s v2, -s v1), which vanishes only for
    # s = 0 over a domain: the witness of a relation on a regular length-2
    # sequence is unique, so the ambiguity space is trivial in every degree
    x = ring.gens()
    seq = RegularSequence.verify([x[0], x[1]])
    assert ambiguity_dim(seq, 1) == 0
    assert ambiguity_dim(seq, 2) == 0
    assert ambiguity_dim(seq, 3) == 0


def test_ambiguity_euler_cross_check(ring):
    # dim ker(d1)_d = dim im(d2)_d two ways: rank of the d2 coefficient
    # matrix vs dim source - dim ker(d2)_d
    from symcanon.poly import graded_basis

    for length in (4, 5):
        seq = RegularSequence.verify(ring.gens()[:length])
        for d in (3, 4):
            amb = ambiguity_dim(seq, d)
            d2 = koszul_differential(seq, 2)
            # columns of d2 are indexed by 3-subsets; entries degree 1;
            # source degree piece: (d - 3)
            if d - 3 < 0:
                source_dim = 0
                rank_d2 = 0
            else:
                src_basis = graded_basis(ring, d - 3)
                cols = []
                for c in range(len(d2[0])):
                    for mono in src_basis:
                        col = []
                        for r in range(len(d2)):
                            col.append(d2[r][c] * ring.monomial(mono))
                        cols.append(col)
                rows = []
                tgt = graded_basis(ring, d - 2)
                pos = {m: i for i, m in enumerate(tgt)}
                for col in cols:
                    vec = [ring.field.zero()] * (len(d2) * len(tgt))
                    for r, f in enumerate(col):
                        for m, cc in f.terms.items():
                            vec[r * len(tgt) + pos[m]] = cc
                    rows.append(vec)
                source_dim = len(cols)
                rank_d2 = rank(rows, ring.field)
            assert amb == rank_d2, (length, d)
