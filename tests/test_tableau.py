from __future__ import annotations

import copy

import pytest

from symcanon import linalg
from symcanon.basechange import SquareSymmetricPair
from symcanon.errors import ContractError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import Ideal, ideal_contains, ideal_equal, saturate
from symcanon.poly import PolyRing, parse_poly, poly_matmul
from symcanon.tableau import (
    Minors,
    OpMove,
    ScalarTableau,
    SymmetricTableau,
    act_on_columns,
    apply_op,
    apply_op_word,
    apply_symplectic,
    check_symmetry,
    column_move_matrix,
    degeneracy_scheme,
    erase_first_row,
    fitting_ideal,
    move_word_matrix,
    rows_move,
    symplectic_defect,
)

from conftest import (
    GOLDEN_SEEDS,
    column_move_oracle,
    k2_10_fixture,
    matrix_minor,
    oracle_word_matrix,
    random_linear,
    random_move_word,
)


@pytest.fixture(scope="module")
def ring():
    return PolyRing(field=GF(DEFAULT_PRIME))


def test_check_symmetry_scalar_toy(ring):
    one, zero = ring.one(), ring.zero()
    alpha = [[one, zero], [zero, one]]
    beta = [[zero, one], [one, zero]]
    ok, where = check_symmetry(alpha, beta, ring)
    assert ok and where is None
    # rank-one blocks whose pairing is visibly asymmetric
    alpha = [[one, zero], [zero, zero]]
    beta = [[zero, zero], [one, zero]]
    ok, where = check_symmetry(alpha, beta, ring)
    assert not ok and where == (1, 2)


def _two_product_symmetry(alpha, beta, ring):
    # the earlier test, kept as oracle: both full products, every entry
    left = poly_matmul(alpha, linalg.transpose(beta), ring)
    right = poly_matmul(beta, linalg.transpose(alpha), ring)
    for i in range(len(alpha)):
        for j in range(len(alpha)):
            if left[i][j] != right[i][j]:
                return False, (i + 1, j + 1)
    return True, None


def test_check_symmetry_matches_two_products_on_tableaux(golden_tableaux):
    tableaux = list(golden_tableaux) + [k2_10_fixture(GF(DEFAULT_PRIME)), k2_10_fixture(QQ)]
    for T in tableaux:
        assert check_symmetry(T.alpha, T.beta, T.ring) == (True, None)
        assert _two_product_symmetry(T.alpha, T.beta, T.ring) == (True, None)


def test_check_symmetry_matches_two_products_on_each_perturbed_entry(golden_tableaux):
    # one entry changed at every position of either block: the failing
    # position is the oracle's, which reads both triangles
    for T in golden_tableaux:
        ring, m = T.ring, T.n + 1
        seen = set()
        for block in ("alpha", "beta"):
            for i in range(m):
                for j in range(m):
                    alpha = [row[:] for row in T.alpha]
                    beta = [row[:] for row in T.beta]
                    target = alpha if block == "alpha" else beta
                    target[i][j] = target[i][j] + ring.variable((i + j) % 5) ** (3 if i == 0 else 1)
                    got = check_symmetry(alpha, beta, ring)
                    assert got == _two_product_symmetry(alpha, beta, ring)
                    assert not got[0]
                    seen.add(got[1])
        assert len(seen) > 1


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ], ids=["gf", "q"])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_check_symmetry_matches_two_products_on_random_blocks(field, size):
    # random blocks, symmetric pairs (beta = alpha S with S symmetric) and
    # those pairs with one entry changed
    ring = PolyRing(field=field)
    rng = DetRng(100 * size + field.characteristic % 97)
    for _ in range(4):
        alpha = [[random_linear(ring, rng) for _ in range(size)] for _ in range(size)]
        beta = [[random_linear(ring, rng) for _ in range(size)] for _ in range(size)]
        assert check_symmetry(alpha, beta, ring) == _two_product_symmetry(alpha, beta, ring)
        S = [[ring.constant(rng.scalar(field)) for _ in range(size)] for _ in range(size)]
        S = [[S[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
        beta = poly_matmul(alpha, S, ring)
        assert check_symmetry(alpha, beta, ring) == (True, None) == _two_product_symmetry(alpha, beta, ring)
        i, j = rng.randint(0, size - 1), rng.randint(0, size - 1)
        beta[i][j] = beta[i][j] + random_linear(ring, rng)
        assert check_symmetry(alpha, beta, ring) == _two_product_symmetry(alpha, beta, ring)


def _two_product_scalar_message(a, b, field):
    # the earlier ScalarTableau test, kept as oracle
    lhs = linalg.matmul(a, linalg.transpose(b), field)
    rhs = linalg.matmul(b, linalg.transpose(a), field)
    for i in range(len(a)):
        for j in range(len(a)):
            if lhs[i][j] != rhs[i][j]:
                return f"scalar symmetry a*b^t = b*a^t fails at ({i + 1},{j + 1})"
    return None


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ], ids=["gf", "q"])
def test_scalar_tableau_accepts_and_refuses_as_before(field):
    ring = PolyRing(field=field)
    rng = DetRng(29)
    for n in (1, 2, 3):
        for _ in range(4):
            a = [[rng.scalar(field) for _ in range(n + 1)] for _ in range(n)]
            S = [[rng.scalar(field) for _ in range(n + 1)] for _ in range(n + 1)]
            S = [[S[min(i, j)][max(i, j)] for j in range(n + 1)] for i in range(n + 1)]
            symmetric = linalg.matmul(a, S, field)
            perturbed = [row[:] for row in symmetric]
            i, j = rng.randint(0, n - 1), rng.randint(0, n)
            perturbed[i][j] = field.add(perturbed[i][j], field.one())
            random_b = [[rng.scalar(field) for _ in range(n + 1)] for _ in range(n)]
            for b in (symmetric, perturbed, random_b):
                want = _two_product_scalar_message(a, b, field)
                if want is None:
                    assert ScalarTableau(ring, a, b).b == b
                else:
                    with pytest.raises(ContractError) as err:
                        ScalarTableau(ring, a, b)
                    assert str(err.value) == want


def test_constructor_refuses_bad_layout_and_asymmetry(golden_tableau):
    T = golden_tableau
    ring = T.ring
    broken = [row[:] for row in T.alpha]
    broken[1][0] = parse_poly("x0^2", ring)  # wrong degree in a linear slot
    with pytest.raises(ContractError, match="degree layout"):
        SymmetricTableau(ring, broken, T.beta)
    asym = [row[:] for row in T.alpha]
    asym[1][1] = asym[1][1] + ring.variable(0)
    with pytest.raises(ContractError, match="symmetry"):
        SymmetricTableau(ring, asym, T.beta)


def test_apply_op_preserves_symmetry_all_kinds(golden_tableau):
    rng = DetRng(17)
    T = golden_tableau
    field = T.ring.field
    moves = [
        OpMove("add_col_same", rng.scalar(field), 1),
        OpMove("add_col_pair", rng.scalar(field), 0, 2),
        OpMove("transfer", rng.scalar(field), 2, 0),
        OpMove("swap", None, 0, 1),
        OpMove("rotate", None, 2),
        rows_move(
            [
                [field.one(), field.zero(), field.zero()],
                [field.zero(), field.of_int(2), field.of_int(3)],
                [field.zero(), field.of_int(1), field.of_int(2)],
            ]
        ),
    ]
    current = T
    for mv in moves:
        current = apply_op(current, mv)  # constructor re-asserts symmetry
    for _ in range(40):
        current = apply_op(current, random_move_word(rng, 1, 3, field)[0])


def test_swap_involution_and_rotate_period(golden_tableau):
    T = golden_tableau
    sw = OpMove("swap", None, 0, 2)
    assert apply_op(apply_op(T, sw), sw) == T
    rot = OpMove("rotate", None, 1)
    current = T
    for _ in range(4):
        current = apply_op(current, rot)
    assert current == T
    two = apply_op(apply_op(T, rot), rot)
    assert two.alpha[0][1] == -T.alpha[0][1]  # alpha -> -alpha half way


def test_transfer_inverse(golden_tableau):
    T = golden_tableau
    lam = T.ring.field.of_int(5)
    mv = OpMove("transfer", lam, 0, 1)
    inv = OpMove("transfer", T.ring.field.neg(lam), 0, 1)
    assert apply_op(apply_op(T, mv), inv) == T


def test_rows_move_contract(golden_tableau):
    field = golden_tableau.ring.field
    g = [
        [field.one(), field.one(), field.zero()],
        [field.zero(), field.one(), field.zero()],
        [field.zero(), field.zero(), field.one()],
    ]
    with pytest.raises(ContractError, match="diag"):
        apply_op(golden_tableau, rows_move(g))
    singular = [
        [field.one(), field.zero(), field.zero()],
        [field.zero(), field.one(), field.one()],
        [field.zero(), field.one(), field.one()],
    ]
    with pytest.raises(ContractError, match="invertible"):
        apply_op(golden_tableau, rows_move(singular))
    # each g of a word is checked, not only their product (here the identity)
    g_inv = linalg.inverse(g, field)
    with pytest.raises(ContractError, match="diag"):
        apply_op_word(golden_tableau, [rows_move(g), rows_move(g_inv)])


def test_apply_symplectic_identity_and_j(golden_tableau):
    T = golden_tableau
    field = T.ring.field
    size = 2 * (T.n + 1)
    ident = linalg.identity(size, field)
    assert apply_symplectic(T, ident) == T
    J = [[field.zero()] * size for _ in range(size)]
    for i in range(T.n + 1):
        J[i][T.n + 1 + i] = field.one()
        J[T.n + 1 + i][i] = field.neg(field.one())
    rotated = apply_symplectic(T, J)
    # J itself is symplectic and acts as the all-columns rotation
    assert rotated.alpha == [[-e for e in row] for row in T.beta]
    assert rotated.beta == T.alpha


def test_apply_symplectic_rejects_with_defect(golden_tableau):
    T = golden_tableau
    field = T.ring.field
    bad = linalg.identity(6, field)
    bad[0][1] = field.one()
    with pytest.raises(ContractError, match="defect"):
        apply_symplectic(T, bad)
    # the defect is S J S^t - J, entry by entry
    J = [[field.zero()] * 6 for _ in range(6)]
    for i in range(3):
        J[i][3 + i], J[3 + i][i] = field.one(), field.neg(field.one())
    SJSt = linalg.matmul(linalg.matmul(bad, J, field), linalg.transpose(bad), field)
    want = [[field.sub(x, y) for x, y in zip(r, s)] for r, s in zip(SJSt, J)]
    assert symplectic_defect(bad, T.ring) == want


@pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ], ids=["gf", "q"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_column_moves_match_their_written_definition(field, width):
    # every kind on every index choice, add_col_pair(lam, mu, mu) included
    # (it adds lam twice); the oracle sets the matrix entries as OpMove
    # defines them, independently of act_on_columns
    ring = PolyRing(field=field)
    rng = DetRng(60 + width)
    lam = field.div(rng.nonzero_scalar(field), field.of_int(7))
    pairs = [(mu, nu) for mu in range(width) for nu in range(width)]
    moves = (
        [OpMove("add_col_same", lam, mu) for mu in range(width)]
        + [OpMove("add_col_pair", lam, mu, nu) for mu, nu in pairs]
        + [OpMove("transfer", lam, mu, nu) for mu, nu in pairs if mu != nu]
        + [OpMove("swap", None, mu, nu) for mu, nu in pairs]
        + [OpMove("rotate", None, mu) for mu in range(width)]
    )
    for mv in moves:
        assert column_move_matrix(mv, width, ring) == column_move_oracle(mv, width, field), mv
        m = [[rng.scalar(field) for _ in range(2 * width)] for _ in range(3)]
        want = linalg.matmul(m, column_move_oracle(mv, width, field), field)
        act_on_columns(m, mv, width, ring)
        assert m == want, mv
    word = random_move_word(rng, 12, width, field) + moves
    assert move_word_matrix(word, width, ring) == oracle_word_matrix(word, width, field)


def test_symplectic_action_law(golden_tableau):
    T = golden_tableau
    ring = T.ring
    field = ring.field
    rng = DetRng(23)
    # random symplectics as products of elementary move matrices
    def random_symplectic(seed):
        r = DetRng(seed)
        return oracle_word_matrix(random_move_word(r, 6, 3, field), 3, field)

    S1 = random_symplectic(5)
    S2 = random_symplectic(6)
    assert all(
        field.is_zero(c) for row in symplectic_defect(S1, ring) for c in row
    )
    lhs = apply_symplectic(apply_symplectic(T, S1), S2)
    rhs = apply_symplectic(T, linalg.matmul(S1, S2, field))
    assert lhs == rhs


def test_fitting_examples():
    ring = PolyRing(field=QQ)
    x = ring.gens()
    m = [[x[0], x[1]], [x[2], x[3]]]
    assert ideal_equal(fitting_ideal(Minors(m, ring), 1), Ideal(ring, [x[0], x[1], x[2], x[3]]))
    assert ideal_equal(fitting_ideal(Minors(m, ring), 2), Ideal(ring, [x[0] * x[3] - x[1] * x[2]]))
    m2 = [[x[0], x[1], x[2]], [x[3], x[4], x[0]]]
    expect = Ideal(
        ring,
        [
            x[0] * x[4] - x[1] * x[3],
            x[0] * x[0] - x[2] * x[3],
            x[1] * x[0] - x[2] * x[4],
        ],
    )
    assert ideal_equal(fitting_ideal(Minors(m2, ring), 2), expect)
    with pytest.raises(ContractError):
        fitting_ideal(Minors(m2, ring), 3)


def test_fitting_containment_and_invariance(ring):
    rng = DetRng(31)
    from conftest import random_linear

    m = [[random_linear(ring, rng) for _ in range(4)] for _ in range(3)]
    f1 = fitting_ideal(Minors(m, ring), 1)
    f2 = fitting_ideal(Minors(m, ring), 2)
    f3 = fitting_ideal(Minors(m, ring), 3)
    assert all(ideal_contains(f2, g) for g in f3.generators)
    assert all(ideal_contains(f1, g) for g in f2.generators)
    # row operation: add twice row 0 to row 1
    m2 = [row[:] for row in m]
    m2[1] = [a + b.scale(ring.field.of_int(2)) for a, b in zip(m2[1], m[0])]
    assert ideal_equal(fitting_ideal(Minors(m2, ring), 2), f2)


def _table_case(case, golden_tableaux):
    if case.startswith("seed"):
        return golden_tableaux[GOLDEN_SEEDS.index(int(case[4:]))].minors()
    if case.startswith("k2_10"):
        return k2_10_fixture(GF(DEFAULT_PRIME) if case == "k2_10_gf" else QQ).minors()
    ring = PolyRing(field=GF(DEFAULT_PRIME))
    rng = DetRng(23)
    if case == "raw_3x6":
        return Minors([[random_linear(ring, rng) for _ in range(6)] for _ in range(3)], ring)
    diag = [[[random_linear(ring, rng) if i == j else ring.zero() for j in range(3)] for i in range(3)] for _ in range(2)]
    pair = SquareSymmetricPair(ring, *diag).apply_word(random_move_word(rng, 8, 3, ring.field))
    return pair.minors()


@pytest.mark.parametrize(
    "case", [f"seed{s}" for s in GOLDEN_SEEDS] + ["k2_10_gf", "k2_10_q", "raw_3x6", "square_pair"]
)
def test_minor_table_matches_the_cofactor_oracle(golden_tableaux, case):
    # every entry the Fitting ideals of every size fill equals the earlier
    # cofactor recursion
    table = _table_case(case, golden_tableaux)
    M, ring = table.matrix, table.ring
    for k in range(1, len(M) + 1):
        fitting_ideal(table, k)
    memo = {}
    assert len(table._table) > len(M) * len(M[0])
    for (rows, cols), value in table._table.items():
        assert value == matrix_minor(M, rows, cols, ring, memo), (rows, cols)


def test_minor_table_follows_an_edit_in_place(golden_tableau):
    # a deep copy carries the filled table; editing a block in place must
    # not leave the copy reading its stale minors
    T = golden_tableau
    n, ring = T.n, T.ring
    before = fitting_ideal(T.minors(), n + 1)
    T2 = copy.deepcopy(T)
    T2.alpha[1][1] = T2.alpha[1][1] + ring.gens()[0]
    fresh = fitting_ideal(Minors(T2.full_matrix(), ring), n + 1)
    assert fresh.generators != before.generators
    assert fitting_ideal(T2.minors(), n + 1).generators == fresh.generators


def test_fitting_ideal_on_rows_is_the_ideal_of_the_erased_matrix(golden_tableau):
    T = golden_tableau
    erased = fitting_ideal(Minors(erase_first_row(T), T.ring), T.n)
    assert fitting_ideal(T.minors(), T.n, rows=range(1, T.n + 1)).generators == erased.generators


def test_erase_first_row_roundtrip(golden_tableau):
    T = golden_tableau
    aprime = erase_first_row(T)
    assert len(aprime) == T.n and len(aprime[0]) == 2 * T.n + 2
    rebuilt = SymmetricTableau(
        T.ring,
        [T.alpha[0]] + [row[: T.n + 1] for row in aprime],
        [T.beta[0]] + [row[T.n + 1 :] for row in aprime],
    )
    assert rebuilt == T


def test_degeneracy_scheme_k11(golden_tableau):
    scheme = degeneracy_scheme(golden_tableau)
    assert scheme.finite and scheme.reduced and scheme.points == 3


def test_degeneracy_scheme_k10():
    T = k2_10_fixture(GF(DEFAULT_PRIME))
    scheme = degeneracy_scheme(T)
    assert scheme.finite and scheme.reduced and scheme.points == 1


def test_degeneracy_zero_column_not_finite(ring):
    # a zero column in A' forces the rank-drop locus positive-dimensional:
    # the lower-row symmetry ties the remaining columns into a skew relation
    rng = DetRng(5)
    from itertools import combinations

    from conftest import random_linear

    field = ring.field
    a2, a3, b1, b2, b3, b4 = (random_linear(ring, rng) for _ in range(6))
    S = [[field.zero()] * 4 for _ in range(4)]
    for i, j in combinations(range(4), 2):
        c = rng.scalar(field)
        S[i][j] = c
        S[j][i] = field.neg(c)
    v = [a2, a3, b2, b3]
    W = []
    for k in range(4):
        s = ring.zero()
        for l in range(4):
            s = s + v[l].scale(S[k][l])
        W.append(s)
    b5, b6, a5, a6 = W[0], W[1], -W[2], -W[3]
    zero = ring.zero()
    alpha = [[zero] * 3, [zero, a2, a3], [zero, a5, a6]]
    beta = [[zero] * 3, [b1, b2, b3], [b4, b5, b6]]
    T = SymmetricTableau(ring, alpha, beta)
    scheme = degeneracy_scheme(T)
    assert not scheme.finite


def test_degeneracy_invariant_under_moves(golden_tableau):
    rng = DetRng(41)
    T = golden_tableau
    word = random_move_word(rng, 12, 3, T.ring.field)
    moved = apply_op_word(T, word)
    s1 = degeneracy_scheme(T)
    s2 = degeneracy_scheme(moved)
    assert ideal_equal(s1.ideal, s2.ideal)
    assert (s1.finite, s1.reduced, s1.points) == (s2.finite, s2.reduced, s2.points)


def test_scalar_tableau_shares_moves():
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    a = [[field.one(), field.zero()]]
    b = [[field.zero(), field.one()]]
    t = ScalarTableau(ring, a, b)
    rot = t.apply_column_move(OpMove("rotate", None, 0))
    assert rot.a[0][0] == field.zero() and rot.b[0][0] == field.neg(field.one())
    swapped = t.apply_column_move(OpMove("swap", None, 0, 1))
    assert swapped.a == [[field.zero(), field.one()]]


def test_tableau_reader_rejects_general_shifts(golden_tableau):
    from symcanon.serialize import tableau_from_json, tableau_to_json

    data = tableau_to_json(golden_tableau)
    data["shifts"] = [[0, 1, 2]]
    with pytest.raises(ContractError, match="degree layout"):
        tableau_from_json(data)


# -- the move engine on all three tableau classes -----------------------------------


def _pair(field, seed=3):
    from symcanon.basechange import SquareSymmetricPair
    from conftest import random_linear

    ring = PolyRing(field=field)
    rng = DetRng(seed)
    diag = lambda: [
        [random_linear(ring, rng) if i == j else ring.zero() for j in range(2)] for i in range(2)
    ]
    return SquareSymmetricPair(ring, diag(), diag())


def _scalar(field, seed=4):
    ring = PolyRing(field=field)
    rng = DetRng(seed)
    a = [[rng.scalar(field) for _ in range(3)] for _ in range(2)]
    return ScalarTableau(ring, a, [[field.zero()] * 3 for _ in range(2)])


def _graded_g(rng, field):
    """A random invertible diag(1, phi) with phi 2 x 2."""
    while True:
        phi = [[rng.scalar(field) for _ in range(2)] for _ in range(2)]
        if linalg.det(phi, field) != field.zero():
            zero = field.zero()
            return [[field.one(), zero, zero], [zero] + phi[0], [zero] + phi[1]]


def _invertible_g(rng, field):
    while True:
        g = [[rng.scalar(field) for _ in range(2)] for _ in range(2)]
        if linalg.det(g, field) != field.zero():
            return g


def _engine_cases(golden):
    field = golden.ring.field
    return [
        ("graded", golden, _graded_g),
        ("pair", _pair(field), None),
        ("scalar", _scalar(field), _invertible_g),
    ]


def test_move_validation_all_classes(golden_tableau):
    field = golden_tableau.ring.field
    lam = field.of_int(2)
    for name, T, _ in _engine_cases(golden_tableau):
        w = T.width
        bad = [
            OpMove("rotate", None, -1),
            OpMove("rotate", None, w + 2),
            OpMove("add_col_same", lam, w),
            OpMove("add_col_pair", lam, 0, -1),
            OpMove("transfer", lam, 1, 1),
            OpMove("swap", None, 0, w),
            OpMove("add_col_same", None, 0),
        ]
        for mv in bad:
            with pytest.raises(ContractError):
                apply_op(T, mv)
            with pytest.raises(ContractError):
                column_move_matrix(mv, w, T.ring)
        with pytest.raises(ContractError):
            column_move_matrix(rows_move(linalg.identity(w, field)), w, T.ring)
    pair = _pair(field)
    with pytest.raises(ContractError, match="square pair"):
        apply_op(pair, rows_move(linalg.identity(2, field)))
    with pytest.raises(ContractError, match="square pair"):
        pair.apply_word([OpMove("rotate", None, 0), rows_move(linalg.identity(2, field))])


@pytest.mark.parametrize("seed", range(3))
def test_word_engine_matches_move_by_move(golden_tableau, seed):
    field = golden_tableau.ring.field
    for name, T, row_g in _engine_cases(golden_tableau):
        rng = DetRng(900 + seed)
        w = T.width
        columns = [
            OpMove("add_col_same", rng.nonzero_scalar(field), 0),
            OpMove("add_col_pair", rng.nonzero_scalar(field), 0, w - 1),
            OpMove("transfer", rng.nonzero_scalar(field), w - 1, 0),
            OpMove("swap", None, 0, w - 1),
            OpMove("rotate", None, w - 1),
        ] + random_move_word(rng, 7, w, field)
        word = list(columns)
        if row_g is not None:
            for pos in (0, 4, 9, len(word)):
                word.insert(pos, rows_move(row_g(rng, field)))
        folded = T
        for mv in word:
            folded = apply_op(folded, mv)
        assert apply_op_word(T, word) == folded, name
        by_matrix = apply_symplectic(T, move_word_matrix(columns, w, T.ring))
        assert apply_op_word(T, columns) == by_matrix, name
        rows_only = [mv for mv in word if mv.kind == "rows"]
        assert apply_op_word(by_matrix, rows_only) == folded, name
