from __future__ import annotations

import hashlib
from itertools import product

import pytest

from symcanon import linalg
from symcanon.errors import ContractError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import ideal_equal
from symcanon.normalform import (
    NormalFormK11,
    OrbitClass,
    _row_pencil,
    _special_directions,
    factor_symplectic,
    reduce_k11,
    scalar_orbit_reduce,
    verify_normal_shape,
)
from symcanon.paramgen import realize, sample
from symcanon.poly import PolyRing, parse_poly
from symcanon.tableau import (
    OpMove,
    ScalarTableau,
    SymmetricTableau,
    apply_op_word,
    degeneracy_scheme,
    rows_move,
)
from symcanon.serialize import dumps, moves_to_json, tableau_to_json

from conftest import GOLDEN_SEEDS, oracle_word_matrix, random_move_word, special_directions_by_interpolation


# -- scalar orbits ---------------------------------------------------------------


def test_orbit_zero_matrix():
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    zero = field.zero()
    M = ScalarTableau(ring, [[zero, zero]], [[zero, zero]])
    red = scalar_orbit_reduce(M)
    assert red.cls.k == 0
    assert red.canonical.a == [[zero, zero]] and red.canonical.b == [[zero, zero]]


def test_orbit_already_canonical():
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    M = ScalarTableau(ring, [[field.one(), field.zero()]], [[field.zero()] * 2])
    red = scalar_orbit_reduce(M)
    assert red.cls.k == 1


def test_orbit_exhaustive_gf3():
    field = GF(3)
    ring = PolyRing(field=field)
    classes = {}
    for vals in product(range(3), repeat=4):
        M = ScalarTableau(ring, [[vals[0], vals[1]]], [[vals[2], vals[3]]])
        red = scalar_orbit_reduce(M)
        # witness factorization re-verified: canonical = left * M * right
        full = linalg.matmul(
            linalg.matmul(red.left, M.full_matrix(), field), red.right, field
        )
        assert full == red.canonical.full_matrix()
        assert red.cls.k == linalg.rank(M.full_matrix(), field)
        classes.setdefault(red.cls.k, 0)
        classes[red.cls.k] += 1
    assert set(classes) == {0, 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_class_invariant_under_actions(n):
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    rng = DetRng(100 + n)
    width = n + 1
    a = [[rng.scalar(field) for _ in range(width)] for _ in range(n)]
    b = [[field.zero()] * width for _ in range(n)]
    M = ScalarTableau(ring, a, b)  # a b^t = 0 symmetric
    base = scalar_orbit_reduce(M).cls.k
    current = M
    for trial in range(100):
        mv = random_move_word(rng, 1, width, field)[0]
        current = current.apply_column_move(mv)
        if trial % 10 == 0:
            g = [[rng.scalar(field) for _ in range(n)] for _ in range(n)]
            if linalg.det(g, field) != field.zero():
                current = current.apply_rows(g)
        assert scalar_orbit_reduce(current).cls.k == base


def test_orbit_random_move_words_gf3():
    field = GF(3)
    ring = PolyRing(field=field)
    rng = DetRng(55)
    M = ScalarTableau(ring, [[field.one(), field.of_int(2)]], [[field.of_int(2), field.one()]])
    base = scalar_orbit_reduce(M).cls.k
    current = M
    for mv in random_move_word(rng, 50, 2, field):
        current = current.apply_column_move(mv)
    assert scalar_orbit_reduce(current).cls.k == base


# -- symplectic factorization ------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_factor_symplectic_random_products(seed):
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    rng = DetRng(seed)
    total = oracle_word_matrix(random_move_word(rng, 10, 3, field), 3, field)
    word = factor_symplectic(total, ring)
    assert oracle_word_matrix(word, 3, field) == total


def test_factor_symplectic_over_q():
    field = QQ
    ring = PolyRing(field=field)
    rng = DetRng(77)
    total = oracle_word_matrix(random_move_word(rng, 8, 2, field), 2, field)
    word = factor_symplectic(total, ring)
    assert oracle_word_matrix(word, 2, field) == total


def test_factor_symplectic_rejects_nonsymplectic():
    field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    bad = linalg.identity(6, field)
    bad[0][3] = field.one()
    bad[3][0] = field.one()
    with pytest.raises(ContractError):
        factor_symplectic(bad, ring)


# -- normal shape -------------------------------------------------------------------


def test_verify_normal_shape_golden(golden_tableau):
    assert verify_normal_shape(golden_tableau).ok


def test_verify_normal_shape_violation(golden_tableau):
    T = golden_tableau
    ring = T.ring
    alpha = [row[:] for row in T.alpha]
    alpha[2][2] = parse_poly("x0", ring)  # break the (3,3) zero
    with pytest.raises(ContractError):
        # symmetry now fails too; constructor refuses
        SymmetricTableau(ring, alpha, T.beta)
    # a shape violation that preserves symmetry: swap the column pairs
    moved = apply_op_word(T, [OpMove("swap", None, 0, 1)])
    report = verify_normal_shape(moved)
    assert not report.ok and report.violations


def test_verify_normal_shape_random_scramble(golden_tableau):
    rng = DetRng(19)
    word = random_move_word(rng, 10, 3, golden_tableau.ring.field)
    moved = apply_op_word(golden_tableau, word)
    report = verify_normal_shape(moved)
    assert not report.ok and len(report.violations) >= 2


# -- reduce_k11 ----------------------------------------------------------------------


def test_reduce_fixed_point(golden_tableau):
    nf = reduce_k11(golden_tableau)
    assert nf.tableau == golden_tableau
    assert nf.witness_moves == []


def test_reduce_roundtrip_and_witness(golden_tableau):
    rng = DetRng(7)
    T = golden_tableau
    for trial in range(3):
        word = random_move_word(rng, 20, 3, T.ring.field)
        scrambled = apply_op_word(T, word)
        nf = reduce_k11(scrambled)
        assert verify_normal_shape(nf.tableau).ok
        # witness replay is bit-exact
        assert apply_op_word(scrambled, nf.witness_moves) == nf.tableau
        # reduction is idempotent on its own output
        again = reduce_k11(nf.tableau)
        assert again.tableau == nf.tableau and again.witness_moves == []
        # degeneracy ideal untouched
        assert ideal_equal(
            degeneracy_scheme(scrambled).ideal, degeneracy_scheme(nf.tableau).ideal
        )


def test_reduce_preserves_points_as_ideals(golden_tableaux):
    rng = DetRng(71)
    T = golden_tableaux[1]
    word = random_move_word(rng, 30, 3, T.ring.field)
    scrambled = apply_op_word(T, word)
    nf = reduce_k11(scrambled)
    s1, s2 = degeneracy_scheme(scrambled), degeneracy_scheme(nf.tableau)
    assert (s1.points, s2.points) == (3, 3)
    assert ideal_equal(s1.ideal, s2.ideal)


def test_reduce_rejects_wrong_n():
    from conftest import k2_10_fixture

    T = k2_10_fixture(GF(DEFAULT_PRIME))
    with pytest.raises(ContractError, match="n = 2"):
        reduce_k11(T)


def test_reduce_rejects_degenerate(golden_tableau):
    ring = golden_tableau.ring
    zero = ring.zero()
    rng = DetRng(3)
    from conftest import random_linear

    a2, a3, b2, b3 = (random_linear(ring, rng) for _ in range(4))
    alpha = [[zero] * 3, [zero, a2, a3], [zero, a2, a3]]
    beta = [[zero] * 3, [zero, b2, b3], [zero, b2, b3]]
    T = SymmetricTableau(ring, alpha, beta)
    with pytest.raises(ContractError, match="three reduced points"):
        reduce_k11(T)


# SHA-256 of the output and witness JSON of reduce_k11 on four scrambles of
# 5..30 random moves of each realized seed; no input of this corpus is refused
FIELDS = {"gf32003": GF(DEFAULT_PRIME), "q": QQ, "gf7": GF(7)}
REDUCE_PINS = {
    ("gf32003", 0): (
        "bf34681efc9a78367f3f2ceacc6c7dd5265bfda7bfeb9d0da774e55894bbc23f",
        "14e90f82e0e85634c180a71c228abb1790b68ffcb25e0e54d457fb42237703ce",
        "b8d02a00471885467ee4cd8a74fff4959105dc07b5bccc410e2ae819da0a1198",
        "3e59da2c82ff152c088fde7bec9c0626cb5911ae613c22b85ec9b6169951298c",
    ),
    ("gf32003", 1): (
        "6dc209715b4a8b7328609885b3acd3e9b679a2b53744836970fcca05c6de6369",
        "9370360012a1695dc317481efffeab3d86f641725fbdd82805e7086c9cfaec53",
        "0d2e30c5bbb4043fbf2fbf4cb5579ca4c2ca2e6b4a85bffe15a76798972f0fa7",
        "5dd791531a77c0c4ddb734a7d53a3ef732730fe93beac6d6e3d829ad1e59a4f8",
    ),
    ("gf32003", 2): (
        "758a31c6c5329c60efbd6b9d21275a64150d56c245669b2e3b27fa16fb11b3bb",
        "ef2c8968cd89c859b67bd1d30c5e4919e42dbd1f6441d37f691abc8a2f4bcaa6",
        "30b1ef3c2ac40c93a7cfffdb485577963ab2066e3544075f3b3f710c7d402cce",
        "c0b381895847245d012c56f6848e91982443a4a87edcfe3781e298e248941696",
    ),
    ("gf32003", 3): (
        "5b7316ba5460c935589f7b0adb8b9061fde96be0611ffa558dc4e735e62c7ca6",
        "0e28a22837129937fc2c4df7d91cec5a89eaa8c861e5e40791b7152e9721d284",
        "2a683ef57443c6a2329db38fdd3ff0e8219253b6fb1897cf5a199e2bfbf6aafc",
        "645a2915bd43bc8079860563e1edb3ad592c82ff283c4352725e43bd6c9752f1",
    ),
    ("gf32003", 5): (
        "29e27ad5f0e4c461c1c35e1237fb8c2978aa3fde34b0a85e6e6b2d49d20c701d",
        "045f45bc0d2e21ddc1999172f0604b31ea7429a528507898d2ca322907e04b61",
        "383eda921e5ff6500a1f7c1d41d45b61b7f4cb66d491897e8f858273e7a70988",
        "7f4a3b94d68bad6406f57ec492084cd8d297af1bc0ba0f17be9d74a73303c595",
    ),
    ("gf32003", 7): (
        "240c83a72b7aacabea0df366e0f2ba435dd8fa67796b1b4fc6d480d63686f6b5",
        "d9b00569982a8e28539e98cef88fae60ea576fb428e5659fea03018ddac03c1e",
        "fc3e2e914a6be973a1bee08c332b08df1ebea4b36eb717684b906823b03d9855",
        "b534cc9a9591919be4bbf0045066350e54b08179af4efc106b782146a8a2bd56",
    ),
    ("q", 0): (
        "f260154fe9eca99d0b7187d87ea7af134650ab7562286ee2b7645aa0c53e6f4d",
        "13a555420de4d2ddd47089c2be6cca5c263d0a2c4cf49ea7b305efcfa12249d3",
        "efd9af311cdc4128fda21c76bafe1de01bb9d59ab1b0f4e3b111f75424cf454f",
        "3ed5316e11aa99f760ea1b558edb1d996d3ca0c7e4e6fa1fad7947c61c30b740",
    ),
    ("q", 2): (
        "1bf07b627a0844aa9f2f67c8b811597563ea7976a23ea8e784c3d9029b379150",
        "3e952c1cf1f1a0ba8d26fc9d464ae4878e79ca956e0437b87485974122a63dea",
        "e25a37010a1bd2be2c09f666d6b3642f80953de0f75d5bdbb7ae228b339dd322",
        "d570a6c842312fc63a114c5aa21aadad7eda82fef8d9408e236b89294361259c",
    ),
    ("q", 3): (
        "d73634659573deb50967f10933b5d2fb62abf55963ffe3c27bc15c2d7bec224d",
        "93fe0974215bd50fcd2f5149568dfe134d2c9b5c64dc75836bb799e57745a0ea",
        "42a100f794b70f03f24b90e4b015b58d3e68c64384db9672443986d48d872269",
        "ad7c3be4183d3c89b7f81de9bca67f4e115e5e465f61c4f0fcc49095bd00e946",
    ),
    ("gf7", 0): (
        "84fc266ead254972fdfd74d5b1cc1ad8d882b1757fb9f45c288b2fbd1b5d0ea8",
        "d88f7512353a8fc8ea48d04f91bb4cf8f5d90e75e5589aec7c60ecc6d42f7a31",
        "d10c4c4a2748dde44f9589cc0f17e258ff1a918fbde7db704a164115c5b0007d",
        "e0df545fd08a1c595de3052dc11c0a5244ebd75b75e890b8e3a94114dfe3d127",
    ),
    ("gf7", 1): (
        "98888711b8eef53fa42be973aa6d28ccff8bf3b96c0e07a42a56056fa63f8481",
        "8c9a16d6d47684bd48f5bb9df605bf080c3cc264d32ff19e8b82e1445afe8b13",
        "716d6c9c783322b5d4ce0446b2d9f0b03e5ce41e2d54c56cd4a6eda79aaf4207",
        "ff9cbce04f4aa46bd75fbc17deec09eaf68fd45dd0e15be59ef94555b9fdf5af",
    ),
    ("gf7", 2): (
        "9fbf274fcf0279a987bdb156273ce9b059455d6ea64355b39c5b4e73a459a8ce",
        "69939f38fc7478d5be6613a9dce503b36beb84c896b5ed22f98d67be7af7641b",
        "a6bc637b5682faba630568231332e59525f35b7771cdeb5f916ebdd6ebee023b",
        "6577d3f3629893ab05754527dfde0d5c8118540cba376374683284d50c672722",
    ),
}


@pytest.mark.parametrize("name, seed", list(REDUCE_PINS), ids=[f"{n}-{s}" for n, s in REDUCE_PINS])
def test_reduce_k11_pinned_outputs(name, seed):
    field = FIELDS[name]
    T = realize(sample(seed, field))
    rng = DetRng(1700 + seed)
    digests = []
    for _ in range(4):
        scrambled = apply_op_word(T, random_move_word(rng, rng.randint(5, 30), 3, field))
        nf = reduce_k11(scrambled)
        text = dumps(tableau_to_json(nf.tableau)) + dumps(moves_to_json(nf.witness_moves, field))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == REDUCE_PINS[name, seed]


# -- the direction search ------------------------------------------------------------


def _pencil(C1, C2, field):
    """[u1:u2] -> u1*C1 + u2*C2, as _row_pencil builds it."""
    return lambda u1, u2: [
        [field.add(field.mul(u1, a), field.mul(u2, b)) for a, b in zip(r1, r2)] for r1, r2 in zip(C1, C2)
    ]


def _planted_pencil(rng, p):
    """A random 6x5 pencil over GF(p) whose generalized rows have a kernel
    at up to three random points of P^1, [0:1] among them as often as any."""
    field = GF(p)
    planted = [(1, rng.randint(0, p - 1)) if rng.randint(0, p) else (0, 1) for _ in range(rng.randint(0, 3))]
    kernels = [[rng.scalar(field) for _ in range(5)] for _ in planted]
    C1, C2 = [], []
    for _ in range(6):
        # a*(C1[r] . v) + b*(C2[r] . v) = 0 for each planted (a, b) and v
        constraints = [[a * c % p for c in v] + [b * c % p for c in v] for (a, b), v in zip(planted, kernels)]
        basis = linalg.nullspace(constraints, field, ncols=10) if constraints else linalg.identity(10, field)
        row = [0] * 10
        for vec in basis:
            lam = rng.scalar(field)
            row = [(x + lam * y) % p for x, y in zip(row, vec)]
        C1.append(row[:5])
        C2.append(row[5:])
    return C1, C2


@pytest.mark.parametrize("p", [5, 7, 11])
def test_special_directions_match_brute_force(p):
    # every point of P^1(GF(p)) whose generalized row has rank <= 4; all of
    # them means every minor is zero (a nonzero quintic has at most 5 roots)
    field = GF(p)
    rng = DetRng(900 + p)
    points = [(0, 1)] + [(1, t) for t in range(p)]
    counts = {}
    for _ in range(120):
        C1, C2 = _planted_pencil(rng, p)
        pencil = _pencil(C1, C2, field)
        expected = [d for d in points if linalg.rank(pencil(*d), field) <= 4]
        if expected == points:
            with pytest.raises(ContractError, match="degenerates identically"):
                _special_directions(pencil, field)
            continue
        assert _special_directions(pencil, field) == expected
        key = (len(expected), (0, 1) in expected)
        counts[key] = counts.get(key, 0) + 1
    # the corpus reaches no direction, several, and [0:1] alone and with others
    assert {(0, False), (3, False), (1, True), (3, True)} <= set(counts)


@pytest.mark.parametrize("field", [GF(5), GF(7), QQ], ids=["GF5", "GF7", "Q"])
def test_special_directions_at_infinity_only(field):
    # rows 0..4 of C1 + t*C2 are I + t*N with N nilpotent, a minor equal to
    # s^5: no affine root, while C2 has rank 4
    one, zero = field.one(), field.zero()
    C1 = [[one if i == j else zero for j in range(5)] for i in range(5)] + [[field.of_int(k) for k in range(1, 6)]]
    C2 = [[one if j == i + 1 else zero for j in range(5)] for i in range(5)] + [[zero] * 5]
    assert _special_directions(_pencil(C1, C2, field), field) == [(zero, one)]


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["GF5", "Q"])
def test_special_directions_refuse_a_pencil_with_every_minor_zero(field):
    # the last variable never appears: every generalized row has rank <= 4
    rng = DetRng(31)
    C1, C2 = ([[rng.scalar(field) for _ in range(4)] + [field.zero()] for _ in range(6)] for _ in range(2))
    with pytest.raises(ContractError, match="degenerates identically"):
        _special_directions(_pencil(C1, C2, field), field)


def test_reduce_k11_over_gf5():
    # the direction search has no characteristic bound of its own; GF(5),
    # which six interpolation points excluded, reduces
    field = GF(5)
    T = realize(sample(0, field))
    rng = DetRng(1700)
    word = [rows_move([[1, 0, 0], [0, 1, 2], [0, 1, 1]])] + random_move_word(rng, 20, 3, field)
    scrambled = apply_op_word(T, word)
    nf = reduce_k11(scrambled)
    assert verify_normal_shape(nf.tableau).ok
    assert apply_op_word(scrambled, nf.witness_moves) == nf.tableau


ORACLE_CASES = (
    [("gf32003", s) for s in GOLDEN_SEEDS] + [("q", s) for s in (0, 2, 3)] + [("gf7", s) for s in (0, 1, 2)]
)


@pytest.mark.parametrize("name, seed", ORACLE_CASES, ids=[f"{n}-{s}" for n, s in ORACLE_CASES])
def test_special_directions_match_interpolation(name, seed):
    # the realized tableau (directions [0:1], [1:0], [1:1]) and a random
    # row change of it, which moves the directions off those three
    field = FIELDS[name]
    T = realize(sample(seed, field))
    rng = DetRng(2300 + seed)
    while True:
        phi = [[field.of_int(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        if not field.is_zero(linalg.det(phi, field)):
            break
    g = [[field.one(), field.zero(), field.zero()]] + [[field.zero()] + r for r in phi]
    for U in (T, apply_op_word(T, [rows_move(g)])):
        pencil = _row_pencil(U)
        directions = _special_directions(pencil, field)
        assert directions == special_directions_by_interpolation(pencil, field)
        assert len(directions) == 3
