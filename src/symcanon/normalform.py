"""The two reduction algorithms: orbit classification of scalar symmetric
pairs, and the K2 = 11 normal form.

Scalar pairs (a b) with a b^t = b a^t reduce to (Id_k | 0) under row and
symplectic column actions; only the total rank k is an orbit invariant, and
the reduction emits self-certifying left/right witnesses.

For a K2 = 11 tableau with three reduced degeneracy points, the three
special generalized rows of A' are found as the roots of a binary form (the
gcd of the 5x5 minors of the row pencil); after the row change, the kernels
of the three rows' entry maps form a J-orthogonal splitting of k^6 into
hyperbolic planes, and an adapted symplectic basis lands the tableau exactly
on the zero pattern

    [0 a2 a3 | 0 b2 b3]
    [a4 -a2 0 | b4 -b2 0].

The column change is factored into (Op) moves, so the witness is a replayable
move word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg, univariate
from .errors import ContractError
from .fields import FieldSpec, Scalar
from .ideals import GBConfig, DEFAULT_GB_CONFIG
from .poly import Polynomial, PolyRing, graded_piece
from .tableau import (
    OpMove,
    ScalarTableau,
    SymmetricTableau,
    apply_op,
    apply_op_word,
    apply_symplectic,
    degeneracy_scheme,
    erase_first_row,
    mirror_pair_word,
    move_word_matrix,
    rows_move,
    symplectic_defect,
)

# -- scalar orbit classification -------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    r: int  # rank of the reduced a-block
    s: int  # rank of the residual b-block

    @property
    def k(self) -> int:
        return self.r + self.s


@dataclass
class OrbitReduction:
    cls: OrbitClass
    canonical: ScalarTableau
    left: List[List[Scalar]]
    right: List[List[Scalar]]  # symplectic


def _rref_with_transform(rows: List[List[Scalar]], field: FieldSpec):
    """(L, R, pivots) with L * rows = R in reduced echelon form."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [field.one() if i == j else field.zero() for j in range(m)] for i, r in enumerate(rows)]
    red, pivots = linalg.rref(aug, field)
    pivots = [p for p in pivots if p < n]
    L = [row[n:] for row in red]
    R = [row[:n] for row in red]
    return L, R, pivots


def _column_normalizer(rows: List[List[Scalar]], field: FieldSpec):
    """(L, E, r): L*rows*E = (Id_r | 0) block form, E invertible."""
    m = len(rows)
    n = len(rows[0])
    L, R, pivots = _rref_with_transform(rows, field)
    r = len(pivots)
    null = linalg.nullspace(R, field, ncols=n)
    cols = []
    for p in pivots:
        cols.append([field.one() if i == p else field.zero() for i in range(n)])
    cols.extend(null)
    E = linalg.transpose(cols)
    return L, E, r


def scalar_orbit_reduce(M: ScalarTableau) -> OrbitReduction:
    """Classify a symmetric scalar pair into its rank orbit and certify the
    reduction: canonical = left * M * right with right symplectic.

    The class is a function of the orbit alone; r and s record how the total
    rank split across the two phases of this particular reduction.
    """
    ring = M.ring
    field = ring.field
    n, width = M.n, M.n + 1

    def blockdiag(P, Q):
        size = len(P)
        out = [[field.zero()] * (2 * width) for _ in range(2 * width)]
        for i in range(width):
            for j in range(width):
                out[i][j] = P[i][j]
                out[width + i][width + j] = Q[i][j]
        return out

    # phase 1: a -> (Id_r | 0)
    L1, E, r = _column_normalizer(M.a, field)
    S1 = blockdiag(E, linalg.transpose(linalg.inverse(E, field)))
    a1 = linalg.matmul(linalg.matmul(L1, M.a, field), E, field)
    b1 = linalg.matmul(linalg.matmul(L1, M.b, field), linalg.transpose(linalg.inverse(E, field)), field)

    # symmetry forces b1 = [[b11 symmetric, b12], [0, b3]] relative to r
    for i in range(r, n):
        for j in range(r):
            assert field.is_zero(b1[i][j]), "symmetry zero block violated"
    for i in range(r):
        for j in range(r):
            assert b1[i][j] == b1[j][i], "b11 must be symmetric"

    # phase 2: clear the top rows of b with one symmetric block C
    C = [[field.zero()] * width for _ in range(width)]
    for i in range(r):
        for j in range(width):
            C[i][j] = field.neg(b1[i][j])
    for j in range(r, width):
        for i in range(r):
            C[j][i] = field.neg(b1[i][j])
    S2 = [[field.one() if i == j else field.zero() for j in range(2 * width)] for i in range(2 * width)]
    for i in range(width):
        for j in range(width):
            S2[i][width + j] = C[i][j]
    a1C = linalg.matmul(a1, C, field)
    b2 = [[field.add(b1[i][j], a1C[i][j]) for j in range(width)] for i in range(n)]
    a2 = a1

    # phase 3: reduce the residual block rows r..n-1, cols r..width-1
    sub = [[b2[i][j] for j in range(r, width)] for i in range(r, n)]
    if n - r > 0:
        L3s, F_sub, s_rank = _column_normalizer(sub, field)
    else:
        L3s, F_sub, s_rank = [], linalg.identity(width - r, field), 0
    L3 = linalg.identity(n, field)
    for i in range(n - r):
        for j in range(n - r):
            L3[r + i][r + j] = L3s[i][j]
    F = linalg.identity(width, field)
    for i in range(width - r):
        for j in range(width - r):
            F[r + i][r + j] = F_sub[i][j]
    S3 = blockdiag(linalg.transpose(linalg.inverse(F, field)), F)
    a3 = linalg.matmul(linalg.matmul(L3, a2, field), linalg.transpose(linalg.inverse(F, field)), field)
    b3 = linalg.matmul(linalg.matmul(L3, b2, field), F, field)

    # phase 4: rotate the s fresh unit columns from b into a
    S4 = move_word_matrix([OpMove("rotate", None, mu) for mu in range(r, r + s_rank)], width, ring)

    left = linalg.matmul(L3, L1, field)
    right = linalg.matmul(linalg.matmul(S1, S2, field), linalg.matmul(S3, S4, field), field)

    full = linalg.matmul(linalg.matmul(left, M.full_matrix(), field), right, field)
    k = r + s_rank
    canon_a = [[field.one() if (i == j and i < k) else field.zero() for j in range(width)] for i in range(n)]
    canon_b = [[field.zero()] * width for _ in range(n)]
    assert full == [ra + rb for ra, rb in zip(canon_a, canon_b)], "orbit reduction postcondition failed"
    defect = symplectic_defect(right, ring)
    assert all(field.is_zero(c) for row in defect for c in row), "right witness not symplectic"
    return OrbitReduction(OrbitClass(r, s_rank), ScalarTableau(ring, canon_a, canon_b), left, right)


# -- normal shape check ------------------------------------------------------------


@dataclass
class ShapeReport:
    ok: bool
    violations: List[str]


def verify_normal_shape(T: SymmetricTableau) -> ShapeReport:
    """Zero pattern, the two +/- pairings, and the two cubic symmetry
    identities of the K2 = 11 normal form."""
    violations: List[str] = []
    if T.n != 2:
        return ShapeReport(False, ["normal form requires n = 2"])
    aprime = erase_first_row(T)
    zeros = [(0, 0), (0, 3), (1, 2), (1, 5)]
    for (i, j) in zeros:
        if not aprime[i][j].is_zero():
            violations.append(f"entry ({i + 2},{j + 1}) of A must vanish, got {aprime[i][j]}")
    if aprime[1][1] != -aprime[0][1]:
        violations.append("entry (3,2) must be the negative of entry (2,2)")
    if aprime[1][4] != -aprime[0][4]:
        violations.append("entry (3,5) must be the negative of entry (2,5)")
    A1, A2, A3 = T.alpha[0]
    B1, B2, B3 = T.beta[0]
    a2, a3 = aprime[0][1], aprime[0][2]
    b2, b3 = aprime[0][4], aprime[0][5]
    a4, b4 = aprime[1][0], aprime[1][3]
    first = A2 * b2 + A3 * b3 - B2 * a2 - B3 * a3
    second = A1 * b4 - A2 * b2 - B1 * a4 + B2 * a2
    if not first.is_zero():
        violations.append("cubic identity A2 b2 + A3 b3 - B2 a2 - B3 a3 != 0")
    if not second.is_zero():
        violations.append("cubic identity A1 b4 - A2 b2 - B1 a4 + B2 a2 != 0")
    return ShapeReport(not violations, violations)


# -- symplectic factorization into (Op) moves ---------------------------------------


def _scale_pair_word(t: Scalar, mu: int, ring: PolyRing) -> List[OpMove]:
    """diag(t, 1/t) on the column pair mu: alpha_mu *= t, beta_mu /= t."""
    field = ring.field
    inv = field.inv(t)
    word = (
        mirror_pair_word(t, mu, mu, ring)
        + [OpMove("add_col_same", field.neg(inv), mu)]
        + mirror_pair_word(t, mu, mu, ring)
        + [OpMove("rotate", None, mu)]
    )
    return word


def factor_symplectic(S: List[List[Scalar]], ring: PolyRing) -> List[OpMove]:
    """Factor a scalar symplectic matrix into a word of column (Op) moves
    whose matrices multiply, in application order, to S.

    Rotations make the alpha-block invertible, the Bruhat-style splitting
    S = (lower)(block-diagonal)(upper) peels off the two symmetric shear
    blocks, and the invertible block is Gauss-factored through transfers,
    swaps and pair scalings.  The result is verified by replay.
    """
    field = ring.field
    size = len(S)
    width = size // 2
    if any(not field.is_zero(c) for row in symplectic_defect(S, ring) for c in row):
        raise ContractError("factor_symplectic requires a symplectic matrix")

    from itertools import combinations

    rotation_set: Optional[Tuple[int, ...]] = None
    Sp = None
    for sz in range(width + 1):
        for subset in combinations(range(width), sz):
            rot_word = [OpMove("rotate", None, mu) for mu in subset]
            W = move_word_matrix(rot_word, width, ring)
            cand = linalg.matmul(S, W, field)
            P = [[cand[i][j] for j in range(width)] for i in range(width)]
            if linalg.det(P, field) != field.zero():
                rotation_set = subset
                Sp = cand
                break
        if rotation_set is not None:
            break
    assert rotation_set is not None, "no rotation subset exposes an invertible block"

    P = [[Sp[i][j] for j in range(width)] for i in range(width)]
    Q = [[Sp[i][width + j] for j in range(width)] for i in range(width)]
    R = [[Sp[width + i][j] for j in range(width)] for i in range(width)]
    Pinv = linalg.inverse(P, field)
    X = linalg.matmul(R, Pinv, field)  # symmetric
    Y = linalg.matmul(Pinv, Q, field)  # symmetric

    word: List[OpMove] = []
    # lower factor [[I,0],[X,I]]: alpha_mu += X[mu][nu] beta_nu, X symmetric
    for mu in range(width):
        if not field.is_zero(X[mu][mu]):
            word.append(OpMove("add_col_same", X[mu][mu], mu))
        for nu in range(mu + 1, width):
            if not field.is_zero(X[mu][nu]):
                word.append(OpMove("add_col_pair", X[mu][nu], mu, nu))
    # block-diagonal factor: Gauss-factor P by column operations
    word.extend(_factor_block_diag(P, ring))
    # upper factor [[I,Y],[0,I]]
    for mu in range(width):
        if not field.is_zero(Y[mu][mu]):
            word.extend(mirror_pair_word(Y[mu][mu], mu, mu, ring))
        for nu in range(mu + 1, width):
            if not field.is_zero(Y[mu][nu]):
                word.extend(mirror_pair_word(Y[mu][nu], mu, nu, ring))
    # undo the initial rotations
    for mu in reversed(rotation_set):
        word.extend([OpMove("rotate", None, mu)] * 3)

    total = move_word_matrix(word, width, ring)
    assert total == S, "symplectic factorization replay mismatch"
    return word


def _factor_block_diag(P: List[List[Scalar]], ring: PolyRing) -> List[OpMove]:
    """Word with matrix diag-block(P, P^{-t}) out of transfers, swaps and
    pair scalings; obtained by column-reducing P to the identity."""
    field = ring.field
    width = len(P)
    work = [list(r) for r in P]
    applied: List[tuple] = []  # ops used to reduce work to the identity

    def apply_transfer(lam, mu, nu):
        for i in range(width):
            work[i][mu] = field.add(work[i][mu], field.mul(lam, work[i][nu]))
        applied.append(("transfer", lam, mu, nu))

    def apply_swap(mu, nu):
        for i in range(width):
            work[i][mu], work[i][nu] = work[i][nu], work[i][mu]
        applied.append(("swap", None, mu, nu))

    def apply_scale(t, mu):
        for i in range(width):
            work[i][mu] = field.mul(work[i][mu], t)
        applied.append(("scale", t, mu, None))

    for c in range(width):
        pivot = next((j for j in range(c, width) if not field.is_zero(work[c][j])), None)
        if pivot is None:
            # invertibility guarantees a pivot after clearing earlier columns
            raise ContractError("block factorization hit a singular pivot")
        if pivot != c:
            apply_swap(c, pivot)
        if work[c][c] != field.one():
            apply_scale(field.inv(work[c][c]), c)
        for j in range(width):
            if j != c and not field.is_zero(work[c][j]):
                apply_transfer(field.neg(work[c][j]), j, c)
    assert work == linalg.identity(width, field)

    word: List[OpMove] = []
    for kind, lam, mu, nu in reversed(applied):
        if kind == "transfer":
            word.append(OpMove("transfer", field.neg(lam), mu, nu))
        elif kind == "swap":
            word.append(OpMove("swap", None, mu, nu))
        else:
            word.extend(_scale_pair_word(field.inv(lam), mu, ring))
    return word


# -- the K2 = 11 reduction ------------------------------------------------------------


@dataclass
class NormalFormK11:
    tableau: SymmetricTableau
    witness_moves: List[OpMove]


def _special_directions(T: SymmetricTableau) -> List[Tuple[Scalar, Scalar]]:
    """The directions [u1:u2] whose generalized row of A' has rank <= 4,
    i.e. cuts one of the degeneracy points: common roots of the six 5x5
    minors of the coefficient pencil u1*C1 + u2*C2."""
    ring = T.ring
    field = ring.field
    if field.characteristic and field.characteristic < 7:
        raise ContractError("direction search interpolates a binary quintic; needs char 0 or >= 7")
    aprime = erase_first_row(T)
    C1 = graded_piece(aprime[0], 1, ring, 0).tolist()  # 6 x 5
    C2 = graded_piece(aprime[1], 1, ring, 0).tolist()
    # each 5-row subset of the 6x5 pencil C1 + t C2 has a determinant of
    # degree <= 5 in t, recovered exactly from 6 evaluation points; the
    # direction at infinity [0:1] is checked by a direct rank computation
    from itertools import combinations

    def pencil_matrix(u1: Scalar, u2: Scalar) -> List[List[Scalar]]:
        return [
            [field.add(field.mul(u1, C1[r][c]), field.mul(u2, C2[r][c])) for c in range(5)]
            for r in range(6)
        ]

    # coefficients of det(rows subset) as a univariate polynomial in t for
    # the pencil C1 + t C2, recovered from 6 evaluation points
    sample_points = _interpolation_points(field, 6)
    quintics: List[List[Scalar]] = []
    for rows_sel in combinations(range(6), 5):
        values = []
        for t in sample_points:
            m = pencil_matrix(field.one(), t)
            sub = [m[r] for r in rows_sel]
            values.append(linalg.det(sub, field))
        quintics.append(_interpolate(sample_points, values, field))
    g = []
    for q in quintics:
        g = univariate.gcd(g, q, field) if g else univariate.trim(q, field)
    roots: List[Tuple[Scalar, Scalar]] = []
    if univariate.degree(univariate.trim(g, field)) >= 1:
        for t in univariate.roots(g, field):
            roots.append((field.one(), t))
    elif not g:
        raise ContractError("row pencil degenerates identically; not a valid instance")
    # direction at infinity [0 : 1] (pure second row)
    m_inf = [[C2[r][c] for c in range(5)] for r in range(6)]
    if linalg.rank(m_inf, field) <= 4:
        roots.append((field.zero(), field.one()))
    return sorted(roots, key=_direction_sort_key)


def _direction_sort_key(d: Tuple[Scalar, Scalar]):
    u1, u2 = d
    if not u1:
        return (0, Fraction(0))
    # normalized representatives compare exactly (ints over GF(p),
    # Fractions over Q)
    return (1, Fraction(u2) if isinstance(u2, Fraction) else Fraction(int(u2)))


def _interpolation_points(field: FieldSpec, count: int) -> List[Scalar]:
    return [field.of_int(i) for i in range(count)]


def _interpolate(xs: List[Scalar], ys: List[Scalar], field: FieldSpec) -> List[Scalar]:
    """Lagrange interpolation, coefficients ascending."""
    result: List[Scalar] = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [field.one()]
        denom = field.one()
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = univariate.mul(basis, [field.neg(xj), field.one()], field)
            denom = field.mul(denom, field.sub(xi, xj))
        result = univariate.add(
            result, univariate.scale(basis, field.div(yi, denom), field), field
        )
    return result


def _kernel_of_row(row: Sequence[Polynomial], ring: PolyRing) -> List[List[Scalar]]:
    coeffs = graded_piece(row, 1, ring, 0)  # 6 x 5; kernel wants c with sum c_j row_j = 0
    return linalg.nullspace(coeffs.T.tolist(), ring.field, ncols=6)


def _j_pairing(u: Sequence[Scalar], v: Sequence[Scalar], field: FieldSpec) -> Scalar:
    half = len(u) // 2
    total = field.zero()
    for i in range(half):
        total = field.add(total, field.mul(u[i], v[half + i]))
        total = field.sub(total, field.mul(u[half + i], v[i]))
    return total


def reduce_k11(T: SymmetricTableau, config: GBConfig = DEFAULT_GB_CONFIG) -> NormalFormK11:
    """Reduce a valid K2 = 11 tableau to the normal form, emitting a move
    word whose replay reproduces the output exactly.

    The three degeneracy points must be cut out by generalized rows of A'
    over the ground field; the assignment of points to the two rows and
    their sum is fixed deterministically by sorting the pencil directions.
    """
    if T.n != 2:
        raise ContractError("reduce_k11 requires n = 2 (K2 = 11)")
    if verify_normal_shape(T).ok:
        return NormalFormK11(T, [])
    scheme = degeneracy_scheme(T, config=config)
    if not (scheme.finite and scheme.reduced and scheme.points == 3):
        raise ContractError(
            "not three reduced points: degeneracy scheme reports "
            f"finite={scheme.finite} reduced={scheme.reduced} points={scheme.points}"
        )
    ring = T.ring
    field = ring.field
    directions = _special_directions(T)
    if len(directions) != 3:
        raise ContractError(
            f"case exhausted: expected 3 special row directions, found {len(directions)}; "
            "this contradicts the three reduced points and would falsify the implementation "
            "or the instance (diagnostic: directions = " + repr(directions) + ")"
        )
    d1, d2, d3 = directions
    # scalings: a*d1 + b*d2 = d3 so that row1 + row2 cuts the third point
    sol = linalg.solve_particular(
        linalg.transpose([list(d1), list(d2)]), list(d3), field
    )
    assert sol is not None and not field.is_zero(sol[0]) and not field.is_zero(sol[1])
    a, b = sol
    phi = [
        [field.mul(a, d1[0]), field.mul(a, d1[1])],
        [field.mul(b, d2[0]), field.mul(b, d2[1])],
    ]
    g = [
        [field.one(), field.zero(), field.zero()],
        [field.zero(), phi[0][0], phi[0][1]],
        [field.zero(), phi[1][0], phi[1][1]],
    ]
    row_change = rows_move(g)
    T1 = apply_op(T, row_change)

    aprime = erase_first_row(T1)
    row1, row2 = aprime[0], aprime[1]
    row_sum = [x + y for x, y in zip(row1, row2)]
    K1 = _kernel_of_row(row1, ring)
    K3 = _kernel_of_row(row_sum, ring)
    K2 = _kernel_of_row(row2, ring)
    for name, K in (("row 1", K1), ("row 1 + row 2", K3), ("row 2", K2)):
        if len(K) != 2:
            raise ContractError(
                f"case exhausted: kernel of {name} has dimension {len(K)}, expected 2 "
                "(diagnostic dump: the generalized row does not cut a single point)"
            )
    # pairwise J-orthogonality and per-plane nondegeneracy
    for KA, KB in ((K1, K2), (K1, K3), (K2, K3)):
        for u in KA:
            for v in KB:
                if not field.is_zero(_j_pairing(u, v, field)):
                    raise ContractError(
                        "case exhausted: row kernels are not J-orthogonal; diagnostic dump: "
                        f"pairing({u},{v}) != 0"
                    )
    basis_cols: List[List[Scalar]] = [[], [], [], [], [], []]
    for slot, K in ((0, K1), (1, K3), (2, K2)):
        f_a, f_b = K
        pairing = _j_pairing(f_a, f_b, field)
        if field.is_zero(pairing):
            raise ContractError(
                "case exhausted: degenerate symplectic restriction on a row kernel"
            )
        f_b = [field.div(c, pairing) for c in f_b]
        basis_cols[slot] = list(f_a)
        basis_cols[slot + 3] = f_b
    S = linalg.transpose(basis_cols)
    T2 = apply_symplectic(T1, S)
    shape = verify_normal_shape(T2)
    assert shape.ok, f"reduction postcondition failed: {shape.violations}"

    moves = [row_change] + factor_symplectic(S, ring)
    replay = apply_op_word(T, moves)
    assert replay == T2, "witness replay does not reproduce the output"
    return NormalFormK11(T2, moves)
