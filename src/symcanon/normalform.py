"""The two reduction algorithms: orbit classification of scalar symmetric
pairs, and the K2 = 11 normal form.

Scalar pairs (a b) with a b^t = b a^t reduce to (Id_k | 0) under row and
symplectic column actions; only the total rank k is an orbit invariant, and
the reduction emits self-certifying left/right witnesses.

For a K2 = 11 tableau with three reduced degeneracy points, the three
special generalized rows of A' are found as the roots of a binary form (the
gcd of the 5x5 minors of the row pencil).  The row change makes rows 1, 2
and their sum those three rows, up to scalars; the kernels of their entry
maps, read off the pencil, form a J-orthogonal splitting of k^6 into
hyperbolic planes, and an adapted symplectic basis lands the tableau exactly
on the zero pattern

    [0 a2 a3 | 0 b2 b3]
    [a4 -a2 0 | b4 -b2 0].

The column change is factored into (Op) moves, and the output is built once,
as the replay of the witness word (the row change, then those moves); so the
witness reproduces the output by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Tuple

from . import linalg, univariate
from .errors import ContractError
from .fields import FieldSpec, Scalar
from .poly import PolyRing, binary_minors_gcd, dot, graded_piece
from .tableau import (
    OpMove,
    ScalarTableau,
    SymmetricTableau,
    act_on_columns,
    apply_op_word,
    degeneracy_scheme,
    erase_first_row,
    j_pairing,
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
    first = dot([A2, A3, -B2, -B3], [b2, b3, a2, a3], T.ring)
    second = dot([A1, -A2, -B1, B2], [b4, b2, a4, a2], T.ring)
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
    pair scalings: (P | 0) is column-reduced to (I | 0) by such moves, and
    the word is their inverses in reverse order."""
    field = ring.field
    width = len(P)
    work = [list(r) + [field.zero()] * width for r in P]
    undo: List[List[OpMove]] = []  # inverse word of each reduction step

    def step(word: List[OpMove], inverse: List[OpMove]) -> None:
        for mv in word:
            act_on_columns(work, mv, width, ring)
        undo.append(inverse)

    for c in range(width):
        pivot = next((j for j in range(c, width) if not field.is_zero(work[c][j])), None)
        if pivot is None:
            # invertibility guarantees a pivot after clearing earlier columns
            raise ContractError("block factorization hit a singular pivot")
        if pivot != c:
            swap = OpMove("swap", None, c, pivot)
            step([swap], [swap])
        if work[c][c] != field.one():
            t = work[c][c]
            step(_scale_pair_word(field.inv(t), c, ring), _scale_pair_word(t, c, ring))
        for j in range(width):
            if j != c and not field.is_zero(work[c][j]):
                lam = work[c][j]
                step([OpMove("transfer", field.neg(lam), j, c)], [OpMove("transfer", lam, j, c)])
    assert work == [row + [field.zero()] * width for row in linalg.identity(width, field)]
    return [mv for inverse in reversed(undo) for mv in inverse]


# -- the K2 = 11 reduction ------------------------------------------------------------


@dataclass
class NormalFormK11:
    tableau: SymmetricTableau
    witness_moves: List[OpMove]


Pencil = Callable[[Scalar, Scalar], List[List[Scalar]]]


def _row_pencil(T: SymmetricTableau) -> Pencil:
    """[u1:u2] -> the 6 x 5 coefficient matrix u1*C1 + u2*C2 of the
    generalized row u1*row1 + u2*row2 of A' (rows the six entries, columns
    the variables)."""
    ring = T.ring
    field = ring.field
    aprime = erase_first_row(T)
    C1 = graded_piece(aprime[0], 1, ring, 0).tolist()
    C2 = graded_piece(aprime[1], 1, ring, 0).tolist()
    return lambda u1, u2: [
        [field.add(field.mul(u1, c1), field.mul(u2, c2)) for c1, c2 in zip(r1, r2)]
        for r1, r2 in zip(C1, C2)
    ]


def _special_directions(pencil_matrix: Pencil, field: FieldSpec) -> List[Tuple[Scalar, Scalar]]:
    """The directions [u1:u2] whose generalized row of A' has rank <= 4,
    i.e. cuts one of the degeneracy points: the roots of the gcd of the six
    5x5 minors of the coefficient pencil u1*C1 + u2*C2, a binary form whose
    zero top entries are the root [0:1].  [0:1] comes first, then the
    roots [1:t] by ascending t."""
    C1, C2 = pencil_matrix(field.one(), field.zero()), pencil_matrix(field.zero(), field.one())
    M = [[[c1[i], c2[i]] for c1, c2 in zip(C1, C2)] for i in range(len(C1[0]))]
    g = binary_minors_gcd(M, field)
    if not g:
        raise ContractError("row pencil degenerates identically; not a valid instance")
    at_infinity = [(field.zero(), field.one())] if field.is_zero(g[-1]) else []
    return at_infinity + [(field.one(), t) for t in univariate.roots(univariate.trim(g, field), field)]


def reduce_k11(T: SymmetricTableau) -> NormalFormK11:
    """Reduce a valid K2 = 11 tableau to the normal form, emitting a move
    word; the output is that word's replay on T, built once.

    The three degeneracy points must be cut out by generalized rows of A'
    over the ground field; the assignment of points to the two rows and
    their sum is fixed deterministically by the order of the pencil directions.
    """
    if T.n != 2:
        raise ContractError("reduce_k11 requires n = 2 (K2 = 11)")
    if verify_normal_shape(T).ok:
        return NormalFormK11(T, [])
    scheme = degeneracy_scheme(T)
    if not (scheme.finite and scheme.reduced and scheme.points == 3):
        raise ContractError(
            "not three reduced points: degeneracy scheme reports "
            f"finite={scheme.finite} reduced={scheme.reduced} points={scheme.points}"
        )
    ring = T.ring
    field = ring.field
    pencil = _row_pencil(T)
    directions = _special_directions(pencil, field)
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
    g = [
        [field.one(), field.zero(), field.zero()],
        [field.zero(), field.mul(a, d1[0]), field.mul(a, d1[1])],
        [field.zero(), field.mul(b, d2[0]), field.mul(b, d2[1])],
    ]
    # after the row change, rows 1, 2 and their sum of A' are the generalized
    # rows of d1, d2 and d3 up to nonzero scalars, which leave the reduced
    # echelon form, and so each kernel basis, unchanged
    K1, K3, K2 = (linalg.nullspace(linalg.transpose(pencil(*d)), field, ncols=6) for d in (d1, d3, d2))
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
                if not field.is_zero(j_pairing(u, v, field)):
                    raise ContractError(
                        "case exhausted: row kernels are not J-orthogonal; diagnostic dump: "
                        f"pairing({u},{v}) != 0"
                    )
    basis_cols: List[List[Scalar]] = [[], [], [], [], [], []]
    for slot, K in ((0, K1), (1, K3), (2, K2)):
        f_a, f_b = K
        pairing = j_pairing(f_a, f_b, field)
        if field.is_zero(pairing):
            raise ContractError(
                "case exhausted: degenerate symplectic restriction on a row kernel"
            )
        basis_cols[slot] = list(f_a)
        basis_cols[slot + 3] = [field.div(c, pairing) for c in f_b]
    S = linalg.transpose(basis_cols)
    moves = [rows_move(g)] + factor_symplectic(S, ring)
    out = apply_op_word(T, moves)
    shape = verify_normal_shape(out)
    assert shape.ok, f"reduction postcondition failed: {shape.violations}"
    return NormalFormK11(out, moves)
