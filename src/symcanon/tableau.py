"""Symmetric presentation tableaux A = (alpha beta) and the (Op) calculus.

A tableau has square blocks alpha, beta of size (n+1) over k[x0..x4], cubic
forms in the first row, linear forms elsewhere, and satisfies the exact
symmetry alpha beta^t = beta alpha^t.  The six symmetry-preserving moves
(row mixes fixing the first row, the four column-coupling moves, pair swaps
and pair rotations) act on it; together they realize the PGl x PSp action.
Scalar tableaux (the n x (2n+2) degree-0 analogue) share the same move
engine: every column move is its symplectic scalar matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import ContractError
from .fields import Scalar
from .ideals import (
    GBConfig,
    DEFAULT_GB_CONFIG,
    Ideal,
    _zero_dim_saturated,
    dimension,
    saturate,
)
from .poly import Polynomial, PolyRing

PolyMatrix = List[List[Polynomial]]


def _first_asymmetry(a, b, dot) -> Optional[Tuple[int, int]]:
    """First entry (i, j), 1-based in row-major order, where a b^t and b a^t
    differ, or None.  Their difference is skew for any blocks, and a failing
    entry below the diagonal has its partner above it, earlier; so only
    i < j is compared, as dot(a_i, b_j) against dot(a_j, b_i)."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if dot(a[i], b[j]) != dot(a[j], b[i]):
                return i + 1, j + 1
    return None


def check_symmetry(
    alpha: PolyMatrix, beta: PolyMatrix, ring: PolyRing
) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Entrywise test of alpha beta^t = beta alpha^t, on the upper triangle.

    Returns (True, None) or (False, (i, j)) with the first failing entry in
    row-major order, 1-based.  Degree layout is not examined here, so scalar
    toys can be checked too.
    """
    where = _first_asymmetry(alpha, beta, lambda u, v: sum(map(operator.mul, u, v), ring.zero()))
    return where is None, where


def _validate_degree_layout(rows: PolyMatrix, first_row_degree: int) -> Optional[str]:
    for i, row in enumerate(rows):
        want = first_row_degree if i == 0 else 1
        for j, entry in enumerate(row):
            if entry.is_zero():
                continue
            if entry.homogeneous_degree() != want:
                return (
                    f"entry ({i + 1},{j + 1}) must be homogeneous of degree {want}, "
                    f"got {entry}"
                )
    return None


class SymmetricTableau:
    """The (n+1) x (2n+2) tableau A = (alpha beta) of Thm-1.5 degree layout.

    Constructors refuse asymmetric or badly graded data: symmetry is a
    structural invariant here, not a runtime flag.
    """

    def __init__(self, ring: PolyRing, alpha: PolyMatrix, beta: PolyMatrix):
        m = len(alpha)
        if m < 2:
            raise ContractError("tableau needs n >= 1 (at least 2 rows)")
        if any(len(r) != m for r in alpha) or len(beta) != m or any(len(r) != m for r in beta):
            raise ContractError("alpha and beta must be square of equal size")
        layout = _validate_degree_layout(
            [ar + br for ar, br in zip(alpha, beta)], first_row_degree=3
        )
        if layout:
            raise ContractError(f"degree layout violation: {layout}")
        ok, where = check_symmetry(alpha, beta, ring)
        if not ok:
            raise ContractError(
                f"symmetry alpha*beta^t = beta*alpha^t fails at entry {where}"
            )
        self.ring = ring
        self.n = m - 1
        self.alpha = [list(r) for r in alpha]
        self.beta = [list(r) for r in beta]

    # -- views ---------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.n + 1

    def full_matrix(self) -> PolyMatrix:
        """A = (alpha beta), an (n+1) x (2n+2) matrix."""
        return [ar + br for ar, br in zip(self.alpha, self.beta)]

    def row(self, i: int) -> List[Polynomial]:
        return self.alpha[i] + self.beta[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymmetricTableau)
            and self.ring == other.ring
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __repr__(self):
        return f"SymmetricTableau(n={self.n})"

    # -- hooks of the move engine (apply_op_word) ----------------------------

    def _row_matrix(self, g: List[List[Scalar]]) -> List[List[Scalar]]:
        m = self.n + 1
        if len(g) != m or any(len(r) != m for r in g):
            raise ContractError("rows(g): g must be (n+1) x (n+1)")
        field = self.ring.field
        first_ok = all(
            (field.is_zero(c) if j else c == field.one()) for j, c in enumerate(g[0])
        ) and all(field.is_zero(g[i][0]) for i in range(1, m))
        if not first_ok:
            raise ContractError("rows(g): g must have the block form diag(1, phi)")
        return _invertible(g, field)

    def _acted(self, G, S) -> "SymmetricTableau":
        return act_on_blocks(self, G, S)


# -- moves ---------------------------------------------------------------------

ROW_KINDS = ("rows",)
COLUMN_KINDS = ("add_col_same", "add_col_pair", "transfer", "swap", "rotate")


@dataclass(frozen=True)
class OpMove:
    """One of the six symmetry-preserving operations.

    kind/parameters (column indices are 0-based, lam a field scalar):
      rows(g)              row mix by g, first row fixed for graded tableaux
      add_col_same(lam,mu) alpha_mu += lam * beta_mu
      add_col_pair(lam,mu,nu) alpha_mu += lam*beta_nu and alpha_nu += lam*beta_mu
      transfer(lam,mu,nu)  alpha_mu += lam*alpha_nu and beta_nu -= lam*beta_mu
      swap(mu,nu)          exchange column pairs mu and nu
      rotate(mu)           alpha_mu -> beta_mu, beta_mu -> -alpha_mu
    """

    kind: str
    lam: Optional[Scalar] = None
    mu: Optional[int] = None
    nu: Optional[int] = None
    g: Optional[Tuple[Tuple[Scalar, ...], ...]] = None

    def __post_init__(self):
        if self.kind not in ROW_KINDS + COLUMN_KINDS:
            raise ContractError(f"unknown move kind {self.kind!r}")


def rows_move(g: Sequence[Sequence[Scalar]]) -> OpMove:
    return OpMove("rows", g=tuple(tuple(r) for r in g))


def _check_index(mu, width: int):
    if not isinstance(mu, int) or not 0 <= mu < width:
        raise ContractError(f"column index {mu} out of range 0..{width - 1}")


def column_move_matrix(move: OpMove, width: int, ring: PolyRing) -> List[List[Scalar]]:
    """The symplectic 2*width x 2*width matrix M of a column move (A -> A*M).

    This is the only place that turns a column move kind into an action;
    the indices and the scalar are validated here.
    """
    field = ring.field
    k, mu, nu, lam = move.kind, move.mu, move.nu, move.lam
    if k not in COLUMN_KINDS:
        raise ContractError(f"not a column move: {k}")
    _check_index(mu, width)
    if k in ("add_col_pair", "transfer", "swap"):
        _check_index(nu, width)
    if k == "transfer" and mu == nu:
        raise ContractError("transfer needs distinct column indices")
    if k in ("add_col_same", "add_col_pair", "transfer") and lam is None:
        raise ContractError(f"{k} needs a scalar lam")
    m = linalg.identity(2 * width, field)
    if k == "swap":
        for base in (0, width):
            m[base + mu][base + mu] = field.zero()
            m[base + nu][base + nu] = field.zero()
            m[base + mu][base + nu] = field.one()
            m[base + nu][base + mu] = field.one()
    elif k == "rotate":
        m[mu][mu] = field.zero()
        m[width + mu][width + mu] = field.zero()
        m[width + mu][mu] = field.one()
        m[mu][width + mu] = field.neg(field.one())
    elif k == "add_col_same":
        m[width + mu][mu] = lam
    elif k == "add_col_pair":
        m[width + nu][mu] = field.add(m[width + nu][mu], lam)
        m[width + mu][nu] = field.add(m[width + mu][nu], lam)
    else:  # transfer
        m[nu][mu] = lam
        m[width + mu][width + nu] = field.neg(lam)
    return m


def move_word_matrix(moves: Sequence[OpMove], width: int, ring: PolyRing) -> List[List[Scalar]]:
    """Product of the column-move matrices of a word, in application order."""
    field = ring.field
    total = linalg.identity(2 * width, field)
    for mv in moves:
        total = linalg.matmul(total, column_move_matrix(mv, width, ring), field)
    return total


def mirror_pair_word(lam: Scalar, mu: int, nu: int, ring: PolyRing) -> List[OpMove]:
    """beta_mu += lam*alpha_nu and beta_nu += lam*alpha_mu, alpha fixed, as a
    rotate-conjugated word; for mu == nu it is beta_mu += lam*alpha_mu."""
    field = ring.field
    rot = lambda m: OpMove("rotate", None, m)
    if mu == nu:
        return [rot(mu), OpMove("add_col_same", field.neg(lam), mu), rot(mu), rot(mu), rot(mu)]
    return [
        rot(mu),
        rot(nu),
        OpMove("add_col_pair", field.neg(lam), mu, nu),
        rot(mu), rot(mu), rot(mu),
        rot(nu), rot(nu), rot(nu),
    ]


def symplectic_defect(S: List[List[Scalar]], ring: PolyRing) -> List[List[Scalar]]:
    """S J S^t - J for the standard form J = ((0, I), (-I, 0))."""
    field = ring.field
    size = len(S)
    half = size // 2
    J = [[field.zero()] * size for _ in range(size)]
    for i in range(half):
        J[i][half + i] = field.one()
        J[half + i][i] = field.neg(field.one())
    SJ = linalg.matmul(S, J, field)
    SJSt = linalg.matmul(SJ, linalg.transpose(S), field)
    return [
        [field.sub(SJSt[i][j], J[i][j]) for j in range(size)] for i in range(size)
    ]


def _require_symplectic(S: List[List[Scalar]], ring: PolyRing) -> None:
    defect = symplectic_defect(S, ring)
    if any(not ring.field.is_zero(c) for row in defect for c in row):
        raise ContractError(f"matrix is not symplectic; defect = {defect}")


def _invertible(g: List[List[Scalar]], field) -> List[List[Scalar]]:
    if linalg.det(g, field) == field.zero():
        raise ContractError("rows(g): g must be invertible")
    return g


def _combination(coeffs: Sequence[Scalar], polys: Sequence[Polynomial], ring: PolyRing) -> Polynomial:
    """sum_k coeffs[k] * polys[k], skipping zero coefficients and entries."""
    field = ring.field
    pairs = [(c, f) for c, f in zip(coeffs, polys) if not field.is_zero(c) and f.terms]
    if len(pairs) == 1 and pairs[0][0] == field.one():
        return pairs[0][1]
    zero = field.zero()
    out: dict = {}
    for c, f in pairs:
        for m, v in f.terms.items():
            out[m] = field.add(out.get(m, zero), field.mul(c, v))
    return Polynomial(ring, {m: v for m, v in out.items() if not field.is_zero(v)})


def act_on_blocks(T, G: Optional[List[List[Scalar]]], S: List[List[Scalar]]):
    """type(T) rebuilt from G * (alpha beta) * S, G None for the identity.

    Serves every tableau class with polynomial blocks ``alpha``, ``beta``;
    the result passes the class's validating constructor once.
    """
    ring = T.ring
    w = len(T.alpha)
    full = [ar + br for ar, br in zip(T.alpha, T.beta)]
    full = [[_combination(col, row, ring) for col in zip(*S)] for row in full]
    if G is not None:
        by_col = list(zip(*full))
        full = [[_combination(g_row, col, ring) for col in by_col] for g_row in G]
    return type(T)(ring, [r[:w] for r in full], [r[w:] for r in full])


def apply_op_word(T, moves: Sequence[OpMove]):
    """Apply a word of (Op) moves to a SymmetricTableau, a SquareSymmetricPair
    or a ScalarTableau.

    Row and column actions commute, so the word acts as G * (alpha beta) * S:
    G is the product of its row matrices, S the product of its column
    matrices in application order.  Symmetry is checked on scalars inside
    the word (S must be symplectic) and exactly on the result, which is
    built once through the validating constructor.
    """
    ring = T.ring
    field = ring.field
    G = None
    for mv in moves:
        if mv.kind == "rows":
            g = T._row_matrix([list(r) for r in mv.g])
            G = g if G is None else linalg.matmul(g, G, field)
    S = move_word_matrix([mv for mv in moves if mv.kind != "rows"], T.width, ring)
    _require_symplectic(S, ring)
    return T._acted(G, S)


def apply_op(T, move: OpMove):
    """Apply one (Op) move, as the one-move word."""
    return apply_op_word(T, [move])


def apply_symplectic(T, S: List[List[Scalar]]):
    """Transform the columns by a scalar symplectic S; rejected with the
    defect matrix S J S^t - J when S is not symplectic."""
    size = 2 * T.width
    if len(S) != size or any(len(r) != size for r in S):
        raise ContractError(f"symplectic matrix must be {size} x {size}")
    _require_symplectic(S, T.ring)
    return T._acted(None, S)


# -- Fitting ideals and the degeneracy scheme -----------------------------------


def matrix_minor(rows: PolyMatrix, row_idx: Tuple[int, ...], col_idx: Tuple[int, ...], ring: PolyRing, _memo=None) -> Polynomial:
    """Determinant of a square submatrix by cofactor recursion, memoized on
    the(row, column) index pair."""
    if _memo is None:
        _memo = {}
    key = (row_idx, col_idx)
    if key in _memo:
        return _memo[key]
    k = len(row_idx)
    if k == 0:
        return ring.one()
    if k == 1:
        result = rows[row_idx[0]][col_idx[0]]
    else:
        result = ring.zero()
        r0 = row_idx[0]
        rest_rows = row_idx[1:]
        for pos, c in enumerate(col_idx):
            entry = rows[r0][c]
            if entry.is_zero():
                continue
            sub = matrix_minor(
                rows, rest_rows, col_idx[:pos] + col_idx[pos + 1 :], ring, _memo
            )
            term = entry * sub
            result = result + term if pos % 2 == 0 else result - term
    _memo[key] = result
    return result


def fitting_ideal(M: PolyMatrix, k: int, ring: PolyRing) -> Ideal:
    """Ideal of all k x k minors of M."""
    from itertools import combinations

    nrows = len(M)
    ncols = len(M[0]) if M else 0
    if not 0 < k <= min(nrows, ncols):
        raise ContractError(f"minor size {k} out of range for {nrows} x {ncols}")
    memo: dict = {}
    gens = []
    for rows_sel in combinations(range(nrows), k):
        for cols_sel in combinations(range(ncols), k):
            gens.append(matrix_minor(M, rows_sel, cols_sel, ring, memo))
    return Ideal(ring, gens)


def erase_first_row(T: SymmetricTableau) -> PolyMatrix:
    """A' := A with the first row erased, an n x (2n+2) linear-form matrix."""
    return [row[:] for row in T.full_matrix()[1:]]


@dataclass
class DegeneracyScheme:
    ideal: Ideal  # saturated I_n(A')
    finite: bool
    reduced: Optional[bool]
    points: Optional[int]
    length: Optional[int] = None


def degeneracy_scheme(T: SymmetricTableau, config: GBConfig = DEFAULT_GB_CONFIG) -> DegeneracyScheme:
    """Saturated I_n(A') together with finiteness, reducedness and the
    distinct-point count; the nonnormal locus of the surface."""
    aprime = erase_first_row(T)
    I = fitting_ideal(aprime, T.n, T.ring)
    sat = saturate(I, config=config)
    if not sat.generators:
        # rank drops everywhere: the whole projective space degenerates
        return DegeneracyScheme(sat, False, None, None)
    if sat.contains_one():
        return DegeneracyScheme(sat, True, None, 0, 0)
    dim = dimension(sat, config=config)
    if dim > 1:
        return DegeneracyScheme(sat, False, None, None)
    analysis = _zero_dim_saturated(sat)
    return DegeneracyScheme(sat, True, analysis.reduced, analysis.points, analysis.length)


# -- scalar tableaux -------------------------------------------------------------


class ScalarTableau:
    """Scalar pair (a b), n x (n+1) blocks with a b^t = b a^t.

    Shares the move engine with the graded tableau: column moves act by
    their scalar matrices, row moves by any invertible n x n matrix.
    """

    def __init__(self, ring: PolyRing, a: List[List[Scalar]], b: List[List[Scalar]]):
        n = len(a)
        if n < 1 or any(len(r) != n + 1 for r in a) or len(b) != n or any(
            len(r) != n + 1 for r in b
        ):
            raise ContractError("scalar tableau blocks must be n x (n+1)")
        where = _first_asymmetry(a, b, lambda u, v: linalg.matvec([u], v, ring.field)[0])
        if where:
            raise ContractError(f"scalar symmetry a*b^t = b*a^t fails at ({where[0]},{where[1]})")
        self.ring = ring
        self.n = n
        self.a = [list(r) for r in a]
        self.b = [list(r) for r in b]

    @property
    def width(self) -> int:
        return self.n + 1

    def full_matrix(self) -> List[List[Scalar]]:
        return [ar + br for ar, br in zip(self.a, self.b)]

    def _row_matrix(self, g: List[List[Scalar]]) -> List[List[Scalar]]:
        if len(g) != self.n or any(len(r) != self.n for r in g):
            raise ContractError("rows(g): g must be n x n")
        return _invertible(g, self.ring.field)

    def _acted(self, G, S) -> "ScalarTableau":
        field = self.ring.field
        full = linalg.matmul(self.full_matrix(), S, field)
        if G is not None:
            full = linalg.matmul(G, full, field)
        w = self.width
        return ScalarTableau(self.ring, [r[:w] for r in full], [r[w:] for r in full])

    def apply_column_move(self, move: OpMove) -> "ScalarTableau":
        return apply_op(self, move)

    def apply_rows(self, g: List[List[Scalar]]) -> "ScalarTableau":
        return apply_op(self, rows_move(g))

    def apply_symplectic(self, S: List[List[Scalar]]) -> "ScalarTableau":
        return apply_symplectic(self, S)

    def rank(self) -> int:
        return linalg.rank(self.full_matrix(), self.ring.field)

    def __eq__(self, other):
        return (
            isinstance(other, ScalarTableau)
            and self.ring == other.ring
            and self.a == other.a
            and self.b == other.b
        )
