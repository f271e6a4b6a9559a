"""Symmetric presentation tableaux A = (alpha beta) and the (Op) calculus.

A tableau has square blocks alpha, beta of size (n+1) over k[x0..x4], cubic
forms in the first row, linear forms elsewhere, and satisfies the exact
symmetry alpha beta^t = beta alpha^t.  The six symmetry-preserving moves
(row mixes fixing the first row, the four column-coupling moves, pair swaps
and pair rotations) act on it; together they realize the PGl x PSp action.
Each tableau holds one lazily filled table of the minors of A (``Minors``):
every Fitting ideal, Cramer numerator and block determinant is a read of it.
The degeneracy scheme of A' is read from two pieces of I_n(A') once a
regularity certificate holds, and from its saturation otherwise.
Scalar tableaux (the n x (2n+2) degree-0 analogue) share the same move
engine.  A column move becomes an action in one place, ``act_on_columns``;
its symplectic scalar matrix is that action on the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import ContractError
from .fields import Scalar
from .ideals import (
    Ideal,
    PointAlgebra,
    _zero_dim_saturated,
    dimension,
    regular_length,
    saturate,
)
from .poly import Polynomial, PolyRing, dot

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
    where = _first_asymmetry(alpha, beta, lambda u, v: dot(u, v, ring))
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
        self._minors: Optional[Minors] = None
        self._symmetry = (self.full_matrix(), (ok, where))

    # -- views ---------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.n + 1

    def full_matrix(self) -> PolyMatrix:
        """A = (alpha beta), an (n+1) x (2n+2) matrix."""
        return [ar + br for ar, br in zip(self.alpha, self.beta)]

    def minors(self) -> "Minors":
        """The table of minors of A, rebuilt when the blocks no longer give
        the matrix it was built from (they can be edited in place)."""
        full = self.full_matrix()
        if self._minors is None or self._minors.matrix != full:
            self._minors = Minors(full, self.ring)
        return self._minors

    def symmetry(self) -> Tuple[bool, Optional[Tuple[int, int]]]:
        """check_symmetry of the blocks, kept with the matrix it judged and
        rerun only when the blocks no longer give that matrix (they can be
        edited in place); the constructor's verdict serves until then."""
        full = self.full_matrix()
        if self._symmetry[0] != full:
            self._symmetry = (full, check_symmetry(self.alpha, self.beta, self.ring))
        return self._symmetry[1]

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


def act_on_columns(m: List[List[Scalar]], move: OpMove, width: int, ring: PolyRing) -> None:
    """Right-multiply m in place by the symplectic 2*width x 2*width matrix
    of a column move (A -> A*M), as column operations on one or two column
    pairs; m has 2*width columns, alpha's then beta's.

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

    def add(dst: int, c: Scalar, src: int) -> None:
        for r in m:
            if not field.is_zero(r[src]):
                r[dst] = field.add(r[dst], field.mul(c, r[src]))

    if k == "swap":
        for r in m:
            r[mu], r[nu] = r[nu], r[mu]
            r[width + mu], r[width + nu] = r[width + nu], r[width + mu]
    elif k == "rotate":
        for r in m:
            r[mu], r[width + mu] = r[width + mu], field.neg(r[mu])
    elif k == "add_col_same":
        add(mu, lam, width + mu)
    elif k == "add_col_pair":
        add(mu, lam, width + nu)
        add(nu, lam, width + mu)
    else:  # transfer
        add(mu, lam, nu)
        add(width + nu, field.neg(lam), width + mu)


def column_move_matrix(move: OpMove, width: int, ring: PolyRing) -> List[List[Scalar]]:
    """The symplectic 2*width x 2*width matrix M of a column move (A -> A*M):
    its action on the identity."""
    return move_word_matrix([move], width, ring)


def move_word_matrix(moves: Sequence[OpMove], width: int, ring: PolyRing) -> List[List[Scalar]]:
    """Product of the column-move matrices of a word, in application order:
    the word's action on the identity."""
    total = linalg.identity(2 * width, ring.field)
    for mv in moves:
        act_on_columns(total, mv, width, ring)
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


def j_pairing(u: Sequence[Scalar], v: Sequence[Scalar], field) -> Scalar:
    """<u, v>_J = u J v^t for the standard form J = ((0, I), (-I, 0))."""
    half = len(u) // 2
    total = field.zero()
    for i in range(half):
        total = field.add(total, field.mul(u[i], v[half + i]))
        total = field.sub(total, field.mul(u[half + i], v[i]))
    return total


def symplectic_defect(S: List[List[Scalar]], ring: PolyRing) -> List[List[Scalar]]:
    """S J S^t - J for the standard form J; entry (i, j) of S J S^t is
    <S_i, S_j>_J."""
    field = ring.field
    size = len(S)
    half = size // 2
    J = [[field.zero()] * size for _ in range(size)]
    for i in range(half):
        J[i][half + i] = field.one()
        J[half + i][i] = field.neg(field.one())
    return [
        [field.sub(j_pairing(S[i], S[j], field), J[i][j]) for j in range(size)] for i in range(size)
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
    pairs = [(c, f) for c, f in zip(coeffs, polys) if c and f.terms]
    if len(pairs) == 1 and pairs[0][0] == field.one():
        return pairs[0][1]
    p, zero = field.characteristic, field.zero()
    out: dict = {}
    get = out.get
    for c, f in pairs:
        for m, v in f.terms.items():
            out[m] = get(m, zero) + c * v
    if p:
        return Polynomial(ring, {m: r for m, v in out.items() if (r := v % p)})
    return Polynomial(ring, {m: v for m, v in out.items() if v})


def act_on_blocks(T, G: Optional[List[List[Scalar]]], S: List[List[Scalar]]):
    """type(T) rebuilt from G * (alpha beta) * S, G None for the identity.

    Serves every tableau class with polynomial blocks ``alpha``, ``beta``;
    the result passes the class's validating constructor once.
    """
    ring = T.ring
    w = len(T.alpha)
    full = T.full_matrix()
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


class Minors:
    """The minors of one matrix, filled lazily and keyed by (rows, columns).

    ``minors(rows, cols)`` is the determinant of the submatrix on those
    index tuples, columns in the listed order, by cofactor expansion along
    the first selected row; every minor formed on the way is kept, so each
    key is expanded once per table.  The table holds polynomials only.
    """

    def __init__(self, matrix: PolyMatrix, ring: PolyRing):
        self.matrix = [list(r) for r in matrix]
        self.ring = ring
        self.ncols = len(self.matrix[0]) if self.matrix else 0
        self._table: dict = {}

    def __call__(self, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
        key = (tuple(rows), tuple(cols))
        if key not in self._table:
            self._table[key] = self._expand(*key)
        return self._table[key]

    def columns(self, cols: Sequence[int], count: Optional[int] = None) -> Tuple[int, ...]:
        """A caller's column selection as a tuple, refused unless each entry
        is a column index and, when count is given, there are count distinct
        entries.  The minors themselves do not check indices."""
        sel = tuple(cols)
        if not all(isinstance(c, int) and 0 <= c < self.ncols for c in sel) or (
            count is not None and not len(sel) == len(set(sel)) == count
        ):
            need = "indices" if count is None else f"{count} distinct indices"
            raise ContractError(f"column selection {list(sel)}: need {need} in 0..{self.ncols - 1}")
        return sel

    def _expand(self, rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Polynomial:
        if not rows:
            return self.ring.one()
        head = self.matrix[rows[0]]
        if len(rows) == 1:
            return head[cols[0]]
        heads, subs = [], []
        for pos, c in enumerate(cols):
            if head[c].is_zero():
                continue
            heads.append(head[c] if pos % 2 == 0 else -head[c])
            subs.append(self(rows[1:], cols[:pos] + cols[pos + 1 :]))
        return dot(heads, subs, self.ring)


def fitting_ideal(minors: Minors, k: int, rows: Optional[Sequence[int]] = None) -> Ideal:
    """Ideal of the k x k minors on the given rows (all rows by default),
    read from the table; generators in ``combinations`` order of rows, then
    columns."""
    rows = range(len(minors.matrix)) if rows is None else rows
    if not 0 < k <= min(len(rows), minors.ncols):
        raise ContractError(f"minor size {k} out of range for {len(rows)} x {minors.ncols}")
    pairs = [(r, c) for r in combinations(rows, k) for c in combinations(range(minors.ncols), k)]
    return Ideal(minors.ring, [minors(r, c) for r, c in pairs])


def erase_first_row(T: SymmetricTableau) -> PolyMatrix:
    """A' := A with the first row erased, an n x (2n+2) linear-form matrix."""
    return [row[:] for row in T.full_matrix()[1:]]


@dataclass
class DegeneracyScheme:
    """The nonnormal locus, the scheme of I_n(A'), and its point algebra
    when finite and nonempty; ``ideal``, the saturation, on first read."""

    fitting: Ideal  # I_n(A')
    finite: bool
    reduced: Optional[bool]
    points: Optional[int]
    length: Optional[int] = None
    algebra: Optional[PointAlgebra] = None

    @cached_property
    def ideal(self) -> Ideal:
        return saturate(self.fitting)


def degeneracy_scheme(T: SymmetricTableau) -> DegeneracyScheme:
    """The degeneracy scheme of A', with no Groebner basis when a form
    certifies that I_n(A') is n-regular (``regular_length``); from the
    saturation otherwise."""
    I = fitting_ideal(T.minors(), T.n, rows=range(1, T.n + 1))
    e = regular_length(I, T.n)
    if e is not None:
        algebra = PointAlgebra(I, T.n, e)
        return DegeneracyScheme(I, True, algebra.reduced, algebra.points, e, algebra)
    sat = saturate(I)
    if dimension(sat) > 1:  # the zero ideal too: rank drops everywhere
        scheme = DegeneracyScheme(I, False, None, None)
    elif sat.contains_one():
        scheme = DegeneracyScheme(I, True, None, 0, 0)
    else:
        algebra = _zero_dim_saturated(sat)
        scheme = DegeneracyScheme(I, True, algebra.reduced, algebra.points, algebra.length, algebra)
    scheme.ideal = sat  # the saturation is at hand: no second one on read
    return scheme


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
