"""Exact linear algebra over Q and GF(p).

Matrices are lists of rows of field scalars.  Over GF(p) the hot paths
(rank, rref, kernels, solving, echelon membership) run a blocked
Gauss-Jordan on numpy int64 residues: panels of 64 columns, whose updates
are exact int64 matrix products reduced mod p (no float64 BLAS) restricted
to the nonzero rows and columns, so sparse Macaulay-type matrices stay
cheap.  Over Q they run one fraction-free Gauss-Jordan on integer rows
(``_integer_rref``), and products sum integer numerators (``vecmat``).
Nothing here is ever approximate.

Both eliminations search the pivots column by column and take, in each
column, the row with the least index in the input among those nonzero
there.  So the pivot rows are the input's row rank profile, the rows
independent of the rows before them (Jeannerod, Pernet & Storjohann,
J. Symb. Comp. 56, 2013); ``Echelon`` keeps those rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError
from .fields import FieldSpec, Scalar

Matrix = List[List[Scalar]]


def _is_modp(field: FieldSpec) -> bool:
    return field.kind == "prime_field"


def _np(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """rows as an int64 array, not copied if it is one; the kernel copies
    and reduces it."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape((1, -1)) if len(rows) else a.reshape((0, 0))
    return a


# Column panel width of the blocked elimination.
_PANEL = 64
_INT64_MAX = (1 << 63) - 1


def _mm(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for residues in [0, p), exact for every admitted prime:
    each chunk of the inner dimension sums below 2^63 and is reduced before
    it is added."""
    step = _INT64_MAX // (p - 1) ** 2
    if x.shape[1] <= step:
        return np.remainder(x @ y, p)
    out = np.zeros(x.shape[:1] + y.shape[1:], dtype=np.int64)
    for s in range(0, x.shape[1], step):
        out += np.remainder(x[:, s : s + step] @ y[s : s + step], p)
    return np.remainder(out, p, out=out)


def _gauss_jordan(a: np.ndarray, p: int, width: int, key: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """Column-by-column Gauss-Jordan of the first ``width`` columns of a, in
    place: the pivots, and the original index of the row at each position.
    Each column's pivot is the row of least ``key`` (its input index) among
    the unused rows nonzero there.  The r-th pivot row gets a 1 in column
    width + r, so the columns past ``width`` end up holding each pivot row
    as a combination of the original pivot rows: the inverse of the pivot
    block."""
    m = a.shape[0]
    order = np.arange(m)
    pivots: List[int] = []
    r = 0
    for c in range(width):
        if r == m:
            break
        nz = r + np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = int(nz[np.argmin(key[order[nz]])])
        if i != r:
            a[[r, i]] = a[[i, r]]
            order[[r, i]] = order[[i, r]]
        if width + r < a.shape[1]:
            a[r, width + r] = 1
        # row r is zero left of column c, so the updates start at c
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots, order


def _np_rref(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int], List[int]]:
    """Blocked Gauss-Jordan over GF(p): rref of a (a copy), its pivots, and
    the row rank profile of a, ascending.

    In each panel of columns the per-column loop finds the k pivots among
    the unused rows and the inverse of their k x k pivot block.  Only those
    rows are swapped into place, and ``index`` follows each row's input
    index through the swaps.  One product by that inverse normalizes them,
    a second clears every other row, in place, a slab of rows at a time;
    both skip the zero rows and columns of sparse Macaulay matrices.
    """
    a = np.array(a, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= p):
        np.remainder(a, p, out=a)
    m, n = a.shape
    index = np.arange(m)
    if n <= _PANEL:
        pivots, order = _gauss_jordan(a, p, n, index)
        return a, pivots, sorted(order[: len(pivots)].tolist())
    pivots: List[int] = []
    r = 0
    for c0 in range(0, n, _PANEL):
        if r == m:
            break
        width = min(_PANEL, n - c0)
        live = r + np.flatnonzero(a[r:, c0 : c0 + width].any(axis=1))
        if live.size == 0:
            continue
        panel = np.zeros((live.size, width + min(width, live.size)), dtype=np.int64)
        panel[:, :width] = a[live, c0 : c0 + width]
        local, order = _gauss_jordan(panel, p, width, index[live])
        k = len(local)
        # the pivot rows move to rows r..r+k-1, the rows they displace there
        # move to the places they left
        chosen, top = live[order[:k]], np.arange(r, r + k)
        has_pivot = np.zeros(k, dtype=bool)
        has_pivot[chosen[chosen < r + k] - r] = True
        away = chosen != top
        dst = np.concatenate([top[away], chosen[chosen >= r + k]])
        src = np.concatenate([chosen[away], top[~has_pivot]])
        a[dst] = a[src]
        index[dst] = index[src]
        pcols = c0 + np.array(local)
        block = a[r : r + k]
        cols = c0 + np.flatnonzero(block[:, c0:].any(axis=0))
        lead = _mm(panel[:k, width : width + k], block[:, cols], p)
        block[:, cols] = lead
        rows = np.flatnonzero(a[:, pcols].any(axis=1))
        rows = rows[(rows < r) | (rows >= r + k)]
        for s in range(0, rows.size, _PANEL):
            slab = rows[s : s + _PANEL]
            sub = a[np.ix_(slab, cols)]
            sub -= _mm(a[np.ix_(slab, pcols)], lead, p)
            np.remainder(sub, p, out=sub)
            a[np.ix_(slab, cols)] = sub
        pivots.extend(int(c) for c in pcols)
        r += k
    return a, pivots, sorted(index[:r].tolist())


def rref(rows: Matrix, field: FieldSpec, return_profile: bool = False) -> tuple:
    """Reduced row echelon form plus pivot column indices, and with
    ``return_profile`` the row rank profile of rows, ascending, third."""
    if len(rows) == 0 or len(rows[0]) == 0:
        out = [list(r) for r in rows], [], []
    elif _is_modp(field):
        a, pivots, profile = _np_rref(_np(rows), field.p)
        out = [[int(x) for x in row] for row in a], pivots, profile
    else:
        a, pivots, profile = _integer_rref(rows)
        zero = Fraction(0)
        red = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(a, pivots)]
        out = red + [[zero] * len(rows[0]) for _ in range(len(a) - len(pivots))], pivots, profile
    return out if return_profile else out[:2]


def _numerators(x) -> Tuple[np.ndarray, int]:
    """An array of rationals as its integer numerators (an object array of
    the same shape) over the lcm of their denominators."""
    x = np.asarray(x, dtype=object)
    den = lcm(*(v.denominator for v in x.flat))
    nums = [int(v.numerator) * (den // v.denominator) for v in x.flat]
    return np.array(nums, dtype=object).reshape(x.shape), den


def _primitive(row: List[int]) -> List[int]:
    """row divided by the gcd of its entries."""
    k = gcd(*row)
    return row if k in (0, 1) else [x // k for x in row]


def _integer_rref(rows: Matrix) -> Tuple[List[List[int]], List[int], List[int]]:
    """Fraction-free Gauss-Jordan over Q, pivots chosen as in
    ``_gauss_jordan``: the pivot rows (the rref's rows times integers, each
    with coprime entries) then the zero rows, the pivots and the row rank
    profile.  Each row is scaled to integers by the lcm of its denominators
    and divided by its content.  The pivot entry p clears the entry f of
    another row by row <- (p/g) row - (f/g) pivot row, g = gcd(p, f), and
    the content of the result is divided out, so entries stay as small as
    the answer's (Bareiss, Math. Comp. 22, 1968, keeps them small by exact
    divisions instead)."""
    a = [_primitive(_numerators(row)[0].tolist()) for row in rows]
    m, n = len(a), len(a[0])
    order = list(range(m))
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = min((i for i in range(r, m) if a[i][c]), key=order.__getitem__, default=None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        order[r], order[pivot] = order[pivot], order[r]
        prow = a[r]
        p = prow[c]
        for i in range(m):
            f = a[i][c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                a[i] = _primitive([pg * x - fg * y for x, y in zip(a[i], prow)])
        pivots.append(c)
        r += 1
    return a, pivots, sorted(order[:r])


def rank(rows: Matrix, field: FieldSpec) -> int:
    if len(rows) == 0 or len(rows[0]) == 0:
        return 0
    if _is_modp(field):
        return len(_np_rref(_np(rows), field.p)[1])
    return len(_integer_rref(rows)[1])


def nullspace(rows: Matrix, field: FieldSpec, ncols: Optional[int] = None) -> List[List[Scalar]]:
    """Basis of the right kernel {x : A x = 0}, deterministic order."""
    if not rows:
        if ncols is None:
            raise ContractError("nullspace of an empty matrix needs ncols")
        return identity(ncols, field)
    n = len(rows[0])
    red, pivots = rref(rows, field)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * n
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def _echelon(rows, field: FieldSpec):
    """rref, pivots and row rank profile of a non-empty matrix; over GF(p)
    the rref stays an int64 array."""
    if _is_modp(field):
        return _np_rref(_np(rows), field.p)
    return rref(rows, field, return_profile=True)


def solve_columns(
    rows: Matrix, rhss: Sequence[Sequence[Scalar]], field: FieldSpec
) -> Tuple[List[List[Scalar]], Optional[int]]:
    """Solutions of A x = b, free variables set to zero, for every b in
    ``rhss`` from one elimination of [A | b_1 .. b_k] (A has a row).

    The pivots among A's columns do not depend on the appended columns, so
    each solution is the one an elimination of [A | b] alone gives.  The
    first pivot past A's columns marks the first inconsistent b; its index
    is returned second, and the solutions stop before it (None: all solve).
    """
    n = len(rows[0])
    dtype = np.int64 if _is_modp(field) else object
    rhs = np.asarray(rhss, dtype=dtype).reshape(len(rhss), -1).T
    red, pivots, _ = _echelon(np.hstack([np.asarray(rows, dtype=dtype), rhs]), field)
    scalar = int if _is_modp(field) else Fraction
    rank = sum(1 for c in pivots if c < n)
    bad = pivots[rank] - n if rank < len(pivots) else None
    sols = []
    for k in range(len(rhss) if bad is None else bad):
        x = [field.zero()] * n
        for r in range(rank):
            x[pivots[r]] = scalar(red[r][n + k])
        sols.append(x)
    return sols, bad


def solve_particular(rows: Matrix, rhs: Sequence[Scalar], field: FieldSpec) -> Optional[List[Scalar]]:
    """One solution of A x = b with free variables set to zero, or None."""
    if len(rows) == 0:
        return None if any(not field.is_zero(b) for b in rhs) else []
    sols, bad = solve_columns(rows, [rhs], field)
    return None if bad is not None else sols[0]


def vecmat(x: np.ndarray, y: np.ndarray, field: FieldSpec) -> np.ndarray:
    """x times y, each a vector or a matrix, both residues mod p over GF(p)
    (int64) or field scalars (object arrays) over Q.  Over Q each operand
    is its integer numerators over one common denominator: one integer
    product, then one Fraction per entry."""
    if _is_modp(field):
        out = _mm(np.atleast_2d(x), y, field.p)
        return out if x.ndim > 1 else out[0]
    (nx, dx), (ny, dy) = _numerators(x), _numerators(y)
    out = np.asarray(nx.dot(ny), dtype=object)
    den, zero = dx * dy, Fraction(0)
    return np.array([Fraction(v, den) if v else zero for v in out.flat], dtype=object).reshape(out.shape)


class Echelon:
    """Reduced row echelon form of a row space, kept for membership tests,
    and the generating rows independent of the rows before them (the row
    rank profile), which span the same space."""

    def __init__(self, rows, field: FieldSpec):
        self.field = field
        self.dtype = np.int64 if _is_modp(field) else object
        a = np.asarray(rows, dtype=self.dtype)
        red, self.pivots, profile = _echelon(a, field) if a.size else (a, [], [])
        # copies of the pivot rows and the independent rows, (rank x
        # columns) even for rank 0
        shape = (len(self.pivots), a.shape[-1])
        self.rows = np.array(red[: len(self.pivots)], dtype=self.dtype).reshape(shape)
        self.independent = a[profile].reshape(shape)

    def reduce(self, vec: Sequence[Scalar]) -> np.ndarray:
        """The residual vec - vec[pivots] . rows (mod p over GF(p)), one
        vector product; over Q only the rows of nonzero pivot entries enter
        it.  Each pivot row is zero in the other pivot columns, so the
        residual is zero there: the one vector congruent to vec modulo the
        row space with that support, zero exactly for members."""
        v = np.asarray(vec, dtype=self.dtype)
        if not _is_modp(self.field):
            heads = v[self.pivots]
            live = np.flatnonzero(heads)
            return v - heads[live].dot(self.rows[live])
        v = v % self.field.p
        return (v - vecmat(v[self.pivots], self.rows, self.field)) % self.field.p

    def contains(self, vec: Sequence[Scalar]) -> bool:
        """Whether vec lies in the row space."""
        return not self.reduce(vec).any()


def det(rows: Matrix, field: FieldSpec) -> Scalar:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ContractError("determinant requires a square matrix")
    if n == 0:
        return field.one()
    a = [list(r) for r in rows]
    sign = field.one()
    acc = field.one()
    for c in range(n):
        pivot = next((i for i in range(c, n) if not field.is_zero(a[i][c])), None)
        if pivot is None:
            return field.zero()
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = field.neg(sign)
        acc = field.mul(acc, a[c][c])
        inv = field.inv(a[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(a[i][c]):
                f = field.mul(a[i][c], inv)
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[c])]
    return field.mul(sign, acc)


def inverse(rows: Matrix, field: FieldSpec) -> Matrix:
    n = len(rows)
    aug = [list(r) + [field.one() if i == j else field.zero() for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        raise ContractError("matrix is not invertible")
    return [row[n:] for row in red[:n]]


def matmul(a: Matrix, b: Matrix, field: FieldSpec) -> Matrix:
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    n = len(b)
    out = []
    for row in a:
        assert len(row) == n
        out_row = []
        for j in range(len(b[0])):
            s = field.zero()
            for k in range(n):
                s = field.add(s, field.mul(row[k], b[k][j]))
            out_row.append(s)
        out.append(out_row)
    return out


def matvec(a: Matrix, x: Sequence[Scalar], field: FieldSpec) -> List[Scalar]:
    return [c[0] for c in matmul(a, [[v] for v in x], field)]


def identity(n: int, field: FieldSpec) -> Matrix:
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []
