"""Exact linear algebra over Q and GF(p).

Matrices are lists of rows of field scalars.  Over GF(p) the hot paths
(rank, rref, kernels, solving) run vectorized mod-p elimination in numpy
int64; over Q they run fraction-free Bareiss for ranks and exact Fraction
elimination otherwise.  Nothing here is ever approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError
from .fields import FieldSpec, Scalar

Matrix = List[List[Scalar]]


def _is_modp(field: FieldSpec) -> bool:
    return field.kind == "prime_field"


def _np(rows: Sequence[Sequence[int]], p: int) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape((1, -1)) if len(rows) else a.reshape((0, 0))
    return a % p


def _np_rref(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    a = a % p
    m, n = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rref(rows: Matrix, field: FieldSpec) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form plus pivot column indices."""
    if len(rows) == 0 or len(rows[0]) == 0:
        return [list(r) for r in rows], []
    if _is_modp(field):
        a, pivots = _np_rref(_np(rows, field.p), field.p)
        return [[int(x) for x in row] for row in a], pivots
    a = [[Fraction(x) for x in row] for row in rows]
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        support = [(j, y) for j, y in enumerate(a[r]) if y]
        for i in range(m):
            if i != r and a[i][c]:
                row, f = a[i], a[i][c]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
    return a, pivots


def rank(rows: Matrix, field: FieldSpec) -> int:
    if len(rows) == 0 or len(rows[0]) == 0:
        return 0
    if _is_modp(field):
        return len(_np_rref(_np(rows, field.p), field.p)[1])
    return _bareiss_rank(_clear_denominators(rows))


def _clear_denominators(rows: Matrix) -> List[List[int]]:
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        out.append([int(f * lcm) for f in fracs])
    return out


def _bareiss_rank(a: List[List[int]]) -> int:
    """Fraction-free Gaussian elimination rank over the integers."""
    a = [row[:] for row in a]
    m, n = len(a), len(a[0])
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def nullspace(rows: Matrix, field: FieldSpec, ncols: Optional[int] = None) -> List[List[Scalar]]:
    """Basis of the right kernel {x : A x = 0}, deterministic order."""
    if not rows:
        if ncols is None:
            raise ContractError("nullspace of an empty matrix needs ncols")
        eye = []
        for i in range(ncols):
            v = [field.zero()] * ncols
            v[i] = field.one()
            eye.append(v)
        return eye
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
    """rref of a non-empty matrix; over GF(p) it stays an int64 array."""
    if _is_modp(field):
        return _np_rref(_np(rows, field.p), field.p)
    return rref(rows, field)


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
    red, pivots = _echelon(np.hstack([np.asarray(rows, dtype=dtype), rhs]), field)
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
    if not rows:
        return None if any(not field.is_zero(b) for b in rhs) else []
    sols, bad = solve_columns(rows, [rhs], field)
    return None if bad is not None else sols[0]


class Echelon:
    """Reduced row echelon form of a row space, kept for membership tests."""

    def __init__(self, rows: Matrix, field: FieldSpec):
        self.p = field.characteristic
        self.dtype = np.int64 if _is_modp(field) else object
        red, self.pivots = _echelon(rows, field) if len(rows) else ([], [])
        self.rows = np.asarray(red, dtype=self.dtype)

    def contains(self, vec: Sequence[Scalar]) -> bool:
        """Whether vec lies in the row space: subtracting vec[c] times the
        row of each pivot c leaves zero exactly for members.  Over GF(p) each
        multiply-add is reduced mod p, so no entry reaches (p-1)^2 + p."""
        v = np.array(vec, dtype=self.dtype)
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = v - v[c] * row
                if self.p:
                    v %= self.p
        return not v.any()


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


def np_rank_modp(a: np.ndarray, p: int) -> int:
    """Rank of a (possibly large) int64 matrix mod p; used by the graded
    exactness checks where dimensions reach a few thousand."""
    if a.size == 0:
        return 0
    return len(_np_rref(a % p, p)[1])
