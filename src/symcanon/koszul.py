"""Regular sequences, Koszul complexes, and the graded skew-witness solver.

A relation sum W_i v_i = 0 on a regular sequence of linear forms v is a
Koszul relation: it is witnessed by a skew-symmetric matrix S with
W = S v.  The witness is found by one graded linear solve; the ambiguity
of the witness in a fixed degree is the kernel dimension of the same
solve, which is what the moduli bookkeeping consumes (19 and 10 in the
length-4/length-5 linear cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import ContractError
from .ideals import Ideal, codimension
from .poly import Polynomial, PolyRing, graded_basis, graded_map, graded_piece, poly_matmul

PolyMatrix = List[List[Polynomial]]


def is_regular_sequence(forms: Sequence[Polynomial]) -> bool:
    """grade = codimension over the Cohen-Macaulay polynomial ring, so a
    homogeneous sequence is regular iff codim of its ideal equals its
    length.  Sequences of linear forms shortcut to an exact rank."""
    forms = list(forms)
    if not forms:
        return True
    ring = forms[0].ring
    for f in forms:
        if f.is_zero() or not f.is_homogeneous():
            raise ContractError("regular-sequence test requires nonzero homogeneous forms")
    if len(forms) > ring.nvars:
        return False
    if all(f.degree() == 1 for f in forms):
        return linalg.rank(graded_piece(forms, 1, ring, 0), ring.field) == len(forms)
    return codimension(Ideal(ring, forms)) == len(forms)


@dataclass
class RegularSequence:
    forms: Tuple[Polynomial, ...]
    verified: bool

    def __len__(self):
        return len(self.forms)

    @property
    def ring(self) -> PolyRing:
        return self.forms[0].ring

    @staticmethod
    def verify(forms: Sequence[Polynomial]) -> "RegularSequence":
        forms = tuple(forms)
        if not is_regular_sequence(forms):
            raise ContractError("sequence is not regular")
        return RegularSequence(forms, True)


def koszul_differential(seq: RegularSequence, i: int) -> PolyMatrix:
    """The differential d_i : Wedge^(i+1) -> Wedge^i of the Koszul complex,
    with the standard exterior signs d(e_S) = sum_t (-1)^t v_{j_t} e_{S-j_t};
    adjacent differentials compose to zero exactly."""
    if not seq.verified:
        raise ContractError("koszul_differential requires a verified sequence")
    m = len(seq)
    if not 0 <= i < m:
        raise ContractError(f"differential index {i} out of range 0..{m - 1}")
    ring = seq.ring
    rows_idx = list(combinations(range(m), i))
    cols_idx = list(combinations(range(m), i + 1))
    row_pos = {s: r for r, s in enumerate(rows_idx)}
    out = [[ring.zero() for _ in cols_idx] for _ in rows_idx]
    for c, S in enumerate(cols_idx):
        for t, jt in enumerate(S):
            target = tuple(x for x in S if x != jt)
            entry = seq.forms[jt] if t % 2 == 0 else -seq.forms[jt]
            out[row_pos[target]][c] = entry
    return out


@dataclass
class SkewWitness:
    """Skew-symmetric witness matrix; entries[i][j] = -entries[j][i]."""

    size: int
    entries: PolyMatrix
    degree: int

    def __post_init__(self):
        for i in range(self.size):
            if not self.entries[i][i].is_zero():
                raise ContractError("skew witness must have zero diagonal")
            for j in range(i + 1, self.size):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ContractError("witness matrix is not skew-symmetric")

    def apply(self, v: Sequence[Polynomial]) -> List[Polynomial]:
        return [row[0] for row in poly_matmul(self.entries, [[f] for f in v], v[0].ring)]

    def upper_triangle(self) -> List[Polynomial]:
        return [
            self.entries[i][j]
            for i in range(self.size)
            for j in range(i + 1, self.size)
        ]


def _skew_from_upper(ring: PolyRing, m: int, upper: Sequence[Polynomial]) -> SkewWitness:
    entries = [[ring.zero() for _ in range(m)] for _ in range(m)]
    it = iter(upper)
    for i in range(m):
        for j in range(i + 1, m):
            e = next(it)
            entries[i][j] = e
            entries[j][i] = -e
    deg = max((e.degree() for row in entries for e in row if not e.is_zero()), default=0)
    return SkewWitness(m, entries, deg)


def _skew_map(v: RegularSequence, entry_degree: int) -> np.ndarray:
    """Matrix of S -> S*v on skew S with entries of the given degree: rows
    (pair i < j, source monomial), columns (component, target monomial).
    S_ij adds x^m v_j to component i and -x^m v_i to component j, which is
    the negated Koszul differential d_1."""
    neg_d1 = [[-f for f in row] for row in koszul_differential(v, 1)]
    return graded_map(neg_d1, [entry_degree + 1] * len(v), v.ring, entry_degree)


def solve_skew(W: Sequence[Polynomial], v: RegularSequence) -> SkewWitness:
    """Solve W = S v for a skew S of degree deg(W) - 1.

    The relation sum W_i v_i = 0 is checked first and rejected with the
    residual; the underdetermined solve is made deterministic by reduced
    row echelon with free variables pinned to zero.
    """
    if not v.verified:
        raise ContractError("solve_skew requires a verified regular sequence")
    forms = v.forms
    ring = v.ring
    field = ring.field
    m = len(forms)
    if len(W) != m:
        raise ContractError("W and v must have equal length")
    if any(f.degree() != 1 for f in forms):
        raise ContractError("solve_skew requires a sequence of linear forms")
    degrees = {w.homogeneous_degree() for w in W if not w.is_zero()}
    if len(degrees) > 1 or any(not w.is_homogeneous() for w in W):
        raise ContractError("W entries must be homogeneous of one common degree")
    if not degrees:
        return _skew_from_upper(ring, m, [ring.zero()] * (m * (m - 1) // 2))
    d = degrees.pop()
    residual = poly_matmul([W], [[f] for f in forms], ring)[0][0]
    if not residual.is_zero():
        raise ContractError(f"sum W_i v_i != 0; residual = {residual}")
    src = graded_basis(ring, d - 1)
    rhs = graded_piece(W, d, ring, 0).reshape(-1)
    sol = linalg.solve_particular(_skew_map(v, d - 1).T, rhs, field)
    if sol is None:
        raise ContractError("no skew witness exists; input sequence cannot be regular")
    k = len(src)
    upper = [ring.from_terms(dict(zip(src, sol[p * k : p * k + k]))) for p in range(m * (m - 1) // 2)]
    witness = _skew_from_upper(ring, m, upper)
    # mandatory post-check, exact
    recovered = witness.apply(list(forms))
    for got, want in zip(recovered, W):
        assert got == want, "skew witness post-check failed"
    return witness


def ambiguity_dim(v: RegularSequence, d: int) -> int:
    """Dimension of the space of skew witnesses of the zero relation in
    graded degree d of the middle Koszul term (entries of degree d - 2)."""
    if not v.verified:
        raise ContractError("ambiguity_dim requires a verified regular sequence")
    if any(f.degree() != 1 for f in v.forms):
        raise ContractError("ambiguity_dim requires linear forms")
    if d < 2 or len(v) < 2:
        return 0
    skew_map = _skew_map(v, d - 2)
    return skew_map.shape[0] - linalg.rank(skew_map, v.ring.field)
