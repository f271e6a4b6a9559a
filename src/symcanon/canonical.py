"""Resolution assembly and the verification battery for tableaux.

A tableau A = (alpha beta) with n = K^2 - 9 spans the length-2 complex

    0 -> F2 --(-beta^t / alpha^t)--> F1 --(alpha beta)--> F0

with F0 = R + R(-2)^n, F1 = R(-3)^(2n+2), F2 = R(-6) + R(-4)^n.  The
composite vanishes exactly by the symmetry.  This module checks
Buchsbaum-Eisenbud acyclicity, reads the surface invariants off the Hilbert
resolution, decides the ring condition (saturated Fitting-ideal equality),
produces the Cramer multiplication table of the cokernel algebra, and runs
the generic graded-exactness experiment behind the reflexivity remark.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import ContractError
from .fields import DetRng, GF
from .ideals import (
    DEFAULT_GB_CONFIG,
    GBConfig,
    Ideal,
    codimension,
    dimension,
    ideal_equal,
    saturate,
)
from .poly import Polynomial, PolyRing, graded_basis, graded_map, graded_piece, poly_matmul
from .tableau import (
    DegeneracyScheme,
    PolyMatrix,
    SymmetricTableau,
    check_symmetry,
    degeneracy_scheme,
    erase_first_row,
    fitting_ideal,
    matrix_minor,
)


def _binom_cut(k: int, l: int) -> int:
    return comb(k, l) if k >= l else 0


# -- the resolution -------------------------------------------------------------


@dataclass
class GradedResolution:
    """Maps and twists of the length-2 complex of a tableau."""

    ring: PolyRing
    n: int
    first_map: PolyMatrix  # (n+1) x (2n+2), the tableau itself
    second_map: PolyMatrix  # (2n+2) x (n+1), (-beta^t over alpha^t)
    shifts: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


def build_resolution(T: SymmetricTableau) -> GradedResolution:
    """Assemble the complex; the composite is asserted to vanish exactly,
    which restates the symmetry of the tableau."""
    ring = T.ring
    n = T.n
    first = T.full_matrix()
    second = [
        [-T.beta[j][i] for j in range(n + 1)] for i in range(n + 1)
    ] + [[T.alpha[j][i] for j in range(n + 1)] for i in range(n + 1)]
    composite = poly_matmul(first, second, ring)
    assert all(s.is_zero() for row in composite for s in row), "composite of the resolution maps is nonzero"
    shifts = (
        (0,) + (2,) * n,
        (3,) * (2 * n + 2),
        (6,) + (4,) * n,
    )
    return GradedResolution(ring, n, first, second, shifts)


def shape_resolution(ring: PolyRing, n: int) -> GradedResolution:
    """Resolution carrier with the standard twists for a given n and no
    maps; enough for the Hilbert-dimension and invariant computations."""
    shifts = ((0,) + (2,) * n, (3,) * (2 * n + 2), (6,) + (4,) * n)
    return GradedResolution(ring, n, [], [], shifts)


def graded_dim(R: GradedResolution, m: int) -> int:
    """dim of the m-th graded piece of the cokernel algebra, as the
    alternating binomial sum over the resolution twists (with the
    vanishing convention C(k, l) = 0 for k < l)."""
    if m < 0:
        raise ContractError("graded piece index must be non-negative")
    v = R.ring.nvars - 1
    total = 0
    for sign, row in zip((1, -1, 1), R.shifts):
        total += sign * sum(_binom_cut(m - a + v, v) for a in row)
    return total


@dataclass
class SurfaceInvariants:
    p_g: int
    q: int
    K2: int
    chi: int
    n: int
    delta: int

    def to_json(self) -> dict:
        return {
            "p_g": self.p_g,
            "q": self.q,
            "K2": self.K2,
            "chi": self.chi,
            "n": self.n,
            "delta": self.delta,
        }


def invariants(R: GradedResolution) -> SurfaceInvariants:
    """Solve the plurigenus comparison P_1 = p_g, P_m = C(m,2) K^2 + chi
    against the Hilbert-resolution dimensions, cross-checking at m = 3;
    delta is the expected improper double-point count C(K^2 - 8, 2)."""
    p_g = graded_dim(R, 1)
    if p_g != 5:
        raise ContractError(f"inconsistent shifts: graded dimension at m=1 is {p_g}, not 5")
    q = 0
    chi = 1 - q + p_g
    K2 = graded_dim(R, 2) - chi
    if graded_dim(R, 3) != 3 * K2 + chi:
        raise ContractError("inconsistent shifts: plurigenus comparison fails at m=3")
    if K2 != R.n + 9:
        raise ContractError(f"shift data disagrees with n: K2 = {K2} but n = {R.n}")
    return SurfaceInvariants(p_g, q, K2, chi, R.n, comb(K2 - 8, 2))


def cokernel_graded_dim(T: SymmetricTableau, m: int) -> int:
    """dim of the m-th piece of coker(A), computed directly as the dimension
    of (F0)_m minus the rank of the degree-m coefficient matrix of the
    columns; the Euler-characteristic route in graded_dim must agree."""
    ring = T.ring
    n = T.n
    v = ring.nvars - 1
    dim_f0 = _binom_cut(m + v, v) + n * _binom_cut(m - 2 + v, v)
    if m < 3:
        return dim_f0
    columns = graded_map(T.full_matrix(), [m, *[m - 2] * n], ring, m - 3)
    return dim_f0 - linalg.rank(columns, ring.field)


# -- acyclicity -----------------------------------------------------------------


@dataclass
class RankCertificate:
    achieved: int
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    minor: Optional[Polynomial]


def rank_with_certificate(M: PolyMatrix, ring: PolyRing, want: int, seed: int = 11) -> RankCertificate:
    """Generic rank of a polynomial matrix: seeded point evaluations propose
    a pivot minor, which is then certified by a symbolic nonzero determinant;
    exhaustive minor scan as fallback."""
    nrows, ncols = len(M), len(M[0])
    field = ring.field
    memo: dict = {}
    for attempt in range(4):
        rng = DetRng(seed + attempt)
        point = [rng.scalar(field) for _ in range(ring.nvars)]
        scalar = [[entry.evaluate(point) for entry in row] for row in M]
        red, pivots = linalg.rref(linalg.transpose(scalar), field)
        if len(pivots) >= want:
            rows_sel = tuple(pivots[:want])
            red2, pivots2 = linalg.rref([[scalar[i][j] for j in range(ncols)] for i in rows_sel], field)
            if len(pivots2) >= want:
                cols_sel = tuple(pivots2[:want])
                det = matrix_minor(M, rows_sel, cols_sel, ring, memo)
                if not det.is_zero():
                    return RankCertificate(want, rows_sel, cols_sel, det)
    for rows_sel in combinations(range(nrows), want):
        for cols_sel in combinations(range(ncols), want):
            det = matrix_minor(M, rows_sel, cols_sel, ring, memo)
            if not det.is_zero():
                return RankCertificate(want, rows_sel, cols_sel, det)
    return RankCertificate(want - 1, (), (), None)


@dataclass
class AcyclicityReport:
    rank_first_ok: bool
    rank_second_ok: bool
    codim_first: int
    codim_second: int
    rank_first_cert: RankCertificate
    rank_second_cert: RankCertificate

    @property
    def passed(self) -> bool:
        return (
            self.rank_first_ok
            and self.rank_second_ok
            and self.codim_first >= 2
            and self.codim_second >= 2
        )

    def to_json(self) -> dict:
        return {
            "rank_first_ok": self.rank_first_ok,
            "rank_second_ok": self.rank_second_ok,
            "codim_first": self.codim_first,
            "codim_second": self.codim_second,
            "passed": self.passed,
        }


def complex_acyclicity(
    first_map: PolyMatrix,
    second_map: PolyMatrix,
    ring: PolyRing,
    expected_rank: int,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> AcyclicityReport:
    """Buchsbaum-Eisenbud data for a length-2 free complex: both maps must
    reach the expected rank (certified by a nonvanishing minor) and the
    ideals of maximal minors must have grade at least 2."""
    cert1 = rank_with_certificate(first_map, ring, expected_rank)
    cert2 = rank_with_certificate(second_map, ring, expected_rank)
    ok1 = cert1.minor is not None
    ok2 = cert2.minor is not None
    codim1 = codim2 = 0
    if ok1:
        codim1 = codimension(fitting_ideal(first_map, expected_rank, ring), config=config)
    if ok2:
        codim2 = codimension(fitting_ideal(second_map, expected_rank, ring), config=config)
    return AcyclicityReport(ok1, ok2, codim1, codim2, cert1, cert2)


def acyclicity_check(R: GradedResolution, config: GBConfig = DEFAULT_GB_CONFIG) -> AcyclicityReport:
    return complex_acyclicity(R.first_map, R.second_map, R.ring, R.n + 1, config)


# -- ring condition -------------------------------------------------------------


@dataclass
class RingConditionReport:
    status: str  # "pass" | "fail" | "skipped"
    reason: Optional[str]
    saturated_equal: Optional[bool]
    unsaturated_equal: Optional[bool]  # n = 2 only
    sat_aprime: Optional[Ideal]
    sat_a: Optional[Ideal]

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def ring_condition_check(
    T: SymmetricTableau,
    scheme: Optional[DegeneracyScheme] = None,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> RingConditionReport:
    """Saturated Fitting equality bar I_n(A') = bar I_n(A); for n = 2 the
    unsaturated identity I_2(A) = I_2(A') is tested and reported as well.

    Skipped (with the reason) unless the degeneracy scheme is a finite set
    of reduced points, the hypothesis under which the saturated equality
    encodes the multiplicative structure.  bar I_n(A') is the scheme's
    ideal, saturated once by ``degeneracy_scheme``.
    """
    if scheme is None:
        scheme = degeneracy_scheme(T, config=config)
    if not scheme.finite:
        return RingConditionReport("skipped", "degeneracy scheme not finite", None, None, None, None)
    if not scheme.reduced:
        return RingConditionReport("skipped", "degeneracy scheme not reduced", None, None, None, None)
    ring = T.ring
    n = T.n
    I_a = fitting_ideal(T.full_matrix(), n, ring)
    sat_aprime = scheme.ideal
    sat_a = saturate(I_a, config=config)
    sat_eq = ideal_equal(sat_aprime, sat_a)
    unsat_eq = ideal_equal(I_a, fitting_ideal(erase_first_row(T), n, ring)) if n == 2 else None
    ok = sat_eq and (unsat_eq is not False)
    return RingConditionReport(
        "pass" if ok else "fail", None, sat_eq, unsat_eq, sat_aprime, sat_a
    )


def conductor_ideal(
    T: SymmetricTableau,
    report: Optional[RingConditionReport] = None,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> Ideal:
    """bar I_n(A') + I_{n+1}(A): the conductor presented modulo the surface
    ideal surrogate; its vanishing locus is the double-point set."""
    if report is None:
        report = ring_condition_check(T, config=config)
    if not report.passed:
        raise ContractError(f"ring condition does not pass (status: {report.status})")
    surrogate = fitting_ideal(T.full_matrix(), T.n + 1, T.ring)
    return Ideal(T.ring, list(report.sat_aprime.generators) + list(surrogate.generators))


# -- multiplication table --------------------------------------------------------


def _piece_echelon(pieces: Dict[int, linalg.Echelon], gens: Sequence[Polynomial], d: int, ring: PolyRing) -> linalg.Echelon:
    """The reduced echelon of the degree-d piece of the ideal (gens), kept
    in ``pieces`` by degree."""
    if d not in pieces:
        pieces[d] = linalg.Echelon(graded_piece(gens, d, ring), ring.field)
    return pieces[d]


def graded_membership(
    f: Polynomial, gens: Sequence[Polynomial], ring: PolyRing, pieces: Optional[Dict[int, linalg.Echelon]] = None
) -> bool:
    """Exact degree-piece membership of homogeneous f in the ideal (gens),
    by reduction against the reduced echelon of the ideal's piece in deg f.
    ``pieces`` keeps those echelons by degree for one generator list."""
    if f.is_zero():
        return True
    d = f.homogeneous_degree()
    if d is None:
        raise ContractError("graded membership requires homogeneous input")
    echelon = _piece_echelon({} if pieces is None else pieces, gens, d, ring)
    return echelon.contains(graded_piece([f], d, ring, 0)[0])


@dataclass
class MultiplicationTable:
    """Expansions v_i v_j = c0 + sum_k c_k v_k modulo I_{n+1}(A).

    The generators are represented by Cramer fractions v_k = N_k / D with D
    the determinant of the chosen invertible submatrix of A'; index 0 means
    the unit.  ``entries[(i, j)]`` holds (c0, [c_1..c_n]) for i <= j.
    ``pieces`` holds the reduced echelons of I_{n+1}(A) by degree that
    memberships reduce against, starting with degree 2n + 4.
    """

    n: int
    columns: Tuple[int, ...]
    denominator: Polynomial
    numerators: List[Polynomial]  # N_0 = D, N_1..N_n
    entries: Dict[Tuple[int, int], Tuple[Polynomial, List[Polynomial]]]
    surface_ideal: Ideal
    pieces: Dict[int, linalg.Echelon]
    # by residue degree d: the rows g * x^m of degree d for g = D, N_1..N_n,
    # stacked, with the number of rows of each g
    multiples: Dict[int, Tuple[np.ndarray, List[int]]] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def expansion(self, i: int, j: int) -> Tuple[Polynomial, List[Polynomial]]:
        return self.entries[(min(i, j), max(i, j))]

    def combination_residue(self, c0: Polynomial, cs: Sequence[Polynomial]) -> Polynomial:
        """Cleared-denominator representative of c0 + sum c_k v_k."""
        out = c0 * self.denominator
        for c, N in zip(cs, self.numerators[1:]):
            out = out + c * N
        return out

    def residue_vector(self, c0: Polynomial, cs: Sequence[Polynomial]) -> Tuple[Optional[int], np.ndarray]:
        """Degree d and coefficient vector over graded_basis(ring, d) of
        combination_residue(c0, cs), as one product: the coefficients of c0,
        c_1..c_n against the stacked rows of D, N_1..N_n times the monomials
        of the matching degrees.  d is None for the zero combination."""
        ring = self.denominator.ring
        combo = [c0, *cs]
        if len(combo) != len(self.numerators):
            raise ContractError(f"a combination needs c0 and {self.n} coefficients")
        gdeg = [g.degree() for g in self.numerators]
        live = [not c.is_zero() and e >= 0 for c, e in zip(combo, gdeg)]
        degrees = {c.degree() + e for c, e, on in zip(combo, gdeg, live) if on}
        if len(degrees) > 1:
            raise ContractError("cokernel membership requires a homogeneous combination")
        if not degrees:
            return None, np.zeros(0, dtype=np.int64)
        d = degrees.pop()
        if d not in self.multiples:
            blocks = [
                graded_piece([g] if e <= d else [], d, ring, d - e) for g, e in zip(self.numerators, gdeg)
            ]
            self.multiples[d] = (np.vstack(blocks), [len(b) for b in blocks])
        stacked, sizes = self.multiples[d]
        coefs = [
            graded_piece([c], c.degree(), ring, 0)[0] if on else np.zeros(k, stacked.dtype)
            for c, k, on in zip(combo, sizes, live)
        ]
        return d, linalg.vecmat(np.concatenate(coefs), stacked, ring.field)


def _adjugate(M: PolyMatrix, ring: PolyRing) -> PolyMatrix:
    k = len(M)
    memo: dict = {}
    adj = [[ring.zero()] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            rows_sel = tuple(r for r in range(k) if r != j)
            cols_sel = tuple(c for c in range(k) if c != i)
            cof = matrix_minor(M, rows_sel, cols_sel, ring, memo)
            adj[i][j] = cof if (i + j) % 2 == 0 else -cof
    return adj


def multiplication_table(
    T: SymmetricTableau,
    columns: Optional[Tuple[int, ...]] = None,
) -> MultiplicationTable:
    """Cramer multiplication table of coker(A) over the module basis
    {1, v_1..v_n}.

    The submatrix columns are the lexicographically first n columns whose
    lower square M' has det(M') outside I_{n+1}(A), decided by graded
    membership; products clear det(M')^2.  Every product lives in the
    degree-(2n+4) piece of I_{n+1}(A): its rows are built once, one
    elimination of [system | all right-hand sides] solves every product,
    and the reduced echelon of the piece, kept on the table, re-verifies
    every identity exactly and answers later memberships.
    """
    ring = T.ring
    field = ring.field
    n = T.n
    full = T.full_matrix()
    surrogate = fitting_ideal(full, n + 1, ring)

    chosen = None
    candidates = [columns] if columns is not None else list(combinations(range(2 * n + 2), n))
    for cols in candidates:
        mprime = [[full[i][c] for c in cols] for i in range(1, n + 1)]
        d = matrix_minor(mprime, tuple(range(n)), tuple(range(n)), ring)
        if not d.is_zero() and not graded_membership(d, surrogate.generators, ring):
            chosen = (tuple(cols), mprime, d)
            break
    if chosen is None:
        raise ContractError("no invertible submatrix found: every candidate det lies in I_{n+1}(A)")
    cols, mprime, D = chosen

    adj = _adjugate(mprime, ring)
    m_row = [full[0][c] for c in cols]
    numerators = [D] + [-s for s in poly_matmul([m_row], adj, ring)[0]]

    # unknowns: c0 (degree 4) against D^2, c_k (degree 2) against N_k D, then
    # the multipliers of the ideal's rows
    deg_total = 2 * n + 4
    span = graded_piece(surrogate.generators, deg_total, ring)
    # N_i N_j for i <= j, N_0 = D: the system's columns and right-hand sides,
    # and the left-hand sides of the re-verification below
    products = {(i, j): numerators[i] * numerators[j] for i in range(n + 1) for j in range(i, n + 1)}
    c0_rows = graded_piece([products[(0, 0)]], deg_total, ring, 4)
    ck_rows = graded_piece([products[(0, k)] for k in range(1, n + 1)], deg_total, ring, 2)
    system = np.vstack([c0_rows, ck_rows, span]).T
    pairs = [key for key in products if key[0] > 0]
    rhss = graded_piece([products[key] for key in pairs], deg_total, ring, 0)
    sols, bad = linalg.solve_columns(system, rhss, field)
    if bad is not None:
        i, j = pairs[bad]
        raise ContractError(f"v_{i} v_{j} not in module span mod I_{{n+1}}(A): ring condition fails in disguise")

    entries = {(0, 0): (ring.one(), [ring.zero()] * n)}
    for j in range(1, n + 1):
        entries[(0, j)] = (ring.zero(), [ring.one() if k == j else ring.zero() for k in range(1, n + 1)])
    basis4 = graded_basis(ring, 4)
    basis2 = graded_basis(ring, 2)
    offsets = range(len(basis4), len(basis4) + n * len(basis2), len(basis2))
    for key, sol in zip(pairs, sols):
        cs = [ring.from_terms(dict(zip(basis2, sol[o:]))) for o in offsets]
        entries[key] = (ring.from_terms(dict(zip(basis4, sol))), cs)

    pieces = {deg_total: linalg.Echelon(span, field)}
    table = MultiplicationTable(n, cols, D, numerators, entries, surrogate, pieces)

    # exact re-verification of every identity modulo I_{n+1}(A)
    for (i, j), (c0, cs) in entries.items():
        residue = products[(i, j)] - table.combination_residue(c0, cs) * D
        if not graded_membership(residue, surrogate.generators, ring, pieces):
            raise ContractError(f"multiplication identity for ({i},{j}) fails mod I_{{n+1}}(A)")
    return table


def is_zero_in_cokernel(table: MultiplicationTable, c0: Polynomial, cs: Sequence[Polynomial]) -> bool:
    """Whether c0 + sum c_k v_k represents 0: its cleared-denominator
    residue, as a coefficient vector, lies in the echelon of I_{n+1}(A) in
    the residue's degree."""
    d, vec = table.residue_vector(c0, cs)
    if d is None:
        return True
    ideal = table.surface_ideal
    return _piece_echelon(table.pieces, ideal.generators, d, ideal.ring).contains(vec)


def associativity_check(table: MultiplicationTable, i: int, j: int, k: int) -> bool:
    """(v_i v_j) v_k = v_i (v_j v_k) through cleared-denominator residues."""
    n = table.n
    ring = table.denominator.ring

    def expand_product_with(vk: int, c0: Polynomial, cs: Sequence[Polynomial]):
        # (c0 + sum_l c_l v_l) * v_k expanded through the table
        e0 = ring.zero()
        es = [ring.zero()] * n
        es[vk - 1] = es[vk - 1] + c0
        for l in range(1, n + 1):
            t0, ts = table.expansion(l, vk)
            e0 = e0 + cs[l - 1] * t0
            for mth in range(n):
                es[mth] = es[mth] + cs[l - 1] * ts[mth]
        return e0, es

    c0_ij, cs_ij = table.expansion(i, j)
    left0, lefts = expand_product_with(k, c0_ij, cs_ij)
    c0_jk, cs_jk = table.expansion(j, k)
    right0, rights = expand_product_with(i, c0_jk, cs_jk)
    diff0 = left0 - right0
    diffs = [a - b for a, b in zip(lefts, rights)]
    return is_zero_in_cokernel(table, diff0, diffs)


def tables_agree(t1: MultiplicationTable, t2: MultiplicationTable) -> bool:
    """Whether two tables (possibly over different submatrices) define the
    same products, compared as residues modulo I_{n+1}(A)."""
    for key in t1.entries:
        if key[0] == 0:
            continue
        c0a, csa = t1.entries[key]
        c0b, csb = t2.entries[key]
        diff0 = c0a - c0b
        diffs = [a - b for a, b in zip(csa, csb)]
        if not is_zero_in_cokernel(t1, diff0, diffs):
            return False
    return True


# -- generic reflexivity experiment ----------------------------------------------


def _segre_complex(ring: PolyRing, forms_x: List[Polynomial], forms_y: List[Polynomial], flip_sign: bool = False):
    phi = [[forms_x[i], forms_y[i]] for i in range(4)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    psi = [[ring.zero()] * 4 for _ in range(6)]
    for r, (i, j) in enumerate(pairs):
        psi[r][i] = forms_x[j]
        psi[r][j] = -forms_x[i]
    if flip_sign:
        psi[0][1] = -psi[0][1]
    relations = [forms_x[i] * forms_y[j] - forms_x[j] * forms_y[i] for i, j in pairs]
    return phi, psi, relations


@dataclass
class ReflexivityReport:
    composite_zero: bool
    checked_degrees: List[int]
    kernel_dims: List[int]
    image_dims: List[int]

    @property
    def passed(self) -> bool:
        return self.composite_zero and self.kernel_dims == self.image_dims


def graded_middle_exactness(
    phi: PolyMatrix,
    psi: PolyMatrix,
    relations: List[Polynomial],
    ring: PolyRing,
    degree_bound: int,
    entry_degree: int = 1,
) -> ReflexivityReport:
    """Degree-by-degree exactness of O^2 -> O^4 -> O^6 modulo the relation
    ideal, by exact mod-p ranks on ambient graded pieces with the ideal's
    pieces adjoined."""
    field = ring.field
    if not field.characteristic:
        raise ContractError("graded exactness check runs over a prime field")
    pairs6 = len(psi)
    # composite must vanish modulo the relations
    composite_zero = True
    for entry in (e for row in poly_matmul(psi, phi, ring) for e in row):
        if not entry.is_zero() and not graded_membership(entry, relations, ring):
            composite_zero = False

    def ideal_piece(d: int) -> np.ndarray:
        return graded_piece(relations, d, ring)

    piece_ranks: Dict[int, int] = {}

    def piece_rank(d: int) -> int:
        if d not in piece_ranks:
            piece_ranks[d] = linalg.rank(ideal_piece(d), field)
        return piece_ranks[d]

    def block_diag_piece(d: int, ncomp: int) -> np.ndarray:
        piece = ideal_piece(d)
        dim = len(graded_basis(ring, d))
        if piece.shape[0] == 0:
            return np.zeros((0, ncomp * dim), dtype=np.int64)
        blocks = []
        for comp in range(ncomp):
            block = np.zeros((piece.shape[0], ncomp * dim), dtype=np.int64)
            block[:, comp * dim : (comp + 1) * dim] = piece
            blocks.append(block)
        return np.vstack(blocks)

    checked, kers, ims = [], [], []
    for d in range(degree_bound + 1):
        dim_t = len(graded_basis(ring, d))
        rank_id = piece_rank(d)
        dim_quot4 = 4 * (dim_t - rank_id)
        # kernel of psi on (O^4)_d
        k_rows = graded_map(psi, [d + entry_degree] * pairs6, ring, d)
        b_next = block_diag_piece(d + entry_degree, pairs6)
        stacked = np.vstack([k_rows, b_next]) if b_next.size or k_rows.size else k_rows
        # a block diagonal of copies of the ideal's piece has that many times its rank
        rank_induced = linalg.rank(stacked, field) - pairs6 * piece_rank(d + entry_degree)
        ker_dim = dim_quot4 - rank_induced
        # image of phi in (O^4)_d
        if d >= entry_degree:
            p_rows = graded_map(phi, [d] * 4, ring, d - entry_degree)
            b_here = block_diag_piece(d, 4)
            stacked2 = np.vstack([p_rows, b_here]) if b_here.size or p_rows.size else p_rows
            im_dim = linalg.rank(stacked2, field) - 4 * rank_id
        else:
            im_dim = 0
        checked.append(d)
        kers.append(ker_dim)
        ims.append(im_dim)
    return ReflexivityReport(composite_zero, checked, kers, ims)


def generic_reflexivity_check(
    p: int = 32003,
    degree_bound: int = 4,
    specialization: Optional[Tuple[List[Polynomial], List[Polynomial]]] = None,
    flip_sign: bool = False,
) -> bool:
    """The computer-algebra experiment behind the reflexivity question: over
    GF(p)[X1..X4, Y1..Y4] (or a supplied specialization X_i -> A_i,
    Y_i -> B_i) the complex O^2 -> O^4 -> O^6 is exact at the middle term in
    every degree up to the bound.  ``flip_sign`` is the negative control."""
    if specialization is None:
        ring = PolyRing(
            ("X1", "X2", "X3", "X4", "Y1", "Y2", "Y3", "Y4"), GF(p)
        )
        forms_x = [ring.variable(i) for i in range(4)]
        forms_y = [ring.variable(4 + i) for i in range(4)]
        entry_degree = 1
    else:
        forms_x, forms_y = specialization
        ring = forms_x[0].ring
        degs = {f.homogeneous_degree() for f in forms_x + forms_y}
        if len(degs) != 1:
            raise ContractError("specialized forms must share one degree")
        entry_degree = degs.pop()
        if ring.field.characteristic == 0:
            raise ContractError("specialized exactness check needs a prime field")
    if p and p <= degree_bound:
        raise ContractError("characteristic must exceed the degree bound")
    phi, psi, relations = _segre_complex(ring, forms_x, forms_y, flip_sign)
    report = graded_middle_exactness(phi, psi, relations, ring, degree_bound, entry_degree)
    return report.passed


# -- full verification ------------------------------------------------------------


@dataclass
class CheckResult:
    status: str  # pass | fail | skipped | assumed
    detail: str = ""

    def to_json(self) -> dict:
        return {"status": self.status, "detail": self.detail}


@dataclass
class VerificationReport:
    checks: Dict[str, CheckResult]
    unchecked_hypotheses: Tuple[str, ...] = (
        "Ann(R) prime",
        "X = Proj(R) has only rational double points",
    )

    @property
    def overall(self) -> bool:
        return all(c.status in ("pass", "assumed") for c in self.checks.values())

    @property
    def assumed_count(self) -> int:
        return sum(1 for c in self.checks.values() if c.status == "assumed")

    def to_json(self) -> dict:
        return {
            "checks": {k: v.to_json() for k, v in self.checks.items()},
            "unchecked_hypotheses": list(self.unchecked_hypotheses),
            "overall": "PASS" if self.overall else "FAIL",
        }


def verify_instance(
    T: SymmetricTableau,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> VerificationReport:
    """Run the full battery: symmetry, acyclicity, codimension of
    I_{n+1}(A) (the no-common-factor surrogate), degeneracy scheme, ring
    condition, invariant consistency.  Primality of the annihilator and the
    singularity hypothesis on X are recorded as assumed, never tested.
    """
    resolution = build_resolution(T)
    inv = invariants(resolution)

    checks: Dict[str, CheckResult] = {}
    ok, where = check_symmetry(T.alpha, T.beta, T.ring)
    checks["symmetry"] = CheckResult("pass" if ok else "fail", "" if ok else f"fails at {where}")

    acyc = acyclicity_check(resolution, config)
    checks["acyclicity"] = CheckResult(
        "pass" if acyc.passed else "fail",
        f"codim I_{T.n + 1}(A) = {acyc.codim_first}, second map {acyc.codim_second}",
    )
    checks["codim_surface_ideal"] = CheckResult(
        "pass" if acyc.codim_first == 2 else "fail",
        f"expected exactly 2, got {acyc.codim_first}",
    )

    scheme = degeneracy_scheme(T, config=config)
    if scheme.finite and scheme.reduced and scheme.points == inv.delta:
        checks["degeneracy"] = CheckResult("pass", f"{scheme.points} reduced points")
    else:
        checks["degeneracy"] = CheckResult(
            "fail",
            f"finite={scheme.finite} reduced={scheme.reduced} points={scheme.points} "
            f"expected delta={inv.delta}",
        )
    rc = ring_condition_check(T, scheme=scheme, config=config)
    if rc.status == "skipped":
        checks["ring_condition"] = CheckResult("skipped", rc.reason or "")
    else:
        detail = f"saturated_equal={rc.saturated_equal}"
        if rc.unsaturated_equal is not None:
            detail += f", unsaturated_equal={rc.unsaturated_equal}"
        checks["ring_condition"] = CheckResult(rc.status, detail)
    checks["invariants"] = CheckResult(
        "pass",
        f"p_g={inv.p_g} q={inv.q} K2={inv.K2} chi={inv.chi} delta={inv.delta}",
    )
    checks["annihilator_prime"] = CheckResult("assumed", "not decidable here")
    checks["rational_double_points"] = CheckResult("assumed", "not decidable here")
    return VerificationReport(checks)
