"""Resolution assembly and the verification battery for tableaux.

A tableau A = (alpha beta) with n = K^2 - 9 spans the length-2 complex

    0 -> F2 --(-beta^t / alpha^t)--> F1 --(alpha beta)--> F0

with F0 = R + R(-2)^n, F1 = R(-3)^(2n+2), F2 = R(-6) + R(-4)^n.  The
composite is beta alpha^t - alpha beta^t, so it vanishes exactly by the
symmetry, and the second map is A transposed against the symplectic form:
both maps have the maximal minors of A, up to sign.  This module checks
Buchsbaum-Eisenbud acyclicity from that one Fitting ideal I_{n+1}(A), its
grade certified on a line when it can be and computed otherwise, reads the
surface invariants off the Hilbert resolution, decides the ring condition
(saturated Fitting-ideal equality) in the point algebra of the degeneracy
scheme, produces the Cramer multiplication table of the cokernel algebra,
and runs the generic graded-exactness experiment behind the reflexivity
remark.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import BudgetExceededError, ContractError
from .fields import GF
from .ideals import (
    Ideal,
    codimension,
    ideal_equal,
)
from .poly import Polynomial, PolyRing, coprime_on_a_line, graded_basis, graded_map, graded_piece, poly_matmul
from .tableau import (
    DegeneracyScheme,
    Minors,
    PolyMatrix,
    SymmetricTableau,
    degeneracy_scheme,
    fitting_ideal,
)


def _binom_cut(k: int, l: int) -> int:
    return comb(k, l) if k >= l else 0


# -- the resolution -------------------------------------------------------------


@dataclass
class GradedResolution:
    """Maps and twists of the length-2 complex of a tableau."""

    ring: PolyRing
    n: int
    minors: Minors  # the table of the tableau's minors
    second_map: PolyMatrix  # (2n+2) x (n+1), (-beta^t over alpha^t)
    shifts: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]

    @property
    def first_map(self) -> PolyMatrix:
        """(n+1) x (2n+2), the tableau itself."""
        return self.minors.matrix


def resolution_shifts(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """The standard twists of F0, F1, F2 for a given n."""
    return (0,) + (2,) * n, (3,) * (2 * n + 2), (6,) + (4,) * n


def build_resolution(T: SymmetricTableau) -> GradedResolution:
    """Assemble the complex.  Its composite is beta alpha^t - alpha beta^t,
    which vanishes by the symmetry the tableau's constructor checked."""
    n = T.n
    second = [
        [-T.beta[j][i] for j in range(n + 1)] for i in range(n + 1)
    ] + [[T.alpha[j][i] for j in range(n + 1)] for i in range(n + 1)]
    return GradedResolution(T.ring, n, T.minors(), second, resolution_shifts(n))


def shape_resolution(ring: PolyRing, n: int) -> GradedResolution:
    """Resolution carrier with the standard twists for a given n and no
    maps; enough for the Hilbert-dimension and invariant computations."""
    return GradedResolution(ring, n, Minors([], ring), [], resolution_shifts(n))


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
class AcyclicityReport:
    """Rank and grade of I_{n+1}(A), which both maps share."""

    rank_ok: bool
    codim: int

    @property
    def passed(self) -> bool:
        return self.rank_ok and self.codim >= 2


def acyclicity_check(R: GradedResolution, symmetric: bool = False) -> AcyclicityReport:
    """Buchsbaum-Eisenbud data for the self-dual complex: both maps must
    reach rank n+1 and their ideals of maximal minors must have grade at
    least 2.

    Row i of the second map (-beta^t / alpha^t) is a column of A transposed,
    up to sign, so the maximal minors of both maps are those of A up to sign
    and one Fitting ideal I_{n+1}(A) serves both.  A map has rank n+1 iff
    that ideal is nonzero; its nonzero minors are the rank certificates.

    ``symmetric`` is the tableau's symmetry verdict (``T.symmetry()``).
    When it holds and the maximal minors have no common factor on a line
    (coprime_on_a_line), the complex is exact: then the cokernel B has the
    twists' Hilbert polynomial, so dim B = 3, and I_{n+1}(A), which has the
    radical of ann B, has codimension exactly 2.  Otherwise the codimension
    is computed.
    """
    if symmetric and coprime_on_a_line(R.first_map, R.ring) is not None:
        return AcyclicityReport(True, 2)
    ideal = fitting_ideal(R.minors, R.n + 1)
    rank_ok = any(not g.is_zero() for g in ideal.generators)
    codim = codimension(ideal) if rank_ok else 0
    return AcyclicityReport(rank_ok, codim)


# -- ring condition -------------------------------------------------------------


@dataclass
class RingConditionReport:
    status: str  # "pass" | "fail" | "skipped"
    reason: Optional[str]
    saturated_equal: Optional[bool]
    unsaturated_equal: Optional[bool]  # n = 2 only
    scheme: Optional[DegeneracyScheme]

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def sat_aprime(self) -> Optional[Ideal]:
        """bar I_n(A'), the scheme's saturated ideal, computed on first read."""
        return None if self.scheme is None else self.scheme.ideal


def ring_condition_check(
    T: SymmetricTableau,
    scheme: Optional[DegeneracyScheme] = None,
) -> RingConditionReport:
    """Saturated Fitting equality bar I_n(A') = bar I_n(A); for n = 2 the
    unsaturated identity I_2(A) = I_2(A') is tested and reported as well.

    Skipped (with the reason) unless the degeneracy scheme is a finite set
    of reduced points, the hypothesis under which the saturated equality
    encodes the multiplicative structure.  I_n(A) is I_n(A') plus the n x n
    minors through row 0, so the saturations agree exactly when each such
    minor has class zero in the scheme's point algebra.
    """
    if scheme is None:
        scheme = degeneracy_scheme(T)
    if not scheme.finite:
        return RingConditionReport("skipped", "degeneracy scheme not finite", None, None, None)
    if not scheme.reduced:
        return RingConditionReport("skipped", "degeneracy scheme not reduced", None, None, None)
    n, algebra, field = T.n, scheme.algebra, T.ring.field
    minors = T.minors()
    # read from I_n(A') itself, the algebra certifies I_n(A')_{n+2} saturated:
    # then the unsaturated identity is the saturated one
    certified = algebra.ideal is scheme.fitting
    unsat_eq = ideal_equal(fitting_ideal(minors, n), scheme.fitting) if n == 2 and not certified else None
    if not unsat_eq:
        # a minor through row 0, expanded along it: the operators of the
        # cubics applied to the classes of the (n-1)-minors of A'
        first = algebra.operators(T.row(0), 3)
        subs = [(r, c) for r in combinations(range(1, n + 1), n - 1) for c in combinations(range(2 * n + 2), n - 1)]
        sub = dict(zip(subs, algebra.classes([minors(r, c) for r, c in subs], n - 1)))
        classes = [
            sum(
                (-1) ** i * linalg.vecmat(first[c], sub[r, cols[:i] + cols[i + 1 :]], field)
                for i, c in enumerate(cols)
            )
            for r in combinations(range(1, n + 1), n - 1)
            for cols in combinations(range(2 * n + 2), n)
        ]
    sat_eq = unsat_eq or not any((v % field.p if field.p else v).any() for v in classes)
    if n == 2 and certified:
        unsat_eq = sat_eq
    ok = sat_eq and (unsat_eq is not False)
    return RingConditionReport("pass" if ok else "fail", None, sat_eq, unsat_eq, scheme)


def conductor_ideal(
    T: SymmetricTableau,
    report: Optional[RingConditionReport] = None,
) -> Ideal:
    """bar I_n(A') + I_{n+1}(A): the conductor presented modulo the surface
    ideal surrogate; its vanishing locus is the double-point set."""
    if report is None:
        report = ring_condition_check(T)
    if not report.passed:
        raise ContractError(f"ring condition does not pass (status: {report.status})")
    surrogate = fitting_ideal(T.minors(), T.n + 1)
    return Ideal(T.ring, list(report.sat_aprime.generators) + list(surrogate.generators))


# -- multiplication table --------------------------------------------------------


def graded_membership(f: Polynomial, ideal: Ideal) -> bool:
    """Exact membership of homogeneous f in the ideal, by reduction against
    the reduced echelon of the ideal's piece in deg f."""
    if f.is_zero():
        return True
    d = f.homogeneous_degree()
    if d is None:
        raise ContractError("graded membership requires homogeneous input")
    return ideal.piece(d).contains(graded_piece([f], d, ideal.ring, 0)[0])


@dataclass
class MultiplicationTable:
    """Expansions v_i v_j = c0 + sum_k c_k v_k modulo I_{n+1}(A).

    The generators are represented by Cramer fractions v_k = N_k / D with D
    the determinant of the chosen invertible submatrix of A'; index 0 means
    the unit.  ``entries[(i, j)]`` holds (c0, [c_1..c_n]) for i <= j.
    Memberships reduce against ``surface_ideal.piece``, the reduced echelons
    of I_{n+1}(A) by degree.
    """

    n: int
    columns: Tuple[int, ...]
    denominator: Polynomial
    numerators: List[Polynomial]  # N_0 = D, N_1..N_n
    entries: Dict[Tuple[int, int], Tuple[Polynomial, List[Polynomial]]]
    surface_ideal: Ideal
    # by k: N_k, R_1k..R_nk, with R_lk the residue of entry (l, k)
    factors: Dict[int, List[Polynomial]] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # by (k, residue degree d): the rows g * x^m of degree d for the factors
    # g of k, stacked, with the number of rows of each g
    multiples: Dict[Tuple[int, int], Tuple[np.ndarray, List[int]]] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def expansion(self, i: int, j: int) -> Tuple[Polynomial, List[Polynomial]]:
        return self.entries[(min(i, j), max(i, j))]

    def combination_residue(self, c0: Polynomial, cs: Sequence[Polynomial]) -> Polynomial:
        """Cleared-denominator representative of c0 + sum c_k v_k: the row
        (c0, c_1..c_n) times the column (D, N_1..N_n)."""
        column = [[N] for N in self.numerators]
        return poly_matmul([[c0, *cs]], column, self.denominator.ring)[0][0]

    def residue_vector(self, c0: Polynomial, cs: Sequence[Polynomial], k: int) -> Tuple[Optional[int], np.ndarray]:
        """Degree d and coefficient vector over graded_basis(ring, d) of the
        residue of (c0 + sum_l c_l v_l) * v_k, which is c0 N_k + sum_l c_l R_lk
        (combination_residue(c0, cs) for k = 0, as R_l0 = N_l), as one
        product: the coefficients of c0, c_1..c_n against the stacked rows of
        N_k, R_1k..R_nk times the monomials of the matching degrees.  For the
        zero product d is None and the vector is a scalar zero."""
        ring = self.denominator.ring
        combo = [c0, *cs]
        if len(combo) != len(self.numerators):
            raise ContractError(f"a combination needs c0 and {self.n} coefficients")
        if k not in self.factors:
            self.factors[k] = self.numerators if k == 0 else [self.numerators[k]] + [
                self.combination_residue(*self.expansion(l, k)) for l in range(1, self.n + 1)
            ]
        gdeg = [g.degree() for g in self.factors[k]]
        live = [not c.is_zero() and e >= 0 for c, e in zip(combo, gdeg)]
        degrees = {c.degree() + e for c, e, on in zip(combo, gdeg, live) if on}
        if len(degrees) > 1:
            raise ContractError("cokernel membership requires a homogeneous combination")
        if not degrees:
            return None, np.zeros((), dtype=np.int64)
        d = degrees.pop()
        if (k, d) not in self.multiples:
            blocks = [
                graded_piece([g] if e <= d else [], d, ring, d - e) for g, e in zip(self.factors[k], gdeg)
            ]
            self.multiples[(k, d)] = (np.vstack(blocks), [len(b) for b in blocks])
        stacked, sizes = self.multiples[(k, d)]
        coefs = [
            graded_piece([c], c.degree(), ring, 0)[0] if on else np.zeros(size, stacked.dtype)
            for c, size, on in zip(combo, sizes, live)
        ]
        return d, linalg.vecmat(np.concatenate(coefs), stacked, ring.field)


def multiplication_table(
    T: SymmetricTableau,
    columns: Optional[Tuple[int, ...]] = None,
) -> MultiplicationTable:
    """Cramer multiplication table of coker(A) over the module basis
    {1, v_1..v_n}.

    The submatrix columns are the lexicographically first n columns whose
    lower square M' has det(M') outside I_{n+1}(A), decided by graded
    membership; products clear det(M')^2.  Every product lives in the
    degree-(2n+4) piece of I_{n+1}(A), eliminated once by
    ``surface_ideal.piece``.  One elimination of [system | all right-hand
    sides] solves every product; the system's ideal columns are only the
    piece's independent rows (``Echelon.independent``).  A row that
    depends on earlier rows is never a pivot, so dropping it changes no
    pivot, no solution (free variables zero) and no failing product.  The
    piece's reduced echelon, kept on the table, re-verifies every identity
    exactly and answers later memberships.
    """
    ring = T.ring
    field = ring.field
    n = T.n
    minors = T.minors()
    candidates = combinations(range(2 * n + 2), n) if columns is None else [minors.columns(columns, n)]
    surrogate = fitting_ideal(minors, n + 1)
    # D = det(M'), M' the chosen columns of A'; the numerator N_k, det(M')
    # with row k replaced by the first row of A, is (-1)^k times the minor
    # of A on the rows other than k
    for cols in candidates:
        D = minors(range(1, n + 1), cols)
        if not D.is_zero() and not graded_membership(D, surrogate):
            break
    else:
        raise ContractError("no invertible submatrix found: every candidate det lies in I_{n+1}(A)")
    cramer = [minors(tuple(r for r in range(n + 1) if r != k), cols) for k in range(1, n + 1)]
    numerators = [D] + [N if k % 2 == 0 else -N for k, N in enumerate(cramer, 1)]

    # unknowns: c0 (degree 4) against D^2, c_k (degree 2) against N_k D, then
    # the multipliers of the piece's independent rows
    deg_total = 2 * n + 4
    piece = surrogate.piece(deg_total)
    # N_i N_j for i <= j, N_0 = D: the system's columns and right-hand sides,
    # and the left-hand sides of the re-verification below
    products = {(i, j): numerators[i] * numerators[j] for i in range(n + 1) for j in range(i, n + 1)}
    c0_rows = graded_piece([products[(0, 0)]], deg_total, ring, 4)
    ck_rows = graded_piece([products[(0, k)] for k in range(1, n + 1)], deg_total, ring, 2)
    system = np.vstack([c0_rows, ck_rows, piece.independent]).T
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

    table = MultiplicationTable(n, cols, D, numerators, entries, surrogate)

    # exact re-verification of every identity modulo I_{n+1}(A)
    for (i, j), (c0, cs) in entries.items():
        residue = products[(i, j)] - table.combination_residue(c0, cs) * D
        if not graded_membership(residue, surrogate):
            raise ContractError(f"multiplication identity for ({i},{j}) fails mod I_{{n+1}}(A)")
    return table


def is_zero_in_cokernel(table: MultiplicationTable, c0: Polynomial, cs: Sequence[Polynomial]) -> bool:
    """Whether c0 + sum c_k v_k represents 0: its cleared-denominator
    residue, as a coefficient vector, lies in the echelon of I_{n+1}(A) in
    the residue's degree."""
    d, vec = table.residue_vector(c0, cs, 0)
    return d is None or table.surface_ideal.piece(d).contains(vec)


def associativity_check(table: MultiplicationTable, i: int, j: int, k: int) -> bool:
    """(v_i v_j) v_k = v_i (v_j v_k): the residues of v_i v_j times v_k and
    of v_j v_k times v_i, as coefficient vectors, differ by a vector in the
    echelon of I_{n+1}(A) in their degree."""
    d, left = table.residue_vector(*table.expansion(i, j), k)
    e, right = table.residue_vector(*table.expansion(j, k), i)
    if None not in (d, e) and d != e:
        raise ContractError("cokernel membership requires a homogeneous combination")
    diff = left - right
    # equal residues need no echelon, which in a new degree is an elimination
    return not diff.any() or table.surface_ideal.piece(e if d is None else d).contains(diff)


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


# Entries of the largest system graded_middle_exactness may build.  Degree 5
# of the generic complex (8 variables) is bounded by 1.4e8 and runs in about
# 2 GB; degree 6, bounded by 5.7e8, would need about 9 GB.
_EXACTNESS_CELL_LIMIT = 2 * 10**8


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
    # the kernel system of the top degree is the largest: 4 N(d) rows of psi
    # and at most 6 N(d + e) rows of the ideal's pieces, over 6 N(d + e)
    # columns, with N(k) monomials of degree k
    n_d, n_de = (comb(k + ring.nvars - 1, k) for k in (degree_bound, degree_bound + entry_degree))
    rows, cols = len(psi[0]) * n_d + pairs6 * n_de, pairs6 * n_de
    if rows * cols > _EXACTNESS_CELL_LIMIT:
        raise BudgetExceededError(
            f"degree-{degree_bound} exactness system of up to {rows} x {cols} entries "
            f"exceeds the limit of {_EXACTNESS_CELL_LIMIT} entries"
        )
    ideal = Ideal(ring, relations)
    # composite must vanish modulo the relations
    composite_zero = True
    for entry in (e for row in poly_matmul(psi, phi, ring) for e in row):
        if not graded_membership(entry, ideal):
            composite_zero = False

    def block_diag_piece(d: int, ncomp: int) -> np.ndarray:
        return np.kron(np.eye(ncomp, dtype=np.int64), ideal.piece(d).rows)

    checked, kers, ims = [], [], []
    for d in range(degree_bound + 1):
        dim_t = len(graded_basis(ring, d))
        rank_id = len(ideal.piece(d).pivots)
        dim_quot4 = 4 * (dim_t - rank_id)
        # kernel of psi on (O^4)_d
        k_rows = graded_map(psi, [d + entry_degree] * pairs6, ring, d)
        stacked = np.vstack([k_rows, block_diag_piece(d + entry_degree, pairs6)])
        # a block diagonal of copies of the ideal's piece has that many times its rank
        rank_induced = linalg.rank(stacked, field) - pairs6 * len(ideal.piece(d + entry_degree).pivots)
        ker_dim = dim_quot4 - rank_induced
        # image of phi in (O^4)_d
        if d >= entry_degree:
            p_rows = graded_map(phi, [d] * 4, ring, d - entry_degree)
            im_dim = linalg.rank(np.vstack([p_rows, block_diag_piece(d, 4)]), field) - 4 * rank_id
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
    if degree_bound < 0:
        raise ContractError(f"degree bound must be non-negative, got {degree_bound}")
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


def verify_instance(T: SymmetricTableau) -> VerificationReport:
    """Run the full battery: symmetry, acyclicity, codimension of
    I_{n+1}(A) (the no-common-factor surrogate), degeneracy scheme, ring
    condition, invariant consistency.  Primality of the annihilator and the
    singularity hypothesis on X are recorded as assumed, never tested.
    """
    resolution = build_resolution(T)
    inv = invariants(resolution)

    checks: Dict[str, CheckResult] = {}
    ok, where = T.symmetry()
    checks["symmetry"] = CheckResult("pass" if ok else "fail", "" if ok else f"fails at {where}")

    acyc = acyclicity_check(resolution, symmetric=ok)
    checks["acyclicity"] = CheckResult(
        "pass" if acyc.passed else "fail",
        f"codim I_{T.n + 1}(A) = {acyc.codim}, second map {acyc.codim}",
    )
    checks["codim_surface_ideal"] = CheckResult(
        "pass" if acyc.codim == 2 else "fail",
        f"expected exactly 2, got {acyc.codim}",
    )

    scheme = degeneracy_scheme(T)
    if scheme.finite and scheme.reduced and scheme.points == inv.delta:
        checks["degeneracy"] = CheckResult("pass", f"{scheme.points} reduced points")
    else:
        checks["degeneracy"] = CheckResult(
            "fail",
            f"finite={scheme.finite} reduced={scheme.reduced} points={scheme.points} "
            f"expected delta={inv.delta}",
        )
    rc = ring_condition_check(T, scheme=scheme)
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
