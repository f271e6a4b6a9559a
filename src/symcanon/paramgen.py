"""The K2 = 11 parameter space and its realization chain.

A point of the 161-dimensional affine parameter space consists of 22 linear
forms, 3 quadratic forms and 6 scalars.  Realization recovers the four
missing entries of the first skew matrix from the scalar matrix, chains the
two quadric-level and two linear-level Koszul solves, and assembles a
normal-form tableau whose first-row cubics are doubly determined; the two
determinations of the repeated cubics agree exactly by skew-symmetry, and
this is asserted on every run.  The moduli ledger 161 -> 38 recomputes its
Koszul ambiguity summands live from the realized sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import ContractError
from .fields import GF, DEFAULT_PRIME, DetRng, FieldSpec, Scalar
from .koszul import RegularSequence, SkewWitness, _skew_from_upper, ambiguity_dim, is_regular_sequence
from .poly import Polynomial, PolyRing, graded_basis
from .tableau import SymmetricTableau

L_FREE_KEYS: Tuple[Tuple[int, int], ...] = ((1, 3), (1, 4), (1, 5), (3, 4), (3, 5), (4, 5))
L_DERIVED_KEYS: Tuple[Tuple[int, int], ...] = ((1, 2), (2, 3), (2, 4), (2, 5))
M_KEYS: Tuple[Tuple[int, int], ...] = (
    (1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5),  # kappa, lambda != 4
    (1, 4), (2, 4), (3, 4), (4, 5),
)
S_KEYS: Tuple[Tuple[int, int], ...] = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
BASE_LINEAR = ("a2", "a3", "a4", "b2", "b3", "b4")
QUADRIC_NAMES = ("P24", "Q13", "P13")


@dataclass
class ParameterPoint:
    """One point of the affine parameter space (coordinate count 161)."""

    ring: PolyRing
    base: Dict[str, Polynomial]  # a2, a3, a4, b2, b3, b4
    L_free: Dict[Tuple[int, int], Polynomial]  # 6 linear forms
    M: Dict[Tuple[int, int], Polynomial]  # all 10 linear forms, free
    quadrics: Dict[str, Polynomial]  # P24, Q13, P13
    scalars: Dict[Tuple[int, int], Scalar]  # S_{rs}, r < s <= 4

    def __post_init__(self):
        if set(self.base) != set(BASE_LINEAR):
            raise ContractError("base linear forms must be a2,a3,a4,b2,b3,b4")
        if set(self.L_free) != set(L_FREE_KEYS) or set(self.M) != set(M_KEYS):
            raise ContractError("wrong free L/M index sets")
        if set(self.quadrics) != set(QUADRIC_NAMES) or set(self.scalars) != set(S_KEYS):
            raise ContractError("wrong quadric/scalar index sets")
        for f in list(self.base.values()) + list(self.L_free.values()) + list(self.M.values()):
            if not f.is_zero() and f.homogeneous_degree() != 1:
                raise ContractError("linear coordinates must be linear forms")
        for f in self.quadrics.values():
            if not f.is_zero() and f.homogeneous_degree() != 2:
                raise ContractError("quadric coordinates must be quadratic forms")

    def coordinate_count(self) -> int:
        nlin = len(self.base) + len(self.L_free) + len(self.M)
        return nlin * 5 + len(self.quadrics) * 15 + len(self.scalars)


def sample(seed: int, field: FieldSpec = None) -> ParameterPoint:
    """Deterministic pseudo-random parameter point: uniform coordinates over
    GF(p), small integers over Q.  Draw order is fixed and documented by the
    field lists above, so identical seeds give identical points."""
    if field is None:
        field = GF(DEFAULT_PRIME)
    ring = PolyRing(field=field)
    rng = DetRng(seed)

    def lin() -> Polynomial:
        return ring.linear_form([rng.scalar(field) for _ in range(5)])

    def quad() -> Polynomial:
        return ring.from_terms({m: rng.scalar(field) for m in graded_basis(ring, 2)})

    base = {name: lin() for name in BASE_LINEAR}
    L_free = {key: lin() for key in L_FREE_KEYS}
    M = {key: lin() for key in M_KEYS}
    quadrics = {name: quad() for name in QUADRIC_NAMES}
    scalars = {key: rng.scalar(field) for key in S_KEYS}
    point = ParameterPoint(ring, base, L_free, M, quadrics, scalars)
    assert point.coordinate_count() == 161
    return point


def realize(point: ParameterPoint) -> SymmetricTableau:
    """Build the normal-form K2 = 11 tableau from a parameter point.

    Rejects points whose side sequences fail regularity, after attempting
    the one-shot a2 -> a2 + b2 repair; asserts the consistency of the two
    determinations of the repeated first-row cubics and the normal shape of
    the output.
    """
    ring = point.ring
    base = dict(point.base)

    def sequences(b: Dict[str, Polynomial]):
        return {
            "(a2,a3,b2,b3)": [b["a2"], b["a3"], b["b2"], b["b3"]],
            "(a4,-a2,b4,-b2)": [b["a4"], -b["a2"], b["b4"], -b["b2"]],
            "(a4,a3,b4,b3)": [b["a4"], b["a3"], b["b4"], b["b3"]],
            "(a4,-a2,a3,b4,b3)": [b["a4"], -b["a2"], b["a3"], b["b4"], b["b3"]],
            "(a4,a3,b4,b2,b3)": [b["a4"], b["a3"], b["b4"], b["b2"], b["b3"]],
        }

    def first_failing(b) -> Optional[str]:
        for name, seq in sequences(b).items():
            if any(f.is_zero() for f in seq) or not is_regular_sequence(seq):
                return name
        return None

    failing = first_failing(base)
    if failing is not None:
        repaired = dict(base)
        repaired["a2"] = base["a2"] + base["b2"]
        if first_failing(repaired) is None:
            base = repaired
        else:
            raise ContractError(
                f"regularity precondition fails for {failing} (and after the a2 -> a2+b2 repair)"
            )

    a2, a3, a4 = base["a2"], base["a3"], base["a4"]
    b2, b3, b4 = base["b2"], base["b3"], base["b4"]

    S = point.scalars

    def sval(r: int, s: int) -> Scalar:
        field = ring.field
        if r == s:
            return field.zero()
        if r < s:
            return S[(r, s)]
        return field.neg(S[(s, r)])

    # recover the four dependent L entries from the scalar skew matrix:
    # row k of (15) against the regular sequence (a4, a3, b4, b3)
    w = [a4, a3, b4, b3]

    def srow(k: int) -> Polynomial:
        out = ring.zero()
        for l in range(1, 5):
            out = out + w[l - 1].scale(sval(k, l))
        return out

    M14, M24, M34, M45 = point.M[(1, 4)], point.M[(2, 4)], point.M[(3, 4)], point.M[(4, 5)]
    L_entries: Dict[Tuple[int, int], Polynomial] = dict(point.L_free)
    L_entries[(1, 2)] = M14 - srow(1)
    L_entries[(2, 3)] = -M24 + srow(2)
    L_entries[(2, 4)] = -M34 + srow(3)
    L_entries[(2, 5)] = M45 + srow(4)

    def skew(entries: Dict[Tuple[int, int], Polynomial], size: int) -> SkewWitness:
        # the skew matrix with these strict-upper entries, 1-based
        upper = [entries[(k, l)] for k in range(1, size + 1) for l in range(k + 1, size + 1)]
        return _skew_from_upper(ring, size, upper)

    a_seq = [a4, -a2, a3, b4, b3]
    aprime_seq = [a4, a3, b4, b2, b3]
    La = skew(L_entries, 5).apply(a_seq)
    Ma = skew(point.M, 5).apply(aprime_seq)

    # (12): (Q14, P13+Q24, -P23, Q34, P34) = L a
    # (13): (Q12, P12, -Q23, P13+Q24, P14) = M a'
    Q14, P13_plus_Q24, negP23, Q34, P34 = La
    Q12, P12, negQ23, P13_plus_Q24_bis, P14 = Ma
    consistency = P13_plus_Q24 - P13_plus_Q24_bis
    assert consistency.is_zero(), "the two determinations of P13 + Q24 disagree"

    P13 = point.quadrics["P13"]
    P24 = point.quadrics["P24"]
    Q13 = point.quadrics["Q13"]
    P23 = -negP23
    Q23 = -negQ23
    Q24 = P13_plus_Q24 - P13

    P = {(1, 2): P12, (1, 3): P13, (1, 4): P14, (2, 3): P23, (2, 4): P24, (3, 4): P34}
    Q = {(1, 2): Q12, (1, 3): Q13, (1, 4): Q14, (2, 3): Q23, (2, 4): Q24, (3, 4): Q34}

    v1 = [a2, a3, b2, b3]
    v2 = [a4, -a2, b4, -b2]
    W1 = skew(P, 4).apply(v1)  # (-B2, -B3, A2, A3)
    W2 = skew(Q, 4).apply(v2)  # (-B1, -B2, A1, A2)

    B2, B3, A2, A3 = -W1[0], -W1[1], W1[2], W1[3]
    B1, B2_bis, A1, A2_bis = -W2[0], -W2[1], W2[2], W2[3]
    assert (A2 - A2_bis).is_zero(), "A2 from the P side differs from the Q side"
    assert (B2 - B2_bis).is_zero(), "B2 from the P side differs from the Q side"

    zero = ring.zero()
    alpha = [[A1, A2, A3], [zero, a2, a3], [a4, -a2, zero]]
    beta = [[B1, B2, B3], [zero, b2, b3], [b4, -b2, zero]]
    T = SymmetricTableau(ring, alpha, beta)

    from .normalform import verify_normal_shape

    shape = verify_normal_shape(T)
    assert shape.ok, f"realized tableau misses the normal shape: {shape.violations}"
    return T


@dataclass
class DimensionLedger:
    """The moduli dimension bookkeeping 161 -> 38 with live summands."""

    dim_P: int
    quadric_witness_ambiguities: Tuple[int, int]  # kernel dims for P and Q, 19 each
    linear_witness_ambiguities: Tuple[int, int]  # kernel dims for L and M, 10 each
    dim_G: int
    dim_H: int
    dim_L: int

    @property
    def result(self) -> int:
        return (
            self.dim_P
            - sum(self.quadric_witness_ambiguities)
            - sum(self.linear_witness_ambiguities)
            - self.dim_G
            - self.dim_H
            - self.dim_L
        )

    def to_json(self) -> dict:
        return {
            "dim_P": self.dim_P,
            "quadric_witness_ambiguities": list(self.quadric_witness_ambiguities),
            "linear_witness_ambiguities": list(self.linear_witness_ambiguities),
            "dim_G": self.dim_G,
            "dim_H": self.dim_H,
            "dim_L": self.dim_L,
            "result": self.result,
        }


def ledger(seed: int = 0, field: FieldSpec = None) -> DimensionLedger:
    """Recompute the dimension ledger with the ambiguity summands obtained
    live from a sampled regular instance, never from constants."""
    if field is None:
        field = GF(DEFAULT_PRIME)
    point = None
    for s in range(seed, seed + 32):
        cand = sample(s, field)
        try:
            realize(cand)
        except ContractError:
            continue
        point = cand
        break
    if point is None:
        raise ContractError("no regular parameter point found in 32 seeds")
    b = point.base
    v1 = RegularSequence.verify([b["a2"], b["a3"], b["b2"], b["b3"]])
    v2 = RegularSequence.verify([b["a4"], -b["a2"], b["b4"], -b["b2"]])
    aseq = RegularSequence.verify([b["a4"], -b["a2"], b["a3"], b["b4"], b["b3"]])
    aprime = RegularSequence.verify([b["a4"], b["a3"], b["b4"], b["b2"], b["b3"]])
    amb_p = ambiguity_dim(v1, 4)
    amb_q = ambiguity_dim(v2, 4)
    amb_l = ambiguity_dim(aseq, 3)
    amb_m = ambiguity_dim(aprime, 3)
    return DimensionLedger(161, (amb_p, amb_q), (amb_l, amb_m), 24, 32, 9)


# -- complete-intersection Jacobian check ----------------------------------------


@dataclass
class JacobianReport:
    ok: bool
    n: int
    quadric_count: int
    jacobian_rank: int
    dim_ms: int
    codim_delta: int


def quadric_jacobian_check(n: int, seed: int = 0, field: FieldSpec = None) -> JacobianReport:
    """At a seeded random full-rank point of the symmetric-pair variety, the
    Jacobian of the n(n-1)/2 symmetry quadrics has full rank; the dimension
    dim M^s = n(n+1) + (n+1)(n+2)/2 - 2 and codim Delta = 4 are reported as
    formula outputs."""
    if not 1 <= n <= 4:
        raise ContractError("quadric_jacobian_check supports 1 <= n <= 4")
    if field is None:
        field = GF(DEFAULT_PRIME)
    q_count = n * (n - 1) // 2
    dim_ms = n * (n + 1) + (n + 1) * (n + 2) // 2 - 2
    if q_count == 0:
        return JacobianReport(True, n, 0, 0, dim_ms, 4)

    from . import linalg
    from .tableau import ScalarTableau, OpMove

    ring = PolyRing(field=field)
    width = n + 1
    for attempt in range(16):
        rng = DetRng(seed * 131 + attempt)
        g = [[rng.scalar(field) for _ in range(n)] for _ in range(n)]
        if linalg.det(g, field) == field.zero():
            continue
        a0 = [[field.one() if i == j else field.zero() for j in range(width)] for i in range(n)]
        b0 = [[field.zero()] * width for _ in range(n)]
        t = ScalarTableau(ring, a0, b0).apply_rows(g)
        for _ in range(12):
            kind = rng.randint(0, 3)
            mu = rng.randint(0, width - 1)
            nu = rng.randint(0, width - 1)
            lam = rng.scalar(field)
            if kind == 0:
                t = t.apply_column_move(OpMove("add_col_same", lam, mu))
            elif kind == 1:
                t = t.apply_column_move(OpMove("add_col_pair", lam, mu, nu))
            elif kind == 2 and mu != nu:
                t = t.apply_column_move(OpMove("transfer", lam, mu, nu))
            else:
                t = t.apply_column_move(OpMove("rotate", None, mu))
        a, b = t.a, t.b
        if t.rank() < n:
            continue
        # rows: quadrics q_ij, i<j; columns: all entries of a then b
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                row = []
                for l in range(n):
                    for m in range(width):
                        # d q_ij / d a_lm = delta_il b_jm - delta_jl b_im
                        c = field.zero()
                        if l == i:
                            c = field.add(c, b[j][m])
                        if l == j:
                            c = field.sub(c, b[i][m])
                        row.append(c)
                for l in range(n):
                    for m in range(width):
                        c = field.zero()
                        if l == j:
                            c = field.add(c, a[i][m])
                        if l == i:
                            c = field.sub(c, a[j][m])
                        row.append(c)
                rows.append(row)
        rank = linalg.rank(rows, field)
        if rank == q_count:
            return JacobianReport(True, n, q_count, rank, dim_ms, 4)
    raise ContractError("no smooth sample point found in 16 attempts")
