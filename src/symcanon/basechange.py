"""Symmetry-preserving base changes toward det(alpha), det(beta) regular.

Over the graded polynomial ring (a domain) the first phase of the
good-minor argument reduces to making det(alpha) nonzero, and the second
asks that det(beta) be a nonzerodivisor modulo (det(alpha)), tested through
ideal quotients rather than associated primes.  The searches mirror the
overlap-minimality bookkeeping of the proof: a maximal minor mixing an
alpha-column and the matching beta-column ("not good") is traded, via the
move adding zeta*alpha_H to beta_L and zeta*alpha_L to beta_H, for one with
strictly smaller overlap, the Pluecker relations guaranteeing the trade
works for generic zeta.  Multipliers come from a seeded sequence and every
step is verified; budgets fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceededError, ContractError
from .fields import DetRng
from .ideals import DEFAULT_GB_CONFIG, GBConfig, Ideal, ideal_equal, ideal_quotient
from .poly import Polynomial, PolyRing
from .tableau import (
    Minors,
    OpMove,
    PolyMatrix,
    SymmetricTableau,
    act_on_blocks,
    apply_op,
    apply_op_word,
    check_symmetry,
    mirror_pair_word,
)


@dataclass(frozen=True)
class MinorIndex:
    """Column selection [alpha_cols ; beta_cols] of a maximal mixed minor."""

    alpha_cols: Tuple[int, ...]
    beta_cols: Tuple[int, ...]

    @property
    def good(self) -> bool:
        return not set(self.alpha_cols) & set(self.beta_cols)

    @property
    def overlap(self) -> int:
        return len(set(self.alpha_cols) & set(self.beta_cols))

    def columns(self, size: int) -> Tuple[int, ...]:
        """The selected columns of the joined matrix (alpha | beta)."""
        return tuple(sorted(self.alpha_cols)) + tuple(size + c for c in sorted(self.beta_cols))


class SquareSymmetricPair:
    """Square blocks alpha, beta with alpha beta^t = beta alpha^t and no
    degree-layout constraint; the plain setting of the base-change search."""

    def __init__(self, ring: PolyRing, alpha: PolyMatrix, beta: PolyMatrix):
        size = len(alpha)
        if any(len(r) != size for r in alpha) or len(beta) != size or any(
            len(r) != size for r in beta
        ):
            raise ContractError("blocks must be square of equal size")
        degrees = {
            e.homogeneous_degree()
            for row in list(alpha) + list(beta)
            for e in row
            if not e.is_zero()
        }
        if None in degrees or len(degrees) > 1:
            raise ContractError(
                "pair entries must be homogeneous of one common degree (scalar or linear)"
            )
        ok, where = check_symmetry(alpha, beta, ring)
        if not ok:
            raise ContractError(f"symmetry fails at entry {where}")
        self.ring = ring
        self.alpha = [list(r) for r in alpha]
        self.beta = [list(r) for r in beta]
        self._minors = None

    @property
    def size(self) -> int:
        return len(self.alpha)

    width = size
    full_matrix = SymmetricTableau.full_matrix
    minors = SymmetricTableau.minors

    def _row_matrix(self, g):
        raise ContractError("rows(g) does not act on a square pair: it has no graded first row")

    _acted = act_on_blocks

    def apply_column_move(self, move: OpMove) -> "SquareSymmetricPair":
        return apply_op(self, move)

    def apply_word(self, moves: Sequence[OpMove]) -> "SquareSymmetricPair":
        return apply_op_word(self, moves)

    def __eq__(self, other):
        return (
            isinstance(other, SquareSymmetricPair)
            and self.alpha == other.alpha
            and self.beta == other.beta
        )


PairLike = Union[SquareSymmetricPair, SymmetricTableau]


def _det(P: PairLike, block: int) -> Polynomial:
    """det(alpha) for block 0, det(beta) for block 1, read from P's table."""
    size = len(P.alpha)
    return P.minors()(range(size), range(block * size, (block + 1) * size))


def plucker_residual(
    M: PolyMatrix,
    a_cols: Sequence[int],
    b_cols: Sequence[int],
    c_cols: Sequence[int],
    ring: PolyRing,
) -> Polynomial:
    """Signed sum of products of maximal minors in the Pluecker exchange
    relation; zero for every valid index selection."""
    nrows = len(M)
    p = len(a_cols)
    q = nrows - len(b_cols) + 1
    s = len(c_cols)
    t = nrows - p
    if s != nrows - p + q - 1:
        raise ContractError("arity mismatch: need |c| = rows - |a| + q - 1")
    if s <= nrows or t <= 0:
        raise ContractError("arity mismatch: need |c| > rows and |a| < rows")
    table = Minors(M, ring)
    a_cols, b_cols, c_cols = (table.columns(sel) for sel in (a_cols, b_cols, c_cols))
    # each minor has its columns in the listed, possibly unsorted or
    # repeated, order
    total = ring.zero()
    for chosen in combinations(range(s), t):
        chosen_set = set(chosen)
        rest = [i for i in range(s) if i not in chosen_set]
        inversions = sum(1 for i in chosen for j in rest if j < i)
        first = table(range(nrows), a_cols + tuple(c_cols[i] for i in chosen))
        second = table(range(nrows), tuple(c_cols[i] for i in rest) + b_cols)
        term = first * second
        total = total + term if inversions % 2 == 0 else total - term
    return total


def is_nzd_mod(f: Polynomial, I: Ideal, config: GBConfig = DEFAULT_GB_CONFIG) -> bool:
    """f is a nonzerodivisor on ring/I iff (I : f) = I; over the zero ideal
    this is just f != 0."""
    if f.is_zero():
        raise ContractError("nonzerodivisor test on the zero element")
    if I.is_zero():
        return True
    return ideal_equal(ideal_quotient(I, f, config=config), I)


@dataclass
class BaseChangeCert:
    moves: List[OpMove]
    det_alpha: Polynomial
    det_beta: Polynomial
    det_alpha_nonzero: bool
    quotient_equal: bool
    result: PairLike

    @property
    def verified(self) -> bool:
        return self.det_alpha_nonzero and self.quotient_equal

    def reverify(self, original: PairLike, config: GBConfig = DEFAULT_GB_CONFIG) -> bool:
        """Independent re-check: replay the moves, recompute both
        determinants and re-run the quotient test."""
        current = apply_op_word(original, self.moves)
        da, db = _det(current, 0), _det(current, 1)
        if da != self.det_alpha or db != self.det_beta or da.is_zero():
            return False
        return is_nzd_mod(db, Ideal(current.ring, [da]), config=config)


def _all_minor_indices(size: int):
    for k in range(size, -1, -1):
        for a_sel in combinations(range(size), k):
            for b_sel in combinations(range(size), size - k):
                yield MinorIndex(a_sel, b_sel)


def make_koszul_type(
    T: PairLike,
    seed: int = 0,
    trial_budget: int = 64,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> BaseChangeCert:
    """Symmetry-preserving column moves until det(alpha) != 0 and det(beta)
    is a nonzerodivisor modulo (det(alpha)); emits a replayable certificate.

    Phase 1 walks the overlap of a nonzero maximal minor down to a good
    (disjoint) one and then folds the beta-columns of that minor into alpha;
    phase 2 perturbs beta by alpha-columns (alpha stays fixed) until the
    quotient test passes.  Budget exhaustion reports the last state and is a
    resource statement, never a mathematical verdict.
    """
    if T.ring.field.characteristic == 2:
        raise ContractError("base-change argument needs 2 invertible")
    rng = DetRng(seed ^ 0x4B5A)
    current: PairLike = T
    moves: List[OpMove] = []
    size = len(T.alpha)

    # -- phase 1: det(alpha) != 0 ------------------------------------------
    trials = 0
    rows = range(size)
    while _det(current, 0).is_zero():
        best: Optional[MinorIndex] = None
        table = current.minors()
        for idx in _all_minor_indices(size):
            if table(rows, idx.columns(size)).is_zero():
                continue
            if best is None or idx.overlap < best.overlap:
                best = idx
                if best.overlap == 0:
                    break
        if best is None:
            raise ContractError(
                "all maximal minors of (alpha beta) vanish; the acyclicity hypothesis fails"
            )
        if best.overlap > 0:
            overlap = set(best.alpha_cols) & set(best.beta_cols)
            H = min(overlap)
            outside = [c for c in range(size) if c not in set(best.alpha_cols) | set(best.beta_cols)]
            if not outside:
                raise ContractError("no free column index for the overlap trade")
            L = outside[0]
            target = MinorIndex(
                tuple(c for c in best.alpha_cols if c != H),
                tuple(sorted(best.beta_cols + (L,))),
            )
            improved = False
            while trials < trial_budget and not improved:
                trials += 1
                zeta = rng.nonzero_scalar(current.ring.field)
                word = mirror_pair_word(zeta, H, L, current.ring)
                candidate = apply_op_word(current, word)
                if not candidate.minors()(rows, target.columns(size)).is_zero():
                    current = candidate
                    moves.extend(word)
                    improved = True
            if not improved:
                raise BudgetExceededError(
                    f"phase 1 overlap trade failed within {trial_budget} trials; "
                    f"last state det(alpha) = {_det(current, 0)}"
                )
            continue
        # good minor in hand: fold its beta columns into alpha
        folded = False
        while trials < trial_budget and not folded:
            trials += 1
            b = rng.nonzero_scalar(current.ring.field)
            word = [OpMove("add_col_same", b, c) for c in best.beta_cols]
            candidate = apply_op_word(current, word)
            if not _det(candidate, 0).is_zero():
                current = candidate
                moves.extend(word)
                folded = True
        if not folded:
            raise BudgetExceededError(
                f"phase 1 fold failed within {trial_budget} trials (good minor {best})"
            )

    det_alpha = _det(current, 0)

    # -- phase 2: det(beta) regular mod (det alpha), alpha kept fixed --------
    trials = 0
    det_beta = _det(current, 1)
    passed = not det_beta.is_zero() and is_nzd_mod(det_beta, Ideal(current.ring, [det_alpha]), config=config)
    while not passed:
        if trials >= trial_budget:
            raise BudgetExceededError(
                "phase 2 quotient test failed within budget; last state "
                f"det(alpha) = {det_alpha}, det(beta) = {det_beta}"
            )
        H = trials % size
        L = (trials // size) % size
        trials += 1
        zeta = rng.nonzero_scalar(current.ring.field)
        word = mirror_pair_word(zeta, H, L, current.ring)
        candidate = apply_op_word(current, word)
        cand_det_beta = _det(candidate, 1)
        if cand_det_beta.is_zero():
            continue
        # keep the perturbation even when the test fails: the walk must
        # leave the bad locus
        current = candidate
        moves.extend(word)
        det_beta = cand_det_beta
        passed = is_nzd_mod(det_beta, Ideal(current.ring, [det_alpha]), config=config)

    # the quotient test that ended the loop is the certificate's witness;
    # reverify recomputes it from the original input
    cert = BaseChangeCert(
        moves=moves,
        det_alpha=det_alpha,
        det_beta=det_beta,
        det_alpha_nonzero=not det_alpha.is_zero(),
        quotient_equal=passed,
        result=current,
    )
    if not cert.verified:
        raise BudgetExceededError("certificate verification failed after search")
    return cert
