"""Monomial orders on exponent tuples.

A monomial is a tuple of non-negative integer exponents.  Every order here
(grevlex, grevlex with a variable moved last, block elimination, lex) is a
linear functional: ``key(exp) = sum(w_i * e_i)`` for one weight vector per
order and number of variables, whose weights place partial degree sums in
16-bit fields of a Python int.  Larger key means larger monomial, keys are
compared as ints, and ``key(a * b) = key(a) + key(b)``.  The fields hold
partial sums of the exponents, so keys order monomials of total degree
below 2^16 exactly; ``key`` refuses any other monomial, and the Groebner
engine refuses anything of degree 2^15 or more before it packs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Dict, Optional, Tuple

from .errors import ContractError, DegreeOverflowError

Monomial = Tuple[int, ...]

FIELD_BITS = 16
# keys order the monomials of total degree below this bound exactly
KEY_DEGREE_BOUND = 1 << FIELD_BITS


def _grevlex_block(weights: list, positions: Tuple[int, ...], offset: int) -> None:
    """Grevlex on the variables ``positions`` (first is largest) in the fields
    offset .. offset + len - 1: field offset + j holds the exponent sum of
    positions[0..j], so the top field is the block degree and ties go to the
    smaller exponent of the last variable."""
    m = len(positions)
    for r, v in enumerate(positions):
        weights[v] += sum(1 << (FIELD_BITS * (offset + j)) for j in range(r, m))


@dataclass(frozen=True)
class MonomialOrder:
    """One of grevlex, lex, or a block elimination order.

    ``elimination(k)`` eliminates the first ``k`` variables: any monomial
    involving them beats any monomial that does not, grevlex inside each
    block.  ``permutation``, when set, relabels variables before comparison
    (used internally for per-variable saturation); public constructors leave
    it None.
    """

    kind: str
    block: int = 0
    permutation: Optional[Tuple[int, ...]] = None
    _weights: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "elimination"):
            raise ContractError(f"unknown monomial order {self.kind!r}")

    def validate(self, nvars: int) -> None:
        if self.kind == "elimination" and not 0 < self.block < nvars:
            raise ContractError("elimination block size must be < number of variables")
        if self.permutation is not None and sorted(self.permutation) != list(range(nvars)):
            raise ContractError("order permutation must permute the variables")

    def weights(self, nvars: int) -> Tuple[int, ...]:
        """The weight vector of ``key`` on ``nvars`` variables."""
        w = self._weights.get(nvars)
        if w is None:
            self.validate(nvars)
            perm = self.permutation or tuple(range(nvars))
            acc = [0] * nvars
            if self.kind == "grevlex":
                _grevlex_block(acc, perm, 0)
            elif self.kind == "lex":
                for q, v in enumerate(perm):
                    acc[v] = 1 << (FIELD_BITS * (nvars - 1 - q))
            else:
                k = self.block
                _grevlex_block(acc, perm[:k], nvars - k)
                _grevlex_block(acc, perm[k:], 0)
            w = self._weights[nvars] = tuple(acc)
        return w

    def key(self, exp: Monomial) -> int:
        if sum(exp) >= KEY_DEGREE_BOUND:
            raise DegreeOverflowError(f"monomial of degree {sum(exp)} exceeds the order-key bound 2^16")
        return sum(map(mul, self.weights(len(exp)), exp))

    def cache_token(self):
        return (self.kind, self.block, self.permutation)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination(block: int) -> MonomialOrder:
    return MonomialOrder("elimination", block)


def grevlex_with_last(nvars: int, last: int) -> MonomialOrder:
    """Grevlex with variable ``last`` moved to the smallest position (GREVLEX
    itself, with its cached bases, for the last variable).  Saturation by
    that variable reads a Groebner basis under this order directly."""
    if last == nvars - 1:
        return GREVLEX
    perm = tuple([i for i in range(nvars) if i != last] + [last])
    return MonomialOrder("grevlex", permutation=perm)


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))
