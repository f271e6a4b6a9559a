"""Monomial orders on exponent tuples.

A monomial is a tuple of non-negative integer exponents.  Orders expose a
``key`` function; larger key means larger monomial.  All comparisons are on
plain tuples, so sorting and max() work directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ContractError

Monomial = Tuple[int, ...]


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

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "elimination"):
            raise ContractError(f"unknown monomial order {self.kind!r}")

    def validate(self, nvars: int) -> None:
        if self.kind == "elimination" and not 0 < self.block < nvars:
            raise ContractError("elimination block size must be < number of variables")
        if self.permutation is not None and sorted(self.permutation) != list(range(nvars)):
            raise ContractError("order permutation must permute the variables")

    def key(self, exp: Monomial):
        if self.permutation is not None:
            exp = tuple(exp[i] for i in self.permutation)
        if self.kind == "grevlex":
            return _grevlex_key(exp)
        if self.kind == "lex":
            return exp
        k = self.block
        return _grevlex_key(exp[:k]) + _grevlex_key(exp[k:])

    def cache_token(self):
        return (self.kind, self.block, self.permutation)


def _grevlex_key(exp: Monomial):
    return (sum(exp), tuple(-e for e in reversed(exp)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination(block: int) -> MonomialOrder:
    return MonomialOrder("elimination", block)


def grevlex_with_last(nvars: int, last: int) -> MonomialOrder:
    """Grevlex with variable ``last`` moved to the smallest position.

    Saturation with respect to a single variable reads the result of a
    Groebner basis under this order directly.
    """
    perm = tuple([i for i in range(nvars) if i != last] + [last])
    return MonomialOrder("grevlex", permutation=perm)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))

