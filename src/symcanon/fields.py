"""Exact coefficient fields: the rationals and odd prime fields GF(p).

Rational scalars are `fractions.Fraction`; GF(p) scalars are plain ints in
[0, p).  Every operation is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ContractError

Scalar = Union[Fraction, int]

DEFAULT_PRIME = 32003


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond any characteristic we use
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field descriptor.

    ``kind`` is ``"rationals"`` or ``"prime_field"``.  The characteristic is
    0 or an odd prime; characteristic 2 is refused globally because the
    base-change arguments need 2 invertible, and primes with
    (p-1)^2 >= 2^63 because mod-p elimination works in int64.
    """

    kind: str
    characteristic: int = 0

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic != 0:
                raise ContractError("rationals have characteristic 0")
        elif self.kind == "prime_field":
            p = self.characteristic
            if p < 3 or not _is_prime(p):
                raise ContractError(
                    f"prime_field characteristic must be a prime >= 3, got {p}"
                )
            if (p - 1) ** 2 >= 1 << 63:
                raise ContractError(
                    f"prime {p} too large: (p-1)^2 must stay below 2^63 for int64 elimination"
                )
        else:
            raise ContractError(f"unknown field kind {self.kind!r}")

    # -- scalar arithmetic -------------------------------------------------

    @property
    def p(self) -> int:
        return self.characteristic

    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "rationals" else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "rationals" else 1

    def of_int(self, n: int) -> Scalar:
        return Fraction(n) if self.kind == "rationals" else n % self.p

    def of_fraction(self, num: int, den: int) -> Scalar:
        if den == 0:
            raise ContractError("zero denominator")
        if self.kind == "rationals":
            return Fraction(num, den)
        if den % self.p == 0:
            raise ContractError(f"denominator {den} not invertible mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.kind == "rationals" else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.kind == "rationals" else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.kind == "rationals" else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == "rationals" else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return Fraction(1) / a if self.kind == "rationals" else pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return not a

    def to_json(self) -> dict:
        return {"kind": self.kind, "characteristic": self.characteristic}


QQ = FieldSpec("rationals", 0)


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime_field", p)


def parse_field(text: str) -> FieldSpec:
    """Parse a field flag of the form ``q`` (rationals) or ``p:32003``."""
    if text in ("q", "Q", "rationals"):
        return QQ
    if text.startswith("p:"):
        try:
            return GF(int(text[2:]))
        except ValueError:
            pass
    raise ContractError(f"cannot parse field spec {text!r} (expected 'q' or 'p:<prime>')")


class DetRng:
    """Deterministic pseudo-random scalar source (SplitMix64).

    Independent of Python's `random` module so that golden outputs are
    byte-identical across interpreter versions.
    """

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def scalar(self, field: FieldSpec) -> Scalar:
        """A field element: uniform over GF(p), small integer over Q."""
        if field.kind == "prime_field":
            return self.next_u64() % field.p
        return Fraction(self.randint(-3, 3))

    def nonzero_scalar(self, field: FieldSpec) -> Scalar:
        while True:
            c = self.scalar(field)
            if c:
                return c
