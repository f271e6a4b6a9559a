"""Univariate helpers over an exact field: arithmetic, gcd, roots.

Polynomials are coefficient lists in ascending order.  These back the gcd
of ``poly``'s minors of forms on a line (the grade certificate, the K2=11
direction search) and the roots of that gcd; nothing here touches the
multivariate machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .errors import BudgetExceededError, ContractError
from .fields import DetRng, FieldSpec, Scalar

Coeffs = List[Scalar]


def trim(f: Coeffs, field: FieldSpec) -> Coeffs:
    while f and field.is_zero(f[-1]):
        f = f[:-1]
    return f


def degree(f: Coeffs) -> int:
    return len(f) - 1


def add(f: Coeffs, g: Coeffs, field: FieldSpec) -> Coeffs:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero()
        b = g[i] if i < len(g) else field.zero()
        out.append(field.add(a, b))
    return trim(out, field)


def scale(f: Coeffs, c: Scalar, field: FieldSpec) -> Coeffs:
    if field.is_zero(c):
        return []
    return [field.mul(c, a) for a in f]


def mul(f: Coeffs, g: Coeffs, field: FieldSpec) -> Coeffs:
    if not f or not g:
        return []
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if field.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return trim(out, field)


def divmod_poly(f: Coeffs, g: Coeffs, field: FieldSpec) -> Tuple[Coeffs, Coeffs]:
    g = trim(g, field)
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(f)
    quo = [field.zero()] * max(0, len(f) - len(g) + 1)
    inv = field.inv(g[-1])
    for i in range(len(rem) - len(g), -1, -1):
        c = field.mul(rem[i + len(g) - 1], inv)
        if field.is_zero(c):
            continue
        quo[i] = c
        for j, b in enumerate(g):
            rem[i + j] = field.sub(rem[i + j], field.mul(c, b))
    return trim(quo, field), trim(rem, field)


def monic(f: Coeffs, field: FieldSpec) -> Coeffs:
    f = trim(f, field)
    if not f:
        return f
    return scale(f, field.inv(f[-1]), field)


def gcd(f: Coeffs, g: Coeffs, field: FieldSpec) -> Coeffs:
    a, b = trim(f, field), trim(g, field)
    while b:
        a, b = b, divmod_poly(a, b, field)[1]
    return monic(a, field)


def evaluate(f: Coeffs, x: Scalar, field: FieldSpec) -> Scalar:
    acc = field.zero()
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def powmod(base: Coeffs, e: int, mod: Coeffs, field: FieldSpec) -> Coeffs:
    result = [field.one()]
    b = divmod_poly(base, mod, field)[1]
    while e:
        if e & 1:
            result = divmod_poly(mul(result, b, field), mod, field)[1]
        e >>= 1
        if e:
            b = divmod_poly(mul(b, b, field), mod, field)[1]
    return result


def roots(f: Coeffs, field: FieldSpec, seed: int = 0) -> List[Scalar]:
    """All roots in the field, each listed once, in ascending order (as
    integers 0..p-1 over GF(p), as rationals over Q).

    Over GF(p) this splits off the product of linear factors with
    x^p - x and then separates roots by seeded quadratic-residue
    splitting; over Q it enumerates rational candidates.
    """
    f = trim(f, field)
    if not f:
        raise ContractError("root-finding on the zero polynomial")
    if degree(f) == 0:
        return []
    if field.kind == "rationals":
        return sorted(_rational_roots(f))
    return sorted(_roots_modp(f, field, seed))


def _rational_roots(f: Coeffs) -> List[Fraction]:
    fracs = [Fraction(c) for c in f]
    lcm = 1
    for c in fracs:
        lcm = math.lcm(lcm, c.denominator)
    ints = [int(c * lcm) for c in fracs]
    while ints and ints[0] == 0:
        ints = ints[1:]
        # x = 0 handled below via direct evaluation
    out = set()
    field = FieldSpec("rationals")
    if evaluate(f, Fraction(0), field) == 0:
        out.add(Fraction(0))
    if not ints:
        return list(out)
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if evaluate(f, cand, field) == 0:
                    out.add(cand)
    return list(out)


def _divisors(n: int) -> List[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _roots_modp(f: Coeffs, field: FieldSpec, seed: int) -> List[int]:
    p = field.characteristic
    f = monic(f, field)
    # product of distinct linear factors: gcd(f, x^p - x)
    xp = powmod([0, 1], p, f, field)
    lin = gcd(add(xp, [0, field.neg(field.one())], field), f, field)
    out: List[int] = []
    if evaluate(lin, 0, field) == 0:
        out.append(0)
        lin = divmod_poly(lin, [0, 1], field)[0]
    _split_linear(lin, field, DetRng(seed ^ 0x5EED), out, depth=0)
    return out


def _split_linear(g: Coeffs, field: FieldSpec, rng: DetRng, out: List[int], depth: int) -> None:
    g = monic(g, field)
    d = degree(g)
    if d <= 0:
        return
    if d == 1:
        out.append(field.neg(g[0]))
        return
    if depth > 64:
        raise BudgetExceededError("root splitting did not converge")
    p = field.characteristic
    a = rng.next_u64() % p
    h = powmod([a, 1], (p - 1) // 2, g, field)
    h = add(h, [field.neg(field.one())], field)
    d1 = gcd(h, g, field)
    if 0 < degree(d1) < d:
        _split_linear(d1, field, rng, out, depth + 1)
        _split_linear(divmod_poly(g, d1, field)[0], field, rng, out, depth + 1)
    else:
        _split_linear(g, field, rng, out, depth + 1)
