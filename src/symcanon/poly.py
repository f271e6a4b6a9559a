"""Sparse exact multivariate polynomials graded by total degree.

The default ring is k[x0..x4] with k the rationals or GF(p).  Terms live in
a dict mapping exponent tuples to nonzero field scalars; the zero polynomial
has an empty dict.  Values are never mutated after construction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import comb
from operator import add, mul, sub
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ContractError, DegreeOverflowError, ParseError, RingMismatchError
from .fields import FieldSpec, Scalar
from .orders import GREVLEX, KEY_DEGREE_BOUND, Monomial, MonomialOrder

EXPONENT_BOUND = 1 << 15


class PolyRing:
    """A polynomial ring over an exact field.

    ``weights`` grades the variables; public rings are standard-graded
    (all weights 1).  Auxiliary elimination variables carry weight 0 so
    that internal Groebner runs stay homogeneous in the original variables.
    """

    def __init__(
        self,
        variables: Sequence[str] = ("x0", "x1", "x2", "x3", "x4"),
        field: FieldSpec = None,
        weights: Optional[Sequence[int]] = None,
        degree_bound: int = 64,
    ):
        if field is None:
            raise ContractError("PolyRing requires a field")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ContractError("variable names must be distinct")
        self.variables = variables
        self.field = field
        self.weights = tuple(weights) if weights is not None else (1,) * len(variables)
        if len(self.weights) != len(variables):
            raise ContractError("one weight per variable")
        self.degree_bound = degree_bound
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.field == other.field
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.variables, self.field, self.weights))

    def __repr__(self):
        return f"PolyRing({','.join(self.variables)}; {self.field.kind}({self.field.characteristic}))"

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise ContractError(f"unknown variable {name!r}")
        return self._index[name]

    def weighted_degree(self, exp: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, exp))

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one()})

    def constant(self, c: Scalar) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> "Polynomial":
        exp = [0] * self.nvars
        exp[i] = 1
        return Polynomial(self, {tuple(exp): self.field.one()})

    def gens(self) -> List["Polynomial"]:
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exp: Monomial, c: Scalar = None) -> "Polynomial":
        c = self.field.one() if c is None else c
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {tuple(exp): c})

    def from_terms(self, terms: Dict[Monomial, Scalar]) -> "Polynomial":
        clean = {tuple(m): c for m, c in terms.items() if not self.field.is_zero(c)}
        return Polynomial(self, clean)

    def linear_form(self, coeffs: Sequence[Scalar]) -> "Polynomial":
        if len(coeffs) != self.nvars:
            raise ContractError("one coefficient per variable")
        terms = {}
        for i, c in enumerate(coeffs):
            if not self.field.is_zero(c):
                exp = [0] * self.nvars
                exp[i] = 1
                terms[tuple(exp)] = c
        return Polynomial(self, terms)

    def with_aux_variable(self, name: str = "t_") -> "PolyRing":
        """Ring with one extra weight-0 variable in front (elimination aux)."""
        if name in self.variables:
            raise ContractError(f"aux name {name!r} already in use")
        return PolyRing(
            (name,) + self.variables,
            self.field,
            weights=(0,) + self.weights,
            degree_bound=self.degree_bound,
        )


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps exponents to scalars."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Dict[Monomial, Scalar]):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Weighted total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        wd = self.ring.weighted_degree
        return max(wd(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        wd = self.ring.weighted_degree
        degs = {wd(m) for m in self.terms}
        return len(degs) == 1

    def homogeneous_degree(self) -> Optional[int]:
        """The common degree if homogeneous and nonzero, else None."""
        if not self.terms or not self.is_homogeneous():
            return None
        return self.degree()

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        field = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(out.get(m, field.zero()), c)
            if field.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        ring = self.ring
        field = ring.field
        if not self.terms or not other.terms:
            return ring.zero()
        bound_check = self.degree() + other.degree() > ring.degree_bound
        if bound_check:
            raise DegreeOverflowError(
                f"product degree {self.degree() + other.degree()} exceeds bound {ring.degree_bound}"
            )
        out: Dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = field.add(out.get(m, field.zero()), field.mul(c1, c2))
                if field.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        for m in out:
            if any(e >= EXPONENT_BOUND for e in m):
                raise DegreeOverflowError("exponent exceeds 2^15")
        return Polynomial(ring, out)

    def scale(self, c: Scalar) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: field.mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ContractError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- structure ------------------------------------------------------------

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Monomial:
        if not self.terms:
            raise ContractError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> Scalar:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.leading_coefficient(order)))

    def coefficient(self, m: Monomial) -> Scalar:
        return self.terms.get(tuple(m), self.ring.field.zero())

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Exact evaluation at a point with coordinates in the field."""
        field = self.ring.field
        total = field.zero()
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                for _ in range(e):
                    v = field.mul(v, x)
            total = field.add(total, v)
        return total

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient self/divisor, requiring zero remainder.

        Long division under grevlex, the remainder's terms kept in a max-heap
        of int order keys: a term created by a quotient step lies below the
        term it cancels, so each key enters the heap at most once.
        """
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ring, field = self.ring, self.ring.field
        if any(sum(m) >= KEY_DEGREE_BOUND for m in self.terms):
            raise DegreeOverflowError("exact_divide: degree exceeds the order-key bound 2^16")
        w = GREVLEX.weights(ring.nvars)
        lm = divisor.leading_monomial(GREVLEX)
        k_lm = sum(map(mul, w, lm))
        inv = field.inv(divisor.terms[lm])
        tail = [(sum(map(mul, w, m)) - k_lm, m, field.neg(c)) for m, c in divisor.terms.items() if m != lm]
        rem: Dict[int, Scalar] = {}
        monos: Dict[int, Monomial] = {}
        for m, c in self.terms.items():
            k = sum(map(mul, w, m))
            rem[k] = c
            monos[k] = m
        heap = [-k for k in rem]
        heapify(heap)
        quo: Dict[Monomial, Scalar] = {}
        while heap:
            k = -heappop(heap)
            c = rem.pop(k)
            m = monos.pop(k)
            if field.is_zero(c):
                continue
            q_m = tuple(map(sub, m, lm))
            if any(e < 0 for e in q_m):
                raise ContractError("exact_divide: division leaves a remainder")
            q_c = field.mul(c, inv)
            quo[q_m] = q_c
            for dk, dm, dc in tail:
                t = k + dk
                if t in rem:
                    rem[t] = field.add(rem[t], field.mul(q_c, dc))
                else:
                    rem[t] = field.mul(q_c, dc)
                    monos[t] = tuple(map(add, q_m, dm))
                    heappush(heap, -t)
        return Polynomial(ring, quo)

    def map_ring(self, target: PolyRing, var_map: Sequence[int]) -> "Polynomial":
        """Reinterpret in ``target``; variable i goes to target variable var_map[i]."""
        out: Dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            exp = [0] * target.nvars
            for i, e in enumerate(m):
                if e:
                    exp[var_map[i]] = e
            out[tuple(exp)] = c
        return Polynomial(target, out)

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"<{poly_to_string(self)}>"


# -- canonical text form ----------------------------------------------------


def _monomial_str(ring: PolyRing, m: Monomial) -> str:
    parts = []
    for name, e in zip(ring.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_to_string(f: Polynomial) -> str:
    """Canonical print: grevlex term order, descending."""
    if not f.terms:
        return "0"
    ring = f.ring
    rational = ring.field.kind == "rationals"
    pieces = []
    for m in sorted(f.terms, key=GREVLEX.key, reverse=True):
        c = f.terms[m]
        negative = rational and c < 0
        mag = -c if negative else c
        mono = _monomial_str(ring, m)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a variable name", start)
        return self.text[start : self.pos]


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse the polynomial grammar: integer (or a/b) coefficients, ``*``
    products, ``^`` powers, ``+``/``-``; whitespace insignificant."""
    tok = _Tokenizer(text)
    field = ring.field
    total: Dict[Monomial, Scalar] = {}

    def add_term(coeff: Scalar, exp: List[int]):
        m = tuple(exp)
        s = field.add(total.get(m, field.zero()), coeff)
        if field.is_zero(s):
            total.pop(m, None)
        else:
            total[m] = s

    first = True
    while True:
        tok.skip_ws()
        if tok.pos >= len(tok.text):
            if first:
                raise ParseError("empty polynomial text", tok.pos)
            break
        sign = 1
        ch = tok.peek()
        if ch in "+-":
            if first and ch == "+":
                raise ParseError("unexpected leading '+'", tok.pos)
            sign = -1 if ch == "-" else 1
            tok.pos += 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", tok.pos)
        first = False

        coeff = field.of_int(sign)
        exp = [0] * ring.nvars
        expect_factor = True
        while expect_factor:
            ch = tok.peek()
            if ch.isdigit():
                num = tok.take_int()
                if tok.peek() == "/":
                    tok.pos += 1
                    den = tok.take_int()
                    coeff = field.mul(coeff, field.of_fraction(num, den))
                else:
                    coeff = field.mul(coeff, field.of_int(num))
            elif ch.isalpha() or ch == "_":
                pos = tok.pos
                name = tok.take_name()
                try:
                    i = ring.var_index(name)
                except ContractError:
                    raise ParseError(f"unknown variable {name!r}", pos)
                power = 1
                if tok.peek() == "^":
                    tok.pos += 1
                    power = tok.take_int()
                exp[i] += power
                if exp[i] >= EXPONENT_BOUND:
                    raise DegreeOverflowError("exponent exceeds 2^15")
            else:
                raise ParseError(f"unexpected character {ch!r}", tok.pos)
            if tok.peek() == "*":
                tok.pos += 1
                expect_factor = True
            else:
                expect_factor = False
        add_term(coeff, exp)
    return Polynomial(ring, total)


# -- graded pieces ------------------------------------------------------------


def graded_basis(ring: PolyRing, d: int) -> List[Monomial]:
    """All monomials of total degree d, grevlex-descending.

    Count is C(d + v - 1, v - 1) for v variables.  Requires a
    standard-graded ring.
    """
    if d < 0:
        raise ContractError("degree must be non-negative")
    if any(w != 1 for w in ring.weights):
        raise ContractError("graded_basis requires a standard-graded ring")
    v = ring.nvars
    out: List[Monomial] = []

    def rec(prefix: List[int], remaining: int, i: int):
        if i == v - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, i + 1)

    rec([], d, 0)
    out.sort(key=GREVLEX.key, reverse=True)
    assert len(out) == comb(d + v - 1, v - 1)
    return out


def graded_piece(
    gens: Sequence[Polynomial], d: int, ring: PolyRing, mult_degree: Optional[int] = None
) -> np.ndarray:
    """Rows g * x^m over the columns graded_basis(ring, d), generator-major,
    the monomials x^m in graded_basis order.

    By default x^m runs over degree d - deg g, so the rows span the degree-d
    piece of the ideal (gens); zero, inhomogeneous and too high generators
    give no rows.  With ``mult_degree`` every x^m has that degree and a zero
    g gives zero rows, so the entries of a module map keep their places.
    Products add packed exponents (base d + 1) straight into the row; no
    polynomial is multiplied.  Entries are int64 residues over GF(p) and
    field scalars in an object array over Q.
    """
    basis = graded_basis(ring, d)
    if (d + 1) ** ring.nvars >= 1 << 63:
        raise ContractError(f"degree {d} too high to pack {ring.nvars} exponents in int64")
    pack = np.array([(d + 1) ** i for i in range(ring.nvars)], dtype=np.int64)

    def keys(monos) -> np.ndarray:
        return np.array(monos, dtype=np.int64).reshape(-1, ring.nvars) @ pack

    col_keys = keys(basis)
    order = np.argsort(col_keys)
    sorted_keys = col_keys[order]
    dtype = np.int64 if ring.field.kind == "prime_field" else object
    mult_keys: Dict[int, np.ndarray] = {}
    blocks = [np.zeros((0, len(basis)), dtype=dtype)]
    for g in gens:
        gd = g.homogeneous_degree()
        if mult_degree is None:
            if gd is None or gd > d:
                continue
            k = d - gd
        elif g.terms and gd != d - mult_degree:
            raise ContractError(f"entry not homogeneous of degree {d - mult_degree}: {g}")
        else:
            k = mult_degree
        if k not in mult_keys:
            mult_keys[k] = keys(graded_basis(ring, k))
        mults = mult_keys[k]
        block = np.zeros((len(mults), len(basis)), dtype=dtype)
        if g.terms:
            cols = order[np.searchsorted(sorted_keys, mults[:, None] + keys(list(g.terms))[None, :])]
            block[np.arange(len(mults))[:, None], cols] = np.array(list(g.terms.values()), dtype=dtype)
        blocks.append(block)
    return np.vstack(blocks)


def graded_map(
    mat: Sequence[Sequence[Polynomial]], target_degrees: Sequence[int], ring: PolyRing, src_degree: int
) -> np.ndarray:
    """Matrix of the module map ``mat`` from degree ``src_degree`` of the
    free source: rows (source component c, monomial of degree src_degree),
    columns (target component t, graded_basis(ring, target_degrees[t])).
    Entry mat[t][c] is homogeneous of degree target_degrees[t] - src_degree
    or zero.  The blocks are graded_piece(mat[t], ...) side by side."""
    return np.hstack([graded_piece(row, d, ring, src_degree) for row, d in zip(mat, target_degrees)])


def poly_matmul(
    a: Sequence[Sequence[Polynomial]], b: Sequence[Sequence[Polynomial]], ring: PolyRing
) -> List[List[Polynomial]]:
    """The matrix product a * b; each entry sums a[i][k] * b[k][j] in
    increasing k, starting from zero."""
    if any(len(row) != len(b) for row in a):
        raise ContractError("matrix product: inner dimensions differ")
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            s = ring.zero()
            for k in range(len(b)):
                s = s + row[k] * b[k][j]
            out_row.append(s)
        out.append(out_row)
    return out
