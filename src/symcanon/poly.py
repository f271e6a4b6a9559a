"""Sparse exact multivariate polynomials graded by total degree.

The default ring is k[x0..x4] with k the rationals or GF(p).  Terms live in
a dict mapping exponent tuples to nonzero field scalars; the zero polynomial
has an empty dict.  Values are never mutated after construction.

``dot`` is the one sum-of-products kernel: ``*``, ``poly_matmul`` and the
callers' symmetry dots, minors and cubic identities all go through it.
Inside it a monomial is one int with 16-bit exponent fields, so a product
of monomials is an int sum, and coefficients are summed as ints: residues
over GF(p), and over Q integer numerators over one denominator, with one
Fraction per output term and no field method call per term.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from fractions import Fraction
from math import comb, lcm
from operator import add, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import univariate
from .errors import ContractError, DegreeOverflowError, ParseError, RingMismatchError
from .fields import FieldSpec, Scalar
from .orders import GREVLEX, KEY_DEGREE_BOUND, Monomial, MonomialOrder

EXPONENT_BOUND = 1 << 15
# products of larger total degree raise DegreeOverflowError; a product of
# degree at most this bound has every exponent below EXPONENT_BOUND
DEGREE_BOUND = 64
# graded bases kept by graded_basis, one per (number of variables, degree)
GRADED_BASIS_CACHE = 64


class PolyRing:
    """A standard-graded polynomial ring over an exact field: every variable
    has degree 1."""

    def __init__(self, variables: Sequence[str] = ("x0", "x1", "x2", "x3", "x4"), field: FieldSpec = None):
        if field is None:
            raise ContractError("PolyRing requires a field")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ContractError("variable names must be distinct")
        self.variables = variables
        self.field = field
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"PolyRing({','.join(self.variables)}; {self.field.kind}({self.field.characteristic}))"

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise ContractError(f"unknown variable {name!r}")
        return self._index[name]

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
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

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
        """A term that cancels is deleted, and appended again if a later sum
        brings it back; ``dot`` merges its products by the same rule."""
        self._check_ring(other)
        return Polynomial(self.ring, _merge(dict(self.terms), other.terms, self.ring.field.characteristic))

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.characteristic
        if p:
            return Polynomial(self.ring, {m: p - v for m, v in self.terms.items()})
        return Polynomial(self.ring, {m: -v for m, v in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return dot([self], [other], self.ring)

    def scale(self, c: Scalar) -> "Polynomial":
        if not c:
            return self.ring.zero()
        p = self.ring.field.characteristic
        if p:
            return Polynomial(self.ring, {m: c * v % p for m, v in self.terms.items()})
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

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

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"<{poly_to_string(self)}>"


# -- sums of products -------------------------------------------------------------


def _merge(total: dict, terms: dict, p: int) -> dict:
    """Add ``terms`` into ``total`` in place, as ``+`` does: a sum that
    cancels deletes its term, which a later sum appends again.  Sums are
    reduced mod p when p is nonzero."""
    get = total.get
    for m, c in terms.items():
        s = get(m, 0) + c
        if p:
            s %= p
        if s:
            total[m] = s
        else:
            total.pop(m, None)
    return total


def _numerators(terms: dict, p: int) -> Tuple[list, int]:
    """The (monomial, int) pairs of ``terms`` over one positive denominator:
    the residues over 1 over GF(p), over Q the numerators over the lcm of
    the coefficients' denominators."""
    if p:
        return terms.items(), 1
    den = lcm(*[c.denominator for c in terms.values()])
    return [(m, c.numerator * (den // c.denominator)) for m, c in terms.items()], den


def dot(us: Sequence[Polynomial], vs: Sequence[Polynomial], ring: PolyRing) -> Polynomial:
    """The sum of the products us[k] * vs[k] in ``ring``, starting from zero.

    Each product is checked in turn, before any packing: both factors lie in
    ``ring`` (RingMismatchError), a zero factor drops it, and its degree is
    at most DEGREE_BOUND (DegreeOverflowError).  A monomial is then one int
    with 16-bit exponent fields; exponents of a product of degree at most
    DEGREE_BOUND stay below 2^16, so no field carries and multiplying
    monomials adds ints.  So are coefficients: residues mod p, or over Q
    numerators over the lcm of a factor's denominators, a product over the
    product of its factors', the running sum over the lcm of its own and
    each product's; one Fraction per output term.  Pair sums and the
    running sum follow the rule of ``+``: a sum that cancels deletes its
    term, which a later sum appends again.  A common positive scale keeps
    each sum zero or not, so the result has the terms, in the same order,
    of the products formed pair by pair and added one at a time.  (Summing
    a product's pairs unreduced and reducing once per term is no faster
    here, and moves a term whose partial sum cancels.)
    """
    if len(us) != len(vs):
        raise ContractError(f"dot of {len(us)} and {len(vs)} factors")
    factors = []
    for f, g in zip(us, vs):
        if (f.ring is not ring and f.ring != ring) or (g.ring is not ring and g.ring != ring):
            raise RingMismatchError("operands live in different rings")
        if not f.terms or not g.terms:
            continue
        degree = f.degree() + g.degree()
        if degree > DEGREE_BOUND:
            raise DegreeOverflowError(f"product degree {degree} exceeds bound {DEGREE_BOUND}")
        factors.append((f.terms, g.terms))
    p = ring.field.characteristic
    layout = struct.Struct(f"<{ring.nvars}H")  # little-endian 16-bit exponent fields
    pack, unpack, width = layout.pack, layout.unpack, layout.size
    total: dict = {}
    den = 1  # the denominator of total's numerators
    for f_terms, g_terms in factors:
        f_nums, f_den = _numerators(f_terms, p)
        g_nums, g_den = _numerators(g_terms, p)
        g_packed = [(int.from_bytes(pack(*m), "little"), c) for m, c in g_nums]
        product: dict = {}
        get, pop = product.get, product.pop
        for m1, c1 in f_nums:
            k1 = int.from_bytes(pack(*m1), "little")
            for k2, c2 in g_packed:
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if p:
                    s %= p
                if s:
                    product[k] = s
                else:
                    pop(k, None)
        product_den = f_den * g_den
        if not total:
            total, den = product, product_den
            continue
        if product_den != den:
            common = lcm(den, product_den)
            for k in total:
                total[k] *= common // den
            product = {k: c * (common // product_den) for k, c in product.items()}
            den = common
        _merge(total, product, p)
    if not p:
        total = {k: Fraction(c, den) for k, c in total.items()}
    return Polynomial(ring, {unpack(k.to_bytes(width, "little")): c for k, c in total.items()})


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
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than the int/str conversion limit
            raise ParseError("integer literal too long", start) from None

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


def graded_basis(ring: PolyRing, d: int) -> Tuple[Monomial, ...]:
    """All monomials of total degree d, grevlex-descending.

    Count is C(d + v - 1, v - 1) for v variables.  The tuple is shared by
    every caller asking for the same number of variables and degree.
    """
    if d < 0:
        raise ContractError("degree must be non-negative")
    return _graded_basis(ring.nvars, d)


@lru_cache(maxsize=GRADED_BASIS_CACHE)
def _graded_basis(v: int, d: int) -> Tuple[Monomial, ...]:
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
    return tuple(out)


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
    """The matrix product a * b; each entry is the dot of a row of a and a
    column of b, summed in increasing k from zero."""
    if any(len(row) != len(b) for row in a):
        raise ContractError("matrix product: inner dimensions differ")
    cols = list(zip(*b))
    return [[dot(row, col, ring) for col in cols] for row in a]


# -- minors of forms on a line; grade certificates ---------------------------------

# Lines p + t*q of P^4 tried by coprime_on_a_line, in order: small integer
# points, fixed, with no seed.
Line = Tuple[Tuple[int, ...], Tuple[int, ...]]
CERTIFICATE_LINES: Tuple[Line, ...] = (
    ((1, 2, -1, 3, 1), (2, -1, 1, 0, 3)),
    ((3, 1, 2, -2, 1), (1, 3, -1, 2, -2)),
    ((2, -3, 1, 1, 4), (-1, 2, 3, 1, 1)),
)


def restrict_to_line(f: Polynomial, line: Line) -> univariate.Coeffs:
    """f(p + t*q) in ascending powers of t, padded to deg f + 1 entries, so
    the last entry is f's top-degree part at q; [] for the zero form.

    Summed in ints: each term's numerator times the binomial rows of
    (p_i + t*q_i)^e for its exponents, then reduced mod p once, or divided
    once by the common denominator over Q."""
    p = f.ring.field.characteristic
    n = f.degree() + 1
    powers = [[[comb(e, k) * a ** (e - k) * b**k for k in range(e + 1)] for e in range(n)] for a, b in zip(*line)]
    nums, den = _numerators(f.terms, p)
    out = [0] * n
    for exp, c in nums:
        term = [c]
        for rows, e in zip(powers, exp):
            if e:
                prod = [0] * (len(term) + e)
                for i, x in enumerate(term):
                    for j, y in enumerate(rows[e]):
                        prod[i + j] += x * y
                term = prod
        for k, x in enumerate(term):
            out[k] += x
    return [x % p for x in out] if p else [Fraction(x, den) for x in out]


def _padded(f: univariate.Coeffs, length: int, field: FieldSpec) -> univariate.Coeffs:
    return f + [field.zero()] * (length - len(f))


def _line_minor(M, r: int, cols: Tuple[int, ...], memo: dict, field: FieldSpec) -> univariate.Coeffs:
    """The minor of the matrix M of binary forms on rows r.. and ``cols``,
    by expansion along row r.  Lengths are degree bounds, as for
    restrictions: a product of lengths a and b has length a + b - 1."""
    if r == len(M):
        return [field.one()]
    key = (r, cols)
    if key not in memo:
        total: univariate.Coeffs = []
        for k, c in enumerate(cols):
            sub_minor = _line_minor(M, r + 1, cols[:k] + cols[k + 1:], memo, field)
            if not M[r][c] or not sub_minor:
                continue
            term = _padded(univariate.mul(M[r][c], sub_minor, field), len(M[r][c]) + len(sub_minor) - 1, field)
            if k % 2:
                term = univariate.scale(term, field.neg(field.one()), field)
            total = _padded(univariate.add(total, term, field), max(len(total), len(term)), field)
        memo[key] = total
    return memo[key]


def binary_minors_gcd(M, field: FieldSpec) -> univariate.Coeffs:
    """The gcd of the maximal minors of a matrix of binary forms, or [] when
    every minor is zero.

    A binary form of degree d in (s, t) is its d + 1 coefficients, ascending
    in t, so its zero top entries are the power of s it carries.  The gcd is
    that of the nonzero minors' coefficient lists, then as many zero entries
    as the fewest any nonzero minor ends in.  The fold stops at a nonzero
    constant, which no further minor changes.
    """
    memo: dict = {}
    common: univariate.Coeffs = []
    s_power: Optional[int] = None
    for cols in combinations(range(len(M[0])), len(M)):
        minor = _line_minor(M, 0, cols, memo, field)
        trimmed = univariate.trim(minor, field)
        if not trimmed:
            continue
        common = univariate.gcd(common, trimmed, field)
        zeros = len(minor) - len(trimmed)
        s_power = zeros if s_power is None else min(s_power, zeros)
        if len(common) == 1 and s_power == 0:
            break
    return [] if s_power is None else common + [field.zero()] * s_power


def coprime_on_a_line(matrix: Sequence[Sequence[Polynomial]], ring: PolyRing) -> Optional[Line]:
    """A line of CERTIFICATE_LINES on which the maximal minors of ``matrix``
    have no common factor, or None.  A list of forms is the one-row matrix
    [forms], whose maximal minors are the forms.

    A common factor h of the minors restricts on the line to a common factor
    of the restricted minors, unless h is constant there, which makes its top
    part vanish at q and so the top part of every minor.  So when the
    restricted minors, read as binary forms, have a constant gcd (gcd 1 in t,
    and one minor's top part nonzero at q), the minors have no common
    factor: R is factorial, so the ideal they generate has grade >= 2.  The
    minors are those of the restricted matrix, and are never formed in R.
    A line that certifies nothing proves nothing.
    """
    if not matrix or ring.nvars != len(CERTIFICATE_LINES[0][0]):
        return None
    for line in CERTIFICATE_LINES:
        M = [[restrict_to_line(f, line) for f in row] for row in matrix]
        if len(binary_minors_gcd(M, ring.field)) == 1:
            return line
    return None
