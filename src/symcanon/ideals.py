"""Homogeneous ideal arithmetic: Groebner bases, quotients, saturation,
dimension, degree, and the zero-dimensional radicality test.

Everything public here assumes homogeneous input; this matches the graded
setting of the geometry and lets membership questions be answered by
degree-truncated bases.  Auxiliary elimination variables carry weight 0, so
the internal elimination runs remain homogeneous for the original grading.

The saturation with respect to the irrelevant ideal follows the grevlex
last-variable division rule (one basis per variable, then intersections);
the general saturation is the stabilized iterated quotient.  The two routes
are cross-checked in the test suite.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd
from operator import itemgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, univariate
from .errors import BudgetExceededError, ContractError, DegreeOverflowError, RingMismatchError
from .fields import DetRng, FieldSpec, Scalar
from .orders import (
    FIELD_BITS,
    GREVLEX,
    Monomial,
    MonomialOrder,
    elimination,
    grevlex_with_last,
    monomial_divides,
)
from .poly import EXPONENT_BOUND, Polynomial, PolyRing, graded_basis


@dataclass
class GBConfig:
    """Resource budgets for Buchberger runs; exceeding one raises loudly."""

    degree_budget: int = 48
    pair_budget: int = 400_000


DEFAULT_GB_CONFIG = GBConfig()


class Ideal:
    """A homogeneous ideal given by generators, with cached reduced bases.

    The cache maps (order token, truncation degree) to a basis; a full
    reduced basis is stored under truncation None and serves every
    truncated request.
    """

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        gens = []
        seen = set()
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator outside the ideal's ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ContractError(f"inhomogeneous generator: {g}")
            if g not in seen:
                seen.add(g)
                gens.append(g)
        self.ring = ring
        self.generators: Tuple[Polynomial, ...] = tuple(gens)
        self._gb_cache: Dict[tuple, List[Polynomial]] = {}

    def __repr__(self):
        return f"Ideal<{len(self.generators)} gens over {self.ring!r}>"

    def is_zero(self) -> bool:
        return not self.generators

    def contains_one(self) -> bool:
        gb = groebner_basis(self, GREVLEX)
        return any(g.degree() == 0 for g in gb)


def irrelevant_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, ring.gens())


# -- Buchberger on packed monomials ---------------------------------------------
#
# Inside the engine a monomial is one int X = K * 2^(16 n) + P: its order key
# K (a linear functional, see MonomialOrder.weights) above its exponents P,
# 16 bits per variable.  X is linear in the exponents too, so multiplying
# monomials adds ints, and comparing X compares K.  x^a divides x^b iff
# ((X_b | H) - X_a) & H == H, with H the top bit of every exponent field:
# that holds while exponents stay below 2^15, and the subtraction never
# borrows out of the exponent fields.  Packing refuses monomials of degree
# 2^15 or more; every term met later has at most the degree of an input or
# an S-pair lcm, because the input is homogeneous and its weight-0 variables
# are compared first.  A term is (X, c).  A reducer is a monic polynomial
# (X_lm, shifts, coeffs): its tail monomials relative to the leading one,
# dX = X - X_lm, and their negated coefficients d, so reducing c * x^m by it
# adds the terms (X_m + dX, c * d).


class _Packing:
    """Monomial packing for one ring under one order."""

    __slots__ = ("order", "field", "weights", "shifts", "guard", "p")

    def __init__(self, ring: PolyRing, order: MonomialOrder):
        n = ring.nvars
        self.order = order
        self.field = ring.field
        self.shifts = tuple(range(0, FIELD_BITS * n, FIELD_BITS))
        self.weights = tuple(
            (w << (FIELD_BITS * n)) + (1 << s) for w, s in zip(order.weights(n), self.shifts)
        )
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        self.p = ring.field.characteristic

    def monomial(self, exp: Monomial) -> int:
        _check_packable(sum(exp))
        return sum(map(mul, self.weights, exp))

    def terms(self, f: Polynomial) -> list:
        if f.terms:
            _check_packable(max(map(sum, f.terms)))
        w = self.weights
        return [(sum(map(mul, w, m)), c) for m, c in f.terms.items()]

    def leading(self, f: Polynomial) -> int:
        w = self.weights
        return max(sum(map(mul, w, m)) for m in f.terms)

    def unpack(self, X: int) -> Monomial:
        return tuple((X >> s) & _FIELD_MASK for s in self.shifts)

    def polynomial(self, ring: PolyRing, terms) -> Polynomial:
        return Polynomial(ring, {self.unpack(X): c for X, c in terms})

    def reducers(self, I: Ideal, cap: int) -> list:
        """I's reduced basis up to degree cap as reducers, ascending X_lm."""
        gb = groebner_basis(I, self.order, cap=cap)
        return sorted(_monic_reducer(self.terms(g), self.field) for g in gb)


_FIELD_MASK = (1 << FIELD_BITS) - 1


def _check_packable(degree: int) -> None:
    if degree >= EXPONENT_BOUND:
        raise DegreeOverflowError(f"monomial of degree {degree} exceeds the packing bound 2^15")


def _monic_reducer(terms, field: FieldSpec):
    X0, c0 = max(terms)
    inv = field.inv(c0)
    tail = [(X, c) for X, c in terms if X != X0]
    return (
        X0,
        tuple(X - X0 for X, _ in tail),
        tuple(field.neg(field.mul(c, inv)) for _, c in tail),
    )


def _reducer_terms(r, field: FieldSpec) -> list:
    X0, shifts, coeffs = r
    return [(X0, field.one())] + [(X0 + dX, field.neg(d)) for dX, d in zip(shifts, coeffs)]


def _normal_form_terms(terms, reducers, p: int, guard: int) -> list:
    """Remainder of the terms (X, c), repeated monomials allowed, on
    division by ``reducers`` (ascending X_lm, the first divisor wins).

    The work terms sit in a dict X -> c under a max-heap of monomials.  A
    reduction step only creates terms below the one it removes, so each
    monomial enters the heap once; one whose coefficient cancelled is
    skipped when popped.  Over GF(p) coefficients are summed unreduced and
    reduced when popped.  Over Q (p = 0) they are kept as integer pairs in
    ``coef`` and ``den``, summed over the lcm of the denominators without
    Fraction objects, and put in lowest terms when popped.  Returns the
    remainder's terms in descending order, with field scalars as
    coefficients.
    """
    coef: Dict[int, int] = {}
    den: Dict[int, int] = {}
    for X, c in terms:
        if p:
            coef[X] = coef.get(X, 0) + c
        elif X in coef:
            coef[X], den[X] = coef[X] * c.denominator + c.numerator * den[X], den[X] * c.denominator
        else:
            coef[X], den[X] = c.numerator, c.denominator
    heap = [-X for X in coef]
    heapify(heap)
    out = []
    while heap:
        X = -heappop(heap)
        a = coef.pop(X)
        if p:
            a %= p
        else:
            b = den.pop(X)
            g = gcd(a, b)
            a, b = a // g, b // g
        if not a:
            continue
        XH = X | guard
        for Xl, shifts, coeffs in reducers:
            if Xl > X:  # a divisor of x^m is never larger than x^m
                shifts = None
                break
            if (XH - Xl) & guard == guard:
                break
        else:
            shifts = None
        if shifts is None:
            out.append((X, a if p else Fraction(a, b)))
        elif p:
            for dX, d in zip(shifts, coeffs):
                t = X + dX
                if t in coef:
                    coef[t] += a * d
                else:
                    coef[t] = a * d
                    heappush(heap, -t)
        else:
            for dX, d in zip(shifts, coeffs):
                t = X + dX
                n, e = d.numerator, d.denominator
                if t in coef:  # over the lcm of the denominators
                    f = den[t]
                    g = gcd(f, b * e)
                    coef[t] = coef[t] * (b * e // g) + a * n * (f // g)
                    den[t] = f // g * b * e
                else:
                    coef[t] = a * n
                    den[t] = b * e
                    heappush(heap, -t)
    return out


def _buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    ring: PolyRing,
    cap: Optional[int],
    config: GBConfig,
) -> List[Polynomial]:
    field = ring.field
    pk = _Packing(ring, order)
    p, guard = pk.p, pk.guard
    wd = ring.weighted_degree

    basis: list = []  # reducers, in order of creation
    lms: List[Monomial] = []
    reducers: list = []  # the same, ascending X_lm
    pending: set = set()
    queue: list = []  # one entry per pair: (degree of the lcm, X of the lcm, i, j)

    def add_element(terms):
        r = _monic_reducer(terms, field)
        lm = pk.unpack(r[0])
        j = len(basis)
        for i, lm_i in enumerate(lms):
            lcm = tuple(map(max, lm_i, lm))
            heappush(queue, (wd(lcm), pk.monomial(lcm), i, j))
            pending.add((i, j))
        basis.append(r)
        lms.append(lm)
        insort(reducers, r)

    # generators by degree, then leading monomial; each is packed on its turn
    inputs = []
    for g in gens:
        d = wd(next(iter(g.terms)))  # generators are homogeneous and nonzero
        if cap is None or d <= cap:
            inputs.append((d, pk.leading(g), g))
    inputs.sort(key=itemgetter(0, 1))
    for _, _, g in inputs:
        h = _normal_form_terms(pk.terms(g), reducers, p, guard)
        if h:
            add_element(h)

    processed = 0
    while queue:
        d, L, i, j = heappop(queue)
        pending.discard((i, j))
        if cap is not None and d > cap:
            break  # the queue is ordered by degree: every later pair is above cap too
        if d > config.degree_budget:
            raise BudgetExceededError(
                f"Groebner degree budget {config.degree_budget} exceeded "
                f"(pair degree {d}, {processed} pairs processed, basis size {len(basis)})"
            )
        processed += 1
        if processed > config.pair_budget:
            raise BudgetExceededError(
                f"Groebner pair budget {config.pair_budget} exceeded "
                f"(pair degree {d}, {processed - 1} pairs processed, basis size {len(basis)})"
            )
        Xi, shifts_i, coeffs_i = basis[i]
        Xj, shifts_j, coeffs_j = basis[j]
        # product criterion: coprime leading monomials
        if L == Xi + Xj:
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # i and j were both already handled lets us skip this pair
        LH = L | guard
        skip = False
        for k, (Xk, _, _) in enumerate(basis):
            if k == i or k == j or (LH - Xk) & guard != guard:
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s = [(L + dX, -c) for dX, c in zip(shifts_i, coeffs_i)]
        s += [(L + dX, c) for dX, c in zip(shifts_j, coeffs_j)]
        h = _normal_form_terms(s, reducers, p, guard)
        if h:
            add_element(h)

    basis.clear()  # the elements of ``reducers``, which the reduction consumes
    reduced = _reduce_basis(reducers, field, p, guard)
    # unpack from the top, freeing each reducer as its polynomial is made
    out = [pk.polynomial(ring, _reducer_terms(reduced.pop(), field)) for _ in range(len(reduced))]
    out.reverse()
    return out


def _reduce_basis(ordered: list, field: FieldSpec, p: int, guard: int) -> list:
    """The reduced basis, ascending X_lm, from the reducers of a Groebner
    basis in ascending X_lm; empties ``ordered`` to free each element once
    it is used."""
    # minimalize: processing by ascending leading monomial keeps exactly the
    # minimal generators of the leading-term ideal (a divisor never follows
    # its multiple in this order)
    minimal: list = []
    for r in ordered:
        XH = r[0] | guard
        if not any((XH - m[0]) & guard == guard for m in minimal):
            minimal.append(r)
    ordered.clear()
    # a tail term below lm(g) can only be divided by a smaller leading
    # monomial, so the elements already reduced are all g needs
    minimal.reverse()
    reduced: list = []
    while minimal:
        h = _normal_form_terms(_reducer_terms(minimal.pop(), field), reduced, p, guard)
        reduced.append(_monic_reducer(h, field))
    return reduced


def groebner_basis(
    I: Ideal,
    order: MonomialOrder = GREVLEX,
    cap: Optional[int] = None,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> List[Polynomial]:
    """Reduced Groebner basis of I for the order, unique and cached.

    ``cap`` truncates the computation at a weighted degree: the result is
    the part of the full reduced basis in degrees <= cap, which is all that
    membership tests below need.
    """
    order.validate(I.ring.nvars)
    token_full = (order.cache_token(), None)
    if token_full in I._gb_cache:
        full = I._gb_cache[token_full]
        if cap is None:
            return full
        return [g for g in full if g.degree() <= cap]
    token = (order.cache_token(), cap)
    if token not in I._gb_cache:
        I._gb_cache[token] = _buchberger(I.generators, order, I.ring, cap, config)
    return I._gb_cache[token]


def normal_form_poly(
    f: Polynomial, I: Ideal, order: MonomialOrder = GREVLEX
) -> Polynomial:
    """Remainder of homogeneous f modulo the reduced basis; zero iff f in I."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial outside the ideal's ring")
    if not f.is_homogeneous():
        raise ContractError("normal_form_poly requires homogeneous input")
    if f.is_zero() or I.is_zero():
        return f
    pk = _Packing(I.ring, order)
    reducers = pk.reducers(I, f.degree())
    return pk.polynomial(I.ring, _normal_form_terms(pk.terms(f), reducers, pk.p, pk.guard))


def ideal_contains(I: Ideal, f: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
    return normal_form_poly(f, I, order).is_zero()


def _contains_all(I: Ideal, fs: Sequence[Polynomial], order: MonomialOrder) -> bool:
    """Whether I contains every f in fs (nonzero and homogeneous), reducing
    them all against one packing of I's basis truncated at their top degree."""
    if not fs:
        return True
    if I.is_zero():
        return False
    pk = _Packing(I.ring, order)
    reducers = pk.reducers(I, max(f.degree() for f in fs))
    return not any(_normal_form_terms(pk.terms(f), reducers, pk.p, pk.guard) for f in fs)


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder = GREVLEX) -> bool:
    """Mutual containment, decided by truncated reduced bases."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal comparison across rings")
    return _contains_all(J, I.generators, order) and _contains_all(I, J.generators, order)


# -- elimination constructions -------------------------------------------------


def _to_aux(f: Polynomial, aux: PolyRing) -> Polynomial:
    return f.map_ring(aux, list(range(1, aux.nvars)))


def _from_aux(f: Polynomial, ring: PolyRing) -> Polynomial:
    terms = {}
    for m, c in f.terms.items():
        assert m[0] == 0
        terms[m[1:]] = c
    return Polynomial(ring, terms)


def ideal_intersection(I: Ideal, J: Ideal, config: GBConfig = DEFAULT_GB_CONFIG) -> Ideal:
    """I cap J via the auxiliary-variable elimination trick."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatchError("intersection across rings")
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    aux = ring.with_aux_variable()
    t = aux.variable(0)
    one = aux.one()
    gens = [t * _to_aux(g, aux) for g in I.generators]
    gens += [(one - t) * _to_aux(g, aux) for g in J.generators]
    K = Ideal(aux, gens)
    gb = groebner_basis(K, elimination(1), config=config)
    eliminated = [g for g in gb if all(m[0] == 0 for m in g.terms)]
    return Ideal(ring, [_from_aux(g, ring) for g in eliminated])


def ideal_quotient(I: Ideal, f: Polynomial, config: GBConfig = DEFAULT_GB_CONFIG) -> Ideal:
    """(I : f) = {g : g f in I}, via (I cap (f)) / f."""
    if f.ring != I.ring:
        raise RingMismatchError("quotient divisor outside the ring")
    if f.is_zero():
        raise ContractError("ideal quotient by zero")
    if not f.is_homogeneous():
        raise ContractError("ideal quotient requires a homogeneous divisor")
    if I.is_zero():
        return Ideal(I.ring, [])
    meet = ideal_intersection(I, Ideal(I.ring, [f]), config=config)
    return Ideal(I.ring, [g.exact_divide(f) for g in meet.generators])


def ideal_quotient_by_ideal(I: Ideal, J: Ideal, config: GBConfig = DEFAULT_GB_CONFIG) -> Ideal:
    if not J.generators:
        raise ContractError("quotient by the zero ideal")
    result = ideal_quotient(I, J.generators[0], config=config)
    for g in J.generators[1:]:
        result = ideal_intersection(result, ideal_quotient(I, g, config=config), config=config)
    return result


def _saturate_variable(I: Ideal, var: int, config: GBConfig) -> Ideal:
    """(I : x_var^infty) read off a grevlex basis with x_var smallest."""
    ring = I.ring
    order = grevlex_with_last(ring.nvars, var)
    gb = groebner_basis(I, order, config=config)
    out = []
    for g in gb:
        shift = min(m[var] for m in g.terms)
        if shift == 0:
            out.append(g)
        else:
            terms = {}
            for m, c in g.terms.items():
                mm = list(m)
                mm[var] -= shift
                terms[tuple(mm)] = c
            out.append(Polynomial(ring, terms))
    return Ideal(ring, out)


def _is_irrelevant(J: Ideal) -> bool:
    gens = {g for g in J.generators}
    return gens == set(J.ring.gens())


def saturate(
    I: Ideal,
    J: Optional[Ideal] = None,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> Ideal:
    """(I : J^infty); J defaults to the irrelevant ideal (x0..x4).

    Irrelevant saturation intersects the per-variable saturations, each of
    which is exact from a single rotated-grevlex basis.  Any other J runs
    the stabilized iterated quotient.
    """
    ring = I.ring
    if J is None:
        J = irrelevant_ideal(ring)
    if not J.generators:
        raise ContractError("saturation with respect to the zero ideal")
    if I.is_zero():
        return Ideal(ring, [])
    if _is_irrelevant(J):
        result = _saturate_variable(I, 0, config)
        for v in range(1, ring.nvars):
            result = ideal_intersection(result, _saturate_variable(I, v, config), config=config)
        return result
    current = I
    while True:
        nxt = ideal_quotient_by_ideal(current, J, config=config)
        if ideal_equal(nxt, current):
            return current
        current = nxt


# -- dimension, degree, radicality ---------------------------------------------


def dimension(I: Ideal, order: MonomialOrder = GREVLEX, config: GBConfig = DEFAULT_GB_CONFIG) -> int:
    """Affine Krull dimension of ring/I via a maximal independent set of
    variables for the leading-term ideal; ring/(1) reports -1."""
    ring = I.ring
    if I.is_zero():
        return ring.nvars
    gb = groebner_basis(I, order, config=config)
    if any(g.degree() == 0 for g in gb):
        return -1
    supports = [
        frozenset(i for i, e in enumerate(g.leading_monomial(order)) if e) for g in gb
    ]
    n = ring.nvars
    from itertools import combinations

    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def codimension(I: Ideal, order: MonomialOrder = GREVLEX, config: GBConfig = DEFAULT_GB_CONFIG) -> int:
    """grade(I) = codim(I) over the Cohen-Macaulay polynomial ring."""
    return I.ring.nvars - dimension(I, order, config)


def _minimalize_monomials(monos: List[Monomial]) -> List[Monomial]:
    out = []
    for m in sorted(set(monos), key=sum):
        if not any(monomial_divides(o, m) for o in out):
            out.append(m)
    return out


def _hilbert_numerator(monos: List[Monomial]) -> List[int]:
    """Numerator of the Hilbert series of ring/(monomial ideal) over (1-t)^n."""
    monos = _minimalize_monomials(monos)
    if not monos:
        return [1]
    m = monos[-1]
    rest = monos[:-1]
    base = _hilbert_numerator(rest)
    colon = _minimalize_monomials(
        [tuple(max(e - f, 0) for e, f in zip(g, m)) for g in rest]
    )
    shifted = _hilbert_numerator(colon)
    d = sum(m)
    out = base[:]
    out += [0] * (d + len(shifted) - len(out))
    for i, c in enumerate(shifted):
        out[d + i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _numerator_at_one(I_sat: Ideal, order: MonomialOrder = GREVLEX) -> Tuple[int, int]:
    """(c, N1(1)) where the Hilbert numerator is (1-t)^c * N1 with N1(1) != 0."""
    gb = groebner_basis(I_sat, order)
    monos = [g.leading_monomial(order) for g in gb]
    num = _hilbert_numerator(monos)
    c = 0
    while sum(num) == 0:
        # divide by (1 - t): synthetic division
        acc = 0
        quo = []
        for coefficient in num[:-1]:
            acc = coefficient + acc
            quo.append(acc)
        num = quo
        c += 1
        if not num:
            return c, 0
    return c, sum(num)


def multiplicity(I: Ideal, config: GBConfig = DEFAULT_GB_CONFIG) -> int:
    """Degree of the projective scheme of I (Hilbert-polynomial leading data),
    computed from the saturation; equals the length for point schemes."""
    if I.is_zero():
        raise ContractError("multiplicity of the zero ideal is undefined")
    sat = saturate(I, config=config)
    if not sat.generators:
        raise ContractError("multiplicity of the zero ideal is undefined")
    if sat.contains_one():
        return 0
    c, value = _numerator_at_one(sat)
    assert c == I.ring.nvars - dimension(sat)
    return value


def hilbert_function(I: Ideal, m: int, order: MonomialOrder = GREVLEX) -> int:
    """dim of (ring/I)_m by counting standard monomials."""
    ring = I.ring
    if I.is_zero():
        return comb(m + ring.nvars - 1, ring.nvars - 1)
    return len(_standard_monomials(I, m, order))


def _standard_monomials(I: Ideal, m: int, order: MonomialOrder = GREVLEX) -> List[Monomial]:
    gb = groebner_basis(I, order, cap=m)
    lms = [g.leading_monomial(order) for g in gb]
    return [
        mono
        for mono in graded_basis(I.ring, m)
        if not any(monomial_divides(l, mono) for l in lms)
    ]


@dataclass
class ZeroDimAnalysis:
    reduced: bool
    points: int
    length: int
    saturated: Ideal


def _multiplication_operator(
    sat: Ideal,
    form: Polynomial,
    source: List[Monomial],
    target: List[Monomial],
    order: MonomialOrder,
):
    """Matrix of x^m -> NF(x^m * form): rows the target basis, columns the
    source basis, all source monomials of one degree."""
    ring = sat.ring
    field = ring.field
    pk = _Packing(ring, order)
    reducers = pk.reducers(sat, sum(source[0]) + form.degree())
    row = {pk.monomial(m): i for i, m in enumerate(target)}
    form_terms = pk.terms(form)
    out = [[field.zero()] * len(source) for _ in target]
    for j, mono in enumerate(source):
        X = pk.monomial(mono)
        for Y, c in _normal_form_terms([(X + Z, c) for Z, c in form_terms], reducers, pk.p, pk.guard):
            out[row[Y]][j] = c
    return out


def zero_dim_analysis(I: Ideal, config: GBConfig = DEFAULT_GB_CONFIG, attempts: int = 5) -> ZeroDimAnalysis:
    """Reducedness and distinct-point count for a projective 0-dimensional I.

    Works entirely with graded pieces: in a stable degree the quotient by
    the saturation has dimension equal to the scheme length e, and the
    operator (mult by u)(mult by h)^-1 acts as the rational function u/h on
    the points.  Its minimal polynomial g certifies:
      * g not squarefree        -> not reduced (for any u);
      * g squarefree, deg g = e -> reduced with e distinct points.
    """
    return _zero_dim_saturated(saturate(I, config=config), attempts)


def _zero_dim_saturated(sat: Ideal, attempts: int = 5) -> ZeroDimAnalysis:
    """zero_dim_analysis of an ideal that is already saturated."""
    ring = sat.ring
    field = ring.field
    if not sat.generators or sat.contains_one():
        raise ContractError("zero-dimensional analysis: empty projective scheme")
    if dimension(sat) != 1:
        raise ContractError(
            f"zero-dimensional analysis: projective dimension is {dimension(sat) - 1}, not 0"
        )
    _, e = _numerator_at_one(sat)
    p = field.characteristic
    if p and p <= e:
        raise ContractError(f"characteristic {p} too small for degree-{e} eliminants")

    m = 0
    guard = 4 * e + 8
    while hilbert_function(sat, m) != e:
        m += 1
        if m > guard:
            raise BudgetExceededError("Hilbert function of a point scheme did not stabilize")
    source = _standard_monomials(sat, m)
    target = _standard_monomials(sat, m + 1)
    assert len(source) == e and len(target) == e

    best_count = 0
    saw_non_squarefree = False
    for attempt in range(attempts):
        rng = DetRng(0xE11 + attempt)
        Mh = None
        for _ in range(5):
            h = ring.linear_form([rng.scalar(field) for _ in range(ring.nvars)])
            Mh = _multiplication_operator(sat, h, source, target, GREVLEX)
            if linalg.rank(Mh, field) == e:
                break
            Mh = None
        if Mh is None:
            continue
        u = ring.linear_form([rng.scalar(field) for _ in range(ring.nvars)])
        Mu = _multiplication_operator(sat, u, source, target, GREVLEX)
        theta = linalg.matmul(linalg.inverse(Mh, field), Mu, field)
        g = _minimal_polynomial(theta, field)
        sqf = univariate.squarefree_part(g, field)
        if univariate.degree(sqf) < univariate.degree(g):
            saw_non_squarefree = True
            best_count = max(best_count, univariate.degree(sqf))
        else:
            if univariate.degree(g) == e:
                return ZeroDimAnalysis(True, e, e, sat)
            best_count = max(best_count, univariate.degree(g))
    if saw_non_squarefree:
        return ZeroDimAnalysis(False, best_count, e, sat)
    raise BudgetExceededError("degenerate eliminants in all seeded attempts")


def _minimal_polynomial(theta, field: FieldSpec) -> List[Scalar]:
    e = len(theta)
    vecs: List[List[Scalar]] = []
    power = linalg.identity(e, field)
    for _ in range(e + 1):
        v = [power[i][j] for i in range(e) for j in range(e)]
        if vecs:
            coeffs = linalg.solve_particular(linalg.transpose(vecs), v, field)
            if coeffs is not None:
                # theta^k = sum c_i theta^i, so the minimal polynomial is
                # T^k - sum c_i T^i
                return univariate.trim([field.neg(c) for c in coeffs] + [field.one()], field)
        vecs.append(v)
        power = linalg.matmul(power, theta, field)
    raise AssertionError("operator has no minimal polynomial of degree <= dim")


def is_radical_zerodim(I: Ideal, config: GBConfig = DEFAULT_GB_CONFIG) -> bool:
    """True iff the (saturated) projective 0-dimensional scheme is reduced."""
    return zero_dim_analysis(I, config=config).reduced


def point_count(I: Ideal, config: GBConfig = DEFAULT_GB_CONFIG) -> int:
    """Number of distinct projective points (multiplicity ignored)."""
    return zero_dim_analysis(I, config=config).points
