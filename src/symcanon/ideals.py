"""Homogeneous ideal arithmetic: Groebner bases, quotients, saturation,
dimension, degree, and the analysis of point schemes (reducedness and the
distinct-point count, from the rank of the trace form; no random draws).
A point scheme's algebra (``PointAlgebra``) is read from two pieces that
equal the saturation's: an ideal's own, once a regularity certificate
(``regular_length``) holds, with no Groebner basis.

Everything public here assumes homogeneous input; this matches the graded
setting of the geometry.  A question about one degree d (membership, normal
form, Hilbert function, standard monomials) is answered by the reduced
echelon of the ideal's degree-d piece, ``Ideal.piece(d)``; Groebner bases
answer the questions with no degree bound.  The intersection eliminates an
auxiliary variable t; its input is homogeneous in the kept variables only,
and the Buchberger run counts the degree of a pair in those, the variables
that its order does not eliminate.

The saturation reads (I : x_v^infty) off a grevlex basis with x_v last
(Bayer-Stillman), starting at x4, whose basis is the plain grevlex one, and
intersects in further variables only until the Hilbert polynomial certifies
the result; the test suite checks it against the iterated quotient.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, zip_longest
from math import gcd
from operator import add, itemgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import BudgetExceededError, ContractError, DegreeOverflowError, RingMismatchError
from .fields import FieldSpec, Scalar
from .orders import (
    FIELD_BITS,
    GREVLEX,
    Monomial,
    MonomialOrder,
    elimination,
    grevlex_with_last,
    monomial_divides,
)
from .poly import EXPONENT_BOUND, Polynomial, PolyRing, graded_basis, graded_piece


# Budgets of every Buchberger run, read when the run checks them; a run
# that exceeds one raises BudgetExceededError.
DEGREE_BUDGET = 48
PAIR_BUDGET = 400_000


class Ideal:
    """A homogeneous ideal given by generators, with cached reduced bases
    and pieces (see ``piece``).

    The basis cache maps (order token, truncation degree) to a basis; a full
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
        self._pieces: Dict[int, linalg.Echelon] = {}

    def __repr__(self):
        return f"Ideal<{len(self.generators)} gens over {self.ring!r}>"

    def is_zero(self) -> bool:
        return not self.generators

    def piece(self, d: int) -> linalg.Echelon:
        """Reduced row echelon of the degree-d piece, over the columns
        graded_basis(ring, d) in descending grevlex order (a Macaulay
        matrix).  Its pivots are the leading monomials of the piece, its
        other columns the standard monomials of degree d, and the residue
        of a coefficient vector (``reduce``) is its grevlex normal form.
        It also keeps the rows of graded_piece independent of the rows
        before them (``independent``)."""
        if d not in self._pieces:
            self._pieces[d] = linalg.Echelon(graded_piece(self.generators, d, self.ring), self.ring.field)
        return self._pieces[d]

    def contains_one(self) -> bool:
        """A homogeneous ideal is the unit ideal iff one of its generators is
        a nonzero constant: 1 lies in its degree-0 piece."""
        return any(g.degree() == 0 for g in self.generators)


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
# an S-pair lcm, because the input is homogeneous in the kept variables and
# the eliminated variables are compared first.  A term is (X, c).  A reducer
# is a monic polynomial (X_lm, shifts, coeffs): its tail monomials relative
# to the leading one, dX = X - X_lm, and their negated coefficients d, so
# reducing c * x^m by it adds the terms (X_m + dX, c * d).


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
) -> List[Polynomial]:
    """Reduced Groebner basis of gens under order.  Pairs are sorted, and
    ``cap`` and the degree budget read, by degree in the variables the order
    keeps (all of them but an elimination block).  The gens are homogeneous,
    or, in the intersection's run, homogeneous in the kept variables."""
    field = ring.field
    pk = _Packing(ring, order)
    p, guard = pk.p, pk.guard
    kept = order.block

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
            heappush(queue, (sum(lcm[kept:]), pk.monomial(lcm), i, j))
            pending.add((i, j))
        basis.append(r)
        lms.append(lm)
        insort(reducers, r)

    # generators by degree, then leading monomial; each is packed on its turn
    inputs = []
    for g in gens:
        d = sum(next(iter(g.terms))[kept:])  # generators are homogeneous and nonzero
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
        if d > DEGREE_BUDGET:
            raise BudgetExceededError(
                f"Groebner degree budget {DEGREE_BUDGET} exceeded "
                f"(pair degree {d}, {processed} pairs processed, basis size {len(basis)})"
            )
        processed += 1
        if processed > PAIR_BUDGET:
            raise BudgetExceededError(
                f"Groebner pair budget {PAIR_BUDGET} exceeded "
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
) -> List[Polynomial]:
    """Reduced Groebner basis of I for the order, unique and cached.

    ``cap`` truncates the computation at a degree: the result is
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
        I._gb_cache[token] = _buchberger(I.generators, order, I.ring, cap)
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


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I cap J = (t I + (1 - t) J) cap k[x], t a new first variable
    eliminated by a Buchberger run under elimination(1)."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatchError("intersection across rings")
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    t_name = "t_"
    while t_name in ring.variables:
        t_name += "_"
    aux = PolyRing((t_name,) + ring.variables, ring.field)
    t = aux.variable(0)
    one = aux.one()

    def lift(g):
        return Polynomial(aux, {(0,) + m: c for m, c in g.terms.items()})

    gens = [t * lift(g) for g in I.generators] + [(one - t) * lift(g) for g in J.generators]
    gb = _buchberger(gens, elimination(1), aux, None)
    eliminated = [g for g in gb if all(m[0] == 0 for m in g.terms)]
    return Ideal(ring, [Polynomial(ring, {m[1:]: c for m, c in g.terms.items()}) for g in eliminated])


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f) = {g : g f in I}, via (I cap (f)) / f."""
    if f.ring != I.ring:
        raise RingMismatchError("quotient divisor outside the ring")
    if f.is_zero():
        raise ContractError("ideal quotient by zero")
    if not f.is_homogeneous():
        raise ContractError("ideal quotient requires a homogeneous divisor")
    if I.is_zero():
        return Ideal(I.ring, [])
    meet = ideal_intersection(I, Ideal(I.ring, [f]))
    return Ideal(I.ring, [g.exact_divide(f) for g in meet.generators])


def _saturate_variable(I: Ideal, var: int) -> Ideal:
    """(I : x_var^infty) read off a grevlex basis with x_var smallest."""
    ring = I.ring
    order = grevlex_with_last(ring.nvars, var)
    gb = groebner_basis(I, order)
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


def saturate(I: Ideal) -> Ideal:
    """sat(I) = (I : (x0..x4)^infty).

    Each (I : x_v^infty) is saturated and contains sat(I), and so is any
    intersection of them; such an ideal equals sat(I) exactly when its
    Hilbert polynomial is I's.  So the loop intersects the per-variable
    saturations, from x4 down, only until the Hilbert polynomials agree;
    all of them together are sat(I).
    """
    ring = I.ring
    if I.is_zero():
        return Ideal(ring, [])
    result = None
    for v in range(ring.nvars - 1, -1, -1):
        part = _saturate_variable(I, v)
        result = part if result is None else ideal_intersection(result, part)
        if v == 0 or same_hilbert_polynomial(result, I):
            return result


# -- dimension, degree, point schemes ------------------------------------------


def dimension(I: Ideal, order: MonomialOrder = GREVLEX) -> int:
    """Affine Krull dimension of ring/I via a maximal independent set of
    variables for the leading-term ideal; ring/(1) reports -1."""
    ring = I.ring
    if I.is_zero():
        return ring.nvars
    gb = groebner_basis(I, order)
    if any(g.degree() == 0 for g in gb):
        return -1
    supports = [
        frozenset(i for i, e in enumerate(g.leading_monomial(order)) if e) for g in gb
    ]
    n = ring.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def codimension(I: Ideal, order: MonomialOrder = GREVLEX) -> int:
    """grade(I) = codim(I) over the Cohen-Macaulay polynomial ring."""
    return I.ring.nvars - dimension(I, order)


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


def _grevlex_numerator(I: Ideal) -> List[int]:
    """Hilbert numerator of ring/I, from the grevlex leading monomials."""
    gb = groebner_basis(I, GREVLEX)
    return _hilbert_numerator([g.leading_monomial(GREVLEX) for g in gb])


def _divide_one_minus_t(num: List[int]) -> List[int]:
    """num / (1 - t) by synthetic division; num must vanish at t = 1."""
    return list(accumulate(num[:-1]))


def same_hilbert_polynomial(I: Ideal, J: Ideal) -> bool:
    """Whether ring/I and ring/J have the same Hilbert polynomial: their
    Hilbert series are N_I(t), N_J(t) over (1-t)^n, and the polynomials
    agree iff (1-t)^n divides N_I - N_J."""
    if I.ring != J.ring:
        raise RingMismatchError("Hilbert polynomials across rings")
    a, b = _grevlex_numerator(I), _grevlex_numerator(J)
    diff = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    for _ in range(I.ring.nvars):
        if sum(diff):
            return False
        diff = _divide_one_minus_t(diff)
    return True


def _numerator_at_one(I_sat: Ideal) -> Tuple[int, int]:
    """(c, N1(1)) where the Hilbert numerator is (1-t)^c * N1 with N1(1) != 0."""
    num = _grevlex_numerator(I_sat)
    c = 0
    while num and sum(num) == 0:
        num = _divide_one_minus_t(num)
        c += 1
    return c, sum(num)


def multiplicity(I: Ideal) -> int:
    """Degree of the projective scheme of I (Hilbert-polynomial leading data),
    computed from the saturation; equals the length for point schemes."""
    if I.is_zero():
        raise ContractError("multiplicity of the zero ideal is undefined")
    sat = saturate(I)
    if not sat.generators:
        raise ContractError("multiplicity of the zero ideal is undefined")
    if sat.contains_one():
        return 0
    c, value = _numerator_at_one(sat)
    if c != I.ring.nvars - dimension(sat):
        raise ContractError(f"Hilbert numerator vanishes to order {c} at 1, not the codimension")
    return value


def hilbert_function(I: Ideal, m: int) -> int:
    """dim of (ring/I)_m: the columns of I's degree-m piece that hold no
    pivot."""
    return len(graded_basis(I.ring, m)) - len(I.piece(m).pivots)


def _standard_monomials(I: Ideal, m: int) -> List[Monomial]:
    """The monomials of degree m outside the leading-term ideal, in
    graded_basis order: the non-pivot columns of I's degree-m piece."""
    pivots = set(I.piece(m).pivots)
    return [mono for j, mono in enumerate(graded_basis(I.ring, m)) if j not in pivots]


def _multiplication_operator(J: Ideal, form: Polynomial, source: List[Monomial], target: List[Monomial]):
    """Matrix of x^m -> NF(x^m * form): rows the target basis, columns the
    source basis, all source monomials of one degree m.  Each normal form is
    the residue of the row x^m * form against J's degree-(m+1) piece."""
    ring = J.ring
    m = sum(source[0])
    scalar = int if ring.field.characteristic else Fraction
    rows = graded_piece([form], m + 1, ring, m)
    row = {mono: i for i, mono in enumerate(graded_basis(ring, m))}
    col = {mono: i for i, mono in enumerate(graded_basis(ring, m + 1))}
    residues = [J.piece(m + 1).reduce(rows[row[mono]]) for mono in source]
    return [[scalar(r[col[mono]]) for r in residues] for mono in target]


def _trial_forms(ring: PolyRing, e: int) -> List[Polynomial]:
    """l_c = sum_i c^i x_i for 0 <= c < min(p, (nvars - 1) e + 1): at each
    of e points l_c is a nonzero polynomial of degree < nvars in c, so one
    of these forms misses them all."""
    field = ring.field
    bound = (ring.nvars - 1) * e + 1
    bound = min(bound, field.characteristic or bound)
    return [ring.linear_form([field.of_int(c**i) for i in range(ring.nvars)]) for c in range(bound)]


def regular_length(I: Ideal, m: int) -> Optional[int]:
    """HF_{R/I}(m) > 0 for I generated in degree m, when a trial form l
    certifies that I is m-regular, so I_t = sat(I)_t for t >= m and the
    scheme is finite of that length (Bayer-Stillman, Invent. Math. 87, 1987,
    Thm 1.10); None otherwise.  (I + l)_m = R_m makes l map (R/I)_t onto
    (R/I)_{t+1} for t >= m; then (I : l)_m = I_m, l one to one from
    (R/I)_m, is HF(m + 1) = HF(m).
    """
    ring, field = I.ring, I.ring.field
    if any(g.degree() != m for g in I.generators):
        return None
    e = hilbert_function(I, m)
    if e == 0 or hilbert_function(I, m + 1) != e:  # the colon test, for every l
        return None
    full = len(graded_basis(ring, m))
    for l in _trial_forms(ring, e):
        if linalg.rank(np.vstack([I.piece(m).rows, graded_piece([l], m, ring)]), field) == full:
            return e
    return None


class PointAlgebra:
    """The functions on a finite scheme of length e, read in degree m of an
    ideal J with J_t = sat(J)_t and HF_{R/J}(t) = e for t = m, m + 1.

    For a form h that vanishes at no point (M_h of rank e), theta_k =
    M_h^-1 M_{x_k} is multiplication by x_k/h on (R/J)_m, and sum_a f_a
    theta^a by f/h^d for f of degree d.  The rank of the trace form
    Tr(x^s x^t/h^2m), s and t over the standard monomials of degree m, is
    the number of distinct geometric points (Hermite; p > e exceeds every
    multiplicity).  The class of f, its operator applied to 1 = h^m/h^m, is
    zero exactly when f lies in sat(J), as h is a nonzerodivisor there.
    """

    def __init__(self, J: Ideal, m: int, e: int):
        ring, field, p = J.ring, J.ring.field, J.ring.field.characteristic
        if p and p <= e:
            raise ContractError(f"characteristic {p} too small for the trace form of a length-{e} scheme")
        source = _standard_monomials(J, m)
        target = _standard_monomials(J, m + 1)
        if len(source) != e or len(target) != e:
            raise ContractError(
                f"point algebra: HF {len(source)}, {len(target)} in degrees {m}, {m + 1}, not the length {e}"
            )
        forms = _trial_forms(ring, e)
        for h in forms:
            Mh = _multiplication_operator(J, h, source, target)
            if linalg.rank(Mh, field) == e:
                break
        else:
            raise BudgetExceededError(
                f"every form sum_i c^i x_i with 0 <= c < {len(forms)} vanishes at a point of the scheme"
            )
        Mh_inv = linalg.inverse(Mh, field)
        theta = [linalg.matmul(Mh_inv, _multiplication_operator(J, x, source, target), field) for x in ring.gens()]
        dtype = np.int64 if p else object
        self.ideal, self.degree, self._theta = J, m, np.array(theta, dtype=dtype)
        self._operators = {(0,) * ring.nvars: np.eye(e, dtype=dtype)}
        col = {mono: j for j, mono in enumerate(graded_basis(ring, m))}
        self._one = J.piece(m).reduce(graded_piece([h**m], m, ring, 0)[0])[[col[s] for s in source]]
        gram = [[np.trace(self._operator(tuple(map(add, s, t)))) for t in source] for s in source]
        r = linalg.rank(gram, field)
        self.reduced, self.points, self.length = r == e, r, e

    def _operator(self, a: Monomial) -> np.ndarray:
        """theta^a = theta_k theta^b, x_k the first variable of x^a = x_k x^b."""
        if a not in self._operators:
            k = next(i for i, x in enumerate(a) if x)
            b = a[:k] + (a[k] - 1,) + a[k + 1 :]
            self._operators[a] = linalg.vecmat(self._theta[k], self._operator(b), self.ideal.ring.field)
        return self._operators[a]

    def operators(self, forms: Sequence[Polynomial], d: int) -> np.ndarray:
        """Multiplication by f/h^d, sum_a f_a theta^a, for each form f of
        degree d (zero allowed): an array of e x e matrices."""
        ring = self.ideal.ring
        table = np.array([self._operator(a) for a in graded_basis(ring, d)])
        flat = linalg.vecmat(graded_piece(forms, d, ring, 0), table.reshape(len(table), -1), ring.field)
        return flat.reshape(len(forms), *table.shape[1:])

    def classes(self, forms: Sequence[Polynomial], d: int) -> np.ndarray:
        """The classes of forms of degree d (zero allowed), one row each:
        their operators applied to 1."""
        e = len(self._one)
        ops = self.operators(forms, d).reshape(len(forms) * e, e)
        return linalg.vecmat(ops, self._one, self.ideal.ring.field).reshape(len(forms), e)


def zero_dim_analysis(I: Ideal) -> PointAlgebra:
    """The point algebra of a projective 0-dimensional I's saturation."""
    return _zero_dim_saturated(saturate(I))


def _zero_dim_saturated(sat: Ideal) -> PointAlgebra:
    """zero_dim_analysis of an ideal that is already saturated."""
    if not sat.generators or sat.contains_one():
        raise ContractError("zero-dimensional analysis: empty projective scheme")
    if dimension(sat) != 1:
        raise ContractError(
            f"zero-dimensional analysis: projective dimension is {dimension(sat) - 1}, not 0"
        )
    _, e = _numerator_at_one(sat)
    m = 0
    guard = 4 * e + 8
    while hilbert_function(sat, m) != e:
        m += 1
        if m > guard:
            raise BudgetExceededError("Hilbert function of a point scheme did not stabilize")
    return PointAlgebra(sat, m, e)
