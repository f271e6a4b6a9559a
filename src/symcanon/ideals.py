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

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, univariate
from .errors import BudgetExceededError, ContractError, RingMismatchError
from .fields import DetRng, FieldSpec, Scalar
from .orders import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    elimination,
    grevlex_with_last,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .poly import Polynomial, PolyRing, graded_basis


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


# -- Buchberger ---------------------------------------------------------------


def _normal_form_terms(
    f: Polynomial,
    basis: List[Tuple[Monomial, Polynomial]],
    order: MonomialOrder,
) -> Polynomial:
    ring = f.ring
    field = ring.field
    work = dict(f.terms)
    out: Dict[Monomial, Scalar] = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lm, g in basis:
            if monomial_divides(lm, m):
                hit = (lm, g)
                break
        if hit is None:
            out[m] = c
            continue
        lm, g = hit
        shift = monomial_div(m, lm)
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = monomial_mul(gm, shift)
            s = field.sub(work.get(t, field.zero()), field.mul(c, gc))
            if field.is_zero(s):
                work.pop(t, None)
            else:
                work[t] = s
    return Polynomial(ring, out)


def _spoly(f: Polynomial, g: Polynomial, lmf: Monomial, lmg: Monomial, order) -> Polynomial:
    ring = f.ring
    lcm = monomial_lcm(lmf, lmg)
    mf = ring.monomial(monomial_div(lcm, lmf))
    mg = ring.monomial(monomial_div(lcm, lmg))
    return mf * f - mg * g


def _buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    ring: PolyRing,
    cap: Optional[int],
    config: GBConfig,
) -> List[Polynomial]:
    from bisect import insort

    basis: List[Polynomial] = []
    lms: List[Monomial] = []
    reducers: List[Tuple[Monomial, Polynomial]] = []  # sorted by order key of lm

    def add_element(h: Polynomial):
        h = h.monic(order)
        basis.append(h)
        lm = h.leading_monomial(order)
        lms.append(lm)
        insort(reducers, (lm, h), key=lambda t: order.key(t[0]))
        j = len(basis) - 1
        for i in range(j):
            pending.add((i, j))

    pending: set = set()
    for g in sorted(gens, key=lambda p: (p.degree(), order.key(p.leading_monomial(order)))):
        h = _normal_form_terms(g, reducers, order)
        if not h.is_zero():
            add_element(h)

    wd = ring.weighted_degree
    processed = 0
    while pending:
        best = min(
            pending,
            key=lambda ij: (wd(monomial_lcm(lms[ij[0]], lms[ij[1]])),
                            order.key(monomial_lcm(lms[ij[0]], lms[ij[1]]))),
        )
        pending.discard(best)
        i, j = best
        lcm = monomial_lcm(lms[i], lms[j])
        d = wd(lcm)
        if cap is not None and d > cap:
            continue
        if d > config.degree_budget:
            raise BudgetExceededError(
                f"Groebner degree budget {config.degree_budget} exceeded (pair degree {d})"
            )
        processed += 1
        if processed > config.pair_budget:
            raise BudgetExceededError("Groebner pair budget exceeded")
        # product criterion
        if monomial_mul(lms[i], lms[j]) == lcm:
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # i and j were both already handled lets us skip this pair
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lms[k], lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                skip = True
                break
        if skip:
            continue
        s = _spoly(basis[i], basis[j], lms[i], lms[j], order)
        h = _normal_form_terms(s, reducers, order)
        if not h.is_zero():
            add_element(h)

    return _reduce_basis(basis, order)


def _reduce_basis(basis: List[Polynomial], order: MonomialOrder) -> List[Polynomial]:
    if not basis:
        return []
    # minimalize: processing by ascending leading monomial keeps exactly the
    # minimal generators of the leading-term ideal (a divisor never follows
    # its multiple in this order)
    ordered = sorted(basis, key=lambda g: order.key(g.leading_monomial(order)))
    minimal: List[Polynomial] = []
    kept_lms: List[Monomial] = []
    for g in ordered:
        lm = g.leading_monomial(order)
        if not any(monomial_divides(k, lm) for k in kept_lms):
            minimal.append(g)
            kept_lms.append(lm)
    reduced: List[Polynomial] = []
    for i, g in enumerate(minimal):
        others = [
            (h.leading_monomial(order), h) for j, h in enumerate(minimal) if j != i
        ]
        others.sort(key=lambda t: order.key(t[0]))
        r = _normal_form_terms(g, others, order).monic(order)
        reduced.append(r)
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return reduced


def groebner_basis(
    I: Ideal,
    order: MonomialOrder = GREVLEX,
    cap: Optional[int] = None,
    config: GBConfig = DEFAULT_GB_CONFIG,
) -> List[Polynomial]:
    """Reduced Groebner basis of I for the order, unique and cached.

    ``cap`` truncates the computation at a weighted degree; for homogeneous
    ideals the truncated basis agrees with the full reduced basis in all
    degrees <= cap, which is all that membership tests below need.
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
    gb = groebner_basis(I, order, cap=f.degree())
    pairs = sorted(((g.leading_monomial(order), g) for g in gb), key=lambda t: order.key(t[0]))
    return _normal_form_terms(f, pairs, order)


def ideal_contains(I: Ideal, f: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
    return normal_form_poly(f, I, order).is_zero()


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder = GREVLEX) -> bool:
    """Mutual containment, decided by truncated reduced bases."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal comparison across rings")
    return all(ideal_contains(J, g, order) for g in I.generators) and all(
        ideal_contains(I, g, order) for g in J.generators
    )


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
    gb = groebner_basis(I, order, cap=m)
    lms = [g.leading_monomial(order) for g in gb]
    return sum(
        1 for mono in graded_basis(ring, m) if not any(monomial_divides(l, mono) for l in lms)
    )


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
    ring = sat.ring
    field = ring.field
    index = {m: i for i, m in enumerate(target)}
    cols = []
    for mono in source:
        prod = normal_form_poly(ring.monomial(mono) * form, sat, order)
        col = [field.zero()] * len(target)
        for m, c in prod.terms.items():
            col[index[m]] = c
        cols.append(col)
    # rows: target basis; columns: source basis
    return [[cols[j][i] for j in range(len(source))] for i in range(len(target))]


def zero_dim_analysis(I: Ideal, config: GBConfig = DEFAULT_GB_CONFIG, attempts: int = 5) -> ZeroDimAnalysis:
    """Reducedness and distinct-point count for a projective 0-dimensional I.

    Works entirely with graded pieces: in a stable degree the quotient by
    the saturation has dimension equal to the scheme length e, and the
    operator (mult by u)(mult by h)^-1 acts as the rational function u/h on
    the points.  Its minimal polynomial g certifies:
      * g not squarefree        -> not reduced (for any u);
      * g squarefree, deg g = e -> reduced with e distinct points.
    """
    ring = I.ring
    field = ring.field
    sat = saturate(I, config=config)
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
