from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from symcanon import linalg, univariate
from symcanon.errors import BudgetExceededError, ContractError, RingMismatchError
from symcanon.fields import DEFAULT_PRIME, DetRng, GF, QQ
from symcanon.ideals import (
    Ideal,
    _multiplication_operator,
    _normal_form_terms,
    _numerator_at_one,
    _Packing,
    _standard_monomials,
    _zero_dim_saturated,
    dimension,
    groebner_basis,
    hilbert_function,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    same_hilbert_polynomial,
    saturate,
)
from symcanon.koszul import RegularSequence, solve_skew
from symcanon.orders import GREVLEX, monomial_divides
from symcanon.paramgen import realize, sample
from symcanon.poly import PolyRing, Polynomial, graded_basis, graded_piece
from symcanon.tableau import OpMove, SymmetricTableau, fitting_ideal

GOLDEN_SEEDS = (0, 1, 2, 3, 5, 7)
# seeds whose tableau over Q verifies PASS (seed 1 fails the regularity
# precondition of realize); with GOLDEN_SEEDS, the verify benchmark's pool
Q_SEEDS = (0, 2, 3, 4)


@pytest.fixture(scope="session")
def Fp():
    return GF(DEFAULT_PRIME)


@pytest.fixture(scope="session")
def Rp(Fp):
    return PolyRing(field=Fp)


@pytest.fixture(scope="session")
def Rq():
    return PolyRing(field=QQ)


@pytest.fixture(scope="session")
def golden_tableau(Fp):
    return realize(sample(GOLDEN_SEEDS[0], Fp))


@pytest.fixture(scope="session")
def golden_tableaux(Fp):
    return [realize(sample(s, Fp)) for s in GOLDEN_SEEDS]


def random_linear(ring, rng):
    return ring.linear_form([rng.scalar(ring.field) for _ in range(ring.nvars)])


def random_homogeneous(ring, rng, degree):
    return ring.from_terms({m: rng.scalar(ring.field) for m in graded_basis(ring, degree)})


def random_move(rng, width, field):
    kind = rng.randint(0, 4)
    mu = rng.randint(0, width - 1)
    nu = rng.randint(0, width - 1)
    lam = rng.scalar(field)
    if kind == 0:
        return OpMove("add_col_same", lam, mu)
    if kind == 1:
        return OpMove("add_col_pair", lam, mu, nu)
    if kind == 2 and mu != nu:
        return OpMove("transfer", lam, mu, nu)
    if kind == 3 and mu != nu:
        return OpMove("swap", None, mu, nu)
    return OpMove("rotate", None, mu)


def random_move_word(rng, length, width, field):
    return [random_move(rng, width, field) for _ in range(length)]


def column_move_oracle(move, width, field):
    """The matrix M of a column move (A -> A*M), entry by entry as ``OpMove``
    defines it; the earlier body of ``tableau.column_move_matrix``."""
    k, mu, nu, lam = move.kind, move.mu, move.nu, move.lam
    m = linalg.identity(2 * width, field)
    if k == "swap":
        for base in (0, width):
            m[base + mu][base + mu] = field.zero()
            m[base + nu][base + nu] = field.zero()
            m[base + mu][base + nu] = field.one()
            m[base + nu][base + mu] = field.one()
    elif k == "rotate":
        m[mu][mu] = field.zero()
        m[width + mu][width + mu] = field.zero()
        m[width + mu][mu] = field.one()
        m[mu][width + mu] = field.neg(field.one())
    elif k == "add_col_same":
        m[width + mu][mu] = lam
    elif k == "add_col_pair":
        m[width + nu][mu] = field.add(m[width + nu][mu], lam)
        m[width + mu][nu] = field.add(m[width + mu][nu], lam)
    else:  # transfer
        m[nu][mu] = lam
        m[width + mu][width + nu] = field.neg(lam)
    return m


def oracle_word_matrix(moves, width, field):
    """Product of the oracle matrices of a word, in application order."""
    total = linalg.identity(2 * width, field)
    for mv in moves:
        total = linalg.matmul(total, column_move_oracle(mv, width, field), field)
    return total


def k2_10_fixture(field, seed=4):
    """A valid K2 = 10 (n = 1) tableau: independent linear forms plus a
    random skew witness supply the first-row cubics.

    Coefficients are small integers drawn before field reduction, so the
    same seed yields literally the same data over Q and over GF(p).
    """
    ring = PolyRing(field=field)
    rng = DetRng(seed)

    def small_int_linear():
        return ring.linear_form([field.of_int(rng.randint(-3, 3)) for _ in range(5)])

    def small_int_quadric():
        return ring.from_terms(
            {m: field.of_int(rng.randint(-3, 3)) for m in graded_basis(ring, 2)}
        )

    while True:
        forms = [small_int_linear() for _ in range(4)]
        try:
            seq = RegularSequence.verify(forms)
            break
        except Exception:
            continue
    upper = [small_int_quadric() for _ in range(6)]
    from symcanon.koszul import _skew_from_upper

    S = _skew_from_upper(ring, 4, upper)
    W = S.apply(forms)  # (-B1, -B2, A1, A2)
    a1, a2, b1, b2 = forms
    B1, B2, A1, A2 = -W[0], -W[1], W[2], W[3]
    alpha = [[A1, A2], [a1, a2]]
    beta = [[B1, B2], [b1, b2]]
    return SymmetricTableau(ring, alpha, beta)


# -- earlier builders, kept as oracles -------------------------------------------


def coeff_matrix(polys, d, ring=None):
    """Rows indexed by the polynomials, columns by graded_basis(d); inputs
    homogeneous of degree d (zero allowed).  The earlier list builder."""
    polys = list(polys)
    if ring is None:
        if not polys:
            raise ContractError("need a ring or at least one polynomial")
        ring = polys[0].ring
    basis = graded_basis(ring, d)
    col = {m: j for j, m in enumerate(basis)}
    rows = []
    for f in polys:
        if f.ring != ring:
            raise RingMismatchError("coeff_matrix inputs must share one ring")
        if not f.is_zero() and f.homogeneous_degree() != d:
            raise ContractError(f"input not homogeneous of degree {d}: {f}")
        row = [ring.field.zero()] * len(basis)
        for m, c in f.terms.items():
            row[col[m]] = c
        rows.append(row)
    return rows, basis


def cramer_system(table):
    """The Cramer system of a multiplication table in degree 2n + 4: the
    rows of its unknowns (c0 against D^2, then each c_k against N_k D),
    every row of the piece of I_{n+1}(A), and the right-hand sides N_i N_j
    for 1 <= i <= j <= n, in the table's order."""
    ring, n, N = table.denominator.ring, table.n, table.numerators
    d = 2 * n + 4
    rows = np.vstack(
        [graded_piece([N[0] * N[0]], d, ring, 4), graded_piece([N[0] * N[k] for k in range(1, n + 1)], d, ring, 2)]
    )
    rhss = graded_piece([N[i] * N[j] for i in range(1, n + 1) for j in range(i, n + 1)], d, ring, 0)
    return rows, graded_piece(table.surface_ideal.generators, d, ring), rhss


def cramer_solve(rows, ideal_rows, rhss, field):
    """One elimination of [rows | ideal rows | right-hand sides]: each
    solution cut to its first len(rows) entries, and the index of the
    first inconsistent right-hand side.  Given every row of the piece it
    is the earlier Cramer solve, the oracle of the one on the piece's
    independent rows."""
    sols, bad = linalg.solve_columns(np.vstack([rows, ideal_rows]).T, rhss, field)
    return [x[: len(rows)] for x in sols], bad


def skew_system(v, entry_degree):
    """The earlier coefficient matrix of (S, v) -> S*v on skew matrices with
    entries of the given degree, built from polynomial products.  Columns
    are (pair index, source monomial); rows are (component, target
    monomial)."""
    ring = v[0].ring
    field = ring.field
    m = len(v)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    src = graded_basis(ring, entry_degree)
    tgt = graded_basis(ring, entry_degree + 1)
    tgt_pos = {mono: t for t, mono in enumerate(tgt)}
    ncols = len(pairs) * len(src)
    rows = [[field.zero()] * ncols for _ in range(m * len(tgt))]
    for p, (i, j) in enumerate(pairs):
        for s, mono in enumerate(src):
            col = p * len(src) + s
            base = ring.monomial(mono)
            # S_ij contributes +x^mono * v_j to component i and -x^mono * v_i to j
            for comp, sign_form in ((i, base * v[j]), (j, -(base * v[i]))):
                for mm, cc in sign_form.terms.items():
                    r = comp * len(tgt) + tgt_pos[mm]
                    rows[r][col] = field.add(rows[r][col], cc)
    return rows, pairs, src


def row_coefficients(row, ring):
    """The earlier coefficient rows of linear forms, one per form, columns
    by variable."""
    return [
        [f.coefficient(tuple(int(k == i) for k in range(ring.nvars))) for i in range(ring.nvars)]
        for f in row
    ]


def seed_add(f, g):
    """The earlier ``Polynomial.__add__``: field methods per term; a term
    whose sum cancels is deleted, and appended again if it comes back."""
    field = f.ring.field
    out = dict(f.terms)
    for m, c in g.terms.items():
        s = field.add(out.get(m, field.zero()), c)
        if field.is_zero(s):
            out.pop(m, None)
        else:
            out[m] = s
    return Polynomial(f.ring, out)


def seed_product(f, g):
    """The earlier ``Polynomial.__mul__`` loop: an exponent tuple and field
    method calls per pair of terms, each pair summed as ``seed_add`` does."""
    field = f.ring.field
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = field.add(out.get(m, field.zero()), field.mul(c1, c2))
            if field.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
    return Polynomial(f.ring, out)


def seed_dot(us, vs, ring):
    """sum_k us[k] * vs[k] from zero, one earlier product and sum at a time."""
    total = ring.zero()
    for f, g in zip(us, vs):
        total = seed_add(total, seed_product(f, g))
    return total


def seed_restrict_to_line(f, line):
    """The earlier ``poly.restrict_to_line``: one univariate product by a
    linear factor per unit of each exponent of each term, by field methods."""
    field = f.ring.field
    out = [field.zero()] * (f.degree() + 1)
    linear = [[field.of_int(a), field.of_int(b)] for a, b in zip(*line)]
    for exp, c in f.terms.items():
        term = [c]
        for lin, e in zip(linear, exp):
            for _ in range(e):
                term = univariate.mul(term, lin, field)
        for k, a in enumerate(term):
            out[k] = field.add(out[k], a)
    return out


def matmul_poly(a, b, ring):
    """The earlier polynomial-matrix product."""
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


def groebner_standard_monomials(I, m):
    """The earlier standard monomials of degree m: those no leading monomial
    of I's grevlex basis, truncated at degree m, divides."""
    lms = [g.leading_monomial(GREVLEX) for g in groebner_basis(I, GREVLEX, cap=m)]
    return [mono for mono in graded_basis(I.ring, m) if not any(monomial_divides(l, mono) for l in lms)]


def groebner_multiplication_operator(sat, form, source, target):
    """The earlier matrix of x^m -> NF(x^m * form), rows the target basis,
    columns the source basis: one division by the packed truncated grevlex
    basis per source monomial."""
    ring = sat.ring
    pk = _Packing(ring, GREVLEX)
    reducers = pk.reducers(sat, sum(source[0]) + form.degree())
    row = {pk.monomial(m): i for i, m in enumerate(target)}
    form_terms = pk.terms(form)
    out = [[ring.field.zero()] * len(source) for _ in target]
    for j, mono in enumerate(source):
        X = pk.monomial(mono)
        for Y, c in _normal_form_terms([(X + Z, c) for Z, c in form_terms], reducers, pk.p, pk.guard):
            out[row[Y]][j] = c
    return out


def seeded_zero_dim(I):
    """The earlier point analysis of a projective 0-dimensional I, as
    (reduced, points, length): up to five seeded draws of forms (h, u),
    the minimal polynomial g of M_h^-1 M_u and its squarefree part.  A
    squarefree g of degree e certifies e reduced points; a g that is not
    squarefree certifies a nonreduced scheme, with the best squarefree
    degree of the draws as the count; degenerate draws throughout raise
    BudgetExceededError.  Assumes the preconditions the library checks."""
    sat = saturate(I)
    field = sat.ring.field
    _, e = _numerator_at_one(sat)
    m = 0
    while hilbert_function(sat, m) != e:
        m += 1
    source, target = _standard_monomials(sat, m), _standard_monomials(sat, m + 1)
    best, saw_non_squarefree = 0, False
    for attempt in range(5):
        rng = DetRng(0xE11 + attempt)
        Mh = None
        for _ in range(5):
            h = random_linear(sat.ring, rng)
            Mh = _multiplication_operator(sat, h, source, target)
            if linalg.rank(Mh, field) == e:
                break
            Mh = None
        if Mh is None:
            continue
        Mu = _multiplication_operator(sat, random_linear(sat.ring, rng), source, target)
        g = _minimal_polynomial(linalg.matmul(linalg.inverse(Mh, field), Mu, field), field)
        sqf = _squarefree_part(g, field)
        if univariate.degree(sqf) < univariate.degree(g):
            saw_non_squarefree = True
            best = max(best, univariate.degree(sqf))
        elif univariate.degree(g) == e:
            return True, e, e
        else:
            best = max(best, univariate.degree(g))
    if saw_non_squarefree:
        return False, best, e
    raise BudgetExceededError("degenerate eliminants in all seeded attempts")


def _groebner_scheme(T):
    """The earlier degeneracy scheme by saturation: the verdict (finite,
    reduced, points, length) and the saturated ideal."""
    sat = saturate(fitting_ideal(T.minors(), T.n, rows=range(1, T.n + 1)))
    if not sat.generators:
        return (False, None, None, None), sat
    if sat.contains_one():
        return (True, None, 0, 0), sat
    if dimension(sat) > 1:
        return (False, None, None, None), sat
    algebra = _zero_dim_saturated(sat)
    return (True, algebra.reduced, algebra.points, algebra.length), sat


def groebner_degeneracy_scheme(T):
    """The oracle for ``tableau.degeneracy_scheme``: (finite, reduced,
    points, length) from the saturation, with no regularity certificate."""
    return _groebner_scheme(T)[0]


def groebner_ring_condition(T):
    """The earlier ring condition: (status, reason, saturated_equal,
    unsaturated_equal), the saturated equality decided by Hilbert
    polynomials.  The oracle for ``canonical.ring_condition_check``."""
    (finite, reduced, _, _), sat_aprime = _groebner_scheme(T)
    if not finite:
        return "skipped", "degeneracy scheme not finite", None, None
    if not reduced:
        return "skipped", "degeneracy scheme not reduced", None, None
    n = T.n
    I_a = fitting_ideal(T.minors(), n)
    unsat_eq = ideal_equal(I_a, fitting_ideal(T.minors(), n, rows=range(1, n + 1))) if n == 2 else None
    sat_eq = unsat_eq or same_hilbert_polynomial(I_a, sat_aprime)
    ok = sat_eq and (unsat_eq is not False)
    return "pass" if ok else "fail", None, sat_eq, unsat_eq


def _minimal_polynomial(theta, field):
    # the first power theta^k in the span of the lower ones gives
    # T^k - sum c_i T^i, ascending coefficients
    e = len(theta)
    vecs, power = [], linalg.identity(e, field)
    for _ in range(e + 1):
        v = [x for row in power for x in row]
        if vecs:
            coeffs = linalg.solve_particular(linalg.transpose(vecs), v, field)
            if coeffs is not None:
                return univariate.trim([field.neg(c) for c in coeffs] + [field.one()], field)
        vecs.append(v)
        power = linalg.matmul(power, theta, field)
    raise AssertionError("operator has no minimal polynomial of degree <= dim")


def _squarefree_part(f, field):
    f = univariate.monic(f, field)
    if univariate.degree(f) <= 0:
        return f
    df = univariate.trim([field.mul(field.of_int(i), c) for i, c in enumerate(f)][1:], field)
    return univariate.divmod_poly(f, univariate.gcd(f, df, field), field)[0]


def matrix_minor(rows, row_idx, col_idx, ring, _memo=None):
    """The earlier cofactor recursion along the first selected row, memoized
    on the (row, column) index pair."""
    if _memo is None:
        _memo = {}
    key = (row_idx, col_idx)
    if key in _memo:
        return _memo[key]
    k = len(row_idx)
    if k == 0:
        return ring.one()
    if k == 1:
        result = rows[row_idx[0]][col_idx[0]]
    else:
        result = ring.zero()
        r0 = row_idx[0]
        rest_rows = row_idx[1:]
        for pos, c in enumerate(col_idx):
            entry = rows[r0][c]
            if entry.is_zero():
                continue
            sub = matrix_minor(rows, rest_rows, col_idx[:pos] + col_idx[pos + 1 :], ring, _memo)
            term = entry * sub
            result = result + term if pos % 2 == 0 else result - term
    _memo[key] = result
    return result


def adjugate(M, ring):
    """The earlier adjugate of a square polynomial matrix, by cofactors."""
    k = len(M)
    memo = {}
    adj = [[ring.zero()] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            rows_sel = tuple(r for r in range(k) if r != j)
            cols_sel = tuple(c for c in range(k) if c != i)
            cof = matrix_minor(M, rows_sel, cols_sel, ring, memo)
            adj[i][j] = cof if (i + j) % 2 == 0 else -cof
    return adj


def irrelevant_ideal(ring):
    return Ideal(ring, ring.gens())


def ideal_quotient_by_ideal(I, J):
    """The earlier (I : J): the intersection of the quotients by J's
    generators."""
    if not J.generators:
        raise ContractError("quotient by the zero ideal")
    result = ideal_quotient(I, J.generators[0])
    for g in J.generators[1:]:
        result = ideal_intersection(result, ideal_quotient(I, g))
    return result


def iterated_saturation(I, J=None):
    """The earlier (I : J^infty), J the irrelevant ideal by default: the
    iterated quotient, stopped when it stabilizes.  The oracle for
    ``ideals.saturate``."""
    J = irrelevant_ideal(I.ring) if J is None else J
    current = I
    while True:
        nxt = ideal_quotient_by_ideal(current, J)
        if ideal_equal(nxt, current):
            return current
        current = nxt


def special_directions_by_interpolation(pencil_matrix, field):
    """The earlier direction search: each 5x5 minor of the pencil C1 + t C2,
    a quintic in t, Lagrange-interpolated from its values at t = 0..5; the
    roots of their gcd, and [0:1] by a rank test.  Characteristic 0 or >= 7."""
    points = [field.of_int(i) for i in range(6)]
    g = []
    for rows_sel in combinations(range(6), 5):
        values = [linalg.det([pencil_matrix(field.one(), t)[r] for r in rows_sel], field) for t in points]
        quintic = []
        for i, (xi, yi) in enumerate(zip(points, values)):
            basis, denom = [field.one()], field.one()
            for j, xj in enumerate(points):
                if j != i:
                    basis = univariate.mul(basis, [field.neg(xj), field.one()], field)
                    denom = field.mul(denom, field.sub(xi, xj))
            quintic = univariate.add(quintic, univariate.scale(basis, field.div(yi, denom), field), field)
        g = univariate.gcd(g, quintic, field) if g else univariate.trim(quintic, field)
    if not g:
        raise ContractError("row pencil degenerates identically; not a valid instance")
    roots = [(field.one(), t) for t in univariate.roots(g, field)] if univariate.degree(g) >= 1 else []
    if linalg.rank(pencil_matrix(field.zero(), field.one()), field) <= 4:
        roots.append((field.zero(), field.one()))
    # [0:1] first, then [1:t] by ascending t
    return sorted(roots, key=lambda d: (not field.is_zero(d[0]), Fraction(d[1])))
