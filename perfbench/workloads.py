"""The four workloads: input pools, set-up, and the timed operation.

Every workload draws its inputs from a fixed pool of keyed items.  The pool
is what the reference digests in ``reference.json`` cover; the workload seed
only decides which pool items a run sees and in which order, so every seed
runs inputs whose outputs have a recorded digest.  Items carry a ``kind``;
a run's input cycle holds the kinds in fixed proportions (the stated input
mix) and opens with one item of every kind.

An operation is what a user of the matching ``symcanon`` subcommand gets:
parse the input JSON, call the public entry point the subcommand calls,
render the output files exactly as the subcommand writes them, and then run
the certificate check a user would run on that output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from symcanon import linalg, serialize
from symcanon.basechange import SquareSymmetricPair, make_koszul_type
from symcanon.canonical import associativity_check, multiplication_table, verify_instance
from symcanon.fields import DEFAULT_PRIME, QQ, DetRng, GF
from symcanon.koszul import RegularSequence, SkewWitness
from symcanon.normalform import reduce_k11, verify_normal_shape
from symcanon.paramgen import realize, sample
from symcanon.poly import PolyRing, graded_basis, poly_to_string
from symcanon.serialize import dumps
from symcanon.tableau import (
    OpMove,
    SymmetricTableau,
    apply_op_word,
    apply_symplectic,
    column_move_matrix,
)

FIELD = GF(DEFAULT_PRIME)
GOLDEN_SEEDS = (0, 1, 2, 3, 5, 7)
# Seeds over Q whose realized tableau verifies PASS (seed 1 fails the
# regularity precondition of ``realize``).
Q_SEEDS = (0, 2, 3, 4)
# Scrambles for ``normalform``: DetRng(WORD_SEED_BASE + 100 * g + c) draws a
# word of 5..30 random moves as acceptance criterion 08 does.  The pool keeps,
# for each golden seed g, three word seeds c whose scramble reduces with a
# full-length witness (at least 80 moves; the reference maker checks this).
# Op time grows with the witness length (every witness move rebuilds the
# tableau twice: once in reduce_k11, once in the replay check), and short
# witnesses occur at random, so a pool with mixed lengths would make the
# run-to-run spread of a 3-op run larger than any bound worth setting.
WORD_SEED_BASE = 20000
GENERIC_WORDS = {0: (17, 21, 23), 1: (1, 3, 7), 2: (9, 11, 13), 3: (10, 13, 14), 5: (3, 5, 6), 7: (12, 19, 30)}
MIN_WITNESS = 80


@dataclass(frozen=True)
class Item:
    """One generated input: ``text`` is the JSON the CLI would read."""

    key: str
    kind: str
    text: str
    op_seed: int = 0


@dataclass
class Outcome:
    """The rendered output files of one op and the certificate problems."""

    output: str
    problems: List[str]


# -- generators shared by set-up and the reference maker -------------------


def random_move(rng: DetRng, width: int, field) -> OpMove:
    """One random (Op) column move, drawn as acceptance criterion 08 does."""
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


def random_move_word(rng: DetRng, length: int, width: int, field) -> List[OpMove]:
    return [random_move(rng, width, field) for _ in range(length)]


def scramble_word(g: int, c: int) -> List[OpMove]:
    rng = DetRng(WORD_SEED_BASE + 100 * g + c)
    return random_move_word(rng, rng.randint(5, 30), 3, FIELD)


def scrambled(T: SymmetricTableau, word: List[OpMove]) -> SymmetricTableau:
    """``apply_op_word(T, word)`` computed as one symplectic column change:
    the word's scalar matrix is multiplied out first and the tableau is
    rebuilt once.  The reference maker checks the two agree on every item."""
    width = T.n + 1
    field = T.ring.field
    S = linalg.identity(2 * width, field)
    for mv in word:
        S = linalg.matmul(S, column_move_matrix(mv, width, T.ring), field)
    return apply_symplectic(T, S)


def k2_10_tableau(seed: int) -> SymmetricTableau:
    """A K2 = 10 (n = 1) tableau from small-integer linear forms and a
    random skew witness, built as the test fixture ``k2_10_fixture``."""
    ring = PolyRing(field=FIELD)
    rng = DetRng(seed)

    def small_int_linear():
        return ring.linear_form([FIELD.of_int(rng.randint(-3, 3)) for _ in range(5)])

    while True:
        forms = [small_int_linear() for _ in range(4)]
        try:
            RegularSequence.verify(forms)
            break
        except Exception:
            continue
    upper = [
        ring.from_terms({m: FIELD.of_int(rng.randint(-3, 3)) for m in graded_basis(ring, 2)})
        for _ in range(6)
    ]
    entries = [[ring.zero() for _ in range(4)] for _ in range(4)]
    it = iter(upper)
    for i in range(4):
        for j in range(i + 1, 4):
            entries[i][j] = next(it)
            entries[j][i] = -entries[i][j]
    W = SkewWitness(4, entries, 2).apply(forms)
    a1, a2, b1, b2 = forms
    return SymmetricTableau(ring, [[W[2], W[3]], [a1, a2]], [[-W[0], -W[1]], [b1, b2]])


def diagonal_pair(seed: int, n: int) -> SquareSymmetricPair:
    """Diagonal linear blocks scrambled by 8 moves (acceptance criterion 12)."""
    rng = DetRng(seed)
    ring = PolyRing(field=FIELD)

    def lin():
        return ring.linear_form([rng.scalar(FIELD) for _ in range(5)])

    alpha = [[lin() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    beta = [[lin() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    return SquareSymmetricPair(ring, alpha, beta).apply_word(random_move_word(rng, 8, n, FIELD))


def singular_pair(seed: int) -> SquareSymmetricPair:
    """det(alpha) = 0 with a grade-2 maximal-minor ideal (demo 04), so the
    base-change search has to move columns."""
    rng = DetRng(seed)
    ring = PolyRing(field=FIELD)

    def lin():
        return ring.linear_form([rng.scalar(FIELD) for _ in range(5)])

    l, m, b11, b12 = lin(), lin(), lin(), lin()
    c = rng.nonzero_scalar(FIELD)
    zero = ring.zero()
    return SquareSymmetricPair(ring, [[l, m], [zero, zero]], [[b11, b12], [m.scale(c), -(l.scale(c))]])


# -- workloads ---------------------------------------------------------------


class Workload:
    """A pool of keyed inputs, the seeded input cycle, and the op."""

    name: str

    def pool(self) -> Dict[str, str]:
        """Every pool key with its kind."""
        raise NotImplementedError

    def cycle(self, seed: int) -> List[str]:
        raise NotImplementedError

    def make(self, key: str) -> Item:
        raise NotImplementedError

    def op(self, item: Item) -> Outcome:
        raise NotImplementedError

    def cli(self, item: Item) -> Tuple[List[str], List[str]]:
        """The ``symcanon`` arguments that produce this op's output, with
        ``{in}`` for the input file, and the output files in digest order."""
        raise NotImplementedError


def _shuffled(rng: DetRng, items) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randint(0, i)
        out[i], out[j] = out[j], out[i]
    return out


class Verify(Workload):
    name = "verify"

    def pool(self):
        keys = {f"gf-{g}": "gf" for g in GOLDEN_SEEDS}
        keys.update({f"q-{s}": "q" for s in Q_SEEDS})
        return keys

    def cycle(self, seed):
        rng = DetRng(seed)
        gf = _shuffled(rng, [f"gf-{g}" for g in GOLDEN_SEEDS])
        q = _shuffled(rng, [f"q-{s}" for s in Q_SEEDS])[:2]
        # stated mix: one tableau over Q to three over GF(32003)
        return [q[0]] + gf[:3] + [q[1]] + gf[3:]

    def make(self, key):
        kind, seed = key.split("-")
        field = FIELD if kind == "gf" else QQ
        T = realize(sample(int(seed), field))
        return Item(key, kind, dumps(serialize.tableau_to_json(T)))

    def op(self, item):
        T = serialize.tableau_from_json(json.loads(item.text))
        report = verify_instance(T)
        out = serialize.render_report(report, "json")
        return Outcome(out, [] if report.overall else ["report is FAIL"])

    def cli(self, item):
        return ["verify", "{in}", "--report", "report.json"], ["report.json"]


class NormalForm(Workload):
    name = "normalform"
    CYCLE = 6

    def _spec(self, key) -> Tuple[int, int]:
        g, c = (int(part[1:]) for part in key.split("-"))
        return g, c

    def pool(self):
        return {f"g{g}-c{c}": "generic" for g, cs in GENERIC_WORDS.items() for c in cs}

    def cycle(self, seed):
        return _shuffled(DetRng(seed), list(self.pool()))[: self.CYCLE]

    def word(self, key) -> List[OpMove]:
        return scramble_word(*self._spec(key))

    def make(self, key):
        T = scrambled(realize(sample(self._spec(key)[0], FIELD)), self.word(key))
        return Item(key, "generic", dumps(serialize.tableau_to_json(T)))

    def op(self, item):
        T = serialize.tableau_from_json(json.loads(item.text))
        nf = reduce_k11(T)
        out = dumps(serialize.tableau_to_json(nf.tableau)) + dumps(
            serialize.moves_to_json(nf.witness_moves, T.ring.field)
        )
        problems = []
        if not verify_normal_shape(nf.tableau).ok:
            problems.append("output is not in normal shape")
        if apply_op_word(T, nf.witness_moves) != nf.tableau:
            problems.append("witness replay does not reproduce the normal form")
        return Outcome(out, problems)

    def cli(self, item):
        return (
            ["reduce", "{in}", "-o", "out.json", "--witness", "witness.json"],
            ["out.json", "witness.json"],
        )


def multiply_json(table) -> str:
    """The table in the layout ``symcanon multiply`` writes."""
    return dumps(
        {
            "columns": list(table.columns),
            "denominator": poly_to_string(table.denominator),
            "numerators": [poly_to_string(N) for N in table.numerators],
            "entries": {
                f"{i},{j}": {"c0": poly_to_string(c0), "c": [poly_to_string(c) for c in cs]}
                for (i, j), (c0, cs) in sorted(table.entries.items())
            },
        }
    )


class Multiply(Workload):
    name = "multiply"

    def pool(self):
        return {f"gf-{g}": "gf" for g in GOLDEN_SEEDS}

    def cycle(self, seed):
        return _shuffled(DetRng(seed), [f"gf-{g}" for g in GOLDEN_SEEDS])

    def make(self, key):
        T = realize(sample(int(key.split("-")[1]), FIELD))
        return Item(key, "gf", dumps(serialize.tableau_to_json(T)))

    def op(self, item):
        T = serialize.tableau_from_json(json.loads(item.text))
        table = multiplication_table(T)
        out = multiply_json(table)
        n = table.n
        problems = []
        for k in range(1, n + 1):
            c0, cs = table.expansion(0, k)
            unit = c0.is_zero() and all(
                (str(c) == "1") if l == k else c.is_zero() for l, c in enumerate(cs, start=1)
            )
            if not unit:
                problems.append(f"1 * v_{k} does not expand to v_{k}")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if table.expansion(i, j) != table.expansion(j, i):
                    problems.append(f"v_{i} v_{j} != v_{j} v_{i}")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if not associativity_check(table, i, j, k):
                        problems.append(f"associativity fails at {(i, j, k)}")
        return Outcome(out, problems)

    def cli(self, item):
        return ["multiply", "{in}", "-o", "table.json"], ["table.json"]


class KoszulType(Workload):
    name = "koszul-type"
    PAIR_POOL = {"pair2": 8, "pair3": 18, "singular": 8}
    # Size-3 pairs are about three quarters of the mix, so the median op
    # lies well inside their cluster of latencies (1.7-2.3 s), not at its
    # lower edge next to the 0.2-second size-2 ops, where one sample more
    # or less of either kind moves it.
    BLOCK = ("pair2", "singular") + ("pair3",) * 8
    BLOCKS = 2

    def pool(self):
        keys = {"k10-4": "tableau10"}
        for kind, count in self.PAIR_POOL.items():
            keys.update({f"{kind}-{v}": kind for v in range(count)})
        return keys

    def cycle(self, seed):
        rng = DetRng(seed)
        drawn = {
            kind: _shuffled(rng, [f"{kind}-{v}" for v in range(count)])
            for kind, count in self.PAIR_POOL.items()
        }
        # stated mix: one K2 = 10 tableau, then blocks of one size-2 pair,
        # one singular pair and eight size-3 pairs
        return ["k10-4"] + [drawn[kind].pop() for _ in range(self.BLOCKS) for kind in self.BLOCK]

    def make(self, key):
        kind, v = key.split("-")
        v = int(v)
        if kind == "k10":
            return Item(key, "tableau10", dumps(serialize.tableau_to_json(k2_10_tableau(v))), v)
        if kind == "singular":
            pair = singular_pair(700 + v)
            return Item(key, "singular", dumps(serialize.pair_to_json(pair)), v)
        n = int(kind[-1])
        pair = diagonal_pair(500 + 10 * v + n, n)
        return Item(key, kind, dumps(serialize.pair_to_json(pair)), v)

    def _parse(self, text):
        data = json.loads(text)
        return serialize.tableau_from_json(data) if "n" in data else serialize.pair_from_json(data)

    def op(self, item):
        inp = self._parse(item.text)
        field = inp.ring.field
        cert = make_koszul_type(inp, seed=item.op_seed)
        result = cert.result
        if isinstance(result, SquareSymmetricPair):
            out = dumps(serialize.pair_to_json(result))
        else:
            out = dumps(serialize.tableau_to_json(result))
        out += dumps(serialize.cert_to_json(cert, field))
        problems = []
        if not cert.verified:
            problems.append("certificate witnesses are not both true")
        if not cert.reverify(self._parse(item.text)):
            problems.append("certificate does not re-verify from the original input")
        return Outcome(out, problems)

    def cli(self, item):
        return (
            ["koszul-type", "{in}", "-o", "out.json", "--cert", "cert.json", "--seed", str(item.op_seed)],
            ["out.json", "cert.json"],
        )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Verify(), NormalForm(), Multiply(), KoszulType())}
