"""Command line front end.

Exit codes: 0 success/pass, 1 verification failure, 2 contract or parse
error, 3 budget exhaustion.  ``-`` means standard input/output.  The two
settings, field and seed, come from options, which win over environment
variables (SYMCANON_FIELD, SYMCANON_SEED), which win over the config file
(./symcanon.json or $SYMCANON_CONFIG).  Another key in the config file is
refused (exit 2).  The budgets are fixed: Groebner pair degree
``ideals.DEGREE_BUDGET``, ``ideals.PAIR_BUDGET`` pairs and
``basechange.TRIAL_BUDGET`` base-change trials; the removed
SYMCANON_DEGREE_BUDGET and SYMCANON_PAIR_BUDGET are refused too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import serialize
from .basechange import make_koszul_type
from .canonical import (
    build_resolution,
    generic_reflexivity_check,
    invariants,
    multiplication_table,
    verify_instance,
)
from .errors import BudgetExceededError, ContractError, SymcanonError
from .fields import DEFAULT_PRIME, FieldSpec, GF, parse_field
from .normalform import reduce_k11
from .paramgen import ledger, realize, sample
from .poly import poly_to_string
from .serialize import dumps
from .tableau import fitting_ideal

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONTRACT = 2
EXIT_BUDGET = 3


@dataclass
class Config:
    field: FieldSpec
    seed: int


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # also an integer literal past the int/str conversion limit
        raise ContractError(f"unreadable JSON: {exc}") from None


SETTINGS = ("field", "seed")
REMOVED_ENV = ("SYMCANON_DEGREE_BUDGET", "SYMCANON_PAIR_BUDGET")


def _load_config_file() -> dict:
    path = os.environ.get("SYMCANON_CONFIG", "symcanon.json")
    data = _read_json(path) if os.path.exists(path) else {}
    if not isinstance(data, dict):
        raise ContractError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(SETTINGS))
    if unknown:
        raise ContractError(f"config file {path}: unknown setting {unknown[0]!r} (settings: {', '.join(SETTINGS)})")
    return data


def resolve_config(args: argparse.Namespace) -> Config:
    for name in REMOVED_ENV:
        if name in os.environ:
            raise ContractError(f"{name} was removed: the Groebner budgets are fixed")
    file_cfg = _load_config_file()

    def pick(flag_value, key: str, default):
        if flag_value is not None:
            return flag_value
        env_name = "SYMCANON_" + key.upper()
        if env_name in os.environ:
            return os.environ[env_name]
        if key in file_cfg:
            return file_cfg[key]
        return default

    def integer(flag_value, key: str, default: int) -> int:
        value = pick(flag_value, key, default)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            try:
                return int(value)
            except ValueError:
                pass
        raise ContractError(f"setting {key} must be an integer, got {value!r}")

    field_text = pick(getattr(args, "field", None), "field", f"p:{DEFAULT_PRIME}")
    field = field_text if isinstance(field_text, FieldSpec) else parse_field(str(field_text))
    if field.characteristic == 2:
        raise ContractError("characteristic 2 is refused (2 must be invertible)")
    return Config(
        field=field,
        seed=integer(getattr(args, "seed", None), "seed", 0),
    )


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    cfg = resolve_config(args)
    if args.k2 != 11:
        raise ContractError("generation is only available for K2 = 11 (no normal form otherwise)")
    point = sample(cfg.seed, cfg.field)
    T = realize(point)
    _write_text(args.output, dumps(serialize.tableau_to_json(T)))
    if args.params:
        _write_text(args.params, dumps(serialize.parameter_point_to_json(point)))
    return EXIT_PASS


def _cmd_verify(args) -> int:
    resolve_config(args)  # validates the configuration; verification uses none of it
    T = serialize.tableau_from_json(_read_json(args.input))
    report = verify_instance(T)
    if args.report:
        _write_text(args.report, serialize.render_report(report, "json"))
    _write_text(None, serialize.render_report(report, args.format))
    return EXIT_PASS if report.overall else EXIT_FAIL


def _cmd_reduce(args) -> int:
    resolve_config(args)  # validates the configuration; the reduction uses none of it
    if args.k2 != 11:
        raise ContractError("reduction to normal form exists only for K2 = 11")
    T = serialize.tableau_from_json(_read_json(args.input))
    nf = reduce_k11(T)
    _write_text(args.output, dumps(serialize.tableau_to_json(nf.tableau)))
    if args.witness:
        _write_text(args.witness, dumps(serialize.moves_to_json(nf.witness_moves, T.ring.field)))
    return EXIT_PASS


def _cmd_koszul_type(args) -> int:
    cfg = resolve_config(args)
    data = _read_json(args.input)
    is_tableau = isinstance(data, dict) and "n" in data
    inp = serialize.tableau_from_json(data) if is_tableau else serialize.pair_from_json(data)
    cert = make_koszul_type(inp, seed=cfg.seed)
    result = cert.result
    if hasattr(result, "n"):
        _write_text(args.output, dumps(serialize.tableau_to_json(result)))
    else:
        _write_text(args.output, dumps(serialize.pair_to_json(result)))
    if args.cert:
        _write_text(args.cert, dumps(serialize.cert_to_json(cert, inp.ring.field)))
    return EXIT_PASS


def _cmd_fitting(args) -> int:
    resolve_config(args)  # validates the configuration; the ideal uses none of it
    T = serialize.tableau_from_json(_read_json(args.input))
    k = args.size if args.size is not None else (T.n if args.erased else T.n + 1)
    ideal = fitting_ideal(T.minors(), k, rows=range(1, T.n + 1) if args.erased else None)
    text = dumps(serialize.ideal_to_json(ideal, reduced=args.reduced))
    _write_text(args.output, text)
    return EXIT_PASS


def _cmd_invariants(args) -> int:
    resolve_config(args)  # validates the configuration; the invariants use none of it
    T = serialize.tableau_from_json(_read_json(args.input))
    inv = invariants(build_resolution(T))
    _write_text(args.output, dumps(inv.to_json()))
    return EXIT_PASS


def _cmd_multiply(args) -> int:
    resolve_config(args)  # validates the configuration; the table uses none of it
    T = serialize.tableau_from_json(_read_json(args.input))
    table = multiplication_table(T)
    out = {
        "columns": list(table.columns),
        "denominator": poly_to_string(table.denominator),
        "numerators": [poly_to_string(N) for N in table.numerators],
        "entries": {
            f"{i},{j}": {
                "c0": poly_to_string(c0),
                "c": [poly_to_string(c) for c in cs],
            }
            for (i, j), (c0, cs) in sorted(table.entries.items())
        },
    }
    _write_text(args.output, dumps(out))
    return EXIT_PASS


def _cmd_ledger(args) -> int:
    cfg = resolve_config(args)
    led = ledger(cfg.seed, cfg.field)
    _write_text(args.output, dumps(led.to_json()))
    return EXIT_PASS if led.result == 38 else EXIT_FAIL


def _cmd_check_generic(args) -> int:
    cfg = resolve_config(args)
    if not cfg.field.characteristic:
        raise ContractError("the generic exactness check runs over a prime field, not Q")
    ok = generic_reflexivity_check(p=cfg.field.characteristic, degree_bound=args.degree)
    _write_text(None, dumps({"exact_through_degree": args.degree, "passed": ok}))
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcanon",
        description="Symmetric presentation tableaux of codimension-2 Gorenstein algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", help="q for rationals, p:<prime> for GF(p)")
        p.add_argument("--seed", type=int, default=None)

    g = sub.add_parser("generate", help="sample a parameter point and realize a K2=11 tableau")
    common(g)
    g.add_argument("--k2", type=int, default=11)
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--params", help="also write the parameter point")
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("verify", help="run the full verification battery")
    common(v)
    v.add_argument("input")
    v.add_argument("--report", help="write the JSON report here")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("reduce", help="reduce a K2=11 tableau to normal form")
    common(r)
    r.add_argument("--k2", type=int, default=11)
    r.add_argument("input")
    r.add_argument("-o", "--output", default="-")
    r.add_argument("--witness", help="write the move word here")
    r.set_defaults(func=_cmd_reduce)

    k = sub.add_parser("koszul-type", help="base changes making det(alpha), det(beta) regular")
    common(k)
    k.add_argument("input")
    k.add_argument("-o", "--output", default="-")
    k.add_argument("--cert", help="write the certificate here")
    k.set_defaults(func=_cmd_koszul_type)

    f = sub.add_parser("fitting", help="Fitting ideal of the tableau or of A'")
    common(f)
    f.add_argument("input")
    f.add_argument("-k", "--size", type=int, default=None)
    f.add_argument("--erased", action="store_true", help="use A' (first row erased)")
    f.add_argument("--reduced", action="store_true", help="emit the reduced Groebner basis")
    f.add_argument("-o", "--output", default="-")
    f.set_defaults(func=_cmd_fitting)

    i = sub.add_parser("invariants", help="surface invariants from the resolution")
    common(i)
    i.add_argument("input")
    i.add_argument("-o", "--output", default="-")
    i.set_defaults(func=_cmd_invariants)

    m = sub.add_parser("multiply", help="Cramer multiplication table of the cokernel algebra")
    common(m)
    m.add_argument("input")
    m.add_argument("-o", "--output", default="-")
    m.set_defaults(func=_cmd_multiply)

    l = sub.add_parser("ledger", help="the 161 -> 38 moduli dimension ledger")
    common(l)
    l.add_argument("-o", "--output", default="-")
    l.set_defaults(func=_cmd_ledger)

    c = sub.add_parser("check-generic", help="graded middle exactness of the generic complex")
    common(c)
    c.add_argument("--degree", type=int, default=3)
    c.set_defaults(func=_cmd_check_generic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SymcanonError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
