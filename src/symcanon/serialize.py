"""JSON (de)serialization for every value that crosses the process boundary.

Writers emit canonical polynomial strings and sorted keys, so identical
inputs produce byte-identical files.  Readers validate structural
invariants and report the first violation with its matrix coordinates.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List

from .basechange import BaseChangeCert, SquareSymmetricPair
from .canonical import VerificationReport
from .errors import ContractError
from .fields import FieldSpec, Scalar
from .ideals import Ideal, groebner_basis
from .koszul import SkewWitness
from .orders import GREVLEX
from .paramgen import (
    BASE_LINEAR,
    L_FREE_KEYS,
    M_KEYS,
    QUADRIC_NAMES,
    S_KEYS,
    ParameterPoint,
)
from .poly import PolyRing, parse_poly, poly_to_string
from .tableau import OpMove, SymmetricTableau, rows_move

THM15_SHIFTS = "thm-1.5"


def scalar_to_json(c: Scalar, field: FieldSpec):
    if field.kind == "prime_field":
        return int(c)
    return str(Fraction(c))


def scalar_from_json(data, field: FieldSpec) -> Scalar:
    if field.kind == "prime_field":
        return int(data) % field.p
    return Fraction(str(data))


def ring_to_json(ring: PolyRing) -> dict:
    return {"variables": list(ring.variables), "field": ring.field.to_json()}


def ring_from_json(data: dict) -> PolyRing:
    return PolyRing(tuple(data["variables"]), FieldSpec.from_json(data["field"]))


def tableau_to_json(T: SymmetricTableau) -> dict:
    return {
        "ring": ring_to_json(T.ring),
        "n": T.n,
        "alpha": [[poly_to_string(e) for e in row] for row in T.alpha],
        "beta": [[poly_to_string(e) for e in row] for row in T.beta],
    }


def tableau_from_json(data: dict) -> SymmetricTableau:
    ring = ring_from_json(data["ring"])
    n = data["n"]
    if "shifts" in data:
        # general twist layouts are parsed but only the specialization with
        # row degrees (3; 1..1) is processed
        expected = [[0] + [2] * n, [3] * (2 * n + 2), [6] + [4] * n]
        if data["shifts"] not in (THM15_SHIFTS, expected):
            raise ContractError(
                "only the standard degree layout (first row cubic, rest linear) is "
                f"processed; got shift data {data['shifts']!r}"
            )

    def parse_block(name: str):
        block = data[name]
        if len(block) != n + 1 or any(len(row) != n + 1 for row in block):
            raise ContractError(f"{name} block must be {n + 1} x {n + 1}")
        out = []
        for i, row in enumerate(block):
            out_row = []
            for j, text in enumerate(row):
                try:
                    out_row.append(parse_poly(text, ring))
                except ContractError as exc:
                    raise ContractError(f"{name}[{i + 1}][{j + 1}]: {exc}") from exc
            out.append(out_row)
        return out

    return SymmetricTableau(ring, parse_block("alpha"), parse_block("beta"))


def ideal_to_json(I: Ideal, reduced: bool = False) -> dict:
    if reduced:
        gens = sorted(
            groebner_basis(I),
            key=lambda g: GREVLEX.key(g.leading_monomial(GREVLEX)),
            reverse=True,
        )
    else:
        gens = list(I.generators)
    return {
        "ring": ring_to_json(I.ring),
        "generators": [poly_to_string(g) for g in gens],
    }


def ideal_from_json(data: dict) -> Ideal:
    ring = ring_from_json(data["ring"])
    return Ideal(ring, [parse_poly(t, ring) for t in data["generators"]])


def move_to_json(move: OpMove, field: FieldSpec) -> dict:
    out: Dict[str, Any] = {"kind": move.kind}
    if move.lam is not None:
        out["lam"] = scalar_to_json(move.lam, field)
    if move.mu is not None:
        out["mu"] = move.mu
    if move.nu is not None:
        out["nu"] = move.nu
    if move.g is not None:
        out["g"] = [[scalar_to_json(c, field) for c in row] for row in move.g]
    return out


def move_from_json(data: dict, field: FieldSpec) -> OpMove:
    if data["kind"] == "rows":
        g = [[scalar_from_json(c, field) for c in row] for row in data["g"]]
        return rows_move(g)
    lam = scalar_from_json(data["lam"], field) if "lam" in data else None
    return OpMove(data["kind"], lam, data.get("mu"), data.get("nu"))


def moves_to_json(moves, field: FieldSpec) -> list:
    return [move_to_json(m, field) for m in moves]


def moves_from_json(data: list, field: FieldSpec) -> List[OpMove]:
    return [move_from_json(d, field) for d in data]


def skew_witness_to_json(w: SkewWitness) -> dict:
    return {
        "size": w.size,
        "degree": w.degree,
        "upper_triangle": [poly_to_string(e) for e in w.upper_triangle()],
    }


def parameter_point_to_json(p: ParameterPoint) -> dict:
    field = p.ring.field
    return {
        "ring": ring_to_json(p.ring),
        "base": {k: poly_to_string(v) for k, v in sorted(p.base.items())},
        "L_free": {f"{k},{l}": poly_to_string(v) for (k, l), v in sorted(p.L_free.items())},
        "M": {f"{k},{l}": poly_to_string(v) for (k, l), v in sorted(p.M.items())},
        "quadrics": {k: poly_to_string(v) for k, v in sorted(p.quadrics.items())},
        "scalars": {f"{r},{s}": scalar_to_json(v, field) for (r, s), v in sorted(p.scalars.items())},
    }


def parameter_point_from_json(data: dict) -> ParameterPoint:
    ring = ring_from_json(data["ring"])
    field = ring.field

    def key2(t: str):
        a, b = t.split(",")
        return int(a), int(b)

    return ParameterPoint(
        ring,
        {k: parse_poly(v, ring) for k, v in data["base"].items()},
        {key2(k): parse_poly(v, ring) for k, v in data["L_free"].items()},
        {key2(k): parse_poly(v, ring) for k, v in data["M"].items()},
        {k: parse_poly(v, ring) for k, v in data["quadrics"].items()},
        {key2(k): scalar_from_json(v, field) for k, v in data["scalars"].items()},
    )


def cert_to_json(cert: BaseChangeCert, field: FieldSpec) -> dict:
    return {
        "moves": moves_to_json(cert.moves, field),
        "det_alpha": poly_to_string(cert.det_alpha),
        "det_beta": poly_to_string(cert.det_beta),
        "witnesses": {
            "det_alpha_nonzero": cert.det_alpha_nonzero,
            "quotient_equal": cert.quotient_equal,
        },
    }


def pair_to_json(pair: SquareSymmetricPair) -> dict:
    return {
        "ring": ring_to_json(pair.ring),
        "size": pair.size,
        "alpha": [[poly_to_string(e) for e in row] for row in pair.alpha],
        "beta": [[poly_to_string(e) for e in row] for row in pair.beta],
    }


def pair_from_json(data: dict) -> SquareSymmetricPair:
    ring = ring_from_json(data["ring"])
    alpha = [[parse_poly(t, ring) for t in row] for row in data["alpha"]]
    beta = [[parse_poly(t, ring) for t in row] for row in data["beta"]]
    return SquareSymmetricPair(ring, alpha, beta)


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def render_report(report: VerificationReport, fmt: str = "text") -> str:
    """Lossless JSON, or a text rendering that names the assumed hypotheses
    verbatim."""
    if fmt == "json":
        return dumps(report.to_json())
    if fmt != "text":
        raise ContractError(f"unknown report format {fmt!r}")
    lines = []
    for name, result in report.checks.items():
        if result.status == "assumed":
            label = {
                "annihilator_prime": "Ann_A(R) prime",
                "rational_double_points": "X has only rational double points",
            }.get(name, name)
            lines.append(f"{label}: ASSUMED")
        else:
            suffix = f" ({result.detail})" if result.detail else ""
            lines.append(f"{name}: {result.status.upper()}{suffix}")
    overall = "PASS" if report.overall else "FAIL"
    lines.append(f"OVERALL: {overall} ({report.assumed_count} assumed)")
    return "\n".join(lines) + "\n"
