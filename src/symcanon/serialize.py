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
from .canonical import VerificationReport, resolution_shifts
from .errors import ContractError
from .fields import FieldSpec, Scalar
from .ideals import Ideal, groebner_basis
from .koszul import SkewWitness
from .orders import GREVLEX
from .paramgen import ParameterPoint
from .poly import PolyRing, parse_poly, poly_to_string
from .tableau import OpMove, SymmetricTableau, rows_move

THM15_SHIFTS = "thm-1.5"

_JSON_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    (int, str): "an integer or a string",
}


def _typed(data, kind: type, what: str):
    """``data`` if it is a JSON value of ``kind``, else ContractError."""
    if isinstance(data, kind) and not isinstance(data, bool):
        return data
    got = "null" if data is None else _JSON_NAMES.get(type(data), f"a {type(data).__name__}")
    raise ContractError(f"{what} must be {_JSON_NAMES[kind]}, got {got}")


def _object(data, what: str, *keys: str) -> dict:
    """``data`` as a JSON object holding ``keys``; ContractError otherwise."""
    missing = [k for k in keys if k not in _typed(data, dict, what)]
    if missing:
        raise ContractError(f"{what} lacks {', '.join(map(repr, missing))}")
    return data


def _poly(text, ring: PolyRing, what: str):
    _typed(text, str, what)
    try:
        return parse_poly(text, ring)
    except ContractError as exc:
        raise ContractError(f"{what}: {exc}") from exc


def _poly_matrix(data, ring: PolyRing, what: str, size: int):
    rows = _typed(data, list, what)
    if len(rows) != size or any(len(_typed(row, list, f"{what} row")) != size for row in rows):
        raise ContractError(f"{what} block must be {size} x {size}")
    return [
        [_poly(t, ring, f"{what}[{i + 1}][{j + 1}]") for j, t in enumerate(row)] for i, row in enumerate(rows)
    ]


def scalar_to_json(c: Scalar, field: FieldSpec):
    if field.kind == "prime_field":
        return int(c)
    return str(Fraction(c))


def scalar_from_json(data, field: FieldSpec) -> Scalar:
    _typed(data, (int, str), "a scalar")
    try:
        if field.kind == "prime_field":
            return int(data) % field.p
        return Fraction(str(data))
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractError(f"cannot read scalar {data!r}: {exc}") from exc


def ring_to_json(ring: PolyRing) -> dict:
    return {"variables": list(ring.variables), "field": ring.field.to_json()}


def ring_from_json(data: dict) -> PolyRing:
    _object(data, "ring", "variables", "field")
    names = [_typed(v, str, "a ring variable") for v in _typed(data["variables"], list, "ring variables")]
    field = _object(data["field"], "ring field", "kind", "characteristic")
    kind = _typed(field["kind"], str, "field kind")
    return PolyRing(tuple(names), FieldSpec(kind, _typed(field["characteristic"], int, "field characteristic")))


def tableau_to_json(T: SymmetricTableau) -> dict:
    return {
        "ring": ring_to_json(T.ring),
        "n": T.n,
        "alpha": [[poly_to_string(e) for e in row] for row in T.alpha],
        "beta": [[poly_to_string(e) for e in row] for row in T.beta],
    }


def tableau_from_json(data: dict) -> SymmetricTableau:
    _object(data, "tableau", "ring", "n", "alpha", "beta")
    ring = ring_from_json(data["ring"])
    n = _typed(data["n"], int, "n")
    if "shifts" in data:
        # general twist layouts are parsed but only the specialization with
        # row degrees (3; 1..1) is processed
        expected = [list(twists) for twists in resolution_shifts(n)]
        if data["shifts"] not in (THM15_SHIFTS, expected):
            raise ContractError(
                "only the standard degree layout (first row cubic, rest linear) is "
                f"processed; got shift data {data['shifts']!r}"
            )

    alpha = _poly_matrix(data["alpha"], ring, "alpha", n + 1)
    beta = _poly_matrix(data["beta"], ring, "beta", n + 1)
    return SymmetricTableau(ring, alpha, beta)


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
    _object(data, "ideal", "ring", "generators")
    ring = ring_from_json(data["ring"])
    gens = _typed(data["generators"], list, "generators")
    return Ideal(ring, [_poly(t, ring, f"generator {i + 1}") for i, t in enumerate(gens)])


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
    if _typed(_object(data, "move", "kind")["kind"], str, "move kind") == "rows":
        rows = _typed(_object(data, "rows move", "g")["g"], list, "move g")
        return rows_move([[scalar_from_json(c, field) for c in _typed(row, list, "move g row")] for row in rows])
    for key in ("mu", "nu"):
        if data.get(key) is not None:
            _typed(data[key], int, f"move {key}")
    lam = scalar_from_json(data["lam"], field) if "lam" in data else None
    return OpMove(data["kind"], lam, data.get("mu"), data.get("nu"))


def moves_to_json(moves, field: FieldSpec) -> list:
    return [move_to_json(m, field) for m in moves]


def moves_from_json(data: list, field: FieldSpec) -> List[OpMove]:
    return [move_from_json(d, field) for d in _typed(data, list, "move word")]


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
    groups = ("base", "L_free", "M", "quadrics", "scalars")
    _object(data, "parameter point", "ring", *groups)
    ring = ring_from_json(data["ring"])
    field = ring.field
    base, l_free, m, quadrics, scalars = (_object(data[g], g) for g in groups)

    def key2(t: str):
        try:
            a, b = t.split(",")
            return int(a), int(b)
        except ValueError as exc:
            raise ContractError(f"parameter key {t!r} must be '<int>,<int>'") from exc

    return ParameterPoint(
        ring,
        {k: _poly(v, ring, f"base {k}") for k, v in base.items()},
        {key2(k): _poly(v, ring, f"L_free {k}") for k, v in l_free.items()},
        {key2(k): _poly(v, ring, f"M {k}") for k, v in m.items()},
        {k: _poly(v, ring, f"quadric {k}") for k, v in quadrics.items()},
        {key2(k): scalar_from_json(v, field) for k, v in scalars.items()},
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
    _object(data, "pair", "ring", "alpha", "beta")
    ring = ring_from_json(data["ring"])
    size = len(_typed(data["alpha"], list, "alpha"))
    alpha = _poly_matrix(data["alpha"], ring, "alpha", size)
    beta = _poly_matrix(data["beta"], ring, "beta", size)
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
