from __future__ import annotations

import hashlib
import json
import os

import pytest

from symcanon import canonical, ideals
from symcanon.cli import main
from symcanon.errors import ContractError
from symcanon.fields import DEFAULT_PRIME, GF
from symcanon.normalform import verify_normal_shape
from symcanon.paramgen import realize, sample
from symcanon.serialize import (
    dumps,
    ideal_from_json,
    ideal_to_json,
    moves_from_json,
    moves_to_json,
    render_report,
    tableau_from_json,
    tableau_to_json,
)
from symcanon.canonical import verify_instance
from symcanon.ideals import Ideal, ideal_equal
from symcanon.poly import PolyRing
from symcanon.tableau import OpMove, apply_op_word, rows_move


@pytest.fixture()
def golden_file(tmp_path, golden_tableau):
    path = tmp_path / "tab.json"
    path.write_text(dumps(tableau_to_json(golden_tableau)))
    return str(path)


def test_tableau_json_roundtrip(golden_tableau):
    data = tableau_to_json(golden_tableau)
    back = tableau_from_json(json.loads(dumps(data)))
    assert back == golden_tableau


def test_ideal_json_roundtrip(Rp):
    x = Rp.gens()
    ideal = Ideal(Rp, [x[0] * x[1] - x[2] ** 2, x[3] ** 2])
    back = ideal_from_json(ideal_to_json(ideal))
    assert ideal_equal(ideal, back)


def test_moves_json_roundtrip(Fp, Rp):
    moves = [
        OpMove("add_col_same", Fp.of_int(3), 1),
        OpMove("swap", None, 0, 2),
        OpMove("rotate", None, 1),
        rows_move([[Fp.one(), Fp.zero()], [Fp.zero(), Fp.one()]]),
    ]
    data = moves_to_json(moves, Fp)
    back = moves_from_json(json.loads(json.dumps(data)), Fp)
    assert back == moves


def test_skew_witness_json(Fp, Rp):
    from symcanon.koszul import RegularSequence, solve_skew
    from symcanon.serialize import skew_witness_to_json

    x = Rp.gens()
    w = solve_skew([x[1], -x[0]], RegularSequence.verify([x[0], x[1]]))
    data = skew_witness_to_json(w)
    assert data["size"] == 2 and data["upper_triangle"] == ["1"]


def test_reduced_basis_emitted_sorted(Rp):
    from symcanon.orders import GREVLEX
    from symcanon.poly import parse_poly

    x = Rp.gens()
    ideal = Ideal(Rp, [x[0] + x[1], x[0] - x[1], x[2] ** 2])
    data = ideal_to_json(ideal, reduced=True)
    polys = [parse_poly(t, Rp) for t in data["generators"]]
    keys = [GREVLEX.key(p.leading_monomial(GREVLEX)) for p in polys]
    assert keys == sorted(keys, reverse=True)


def test_tableau_reader_accepts_explicit_standard_shifts(golden_tableau):
    data = tableau_to_json(golden_tableau)
    n = golden_tableau.n
    data["shifts"] = [[0] + [2] * n, [3] * (2 * n + 2), [6] + [4] * n]
    assert tableau_from_json(data) == golden_tableau


def test_report_json_roundtrip(golden_tableau):
    report = verify_instance(golden_tableau)
    as_json = json.loads(render_report(report, "json"))
    assert as_json["overall"] == "PASS"
    assert render_report(report, "text").strip().endswith("(2 assumed)")


def test_cli_generate_verify_pipeline(tmp_path, capsys):
    tab = str(tmp_path / "t.json")
    rep = tmp_path / "r.json"
    assert main(["generate", "--k2", "11", "--seed", "7", "-o", tab]) == 0
    assert main(["verify", tab, "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["overall"] == "PASS"


def test_cli_verify_answers_the_gf7_seed_4_points(tmp_path, capsys):
    # its degeneracy scheme, 3 reduced points, defeated every seeded draw
    # of the earlier point analysis (exit 3)
    tab = str(tmp_path / "t.json")
    assert main(["generate", "--seed", "4", "--field", "p:7", "-o", tab]) == 0
    assert main(["verify", tab]) == 0
    assert "degeneracy: PASS (3 reduced points)" in capsys.readouterr().out


def test_cli_generate_reproducible(tmp_path):
    t1 = tmp_path / "a.json"
    t2 = tmp_path / "b.json"
    assert main(["generate", "--seed", "3", "-o", str(t1)]) == 0
    assert main(["generate", "--seed", "3", "-o", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_cli_reduce_roundtrip(tmp_path, golden_tableau, capsys):
    scrambled = apply_op_word(
        golden_tableau,
        [OpMove("swap", None, 0, 2), OpMove("rotate", None, 1)],
    )
    src = tmp_path / "s.json"
    src.write_text(dumps(tableau_to_json(scrambled)))
    out = tmp_path / "o.json"
    wit = tmp_path / "w.json"
    assert main(["reduce", "--k2", "11", str(src), "-o", str(out), "--witness", str(wit)]) == 0
    reduced = tableau_from_json(json.loads(out.read_text()))
    assert verify_normal_shape(reduced).ok
    moves = moves_from_json(json.loads(wit.read_text()), reduced.ring.field)
    assert apply_op_word(scrambled, moves) == reduced


def test_cli_ledger(capsys):
    assert main(["ledger"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["result"] == 38
    # the field and seed flags reach the ledger: a refused field exits 2
    # as it does for verify, an admitted one is sampled from
    assert main(["ledger", "--field", "p:4294967311"]) == 2
    assert main(["ledger", "--seed", "3", "--field", "p:10007"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == 38


def test_cli_exit_codes(tmp_path, golden_file, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{ not json")
    assert main(["verify", str(garbage)]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["verify", missing]) == 2
    # a failing instance exits 1
    bad = tmp_path / "bad.json"
    with open(golden_file) as fh:
        data = json.load(fh)
    data["beta"] = data["alpha"]  # alpha = beta: symmetric but fails acyclicity
    bad.write_text(dumps(data))
    assert main(["verify", str(bad)]) == 1
    # wrong k2 is a contract error
    assert main(["generate", "--k2", "12"]) == 2
    capsys.readouterr()


RING_JSON = {"variables": ["x0", "x1", "x2", "x3", "x4"], "field": {"kind": "prime_field", "characteristic": 7}}
MALFORMED = [
    [],
    None,
    "tableau",
    {"ring": {"variables": 3}},
    {"ring": {"variables": 3}, "n": 1, "alpha": [], "beta": []},
    {"ring": {"variables": ["x0"], "field": None}, "n": 1, "alpha": [], "beta": []},
    {"ring": {"variables": ["x0"], "field": {"kind": "prime_field", "characteristic": "7"}}, "n": 1,
     "alpha": [], "beta": []},
    {"ring": RING_JSON, "n": "1", "alpha": [], "beta": []},
    {"ring": RING_JSON, "n": 1, "alpha": 5, "beta": []},
    {"ring": RING_JSON, "n": 1, "alpha": [[1, 2], [3, 4]], "beta": [[1, 2], [3, 4]]},
    {"ring": RING_JSON, "alpha": [[None]], "beta": [["x0"]]},
]


@pytest.mark.parametrize("command", ["verify", "multiply", "koszul-type"])
@pytest.mark.parametrize("doc", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_input_exits_2(tmp_path, capsys, command, doc):
    # a document of the wrong shape is a parse error (exit 2), never a
    # verification failure (exit 1) or an uncaught exception
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_library_documents_refused(Fp):
    with pytest.raises(ContractError, match="must be an array"):
        moves_from_json({"kind": "swap"}, Fp)
    with pytest.raises(ContractError, match="move mu"):
        moves_from_json([{"kind": "swap", "mu": "0", "nu": 1}], Fp)
    with pytest.raises(ContractError, match="scalar"):
        moves_from_json([{"kind": "add_col_same", "lam": None, "mu": 0}], Fp)
    with pytest.raises(ContractError, match="generator 1"):
        ideal_from_json({"ring": RING_JSON, "generators": [3]})
    with pytest.raises(ContractError, match="lacks 'generators'"):
        ideal_from_json({"ring": RING_JSON})


HUGE = "1" + "0" * 5000  # past the int/str conversion limit of 4300 digits


def _edited_entry(text):
    def edit(data):
        data["alpha"][1][0] = text
        return dumps(data)

    return edit


# (argv after the input file, environment, config file text, edit of the tableau file)
BAD_SETTINGS = {
    "field_flag": (["--field", "p:abc"], {}, None, None),
    "field_env": ([], {"SYMCANON_FIELD": "p:abc"}, None, None),
    "seed_env": ([], {"SYMCANON_SEED": "abc"}, None, None),
    "seed_file": ([], {}, json.dumps({"seed": "x"}), None),
    "file_not_object": ([], {}, json.dumps("fieldx"), None),
    "unknown_file_key": ([], {}, json.dumps({"sed": 3}), None),
    "removed_budget_env": ([], {"SYMCANON_DEGREE_BUDGET": "1"}, None, None),
    "superscript_exponent": ([], {}, None, _edited_entry("x0^\u00b2")),
    "long_coefficient": ([], {}, None, _edited_entry(HUGE + "*x0")),
    "long_json_integer": ([], {}, None, lambda data: dumps(data)[:-2] + ', "x": ' + HUGE + "}"),
}


# every subcommand that reads a tableau resolves its settings; verify's
# cases keep the bare case name as their id
@pytest.mark.parametrize(
    "case, command",
    [
        pytest.param(case, command, id=case if command == "verify" else f"{case}-{command}")
        for command in ("verify", "fitting", "invariants")
        for case in BAD_SETTINGS
    ],
)
def test_bad_settings_and_long_integers_exit_2(tmp_path, monkeypatch, capsys, golden_tableau, case, command):
    # a malformed setting or an integer past the conversion limit is a
    # contract error (exit 2), never a verification failure or a traceback
    argv, env, config_text, edit = BAD_SETTINGS[case]
    path = tmp_path / "tab.json"
    data = tableau_to_json(golden_tableau)
    path.write_text(edit(data) if edit else dumps(data))
    config = tmp_path / "symcanon.json"
    if config_text is not None:
        config.write_text(config_text)
    monkeypatch.setenv("SYMCANON_CONFIG", str(config))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([command, str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_fitting_reduced_honours_the_degree_budget(golden_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMCANON_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.setattr(ideals, "DEGREE_BUDGET", 1)
    assert main(["fitting", golden_file, "--reduced", "-o", str(tmp_path / "i.json")]) == 3
    assert "degree budget 1" in capsys.readouterr().err


def test_check_generic_refuses_a_system_past_the_size_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMCANON_CONFIG", str(tmp_path / "absent.json"))
    assert main(["check-generic", "--degree", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]

    def refuse(*args, **kwargs):
        raise AssertionError("the exactness systems were built")

    # degree 6 would need about 9 GB; the size is read off binomials first
    monkeypatch.setattr(canonical, "Ideal", refuse)
    monkeypatch.setattr(canonical, "graded_map", refuse)
    assert main(["check-generic", "--degree", "6"]) == 3
    err = capsys.readouterr().err
    assert "degree-6 exactness system of up to 27456 x 20592 entries" in err


def test_large_primes_refused(golden_file, capsys):
    # int64 elimination would square residues past 2^63 and report wrong ranks
    with pytest.raises(ContractError, match="too large"):
        GF(4294967311)
    assert main(["verify", golden_file, "--field", "p:4294967311"]) == 2
    assert "too large" in capsys.readouterr().err


def test_cli_fitting_and_invariants(tmp_path, golden_file, capsys):
    assert main(["fitting", golden_file, "--erased", "-o", str(tmp_path / "i.json")]) == 0
    ideal = json.loads((tmp_path / "i.json").read_text())
    assert len(ideal["generators"]) >= 10
    assert main(["invariants", golden_file, "-o", str(tmp_path / "inv.json")]) == 0
    inv = json.loads((tmp_path / "inv.json").read_text())
    assert inv == {"p_g": 5, "q": 0, "K2": 11, "chi": 6, "n": 2, "delta": 3}


def test_cli_multiply(tmp_path, golden_file):
    out = tmp_path / "table.json"
    assert main(["multiply", golden_file, "-o", str(out)]) == 0
    table = json.loads(out.read_text())
    assert "1,1" in table["entries"] and "1,2" in table["entries"]
    # golden seed 0, byte for byte: the multiply/gf-0 digest of the benchmark
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "03c99c3f22a75aba294d75c3615f7e0797225faa22b6bda9ea377b9913841904"
    )


def test_cli_koszul_type(tmp_path, golden_file):
    out = tmp_path / "kt.json"
    cert = tmp_path / "cert.json"
    assert main(["koszul-type", golden_file, "-o", str(out), "--cert", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert payload["witnesses"] == {"det_alpha_nonzero": True, "quotient_equal": True}


def test_cli_check_generic(capsys):
    assert main(["check-generic", "--degree", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    # the check runs over a prime field only; Q is refused, not replaced
    assert main(["check-generic", "--degree", "2", "--field", "q"]) == 2
    assert "prime field" in capsys.readouterr().err
    # no degree to check is no pass
    assert main(["check-generic", "--degree", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_config_precedence(tmp_path, monkeypatch, capsys):
    # env beats file; flags beat env
    cfg = tmp_path / "symcanon.json"
    cfg.write_text(json.dumps({"seed": 1}))
    monkeypatch.setenv("SYMCANON_CONFIG", str(cfg))
    t_env = tmp_path / "env.json"
    monkeypatch.setenv("SYMCANON_SEED", "2")
    assert main(["generate", "-o", str(t_env)]) == 0
    t_flag = tmp_path / "flag.json"
    assert main(["generate", "--seed", "3", "-o", str(t_flag)]) == 0
    t_seed2 = tmp_path / "seed2.json"
    t_seed3 = tmp_path / "seed3.json"
    monkeypatch.delenv("SYMCANON_SEED")
    assert main(["generate", "--seed", "2", "-o", str(t_seed2)]) == 0
    assert main(["generate", "--seed", "3", "-o", str(t_seed3)]) == 0
    assert t_env.read_bytes() == t_seed2.read_bytes()
    assert t_flag.read_bytes() == t_seed3.read_bytes()
