"""Record the reference SHA-256 digest of every pool item's output.

Each digest comes from the ``symcanon`` command line run in a subprocess on
the item's input file (the output files concatenated in the order the
workload names them), so it checks the in-process op of ``run.py`` against
an independent path.  The script also runs the in-process op once per item,
checks that both give the same bytes and that the set-up scramble equals the
move-by-move replay, and prints each item's op time.

Run from the repository root at the commit the references should describe:

    python3 perfbench/make_reference.py [--workload NAME ...] [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
for name in [k for k in os.environ if k.startswith("SYMCANON_")]:
    del os.environ[name]

import workloads  # noqa: E402
from symcanon.paramgen import realize, sample  # noqa: E402
from symcanon.serialize import dumps, tableau_to_json  # noqa: E402
from symcanon.tableau import apply_op_word  # noqa: E402


def cli_digest(wl, item, workdir: Path) -> str:
    (workdir / "in.json").write_text(item.text, encoding="utf-8")
    args, outputs = wl.cli(item)
    args = [str(workdir / "in.json") if a == "{in}" else a for a in args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "symcanon.cli", *args],
        cwd=workdir, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    text = "".join((workdir / f).read_text(encoding="utf-8") for f in outputs)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out", default=str(HERE / "reference.json"))
    args = parser.parse_args()
    out = Path(args.out)
    refs = json.loads(out.read_text()) if out.exists() else {}
    bad = 0
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        digests = {}
        for key in wl.pool():
            item = wl.make(key)
            if isinstance(wl, workloads.NormalForm):
                g = wl._spec(key)[0]
                replayed = apply_op_word(realize(sample(g, workloads.FIELD)), wl.word(key))
                if dumps(tableau_to_json(replayed)) != item.text:
                    print(f"{name} {key}: scramble differs from the move-by-move replay")
                    bad += 1
            with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
                digest = cli_digest(wl, item, Path(tmp))
            t0 = time.perf_counter()
            outcome = wl.op(item)
            dt = time.perf_counter() - t0
            mine = hashlib.sha256(outcome.output.encode()).hexdigest()
            if isinstance(wl, workloads.NormalForm):
                _, end = json.JSONDecoder().raw_decode(outcome.output)
                witness = json.loads(outcome.output[end:])
                if len(witness) < workloads.MIN_WITNESS:
                    outcome.problems.append(f"witness has {len(witness)} < {workloads.MIN_WITNESS} moves")
            status = "ok" if mine == digest and not outcome.problems else "MISMATCH"
            if status != "ok":
                bad += 1
            print(f"{name} {key} kind={item.kind} op_s={dt:.3f} {status} {outcome.problems}", flush=True)
            digests[key] = digest
        refs[name] = digests
        out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
