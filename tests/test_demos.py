"""Each demo runs as its README tells, and its output is pinned.

The SHA-256 digests are of each demo's standard output; the demos print
the degeneracy analysis, the normal-form round trip, the moduli ledger and
a Koszul-type base change, so a changed digest is a changed result.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_build_and_verify.py": "d5f9386c2fe49334103e52c3ee31d6ca56a9843709ac7f83c896daac4bd6e6d9",
    "02_normal_form_roundtrip.py": "26bdb1d86f5051e530e1cce6929d9a1a5669ea639bd4d3009d9264b856ba06a3",
    "03_moduli_ledger.py": "baacc0840ee3cb6df9dc023eb6002e5565fae52296e0eb161bc8037b30e71d02",
    "04_koszul_type_base_change.py": "217c715ca0e47b048ae7a9ad75f25b5f1504d5a24b6a353f8b7115ec6f202465",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
