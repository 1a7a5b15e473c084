"""Golden outputs: CLI reports must stay byte-identical to the recorded digests.

`bench/golden.json` holds the sha256 of every benchmark report, keyed by
workload, seed and command line.  Each command here runs as a fresh
`python -m aomega.cli` child with a fixed hash seed, as the benchmark
runs it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())


def cli_stdout(argv: list[str], stdin: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    env.pop("AOMEGA_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "aomega.cli", *argv],
        input=stdin,
        capture_output=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("command", sorted(GOLDEN["residue-deep"]["0"]))
def test_residue_deep_reports_match_golden_digest(command):
    digest = hashlib.sha256(cli_stdout(command.split())).hexdigest()
    assert digest == GOLDEN["residue-deep"]["0"][command]


# the cheap seed-0 commands of the other two workloads
CHEAP = [
    ("torus-cells", "torus all --p 3 --depth 2 --dim 2 --bound 4 --seed 0"),
    ("torus-cells", "torus all --p 3 --depth 2 --dim 3 --bound 6 --seed 0"),
    ("torus-cells", "suite run --suite s7-specializations --seed 0"),
    ("lattice-suites", "suite run --suite witt --seed 0"),
    ("lattice-suites", "suite run --suite s4-torus-decomp --seed 0"),
    ("lattice-suites", "leta verify --suite s5-leta --instances 1000 --seed 0"),
]


@pytest.mark.parametrize("workload,command", CHEAP)
def test_cheap_reports_match_golden_digest(workload, command):
    digest = hashlib.sha256(cli_stdout(command.split())).hexdigest()
    assert digest == GOLDEN[workload]["0"][command]


# `leta apply` is the one command that prints lattice bases: the induced
# differentials of the subcomplex in its Hermite bases.  Inputs and digests
# were recorded before the integer solver took many right-hand sides.
LETA_APPLY = [
    (
        {"ring": "Z", "lo": 0, "ranks": [1, 3, 3, 1],
         "diffs": [["12", "18", "8"], ["-18", "12", "0", "-8", "0", "12", "0", "-8", "18"], ["8", "-18", "12"]]},
        6,
        "c644aec739526eadcef12f786076e56fc9894232b918952f580d496ed57a5019",
    ),
    (
        {"ring": "Z", "lo": -1, "ranks": [4, 3],
         "diffs": [["1", "-5", "3", "-8", "-7", "8", "-6", "2", "9", "-8", "7", "-3"]]},
        3,
        "c23687003b865a7ead5a14986872f485c43697625e4cc542c7ee2ad88b55464d",
    ),
    (
        {"ring": "Z", "lo": 0, "ranks": [2, 4, 2],
         "diffs": [["75", "-60", "-90", "72", "-21", "18", "0", "3"], ["-6", "-5", "0", "0", "-5", "-3", "-5", "2"]]},
        9,
        "b5198e30cc2e52758d0fd85a08be7328e128d81724cc1d7864db4ec4beef7e6e",
    ),
]


@pytest.mark.parametrize("complex_json,f,digest", LETA_APPLY)
def test_leta_apply_reports_match_recorded_digest(complex_json, f, digest):
    out = cli_stdout(["leta", "apply", "--f", str(f)], json.dumps(complex_json).encode())
    assert hashlib.sha256(out).hexdigest() == digest
