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


def cli_stdout(argv: list[str]) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    env.pop("AOMEGA_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "aomega.cli", *argv],
        stdin=subprocess.DEVNULL,
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
    ("lattice-suites", "suite run --suite witt --seed 0"),
    ("lattice-suites", "suite run --suite s4-torus-decomp --seed 0"),
]


@pytest.mark.parametrize("workload,command", CHEAP)
def test_cheap_reports_match_golden_digest(workload, command):
    digest = hashlib.sha256(cli_stdout(command.split())).hexdigest()
    assert digest == GOLDEN[workload]["0"][command]
