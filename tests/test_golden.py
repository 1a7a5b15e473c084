"""Golden outputs: CLI reports must stay byte-identical to the recorded digests.

`bench/golden.json` holds the sha256 of every benchmark report, keyed by
workload, seed and command line.  Each command here runs as a fresh
`python -m aomega.cli` child with a fixed hash seed, as the benchmark
runs it.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aomega.suites import random_z_complex
from aomega.torus import random_fp_complex

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


# `torus run --stage` prints one entry per grading, keyed by its value
# ("-2/9,1/3"); `torus all` prints only flags and rank tables.  Digests were
# recorded while gradings were still held as Fractions.
TORUS_STAGES = [
    ("3 2 2 4", "tilde", "0ef873a60cf9e8b39e09444e748f98fa27d74580f14b8960b8e9e268c024d146"),
    ("3 2 2 4", "ainf", "faa482394ec60c45310e03e70de9b6c4b10d4396466c95ee70dd3a31c81d22e5"),
    ("3 2 2 4", "ht", "0bad03ce9b238a379f1ba978d65e29c3f956164159e27475dd379a96744d8814"),
    ("3 2 2 4", "dr", "c3b4bf3918aa5facd041a0e5cdf4f04d2e977975dd39180c87ddb142d8f7bc18"),
    ("3 2 2 4", "etale", "a6d4b94de8bb2a812cc259888b5ba0117ad8d6fddc2f40b3a5a1619fdb4ba49b"),
    ("3 2 2 4", "semicont", "72f63e3b46dbe96cd76d8d0073bb29d2fb8f43920a59dba25015d029cc559919"),
    ("2 2 3 2", "tilde", "55215c03dfdd19e38e1bcca90ad423db8a34a9291204d6d31038b69070224376"),
    ("2 2 3 2", "ainf", "718ba26fe4ec5cc8e01bf46969de5a22a0f359f2ada2835d14aa5097125604fa"),
    ("2 2 3 2", "ht", "edbfeb02f8b8ae2fa1d3239b91213e0f75238783a4bb0b9f4c2a6fb946fac851"),
    ("2 2 3 2", "dr", "bf93fb62a3c2f0ca2165ea02d9ed65502fb07b8ad4d847c3ae8d5cbdec931407"),
    ("2 2 3 2", "etale", "39260450897231bda0b11d6fa42aefe50d9283b9076c5cd2935550e6afc1cb8f"),
    ("2 2 3 2", "semicont", "a4b6552dd7c15efe49f6de9e605c4134b27d217ff1a87c28b2ce5e294f1daf13"),
]


@pytest.mark.parametrize("config,stage,digest", TORUS_STAGES)
def test_torus_stage_reports_match_recorded_digest(config, stage, digest):
    p, depth, dim, bound = config.split()
    argv = ["torus", "run", "--stage", stage, "--p", p, "--depth", depth, "--dim", dim, "--bound", bound, "--seed", "0"]
    assert hashlib.sha256(cli_stdout(argv)).hexdigest() == digest


# Commands whose bytes the per-exponent kill certificates, the fibre ranks
# (per orbit, later by the contraction rule) and the Koszul placement tables
# must leave alone: the q-de Rham table and comparison, the dim-3 fibre
# comparison (many orderings of one weight multiset occur there), and
# the Hodge-Tate and de Rham stages at (5,2,2,2), where the residue ring one
# level deeper is too large for honest division and every unstructured cell
# carries an order-calculus certificate.  Recorded before those changes.
PINNED = [
    ("qderham table --p 3 --depth 2 --dim 3 --bound 2",
     "0627f87e17f81a69bbd0f2ba9a510f4d40c53ab124a8916f06f6b835df71819a"),
    ("qderham compare --p 3 --depth 2 --dim 3 --bound 3",
     "644761fc9f7b45438f4d76390748f148e9facf5cc7cd173082d59126393a6c0a"),
    ("torus run --stage semicont --p 3 --depth 2 --dim 3 --bound 3 --seed 0",
     "a4b6552dd7c15efe49f6de9e605c4134b27d217ff1a87c28b2ce5e294f1daf13"),
    ("torus run --stage ht --p 5 --depth 2 --dim 2 --bound 2 --seed 0",
     "310eccb0cfebec618abc707f6a56f5b81050e131dd26d3f224ed84bc7cdb77ae"),
    ("torus run --stage dr --p 5 --depth 2 --dim 2 --bound 2 --seed 0",
     "b4dfa7649f4a99b11168017b0407b0e5f90fcbb2f872038d159197123a3c080a"),
    # aggregated boxes, whose `classes` list the stage tables above never
    # reach, and the dim-0 box, whose one cell presents as one free rank in
    # degree 0; recorded before the torus cells held plain weights
    ("torus run --stage ainf --p 3 --depth 2 --dim 2 --bound 8 --seed 0",
     "79adb9de5540724b56447d2dbc220ebf88aa5af869dc313566cf3f0e1dbdfb62"),
    ("torus run --stage tilde --p 3 --depth 2 --dim 2 --bound 8 --seed 0",
     "227906b479d04f4508c3a079d5d6a5864c8a4832fe77f7fb5008fb6efc1ee446"),
    ("torus run --stage ainf --p 3 --depth 2 --dim 3 --bound 2 --seed 0",
     "0cd2ac25f8f738782fb55c5a2cb74e557fe5ab918ea7b9f7506122899a65029a"),
    ("torus run --stage ainf --p 5 --depth 1 --dim 0 --bound 2 --seed 0",
     "6b0806a1e5b1d576527a7ffb8cb288a4d78b4c9e2efdcd8c2cb61cda0f95ac69"),
]


@pytest.mark.parametrize("command,digest", PINNED)
def test_pinned_reports_match_recorded_digest(command, digest):
    assert hashlib.sha256(cli_stdout(command.split())).hexdigest() == digest


# The random complexes of the s5-leta and s8 suites.  The s8 report shows
# only a failure count, so a change in its instances would go unseen there:
# 300 draws of each generator from seed 0, ranks and differentials as JSON.
GENERATORS = [
    ("F2[u]", lambda rng: random_fp_complex(rng, 2), "182761f8016957749db4442e79cb60edc4839c3952c3996358149bbe84a4ec12"),
    ("F3[u]", lambda rng: random_fp_complex(rng, 3), "dc30bc46a4fab43ef6ee9ffcb2b709a9a67327ef91094861aaadcd2e4cf5a29b"),
    ("F5[u]", lambda rng: random_fp_complex(rng, 5), "82498126cf6b6e82853b60a20f3e039497895981680787d3c340e6aad26499d6"),
    ("F13[u]", lambda rng: random_fp_complex(rng, 13), "c0148084e46b59baa1162e02593dbcec76fa1f32643c5a809545056c43207130"),
    ("Z", random_z_complex, "74116ae622202ac6f60b23e5d6c38048f3045b8b73267b09b2901a6dbcf9b737"),
]


@pytest.mark.parametrize("make,digest", [g[1:] for g in GENERATORS], ids=[g[0] for g in GENERATORS])
def test_random_complexes_match_recorded_digest(make, digest):
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(300):
        K = make(rng)
        h.update(json.dumps([K.ranks, K.diffs]).encode())
    assert h.hexdigest() == digest
