"""The benchmark's workloads: each is a list of `aomega` CLI commands.

The torus configurations are fixed, because their cost depends on
(p, depth, dim, bound) and not on the seed; the workload seed is passed
as `--seed` to every command, where the suites draw their random
instances from it.
"""

from __future__ import annotations


def _torus_all(p: int, depth: int, dim: int, bound: int) -> list[str]:
    return ["torus", "all", "--p", str(p), "--depth", str(depth), "--dim", str(dim), "--bound", str(bound)]


# residue-ring division in `ainf` dominates: a few inversions on rings of
# degree 2028 and 1210
RESIDUE_DEEP = [
    _torus_all(13, 2, 2, 8),
    _torus_all(11, 2, 2, 8),
]

# thousands of integral cells, each a Koszul complex with its d-after-d
# check; (3,2,2,4) takes the explicit-cell path
TORUS_CELLS = [
    _torus_all(3, 2, 3, 6),
    _torus_all(3, 2, 2, 4),
    ["suite", "run", "--suite", "s7-specializations"],
]

# integer linear algebra and the lattice track over Z; no torus stage and
# no residue ring
LATTICE_SUITES = [
    ["leta", "verify", "--suite", "s5-leta", "--instances", "1000"],
    ["suite", "run", "--suite", "witt"],
    ["suite", "run", "--suite", "s4-torus-decomp"],
    ["suite", "run", "--suite", "s2-notation"],
]

WORKLOADS = {
    "residue-deep": RESIDUE_DEEP,
    "torus-cells": TORUS_CELLS,
    "lattice-suites": LATTICE_SUITES,
}


def commands(workload: list[list[str]], seed: int) -> list[list[str]]:
    """The workload's command lines for one seed."""
    return [argv + ["--seed", str(seed)] for argv in workload]
