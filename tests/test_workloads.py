"""The benchmark's command lines must parse.

`bench/workloads.py` lists the `aomega` command lines the benchmark runs.
A narrowed choice list or a renamed flag would break a workload without
failing any other test, so every command line of every workload is parsed
here, with its seed, by the parser that the command line builds.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from aomega import cli
from aomega.suites import SUITE_ALIASES, SUITES

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_command_line_parses(name):
    for argv in workloads.commands(workloads.WORKLOADS[name], seed=0):
        args = cli.build_parser(argv).parse_args(argv)
        assert callable(args.func), argv


def test_every_leta_verify_suite_takes_instances():
    for name in cli.LETA_SUITES:
        run = SUITES[SUITE_ALIASES.get(name, name)]
        assert "instances" in inspect.signature(run).parameters, name
        argv = ["leta", "verify", "--suite", name]
        assert cli.build_parser(argv).parse_args(argv).suite == name
