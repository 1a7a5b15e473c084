"""Benchmark of the `aomega` command line, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-golden

Untraced (`--trace 0`): each command of the workload runs as a fresh
`python -m aomega.cli` child, one after another from this one process (a
closed loop with one client and no threads).  Whole passes over the
workload repeat until the next one would overrun `--seconds`, and at
least twice.  Set-up time is taken separately, as the median of fresh
children that only import `aomega.cli`, a few before every pass.

Traced (`--trace 1`): one untraced pass, then two in-process traced runs
of the same commands in fresh children (`bench/tracing.py`).  The traced
reports must be byte-identical to the untraced ones, stage spans must
cover at least 95% of every `torus all` command, and every count must be
identical between the two traced runs.

Every report is checked: a nonzero exit, `"passed": false`, a sha256 that
differs from `bench/golden.json` (recorded for seeds 0 and 1), or bytes
that differ between two passes count the command as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name with its unit, `error_rate` and the host.  A full
record, with per-command timings, goes to `bench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEEDS = (0, 1)
MIN_PASSES = 2
SETUP_PER_PASS = 5
COVERAGE_FLOOR = 0.95

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class CommandResult:
    argv: list[str]
    returncode: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failure: str | None = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("AOMEGA_OUT", None)
    return env


def spawn(args: list[str]) -> CommandResult:
    """Run one child to completion; CPU time and peak RSS come from that
    child's own rusage."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode(errors="replace")
    if proc.returncode and tail:
        print(tail, file=sys.stderr, end="")
    return CommandResult(args, proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_cli(argv: list[str]) -> CommandResult:
    result = spawn([sys.executable, "-m", "aomega.cli", *argv])
    result.argv = argv
    return result


def judge(result: CommandResult, digest: str | None, reference: bytes | None) -> str | None:
    """Why the command failed, or None when its report is correct."""
    if result.returncode != 0:
        return f"exit code {result.returncode}"
    try:
        payload = json.loads(result.stdout)
    except ValueError:
        return "report is not JSON"
    if isinstance(payload, dict) and payload.get("passed") is False:
        return '"passed": false'
    if digest is not None and result.sha256 != digest:
        return "sha256 differs from the golden digest"
    if reference is not None and result.stdout != reference:
        return "report bytes differ between two runs"
    return None


def load_golden(workload: str, seed: int) -> dict[str, str] | None:
    """Golden digests by command line, or None for a seed without them."""
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def run_pass(command_lines, golden, references) -> list[CommandResult]:
    results = []
    for argv in command_lines:
        result = run_cli(argv)
        key = " ".join(argv)
        digest = None if golden is None else golden.get(key, "missing")
        result.failure = judge(result, digest, references.get(key))
        references.setdefault(key, result.stdout)
        results.append(result)
    return results


def setup_sample() -> float:
    """Interpreter start plus `import aomega.cli`, in a fresh child."""
    result = spawn([sys.executable, "-c", "import aomega.cli"])
    if result.returncode != 0:
        raise SystemExit("error: aomega.cli does not import")
    return result.wall_s


def run_passes(command_lines, seconds: float, golden) -> tuple[list[list[CommandResult]], list[float]]:
    """Whole passes until the next would overrun `seconds`; at least two,
    so that every report is compared with a second run of itself.

    Set-up samples are taken before every pass, so that they spread over
    the run as the passes do.  A first child, which may compile bytecode,
    is not counted.
    """
    setup_sample()
    references: dict[str, bytes] = {}
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        setup += [setup_sample() for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(command_lines, golden, references))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, setup


def end_to_end_metrics(passes, setup: list[float]) -> dict[str, float]:
    per_command = list(zip(*passes))
    return {
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
        "slowest_op_s": max(statistics.median(r.wall_s for r in runs) for runs in per_command),
        "peak_rss_mb": max(r.peak_rss_mb for p in passes for r in p),
        "setup_s": statistics.median(setup),
    }


def run_traced(command_lines, spans_path: Path | None) -> dict:
    args = [sys.executable, str(BENCH / "tracing.py"), "--commands", json.dumps(command_lines)]
    if spans_path is not None:
        args += ["--spans", str(spans_path)]
    result = spawn(args)
    if result.returncode != 0:
        raise RuntimeError(f"traced run exited with code {result.returncode}")
    return json.loads(result.stdout.decode().splitlines()[-1])


def traced_checks(untraced: list[CommandResult], traced: list[dict]) -> list[str]:
    """Problems that make the traced run untrue to the untraced one."""
    problems = []
    for run, data in enumerate(traced, 1):
        for plain, result in zip(untraced, data["commands"]):
            key = " ".join(plain.argv)
            if result["returncode"] != plain.returncode or result["sha256"] != plain.sha256:
                problems.append(f"traced run {run}: report of `{key}` differs from the untraced one")
            coverage = result.get("stage_coverage")
            if coverage is not None and coverage < COVERAGE_FLOOR:
                problems.append(f"traced run {run}: stage spans cover {coverage:.1%} of `{key}`")
    first, second = (data["metrics"] for data in traced)
    for name, metric in first.items():
        if metric["unit"] != "s" and metric != second.get(name):
            problems.append(f"count {name} differs between two traced runs: {metric['value']} and {second[name]['value']}")
    return problems


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def report(metrics, units, results, problems, record) -> None:
    """Print every metric by name and the result line; keep the full record."""
    attempted = len(results)
    failed = sum(1 for r in results if r.failure)
    for r in results:
        if r.failure:
            print(f"FAILED `{' '.join(r.argv)}`: {r.failure}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    host = record["host"]
    print(f"host: python {host['python']}, nproc {host['nproc']}, "
          f"loadavg {host['loadavg_start']} -> {host['loadavg_end']}")
    print(f"workload {record['workload']}, seed {record['seed']}, trace {record['trace']}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>14.6f} {units[name]}")
    print(f"  {'error_rate':44s} {failed / attempted:>14.6f} ({failed} of {attempted} commands failed)")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    record.update(attempted=attempted, failed=failed, problems=problems, metrics=metrics)
    name = f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    OUT.joinpath(name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))


def command_record(result: CommandResult) -> dict:
    record = asdict(result)
    record.pop("stdout")
    record["sha256"] = result.sha256
    return record


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> None:
    command_lines = workloads.commands(workloads.WORKLOADS[workload], seed)
    golden = load_golden(workload, seed)
    host = {"python": platform.python_version(), "nproc": os.cpu_count(), "loadavg_start": loadavg()}
    problems: list[str] = []
    if not trace:
        passes, setup = run_passes(command_lines, seconds, golden)
        metrics = end_to_end_metrics(passes, setup)
        units = dict(END_TO_END_UNITS)
        results = [r for p in passes for r in p]
        record = {"setup_samples_s": setup, "passes": [[command_record(r) for r in p] for p in passes]}
    else:
        results = run_pass(command_lines, golden, {})
        spans_path = OUT / f"spans-{workload}.tsv"
        traced = [run_traced(command_lines, spans_path if i == 0 else None) for i in range(2)]
        problems = traced_checks(results, traced)
        units = {name: m["unit"] for name, m in traced[0]["metrics"].items()}
        metrics = {name: m["value"] for name, m in traced[0]["metrics"].items()}
        traced_wall = sum(c["wall_s"] for c in traced[0]["commands"])
        metrics["trace.overhead_ratio"] = traced_wall / sum(r.wall_s for r in results)
        units["trace.overhead_ratio"] = "ratio"
        record = {"untraced": [command_record(r) for r in results], "traced": [t["commands"] for t in traced],
                  "span_count": traced[0]["span_count"], "spans": str(spans_path.relative_to(ROOT))}
    host["loadavg_end"] = loadavg()
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace), host=host)
    report(metrics, units, results, problems, record)


def record_golden() -> None:
    """Write the sha256 of every command's report, for the golden seeds."""
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        golden[name] = {}
        for seed in GOLDEN_SEEDS:
            digests = {}
            for argv in workloads.commands(workload, seed):
                result = run_cli(argv)
                failure = judge(result, None, None)
                if failure:
                    raise SystemExit(f"`{' '.join(argv)}` failed: {failure}")
                digests[" ".join(argv)] = result.sha256
            golden[name][str(seed)] = digests
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="record bench/golden.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "aomega" / "cli.py").is_file():
        print(f"error: no aomega sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
