"""In-process traced run of a workload: spans and counts per module.

Each command runs through `aomega.cli.main(argv)` in this process, with
timing wrappers installed around the public functions of every module of
`src/aomega`.  A wrapped call records a span (name, start, end, parent
span, command id); spans stay in memory and are written out when the run
ends.  The hottest calls (element constructions, ring multiplications)
are only counted, so that tracing does not swamp the work it measures.

Run as a program it traces the command lines given as a JSON list and
prints, as its last line, a JSON object with the per-layer metrics, the
sha256 of every report and the stage coverage of every `torus all`
command:

    PYTHONPATH=src python3 bench/tracing.py --commands '[["torus", "all", "--p", "2"]]'
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path): calls that record a span
SPANNED = [
    ("cli.emit", "aomega.cli", "_emit"),
    ("suites.run_suite", "aomega.suites", "run_suite"),
    ("torus.ainf_omega_torus", "aomega.torus", "ainf_omega_torus"),
    ("torus.tilde_omega_torus", "aomega.torus", "tilde_omega_torus"),
    ("torus.specialize_hodge_tate", "aomega.torus", "specialize_hodge_tate"),
    ("torus.specialize_de_rham", "aomega.torus", "specialize_de_rham"),
    ("torus.etale_rank_torus", "aomega.torus", "etale_rank_torus"),
    ("torus.torus_semicontinuity", "aomega.torus", "torus_semicontinuity"),
    ("torus.generic_fibre_ranks", "aomega.torus", "generic_fibre_ranks"),
    ("qderham.compare_with_torus_pipeline", "aomega.qderham", "compare_with_torus_pipeline"),
    ("qderham.q_de_rham_complex", "aomega.qderham", "q_de_rham_complex"),
    ("ainf.check_notation_identities", "aomega.ainf", "check_notation_identities"),
    ("ainf.OCModelElement.inverse_rational", "aomega.ainf", "OCModelElement.inverse_rational"),
    ("ainf.OCModelElement.exact_div", "aomega.ainf", "OCModelElement.exact_div"),
    ("ainf.OCModelElement.mul", "aomega.ainf", "OCModelElement.__mul__"),
    ("arith.laurent_exact_div", "aomega.arith", "laurent_exact_div"),
    ("complexes.koszul", "aomega.complexes", "koszul"),
    ("complexes.ChainComplex", "aomega.complexes", "ChainComplex.__init__"),
    ("complexes.homology_snf", "aomega.complexes", "homology_snf"),
    ("decalage.eta_subcomplex", "aomega.decalage", "eta_subcomplex"),
    ("decalage.leta_koszul", "aomega.decalage", "leta_koszul"),
    ("decalage.check_homology_formula", "aomega.decalage", "check_homology_formula"),
    ("decalage.check_leta_mod_f_is_bockstein", "aomega.decalage", "check_leta_mod_f_is_bockstein"),
    ("decalage.check_composition", "aomega.decalage", "check_composition"),
    ("intlinalg.column_echelon", "aomega.intlinalg", "column_echelon"),
    ("intlinalg.solve_int", "aomega.intlinalg", "solve_int"),
    ("intlinalg.snf_divisors", "aomega.intlinalg", "snf_divisors"),
    ("witt.teichmuller_digits", "aomega.witt", "teichmuller_digits"),
    ("witt.frobenius_fixed_points", "aomega.witt", "frobenius_fixed_points"),
]

# calls that are only counted
COUNTED = [
    ("ainf.OCModelElement.is_unit", "aomega.ainf", "OCModelElement.is_unit"),
    ("ainf.OCModel.reduce", "aomega.ainf", "OCModel.reduce"),
    ("arith.laurent_gcd", "aomega.arith", "laurent_gcd"),
    ("arith.LaurentElement.new", "aomega.arith", "LaurentElement.__init__"),
    ("complexes.OCRing.mul", "aomega.complexes", "OCRing.mul"),
    ("complexes.LaurentRing.mul", "aomega.complexes", "LaurentRing.mul"),
    ("complexes.FpPolyRing.mul", "aomega.complexes", "FpPolyRing.mul"),
]

# the stages of `torus all`; their spans must cover the command
STAGES = {
    "torus.ainf_omega_torus",
    "torus.tilde_omega_torus",
    "torus.specialize_hodge_tate",
    "torus.specialize_de_rham",
    "torus.etale_rank_torus",
    "torus.torus_semicontinuity",
    "qderham.compare_with_torus_pipeline",
}

# the `torus` lru_caches: cleared before each command, so that it runs as
# cold as in a fresh CLI process
LRU_CACHES = ["_fractional_outcome", "_verified_q_analog", "_root_power_divides"]

COMMAND = "cli.main"

# span-derived metrics reported per workload: (name, kind)
SPAN_METRICS = [
    ("ainf.OCModelElement.inverse_rational", ("calls", "time_s")),
    ("ainf.OCModelElement.exact_div", ("calls", "time_s")),
    ("ainf.OCModelElement.mul", ("calls", "time_s")),
    ("ainf.check_notation_identities", ("time_s",)),
    ("arith.laurent_exact_div", ("calls", "time_s")),
    ("complexes.koszul", ("calls", "time_s")),
    ("complexes.ChainComplex", ("calls", "time_s")),
    ("complexes.homology_snf", ("calls", "time_s")),
    ("torus.ainf_omega_torus", ("calls", "self_s")),
    ("torus.tilde_omega_torus", ("self_s",)),
    ("torus.specialize_hodge_tate", ("self_s",)),
    ("torus.specialize_de_rham", ("self_s",)),
    ("torus.etale_rank_torus", ("self_s",)),
    ("torus.torus_semicontinuity", ("self_s",)),
    ("torus.generic_fibre_ranks", ("calls", "time_s")),
    ("qderham.compare_with_torus_pipeline", ("self_s",)),
    ("qderham.q_de_rham_complex", ("time_s",)),
    ("decalage.eta_subcomplex", ("calls", "time_s")),
    ("decalage.leta_koszul", ("calls", "time_s")),
    ("decalage.check_homology_formula", ("time_s",)),
    ("decalage.check_leta_mod_f_is_bockstein", ("time_s",)),
    ("decalage.check_composition", ("time_s",)),
    ("intlinalg.column_echelon", ("calls", "time_s")),
    ("intlinalg.solve_int", ("calls", "time_s")),
    ("intlinalg.snf_divisors", ("calls", "time_s")),
    ("witt.teichmuller_digits", ("calls", "time_s")),
    ("witt.frobenius_fixed_points", ("time_s",)),
    ("suites.run_suite", ("self_s",)),
    ("cli.emit", ("time_s",)),
]

# counts kept by the tracer besides span and call counts
TORUS_COUNTS = ["torus.cells_explicit", "torus.classes_aggregated", "torus.kill_by_division", "torus.kill_by_order_calculus"]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, command id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.command = -1

    def spanned(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observe_torus_result(self, result) -> None:
        """Explicit cells, aggregated classes and the route that certified
        each dead cell, read off a stage result."""
        self.counts["torus.cells_explicit"] += len(result.cells)
        self.counts["torus.classes_aggregated"] += len(result.classes)
        for cell in result.all_cells():
            route = cell.certificates.get("verified") or cell.certificates.get("deeper_kill")
            if route == "division":
                self.counts["torus.kill_by_division"] += 1
            elif route == "order-calculus":
                self.counts["torus.kill_by_order_calculus"] += 1


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every target where it is looked up.

    Methods are replaced on their class.  A module-level function is
    replaced in every `aomega` module that binds it, because `aomega.cli`
    and `aomega.suites` import the functions by name.
    """
    importlib.import_module("aomega.cli")
    packages = [m for name, m in sys.modules.items() if name == "aomega" or name.startswith("aomega.")]
    observed = {"torus.ainf_omega_torus", "torus.tilde_omega_torus"}
    targets = [(name, module, path, True) for name, module, path in SPANNED]
    targets += [(name, module, path, False) for name, module, path in COUNTED]
    for name, module_name, path, spanned in targets:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        if spanned:
            hook = tracer.observe_torus_result if name in observed else None
            wrapper = tracer.spanned(name, original, hook)
        else:
            wrapper = tracer.counted(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in packages:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def self_times(spans) -> dict[str, float]:
    """Per name: span durations minus the time their child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Per name: the summed duration of the spans with no ancestor of the
    same name, so that recursion is not counted twice."""
    out: dict[str, float] = {}
    for name, start, end, parent, _ in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def stage_coverage(spans) -> dict[int, float]:
    """Share of each command span's duration covered by stage spans."""
    commands = {}
    intervals: dict[int, list] = {}
    for name, start, end, _, command in spans:
        if name == COMMAND:
            commands[command] = (start, end)
        elif name in STAGES:
            intervals.setdefault(command, []).append((start, end))
    out = {}
    for command, (start, end) in commands.items():
        covered, reach = 0.0, start
        for lo, hi in sorted(intervals.get(command, [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[command] = covered / (end - start)
    return out


def _run_command(main, argv: list[str], caches) -> tuple[int, bytes]:
    for cache in caches:
        cache.cache_clear()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code or 0, buffer.getvalue().encode()


def trace_commands(command_lines: list[list[str]]) -> dict:
    """Trace the commands in this process and return their metrics."""
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("aomega.cli")
    torus = importlib.import_module("aomega.torus")
    caches = [getattr(torus, name) for name in LRU_CACHES]
    lookups = Counter()
    main = tracer.spanned(COMMAND, cli.main)
    results = []
    for command, argv in enumerate(command_lines):
        tracer.command = command
        code, out = _run_command(main, argv, caches)
        for name, cache in zip(LRU_CACHES, caches):
            info = cache.cache_info()
            lookups[name, "hits"] += info.hits
            lookups[name, "misses"] += info.misses
        results.append({"argv": argv, "returncode": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)})
    spans = tracer.spans
    for span in spans:
        if span[0] == COMMAND:
            results[span[4]]["wall_s"] = span[2] - span[1]
    coverage = stage_coverage(spans)
    for command, result in enumerate(results):
        if result["argv"][:2] == ["torus", "all"]:
            result["stage_coverage"] = coverage[command]
    return {
        "commands": results,
        "metrics": layer_metrics(spans, tracer.counts, lookups, sum(r["bytes"] for r in results)),
        "spans": spans,
    }


def layer_metrics(spans, counts: Counter, lookups: Counter, report_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""
    calls = Counter(span[0] for span in spans)
    selfs = self_times(spans)
    inclusive = inclusive_times(spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name, kinds in SPAN_METRICS:
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = (calls[name], "count")
            elif kind == "time_s":
                metrics[f"{name}.time_s"] = (inclusive.get(name, 0.0), "s")
            else:
                metrics[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    for name, _, _ in COUNTED:
        metrics[f"{name}.calls"] = (counts[name], "count")
    for name in TORUS_COUNTS:
        metrics[name] = (counts[name], "count")
    for name in LRU_CACHES:
        hits, misses = lookups[name, "hits"], lookups[name, "misses"]
        metrics[f"torus.{name}.lookups"] = (hits + misses, "count")
        metrics[f"torus.{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["cli.report_bytes"] = (report_bytes, "bytes")
    return metrics


def write_spans(path: str, spans) -> None:
    """Tab-separated: name, start, end, parent span index, command id."""
    with open(path, "w") as fh:
        for name, start, end, parent, command in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{command}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, help="JSON list of aomega argument lists")
    parser.add_argument("--spans", default=None, help="write every span to this file, one a line")
    args = parser.parse_args(argv)
    traced = trace_commands(json.loads(args.commands))
    if args.spans:
        write_spans(args.spans, traced["spans"])
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["metrics"].items()}
    print(json.dumps({"commands": traced["commands"], "metrics": metrics, "span_count": len(traced["spans"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
