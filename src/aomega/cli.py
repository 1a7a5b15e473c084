"""Command-line interface.

Subcommands mirror the library layers: `ainf verify` runs the
distinguished-element identity checks, `witt digits` converts a Witt
element to its multiplicative digits, `leta apply` / `leta verify` expose
the decalage lattice track, `torus run` / `torus all` drive the graded
pipelines and their specializations, `qderham table` / `qderham compare`
the q-derivative complex, and `suite run` the named verification suites.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error,
3 internal error (an invariant inside the library broke: an
`internal error:` line on stderr, no traceback), 141 (128 + SIGPIPE, as a
shell reports it) stdout closed by its reader before the whole report was
written.
Reports are JSON on stdout (or --out); given the same flags and seed the
bytes are identical run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .ainf import AinfModel, check_notation_identities
from .complexes import ChainComplex, homology_snf, matrices_to_json
from .decalage import eta_subcomplex
from .qderham import compare_with_torus_pipeline, q_de_rham_complex, q_to_one
from .suites import LIMITS, SUITE_ALIASES, SUITES, SessionConfig, jsonable, run_suite
from .torus import (
    GradingBox,
    ainf_omega_torus,
    etale_rank_torus,
    grading_key,
    specialize_de_rham,
    specialize_hodge_tate,
    tilde_omega_torus,
    torus_semicontinuity,
)
from .witt import TruncatedWittElement, teichmuller_digits

OUTPUT_DIR_ENV = "AOMEGA_OUT"
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141
# the suites `leta verify` runs: those whose size --instances sets, and their aliases
LETA_SUITES = ["s5-leta", "s8-semicontinuity", "s5", "s8"]
# the help text of each `SessionConfig` field's flag
CONFIG_FLAGS = {"p": "prime", "depth": "model depth n", "dim": "torus dimension d", "bound": "grading box bound B",
                "precision": "Witt length m", "seed": "seed echoed in the report"}


def _out_path(out: str | None) -> str | None:
    """The file a report goes to, or None for stdout."""
    if out is None or out == "-":
        return None
    base = os.environ.get(OUTPUT_DIR_ENV, ".")
    return out if os.path.isabs(out) else os.path.join(base, out)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    path = _out_path(out)
    if path is None:
        print(text)
        return
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _read_json(path: str | None):
    """The JSON document in the file at path, or on stdin when path is None."""
    try:
        with open(path) if path else contextlib.nullcontext(sys.stdin) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}") from None


def _is_int(x) -> bool:
    """An int that is not a bool: JSON `true` is no integer."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list(x, of) -> bool:
    return isinstance(x, list) and all(isinstance(v, of) and not isinstance(v, bool) for v in x)


def _check_complex_json(obj) -> None:
    """Refuse JSON without the shape `ChainComplex.to_json` writes."""
    ranks = obj.get("ranks") if isinstance(obj, dict) else None
    if not (
        _is_list(ranks, int) and ranks and min(ranks) >= 0
        and isinstance(obj.get("ring"), str) and _is_int(obj.get("lo"))
        and isinstance(obj.get("diffs"), list) and len(obj["diffs"]) == len(ranks) - 1
        and all(_is_list(d, (int, str)) and len(d) == ranks[k] * ranks[k + 1] for k, d in enumerate(obj["diffs"]))
    ):
        raise ValueError('input is not a complex: {"ring", "lo", "ranks": [...], "diffs": [[d_k row-major], ...]}')


def _check_witt_json(obj) -> None:
    """Refuse JSON that is neither {"value": n} nor of the shape `TruncatedWittElement.to_json` writes."""
    if isinstance(obj, dict) and "terms" not in obj:
        ok = _is_int(obj.get("value")) or isinstance(obj.get("value"), str)
    else:
        terms = obj.get("terms") if isinstance(obj, dict) else None
        ok = isinstance(terms, list) and _is_int(obj.get("p")) and _is_int(obj.get("precision")) and all(
            isinstance(t, list) and len(t) == 2 and _is_list(t[0], int) and len(t[0]) == 2 and t[0][1] > 0
            and (_is_int(t[1]) or isinstance(t[1], str))
            for t in terms
        )
    if not ok:
        raise ValueError('input is not a Witt element: {"p", "precision", "terms": [[[num, den], c], ...]} or {"value": n}')


def _config_from_args(args) -> SessionConfig:
    """The config of the flags given; an omitted flag keeps `SessionConfig`'s default."""
    return SessionConfig(**{name: getattr(args, name) for name in CONFIG_FLAGS if hasattr(args, name)})


def _add_common(parser, flags=("dim", "bound")):
    """--p, --depth, the other config flags named in `flags`, --seed and --out."""
    for name in ("p", "depth", *flags):
        parser.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS,
                            help=f"{CONFIG_FLAGS[name]} (<= {LIMITS[name]})")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=CONFIG_FLAGS["seed"])
    parser.add_argument("--out", default=None, help="output path (default stdout; relative paths join $AOMEGA_OUT)")


def cmd_ainf_verify(args) -> int:
    config = _config_from_args(args)
    model = AinfModel(config.p, config.depth)
    results = check_notation_identities(model, seed=config.seed)
    payload = {
        "command": "ainf verify",
        "p": config.p,
        "depth": config.depth,
        "seed": config.seed,
        "identities": [
            {"name": r.name, "passed": r.passed, "detail": r.detail if not r.passed else {}}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(payload, args.out)
    return 0 if payload["passed"] else 1


def cmd_witt_digits(args) -> int:
    config = _config_from_args(args)
    raw = _read_json(args.infile)
    _check_witt_json(raw)
    if "terms" not in raw:
        w = TruncatedWittElement.constant(config.p, config.precision, int(raw["value"]))
    elif (raw["p"], raw["precision"]) != (config.p, config.precision):
        raise ValueError("input element does not match --p/--precision")
    else:
        w = TruncatedWittElement.from_json(raw)
    digits = teichmuller_digits(w)
    payload = {
        "command": "witt digits",
        "p": w.p,
        "precision": w.precision,
        "digits": [{"terms": d.to_json()["terms"]} for d in digits],
    }
    _emit(payload, args.out)
    return 0


def cmd_leta_apply(args) -> int:
    if args.f == 0:
        raise ValueError("--f must be nonzero")
    obj = _read_json(args.infile)
    _check_complex_json(obj)
    try:
        K = ChainComplex.from_json(obj)
    except AssertionError as exc:
        # d o d != 0 in the input is bad input, not a broken invariant
        raise ValueError(f"input is not a complex: {exc}") from None
    out = eta_subcomplex(K, args.f)
    _emit(out.to_json(), args.out)
    return 0


def cmd_leta_verify(args) -> int:
    if args.instances < 0:
        raise ValueError("--instances must be nonnegative")
    config = _config_from_args(args)
    report = run_suite(args.suite, config, instances=args.instances)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_torus_run(args) -> int:
    config = _config_from_args(args)
    model = AinfModel(config.p, config.depth)
    box = GradingBox(config.dim, config.depth, config.bound)
    stage = args.stage
    passed = True
    if stage == "tilde":
        payload = tilde_omega_torus(model, box).to_json()
    elif stage == "ainf":
        payload = ainf_omega_torus(model, box).to_json()
    elif stage == "dr":
        payload = specialize_de_rham(ainf_omega_torus(model, box))
        passed = payload["passed"]
    elif stage == "ht":
        payload = specialize_hodge_tate(ainf_omega_torus(model, box))
        passed = payload["passed"]
    elif stage == "etale":
        payload = jsonable(etale_rank_torus(ainf_omega_torus(model, box)))
    else:  # semicont; argparse refuses any other stage
        payload = jsonable(torus_semicontinuity(ainf_omega_torus(model, box)))
        passed = payload["inequality_holds"]
    _emit(payload, args.out)
    return 0 if passed else 1


def cmd_torus_all(args) -> int:
    config = _config_from_args(args)
    model = AinfModel(config.p, config.depth)
    box = GradingBox(config.dim, config.depth, config.bound)
    ares = ainf_omega_torus(model, box)
    tilde = tilde_omega_torus(model, box)
    ht = specialize_hodge_tate(ares)
    dr = specialize_de_rham(ares)
    et = etale_rank_torus(ares)
    sc = torus_semicontinuity(ares)
    qc = compare_with_torus_pipeline(model, config.dim, config.bound, ares)
    passed = ht["passed"] and dr["passed"] and sc["inequality_holds"] and sc["equality_with_binomials"] and qc["passed"]
    payload = {
        "command": "torus all",
        "config": config.to_json(),
        "tilde_rank_table": {str(i): r for i, r in tilde.rank_table().items()},
        "hodge_tate_passed": ht["passed"],
        "de_rham_passed": dr["passed"],
        "etale_rank_table": {str(i): r for i, r in et["rank_table"].items()},
        "semicontinuity": jsonable(sc),
        "q_de_rham_passed": qc["passed"],
        "passed": passed,
    }
    _emit(payload, args.out)
    return 0 if passed else 1


def cmd_qderham_table(args) -> int:
    config = _config_from_args(args)
    model = AinfModel(config.p, config.depth)
    blocks = q_de_rham_complex(model, config.dim, config.bound)
    cells = {}
    for m, block in blocks.items():
        cells[grading_key(m, 1)] = {
            "q_weights": matrices_to_json(block.ring, block.diffs),
            "classical_homology": homology_snf(q_to_one(block)).to_json(),
        }
    _emit({"command": "qderham table", "config": config.to_json(), "cells": cells}, args.out)
    return 0


def cmd_qderham_compare(args) -> int:
    config = _config_from_args(args)
    model = AinfModel(config.p, config.depth)
    report = compare_with_torus_pipeline(model, config.dim, config.bound)
    payload = {
        "command": "qderham compare",
        "config": config.to_json(),
        "passed": report["passed"],
        "cells": {k: v["passed"] for k, v in report["cells"].items()},
    }
    _emit(payload, args.out)
    return 0 if report["passed"] else 1


def cmd_suite_run(args) -> int:
    config = _config_from_args(args)
    report = run_suite(args.suite, config)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def _args_witt_digits(p):
    _add_common(p, ("precision",))
    p.add_argument("--in", dest="infile", default=None, help="input JSON path (default stdin)")


def _args_leta_apply(p):
    p.add_argument("--f", type=int, required=True, help="the nonzero divisor")
    p.add_argument("--in", dest="infile", default=None, help="input JSON path (default stdin)")
    p.add_argument("--out", default=None)


def _args_leta_verify(p):
    p.add_argument("--suite", default="s5-leta", choices=LETA_SUITES)
    p.add_argument("--instances", type=int, default=200)
    _add_common(p, ())


def _args_torus_run(p):
    _add_common(p)
    p.add_argument("--stage", required=True, choices=["tilde", "ainf", "dr", "ht", "etale", "semicont"])


def _args_suite_run(p):
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + sorted(SUITE_ALIASES))
    _add_common(p, ("dim", "bound", "precision"))


# command -> (help, {subcommand: (help, adds its arguments, runs it)})
COMMANDS = {
    "ainf": ("cyclotomic model checks", {
        "verify": ("verify the distinguished-element identities", lambda p: _add_common(p, ()),
                   cmd_ainf_verify),
    }),
    "witt": ("truncated Witt vectors", {
        "digits": ("multiplicative digits of a Witt element (JSON on stdin)", _args_witt_digits, cmd_witt_digits),
    }),
    "leta": ("decalage on integer complexes", {
        "apply": ("apply the subcomplex construction to complex.json on stdin", _args_leta_apply, cmd_leta_apply),
        "verify": ("run a verification suite", _args_leta_verify, cmd_leta_verify),
    }),
    "torus": ("graded torus pipelines", {
        "run": ("run one pipeline stage", _args_torus_run, cmd_torus_run),
        "all": ("full pipeline with cross-checks", _add_common, cmd_torus_all),
    }),
    "qderham": ("q-de Rham complex of the torus", {
        "table": ("per-monomial weight and homology tables", _add_common, cmd_qderham_table),
        "compare": ("compare against the graded pipeline", _add_common, cmd_qderham_compare),
    }),
    "suite": ("verification suites", {
        "run": ("run a named suite", _args_suite_run, cmd_suite_run),
    }),
}


def _add_choices(parser, dest: str, choices: dict, argv: list) -> None:
    """The subparsers of `choices` under `parser`: only the one that argv[0]
    names, or all of them when it names none.  The metavar lists every
    choice, so usage lines and messages read as with the whole tree."""
    names = list(choices)
    picked = [argv[0]] if argv and argv[0] in choices else names
    metavar = None if picked == names else "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name in picked:
        entry = choices[name]
        child = sub.add_parser(name, help=entry[0])
        if isinstance(entry[1], dict):
            _add_choices(child, "subcommand", entry[1], argv[1:] if picked != names else [])
        else:
            entry[1](child)
            child.set_defaults(func=entry[2])


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the command line argv, or of every command when argv is
    None: a command line builds the subcommand it names and no other."""
    parser = argparse.ArgumentParser(
        prog="aomega",
        description="Exact-arithmetic desk models: cyclotomic period rings, the "
        "decalage construction, Koszul complexes, truncated Witt vectors, and "
        "the q-de Rham complex of the torus.",
    )
    _add_choices(parser, "command", COMMANDS, argv or [])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    path = _out_path(getattr(args, "out", None))
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        # refuse before any work: the report could not be written
        parser.exit(2, f"error: output directory of {path!r} does not exist\n")
    if path is not None and os.path.isdir(path):
        parser.exit(2, f"error: output file {path!r} is a directory\n")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): send the rest of stdout, and the
        # flush at exit, to the null device instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, KeyError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except AssertionError as exc:
        # a broken library invariant is neither a failed check nor bad input
        parser.exit(EXIT_INTERNAL, f"internal error: {exc!r}\n")


if __name__ == "__main__":
    sys.exit(main())
