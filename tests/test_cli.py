"""CLI surface: exit codes, report determinism, round trips."""

import json
import os
import subprocess
import sys

import pytest

from aomega import cli, complexes, suites, torus
from aomega.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, build_parser, main
from aomega.complexes import NOT_STRUCTURED
from aomega.suites import SessionConfig, run_suite


def run_cli(args, stdin_text=None, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "aomega.cli"] + args,
        input=stdin_text,
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )
    return proc


def test_help_everywhere():
    for args in (["--help"], ["torus", "--help"], ["torus", "run", "--help"], ["suite", "run", "--help"]):
        proc = run_cli(args)
        assert proc.returncode == 0
        assert "--" in proc.stdout or "usage" in proc.stdout


def test_unknown_flag_is_usage_error():
    proc = run_cli(["ainf", "verify", "--nonsense", "1"])
    assert proc.returncode == 2


def test_invalid_config_is_usage_error():
    proc = run_cli(["ainf", "verify", "--p", "4"])
    assert proc.returncode == 2
    proc = run_cli(["torus", "run", "--p", "3", "--dim", "9", "--stage", "tilde"])
    assert proc.returncode == 2


def test_ainf_verify_passes():
    proc = run_cli(["ainf", "verify", "--p", "3", "--depth", "2"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True


def test_witt_digits_round_trip():
    element = {"p": 3, "precision": 2, "terms": [[[0, 1], "8"]]}
    proc = run_cli(["witt", "digits", "--p", "3", "--precision", "2"], stdin_text=json.dumps(element))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["digits"][0]["terms"] == [[[0, 1], "2"]]
    assert payload["digits"][1]["terms"] == []


def test_leta_apply_stream():
    complex_json = {"ring": "Z", "lo": 0, "ranks": [1, 1], "diffs": [["9"]]}
    proc = run_cli(["leta", "apply", "--f", "3"], stdin_text=json.dumps(complex_json))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["diffs"] == [["3"]]
    proc2 = run_cli(["leta", "apply", "--f", "0"], stdin_text=json.dumps(complex_json))
    assert proc2.returncode == 2
    assert "error:" in proc2.stderr and "Traceback" not in proc2.stderr


def test_dd_failure_inside_a_stage_is_an_internal_error(monkeypatch, capsys, fresh_tables):
    # one sign flipped in the Koszul placement: in dimension 2 its d o d
    # proof fails inside the dr stage, which is neither a failed check nor a
    # usage error
    from test_mutations import flipped_sign

    real = complexes._koszul_placement
    monkeypatch.setattr(complexes, "_koszul_placement", lambda d: flipped_sign(real(d)))
    with pytest.raises(SystemExit) as exc:
        main(["torus", "run", "--stage", "dr", "--p", "3", "--dim", "2", "--bound", "1", "--out", "-"])
    assert exc.value.code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "d o d != 0 in the Koszul placement table" in err
    assert "Traceback" not in err


def test_witt_digits_mismatch_is_usage_error():
    element = {"p": 3, "precision": 2, "terms": [[[0, 1], "8"]]}
    proc = run_cli(["witt", "digits", "--p", "5", "--precision", "2"], stdin_text=json.dumps(element))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [["leta", "apply", "--f", "3"], ["witt", "digits", "--p", "3", "--precision", "2"]])
def test_unreadable_input_file_is_usage_error(args, tmp_path):
    proc = run_cli(args + ["--in", str(tmp_path / "missing.json")])
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args,payload", [
    (["leta", "apply", "--f", "3"], [1]),
    (["leta", "apply", "--f", "3"], {"ring": "Z", "lo": 0, "ranks": [1, 1, 1], "diffs": [["9"]]}),
    (["leta", "apply", "--f", "3"], {"ring": "Z/0", "lo": 0, "ranks": [1, 1], "diffs": [["9"]]}),
    (["witt", "digits", "--p", "3", "--precision", "2"], {"terms": 5}),
    (["witt", "digits", "--p", "3", "--precision", "2"], {"p": 3, "precision": 2, "terms": [[[0, 0], "8"]]}),
    (["witt", "digits", "--p", "3", "--precision", "2"], {"p": 1, "precision": 2, "terms": []}),
    (["witt", "digits", "--p", "3", "--precision", "2"], 5),
    # read over Z only, and d o d = 0 is part of being a complex
    (["leta", "apply", "--f", "3"], {"ring": "Z/5", "lo": 0, "ranks": [1, 1], "diffs": [["9"]]}),
    (["leta", "apply", "--f", "3"], {"ring": "Z", "lo": 0, "ranks": [1, 1, 1], "diffs": [["2"], ["3"]]}),
    # JSON true is no integer, although Python's bool is an int
    (["leta", "apply", "--f", "3"], {"ring": "Z", "lo": True, "ranks": [1, 1], "diffs": [["9"]]}),
    (["leta", "apply", "--f", "3"], {"ring": "Z", "lo": 0, "ranks": [1, 1], "diffs": [[True]]}),
    (["witt", "digits", "--p", "3", "--precision", "2"], {"value": True}),
    (["witt", "digits", "--p", "3", "--precision", "1"], {"p": 3, "precision": True, "terms": [[[1, 3], True]]}),
    (["witt", "digits", "--p", "3", "--precision", "2"], {"p": 3, "precision": 2, "terms": [[[1, 3], True]]}),
])
def test_wrong_input_shape_is_usage_error(args, payload, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    for proc in (run_cli(args + ["--in", str(path)]), run_cli(args, stdin_text=json.dumps(payload))):
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [["--suite", "witt"], ["--suite", "s4"], ["--suite", "s5-leta", "--instances", "-1"]],
                         ids=["suite-without-instances", "alias-without-instances", "negative-instances"])
def test_leta_verify_refuses_what_it_cannot_run(args):
    # only suites that take a number of instances run under `leta verify`,
    # and that number cannot be negative
    proc = run_cli(["leta", "verify", *args])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_torus_run_stages():
    for stage in ("tilde", "ainf", "dr", "ht", "etale", "semicont"):
        proc = run_cli(["torus", "run", "--p", "2", "--depth", "1", "--dim", "1",
                        "--bound", "1", "--stage", stage])
        assert proc.returncode == 0, (stage, proc.stderr)
        json.loads(proc.stdout)


def test_qderham_commands():
    proc = run_cli(["qderham", "table", "--p", "3", "--dim", "1", "--bound", "2"])
    assert proc.returncode == 0
    proc = run_cli(["qderham", "compare", "--p", "2", "--dim", "1", "--bound", "2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_reports_byte_identical():
    args = ["suite", "run", "--suite", "s4-torus-decomp", "--p", "3", "--seed", "99"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_closed_stdout_exits_quietly():
    # the report (about 185 kB) outgrows a pipe buffer, so some write meets
    # the closed read end however fast the child is
    proc = subprocess.Popen(
        [sys.executable, "-m", "aomega.cli", "torus", "run", "--stage", "ainf",
         "--p", "3", "--depth", "1", "--dim", "2", "--bound", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE
    assert err == b""


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    def broken(model, grading):
        raise AssertionError("injected invariant failure")

    monkeypatch.setattr(torus, "_oc_cell_outcome", broken)
    with pytest.raises(SystemExit) as exc:
        main(["torus", "run", "--stage", "tilde", "--p", "2", "--out", "-"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "injected" in err
    assert "Traceback" not in err


def test_etale_exits_3_when_the_rank_rule_and_elimination_disagree(monkeypatch, capsys):
    # a rule that gives every Koszul cell zero ranks: elimination, which
    # takes the zero-weight tuple first, finds the exterior ranks there
    monkeypatch.setattr(torus, "_koszul_ranks", lambda k, zero, unit: [0] * (k + 1))
    with pytest.raises(SystemExit) as exc:
        main(["torus", "run", "--stage", "etale", "--p", "3", "--depth", "2", "--dim", "2", "--bound", "2",
              "--out", "-"])
    assert exc.value.code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "differ by elimination" in err
    assert "Traceback" not in err


def test_s4_reports_unstructured_decomposition_as_failure(monkeypatch):
    monkeypatch.setattr(suites, "koszul_to_diagonal", lambda ring, weights: NOT_STRUCTURED)
    report = run_suite("s4-torus-decomp", SessionConfig(p=3, seed=0))
    checks = {name: ok for name, ok, _ in report.checks}
    assert checks["koszul-to-diagonal-vs-oracle"] is False
    assert not report.passed


def test_report_determinism_in_process(capsys):
    cfg = SessionConfig(p=3, seed=123)
    r1 = run_suite("s4-torus-decomp", cfg)
    r2 = run_suite("s4-torus-decomp", cfg)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
    # a report carries no wall-clock time, and no flag asks for it
    assert "elapsed" not in json.dumps(r1.to_json())
    for argv in (["suite", "run", "--suite", "s4"], ["leta", "verify"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--timings"])
        assert exc.value.code == 2 and "unrecognized arguments: --timings" in capsys.readouterr().err


def test_out_file_and_env_dir(tmp_path):
    env = {"AOMEGA_OUT": str(tmp_path)}
    proc = run_cli(
        ["ainf", "verify", "--p", "2", "--depth", "1", "--out", "report.json"], env=env
    )
    assert proc.returncode == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["passed"] is True


def test_out_into_missing_directory_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_cli(["torus", "run", "--stage", "tilde", "--out", str(target)])
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not target.parent.exists()


def test_suite_exit_code_zero_on_pass():
    proc = run_cli(["suite", "run", "--suite", "s8-semicontinuity", "--p", "2", "--seed", "5"])
    assert proc.returncode == 0


def test_main_entry_point_directly():
    assert main(["ainf", "verify", "--p", "2", "--depth", "1", "--out", "-"]) == 0


@pytest.mark.parametrize("argv", [
    ["ainf", "verify"], ["torus", "all"], ["qderham", "table"], ["qderham", "compare"],
    ["leta", "verify", "--instances", "0"], ["suite", "run", "--suite", "s8"],
], ids=" ".join)
def test_omitted_flags_echo_the_default_config(argv, capsys):
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    default = SessionConfig().to_json()
    if argv[0] == "ainf":  # it echoes p, depth and seed only
        default = {k: default[k] for k in ("p", "depth", "seed")}
        payload["config"] = {k: payload[k] for k in default}
    assert payload["config"] == default


def test_session_config_limits():
    with pytest.raises(ValueError):
        SessionConfig(p=15)
    with pytest.raises(ValueError):
        SessionConfig(p=3, dim=5)
    with pytest.raises(ValueError):
        SessionConfig(p=3, bound=9)
    with pytest.raises(ValueError):
        SessionConfig(p=3, precision=5)


# the function each command line runs, by (command, subcommand)
FUNCS = {
    ("ainf", "verify"): cli.cmd_ainf_verify,
    ("witt", "digits"): cli.cmd_witt_digits,
    ("leta", "apply"): cli.cmd_leta_apply,
    ("leta", "verify"): cli.cmd_leta_verify,
    ("torus", "run"): cli.cmd_torus_run,
    ("torus", "all"): cli.cmd_torus_all,
    ("qderham", "table"): cli.cmd_qderham_table,
    ("qderham", "compare"): cli.cmd_qderham_compare,
    ("suite", "run"): cli.cmd_suite_run,
}


def test_parser_of_a_command_line_reads_it_as_the_whole_tree_does():
    from test_reachability import COMMANDS, FILE_COMMANDS

    argvs = COMMANDS + [argv + ["--in", "x.json"] for argv, _ in FILE_COMMANDS]
    assert {tuple(argv[:2]) for argv in argvs} == set(FUNCS)
    whole = build_parser()
    for argv in argvs:
        args = build_parser(argv).parse_args(argv)
        assert args.func is FUNCS[argv[0], argv[1]], argv
        # every option given, by its value; the defaults as the whole tree has them
        for flag, value in zip(argv[2::2], argv[3::2]):
            dest = {"--in": "infile"}.get(flag, flag[2:])
            assert getattr(args, dest) == (int(value) if value.isdigit() else value), (argv, flag)
        assert vars(args) == vars(whole.parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["tor"], ["torus"], ["torus", "bogus"], ["torus", "al"], ["torus", "run"],
    ["torus", "all", "--bogus", "1"], ["torus", "all", "extra"], ["torus", "run", "--stage", "x"],
    ["torus", "all", "--p", "x"], ["leta", "apply"], ["suite", "run", "--suite", "nope"], ["witt"],
])
def test_usage_errors_read_as_with_the_whole_tree(argv, capsys):
    messages = []
    for parser in (build_parser(argv), build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        messages.append((exc.value.code, capsys.readouterr().err))
    assert messages[0] == messages[1] and messages[0][0] == 2


def test_no_state_leaks_from_one_command_to_the_next(capsys):
    # the residue-deep pair, in the order a traced run makes them, with no
    # cache cleared in between: each report equals a fresh process's
    argvs = [["torus", "all", "--p", str(p), "--depth", "2", "--dim", "2", "--bound", "8"] for p in (13, 11)]
    for argv in argvs:
        assert main(argv) == 0
        in_process = capsys.readouterr().out
        fresh = run_cli(argv)
        assert fresh.returncode == 0 and in_process == fresh.stdout, argv
