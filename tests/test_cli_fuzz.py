"""Fuzz of the CLI boundary: JSON inputs and numeric flags.

Every command line below runs in process.  The documented contract is exit
0 (the checks passed) or 2 (a usage error, one `error:` line on stderr);
any other exception escapes `main` and fails the test, as a traceback
would.  Numeric flags are drawn only outside their accepted ranges, so no
accepted configuration, some of which run for minutes, is ever started.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aomega.cli import main
from aomega.suites import LIMITS, SMALL_PRIMES, SessionConfig

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run(argv) -> tuple[int, str]:
    """Exit code and stderr of one command line run in process."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def run_on(path, argv, obj) -> tuple[int, str]:
    path.write_text(json.dumps(obj))
    return run([*argv, "--in", str(path)])


def assert_usage_error(code, err):
    assert code == 2 and err.startswith("error:") and "Traceback" not in err, (code, err)


@pytest.fixture(scope="module")
def infile(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.json"


LETA_APPLY = ["leta", "apply", "--f", "3"]
WITT_DIGITS = ["witt", "digits", "--p", "3", "--precision", "2"]

scalars = st.none() | st.booleans() | st.integers(-20, 20) | st.sampled_from(["", "Z", "7", "-3", "x", "1/3"])
json_values = st.recursive(scalars, lambda kids: st.lists(kids, max_size=4)
                           | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=10)


def near(keys):
    """Objects over the keys an input reads, each value anything."""
    return st.dictionaries(st.sampled_from(keys), json_values, max_size=len(keys))


complexes = st.builds(
    lambda lo, ranks, entries: {"ring": "Z", "lo": lo, "ranks": ranks,
                                "diffs": [entries[: a * b] for a, b in zip(ranks, ranks[1:])]},
    st.integers(-3, 3), st.lists(st.integers(0, 3), min_size=1, max_size=3), st.lists(st.integers(-9, 9), max_size=9),
)


def witt_elements(min_size=0):
    """Elements over p = 3 at precision 2 with integer coefficients."""
    terms = st.tuples(st.integers(0, 9), st.sampled_from([1, 3, 9]), st.integers(-30, 30))
    return st.builds(lambda ts: {"p": 3, "precision": 2, "terms": [[[n, d], c] for n, d, c in ts]},
                     st.lists(terms, min_size=min_size, max_size=3))


@FUZZ
@given(obj=json_values | near(["ring", "lo", "ranks", "diffs"]) | complexes)
def test_leta_apply_input_is_a_report_or_a_usage_error(infile, obj):
    code, err = run_on(infile, LETA_APPLY, obj)
    assert code == 0 or (code == 2 and err.startswith("error:")), (obj, code, err)


@FUZZ
@given(obj=json_values | near(["value", "p", "precision", "terms"]) | witt_elements())
def test_witt_digits_input_is_a_report_or_a_usage_error(infile, obj):
    code, err = run_on(infile, WITT_DIGITS, obj)
    assert code == 0 or (code == 2 and err.startswith("error:")), (obj, code, err)


def integer_paths(obj, path=()):
    """The path of every integer inside a JSON value."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, int):
        yield path
    elif isinstance(obj, (list, dict)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from integer_paths(value, (*path, key))


def with_true_at(obj, path):
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = True
    return obj


# valid inputs: a two-term complex (any matrix squares to zero), a Witt
# constant, and a Witt element with integer coefficients
valid_complexes = st.builds(
    lambda lo, r0, r1, entries: {"ring": "Z", "lo": lo, "ranks": [r0, r1], "diffs": [entries[: r0 * r1]]},
    st.integers(-3, 3), st.integers(1, 2), st.integers(1, 2), st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
valid_witts = st.builds(lambda n: {"value": n}, st.integers(-30, 30)) | witt_elements(min_size=1)


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("argv,valid", [(LETA_APPLY, valid_complexes), (WITT_DIGITS, valid_witts)],
                         ids=["leta-apply", "witt-digits"])
def test_one_integer_replaced_by_true_is_a_usage_error(infile, data, argv, valid):
    obj = data.draw(valid)
    assert run_on(infile, argv, obj)[0] == 0
    path = data.draw(st.sampled_from(list(integer_paths(obj))))
    assert_usage_error(*run_on(infile, argv, with_true_at(obj, path)))


def outside(lo, hi):
    return st.integers(max_value=lo - 1) | st.integers(min_value=hi + 1)


# every numeric flag, drawn outside the range the command accepts
REFUSED = {
    "--p": st.integers().filter(lambda p: p not in SMALL_PRIMES),
    "--depth": outside(1, LIMITS["depth"]),
    "--dim": outside(0, LIMITS["dim"]),
    "--bound": outside(1, LIMITS["bound"]),
    "--precision": outside(1, LIMITS["precision"]),
    "--seed": outside(0, 2**64 - 1),
    "--instances": st.integers(max_value=-1),
    "--f": st.just(0),
}
COMMANDS = {
    ("ainf", "verify"): ["--p", "--depth", "--seed"],
    ("witt", "digits"): ["--p", "--depth", "--precision", "--seed"],
    ("leta", "apply"): ["--f"],
    ("leta", "verify"): ["--instances", "--p", "--depth", "--seed"],
    ("torus", "run", "--stage", "etale"): ["--p", "--depth", "--dim", "--bound", "--seed"],
    ("torus", "all"): ["--p", "--depth", "--dim", "--bound", "--seed"],
    ("qderham", "table"): ["--p", "--depth", "--dim", "--bound", "--seed"],
    ("qderham", "compare"): ["--p", "--depth", "--dim", "--bound", "--seed"],
    ("suite", "run", "--suite", "witt"): ["--p", "--depth", "--dim", "--bound", "--precision", "--seed"],
}


@settings(FUZZ, max_examples=8)
@given(data=st.data())
@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in COMMANDS.items() for f in flags],
                         ids=lambda x: " ".join(x) if isinstance(x, tuple) else x)
def test_a_numeric_flag_out_of_range_is_a_usage_error(infile, data, command, flag):
    value = data.draw(REFUSED[flag])
    infile.write_text(json.dumps({"value": 1}))
    stdin = ["--in", str(infile)] if command[1] in ("digits", "apply") else []
    assert_usage_error(*run([*command, *stdin, f"{flag}={value}"]))


def test_precision_below_one_is_refused():
    with pytest.raises(ValueError, match=r"precision must lie in \[1, 4\]"):
        SessionConfig(p=3, precision=0)
    code, err = run(["suite", "run", "--suite", "witt", "--precision", "0"])
    assert code == 2 and err == "error: precision must lie in [1, 4]\n"


@pytest.mark.parametrize("argv,message", [
    (["torus", "all", "--depth", "-1"], "depth must lie in [1, 3]"),
    (["torus", "all", "--bound", "-2"], "bound must lie in [1, 8]"),
    (["suite", "run", "--suite", "witt", "--precision", "-1"], "precision must lie in [1, 4]"),
    (["torus", "all", "--dim", "-1"], "dim must lie in [0, 4]"),
], ids=["depth", "bound", "precision", "dim"])
def test_a_negative_value_is_refused_with_its_true_range(argv, message):
    assert run(argv) == (2, f"error: {message}\n")


def test_a_huge_p_is_refused_without_trial_division():
    # 2^61 - 1 is prime: trial division up to its square root takes minutes
    code, err = run(["ainf", "verify", "--p", str(2**61 - 1)])
    assert code == 2 and err == "error: p must be a prime <= 13\n"
