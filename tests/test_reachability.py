"""Every function in `src/aomega` is entered by some CLI command.

The sweep runs one small configuration of every command in process under
`sys.setprofile`, which sees the code object of every Python call, and
compares what it saw with the `def`s of the package.  A `def` that no
command enters makes no claim in any report: delete it, with its tests,
rather than keep it alive through them.  The only exceptions are listed in
ALLOWED.  The sweep takes about 12 s on a 2-core host.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
import sys

import pytest

import aomega
from aomega import cli
from aomega.suites import SUITES

MODULES = [importlib.import_module(f"aomega.{info.name}") for info in pkgutil.iter_modules(aomega.__path__)]

# the methods `ChainComplex`, `koszul`, `intlinalg.rank` and the JSON
# round trip ask of a ring; the rings the CLI builds need only some of them
RING_PROTOCOL = {
    "zero", "one", "add", "neg", "mul", "is_zero", "is_unit", "exact_div",
    "normalize_quotient", "entry_to_json", "tag",
}

# functions no command enters, kept on purpose: ring-protocol methods,
# dunders, and one benchmark target
ALLOWED = {
    # ring protocol
    "complexes.ZRing.one",
    "complexes.ZModRing.tag",
    "complexes.LaurentRing.tag",
    "complexes.OCRing.tag",
    "complexes.FpPolyRing.tag",
    # the residue ring as a coefficient ring: no command builds a complex
    # over it (the de Rham stage compares single elements of `OCModel`), but
    # the d o d tests of tests/test_complexes.py do, and bench/tracing.py
    # counts `OCRing.mul`
    "complexes.OCRing.zero",
    "ainf.OCModel.zero",
    # dunders: Python calls them for operators, hashing and printing
    "ainf.OCModel.__hash__",
    "ainf.OCModel.__repr__",
    "ainf.OCModelElement.__add__",
    "ainf.OCModelElement.__neg__",
    "ainf.OCModelElement.__sub__",
    "ainf.OCModelElement.__hash__",
    "ainf.OCModelElement.__repr__",
    "complexes.Marker.__repr__",
    "complexes.Ring.__repr__",
    "complexes.ChainComplex.__eq__",
    "complexes.ChainComplex.__repr__",
    "complexes.HomologyPresentation.__repr__",
    "qderham.QLaurentFunction.__neg__",
    "qderham.QLaurentFunction.__sub__",
    "witt.TruncatedWittElement.__mul__",
    "witt.TruncatedWittElement.__hash__",
    "witt.TruncatedWittElement.__repr__",
    # bench/tracing.py spans it as `intlinalg.solve_int`, and
    # tests/test_tracing.py requires every span to resolve
    "intlinalg.solve_int",
}

# one small configuration per command; the suites take their own boxes,
# capped by --bound
TORUS = ["--p", "3", "--depth", "1", "--dim", "3", "--bound", "2"]
COMMANDS = (
    [["suite", "run", "--suite", name, "--bound", "1"] for name in sorted(SUITES) if name != "s5-leta"]
    + [["leta", "verify", "--suite", "s5-leta", "--instances", "30"]]
    + [["torus", "all", *TORUS]]
    + [["torus", "run", "--stage", stage, *TORUS] for stage in ("tilde", "ainf", "dr", "ht", "etale", "semicont")]
    + [["qderham", "table", *TORUS], ["qderham", "compare", *TORUS], ["ainf", "verify"]]
)
# commands that read their input from a file: (argv, input)
FILE_COMMANDS = [
    (["leta", "apply", "--f", "6"],
     {"ring": "Z", "lo": 0, "ranks": [1, 3, 3, 1],
      "diffs": [["12", "18", "8"], ["-18", "12", "0", "-8", "0", "12", "0", "-8", "18"], ["8", "-18", "12"]]}),
    (["witt", "digits"], {"value": 7}),
    (["witt", "digits"], {"p": 3, "precision": 2, "terms": [[[1, 3], 2], [[0, 1], 1]]}),
]


def function_defs(modules) -> dict:
    """(file name, first line) -> 'module.qualified.name' for every def."""
    defs = {}
    for module in modules:
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        _collect(tree, module.__file__, module.__name__.rsplit(".", 1)[-1] + ".", defs)
    return defs


def _collect(node, filename: str, prefix: str, defs: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a code object's first line is that of its first decorator
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            defs[(filename, first)] = prefix + child.name
            _collect(child, filename, prefix + child.name + ".<locals>.", defs)
        elif isinstance(child, ast.ClassDef):
            _collect(child, filename, prefix + child.name + ".", defs)
        else:
            _collect(child, filename, prefix, defs)


def entered(run) -> set:
    """(file name, first line) of every Python function that `run()` enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def unreached(defs: dict, seen: set, allowed: set) -> list:
    return sorted(name for key, name in defs.items() if key not in seen and name not in allowed)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(defs, seen) of one run of every command."""
    # earlier tests may have filled the memo tables; a warm cache would hide
    # the functions behind it
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    argvs = list(COMMANDS)
    for k, (argv, payload) in enumerate(FILE_COMMANDS):
        path = tmp_path_factory.mktemp("input") / f"{k}.json"
        path.write_text(json.dumps(payload))
        argvs.append(argv + ["--in", str(path)])

    def run():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv

    seen = entered(run)
    return function_defs(MODULES), seen


def test_every_function_is_entered_by_some_command(sweep):
    defs, seen = sweep
    assert unreached(defs, seen, ALLOWED) == []


def test_allow_list_holds_only_unreached_protocol_methods_and_dunders(sweep):
    defs, seen = sweep
    for name in ALLOWED - {"intlinalg.solve_int"}:
        method = name.rsplit(".", 1)[-1]
        assert method in RING_PROTOCOL or (method.startswith("__") and method.endswith("__")), name
    # an entry that a command now enters, or that names no def, goes
    assert set(unreached(defs, seen, set())) == ALLOWED


EXTRA = '''
class Used:
    @property
    def value(self):
        return twice(1)


def twice(x):
    return 2 * x


def helper():
    return 0
'''


def test_sweep_reports_a_def_that_nothing_calls(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text(EXTRA)
    spec = importlib.util.spec_from_file_location("extra", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    seen = entered(lambda: module.Used().value)
    assert unreached(function_defs([module]), seen, set()) == ["extra.helper"]
