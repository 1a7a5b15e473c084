"""Top-level verification suites and their reports.

Each suite is a deterministic function of (config, seed): the random
instances come from a seeded generator and the report echoes the seed, so
a failing counterexample is reproducible from the report alone.  Reports
serialize to JSON with sorted keys and carry no wall-clock time, so
identical inputs give byte-identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .ainf import AinfModel, check_notation_identities
from .arith import LaurentElement, prime_base
from .complexes import (
    NOT_STRUCTURED,
    ChainComplex,
    DiagonalComplex,
    DiagonalSummand,
    FpPolyRing,
    ZRing,
    homology_diagonal,
    homology_snf,
    koszul,
    koszul_matches_kunneth,
    koszul_to_diagonal,
)
from .decalage import (
    ZERO_COMPLEX,
    LetaInstance,
    check_composition,
    check_homology_formula,
    check_leta_mod_f_is_bockstein,
    eta_subcomplex,
    leta_koszul,
)
from .qderham import QLaurentFunction, compare_with_torus_pipeline, nabla_q, q_de_rham_complex, q_to_one
from .torus import (
    GradingBox,
    _mix_basis,
    ainf_omega_torus,
    random_fp_complex,
    semicontinuity_demo,
    specialize_de_rham,
    specialize_hodge_tate,
    tilde_omega_torus,
    torus_semicontinuity,
)
from .witt import (
    GF,
    SemilinearModule,
    TruncatedWittElement,
    digits_to_witt,
    exhaustive_fixed_points,
    frobenius_fixed_points,
    teichmuller_digits,
    teichmuller_lift,
)

_Z = ZRing()

LIMITS = {"p": 13, "depth": 3, "dim": 4, "bound": 8, "precision": 4}
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class SessionConfig:
    """Validated run parameters shared by every suite and CLI command."""

    p: int = 3
    depth: int = 1
    dim: int = 1
    bound: int = 2
    precision: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.p > LIMITS["p"] or prime_base(self.p) != self.p:  # no trial division of a huge p
            raise ValueError(f"p must be a prime <= {LIMITS['p']}")
        for name, lo in (("depth", 1), ("dim", 0), ("bound", 1), ("precision", 1)):
            if not lo <= getattr(self, name) <= LIMITS[name]:
                raise ValueError(f"{name} must lie in [{lo}, {LIMITS[name]}]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def model(self) -> AinfModel:
        return AinfModel(self.p, self.depth)

    def to_json(self) -> dict:
        return {
            "p": self.p, "depth": self.depth, "dim": self.dim,
            "bound": self.bound, "precision": self.precision, "seed": self.seed,
        }


@dataclass
class VerificationReport:
    suite: str
    config: SessionConfig
    checks: list = field(default_factory=list)  # (name, passed, detail)
    instances: int = 0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, name: str, passed: bool, detail=None):
        self.checks.append((name, bool(passed), detail if detail is not None else {}))

    def counterexamples(self) -> list:
        return [
            {"check": name, "detail": detail}
            for name, ok, detail in self.checks if not ok
        ]

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config.to_json(),
            "seed": self.config.seed,
            "instances": self.instances,
            "passed": self.passed,
            "checks": [
                {"name": name, "passed": ok, "detail": _jsonable(detail)}
                for name, ok, detail in self.checks
            ],
            "counterexamples": _jsonable(self.counterexamples()),
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

def random_z_complex(rng: random.Random, max_deg: int = 4, max_rank: int = 4, bound: int = 9) -> ChainComplex:
    """Seeded random bounded complex of free Z-modules: elementary blocks
    glued block-diagonally, then mixed by unimodular basis changes; entries
    stay within the stated bound (instances violating it are redrawn)."""
    while True:
        degs = rng.randint(2, max_deg)
        ranks = [0] * degs
        blocks = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.75 and degs >= 2:
                s = rng.randint(0, degs - 2)
                if ranks[s] < max_rank and ranks[s + 1] < max_rank:
                    blocks.append((s, rng.randint(-bound, bound)))
                    ranks[s] += 1
                    ranks[s + 1] += 1
            else:
                s = rng.randint(0, degs - 1)
                if ranks[s] < max_rank:
                    blocks.append((s, None))
                    ranks[s] += 1
        if sum(ranks) == 0:
            continue
        diffs = [[[0] * ranks[k] for _ in range(ranks[k + 1])] for k in range(degs - 1)]
        pos = [0] * degs
        for s, c in blocks:
            if c is None:
                pos[s] += 1
            else:
                diffs[s][pos[s + 1]][pos[s]] = c
                pos[s] += 1
                pos[s + 1] += 1
        for _ in range(rng.randint(0, 4)):
            _mix_basis(_Z, ranks, diffs, rng, lambda: rng.choice((-1, 1)))
        if any(abs(x) > bound for mat in diffs for row in mat for x in row):
            continue
        return ChainComplex(_Z, 0, ranks, diffs)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_notation(config: SessionConfig) -> VerificationReport:
    """Distinguished-element identities for every (p, depth) up to the limits."""
    report = VerificationReport("s2-notation", config)
    for p in SMALL_PRIMES:
        for depth in (1, 2, 3):
            model = AinfModel(p, depth)
            for item in check_notation_identities(model, seed=config.seed):
                report.add(f"p={p},n={depth}:{item.name}", item.passed, item.detail if not item.passed else {})
                report.instances += 1
    return report


def suite_leta(config: SessionConfig, instances: int = 200) -> VerificationReport:
    """The decalage property set over seeded random integer complexes."""
    rng = random.Random(config.seed)
    report = VerificationReport("s5-leta", config)

    # the two rank-one models pin the non-exactness boundary
    kp = ChainComplex(_Z, 0, [1, 1], [[[config.p]]])
    kp2 = ChainComplex(_Z, 0, [1, 1], [[[config.p**2]]])
    report.add("torsion-model-acyclic", homology_snf(eta_subcomplex(kp, config.p)).is_zero())
    hp2 = homology_snf(eta_subcomplex(kp2, config.p))
    report.add(
        "square-torsion-model",
        hp2.free_rank(1) == 0 and hp2.torsion(1) == [config.p] and hp2.free_rank(0) == 0,
    )

    failures = []
    for idx in range(instances):
        inst = LetaInstance(random_z_complex(rng))
        for f in (2, 3, 4):
            r1 = check_homology_formula(inst, f)
            r2 = check_leta_mod_f_is_bockstein(inst, f)
            if not r1 or not r2:
                failures.append({"instance": idx, "f": f, "formula": r1.detail, "bockstein": r2.detail})
        for f, g in ((2, 2), (2, 3), (3, 4)):
            r3 = check_composition(inst, f, g)
            if not r3:
                failures.append({"instance": idx, "f": f, "g": g, "composition": r3.detail})
        report.instances += 1
    report.add("random-property-set", not failures, {"failures": failures[:3]})

    # symbolic Koszul rules against the lattice track
    sym_fail = []
    for idx in range(40):
        d = rng.randint(1, 3)
        f = rng.choice((2, 3, 4))
        gs = tuple(f * rng.randint(1, 4) for _ in range(d))
        out = leta_koszul(_Z, gs, f)
        lhs = homology_snf(koszul(_Z, out))
        rhs = homology_snf(eta_subcomplex(koszul(_Z, list(gs)), f))
        if lhs != rhs:
            sym_fail.append({"weights": gs, "f": f})
        divisor = rng.randint(1, 4)
        gs2 = (divisor,) + tuple(rng.randint(1, 9) for _ in range(d - 1))
        # f a proper multiple of the first weight, so the divide branch
        # cannot fire and the kill branch must
        out2 = leta_koszul(_Z, gs2, divisor * rng.randint(2, 3))
        if out2 is not ZERO_COMPLEX:
            sym_fail.append({"weights": gs2, "note": "kill rule failed"})
    report.add("symbolic-vs-lattice", not sym_fail, {"failures": sym_fail[:3]})
    return report


def suite_torus_decomposition(config: SessionConfig) -> VerificationReport:
    """Koszul bookkeeping: tensor splitting, diagonal decomposition, and the
    diagonal homology against the normal-form oracle."""
    rng = random.Random(config.seed)
    report = VerificationReport("s4-torus-decomp", config)

    # Kunneth: K(g_1..g_d) equals the iterated tensor product up to the
    # canonical basis bijection
    kun_fail = []
    for _ in range(20):
        d = rng.randint(2, 3)
        gs = [rng.randint(-6, 6) for _ in range(d)]
        if not koszul_matches_kunneth(_Z, gs):
            kun_fail.append({"weights": gs})
        report.instances += 1
    report.add("kunneth-splitting", not kun_fail, {"failures": kun_fail[:3]})

    # diagonal homology vs the oracle on Z-representable diagonal complexes
    diag_fail = []
    for _ in range(100):
        summands = []
        for _ in range(rng.randint(1, 4)):
            s = rng.randint(0, 2)
            if rng.random() < 0.5:
                summands.append(DiagonalSummand(s))
            else:
                summands.append(DiagonalSummand(s, rng.choice([x for x in range(-9, 10) if x])))
        D = DiagonalComplex(_Z, summands)
        realized = _realize_diagonal(D)
        if homology_diagonal(D) != homology_snf(realized):
            diag_fail.append({"summands": repr(summands)})
        report.instances += 1
    report.add("diagonal-vs-oracle", not diag_fail, {"failures": diag_fail[:3]})

    # structured Koszul data decomposes and matches the oracle
    struct_fail = []
    for _ in range(50):
        g = rng.choice([x for x in range(-9, 10) if x])
        h = rng.choice([x for x in range(-4, 5) if x])
        D = koszul_to_diagonal(_Z, (g, g * h))
        if D is NOT_STRUCTURED:
            struct_fail.append({"g": g, "h": h})
            continue
        if homology_diagonal(D) != homology_snf(koszul(_Z, (g, g * h))):
            struct_fail.append({"g": g, "h": h})
        report.instances += 1
    report.add("koszul-to-diagonal-vs-oracle", not struct_fail, {"failures": struct_fail[:3]})
    report.add("unstructured-detected", koszul_to_diagonal(_Z, (2, 3)) is NOT_STRUCTURED)
    return report


def _realize_diagonal(D: DiagonalComplex) -> ChainComplex:
    lo = min(s.shift for s in D.summands)
    hi = max(s.shift + (0 if s.element is None else 1) for s in D.summands)
    ranks = [0] * (hi - lo + 2)
    entries = []
    for s in D.summands:
        if s.element is None:
            ranks[s.shift - lo] += 1
        else:
            i, j = ranks[s.shift - lo], ranks[s.shift - lo + 1]
            ranks[s.shift - lo] += 1
            ranks[s.shift - lo + 1] += 1
            entries.append((s.shift - lo, i, j, s.element))
    while ranks and ranks[-1] == 0:
        ranks.pop()
    diffs = [[[0] * ranks[k] for _ in range(ranks[k + 1] if k + 1 < len(ranks) else 0)] for k in range(len(ranks) - 1)]
    for k, i, j, g in entries:
        diffs[k][j][i] = g
    return ChainComplex(_Z, lo, ranks, diffs)


def suite_tilde_omega(config: SessionConfig) -> VerificationReport:
    """Exterior-algebra ranks per integral grading, zero elsewhere."""
    report = VerificationReport("s6-tilde-omega", config)
    for p in (2, 3, 5):
        for depth in (1, 2):
            for dim in (1, 2, 3):
                model = AinfModel(p, depth)
                box = GradingBox(dim, depth, min(config.bound, 4))
                res = tilde_omega_torus(model, box)
                bad = []
                for cell in res.all_cells():
                    integral = all(s % p**depth == 0 for s in cell.grading)
                    want = {i: comb(dim, i) for i in range(dim + 1)} if integral else {}
                    if cell.free_ranks != want:
                        bad.append(res.key(cell.grading))
                    report.instances += 1
                report.add(f"p={p},n={depth},d={dim}", not bad, {"bad_cells": bad[:3]})
    return report


def suite_specializations(config: SessionConfig) -> VerificationReport:
    """Hodge-Tate and de Rham specializations of the graded pipeline."""
    report = VerificationReport("s7-specializations", config)
    for p in (2, 3, 5):
        for depth in (1, 2):
            for dim in (1, 2, 3):
                model = AinfModel(p, depth)
                box = GradingBox(dim, depth, min(config.bound, 4))
                ares = ainf_omega_torus(model, box)
                ht = specialize_hodge_tate(ares)
                dr = specialize_de_rham(ares)
                report.add(
                    f"hodge-tate:p={p},n={depth},d={dim}", ht["passed"],
                    {} if ht["passed"] else {"cells": [k for k, v in ht["cells"].items() if not v["passed"]][:3]},
                )
                report.add(
                    f"de-rham:p={p},n={depth},d={dim}", dr["passed"],
                    {} if dr["passed"] else {"cells": [k for k, v in dr["cells"].items() if not v["passed"]][:3]},
                )
                report.instances += len(ht["cells"])
    return report


def suite_qderham(config: SessionConfig) -> VerificationReport:
    """q-derivative complex: pipeline comparison, classical limit, Leibniz."""
    rng = random.Random(config.seed)
    report = VerificationReport("s7-qderham", config)
    for p in (2, 3):
        for dim in (1, 2):
            model = AinfModel(p, 1)
            cmp_report = compare_with_torus_pipeline(model, dim, min(config.bound, 3))
            report.add(f"pipeline-match:p={p},d={dim}", cmp_report["passed"])
            report.instances += len(cmp_report["cells"])

    model = config.model()
    blocks = q_de_rham_complex(model, 1, min(config.bound, 3))
    classical_ok = True
    for m, block in blocks.items():
        evaluated = q_to_one(block)
        if evaluated.diffs != [[[m[0]]]]:
            classical_ok = False
    report.add("q-to-one-classical", classical_ok)

    leibniz_fail = 0
    for _ in range(100):
        f = _random_q_function(rng, model)
        g = _random_q_function(rng, model)
        lhs = nabla_q(f * g, 0)
        rhs = f.scale_by_q(0) * nabla_q(g, 0) + nabla_q(f, 0) * g
        if lhs != rhs:
            leibniz_fail += 1
        report.instances += 1
    report.add("q-leibniz", leibniz_fail == 0, {"failures": leibniz_fail})
    return report


def _random_q_function(rng: random.Random, model: AinfModel) -> QLaurentFunction:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = (rng.randint(-3, 3),)
        coeff = LaurentElement(
            {rng.randint(-2, 2): rng.randint(-3, 3), rng.randint(-2, 2): rng.randint(-3, 3)},
            model.depth,
        )
        if not coeff.is_zero():
            terms[mono] = coeff
    if not terms:
        terms[(1,)] = LaurentElement.one(model.depth)
    return QLaurentFunction.build(model.p, model.depth, 1, terms)


def suite_semicontinuity(config: SessionConfig, instances: int = 100) -> VerificationReport:
    """Fibre dimension comparison on random free complexes, the strict
    torsion model, and the torus feed."""
    rng = random.Random(config.seed)
    report = VerificationReport("s8-semicontinuity", config)
    p = config.p
    fails = 0
    for _ in range(instances):
        K = random_fp_complex(rng, p)
        _, _, verdict = semicontinuity_demo(K)
        if not verdict["holds"]:
            fails += 1
        report.instances += 1
    report.add("random-inequality", fails == 0, {"failures": fails})

    ring = FpPolyRing(p)
    K = ChainComplex(ring, 0, [1, 1], [[[(0, 1)]]])
    generic, special, verdict = semicontinuity_demo(K)
    report.add(
        "strict-torsion-model",
        verdict["holds"] and verdict["strict_somewhere"]
        and generic == {} and special == {0: 1, 1: 1},
    )

    for dim in (1, 2):
        sc = torus_semicontinuity(ainf_omega_torus(AinfModel(p, 1), GradingBox(dim, 1, 2)))
        report.add(
            f"torus-equality:d={dim}",
            sc["inequality_holds"] and sc["equality_with_binomials"],
            {} if sc["equality_with_binomials"] else sc,
        )
    return report


def suite_witt(config: SessionConfig) -> VerificationReport:
    """Digit round-trips, Frobenius compatibility, and unit-root fixed points."""
    rng = random.Random(config.seed)
    report = VerificationReport("witt", config)

    # all constants of the length-3 Witt rings
    const_fail = []
    for p in (2, 3):
        for value in range(p**3):
            w = TruncatedWittElement.constant(p, 3, value)
            digits = teichmuller_digits(w)
            # [a] of a constant a is a^(p^2) mod p^3: multiplicativity, not a round trip
            lift = TruncatedWittElement.constant(p, 3, pow(value % p, p**2, p**3))
            if digits_to_witt(digits, p, 3) != w or teichmuller_lift(digits[0], 3) != lift:
                const_fail.append({"p": p, "value": value})
            report.instances += 1
    report.add("digit-roundtrip-constants", not const_fail, {"failures": const_fail[:3]})

    rand_fail = []
    for _ in range(100):
        p = rng.choice((2, 3))
        m = rng.randint(1, config.precision)
        w = _random_witt(rng, p, m)
        if digits_to_witt(teichmuller_digits(w), p, m) != w:
            rand_fail.append({"p": p, "m": m, "w": repr(w)})
        report.instances += 1
    report.add("digit-roundtrip-random", not rand_fail, {"failures": rand_fail[:3]})

    frob_fail = []
    for _ in range(100):
        p = rng.choice((2, 3))
        m = rng.randint(1, 4)
        a = _random_perfection(rng, p)
        if teichmuller_lift(a, m).frobenius() != teichmuller_lift(a.frobenius(), m):
            frob_fail.append({"p": p, "m": m})
        report.instances += 1
    report.add("frobenius-teichmuller", not frob_fail, {"failures": frob_fail[:3]})

    fp_fail = []
    for p, m in ((2, 2), (2, 3), (3, 2)):
        F = GF(p, m)
        for _ in range(6):
            mat = _random_invertible(rng, F, rng.randint(1, 2))
            module = SemilinearModule(F, mat)
            dim, basis, check = frobenius_fixed_points(module)
            oracle = exhaustive_fixed_points(module)
            if len(oracle) != p**dim:
                fp_fail.append({"q": F.q, "dim": dim, "oracle": len(oracle)})
            report.instances += 1
    report.add("fixed-points-vs-exhaustive", not fp_fail, {"failures": fp_fail[:3]})
    return report


def _random_witt(rng: random.Random, p: int, m: int) -> TruncatedWittElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = Fraction(rng.randint(0, 6), p ** rng.randint(0, 2))
        terms[e] = rng.randint(1, p**m - 1)
    return TruncatedWittElement(p, m, terms)


def _random_perfection(rng: random.Random, p: int) -> TruncatedWittElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = Fraction(rng.randint(0, 6), p ** rng.randint(0, 2))
        terms[e] = rng.randint(1, p - 1)
    return TruncatedWittElement(p, 1, terms)


def _random_invertible(rng: random.Random, F: GF, r: int):
    while True:
        mat = [[tuple(rng.randrange(F.p) for _ in range(F.m)) for _ in range(r)] for _ in range(r)]
        try:
            SemilinearModule(F, mat)
            return mat
        except ValueError:
            continue


SUITES = {
    "s2-notation": suite_notation,
    "s5-leta": suite_leta,
    "s4-torus-decomp": suite_torus_decomposition,
    "s6-tilde-omega": suite_tilde_omega,
    "s7-specializations": suite_specializations,
    "s7-qderham": suite_qderham,
    "s8-semicontinuity": suite_semicontinuity,
    "witt": suite_witt,
}

SUITE_ALIASES = {
    "s2": "s2-notation",
    "s4": "s4-torus-decomp",
    "s5": "s5-leta",
    "s6": "s6-tilde-omega",
    "s8": "s8-semicontinuity",
}


def run_suite(name: str, config: SessionConfig, **kwargs) -> VerificationReport:
    """Execute a named suite; the report is deterministic in (name, config)."""
    name = SUITE_ALIASES.get(name, name)
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](config, **kwargs)
