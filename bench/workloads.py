"""The four workloads: seeded inputs, the operations, and their checks.

Every workload is a list of rounds, each round a fixed number of operations
made from the seed.  A run executes whole rounds, so the share of failed
operations is the same in every run.  Operations call only the program's
public functions and pass it only generated inputs; a tracer (see
``tracing.py``) may wrap those calls in spans and count calls into the
callables the benchmark supplies.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from demorgan import (
    BirthDeathRates,
    DriftSpec,
    RatioSpec,
    adaptive_classify,
    bdp_classify,
    parse_expression,
    recurrence_ratio,
    rw_classify,
    rw_to_bdp,
    simulate,
)
from demorgan import families
from demorgan.families import ACCEPTANCE_CATALOG, make_series_family
from demorgan.tables import load_table

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


def grid(*segments: tuple[float, float, float]) -> tuple[float, ...]:
    """Parameter values on closed segments (lo, hi, step)."""
    values = []
    for lo, hi, step in segments:
        count = int(round((hi - lo) / step))
        values += [round(lo + i * step, 6) for i in range(count + 1)]
    return tuple(values)


# Seeded parameters are drawn from these grids.  They span each threshold but
# leave out the band just above it where the program gives wrong decisive
# verdicts today (ROADMAP item 2): (1, 1.2] for the series and rate shapes,
# (0.25, 0.27] for the walk drifts, and c <= 1 for alpha-threshold K=3.  That
# defect is measured by the fixed KNOWN_WRONG operations instead, which are the
# same in every round and every seed.  ``selftest.py --audit`` classifies every
# grid point to show that no seeded operation fails.
SERIES_GRID = grid((0.3, 1.0, 0.005), (1.25, 3.0, 0.005))
RATE_GRID = grid((0.0, 1.0, 0.005), (1.25, 3.0, 0.005))
DRIFT_GRID = grid((0.05, 0.25, 0.001), (0.28, 0.45, 0.001))


# ---------------------------------------------------------------------------
# Classification, with the hooks the traced run uses.

class _NoTrace:
    """Stand-in tracer for untraced runs: no spans, no counting wrappers."""

    active = False

    def span(self, name: str, tag: str = "", work: float = 0.0):
        return contextlib.nullcontext()

    def counted(self, name: str, fn):
        return fn


NO_TRACE = _NoTrace()


def attempt(op, tr):
    try:
        return op.run(tr)
    except Exception as exc:  # an operation that raises is a failed operation
        return exc


def _counted_fields(tr, obj, *fields: str):
    if not tr.active:
        return obj
    return dataclasses.replace(
        obj, **{f: tr.counted("source", getattr(obj, f)) for f in fields}
    )


def classify_series(spec: RatioSpec, tr, replay: RatioSpec) -> str:
    with tr.span("convergence.adaptive_classify") as span:
        verdict = adaptive_classify(_counted_fields(tr, spec, "ratio", "delta"))
    if tr.active:
        tr.verdict(span, verdict, replay)
    return verdict.decision.value


def classify_rates(rates: BirthDeathRates, tr, replay: BirthDeathRates) -> str:
    with tr.span("birthdeath.bdp_classify") as span:
        result = bdp_classify(_counted_fields(tr, rates, "lam", "mu", "ratio_delta"))
    if tr.active:
        tr.verdict(span, result.series_verdict, recurrence_ratio(replay))
    return result.decision.value


def classify_walk(drift: DriftSpec, tr, replay: DriftSpec) -> str:
    with tr.span("walk.rw_classify") as span:
        result = rw_classify(_counted_fields(tr, drift, "alpha"))
    if tr.active:
        tr.verdict(span, result.chain.series_verdict, recurrence_ratio(rw_to_bdp(replay)))
    return result.decision.value


_CLASSIFY = {"series": classify_series, "rates": classify_rates, "walk": classify_walk}
_SOURCE = {
    "series": lambda fam: fam.ratio_spec,
    "rates": lambda fam: fam.rates,
    "walk": lambda fam: fam.drift,
}


@dataclass(frozen=True)
class FamilyDef:
    build: Callable[[float], object]
    entry: str  # series | rates | walk
    truth: Callable[[float], str]
    grid: tuple[float, ...]


def _series(build, truth=checks.series_truth, values=SERIES_GRID):
    return FamilyDef(build, "series", truth, values)


def _rates(build, values=RATE_GRID):
    return FamilyDef(build, "rates", checks.chain_truth, values)


def _walk_threshold(depth, values=RATE_GRID):
    return FamilyDef(lambda c: families.alpha_threshold(depth, c), "walk",
                     checks.chain_truth, values)


FAMILIES: dict[str, FamilyDef] = {
    "p-series": _series(families.p_series),
    "log-power": _series(families.log_power),
    "iterlog-power-K1": _series(lambda r: families.iterlog_power(1, r)),
    "iterlog-power-K2": _series(lambda r: families.iterlog_power(2, r)),
    "iterlog-power-K3": _series(lambda r: families.iterlog_power(3, r)),
    "geometric": _series(families.geometric, checks.geometric_truth,
                         grid((0.5, 1.5, 0.005))),
    "bd-power": _rates(families.bd_power),
    "bd-log": _rates(families.bd_log),
    "bd-iterlog-K1": _rates(lambda c: families.bd_iterlog(1, c)),
    "bd-iterlog-K2": _rates(lambda c: families.bd_iterlog(2, c)),
    "bd-iterlog-K3": _rates(lambda c: families.bd_iterlog(3, c)),
    "bd-iterlog-K4": _rates(lambda c: families.bd_iterlog(4, c)),
    "alpha-const": FamilyDef(families.alpha_const, "walk",
                             lambda a: checks.chain_truth(a, 0.25), DRIFT_GRID),
    "alpha-threshold-K1": _walk_threshold(1),
    "alpha-threshold-K2": _walk_threshold(2),
    "alpha-threshold-K3": _walk_threshold(3, grid((1.25, 3.0, 0.005))),
}

# Wrong decisive verdicts of the program today, kept in every round of
# classify-families and counted as failed until the near-critical guard lands:
# just above the threshold, and alpha-threshold K=3 with c < 1, whose drift is
# frozen below min_domain(4) = 3,814,280.
KNOWN_WRONG = (
    ("p-series", 1.01), ("p-series", 1.05),
    ("log-power", 1.05), ("log-power", 1.1),
    ("bd-power", 1.01), ("bd-power", 1.05),
    ("alpha-const", 0.251), ("alpha-const", 0.26),
    ("alpha-threshold-K3", 0.5), ("alpha-threshold-K3", 0.9),
)


@dataclass(frozen=True)
class FamilyOp:
    family: str
    x: float
    expected_to_fail: bool = False
    kernel = "python"  # calibration kernel for its times, see speed.py

    @property
    def kind(self) -> str:
        return self.family

    def run(self, tr) -> str:
        fam_def = FAMILIES[self.family]
        with tr.span("families.build"):
            fam = fam_def.build(self.x)
        source = _SOURCE[fam_def.entry](fam)
        return _CLASSIFY[fam_def.entry](source, tr, source)

    def problem(self, decision: str) -> str | None:
        truth = FAMILIES[self.family].truth(self.x)
        if checks.verdict_wrong(decision, truth):
            return f"{self.family}({self.x}): {decision}, truth {truth}"
        return None


# ---------------------------------------------------------------------------
# Expression shapes with known truth, and tables.

@dataclass(frozen=True)
class Shape:
    entry: str  # a_n | delta_n | rates | alpha
    texts: Callable[[float], tuple[str, ...]]
    first_index: int
    truth: Callable[[float], str]
    grid: tuple[float, ...]


def _walk_truth(a: float) -> str:
    return checks.chain_truth(a, 0.25)


SHAPES: dict[str, Shape] = {
    "a_n-power": Shape("a_n", lambda p: (f"1/n^{p!r}",), 1,
                       checks.series_truth, SERIES_GRID),
    "a_n-log": Shape("a_n", lambda r: (f"1/(n*ln(n)^{r!r})",), 2,
                     checks.series_truth, SERIES_GRID),
    "a_n-iterlog": Shape("a_n", lambda r: (f"1/(n*ln(n)*iterlog(2,n)^{r!r})",), 3,
                         checks.series_truth, SERIES_GRID),
    "delta_n-raabe": Shape("delta_n", lambda c: (f"{c!r}/n",), 1,
                           checks.series_truth, RATE_GRID),
    "delta_n-bertrand": Shape("delta_n", lambda c: (f"1/n + {c!r}/(n*ln(n))",), 2,
                              checks.series_truth, RATE_GRID),
    "delta_n-depth3": Shape(
        "delta_n",
        lambda c: (f"1/n + 1/(n*ln(n)) + {c!r}/(n*ln(n)*iterlog(2,n))",), 3,
        checks.series_truth, RATE_GRID),
    "rates-power": Shape("rates", lambda c: (f"1 + {c!r}/n", "1"), 1,
                         checks.chain_truth, RATE_GRID),
    "rates-log": Shape("rates", lambda c: (f"1 + 1/n + {c!r}/(n*ln(n))", "1"), 2,
                       checks.chain_truth, RATE_GRID),
    "alpha-const": Shape("alpha", lambda a: (f"{a!r}",), 1, _walk_truth, DRIFT_GRID),
    "alpha-decay": Shape("alpha", lambda a: (f"{a!r} + 0.05/n",), 1,
                         _walk_truth, DRIFT_GRID),
    "alpha-slow": Shape("alpha", lambda a: (f"{a!r} + 0.05/ln(n+1)",), 1, _walk_truth,
                        grid((0.05, 0.25, 0.001), (0.28, 0.40, 0.001))),
}


def _expression_source(shape: Shape, exprs):
    if shape.entry == "a_n":
        term = exprs[0]
        return RatioSpec(ratio=lambda n: term(n) / term(n + 1), first_index=shape.first_index)
    if shape.entry == "delta_n":
        delta = exprs[0]
        return RatioSpec(ratio=lambda n: 1.0 + delta(n), delta=delta,
                         first_index=shape.first_index)
    if shape.entry == "rates":
        return BirthDeathRates(lam=exprs[0], mu=exprs[1], first_index=shape.first_index)
    return DriftSpec(alpha=exprs[0], C=1.0)


_SHAPE_CLASSIFY = {"a_n": classify_series, "delta_n": classify_series,
                   "rates": classify_rates, "alpha": classify_walk}


@dataclass(frozen=True)
class ExpressionOp:
    shape: str
    x: float
    expected_to_fail = False
    kernel = "python"

    @property
    def kind(self) -> str:
        return self.shape

    def run(self, tr) -> str:
        shape = SHAPES[self.shape]
        texts = shape.texts(self.x)
        with tr.span("expr.parse", work=len(texts)):
            exprs = [parse_expression(t) for t in texts]
        counted = [tr.counted("expr.eval", e) for e in exprs]
        replay = _expression_source(shape, exprs) if tr.active else None
        return _SHAPE_CLASSIFY[shape.entry](_expression_source(shape, counted), tr, replay)

    def problem(self, decision: str) -> str | None:
        truth = SHAPES[self.shape].truth(self.x)
        if checks.verdict_wrong(decision, truth):
            return f"{self.shape}({self.x}): {decision}, truth {truth}"
        return None


# Tables: the p-series and log-power terms or ratios at 200 geometrically
# spaced indices in [2, 1e7] (terms rows come in (n, n+1) pairs, since ratios
# are only formed between adjacent indices).
TABLE_SHAPES = ("terms-power", "terms-log", "ratios-power", "ratios-log")


def _table_indices() -> list[int]:
    lo, hi, count = math.log(2.0), math.log(1e7), 200
    return sorted({int(round(math.exp(lo + (hi - lo) * i / (count - 1)))) for i in range(count)})


def _log_term(n: int, r: float) -> float:
    return 1.0 / (n * math.log(n) ** r)


def table_rows(shape: str, x: float) -> list[tuple[int, float]]:
    kind, family = shape.split("-")
    rows = []
    for n in _table_indices():
        if kind == "terms":
            for m in (n, n + 1):
                rows.append((m, m ** -x if family == "power" else _log_term(m, x)))
        else:
            u = math.log1p(1.0 / n)
            log_ratio = x * u if family == "power" else u + x * math.log1p(u / math.log(n))
            rows.append((n, math.exp(log_ratio)))
    return sorted(set(rows))


def write_table(path: Path, rows) -> None:
    path.write_text("".join(f"{n} {v!r}\n" for n, v in rows))


@dataclass(frozen=True)
class TableOp:
    shape: str
    x: float
    path: str
    rows: int
    expected_to_fail = False
    kernel = "python"

    @property
    def kind(self) -> str:
        return "table-" + self.shape

    def run(self, tr) -> str:
        with tr.span("tables.load", work=self.rows):
            spec = load_table(self.path, self.shape.split("-")[0])
        return classify_series(spec, tr, spec)

    def problem(self, decision: str) -> str | None:
        truth = checks.series_truth(self.x)
        if checks.verdict_wrong(decision, truth):
            return f"table {self.shape}({self.x}): {decision}, truth {truth}"
        return None


def make_table_op(shape: str, x: float, path: Path) -> TableOp:
    rows = table_rows(shape, x)
    write_table(path, rows)
    return TableOp(shape, x, str(path), len(rows))


# ---------------------------------------------------------------------------
# Walk simulation.

@dataclass(frozen=True)
class DriftDef:
    """A drift for the program, and the benchmark's own formula for it."""

    build: Callable[[], DriftSpec]
    alpha: Callable[[int], float]


def _threshold_alpha(s: int) -> float:
    # alpha-threshold K=1, c=0.5, written out: frozen below min_domain(2) = 3.
    value = (1.0 + 0.5 / math.log(max(s, 3))) * 0.25
    return min(value, 0.999 * min(1.0, 0.5 * s))


def _const(a: float) -> DriftDef:
    return DriftDef(lambda: families.alpha_const(a).drift, lambda s: a)


DRIFTS: dict[str, DriftDef] = {
    "const-0.1": _const(0.1),
    "const-0.2": _const(0.2),
    "const-0.3": _const(0.3),
    "const-0.4": _const(0.4),
    "threshold-K1-c0.5": DriftDef(lambda: families.alpha_threshold(1, 0.5).drift,
                                  _threshold_alpha),
    "expr-0.1+0.05/n": DriftDef(lambda: DriftSpec(parse_expression("0.1 + 0.05/n"), C=1.0),
                                lambda s: 0.1 + 0.05 / s),
}

# (drift, width, paths, horizon).  Wide runs are bound by the vectorised
# kernel, narrow long runs by per-step dispatch and the drift table.
SIM_CONFIGS = (
    ("const-0.1", "wide", 1500, 10_000),
    ("const-0.2", "wide", 1500, 10_000),
    ("const-0.3", "wide", 1500, 10_000),
    ("const-0.4", "wide", 1500, 10_000),
    ("threshold-K1-c0.5", "wide", 1500, 10_000),
    ("expr-0.1+0.05/n", "wide", 1500, 10_000),
    ("const-0.4", "narrow", 200, 50_000),
    ("expr-0.1+0.05/n", "narrow", 200, 50_000),
)


@dataclass(frozen=True)
class SimulateOp:
    drift_name: str
    drift: DriftSpec
    width: str  # wide | narrow
    paths: int
    horizon: int
    seed: int
    expected_to_fail = False

    @property
    def kernel(self) -> str:
        return f"numpy-{self.width}"

    @property
    def kind(self) -> str:
        return f"{self.drift_name}-{self.width}"

    @property
    def work(self) -> int:
        return self.paths * self.horizon

    def run(self, tr) -> dict:
        drift = _counted_alpha(tr, self.drift)
        with tr.span("walk.simulate", tag=self.width, work=self.work):
            report = simulate(drift, seed=self.seed, horizon=self.horizon, n_paths=self.paths)
        return dataclasses.asdict(report)

    def problem(self, report: dict) -> str | None:
        problem = checks.walk_report_problem(report, exact_return(self.drift_name, self.horizon))
        return f"{self.kind} seed {self.seed}: {problem}" if problem else None


def _counted_alpha(tr, drift: DriftSpec) -> DriftSpec:
    if not tr.active:
        return drift
    return dataclasses.replace(drift, alpha=tr.counted("walk.alpha", drift.alpha))


# ---------------------------------------------------------------------------
# CLI calls.

def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass(frozen=True)
class CliOp:
    args: tuple[str, ...]
    expect: tuple  # (key, value) pairs for checks.cli_reply_problem
    out_path: str
    expected_to_fail = False
    kernel = "startup"

    @property
    def kind(self) -> str:
        return self.args[0]

    def run(self, tr) -> tuple[int, bytes, int]:
        """Spawn, wait for exit, return (exit code, stdout, peak RSS in KiB)."""
        cmd = [sys.executable, "-m", "demorgan.cli", *self.args, "--format", "json",
               "--no-timing"]
        with tr.span("cli.call", tag=self.kind), open(self.out_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                    env=cli_env())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, Path(self.out_path).read_bytes(), usage.ru_maxrss

    def problem(self, result) -> str | None:
        code, out, _ = result
        try:
            doc = json.loads(out) if out else None
        except json.JSONDecodeError:
            doc = None
        expect = dict(self.expect)
        if "walk" in expect:
            expect["walk"] = _cli_walk_expectation(expect["walk"])
        problem = checks.cli_reply_problem(code, doc, expect)
        return f"{' '.join(self.args)}: {problem}" if problem else None


_WALK_EXPECTATIONS: dict = {}


def _cli_walk_expectation(key):
    """(rebuilt report, exact return probability) for one simulate-walk call."""
    if key not in _WALK_EXPECTATIONS:
        form, a, seed, horizon, paths = key
        alpha = (lambda s: a) if form == "const" else (lambda s: a + 0.05 / s)
        _WALK_EXPECTATIONS[key] = (
            checks.scalar_walk_report(alpha, seed, horizon, paths),
            checks.return_probability(alpha, horizon),
        )
    return _WALK_EXPECTATIONS[key]


# ---------------------------------------------------------------------------
# Workloads.

@dataclass
class Workload:
    name: str
    rounds: list[list]
    # The tail is the p90 operation, or, when a run has too few operations
    # for a percentile, the median time of the heaviest kinds of operation.
    tail_kinds: frozenset[str] | None
    run_checks: Callable[[], list[str]] = lambda: []


def _catalog_check() -> list[str]:
    outcomes = []
    for name, params in ACCEPTANCE_CATALOG:
        fam = make_series_family(name, **params)
        decision = adaptive_classify(fam.ratio_spec).decision.value
        truth = (checks.geometric_truth(params["x"]) if name == "geometric"
                 else checks.series_truth(params.get("p", params.get("r"))))
        outcomes.append((decision, truth))
    problem = checks.catalog_gate(outcomes)
    return [problem] if problem else []


def stratified(rng: random.Random, values, count: int) -> list:
    """One draw from each of ``count`` equal slices of ``values``.

    Every round then spans each grid, so the cost of a round, and of a run,
    hardly depends on the seed.
    """
    size = len(values) / count
    return [values[int((i + rng.random()) * size)] for i in range(count)]


def classify_families(seed: int, quick: bool, workdir: Path) -> Workload:
    rng = random.Random(seed)
    rounds = []
    for _ in range(4 if quick else 64):
        ops = [FamilyOp(name, x, expected_to_fail=True) for name, x in KNOWN_WRONG]
        for name, fam in FAMILIES.items():
            ops += [FamilyOp(name, x) for x in stratified(rng, fam.grid, 5)]
        rng.shuffle(ops)
        rounds.append(ops)
    for name, fam in FAMILIES.items():  # warm-up
        FamilyOp(name, fam.grid[0]).run(NO_TRACE)
    return Workload("classify-families", rounds, None, run_checks=_catalog_check)


def classify_expressions(seed: int, quick: bool, workdir: Path) -> Workload:
    rng = random.Random(seed)
    tables = {shape: [make_table_op(shape, x, workdir / f"{shape}-{i}.txt")
                      for i, x in enumerate(stratified(rng, SERIES_GRID, 8))]
              for shape in TABLE_SHAPES}
    rounds = []
    for r in range(4 if quick else 64):
        ops = [pool[r % len(pool)] for pool in tables.values()]
        for name, shape in SHAPES.items():
            ops += [ExpressionOp(name, x) for x in stratified(rng, shape.grid, 4)]
        rng.shuffle(ops)
        rounds.append(ops)
    warm_up = [pool[0] for pool in tables.values()]
    warm_up += [ExpressionOp(name, shape.grid[0]) for name, shape in SHAPES.items()]
    for op in warm_up:
        op.run(NO_TRACE)
    return Workload("classify-expressions", rounds, None, run_checks=_catalog_check)


def _simulate_checks() -> list[str]:
    """Rebuild small reports bit for bit, and set the exact return probabilities."""
    problems = []
    for name, drift in DRIFTS.items():
        got = dataclasses.asdict(simulate(drift.build(), seed=97, horizon=400, n_paths=48))
        mismatch = checks.report_mismatch(got, checks.scalar_walk_report(drift.alpha, 97, 400, 48))
        if mismatch:
            problems.append(f"simulate({name}) differs from the SplitMix64 rebuild: {mismatch}")
    return problems


_EXACT: dict = {}


def exact_return(drift_name: str, horizon: int) -> float:
    key = (drift_name, horizon)
    if key not in _EXACT:
        _EXACT[key] = checks.return_probability(DRIFTS[drift_name].alpha, horizon)
    return _EXACT[key]


def simulate_walks(seed: int, quick: bool, workdir: Path) -> Workload:
    rng = random.Random(seed)
    built = {name: d.build() for name, d in DRIFTS.items()}
    scale = 10 if quick else 1
    rounds = [
        [SimulateOp(name, built[name], width, paths // scale, horizon // scale,
                    rng.getrandbits(63))
         for name, width, paths, horizon in SIM_CONFIGS]
        for _ in range(2 if quick else 32)
    ]
    for name in DRIFTS:  # warm-up
        simulate(built[name], seed=1, horizon=200, n_paths=64)
    narrow = frozenset(op.kind for op in rounds[0] if op.width == "narrow")
    return Workload("simulate-walks", rounds, narrow, run_checks=_simulate_checks)


def cli_calls(seed: int, quick: bool, workdir: Path) -> Workload:
    rng = random.Random(seed)
    out = str(workdir / "cli-reply.json")
    pick = lambda values: rng.choice(values)  # noqa: E731
    p, r, r2 = pick(SERIES_GRID), pick(SERIES_GRID), pick(SERIES_GRID)
    c1, c2, c3 = pick(RATE_GRID), pick(RATE_GRID), pick(RATE_GRID)
    c4 = pick(grid((0.85, 1.15, 0.005)))  # bd-iterlog K=4 is inconclusive here: exit 2
    a1, a2, a3, a4, a5, a6 = (pick(DRIFT_GRID) for _ in range(6))
    k, x, m = rng.randint(1, 3), round(rng.uniform(20.0, 1e6), 3), rng.randint(16, 10**6)
    sim_seed = rng.randrange(2**31)
    table = make_table_op("ratios-power", pick(SERIES_GRID), workdir / "table.txt")
    calls = [
        (("classify-series", "--family", "p-series", "--p", repr(p)),
         ("truth", checks.series_truth(p))),
        (("classify-series", "--family", "iterlog-power", "--K", "2", "--r", repr(r)),
         ("truth", checks.series_truth(r))),
        (("classify-series", "--a-n", SHAPES["a_n-log"].texts(r2)[0], "--first-index", "2"),
         ("truth", checks.series_truth(r2))),
        (("classify-series", "--delta-n", SHAPES["delta_n-raabe"].texts(c1)[0],
          "--first-index", "1"), ("truth", checks.series_truth(c1))),
        (("classify-series", "--table", table.path, "--table-kind", "ratios"),
         ("truth", checks.series_truth(table.x))),
        (("classify-bdp", "--family", "bd-log", "--c", repr(c2)),
         ("truth", checks.chain_truth(c2))),
        (("classify-bdp", "--family", "bd-iterlog", "--K", "4", "--c", repr(c4)),
         ("truth", checks.chain_truth(c4))),
        (("classify-bdp", "--lambda", SHAPES["rates-power"].texts(c3)[0], "--mu", "1"),
         ("truth", checks.chain_truth(c3))),
        (("classify-walk", "--alpha-const", repr(a1)), ("truth", _walk_truth(a1))),
        (("classify-walk", "--alpha", SHAPES["alpha-decay"].texts(a2)[0], "--C", "1.0"),
         ("truth", _walk_truth(a2))),
        (("simulate-walk", "--alpha-const", repr(a3), "--paths", "200", "--horizon", "1000",
          "--seed", str(sim_seed)), ("walk", ("const", a3, sim_seed, 1000, 200))),
        (("simulate-walk", "--alpha", SHAPES["alpha-decay"].texts(a4)[0], "--paths", "200",
          "--horizon", "1000", "--seed", str(sim_seed + 1)),
         ("walk", ("decay", a4, sim_seed + 1, 1000, 200))),
        (("simulate-walk", "--alpha-const", repr(a5), "--paths", "200", "--horizon", "1000",
          "--seed", str(sim_seed + 2)), ("walk", ("const", a5, sim_seed + 2, 1000, 200))),
        (("simulate-walk", "--alpha", SHAPES["alpha-decay"].texts(a6)[0], "--paths", "200",
          "--horizon", "1000", "--seed", str(sim_seed + 3)),
         ("walk", ("decay", a6, sim_seed + 3, 1000, 200))),
        (("eval-iterlog", "--K", str(k), "--x", repr(x)),
         ("value", checks.iterlog_chain(k, x))),
        (("eval-iterlog", "--K", "2", "--what", "zeta", "--x", str(m)),
         ("value", checks.zeta_chain(2, m))),
    ]
    ops = [CliOp(args, (expect,), out) for args, expect in calls]
    if quick:  # one call per subcommand, the inconclusive one among them
        ops = [ops[i] for i in (0, 6, 8, 10, 14)]
    ops[-1].run(NO_TRACE)  # warm-up: file cache and bytecode
    return Workload("cli-calls", [ops], frozenset({"simulate-walk"}))


SETUP: dict[str, Callable[[int, bool, Path], Workload]] = {
    "classify-families": classify_families,
    "classify-expressions": classify_expressions,
    "simulate-walks": simulate_walks,
    "cli-calls": cli_calls,
}
