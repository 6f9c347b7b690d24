"""The traced run: spans, call counts, replays and layer probes.

Spans are recorded from the benchmark's own files, around its calls into
each layer's public functions; nothing inside the program is instrumented.
Each span has a name, a start, an end and its operation as parent, and is
kept in memory until the run ends.  Calls are counted by wrapping the
callables the benchmark supplies: ratio, delta, rates and alpha, and the
parsed expressions behind them.

A layer metric comes from the workload's own operations when they reach
that layer.  When they do not, it comes from a fixed set of probe
operations run under the same tracer, so every traced run reports every
metric; the README lists which figures are probes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from demorgan import extended_bdm_test, extract_sn, sample_grid
from demorgan import cli, families
from demorgan.errors import DemorganError
from demorgan.expr import parse_expression
from demorgan.iterlog import iterlog_product, min_domain, zeta_weight
from demorgan.report import Report, verdict_to_dict
from demorgan.walk import path_seed, simulate_reference

import speed
import workloads

CLI_SUBCOMMANDS = ("classify-series", "classify-bdp", "classify-walk", "simulate-walk",
                   "eval-iterlog")

PER_LAYER = (
    "import.interpreter_ms", "import.demorgan_cli_ms", "import.numpy_ms", "import.mpmath_ms",
    *(f"cli.main_ms.{sub}" for sub in CLI_SUBCOMMANDS),
    "cli.build_parser_us", "report.to_json_us", "families.build_us",
    *(f"convergence.adaptive_ms.depth{k}" for k in range(1, 5)),
    *(f"convergence.bdm_test_ms.K{k}" for k in range(1, 5)),
    "convergence.extract_sn_us.delta", "convergence.extract_sn_us.ratio",
    "convergence.levels_per_verdict", "convergence.samples_per_verdict",
    "convergence.dropped_per_verdict", "convergence.source_calls_per_verdict",
    "convergence.decisive_verdicts", "convergence.escalations.guard",
    "convergence.escalations.band",
    "iterlog.zeta_weight_ns", "iterlog.iterlog_product_ns",
    "expr.parse_us", "expr.eval_ns", "expr.evals_per_verdict",
    "tables.load_us_per_row",
    "birthdeath.bdp_classify_ms", "walk.rw_classify_ms",
    "walk.ns_per_path_step.wide", "walk.ns_per_path_step.narrow",
    "walk.alpha_evals_per_run", "walk.alpha_at_ns", "walk.path_seed_ns",
    "walk.reference_ns_per_path_step",
    "trace.overhead_ms", "trace.overhead_pct",
)


def unit_of(name: str) -> str:
    """The unit a per-layer metric's name spells: ``_ms``, ``_us``, ``_ns``, ``_pct``."""
    found = re.search(r"(?:^|[._])(ms|us|ns|pct)(?:[._]|$)", name)
    if not found:
        return "count"
    return "%" if found.group(1) == "pct" else found.group(1)


class _Span:
    __slots__ = ("tracer", "name", "tag", "work", "start", "end")

    def __init__(self, tracer, name, tag, work):
        self.tracer, self.name, self.tag, self.work = tracer, name, tag, work

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.spans.append((self.tracer.op, self.name, self.tag, self.start,
                                  self.end, self.work))
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    active = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None  # index of the operation in flight, parent of new spans
        self.n_ops = 0
        self.per_op: dict[int, Counter] = {}  # calls counted during each operation
        self.verdicts: list[tuple] = []  # (op index, classify seconds, verdict, replay spec)

    def span(self, name: str, tag: str = "", work: float = 0.0) -> _Span:
        return _Span(self, name, tag, work)

    def counted(self, name: str, fn):
        if fn is None:
            return None
        counts = self.counts

        def wrapper(n):
            counts[name] += 1
            return fn(n)
        return wrapper

    def verdict(self, span: _Span, verdict, replay) -> None:
        self.verdicts.append((self.op, span.seconds, verdict, replay))

    def run_ops(self, ops) -> tuple[list, float]:
        """Run operations with a root span each; returns (results, seconds).

        The seconds are summed over the operations, at the reference speed.
        """
        results, adjusted, clocks = [], {}, {}
        for i, op in enumerate(ops):
            self.op, self.n_ops = self.n_ops, self.n_ops + 1
            before = Counter(self.counts)
            with self.span("op", tag=op.kind) as span:
                results.append(workloads.attempt(op, self))
            if op.kernel not in clocks:
                clocks[op.kernel] = speed.SpeedClock(op.kernel, adjusted)
            clocks[op.kernel].add(i, span.seconds)
            self.per_op[self.op] = self.counts - before
        for clock in clocks.values():
            clock.flush()
        self.op = None
        return results, sum(adjusted.values())


# ---------------------------------------------------------------------------
# Aggregation.

def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _mean(values):
    return sum(values) / len(values) if values else None


def op_metrics(tr: Tracer) -> dict[str, float]:
    """Layer figures from the operations a tracer saw; absent when none apply."""
    by_name = defaultdict(list)
    per_work = defaultdict(list)
    for _, name, tag, start, end, work in tr.spans:
        by_name[name].append(end - start)
        if work:
            per_work[(name, tag)].append((end - start) / work)
    m = {
        "families.build_us": _median(by_name["families.build"], 1e6),
        "expr.parse_us": _median(per_work[("expr.parse", "")], 1e6),
        "tables.load_us_per_row": _median(per_work[("tables.load", "")], 1e6),
        "birthdeath.bdp_classify_ms": _median(by_name["birthdeath.bdp_classify"], 1e3),
        "walk.rw_classify_ms": _median(by_name["walk.rw_classify"], 1e3),
        "walk.ns_per_path_step.wide": _median(per_work[("walk.simulate", "wide")], 1e9),
        "walk.ns_per_path_step.narrow": _median(per_work[("walk.simulate", "narrow")], 1e9),
    }
    sims = [tr.per_op[op]["walk.alpha"] for op, name, *_ in tr.spans if name == "walk.simulate"]
    m["walk.alpha_evals_per_run"] = _mean(sims)
    if tr.verdicts:
        depth = defaultdict(list)
        levels, samples, dropped, calls, evals = [], [], [], [], []
        decisive = guard = band = 0
        for op, seconds, verdict, _ in tr.verdicts:
            trace = verdict.trace
            depth[max((r.level for r in trace), default=1)].append(seconds)
            levels.append(len(trace))
            samples.append(sum(r.usable + r.dropped for r in trace))
            dropped.append(sum(r.dropped for r in trace))
            calls.append(tr.per_op[op]["source"])
            evals.append(tr.per_op[op]["expr.eval"])
            decisive += verdict.decision.value != "inconclusive"
            for r in trace:
                if r.escalated:
                    if r.decision.value == "inconclusive":
                        band += 1
                    else:
                        guard += 1
        for k in range(1, 5):
            m[f"convergence.adaptive_ms.depth{k}"] = _median(depth[k], 1e3)
        m.update({
            "convergence.levels_per_verdict": _mean(levels),
            "convergence.samples_per_verdict": _mean(samples),
            "convergence.dropped_per_verdict": _mean(dropped),
            "convergence.source_calls_per_verdict": _mean(calls),
            "expr.evals_per_verdict": _mean(evals),
            "convergence.decisive_verdicts": decisive,
            "convergence.escalations.guard": guard,
            "convergence.escalations.band": band,
        })
        m.update(replay_metrics(tr.verdicts))
    return {k: v for k, v in m.items() if v is not None}


def replay_metrics(verdicts) -> dict[str, float]:
    """Re-run each level of each verdict: the fixed-depth test and every extraction."""
    bdm = defaultdict(list)
    extract = defaultdict(list)
    for _, _, verdict, spec in verdicts:
        route = "delta" if spec.delta is not None else "ratio"
        for level in verdict.trace:
            K, window = level.level, tuple(level.window)
            t0 = time.perf_counter()
            extended_bdm_test(K, spec, window)
            bdm[K].append(time.perf_counter() - t0)
            points = sample_grid(window[0], window[1], support=spec.support)
            t0 = time.perf_counter()
            for n in points:
                try:
                    extract_sn(K, spec, n)
                except (DemorganError, ArithmeticError):
                    pass
            extract[route].append((time.perf_counter() - t0) / len(points))
    m = {f"convergence.bdm_test_ms.K{k}": _median(bdm[k], 1e3) for k in range(1, 5)}
    for route in ("delta", "ratio"):
        m[f"convergence.extract_sn_us.{route}"] = _median(extract[route], 1e6)
    return m


# ---------------------------------------------------------------------------
# Probes: fixed small inputs, the same in every traced run.

def probe_ops(workdir: Path) -> list:
    """Operations that reach every layer, for metrics a workload's own ops miss."""
    built = {name: d.build() for name, d in workloads.DRIFTS.items()}
    return [
        # verdicts at every depth from 1 (p-series) to 4 (iterlog-power K=3)
        workloads.FamilyOp("p-series", 2.0),
        workloads.FamilyOp("iterlog-power-K1", 2.0),
        workloads.FamilyOp("iterlog-power-K2", 2.0),
        workloads.FamilyOp("iterlog-power-K3", 2.0),
        workloads.FamilyOp("bd-power", 2.0),
        workloads.FamilyOp("alpha-const", 0.1),
        workloads.ExpressionOp("a_n-log", 2.0),
        workloads.ExpressionOp("rates-power", 2.0),
        workloads.ExpressionOp("alpha-decay", 0.1),
        workloads.make_table_op("terms-power", 2.0, workdir / "probe-terms.txt"),
        workloads.SimulateOp("const-0.1", built["const-0.1"], "wide", 2000, 1000, 11),
        workloads.SimulateOp("expr-0.1+0.05/n", built["expr-0.1+0.05/n"], "narrow", 100,
                             10_000, 12),
    ]


def _per_call(fn, args_list, repeats=5) -> float:
    """Median over repeats of the seconds per call across ``args_list``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times)


def _grid_indices(lo: int) -> list[int]:
    return list(sample_grid(lo, 10_000_000, 64))


def layer_probes(workdir: Path) -> dict[str, float]:
    m = {}
    pairs = [(K, n) for K in range(1, 5) for n in _grid_indices(min_domain(K))]
    m["iterlog.zeta_weight_ns"] = _per_call(zeta_weight, pairs) * 1e9
    m["iterlog.iterlog_product_ns"] = _per_call(iterlog_product, pairs) * 1e9

    evals = []
    for shape in workloads.SHAPES.values():
        for text in shape.texts(1.5):
            expr = parse_expression(text)
            evals += [(expr, n) for n in _grid_indices(max(shape.first_index, 3))]
    m["expr.eval_ns"] = _per_call(lambda e, n: e(n), evals) * 1e9

    drifts = [d.build() for d in workloads.DRIFTS.values()]
    m["walk.alpha_at_ns"] = _per_call(
        lambda d, s: d.alpha_at(s), [(d, s) for d in drifts for s in range(1, 2001)]) * 1e9
    m["walk.path_seed_ns"] = _per_call(path_seed, [(2024, i) for i in range(20_000)]) * 1e9
    ref = families.alpha_const(0.1).drift
    t0 = time.perf_counter()
    simulate_reference(ref, seed=5, horizon=500, n_paths=40)
    m["walk.reference_ns_per_path_step"] = (time.perf_counter() - t0) / (500 * 40) * 1e9

    m["cli.build_parser_us"] = _per_call(cli.build_parser, [()] * 10) * 1e6
    report = Report(mode="series", input={},
                    result=verdict_to_dict(workloads.adaptive_classify(
                        families.log_power(2.0).ratio_spec)))
    m["report.to_json_us"] = _per_call(report.to_json, [()] * 20) * 1e6
    m.update(cli_main_probe(workdir))
    m.update(import_probe())
    return m


def cli_main_probe(workdir: Path) -> dict[str, float]:
    """cli.main in process, output discarded; median of three calls each."""
    table = workloads.make_table_op("ratios-power", 2.0, workdir / "probe-ratios.txt")
    argv = {
        "classify-series": ["classify-series", "--table", table.path, "--table-kind", "ratios"],
        "classify-bdp": ["classify-bdp", "--family", "bd-log", "--c", "2"],
        "classify-walk": ["classify-walk", "--alpha", "0.1 + 0.05/n"],
        "simulate-walk": ["simulate-walk", "--alpha-const", "0.4", "--paths", "200",
                          "--horizon", "1000"],
        "eval-iterlog": ["eval-iterlog", "--K", "3", "--x", "100"],
    }
    m = {}
    for sub, args in argv.items():
        times = []
        for _ in range(3):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main([*args, "--format", "json", "--no-timing"])
            times.append(time.perf_counter() - t0)
            if code not in (0, 2):
                raise RuntimeError(f"cli.main({args}) exited {code}")
        m[f"cli.main_ms.{sub}"] = statistics.median(times) * 1e3
    return m


def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative microseconds per module from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if cum.isdigit():
                cumulative[name] = int(cum)
    return cumulative


def import_probe(repeats: int = 3) -> dict[str, float]:
    env = workloads.cli_env()
    bare, cli_ms, numpy_ms, mpmath_ms = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import demorgan.cli"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        cum = _importtime(proc.stderr)
        cli_ms.append(cum["demorgan.cli"] / 1e3)
        numpy_ms.append(cum["numpy"] / 1e3)
        mpmath_ms.append(cum["mpmath"] / 1e3)
    return {
        "import.interpreter_ms": statistics.median(bare),
        "import.demorgan_cli_ms": statistics.median(cli_ms),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.mpmath_ms": statistics.median(mpmath_ms),
    }


# ---------------------------------------------------------------------------

def write_spans(spans, path: Path) -> None:
    """One JSON line per span; a layer span's parent is its operation's root span."""
    root = {op: i for i, (op, name, *_) in enumerate(spans) if name == "op"}
    with open(path, "w") as out:
        for i, (op, name, tag, start, end, work) in enumerate(spans):
            out.write(json.dumps({"id": i, "parent": None if name == "op" else root[op],
                                  "op": op, "name": name, "tag": tag, "start": start,
                                  "end": end, "work": work}) + "\n")


def traced_run(wl, seconds: float, workdir: Path, trace_path: Path, run_pass):
    """Untraced pass, then the same operations traced; returns (ops, results, metrics).

    Layer times are scaled to the reference speed by the median of the
    calibration kernel's times taken between the phases.
    """
    kernel_times = [speed.median_kernel_seconds("python")]
    ops, results, untraced, _ = run_pass(wl, seconds / 2)
    tracer = Tracer()
    traced_results, traced = tracer.run_ops(ops)
    kernel_times.append(speed.median_kernel_seconds("python"))

    probe = Tracer()
    probe.run_ops(probe_ops(workdir) * 3)
    metrics = op_metrics(probe)
    metrics.update(op_metrics(tracer))
    kernel_times.append(speed.median_kernel_seconds("python"))
    metrics.update(layer_probes(workdir))
    kernel_times.append(speed.median_kernel_seconds("python"))
    factor = speed.KERNELS["python"][2] / statistics.median(kernel_times)
    metrics = {k: v * factor if unit_of(k) in ("ms", "us", "ns") else v
               for k, v in metrics.items()}
    untraced = sum(untraced)
    metrics["trace.overhead_ms"] = (traced - untraced) * 1e3
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    write_spans(tracer.spans, trace_path)
    return ops + ops, results + traced_results, metrics
