"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py             # planted faults, quick runs, grid audit
    python3 bench/selftest.py --no-audit  # skip the audit (about 30 s)

1. Planted wrong outputs must each be flagged: a flipped verdict, a simulate
   report with one extra returned path, a CLI reply with the wrong exit code,
   and a few more.
2. Quick mode runs every workload at a small size, untraced and traced; each
   run must be correct, report every metric of BENCHMARK.json, and fail
   exactly the operations it is meant to.
3. The audit classifies every parameter the seeded draws can pick and
   checks that none gets a wrong verdict, so no seed can add a failure; and
   that every fixed known-wrong case is still wrong.

Exits 0 when everything holds.
"""

import argparse
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from demorgan import simulate  # noqa: E402

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def planted_faults(workdir: Path) -> None:
    op = workloads.FamilyOp("p-series", 2.0)
    expect(op.problem("converges") is None, "right verdict passes")
    expect(op.problem("inconclusive") is None, "inconclusive verdict passes")
    expect(op.problem("diverges") is not None, "flipped verdict is flagged")
    expect(workloads.ExpressionOp("alpha-const", 0.1).problem("transient") is not None,
           "flipped walk verdict is flagged")
    expect(checks.catalog_gate([("converges", "converges")] * 9 + [("inconclusive", "x")] * 3)
           is not None, "9 of 12 catalog families decided is flagged")

    drift = workloads.DRIFTS["const-0.4"]
    got = dataclasses.asdict(simulate(drift.build(), seed=97, horizon=400, n_paths=48))
    want = checks.scalar_walk_report(drift.alpha, 97, 400, 48)
    expect(checks.report_mismatch(got, want) is None, "simulate report rebuilt bit for bit")
    extra = dict(got, returned_paths=got["returned_paths"] + 1)
    expect(checks.report_mismatch(extra, want) is not None,
           "report with one extra returned path is flagged")
    p = checks.return_probability(drift.alpha, 400)
    expect(checks.walk_report_problem(got, p) is None, "real report passes distribution check")
    shifted = dict(got, final_positions=dict(got["final_positions"],
                                             min=got["final_positions"]["min"] + 1))
    expect(checks.walk_report_problem(shifted, p) is not None, "wrong parity is flagged")
    skewed = dict(got, returned_paths=48, returned_fraction=1.0)
    expect(checks.walk_report_problem(skewed, p) is not None,
           "returned fraction far from the exact probability is flagged")

    out = str(workdir / "reply.json")
    cli_op = workloads.CliOp(("classify-series", "--family", "p-series", "--p", "2.0"),
                             (("truth", "converges"),), out)
    code, reply, rss = cli_op.run(workloads.NO_TRACE)
    expect(cli_op.problem((code, reply, rss)) is None, "real CLI reply passes")
    expect(cli_op.problem((2, reply, rss)) is not None, "CLI reply with wrong exit code is flagged")
    flipped = reply.replace(b'"decision": "converges"', b'"decision": "diverges"')
    expect(cli_op.problem((code, flipped, rss)) is not None,
           "CLI reply with wrong decision is flagged")
    iterlog_op = workloads.CliOp(("eval-iterlog", "--K", "2", "--x", "100.0"),
                                 (("value", checks.iterlog_chain(2, 100.0) * (1 + 1e-9)),), out)
    expect(iterlog_op.problem(iterlog_op.run(workloads.NO_TRACE)) is not None,
           "eval-iterlog value off by 1e-9 is flagged")


def quick_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"quick {w['name']} trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want_failed = 0
            if w["name"] == "classify-families":  # the fixed cases, in every round
                per_round = len(workloads.KNOWN_WRONG) + 5 * len(workloads.FAMILIES)
                want_failed = result["attempted"] // per_round * len(workloads.KNOWN_WRONG)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == want_failed and units == names,
                   f"{label}: {result['attempted']} attempted, {result['failed']} failed, "
                   f"{len(units)} metrics")


def audit(workdir: Path) -> None:
    for name, fam in workloads.FAMILIES.items():
        wrong = [x for x in fam.grid if workloads.FamilyOp(name, x).problem(
            workloads.FamilyOp(name, x).run(workloads.NO_TRACE))]
        expect(not wrong, f"audit family {name}: {len(fam.grid)} values, wrong at {wrong[:5]}")
    cli_k4 = workloads.grid((0.85, 1.15, 0.005))
    wrong = [c for c in cli_k4 if workloads.FamilyOp("bd-iterlog-K4", c).problem(
        workloads.FamilyOp("bd-iterlog-K4", c).run(workloads.NO_TRACE))]
    expect(not wrong, f"audit bd-iterlog-K4 CLI range: wrong at {wrong[:5]}")
    for name, shape in workloads.SHAPES.items():
        ops = [workloads.ExpressionOp(name, x) for x in shape.grid]
        wrong = [op.x for op in ops if op.problem(op.run(workloads.NO_TRACE))]
        expect(not wrong, f"audit shape {name}: {len(ops)} values, wrong at {wrong[:5]}")
    for shape in workloads.TABLE_SHAPES:
        wrong = []
        for x in workloads.SERIES_GRID:
            op = workloads.make_table_op(shape, x, workdir / "audit.txt")
            if op.problem(op.run(workloads.NO_TRACE)):
                wrong.append(x)
        expect(not wrong, f"audit table {shape}: wrong at {wrong[:5]}")
    for name, x in workloads.KNOWN_WRONG:
        op = workloads.FamilyOp(name, x)
        expect(op.problem(op.run(workloads.NO_TRACE)) is not None,
               f"known-wrong case {name}({x}) is still wrong (else drop it from KNOWN_WRONG)")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--no-audit", action="store_true")
    args = p.parse_args()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        planted_faults(Path(tmp))
        quick_runs()
        if not args.no_audit:
            audit(Path(tmp))
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
