"""Run one workload of the demorgan benchmark and print its result.

    python3 bench/run.py --workload classify-families --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run, and the spans are written to ``.bench_out/``.  The
README in this directory describes the workloads and the metrics.
"""

import os

# One closed-loop caller on one core: pin numpy's thread pools before import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

import speed  # noqa: E402

# Set-up is timed from here, between two runs of the calibration kernel.
KERNEL_BEFORE_SETUP = speed.median_kernel_seconds("python")
T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("classify-families", "classify-expressions", "simulate-walks", "cli-calls")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
SETUP_SAMPLES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small rounds and one set-up sample, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print the set-up time and exit")
    return p.parse_args(argv)


def run_pass(wl, seconds):
    """Whole rounds until ``seconds`` have passed.

    Returns (ops, results, per-op latencies in seconds at the reference
    speed, raw per-op latencies).
    """
    from workloads import NO_TRACE, attempt

    ops, results, raw, adjusted, clocks = [], [], [], {}, {}
    t0 = time.perf_counter()
    for r in itertools.count():
        for op in wl.rounds[r % len(wl.rounds)]:
            start = time.perf_counter()
            result = attempt(op, NO_TRACE)
            raw.append(time.perf_counter() - start)
            if op.kernel not in clocks:
                clocks[op.kernel] = speed.SpeedClock(op.kernel, adjusted)
            clocks[op.kernel].add(len(ops), raw[-1])
            ops.append(op)
            results.append(result)
        if time.perf_counter() - t0 >= seconds:
            break
    for clock in clocks.values():
        clock.flush()
    return ops, results, [adjusted[i] for i in range(len(ops))], raw


def evaluate(wl, ops, results):
    """(failed operations, problems that make the run incorrect)."""
    problems = wl.run_checks()
    failed = 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            problem, expected = f"{op.kind}: raised {result!r}", False
        else:
            problem, expected = op.problem(result), op.expected_to_fail
        if problem:
            failed += 1
            if not expected:
                problems.append(problem)
    return failed, problems


def end_to_end(wl, ops, results, latencies, setup_samples):
    total = sum(latencies)
    work = sum(getattr(op, "work", 1) for op in ops)
    if wl.tail_kinds is None:
        tail = statistics.quantiles(latencies, n=10)[-1]
    else:
        tail = statistics.median(t for op, t in zip(ops, latencies) if op.kind in wl.tail_kinds)
    if wl.name == "cli-calls":
        peak_kib = max(r[2] for r in results if isinstance(r, tuple))
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_kib / 1024.0,
        "throughput_per_s": work / total,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def setup_seconds() -> float:
    """Set-up time of this process at the reference speed."""
    raw = time.perf_counter() - T_START
    kernel = (KERNEL_BEFORE_SETUP + speed.median_kernel_seconds("python")) / 2
    return raw * speed.KERNELS["python"][2] / kernel


def setup_sample(args) -> float:
    """Set-up time of a fresh process, measured the same way as this one's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "demorgan" / "__init__.py").is_file():
        print(f"error: no demorgan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = workloads.SETUP[args.workload](args.seed, args.quick, workdir)
        setup_s = setup_seconds()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            import tracing

            ops, results, layer = tracing.traced_run(
                wl, args.seconds, workdir, OUT / f"trace-{stem}.jsonl", run_pass)
            missing = [name for name in tracing.PER_LAYER if name not in layer]
            if missing:
                print(f"error: no figure for {', '.join(missing)}", file=sys.stderr)
                return 1
            metrics = {name: {"value": layer[name], "unit": tracing.unit_of(name)}
                       for name in tracing.PER_LAYER}
        else:
            ops, results, latencies, raw = run_pass(wl, args.seconds)
            samples = [setup_s] + [setup_sample(args)
                                   for _ in range(0 if args.quick else SETUP_SAMPLES - 1)]
            metrics = end_to_end(wl, ops, results, latencies, samples)
        failed, problems = evaluate(wl, ops, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not problems, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = dict(result)
    if not args.trace:  # the same figures without the speed adjustment, for reference
        unadjusted = end_to_end(wl, ops, results, raw, samples)
        record["unadjusted"] = {k: unadjusted[k]["value"]
                                for k in ("throughput_per_s", "op_p50_ms", "op_tail_ms")}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} attempted, {failed} failed, "
          f"{'correct' if not problems else 'INCORRECT'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
