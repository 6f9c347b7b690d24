"""Reflected walk: step law, chain mapping, classification, simulation."""

import functools
import math
import os
import shutil
import subprocess
import sys
import threading
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demorgan import walk
from demorgan.errors import EvalError, InvalidDrift
from demorgan.expr import parse_expression
from demorgan.families import alpha_const, alpha_threshold
from demorgan.walk import (
    GAMMA,
    DriftSpec,
    mix64,
    path_seed,
    rw_classify,
    rw_to_bdp,
    simulate,
    simulate_reference,
    step_probabilities,
)
from demorgan.birthdeath import Fate, recurrence_ratio
from demorgan.convergence import extract_sn, sample_grid
from demorgan.iterlog import min_domain

QUARTER = alpha_const(0.25).drift


class TestStepProbabilities:
    def test_origin_forces_up(self):
        assert step_probabilities(QUARTER, 0) == (1.0, 0.0)

    def test_example_at_ten(self):
        p_up, p_down = step_probabilities(QUARTER, 10)
        assert math.isclose(p_up, 0.525, abs_tol=1e-15)
        assert math.isclose(p_down, 0.475, abs_tol=1e-15)

    def test_drift_bound_enforced(self):
        # alpha(S) must stay strictly below S/2.
        greedy = DriftSpec(alpha=lambda n: 0.5 * n, C=100.0)
        with pytest.raises(InvalidDrift):
            step_probabilities(greedy, 1)
        barely = DriftSpec(alpha=lambda n: 0.5 * n - 1e-12, C=100.0)
        p_up, p_down = step_probabilities(barely, 4)
        assert 0.0 < p_down < p_up < 1.0

    def test_cap_enforced(self):
        capped = DriftSpec(alpha=lambda n: 0.4, C=0.3)
        with pytest.raises(InvalidDrift):
            step_probabilities(capped, 10)

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.nan])
    def test_non_positive_cap_rejected(self, cap):
        with pytest.raises(ValueError, match=r"^C must be positive, got "):
            DriftSpec(alpha=lambda n: 0.1, C=cap)

    def test_infinite_cap_means_no_cap(self):
        uncapped = DriftSpec(alpha=lambda n: 0.45 * n, C=math.inf)
        assert step_probabilities(uncapped, 10)[0] == 0.5 + 0.45

    def test_negative_position_rejected(self):
        with pytest.raises(InvalidDrift):
            step_probabilities(QUARTER, -1)

    @given(
        a=st.floats(min_value=1e-9, max_value=0.499),
        S=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=300)
    def test_conservation_is_exact(self, a, S):
        spec = DriftSpec(alpha=lambda n: a, C=0.5)
        p_up, p_down = step_probabilities(spec, S)
        assert p_up + p_down == 1.0
        assert 0.0 < p_down < 1.0 and 0.0 < p_up < 1.0


class TestChainMapping:
    def test_quarter_drift_rates(self):
        rates = rw_to_bdp(QUARTER)
        for n in (1, 4, 100):
            lam, mu = rates.rates_at(n)
            assert math.isclose(lam, 0.5 + 0.25 / n, rel_tol=1e-15)
            assert math.isclose(mu, 0.5 - 0.25 / n, rel_tol=1e-15)

    def test_example_values(self):
        rates = rw_to_bdp(alpha_const(0.4).drift)
        lam, mu = rates.rates_at(2)
        assert math.isclose(lam, 0.7, rel_tol=1e-15)
        assert math.isclose(mu, 0.3, rel_tol=1e-15)
        assert math.isclose(lam / mu, 7.0 / 3.0, rel_tol=1e-14)

    @given(
        a=st.floats(min_value=1e-6, max_value=0.499),
        n=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=300)
    def test_mapping_fidelity(self, a, n):
        # (lam - mu) / (lam + mu) == 2 * alpha/n: exact in rationals for the
        # construction lam = 1/2 + t, mu = 1/2 - t, and within a few ulps in
        # floats (each rate rounds once).
        t = Fraction(a) / n  # a enters as its exact binary value
        lamq, muq = Fraction(1, 2) + t, Fraction(1, 2) - t
        assert (lamq - muq) / (lamq + muq) == 2 * t
        spec = DriftSpec(alpha=lambda m: a, C=0.5)
        rates = rw_to_bdp(spec)
        lam, mu = rates.rates_at(n)
        lhs = (lam - mu) / (lam + mu)
        rhs = 2.0 * (a / n)
        # Each rate rounds once at magnitude ~1/2, so the float comparison is
        # absolute at that scale, not relative to the (possibly tiny) drift.
        assert abs(lhs - rhs) <= 4 * math.ulp(1.0)

    def test_delta_form_is_cancellation_free(self):
        rates = rw_to_bdp(QUARTER)
        n = 10**6
        t = 0.25 / n
        assert math.isclose(rates.ratio_delta(n), 2 * t / (0.5 - t), rel_tol=1e-15)


class TestClassification:
    @pytest.mark.parametrize("a,expected,max_level", [
        (0.4, Fate.TRANSIENT, 1),
        (0.1, Fate.RECURRENT, 1),
        (0.25, Fate.RECURRENT, 1),
    ])
    def test_constant_drift(self, a, expected, max_level):
        result = rw_classify(alpha_const(a).drift)
        assert result.decision is expected
        assert result.decision is result.chain.decision
        assert result.chain.series_verdict.level <= max_level

    @pytest.mark.parametrize("depth,c", [(1, 0.5), (1, 2.0), (2, 0.5), (2, 2.0)])
    def test_threshold_drift_coefficient(self, depth, c):
        # Drift shaped like the depth-K boundary with weight c: the depth-K
        # coefficient of the induced chain ratio lands on c; the quadratic
        # rate correction vanishes in the extraction.
        fam = alpha_threshold(depth, c)
        spec = recurrence_ratio(rw_to_bdp(fam.drift))
        lo = max(min_domain(depth), 10**6)
        for n in sample_grid(lo, 10**7, 8):
            s = extract_sn(depth, spec, n).value
            assert abs(s - c) <= 0.15, (depth, c, n, s)

    @pytest.mark.parametrize("depth,c,expected", [
        (1, 2.0, Fate.TRANSIENT), (1, 0.5, Fate.RECURRENT),
        (2, 2.0, Fate.TRANSIENT), (2, 0.5, Fate.RECURRENT),
    ])
    def test_threshold_drift_classification(self, depth, c, expected):
        result = rw_classify(alpha_threshold(depth, c).drift)
        assert result.decision is expected


class TestRngContract:
    def test_mix64_reference_values(self):
        # Independent recomputation of the documented finalizer.
        def mix_ref(z):
            mask = (1 << 64) - 1
            z &= mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        for z in (0, 1, 42, 2**63, 0xDEADBEEFCAFEF00D):
            assert mix64(z) == mix_ref(z)

    def test_path_seed_rule(self):
        assert path_seed(7, 0) == mix64((7 + GAMMA) & ((1 << 64) - 1))
        assert path_seed(7, 2) == mix64((7 + 3 * GAMMA) & ((1 << 64) - 1))
        # Frozen values pin the contract across refactors.
        assert path_seed(0, 0) == 16294208416658607535
        assert path_seed(42, 7) == 14769051326987775908

    def test_streams_differ(self):
        seeds = {path_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000


def _first_stands(seed, n_paths, horizon, target):
    """Per path, the first step that starts on ``target`` under the drift
    0.45, by a scalar replay of the RNG contract; None if no step does."""
    mask = (1 << 64) - 1
    steps = []
    for i in range(n_paths):
        state, pos, step = path_seed(seed, i), 1, None
        for t in range(1, horizon):
            p_up = 1.0 if pos == 0 else 0.5 + 0.45 / pos
            state = (state + GAMMA) & mask
            pos += 1 if (mix64(state) >> 11) < int(p_up * (1 << 53)) else -1
            if pos == target:
                step = t + 1
                break
        steps.append(step)
    return steps


_LOAD_KERNEL = walk._load_kernel  # the loader itself, whatever a test patches in


def _each_build(monkeypatch):
    """Make simulate run each build of the kernel body this CPU can run, in
    turn, called directly whatever the CPU would pick: walk_1, then walk_16
    where lanes_of() is 16.  Yields the build's lane count."""
    library = _LOAD_KERNEL()
    for lanes in sorted({1, library.lanes_of()}):
        kernel = getattr(library, f"walk_{lanes}")
        assert kernel.lanes == lanes
        monkeypatch.setattr(walk, "_load_kernel", functools.partial(types.SimpleNamespace,
                                                                    walk=kernel))
        yield lanes


@functools.cache
def _reference(seed, horizon, n_paths):
    return simulate_reference(alpha_const(0.3).drift, seed, horizon, n_paths)


class TestSimulation:
    """Simulation on two threads, so that blocks grow one table concurrently."""

    @pytest.fixture(autouse=True)
    def threads(self, monkeypatch):
        monkeypatch.setattr(walk, "_THREADS", 2)

    def test_vectorized_matches_scalar_reference(self):
        spec = alpha_const(0.3).drift
        fast = simulate(spec, seed=2024, horizon=400, n_paths=41)
        slow = simulate_reference(spec, seed=2024, horizon=400, n_paths=41)
        assert fast == slow

    def test_deterministic_across_runs_and_chunks(self, monkeypatch):
        # One block per thread: 1 to 8 blocks of the same 120 paths.
        spec = alpha_const(0.2).drift
        runs = []
        for threads in (1, 8, 3, 5, 1):
            monkeypatch.setattr(walk, "_THREADS", threads)
            runs.append(simulate(spec, seed=9, horizon=250, n_paths=120))
        assert all(r == runs[0] for r in runs)

    @pytest.mark.parametrize("seed", [-5, 1 << 64])
    def test_seed_out_of_range_rejected(self, seed):
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError, match="seed"):
                run(alpha_const(0.2).drift, seed=seed, horizon=10, n_paths=4)

    def test_one_step_law(self):
        # From S_0 = 1 a single step hits 0 with probability 1/2 - alpha(1);
        # binomial check at 4 sigma.
        a = 0.25
        n_paths = 4000
        report = simulate(alpha_const(a).drift, seed=77, horizon=1, n_paths=n_paths)
        p = 0.5 - a
        sigma = math.sqrt(p * (1 - p) / n_paths)
        assert abs(report.returned_fraction - p) <= 4 * sigma
        assert report.mean_first_return == 1.0
        assert report.final_positions.min == 0
        assert report.final_positions.max == 2

    def test_report_bookkeeping(self):
        report = simulate(alpha_const(0.3).drift, seed=5, horizon=100, n_paths=50)
        assert report.n_paths == 50 and report.horizon == 100 and report.seed == 5
        assert 0.0 <= report.returned_fraction <= 1.0
        assert report.returned_fraction * report.n_paths == report.returned_paths
        if report.returned_paths:
            assert report.mean_first_return >= 1.0
        assert report.max_excursion >= 1
        assert report.final_positions.min >= 0

    def test_reflection_and_non_negativity(self):
        # Scalar trajectory replay using the package's documented RNG rule:
        # positions never go negative and every visit to 0 is followed by 1.
        spec = alpha_const(0.05).drift
        mask = (1 << 64) - 1
        for i in range(20):
            state = path_seed(31337, i)
            pos = 1
            prev_zero = False
            for _ in range(500):
                p_up, _ = step_probabilities(spec, pos)
                state = (state + GAMMA) & mask
                up = (mix64(state) >> 11) < int(p_up * (1 << 53))
                pos += 1 if up else -1
                assert pos >= 0
                if prev_zero:
                    assert pos == 1
                prev_zero = pos == 0

    def test_invalid_drift_surfaces_at_visit(self):
        # alpha valid below 30, invalid from 30 up; with an up-biased walk a
        # long run must hit 30 and raise, while a too-short run cannot reach
        # it and must succeed.
        def alpha(n):
            return 0.45 if n < 30 else 0.9

        spec = DriftSpec(alpha=alpha, C=0.5)
        ok = simulate(spec, seed=3, horizon=25, n_paths=8)
        assert ok.max_excursion <= 26
        # A scalar replay of the RNG contract under the constant 0.45 finds
        # the first step that starts on 30.
        step = min(t for t in _first_stands(3, 8, 3000, 30) if t is not None)
        with pytest.raises(InvalidDrift) as info:
            simulate(spec, seed=3, horizon=3000, n_paths=8)
        assert str(info.value) == (
            f"alpha(30) = 0.9 violates 0 < alpha < min(C=0.5, n/2=15.0) at step {step}"
        )

    def test_evaluation_failure_at_visit_is_invalid_drift(self):
        # ln(12 - n) fails at n = 12, which an up-biased walk reaches.
        spec = DriftSpec(alpha=parse_expression("0.3 + 0*ln(12 - n)"), C=0.5)
        with pytest.raises(InvalidDrift, match=r"alpha\(12\) fails to evaluate: .* at step \d+$"):
            simulate(spec, seed=3, horizon=3000, n_paths=8)

    @pytest.mark.parametrize("seed,horizon,n_paths,chunk", [
        (2024, 400, 41, 4096), (11, 2000, 300, 64), (3, 3000, 20, 7),
    ])
    def test_alpha_evaluated_once_per_reached_position(self, monkeypatch, seed, horizon,
                                                       n_paths, chunk):
        # alpha is evaluated at each position a path stands on before a step,
        # once and in increasing order, however the paths are split into
        # blocks of at most ``chunk`` paths, one per thread; in these runs the
        # highest position is reached before the last step, so that is
        # exactly 1..max_excursion, on each build of the kernel.  A short
        # switch interval makes the threads interleave often.
        monkeypatch.setattr(walk, "_THREADS", min(8, -(-n_paths // chunk)))
        for lanes in _each_build(monkeypatch):
            calls = []

            def alpha(n):
                calls.append(n)
                return 0.3

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                report = simulate(DriftSpec(alpha=alpha, C=0.5), seed=seed, horizon=horizon,
                                  n_paths=n_paths)
            finally:
                sys.setswitchinterval(interval)
            assert calls == list(range(1, report.max_excursion + 1)), lanes
            assert report == simulate(alpha_const(0.3).drift, seed=seed, horizon=horizon,
                                      n_paths=n_paths), lanes

    def test_failing_alpha_is_evaluated_once(self):
        # Every block runs on to find the earliest step at 30; none asks
        # alpha(30) a second time.
        calls = []

        def alpha(n):
            calls.append(n)
            return 0.45 if n < 30 else 0.9

        with pytest.raises(InvalidDrift, match=r"^alpha\(30\) = 0\.9 .* at step \d+$"):
            simulate(DriftSpec(alpha=alpha, C=0.5), seed=3, horizon=3000, n_paths=8)
        assert calls == list(range(1, 31))

    def test_unreached_positions_are_never_evaluated(self):
        def alpha(n):
            if n > 30:
                raise ZeroDivisionError(n)
            return 0.3

        report = simulate(DriftSpec(alpha=alpha, C=0.5), seed=1, horizon=40, n_paths=4)
        assert report.max_excursion < 30
        assert report == simulate(alpha_const(0.3).drift, seed=1, horizon=40, n_paths=4)

    def test_input_validation(self):
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError, match="horizon"):
                run(QUARTER, seed=1, horizon=0, n_paths=5)
            with pytest.raises(ValueError, match="horizon"):  # beyond the kernel's int64_t
                run(QUARTER, seed=1, horizon=2**63, n_paths=5)
            with pytest.raises(ValueError, match="n_paths"):
                run(QUARTER, seed=1, horizon=5, n_paths=0)

    @pytest.mark.parametrize("name", ["seed", "horizon", "n_paths"])
    def test_bool_argument_rejected(self, name):
        # A bool is an int to Python; True ran as seed 1, horizon 1 or one path.
        args = {"seed": 1, "horizon": 5, "n_paths": 4, name: True}
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError, match=f"^{name} must be .*, got True$"):
                run(QUARTER, **args)

    def test_recurrent_vs_transient_return_rates(self):
        # Small-scale version of the corroboration run: the recurrent walk
        # returns far more often than the transient one.
        rec = simulate(alpha_const(0.1).drift, seed=1234, horizon=4000, n_paths=600)
        tra = simulate(alpha_const(0.4).drift, seed=1234, horizon=4000, n_paths=600)
        assert rec.returned_fraction > 0.9
        assert tra.returned_fraction < 0.5
        assert tra.returned_fraction < rec.returned_fraction


class TestSimulationOneThread(TestSimulation):
    """Every simulation test again on one thread, as on a one-CPU machine."""

    @pytest.fixture(autouse=True)
    def threads(self, monkeypatch):
        monkeypatch.setattr(walk, "_THREADS", 1)


# Drifts for the kernel comparison: a catalog constant, an expression, and two
# that fail at a position up-biased walks reach within a few hundred steps,
# one out of range and one by an evaluation error.
KERNEL_DRIFTS = {
    "const": alpha_const(0.3).drift,
    "expression": DriftSpec(alpha=parse_expression("0.1 + 0.05/n"), C=1.0),
    "out-of-range": DriftSpec(alpha=lambda n: 0.45 if n < 9 else 0.9, C=0.5),
    "fails": DriftSpec(alpha=parse_expression("0.45 + 0*ln(12 - n)"), C=0.5),
}
# The position at which each failing drift fails; below it, it is 0.45.
FAILS_AT = {"out-of-range": 9, "fails": 12}


def _outcome(run, spec, seed, horizon, n_paths):
    try:
        return run(spec, seed=seed, horizon=horizon, n_paths=n_paths)
    except (InvalidDrift, EvalError) as exc:
        return exc


class TestKernels:
    @given(
        drift=st.sampled_from(sorted(KERNEL_DRIFTS)),
        seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
        n_paths=st.integers(min_value=1, max_value=40),
        horizon=st.integers(min_value=1, max_value=300),
        threads=st.integers(min_value=1, max_value=8),
    )
    @example(drift="out-of-range", seed=3, n_paths=30, horizon=300, threads=5)
    @example(drift="fails", seed=5, n_paths=25, horizon=300, threads=7)
    @settings(max_examples=60, deadline=None)
    def test_compiled_and_reference_agree(self, drift, seed, n_paths, horizon, threads):
        spec = KERNEL_DRIFTS[drift]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walk, "_THREADS", 1)
            whole = _outcome(simulate, spec, seed, horizon, n_paths)  # one block
            mp.setattr(walk, "_THREADS", threads)
            split = _outcome(simulate, spec, seed, horizon, n_paths)
        reference = _outcome(simulate_reference, spec, seed, horizon, n_paths)
        if isinstance(reference, Exception):
            # The reference stops at the first path that fails; the kernel
            # names the earliest step at which any path stands there.
            steps = _first_stands(seed, n_paths, horizon, FAILS_AT[drift])
            step = min(t for t in steps if t is not None)
            assert isinstance(split, InvalidDrift) and str(split) == str(whole)
            assert str(split).endswith(f" at step {step}")
        else:
            assert split == whole == reference

    def test_examples_reach_their_failing_position(self, monkeypatch):
        # The two explicit examples above do reach their failing position,
        # and each build of the kernel names the earliest step there, in one
        # block of whole groups and a tail and in blocks of tails only.
        for drift, seed, n_paths in (("out-of-range", 3, 30), ("fails", 5, 25)):
            steps = _first_stands(seed, n_paths, 300, FAILS_AT[drift])
            step = min(t for t in steps if t is not None)
            for lanes in _each_build(monkeypatch):
                for threads in (1, 3):
                    monkeypatch.setattr(walk, "_THREADS", threads)
                    with pytest.raises(InvalidDrift, match=rf" at step {step}$"):
                        simulate(KERNEL_DRIFTS[drift], seed=seed, horizon=300, n_paths=n_paths)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_later_block_reaching_first_names_its_step(self, monkeypatch, threads):
        # Seed 3: paths 0-3 first stand on 9 at steps 49, 43, 37, 29 and paths
        # 4-7 at 27, 23, 47, 35, so on two threads, in blocks of 4, the second
        # block gets there first; on one, a later path of the one block does.
        # The error names step 23 on any schedule and build of the kernel,
        # where stopping at the first path that fails would name the first
        # one's step 49.
        assert _first_stands(3, 8, 300, 9) == [49, 43, 37, 29, 27, 23, 47, 35]
        spec = KERNEL_DRIFTS["out-of-range"]
        message = "alpha(9) = 0.9 violates 0 < alpha < min(C=0.5, n/2=4.5) at step {}"
        for lanes in _each_build(monkeypatch):
            monkeypatch.setattr(walk, "_THREADS", 1)
            with pytest.raises(InvalidDrift) as info:
                simulate(spec, seed=3, horizon=300, n_paths=4)
            assert str(info.value) == message.format(29), lanes
            monkeypatch.setattr(walk, "_THREADS", threads)
            with pytest.raises(InvalidDrift) as info:
                simulate(spec, seed=3, horizon=300, n_paths=8)
            assert str(info.value) == message.format(23), lanes


class TestLanes:
    """Both builds of the one kernel body: walk_1, which CPUs without
    AVX-512 run, and walk_16, which advances 16 paths in lockstep."""

    def test_cpu_picks_one_build(self):
        library = _LOAD_KERNEL()
        assert library.lanes_of() in (1, 16)
        assert library.walk.lanes == library.lanes_of()
        if not hasattr(library, "walk_16"):  # not x86-64, or not GCC 12 or later
            assert library.lanes_of() == 1
        elif os.path.exists("/proc/cpuinfo"):
            with open("/proc/cpuinfo") as info:
                flags = next(line for line in info if line.startswith("flags")).split()
            avx512 = "avx512f" in flags and "avx512dq" in flags
            assert library.lanes_of() == (16 if avx512 else 1)

    @pytest.mark.parametrize("block", [1, 15, 16, 17, 33, 100])
    def test_matches_reference(self, monkeypatch, block):
        # Blocks of one path, of a group less or more one, and of whole
        # groups with a tail, on 1 to 3 threads.
        for lanes in _each_build(monkeypatch):
            for threads in (1, 2, 3):
                monkeypatch.setattr(walk, "_THREADS", threads)
                n_paths = block * threads
                report = simulate(alpha_const(0.3).drift, seed=block, horizon=200,
                                  n_paths=n_paths)
                assert report == _reference(block, 200, n_paths), (lanes, threads, n_paths)

    @pytest.mark.parametrize("seed,horizon,n_paths,top,calls", [
        (0, 1, 1, 2, [1]), (3, 7, 17, 6, [1, 2, 3, 4, 5]),
    ])
    def test_top_reached_on_the_last_step_is_not_evaluated(self, monkeypatch, seed, horizon,
                                                          n_paths, top, calls):
        # A group stalls for a missing threshold only before the horizon.
        monkeypatch.setattr(walk, "_THREADS", 1)
        for lanes in _each_build(monkeypatch):
            asked = []

            def alpha(n):
                asked.append(n)
                return 0.3

            report = simulate(DriftSpec(alpha=alpha, C=0.5), seed=seed, horizon=horizon,
                              n_paths=n_paths)
            assert report.max_excursion == top, lanes
            assert asked == calls, lanes


class TestThreads:
    def test_error_of_alpha_in_a_worker_keeps_its_type(self, monkeypatch):
        # The main thread waits until the worker's block is done, so alpha
        # fails in the worker; simulate raises that very exception.
        monkeypatch.setattr(walk, "_THREADS", 2)
        worker_done = threading.Event()
        run_block = walk._run_block

        def ordered(*args):
            if threading.current_thread() is threading.main_thread():
                assert worker_done.wait(timeout=30)
                return run_block(*args)
            try:
                return run_block(*args)
            finally:
                worker_done.set()

        raised = []

        def alpha(n):
            raised.append((ZeroDivisionError(n), threading.current_thread()))
            raise raised[-1][0]

        monkeypatch.setattr(walk, "_run_block", ordered)
        with pytest.raises(ZeroDivisionError) as info:
            simulate(DriftSpec(alpha=alpha, C=0.5), seed=1, horizon=50, n_paths=2)
        assert len(raised) == 1
        assert info.value is raised[0][0]
        assert raised[0][1] is not threading.main_thread()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_of_a_block_is_raised_after_the_join(self, monkeypatch, failing):
        # An error of a block itself, in the calling thread's block or a
        # worker's, is raised as it is once the other block is done.
        monkeypatch.setattr(walk, "_THREADS", 2)
        run_block = walk._run_block
        error = RuntimeError("block failed")
        finished = []

        def one_fails(kernel, table, seed, lo, n, horizon):
            if lo == 2 * failing:
                raise error
            finished.append(lo)
            return run_block(kernel, table, seed, lo, n, horizon)

        monkeypatch.setattr(walk, "_run_block", one_fails)
        with pytest.raises(RuntimeError) as info:
            simulate(alpha_const(0.3).drift, seed=1, horizon=50, n_paths=4)
        assert info.value is error
        assert finished == [2 - 2 * failing]

    def test_default_thread_count_is_usable_cpus(self):
        assert walk._THREADS == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("n_paths,horizon,threads", [
        (1, 1, None), (2, 1, None), (2, 1, 2), (5, 1, 2), (5, 1, 1), (30, 7, 2), (30, 50, 2),
    ])
    def test_threads_started(self, monkeypatch, n_paths, horizon, threads):
        # One block per thread and the calling thread runs the first, so a
        # run starts one thread fewer than it uses: min(n_paths, _THREADS),
        # at most one per CPU, whatever the horizon.
        if threads is not None:
            monkeypatch.setattr(walk, "_THREADS", threads)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        simulate(alpha_const(0.3).drift, seed=4, horizon=horizon, n_paths=n_paths)
        assert len(started) == min(n_paths, walk._THREADS) - 1
        if threads is None:
            assert len(started) + 1 <= len(os.sched_getaffinity(0))
        assert not any(thread.is_alive() for thread in started)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture
def caches(tmp_path, monkeypatch):
    """Fresh package and user cache directories for the kernel loader."""
    package, user = tmp_path / "package" / "__pycache__", tmp_path / "xdg"
    monkeypatch.setattr(walk, "_PACKAGE_CACHE", package)
    monkeypatch.setenv("XDG_CACHE_HOME", str(user))
    return package, user / "demorgan"


class TestKernelLoader:
    @needs_cc
    def test_compiled_kernel_is_used(self):
        assert walk._load_kernel() is not None

    def test_no_compiler_raises_naming_it(self, caches, tmp_path, monkeypatch):
        # simulate needs the compiled kernel; the classifiers and the scalar
        # reference do not.
        spec = alpha_const(0.3).drift
        monkeypatch.setenv("PATH", str(tmp_path))
        match = r"^simulate needs a C compiler: cc could not build the walk kernel \(.*'cc'"
        with pytest.raises(OSError, match=match):
            walk._build_kernel(walk._KERNEL_SOURCE)
        monkeypatch.setattr(walk, "_load_kernel", lambda: walk._build_kernel(walk._KERNEL_SOURCE))
        with pytest.raises(OSError, match=match):
            simulate(spec, seed=8, horizon=300, n_paths=30)
        assert rw_classify(spec).decision is Fate.TRANSIENT
        assert simulate_reference(spec, seed=8, horizon=30, n_paths=3).n_paths == 3

    @needs_cc
    def test_rejected_source_raises_with_the_compiler_output(self, caches):
        # Both cache directories try and fail; no library or temporary file is left.
        match = (r"^simulate needs a C compiler: cc could not build the walk kernel "
                 r"\(cc exited with \d+: .*error")
        with pytest.raises(OSError, match=match):
            walk._build_kernel("this is not C;\n")
        assert [list(d.iterdir()) for d in caches] == [[], []]

    def test_non_posix_system_raises_before_building(self, caches, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(walk.os, "name", "nt")
            with pytest.raises(OSError, match="^simulate needs a C compiler: the walk kernel "
                                              "is built on POSIX only$"):
                walk._build_kernel(walk._KERNEL_SOURCE)
        assert not any(d.exists() for d in caches)

    @needs_cc
    def test_source_compiles_without_warnings(self, tmp_path):
        proc = subprocess.run(
            ["cc", *walk._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "walk.so"), "-x", "c", "-"],
            input=walk._KERNEL_SOURCE, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @needs_cc
    def test_build_without_the_x86_64_entry(self, caches, monkeypatch):
        # As on a CPU other than x86-64, or with a compiler older than GCC
        # 12: lanes_of() is 1, there is no walk_16, and simulate runs walk_1.
        guard = "#if defined(__x86_64__) && !defined(__clang__) && __GNUC__ >= 12\n"
        source = walk._KERNEL_SOURCE.replace(guard, "#if 0\n")
        assert source != walk._KERNEL_SOURCE
        library = walk._build_kernel(source)
        assert library.lanes_of() == 1 and library.walk.lanes == 1
        assert not hasattr(library, "walk_16")
        monkeypatch.setattr(walk, "_load_kernel", lambda: library)
        spec = alpha_const(0.3).drift
        assert simulate(spec, 7, 500, 37) == simulate_reference(spec, 7, 500, 37)

    @needs_cc
    def test_package_cache_first(self, caches):
        package, user = caches
        assert walk._build_kernel(walk._KERNEL_SOURCE) is not None
        assert len(list(package.glob("walk-*.so"))) == 1
        assert not user.exists()

    @needs_cc
    @pytest.mark.parametrize("why", ["unwritable", "world-writable"])
    def test_user_cache_when_package_cache_unusable(self, caches, why):
        package, user = caches
        if why == "unwritable":
            # A file where the directory should be: no mkdir succeeds there,
            # even for the superuser, whom file modes do not stop.
            package.parent.mkdir()
            package.write_text("")
        else:
            package.mkdir(parents=True)
            os.chmod(package, 0o777)
        assert walk._build_kernel(walk._KERNEL_SOURCE) is not None
        assert len(list(user.glob("walk-*.so"))) == 1
        assert not (package.is_dir() and list(package.iterdir()))

    @needs_cc
    def test_changed_source_gets_new_file(self, caches):
        package, _ = caches
        for source in (walk._KERNEL_SOURCE, walk._KERNEL_SOURCE + "/* changed */\n"):
            assert walk._build_kernel(source) is not None
        assert len(list(package.glob("walk-*.so"))) == 2


class TestSimulationNumpyFallback:
    """Where a numpy kernel once stood in for a missing compiler: without
    ``cc``, simulate still checks its arguments first, then raises OSError
    naming the compiler before alpha is evaluated anywhere, while the scalar
    reference runs as before."""

    NEEDS_CC = r"^simulate needs a C compiler: cc could not build the walk kernel \(.*'cc'"

    @pytest.fixture(autouse=True)
    def kernel(self, caches, tmp_path, monkeypatch):
        """The kernel built while ``cc`` was there; then ``cc`` goes away."""
        kernel = walk._load_kernel()
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setattr(walk, "_load_kernel",
                            lambda: walk._build_kernel(walk._KERNEL_SOURCE))
        return kernel

    def _needs_cc(self, spec, **run):
        with pytest.raises(OSError, match=self.NEEDS_CC) as info:
            simulate(spec, **run)
        return str(info.value)

    def test_vectorized_matches_scalar_reference(self, kernel, monkeypatch):
        spec = alpha_const(0.3).drift
        run = dict(seed=2024, horizon=400, n_paths=41)
        self._needs_cc(spec, **run)
        slow = simulate_reference(spec, **run)
        monkeypatch.setattr(walk, "_load_kernel", lambda: kernel)
        assert simulate(spec, **run) == slow

    def test_deterministic_across_runs_and_chunks(self, monkeypatch):
        spec = alpha_const(0.2).drift
        errors = set()
        for threads in (1, 8, 3, 5, 1):
            monkeypatch.setattr(walk, "_THREADS", threads)
            errors.add(self._needs_cc(spec, seed=9, horizon=250, n_paths=120))
        assert len(errors) == 1

    @pytest.mark.parametrize("seed", [-5, 1 << 64])
    def test_seed_out_of_range_rejected(self, seed):
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError, match="seed"):
                run(alpha_const(0.2).drift, seed=seed, horizon=10, n_paths=4)

    def test_input_validation(self):
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError, match="horizon"):
                run(QUARTER, seed=1, horizon=0, n_paths=5)
            with pytest.raises(ValueError, match="horizon"):  # beyond the kernel's int64_t
                run(QUARTER, seed=1, horizon=2**63, n_paths=5)
            with pytest.raises(ValueError, match="n_paths"):
                run(QUARTER, seed=1, horizon=5, n_paths=0)

    def test_invalid_drift_surfaces_at_visit(self):
        # alpha invalid from 30 up: the reference's up-biased paths visit 30
        # and raise InvalidDrift; without a kernel no path visits anything.
        def alpha(n):
            return 0.45 if n < 30 else 0.9

        spec = DriftSpec(alpha=alpha, C=0.5)
        self._needs_cc(spec, seed=3, horizon=3000, n_paths=8)
        with pytest.raises(InvalidDrift, match=r"^alpha\(30\) = 0\.9 violates"):
            simulate_reference(spec, seed=3, horizon=3000, n_paths=8)

    def test_evaluation_failure_at_visit_is_invalid_drift(self):
        # Only the kernel's drift table turns a failure at 12 into
        # InvalidDrift; without a kernel simulate names the compiler, and the
        # reference, visiting 12, raises the evaluation error itself.
        spec = DriftSpec(alpha=parse_expression("0.3 + 0*ln(12 - n)"), C=0.5)
        self._needs_cc(spec, seed=3, horizon=3000, n_paths=8)
        with pytest.raises(EvalError, match=r"^ln of non-positive value 0\.0 at n=12"):
            simulate_reference(spec, seed=3, horizon=3000, n_paths=8)

    @pytest.mark.parametrize("seed,horizon,n_paths,chunk", [
        (2024, 400, 41, 4096), (11, 2000, 300, 64), (3, 3000, 20, 7),
    ])
    def test_alpha_evaluated_once_per_reached_position(self, monkeypatch, seed, horizon,
                                                       n_paths, chunk):
        # No position is reached, so alpha is evaluated nowhere, however the
        # paths would have been split.
        monkeypatch.setattr(walk, "_THREADS", min(8, -(-n_paths // chunk)))
        calls = []

        def alpha(n):
            calls.append(n)
            return 0.3

        self._needs_cc(DriftSpec(alpha=alpha, C=0.5), seed=seed, horizon=horizon,
                       n_paths=n_paths)
        assert calls == []

    def test_unreached_positions_are_never_evaluated(self):
        def alpha(n):
            raise ZeroDivisionError(n)

        self._needs_cc(DriftSpec(alpha=alpha, C=0.5), seed=1, horizon=40, n_paths=4)
