"""Reflected random walk with position-dependent drift, and its classifier.

The walk starts at 1 and steps +-1 on the non-negative integers.  From a
positive position S it steps up with probability 1/2 + alpha(S)/S and down
with the complement; from 0 it moves to 1 with probability 1.  The drift
values must satisfy 0 < alpha(n) < min(C, n/2), which keeps both step
probabilities inside (0, 1).

Classification maps the walk onto a birth-death chain with rates
lambda_n = 1/2 + alpha(n)/n and mu_n = 1/2 - alpha(n)/n and defers to the
series machinery.  The Monte Carlo simulator exists to corroborate those
verdicts empirically; it is deterministic given (seed, horizon, n_paths)
and independent of how the paths are partitioned into blocks, because each
path consumes its own SplitMix64 stream seeded by a fixed mixing rule.

RNG contract (all arithmetic mod 2**64):

    GAMMA = 0x9E3779B97F4A7C15
    mix(z) = xor-shift/multiply finalizer of SplitMix64
    path_state_i(0) = mix(master_seed + (i + 1) * GAMMA)
    draw t >= 1:  state += GAMMA;  u_t = mix(state) >> 11   (53 bits)

Step t goes up iff u_t < p_up(S) * 2**53; every double in [1/2, 1) is an
integer multiple of 2**-53, so the threshold comparison is exact.  One draw
is consumed per step, including the forced step out of 0.  alpha is
evaluated only at positions a path stands on, when one first does.

The simulator's kernel is C, compiled with ``cc`` on first use and cached in
the package ``__pycache__`` or the user cache directory.  The paths split
into one contiguous block per thread, up to one thread per usable CPU, since
the kernel runs without the interpreter lock; a block has one path in
flight, seeded and run to the horizon before the next.  Without a C
compiler ``simulate`` raises OSError; the classifiers never need one.
"""

from __future__ import annotations

import binascii
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .birthdeath import BirthDeathRates, Classification, Fate, bdp_classify
from .convergence import ClassifyConfig
from .errors import EvalError, InvalidDrift

GAMMA = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_U53 = 1 << 53
# Threads per simulation, at most one per usable CPU; read at call time.
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Path-major walk kernel: runs paths i..n-1 of the block whose first path is
# lo to the horizon, each before the next, writing their final positions to
# pos, and returns the first path that stands on position len (no threshold
# yet), or n.  st[0..4] is the path in flight (state, position, steps, first
# return, top), resumed there unless it has taken no step and is (re)seeded;
# st[5..7] are the block's returned count, first-return sum and maximum.
_KERNEL_SOURCE = f"""
#include <stdint.h>
static uint64_t mix(uint64_t z) {{
    z = (z ^ (z >> 30)) * {_MIX_M1:#x}ULL;
    z = (z ^ (z >> 27)) * {_MIX_M2:#x}ULL;
    return z ^ (z >> 31);
}}
int64_t walk(uint64_t master, int64_t lo, int64_t i, int64_t n, int64_t horizon,
             const uint64_t *thr, int64_t len, int64_t *st, int64_t *pos) {{
    for (; i < n; i++) {{
        int64_t t = st[2], p = t ? st[1] : 1, f = t ? st[3] : 0, m = t ? st[4] : 1;
        uint64_t s = t ? (uint64_t)st[0] : mix(master + (uint64_t)(lo + i + 1) * {GAMMA:#x}ULL);
        while (t < horizon && p < len) {{
            s += {GAMMA:#x}ULL;
            p += (mix(s) >> 11) < thr[p] ? 1 : -1;
            t++;
            if (p == 0 && f == 0) f = t;
            if (p > m) m = p;
        }}
        if (t < horizon) {{
            st[0] = (int64_t)s; st[1] = p; st[2] = t; st[3] = f; st[4] = m;
            return i;
        }}
        pos[i] = p; st[2] = 0;
        if (f) {{ st[5]++; st[6] += f; }}
        if (m > st[7]) st[7] = m;
    }}
    return n;
}}
"""
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC")
_PACKAGE_CACHE = Path(__file__).with_name("__pycache__")


def mix64(z: int) -> int:
    """SplitMix64 output finalizer (scalar, for seeding and reference runs)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def path_seed(master_seed: int, path_index: int) -> int:
    """Initial stream state for one path; fixed by the RNG contract above."""
    return mix64((master_seed + (path_index + 1) * GAMMA) & _MASK64)


@dataclass(frozen=True)
class DriftSpec:
    """Drift supplier alpha(n) for integer positions n >= 1, with cap C > 0 (inf: no cap)."""

    alpha: Callable[[int], float]
    C: float

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")

    def alpha_at(self, n: int) -> float:
        a = float(self.alpha(n))
        bound = min(self.C, 0.5 * n)
        if not (math.isfinite(a) and 0.0 < a < bound):
            raise InvalidDrift(
                f"alpha({n}) = {a} violates 0 < alpha < min(C={self.C}, n/2={0.5 * n})"
            )
        return a


@dataclass(frozen=True)
class RWClassification:
    decision: Fate
    chain: Classification


@dataclass(frozen=True)
class FinalPositionStats:
    mean: float
    median: float
    min: int
    max: int


@dataclass(frozen=True)
class SimulationReport:
    n_paths: int
    horizon: int
    seed: int
    returned_paths: int
    returned_fraction: float
    mean_first_return: float | None
    max_excursion: int
    final_positions: FinalPositionStats


def step_probabilities(spec: DriftSpec, position: int) -> tuple[float, float]:
    """(p_up, p_down) at a position; (1, 0) at the reflecting origin.

    p_down is computed as 1 - p_up, which is exact for p_up in [1/2, 1], so
    the pair always sums to exactly 1.
    """
    if not isinstance(position, int) or isinstance(position, bool) or position < 0:
        raise InvalidDrift(f"position must be a non-negative integer, got {position!r}")
    if position == 0:
        return 1.0, 0.0
    a = spec.alpha_at(position)
    p_up = 0.5 + a / position
    return p_up, 1.0 - p_up


def rw_to_bdp(spec: DriftSpec) -> BirthDeathRates:
    """Chain with lambda_n = 1/2 + alpha(n)/n, mu_n = 1/2 - alpha(n)/n.

    The rate-ratio delta lambda/mu - 1 = 2t / (1/2 - t) with t = alpha(n)/n
    is supplied in that cancellation-free form.
    """

    def lam(n: int) -> float:
        return 0.5 + spec.alpha_at(n) / n

    def mu(n: int) -> float:
        return 0.5 - spec.alpha_at(n) / n

    def ratio_delta(n: int) -> float:
        t = spec.alpha_at(n) / n
        return (2.0 * t) / (0.5 - t)

    return BirthDeathRates(
        lam=lam, mu=mu, first_index=1, ratio_delta=ratio_delta,
    )


def rw_classify(spec: DriftSpec, config: ClassifyConfig | None = None) -> RWClassification:
    chain = bdp_classify(rw_to_bdp(spec), config)
    return RWClassification(decision=chain.decision, chain=chain)


def _check_run_args(seed: int, horizon: int, n_paths: int) -> None:
    """Argument check shared by ``simulate`` and ``simulate_reference``."""
    # The kernel counts steps in int64_t: a horizon of 2^63 would wrap.
    if not isinstance(horizon, int) or not 1 <= horizon < 2**63:
        raise ValueError(f"horizon must be an integer in [1, 2^63), got {horizon!r}")
    if not isinstance(n_paths, int) or n_paths < 1:
        raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")
    if not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _compile(source: str, path: Path) -> None:
    """Compile to a temporary file beside ``path``, then rename it into place."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        proc = subprocess.run(["cc", *_KERNEL_FLAGS, "-o", tmp, "-x", "c", "-"],
                              input=source, capture_output=True, text=True)
        if proc.returncode:
            raise OSError(f"cc exited with {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_kernel(source: str):
    """The ``walk`` function of ``source``, compiled once and cached on disk.

    The file is named by a CRC of the source, the flags and the machine type,
    in the package ``__pycache__`` or else the user cache directory; a
    directory is used only if this user owns it and no one else may write to
    it, so no other user can plant the library.  Raises OSError naming the
    compiler when no directory yields a library, for instance when there is
    no ``cc``.
    """
    if os.name != "posix":
        raise OSError("simulate needs a C compiler: the walk kernel is built on POSIX only")
    key = "\0".join([source, *_KERNEL_FLAGS, os.uname().machine])
    name = f"walk-{binascii.crc32(key.encode()):08x}.so"
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    user = (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "demorgan"
    reason = "no private cache directory"
    for path in (_PACKAGE_CACHE / name, user / name):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            st = path.parent.stat()
            if st.st_uid != os.geteuid() or st.st_mode & 0o022:
                continue
            if not path.exists():
                _compile(source, path)
            kernel = ctypes.CDLL(str(path)).walk
        except OSError as exc:
            reason = str(exc)
            continue
        # Raw addresses, not numpy's checked pointer type, whose checks cost
        # several times the call itself; the kernel returns to Python once
        # per reached position.
        u64, i64, ptr = ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p
        kernel.argtypes = [u64, i64, i64, i64, i64, ptr, i64, ptr, ptr]
        kernel.restype = i64
        return kernel
    raise OSError(f"simulate needs a C compiler: cc could not build the walk kernel ({reason})")


@functools.cache
def _load_kernel():
    """The compiled walk kernel, built on first use; see ``_build_kernel``."""
    return _build_kernel(_KERNEL_SOURCE)


class _Thresholds:
    """Up-step thresholds p_up(s) * 2**53 for positions 0..length - 1.

    Paths move by one per step, so a path first needs a missing threshold at
    the step it first stands on ``length``; ``grow`` then adds that position
    unless another thread already has.  ``table`` is the (address, length)
    pair a kernel reads, replaced whole so that no thread pairs one buffer's
    address with another's length.  A buffer that growth replaces stays in
    ``_buffers`` for the life of the table, since a kernel may still read it.
    ``failure`` holds the exception of the first alpha that fails, which caps
    the table at that position.
    """

    def __init__(self, spec: DriftSpec):
        self._spec = spec
        self._lock = threading.Lock()
        self._buffers = [np.empty(64, dtype=np.uint64)]
        self._buffers[0][0] = _U53  # forced step 0 -> 1
        self.table = (self._buffers[0].ctypes.data, 1)
        self.failure: Exception | None = None

    def grow(self, length: int) -> tuple[int, int]:
        """The table once position ``length`` is added, if it was missing.

        The length comes back unchanged only when alpha has failed there.
        """
        with self._lock:
            if self.table[1] == length and self.failure is None:
                try:
                    self._add(length)
                except Exception as exc:  # raised by simulate once every block is done
                    self.failure = exc
            return self.table

    def _add(self, s: int) -> None:
        try:
            a = self._spec.alpha_at(s)
        except EvalError as exc:
            raise InvalidDrift(f"alpha({s}) fails to evaluate: {exc}") from exc
        buf = self._buffers[-1]
        if s == len(buf):
            buf = np.concatenate([buf, np.empty_like(buf)])
            self._buffers.append(buf)
        buf[s] = int((0.5 + a / s) * _U53)
        self.table = (buf.ctypes.data, s + 1)


def _run_block(
    kernel, table: _Thresholds, seed: int, lo: int, n: int, horizon: int
) -> tuple[int, int, int, np.ndarray, int]:
    """(returned_count, first_return_sum, max_excursion, final_positions,
    fail_step) of paths lo..lo + n - 1, one path in flight at a time.

    Once alpha has failed at the table's end s*, the block runs on against
    the capped table; fail_step is the earliest step at which one of its
    paths stands on s*, or horizon + 1 if none does.
    """
    # Buffers of the kernel's types, alive until it is done; their addresses
    # are read once, not at each return for a missing threshold.
    st, pos = np.zeros(8, dtype=np.int64), np.empty(n, dtype=np.int64)
    st_address, pos_address = st.ctypes.data, pos.ctypes.data
    fail_step, i = horizon + 1, 0
    address, length = table.table
    while (i := kernel(seed, lo, i, n, horizon, address, length, st_address, pos_address)) < n:
        address, grown = table.grow(length)
        if grown == length:
            fail_step = min(fail_step, int(st[2]) + 1)
            st[2] = 0
            i += 1
        length = grown
    return int(st[5]), int(st[6]), int(st[7]), pos, fail_step


def simulate(spec: DriftSpec, seed: int, horizon: int, n_paths: int) -> SimulationReport:
    """Simulate n_paths independent trajectories from position 1.

    Bit-identical output for identical (seed, horizon, n_paths), whatever
    the thread count.  The paths split into min(n_paths, ``_THREADS``)
    contiguous blocks of sizes differing by at most one, one per thread, the
    calling thread running the first; the blocks' counts, sums and maxima
    over their paths are combined in block order once every block is done.
    Each block runs in a compiled C kernel, one path in flight at a time,
    which the per-path streams allow; it is built with ``cc`` on first use
    and cached on disk, and without a C compiler this raises OSError.
    alpha is evaluated only at the positions paths stand on, once each and
    in increasing order, in a table shared by all blocks.  When alpha fails
    at a position s*, every block runs on to the horizon against the table
    capped there; an alpha out of range or failing to evaluate then raises
    InvalidDrift naming s* and the earliest step at which any path stands
    on it, and any other exception from alpha is raised as it is.
    """
    _check_run_args(seed, horizon, n_paths)
    kernel = _load_kernel()
    table = _Thresholds(spec)
    threads = min(n_paths, _THREADS)
    bounds = [n_paths * j // threads for j in range(threads + 1)]
    results: list = [None] * threads

    def work(j: int) -> None:
        try:
            lo = bounds[j]
            results[j] = _run_block(kernel, table, seed, lo, bounds[j + 1] - lo, horizon)
        except Exception as exc:  # raised below, after the join
            results[j] = exc

    workers = [threading.Thread(target=work, args=(j,)) for j in range(1, threads)]
    for worker in workers:
        worker.start()
    try:
        work(0)
    finally:
        for worker in workers:
            worker.join()
    for result in results:
        if isinstance(result, Exception):
            raise result
    if isinstance(table.failure, InvalidDrift):
        fail_step = min(r[4] for r in results)
        raise InvalidDrift(f"{table.failure} at step {fail_step}") from table.failure
    if table.failure is not None:
        raise table.failure

    return _report(seed, horizon, np.concatenate([r[3] for r in results]),
                   sum(r[0] for r in results), sum(r[1] for r in results),
                   max(r[2] for r in results))


def simulate_reference(spec: DriftSpec, seed: int, horizon: int, n_paths: int) -> SimulationReport:
    """Scalar pure-Python implementation of the exact same RNG contract.

    Slow; written independently of the compiled kernel so the two can
    check each other.
    """
    _check_run_args(seed, horizon, n_paths)
    returned = 0
    first_ret_sum = 0
    max_excursion = 1
    finals = []
    for i in range(n_paths):
        state = path_seed(seed, i)
        pos = 1
        first = 0
        path_max = 1
        for t in range(1, horizon + 1):
            if pos == 0:
                p_up = 1.0
            else:
                a = spec.alpha_at(pos)
                p_up = 0.5 + a / pos
            state = (state + GAMMA) & _MASK64
            u = mix64(state) >> 11
            if u < int(p_up * _U53):
                pos += 1
            else:
                pos -= 1
            if pos == 0 and first == 0:
                first = t
            path_max = max(path_max, pos)
        if first:
            returned += 1
            first_ret_sum += first
        finals.append(pos)
        max_excursion = max(max_excursion, path_max)
    return _report(seed, horizon, np.array(finals, dtype=np.int64), returned, first_ret_sum,
                   max_excursion)


def _report(seed: int, horizon: int, finals: np.ndarray, returned: int, first_return_sum: int,
            max_excursion: int) -> SimulationReport:
    """The SimulationReport of a run whose paths ended at ``finals``."""
    n_paths = len(finals)
    return SimulationReport(
        n_paths=n_paths,
        horizon=horizon,
        seed=seed,
        returned_paths=returned,
        returned_fraction=returned / n_paths,
        mean_first_return=(first_return_sum / returned) if returned else None,
        max_excursion=max_excursion,
        final_positions=FinalPositionStats(
            mean=float(finals.sum()) / n_paths,
            median=float(np.median(finals)),
            min=int(finals.min()),
            max=int(finals.max()),
        ),
    )
