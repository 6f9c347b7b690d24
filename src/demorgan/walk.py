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
the kernel runs without the interpreter lock.  On CPUs with AVX-512F/DQ a
block runs its paths in groups of 16 in lockstep, one per vector lane, and
its last n % 16 paths one at a time; elsewhere it runs every path one at a
time.  Both are builds of one C body, and the CPU picks one when the kernel
is loaded.  Without a C compiler ``simulate`` raises OSError; the
classifiers never need one.
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

# Walk kernel: lanes(W, ...) runs the paths i..n-1 of the block whose first
# path is lo, n - i a multiple of W, to the horizon in groups of W, the W paths
# of a group in lockstep, writing their final positions to pos, and returns
# the first path of the group that stands on position len (no threshold yet)
# before the horizon, or n.  st[0] is the group's step count, resumed there
# unless it is 0 and the group is (re)seeded; st[1..3] are the block's
# returned count, first-return sum and maximum; st[4 + 4k .. 7 + 4k] are lane
# k's state, position, first return and top.  The body is built twice:
# walk_1 runs one path at a time, and walk_16 runs the block's whole groups of
# 16 paths, which GCC turns into 512-bit vector code, then its last n % 16
# paths through walk_1, so its i must be a group's first path or lie in that
# tail, as _run_block keeps it.  lanes_of() names the one to call: 16 on CPUs
# with AVX-512F/DQ, the set walk_16 is built for, where cc is GCC 12 or
# later, the compiler it was measured with; 1 elsewhere.
_KERNEL_SOURCE = f"""
#include <stdint.h>
static inline uint64_t mix(uint64_t z) {{
    z = (z ^ (z >> 30)) * {_MIX_M1:#x}ULL;
    z = (z ^ (z >> 27)) * {_MIX_M2:#x}ULL;
    return z ^ (z >> 31);
}}
static inline __attribute__((always_inline)) int64_t
lanes(const int W, uint64_t master, int64_t lo, int64_t i, int64_t n, int64_t horizon,
      const uint64_t *thr, int64_t len, int64_t *st, int64_t *pos) {{
    uint64_t s[16];  /* W <= 16; fixed sizes keep the lanes in registers */
    int64_t p[16], f[16], m[16];
    for (; i < n; i += W) {{
        int64_t t = st[0], top = 0;
        for (int k = 0; k < W; k++) {{
            const int64_t *l = st + 4 + 4 * k;
            s[k] = t ? (uint64_t)l[0] : mix(master + (uint64_t)(lo + i + k + 1) * {GAMMA:#x}ULL);
            p[k] = t ? l[1] : 1; f[k] = t ? l[2] : 0; m[k] = t ? l[3] : 1;
            top = p[k] > top ? p[k] : top;
        }}
        while (t < horizon && top < len) {{
            /* No lane can reach len within len - top steps. */
            int64_t end = horizon - t < len - top ? horizon : t + (len - top);
            while (t < end) {{
                t++;
                for (int k = 0; k < W; k++) {{
                    s[k] += {GAMMA:#x}ULL;
                    p[k] += (mix(s[k]) >> 11) < thr[p[k]] ? 1 : -1;
                    f[k] = p[k] == 0 && f[k] == 0 ? t : f[k];
                    m[k] = p[k] > m[k] ? p[k] : m[k];
                }}
            }}
            top = 0;
            for (int k = 0; k < W; k++) top = p[k] > top ? p[k] : top;
        }}
        if (t < horizon) {{
            for (int k = 0; k < W; k++) {{
                int64_t *l = st + 4 + 4 * k;
                l[0] = (int64_t)s[k]; l[1] = p[k]; l[2] = f[k]; l[3] = m[k];
            }}
            st[0] = t;
            return i;
        }}
        for (int k = 0; k < W; k++) {{
            pos[i + k] = p[k];
            if (f[k]) {{ st[1]++; st[2] += f[k]; }}
            if (m[k] > st[3]) st[3] = m[k];
        }}
        st[0] = 0;
    }}
    return n;
}}
#define ARGS uint64_t master, int64_t lo, int64_t i, int64_t n, int64_t horizon, \\
    const uint64_t *thr, int64_t len, int64_t *st, int64_t *pos
int64_t walk_1(ARGS) {{ return lanes(1, master, lo, i, n, horizon, thr, len, st, pos); }}
#if defined(__x86_64__) && !defined(__clang__) && __GNUC__ >= 12
__attribute__((target("avx512f,avx512dq")))
int64_t walk_16(ARGS) {{
    int64_t full = n - n % 16;
    if (i < full && (i = lanes(16, master, lo, i, full, horizon, thr, len, st, pos)) < full)
        return i;
    return walk_1(master, lo, i, n, horizon, thr, len, st, pos);
}}
int64_t lanes_of(void) {{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") ? 16 : 1;
}}
#else
int64_t lanes_of(void) {{ return 1; }}
#endif
"""
_KERNEL_FLAGS = ("-O3", "-shared", "-fPIC")  # GCC 12 vectorises the lane loops at -O3 only
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
    def integer(value) -> bool:  # a bool is an int to Python, but no seed or count
        return isinstance(value, int) and not isinstance(value, bool)

    # The kernel counts steps in int64_t: a horizon of 2^63 would wrap.
    if not integer(horizon) or not 1 <= horizon < 2**63:
        raise ValueError(f"horizon must be an integer in [1, 2^63), got {horizon!r}")
    if not integer(n_paths) or n_paths < 1:
        raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")
    if not integer(seed) or not 0 <= seed <= _MASK64:
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
    """The library of ``source``, compiled once and cached on disk.

    Its ``walk`` is the entry that ``lanes_of()`` picks for this CPU; that
    entry and ``walk_1`` carry their lane count W as ``lanes``.

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
            library = ctypes.CDLL(str(path))
        except OSError as exc:
            reason = str(exc)
            continue
        # Raw addresses, not numpy's checked pointer type, whose checks cost
        # several times the call itself; the kernel returns to Python once
        # per reached position.
        u64, i64, ptr = ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p
        library.lanes_of.argtypes, library.lanes_of.restype = [], i64
        for lanes in {1, library.lanes_of()}:
            entry = getattr(library, f"walk_{lanes}")
            entry.argtypes = [u64, i64, i64, i64, i64, ptr, i64, ptr, ptr]
            entry.restype = i64
            entry.lanes = lanes
        library.walk = getattr(library, f"walk_{library.lanes_of()}")
        return library
    raise OSError(f"simulate needs a C compiler: cc could not build the walk kernel ({reason})")


@functools.cache
def _load_kernel():
    """The compiled walk library, built on first use; see ``_build_kernel``."""
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
    fail_step) of paths lo..lo + n - 1: the first n - n % W in groups of
    W = ``kernel.lanes`` paths run in lockstep, the rest one at a time.

    Once alpha has failed at the table's end s*, the block runs on against
    the capped table, abandoning each group at the first step that starts on
    s*, which is the earliest such step of its paths; fail_step is the
    earliest over the groups, or horizon + 1 if no path stands on s*.
    """
    # Buffers of the kernel's types, alive until it is done; their addresses
    # are read once, not at each return for a missing threshold.
    st, pos = np.zeros(4 + 4 * kernel.lanes, dtype=np.int64), np.empty(n, dtype=np.int64)
    st_address, pos_address = st.ctypes.data, pos.ctypes.data
    fail_step, i = horizon + 1, 0
    address, length = table.table
    while (i := kernel(seed, lo, i, n, horizon, address, length, st_address, pos_address)) < n:
        address, grown = table.grow(length)
        if grown == length:
            fail_step = min(fail_step, int(st[0]) + 1)
            st[0] = 0
            i += kernel.lanes if i < n - n % kernel.lanes else 1
        length = grown
    return int(st[1]), int(st[2]), int(st[3]), pos, fail_step


def simulate(spec: DriftSpec, seed: int, horizon: int, n_paths: int) -> SimulationReport:
    """Simulate n_paths independent trajectories from position 1.

    Bit-identical output for identical (seed, horizon, n_paths), whatever
    the thread count.  The paths split into min(n_paths, ``_THREADS``)
    contiguous blocks of sizes differing by at most one, one per thread, the
    calling thread running the first; the blocks' counts, sums and maxima
    over their paths are combined in block order once every block is done.
    Each block runs in a compiled C kernel, in groups of 16 paths in
    lockstep on CPUs with AVX-512F/DQ, which the per-path streams allow, and
    one path at a time elsewhere and for the last n % 16 paths of a block;
    it is built with ``cc`` on first use and cached on disk, and without a C
    compiler this raises OSError.
    alpha is evaluated only at the positions paths stand on, once each and
    in increasing order, in a table shared by all blocks.  When alpha fails
    at a position s*, every block runs on against the table capped there,
    each group of paths until one of them stands on s*; an alpha out of
    range or failing to evaluate then raises InvalidDrift naming s* and the
    earliest step at which any path stands on it, and any other exception
    from alpha is raised as it is.
    """
    _check_run_args(seed, horizon, n_paths)
    kernel = _load_kernel().walk
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
