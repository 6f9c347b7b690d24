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
the package ``__pycache__`` or the user cache directory; it runs each path
of a block to the horizon before the next.  Without a C compiler a numpy
kernel that advances a block's paths together gives identical reports.
"""

from __future__ import annotations

import binascii
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .birthdeath import BirthDeathRates, Classification, bdp_classify
from .convergence import ClassifyConfig
from .errors import EvalError, InvalidDrift

GAMMA = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_U53 = 1 << 53
# Paths per block, sharing one set of per-path state arrays; read at call time.
_CHUNK_PATHS = 4096

# Path-major walk kernel: runs paths i..n-1 of a block to the horizon, each
# before the next, and returns the first path that stands on position len
# (no threshold yet), or n.  The per-path state arrays let it resume there.
_KERNEL_SOURCE = f"""
#include <stdint.h>
static uint64_t mix(uint64_t z) {{
    z = (z ^ (z >> 30)) * {_MIX_M1:#x}ULL;
    z = (z ^ (z >> 27)) * {_MIX_M2:#x}ULL;
    return z ^ (z >> 31);
}}
int64_t walk(int64_t i, int64_t n, int64_t horizon, const uint64_t *thr, int64_t len,
             uint64_t *state, int64_t *pos, int64_t *done, int64_t *first, int64_t *top) {{
    for (; i < n; i++) {{
        uint64_t s = state[i];
        int64_t p = pos[i], t = done[i], f = first[i], m = top[i];
        while (t < horizon && p < len) {{
            s += {GAMMA:#x}ULL;
            p += (mix(s) >> 11) < thr[p] ? 1 : -1;
            t++;
            if (p == 0 && f == 0) f = t;
            if (p > m) m = p;
        }}
        state[i] = s; pos[i] = p; done[i] = t; first[i] = f; top[i] = m;
        if (t < horizon) return i;
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


class WalkFate(str, Enum):
    RECURRENT = "recurrent"
    TRANSIENT = "transient"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DriftSpec:
    """Drift supplier alpha(n) for integer positions n >= 1, with cap C."""

    alpha: Callable[[int], float]
    C: float
    label: str = ""

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
    decision: WalkFate
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
        label=spec.label or "walk-induced chain",
    )


def rw_classify(spec: DriftSpec, config: ClassifyConfig | None = None) -> RWClassification:
    chain = bdp_classify(rw_to_bdp(spec), config)
    return RWClassification(decision=WalkFate(chain.decision.value), chain=chain)


def _check_run_args(seed: int, horizon: int, n_paths: int) -> None:
    """Argument check shared by ``simulate`` and ``simulate_reference``."""
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
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
    it, so no other user can plant the library.  None when no directory
    yields a library, for instance when there is no C compiler.
    """
    if os.name != "posix":
        return None
    key = "\0".join([source, *_KERNEL_FLAGS, os.uname().machine])
    name = f"walk-{binascii.crc32(key.encode()):08x}.so"
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    user = (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "demorgan"
    for path in (_PACKAGE_CACHE / name, user / name):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            st = path.parent.stat()
            if st.st_uid != os.geteuid() or st.st_mode & 0o022:
                continue
            if not path.exists():
                _compile(source, path)
            kernel = ctypes.CDLL(str(path)).walk
        except OSError:
            continue
        # Raw addresses, not numpy's checked pointer type, whose checks cost
        # several times the call itself; the kernel returns to Python once
        # per reached position.
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        kernel.argtypes = [i64, i64, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr]
        kernel.restype = i64
        return kernel
    return None


@functools.cache
def _load_kernel():
    """The compiled walk kernel, or None to use the numpy one."""
    return _build_kernel(_KERNEL_SOURCE)


class _Thresholds:
    """Up-step thresholds p_up(s) * 2**53 for positions 0..len(view) - 1.

    Paths move by one per step, so a path first needs a missing threshold at
    the step it first stands on len(view); ``grow`` then adds that position.
    ``address`` locates the backing buffer for the compiled kernel.
    """

    def __init__(self, spec: DriftSpec):
        self._spec = spec
        self._buf = np.empty(64, dtype=np.uint64)
        self._buf[0] = _U53  # forced step 0 -> 1
        self.view = self._buf[:1]
        self.address = self._buf.ctypes.data

    def grow(self) -> None:
        """Evaluate alpha at len(view) and add its threshold.

        An alpha out of range or failing to evaluate there raises
        InvalidDrift without the step, which the caller appends.
        """
        s = len(self.view)
        try:
            a = self._spec.alpha_at(s)
        except EvalError as exc:
            raise InvalidDrift(f"alpha({s}) fails to evaluate: {exc}") from exc
        if s == len(self._buf):
            self._buf = np.concatenate([self._buf, np.empty_like(self._buf)])
            self.address = self._buf.ctypes.data
        self._buf[s] = int((0.5 + a / s) * _U53)
        self.view = self._buf[:s + 1]


def _simulate_chunk(
    kernel, seeds: np.ndarray, horizon: int, table: _Thresholds
) -> tuple[int, int, int, np.ndarray]:
    """(returned_count, first_return_sum, max_excursion, final_positions).

    When alpha fails at the table's end s*, the block runs on against the
    capped table, so the error names the earliest step at which any of its
    paths stands on s*, as the step-major numpy kernel finds it.
    """
    n = seeds.shape[0]
    # Fresh contiguous arrays of the kernel's types, alive until it is done.
    arrays = (np.array(seeds, dtype=np.uint64), np.ones(n, dtype=np.int64),
              np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
              np.ones(n, dtype=np.int64))
    _, pos, done, first, top = arrays
    addresses = [a.ctypes.data for a in arrays]
    failure, fail_step, i = None, horizon, 0
    while (i := kernel(i, n, horizon, table.address, len(table.view), *addresses)) < n:
        if failure is None:
            try:
                table.grow()
                continue
            except InvalidDrift as exc:
                failure = exc
        fail_step = min(fail_step, int(done[i]) + 1)
        i += 1
    if failure is not None:
        raise InvalidDrift(f"{failure} at step {fail_step}") from failure
    return int(np.count_nonzero(first)), int(first.sum()), int(top.max()), pos


def _numpy_chunk(
    seeds: np.ndarray, horizon: int, table: _Thresholds
) -> tuple[int, int, int, np.ndarray]:
    """Step-major fallback for ``_simulate_chunk`` when no C compiler is found."""
    n = seeds.shape[0]
    state = seeds.copy()
    pos = np.ones(n, dtype=np.int64)
    returned = np.zeros(n, dtype=bool)
    first_ret = np.zeros(n, dtype=np.int64)
    max_exc = np.ones(n, dtype=np.int64)
    gamma = np.uint64(GAMMA)
    m1 = np.uint64(_MIX_M1)
    m2 = np.uint64(_MIX_M2)
    view = table.view
    for t in range(1, horizon + 1):
        state += gamma
        z = state.copy()
        z ^= z >> np.uint64(30)
        z *= m1
        z ^= z >> np.uint64(27)
        z *= m2
        z ^= z >> np.uint64(31)
        try:
            thresholds = view[pos]
        except IndexError:
            try:
                table.grow()
            except InvalidDrift as exc:
                raise InvalidDrift(f"{exc} at step {t}") from exc
            view = table.view
            thresholds = view[pos]
        up = (z >> np.uint64(11)) < thresholds
        pos += np.where(up, 1, -1)
        new = (pos == 0) & ~returned
        if new.any():
            first_ret[new] = t
            returned |= new
        np.maximum(max_exc, pos, out=max_exc)
    return int(returned.sum()), int(first_ret.sum()), int(max_exc.max()), pos


def simulate(spec: DriftSpec, seed: int, horizon: int, n_paths: int) -> SimulationReport:
    """Simulate n_paths independent trajectories from position 1.

    Bit-identical output for identical (seed, horizon, n_paths): the paths
    run in blocks of ``_CHUNK_PATHS``, which only partitions the path set,
    and every aggregate is an order-insensitive sum/max/count over paths.
    Each block runs in a compiled C kernel, path after path, which the
    per-path streams allow; it is built with ``cc`` on first use and cached
    on disk.  Without a C compiler a numpy kernel that advances a block's
    paths together gives the same reports, more slowly.
    alpha is evaluated only at the positions paths stand on, once each, in
    a table shared by all blocks; an alpha that is out of range or fails to
    evaluate there raises InvalidDrift naming the position and the step.
    """
    _check_run_args(seed, horizon, n_paths)
    table = _Thresholds(spec)
    kernel = _load_kernel()
    seeds = np.array([path_seed(seed, i) for i in range(n_paths)], dtype=np.uint64)
    results = []
    for lo in range(0, n_paths, _CHUNK_PATHS):
        block = seeds[lo:lo + _CHUNK_PATHS]
        results.append(_numpy_chunk(block, horizon, table) if kernel is None
                       else _simulate_chunk(kernel, block, horizon, table))

    returned = sum(r[0] for r in results)
    first_ret_sum = sum(r[1] for r in results)
    max_excursion = max(r[2] for r in results)
    finals = np.concatenate([r[3] for r in results])
    return SimulationReport(
        n_paths=n_paths,
        horizon=horizon,
        seed=seed,
        returned_paths=returned,
        returned_fraction=returned / n_paths,
        mean_first_return=(first_ret_sum / returned) if returned else None,
        max_excursion=max_excursion,
        final_positions=FinalPositionStats(
            mean=float(finals.sum()) / n_paths,
            median=float(np.median(finals)),
            min=int(finals.min()),
            max=int(finals.max()),
        ),
    )


def simulate_reference(spec: DriftSpec, seed: int, horizon: int, n_paths: int) -> SimulationReport:
    """Scalar pure-Python implementation of the exact same RNG contract.

    Slow; written independently of the vectorized kernel so the two can
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
    finals_arr = np.array(finals, dtype=np.int64)
    return SimulationReport(
        n_paths=n_paths,
        horizon=horizon,
        seed=seed,
        returned_paths=returned,
        returned_fraction=returned / n_paths,
        mean_first_return=(first_ret_sum / returned) if returned else None,
        max_excursion=max_excursion,
        final_positions=FinalPositionStats(
            mean=float(finals_arr.sum()) / n_paths,
            median=float(np.median(finals_arr)),
            min=int(finals_arr.min()),
            max=int(finals_arr.max()),
        ),
    )
