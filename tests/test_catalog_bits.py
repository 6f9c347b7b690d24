"""Bit check of the adaptive verdicts over a grid of catalog families.

``tests/catalog_bits.json`` stores, for each verdict, its decision and
depth, the tail extrema as ``float.hex()``, its sample and dropped counts,
and each trace entry's level, decision, usable and dropped counts and
escalation reason.  A change that keeps every verdict bit passes it
unmodified; a change that moves a verdict names the keys that differ.

Run ``python tests/test_catalog_bits.py`` to rewrite the file from the
code on the import path.
"""

import functools
import json
from pathlib import Path

import pytest

from demorgan.birthdeath import bdp_classify
from demorgan.convergence import ClassifyConfig, adaptive_classify
from demorgan.families import (
    alpha_const,
    alpha_threshold,
    bd_iterlog,
    bd_log,
    bd_power,
    geometric,
    iterlog_power,
    log_power,
    p_series,
)
from demorgan.walk import rw_classify

BITS_PATH = Path(__file__).with_name("catalog_bits.json")

NEAR_ONE = (0.5, 0.9, 1.0, 1.01, 1.05, 1.1, 1.3, 2.0)
CONFIGS = {"default": ClassifyConfig(), "no-delta": ClassifyConfig(use_delta=False)}


def _families():
    """(key, maker) per catalog case; maker(config) gives the series verdict."""
    def series(fam):
        return lambda config: adaptive_classify(fam.ratio_spec, config)

    def rates(fam):
        return lambda config: bdp_classify(fam.rates, config).series_verdict

    def walk(fam):
        return lambda config: rw_classify(fam.drift, config).chain.series_verdict

    for v in NEAR_ONE:
        yield f"p-series p={v}", series(p_series(v))
        yield f"log-power r={v}", series(log_power(v))
        for K in (1, 2, 3):
            yield f"iterlog-power K={K} r={v}", series(iterlog_power(K, v))
    for x in (0.5, 0.99, 1.01, 2.0):
        yield f"geometric x={x}", series(geometric(x))
    for c in NEAR_ONE:
        yield f"bd-power c={c}", rates(bd_power(c))
        yield f"bd-log c={c}", rates(bd_log(c))
        for K in (1, 2, 3, 4):
            yield f"bd-iterlog K={K} c={c}", rates(bd_iterlog(K, c))
    for a in (0.1, 0.2, 0.25, 0.251, 0.26, 0.3, 0.45):
        yield f"alpha-const a={a}", walk(alpha_const(a))
    for K in (1, 2, 3):
        for c in (0.5, 0.9, 1.5):
            yield f"alpha-threshold K={K} c={c}", walk(alpha_threshold(K, c))


CASES = [(f"{key} [{name}]", maker, config)
         for key, maker in _families() for name, config in CONFIGS.items()]


def _hex(x):
    return None if x is None else x.hex()


def verdict_bits(v) -> dict:
    return {
        "decision": v.decision.value,
        "level": v.level,
        "s_min": _hex(v.s_min),
        "s_max": _hex(v.s_max),
        "samples": len(v.samples),
        "dropped": v.dropped,
        "trace": [[r.level, r.decision.value, r.usable, r.dropped, r.escalated]
                  for r in v.trace],
    }


@functools.lru_cache(maxsize=1)
def _stored() -> dict:
    return json.loads(BITS_PATH.read_text())


def test_grid_matches_stored_cases():
    assert [key for key, _, _ in CASES] == list(_stored())


@pytest.mark.parametrize("key,maker,config", CASES, ids=[key for key, _, _ in CASES])
def test_verdict_bits(key, maker, config):
    expected = _stored()[key]
    got = verdict_bits(maker(config))
    differing = [k for k in expected if got[k] != expected[k]]
    assert not differing, (key, {k: (expected[k], got[k]) for k in differing})


if __name__ == "__main__":
    bits = {key: verdict_bits(maker(config)) for key, maker, config in CASES}
    lines = (f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in bits.items())
    BITS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one verdict per line
    print(f"wrote {len(bits)} verdicts to {BITS_PATH}")
