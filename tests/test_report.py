"""Report document structure and determinism."""

import json
from dataclasses import asdict

from demorgan.convergence import ClassifyConfig, adaptive_classify, extended_bdm_test
from demorgan.families import log_power, alpha_const, p_series
from demorgan.report import Report, verdict_to_dict
from demorgan.walk import simulate


def test_verdict_documents_evidence():
    v = adaptive_classify(log_power(1.0).ratio_spec)
    doc = verdict_to_dict(v)
    assert doc["decision"] == "diverges"
    assert doc["level"] == 2
    assert doc["samples"], "sample grid must be embedded"
    assert all(len(entry) == 3 for entry in doc["samples"])
    assert [step["level"] for step in doc["trace"]] == [1, 2]
    json.dumps(doc)  # JSON-compatible throughout


def test_json_round_trips_full_precision():
    v = adaptive_classify(log_power(2.0).ratio_spec)
    doc = verdict_to_dict(v)
    loaded = json.loads(json.dumps(doc))
    assert loaded["s_min"] == v.s_min  # repr round-trip, no digit loss
    assert loaded["samples"] == [[p.n, p.value, p.usable] for p in v.samples]


def test_sample_points_are_json_triples():
    # Each SamplePoint is the triple [n, value, usable]; one that is not
    # usable above 2**53 has a NaN value, written as null.
    v = extended_bdm_test(1, p_series(2.0).ratio_spec, (10**15, 10**17), samples=8)
    triples = json.loads(Report("series", {}, verdict_to_dict(v)).to_json())["result"]["samples"]
    assert triples == [[p.n, p.value if p.usable else None, p.usable] for p in v.samples]
    assert [t[2] for t in triples].count(False) == v.dropped > 0
    assert all(type(t[0]) is int and type(t[2]) is bool for t in triples)


def test_reports_identical_modulo_timing():
    def build(timing):
        v = adaptive_classify(log_power(1.0).ratio_spec)
        return Report(mode="series", input={"source": "x"}, result=verdict_to_dict(v),
                      timing_ms=timing)

    a, b = build(1.0), build(99.0)
    assert a.to_dict()["timing_ms"] != b.to_dict()["timing_ms"]
    a.timing_ms = b.timing_ms = None
    assert a.to_json() == b.to_json()
    assert "timing_ms" not in a.to_dict()


def test_text_report_prints_the_note():
    v = adaptive_classify(log_power(1.0).ratio_spec, ClassifyConfig(k_max=1))
    lines = Report("series", {}, verdict_to_dict(v)).to_text().splitlines()
    assert "note: stopped at depth 1 (tail hovers near the critical value, no depth left)" in lines
    quiet = adaptive_classify(p_series(2.0).ratio_spec)
    assert quiet.note == ""
    assert not any(line.startswith("note:") for line in
                   Report("series", {}, verdict_to_dict(quiet)).to_text().splitlines())


def test_simulation_document():
    rep = simulate(alpha_const(0.3).drift, seed=3, horizon=50, n_paths=10)
    doc = asdict(rep)
    assert doc["returned_paths"] == rep.returned_paths
    assert doc["final_positions"]["min"] >= 0
    json.dumps(doc)
