"""CLI subcommands, exit codes, report structure and determinism."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import demorgan
from demorgan import walk
from demorgan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestClassifySeries:
    def test_family_decisive(self, capsys):
        code, doc = run_json(capsys, "classify-series", "--family", "p-series", "--p", "2")
        assert code == 0
        assert doc["mode"] == "series"
        assert doc["result"]["decision"] == "converges"
        assert doc["input"]["source"]["family"] == "p-series"
        assert doc["schema_version"] == 1
        assert doc["tool"]["name"] == "demorgan"

    def test_iterlog_family_with_depth_flag(self, capsys):
        code, doc = run_json(capsys, "classify-series",
                             "--family", "iterlog-power", "--K", "2", "--r", "2.0")
        assert code == 0
        assert doc["result"]["decision"] == "converges"

    def test_expression_source(self, capsys):
        code, doc = run_json(capsys, "classify-series", "--a-n", "1/(n*ln(n))")
        assert code == 0
        assert doc["result"]["decision"] == "diverges"
        assert doc["result"]["level"] == 2
        assert doc["input"]["source"] == {
            "kind": "expression", "quantity": "a_n", "text": "1/(n*ln(n))",
            "first_index": 2,
        }

    def test_delta_expression_source(self, capsys):
        code, doc = run_json(capsys, "classify-series", "--delta-n", "2/n")
        assert code == 0
        assert doc["result"]["decision"] == "converges"

    def test_long_expression_source(self, capsys):
        # 3,000 "+0" terms, more than the interpreter's recursion limit.
        code, doc = run_json(capsys, "classify-series", "--a-n", "1/n^2" + "+0" * 3000)
        assert code == 0
        assert doc["result"]["decision"] == "converges"

    def test_table_source(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("\n".join(f"{n} {1.0 / n ** 2}" for n in range(2, 2000)))
        code, doc = run_json(capsys, "classify-series", "--table", str(path),
                             "--window-hi", "1500")
        assert code == 0
        assert doc["result"]["decision"] == "converges"

    def test_inconclusive_exit_code(self, capsys, tmp_path):
        # Oscillating tabulated ratios straddle the critical value outside
        # the escalation band.
        path = tmp_path / "osc.txt"
        rows = [f"{n} {1.0 + (2.0 if n % 2 == 0 else 0.25) / n}" for n in range(10, 3000)]
        path.write_text("\n".join(rows))
        code, doc = run_json(capsys, "classify-series", "--table", str(path),
                             "--table-kind", "ratios", "--window-hi", "2500")
        assert code == 2
        assert doc["result"]["decision"] == "inconclusive"

    def test_requires_exactly_one_source(self, capsys):
        code, out, err = run(capsys, "classify-series")
        assert code == 1 and "exactly one" in err
        code, out, err = run(capsys, "classify-series", "--family", "p-series",
                             "--p", "2", "--a-n", "1/n")
        assert code == 1 and "exactly one" in err
        assert err == ("error: choose exactly one of --family, --a-n, --delta-n, --table"
                       " (got --family, --a-n)\n")
        for argv, sources, got in [
            (("classify-bdp",), "--family, --lambda/--mu", None),
            (("classify-bdp", "--family", "bd-power", "--c", "2", "--mu", "1"),
             "--family, --lambda/--mu", "--family, --lambda/--mu"),
            (("classify-walk",), "--alpha-const, --alpha", None),
            (("classify-walk", "--alpha-const", "0.3", "--alpha", "0.3"),
             "--alpha-const, --alpha", "--alpha-const, --alpha"),
            (("simulate-walk", "--paths", "4"), "--alpha-const, --alpha", None),
            (("simulate-walk", "--alpha", "0.3", "--alpha-const", "0.3"),
             "--alpha-const, --alpha", "--alpha-const, --alpha"),
        ]:
            code, out, err = run(capsys, *argv)
            message = f"choose exactly one of {sources}" + (f" (got {got})" if got else "")
            assert (code, out, err) == (1, "", f"error: {message}\n"), argv

    def test_bad_expression_reports_position(self, capsys):
        code, out, err = run(capsys, "classify-series", "--a-n", "1/(n")
        assert code == 1
        assert "position" in err

    def test_family_parameter_validation(self, capsys):
        code, out, err = run(capsys, "classify-series", "--family", "p-series")
        assert code == 1 and "needs parameter" in err

    def test_first_index_below_one_rejected(self, capsys):
        for first in ("0", "-3"):
            code, out, err = run(capsys, "classify-series", "--a-n", "1/n^2",
                                 "--first-index", first)
            assert code == 1 and "--first-index" in err and out == ""

    def test_first_index_must_be_an_integer(self, capsys):
        code, out, err = run(capsys, "classify-series", "--a-n", "1/n^2", "--first-index", "abc")
        assert (code, out) == (1, "")
        assert err == "error: argument --first-index: not an integer: 'abc'\n"

    def test_expression_positive_nowhere_exits_one(self, capsys):
        code, out, err = run(capsys, "classify-series", "--a-n", "0-1")
        assert (code, out) == (1, "")
        assert err == ("error: could not find an index n <= 10000 where '0-1' is positive; "
                       "pass --first-index explicitly\n")

    def test_explicit_first_index_is_echoed(self, capsys):
        code, doc = run_json(capsys, "classify-series", "--a-n", "1/n^2",
                             "--first-index", "5", "--no-timing")
        assert code == 0
        assert doc["input"]["source"]["first_index"] == 5

    def test_negative_terms_are_not_decisive(self, capsys):
        code, doc = run_json(capsys, "classify-series", "--a-n=0-1/n^2",
                             "--first-index", "1", "--no-timing")
        assert code == 2
        assert doc["result"]["decision"] == "inconclusive"
        assert doc["result"]["dropped_samples"] > 0

    def test_nan_samples_are_written_as_null(self, capsys):
        # exp(n) overflows on most of the grid: those samples are NaN.
        code, out, err = run(capsys, "classify-series", "--a-n", "1/exp(n)",
                             "--format", "json", "--no-timing")
        result = strict_json(out)["result"]
        assert code == 0 and result["dropped_samples"] == 53
        assert [value for _, value, _ in result["samples"]].count(None) == 53

    def test_infinite_coefficients_are_written_as_null(self, capsys):
        argv = ("classify-series", "--delta-n", "1e300*n", "--no-timing")
        code, out, err = run(capsys, *argv, "--format", "json")
        result = strict_json(out)["result"]
        assert code == 0 and result["s_min"] is None and result["s_max"] is None
        assert all(step["s_min"] is None for step in result["trace"])
        code, out, err = run(capsys, *argv)
        assert "tail coefficient range: [inf, inf]" in out

    @pytest.mark.parametrize("source", [
        ("--family", "p-series", "--p", "2"), ("--table", "TABLE"),
    ], ids=["family", "table"])
    def test_first_index_rejected_for_family_and_table(self, capsys, tmp_path, source):
        path = tmp_path / "t.txt"
        path.write_text("\n".join(f"{n} {1.0 / n ** 2}" for n in range(2, 200)))
        argv = [str(path) if a == "TABLE" else a for a in source]
        code, out, err = run(capsys, "classify-series", *argv, "--first-index", "50")
        assert code == 1 and "--first-index" in err and out == ""

    def test_inverted_window_rejected(self, capsys):
        code, out, err = run(capsys, "classify-series", "--family", "p-series", "--p", "2",
                             "--window-lo", "1000", "--window-hi", "500")
        assert code == 1 and "window_hi" in err and out == ""

    @pytest.mark.parametrize("band", ["-1", "nan"])
    def test_invalid_band_rejected(self, capsys, band):
        code, out, err = run(capsys, "classify-series", "--family", "p-series",
                             "--p", "2", "--band", band)
        assert code == 1 and "near_one_band" in err

    @pytest.mark.parametrize("margin", ["0", "nan", "inf"])
    def test_invalid_margin_rejected(self, capsys, margin):
        code, out, err = run(capsys, "classify-series", "--family", "p-series",
                             "--p", "2", "--margin", margin)
        assert code == 1 and "margin" in err and out == ""


class TestClassifyBdp:
    def test_family(self, capsys):
        code, doc = run_json(capsys, "classify-bdp", "--family", "bd-power", "--c", "2")
        assert code == 0
        assert doc["result"]["decision"] == "transient"
        assert doc["result"]["series_verdict"]["decision"] == "converges"

    def test_expression_rates(self, capsys):
        code, doc = run_json(capsys, "classify-bdp",
                             "--lambda", "1 + 2/n", "--mu", "1")
        assert code == 0
        assert doc["result"]["decision"] == "transient"

    def test_symmetric_expression_rates(self, capsys):
        code, doc = run_json(capsys, "classify-bdp", "--lambda", "1", "--mu", "1")
        assert code == 0
        assert doc["result"]["decision"] == "recurrent"

    def test_needs_both_rate_expressions(self, capsys):
        code, out, err = run(capsys, "classify-bdp", "--lambda", "1")
        assert code == 1 and "--mu" in err

    def test_extra_family_parameter_rejected(self, capsys):
        code, out, err = run(capsys, "classify-bdp", "--family", "bd-power",
                             "--c", "2", "--K", "3")
        assert code == 1 and "does not take: K" in err

    def test_first_index_below_one_rejected(self, capsys):
        code, out, err = run(capsys, "classify-bdp", "--lambda", "1 + 2/n", "--mu", "1",
                             "--first-index", "0")
        assert code == 1 and "--first-index" in err

    def test_first_index_rejected_for_family(self, capsys):
        code, out, err = run(capsys, "classify-bdp", "--family", "bd-power", "--c", "2",
                             "--first-index", "50")
        assert code == 1 and "--first-index" in err and out == ""


class TestClassifyWalk:
    @pytest.mark.parametrize("a,expected", [("0.4", "transient"), ("0.1", "recurrent"),
                                            ("0.25", "recurrent")])
    def test_constant_drift(self, capsys, a, expected):
        code, doc = run_json(capsys, "classify-walk", "--alpha-const", a)
        assert code == 0
        assert doc["result"]["decision"] == expected

    def test_expression_drift(self, capsys):
        code, doc = run_json(capsys, "classify-walk", "--alpha", "0.1 + 0.05/n")
        assert code == 0
        assert doc["result"]["decision"] == "recurrent"
        assert doc["input"]["source"]["C"] == 1.0

    def test_invalid_constant(self, capsys):
        code, out, err = run(capsys, "classify-walk", "--alpha-const", "0.7")
        assert code == 1

    @pytest.mark.parametrize("command", ["classify-walk", "simulate-walk"])
    def test_cap_rejected_for_constant_drift(self, capsys, command):
        code, out, err = run(capsys, command, "--alpha-const", "0.3", "--C", "5")
        assert code == 1 and "--C" in err and out == ""

    @pytest.mark.parametrize("cap", ["0", "-1", "nan"])
    def test_non_positive_cap_exits_one(self, capsys, cap):
        code, out, err = run(capsys, "classify-walk", "--alpha", "0.1", "--C", cap)
        assert code == 1 and out == ""
        assert err.startswith("error: C must be positive, got ")

    @pytest.mark.parametrize("command,run_args", [
        ("classify-walk", ()),
        ("simulate-walk", ("--paths", "20", "--horizon", "200", "--seed", "3")),
    ], ids=["classify-walk", "simulate-walk"])
    def test_uncapped_echo_reruns(self, capsys, command, run_args):
        # The echoed cap, fed back through --C, reproduces the report.
        argv = (command, "--alpha", "0.3", *run_args, "--format", "json", "--no-timing")
        code, out, err = run(capsys, *argv, "--C", "inf")
        assert code == 0 and err == ""
        cap = strict_json(out)["input"]["source"]["C"]
        assert cap == "inf"
        assert run(capsys, *argv, "--C", cap) == (code, out, err)
        assert run(capsys, *argv)[1] != out  # without --C the cap is 1.0

class TestSimulateWalk:
    def test_deterministic_report(self, capsys):
        args = ("simulate-walk", "--alpha-const", "0.4", "--paths", "100",
                "--horizon", "1000", "--seed", "42", "--no-timing")
        code1, doc1 = run_json(capsys, *args)
        code2, doc2 = run_json(capsys, *args)
        assert code1 == code2 == 0
        assert doc1 == doc2

    def test_byte_identical_json(self, capsys):
        args = ("simulate-walk", "--alpha-const", "0.3", "--paths", "50",
                "--horizon", "500", "--seed", "7", "--no-timing", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("flag", [("--workers", "2"), ("--chunk-size", "9")],
                             ids=["workers", "chunk-size"])
    def test_removed_schedule_flags_rejected(self, capsys, flag):
        code, out, err = run(capsys, "simulate-walk", "--alpha-const", "0.3",
                             "--paths", "64", "--horizon", "300", *flag)
        assert code == 1 and flag[0] in err

    @pytest.mark.parametrize("seed", ["-5", str(1 << 64)])
    def test_seed_out_of_range_exits_one(self, capsys, seed):
        code, out, err = run(capsys, "simulate-walk", "--alpha-const", "0.3",
                             "--paths", "4", "--horizon", "10", "--seed", seed)
        assert code == 1 and "seed" in err and out == ""

    def test_horizon_beyond_int64_exits_one(self, capsys):
        code, out, err = run(capsys, "simulate-walk", "--alpha-const", "0.3", "--paths", "1",
                             "--horizon", str(2**63), "--no-timing")
        assert code == 1 and out == ""
        assert err.startswith("error: horizon must be an integer in [1, 2^63)")

    def test_no_compiler_exits_one(self, capsys, monkeypatch, tmp_path):
        # Without cc, simulate-walk names the compiler and exits 1; the
        # classifiers need none.
        monkeypatch.setattr(walk, "_PACKAGE_CACHE", tmp_path / "package" / "__pycache__")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setattr(walk, "_load_kernel", lambda: walk._build_kernel(walk._KERNEL_SOURCE))
        code, out, err = run(capsys, "simulate-walk", "--alpha-const", "0.3",
                             "--paths", "4", "--horizon", "10")
        assert code == 1 and out == ""
        assert err.startswith("error: simulate needs a C compiler: cc could not build")
        code, doc = run_json(capsys, "classify-walk", "--alpha-const", "0.3")
        assert code == 0 and doc["result"]["decision"] == "transient"

    def test_failed_allocation_exits_one(self, capsys, monkeypatch):
        # A run too large for memory names the failed allocation, with no
        # traceback; the stand-in raises before anything is allocated.
        def simulate(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.64 TiB")

        monkeypatch.setattr("demorgan.cli.simulate", simulate)
        code, out, err = run(capsys, "simulate-walk", "--alpha-const", "0.3",
                             "--paths", "1000000000000", "--horizon", "10")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "simulate-walk", "--alpha-const", "0.2",
                             "--paths", "20", "--horizon", "100", "--seed", "11")
        assert code == 0 and err == ""
        expected = (
            "mode: simulate\n"
            "paths: 20  horizon: 100  seed: 11\n"
            "returned: 15 (0.7500)\n"
            "mean first return: 15.80\n"
            "max excursion: 26\n"
            "final positions: mean=12.00 median=11.0 min=3 max=23\n"
        )
        assert re.fullmatch(re.escape(expected) + r"elapsed: \d+\.\d ms\n", out), out


class TestEvalIterlog:
    def test_log_value(self, capsys):
        code, doc = run_json(capsys, "eval-iterlog", "--K", "3", "--x", "100")
        assert code == 0
        assert abs(doc["result"]["value"] - 0.42342265246030381) < 1e-12

    def test_min_domain(self, capsys):
        code, doc = run_json(capsys, "eval-iterlog", "--K", "4", "--what", "min-domain")
        assert code == 0
        assert doc["result"]["value"] == 3_814_280

    def test_zeta(self, capsys):
        code, doc = run_json(capsys, "eval-iterlog", "--K", "2", "--x", "16",
                             "--what", "zeta")
        assert code == 0
        assert abs(doc["result"]["value"] - 45.238952338971589) < 1e-10

    def test_domain_error_exits_one(self, capsys):
        code, out, err = run(capsys, "eval-iterlog", "--K", "2", "--x", "1")
        assert code == 1 and "error" in err

    def test_missing_x(self, capsys):
        code, out, err = run(capsys, "eval-iterlog", "--K", "2")
        assert code == 1

    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("what", ["product", "zeta", "increment"])
    def test_non_finite_index_exits_one(self, capsys, what, x):
        code, out, err = run(capsys, "eval-iterlog", "--K", "1", f"--x={x}", "--what", what)
        assert code == 1 and out == ""
        assert err.startswith("error: this evaluation needs a finite index")

    def test_non_integer_index_exits_one(self, capsys):
        code, out, err = run(capsys, "eval-iterlog", "--K", "2", "--what", "product",
                             "--x", "100.5")
        assert (code, out) == (1, "")
        assert err == "error: this evaluation needs an integer index, got 100.5\n"

    def test_min_domain_rejects_x(self, capsys):
        code, out, err = run(capsys, "eval-iterlog", "--K", "4", "--what", "min-domain",
                             "--x", "5")
        assert code == 1 and out == ""
        assert err == "error: --x does not apply to --what min-domain\n"


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        code, out, err = run(capsys, "classify-series", "--frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv,flag", [
        (("classify-series", "--a-n", "1/n^2", "--p", "3"), "--p"),
        (("classify-series", "--delta-n", "2/n", "--table-kind", "ratios"), "--table-kind"),
        (("classify-series", "--table", "TABLE", "--table-kind", "terms", "--r", "2"), "--r"),
        (("classify-bdp", "--lambda", "1+2/n", "--mu", "1", "--c", "7"), "--c"),
        (("classify-series", "--a-n", "1/n^2", "--K", "2"), "--K"),
        (("classify-bdp", "--lambda", "1+2/n", "--mu", "1", "--K", "2"), "--K"),
    ], ids=["a-n-p", "delta-n-table-kind", "table-r", "bdp-expression-c", "a-n-K",
            "bdp-expression-K"])
    def test_flag_the_source_never_reads_exits_one(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "t.txt"
        path.write_text("\n".join(f"{n} {1.0 / n ** 2}" for n in range(2, 200)))
        argv = [str(path) if a == "TABLE" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} applies only to")

    def test_unknown_command_exits_one(self, capsys):
        code, out, err = run(capsys, "transmogrify")
        assert code == 1

    def test_classify_report_determinism(self, capsys):
        args = ("classify-series", "--family", "log-power", "--r", "1",
                "--no-timing", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_report_roundtrip_rerun(self, capsys):
        # The echoed input is sufficient to reproduce the analysis.
        for flags, echoed in [
            ((), {}),
            (("--no-guard", "--band", "0.3"), {"guard": False, "near_one_band": 0.3}),
        ]:
            code, doc = run_json(capsys, "classify-series", "--family", "log-power",
                                 "--r", "2", *flags, "--no-timing")
            src, cfg = doc["input"]["source"], doc["input"]["config"]
            assert cfg.items() >= echoed.items()
            argv = ["classify-series", "--family", src["family"],
                    "--r", str(src["params"]["r"]),
                    "--K-start", str(cfg["k_start"]), "--K-max", str(cfg["k_max"]),
                    "--margin", str(cfg["margin"]), "--band", str(cfg["near_one_band"]),
                    "--window-lo", str(cfg["window_lo"]), "--window-hi", str(cfg["window_hi"]),
                    "--samples", str(cfg["samples"]), "--no-timing",
                    *(() if cfg["guard"] else ("--no-guard",))]
            code2, doc2 = run_json(capsys, *argv)
            assert (code2, doc2["result"]) == (code, doc["result"])


def _fresh_python(*argv: str, check: bool = True) -> subprocess.CompletedProcess:
    src = str(Path(demorgan.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=check, timeout=120)


def test_export_list_resolves():
    assert all(hasattr(demorgan, name) for name in demorgan.__all__)
    assert len(set(demorgan.__all__)) == len(demorgan.__all__)
    _fresh_python("-c", "from demorgan import *")


def test_cli_loads_no_oracle_module():
    # The extended-precision oracle lives on the test side; a fresh
    # interpreter that imports the CLI loads exactly these package modules.
    proc = _fresh_python("-c", "import sys, demorgan.cli; "
                         "print(sorted(m for m in sys.modules if m.startswith('demorgan')))")
    assert ast.literal_eval(proc.stdout) == [
        "demorgan", "demorgan.birthdeath", "demorgan.cli", "demorgan.convergence",
        "demorgan.errors", "demorgan.expr", "demorgan.families", "demorgan.iterlog",
        "demorgan.report", "demorgan.tables", "demorgan.walk",
    ]


def test_module_entry_point_exit_codes():
    # ``python -m demorgan.cli``, the entry point a spawned CLI call runs.
    for argv, code, decision in [
        (("classify-series", "--family", "p-series", "--p", "2"), 0, "converges"),
        (("classify-bdp", "--family", "bd-iterlog", "--K", "4", "--c", "1.0"), 2,
         "inconclusive"),
        (("classify-bdp",), 1, None),
    ]:
        proc = _fresh_python("-m", "demorgan.cli", *argv, "--format", "json", "--no-timing",
                             check=False)
        assert proc.returncode == code, (argv, proc.stderr)
        if decision is None:
            assert proc.stdout == ""
        else:
            assert json.loads(proc.stdout)["result"]["decision"] == decision
