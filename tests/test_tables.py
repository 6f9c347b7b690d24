"""Tabulated series input."""

import math

import pytest

from demorgan.convergence import Decision, adaptive_classify, ClassifyConfig
from demorgan.errors import DomainError
from demorgan.tables import load_table, parse_rows, ratio_spec_from_rows


def terms_rows(fn, lo, hi):
    return [(n, fn(n)) for n in range(lo, hi + 1)]


class TestParsing:
    def test_basic_rows(self):
        rows = parse_rows(["1 0.5", "2, 0.25", "# comment", "", "3\t0.125  # tail"])
        assert rows == [(1, 0.5), (2, 0.25), (3, 0.125)]

    @pytest.mark.parametrize("lines,message", [
        (["1 2 3"], "two columns"),
        (["x 2", "2 3"], "not an integer"),
        (["1 x", "2 3"], "not a number"),
        (["2 1", "2 2"], "strictly increasing"),
        (["3 1", "2 2"], "strictly increasing"),
        (["0 1", "1 2"], ">= 1"),
        (["1 0", "2 2"], "positive"),
        (["1 1"], "at least two rows"),
    ])
    def test_rejects_malformed(self, lines, message):
        with pytest.raises(ValueError, match=message):
            parse_rows(lines)

    @pytest.mark.parametrize("value", ["inf", "Infinity", "-inf", "nan"])
    def test_rejects_non_finite(self, value):
        # A non-finite value would reach the report, and Infinity/NaN are not JSON.
        with pytest.raises(ValueError, match="line 2: values must be finite and positive"):
            parse_rows(["1 2", f"2 {value}", "3 4"])


class TestRatioSpecs:
    def test_terms_layout(self):
        rows = terms_rows(lambda n: 1.0 / n**2, 5, 50)
        spec = ratio_spec_from_rows(rows, "terms")
        assert spec.first_index == 5
        assert spec.last_index == 49  # last index with a neighbour
        assert math.isclose(spec.ratio(10), (11 / 10) ** 2, rel_tol=1e-15)
        with pytest.raises(DomainError):
            spec.ratio(50)  # no n+1 row

    def test_ratio_layout(self):
        rows = [(n, 1.0 + 2.0 / n) for n in range(10, 100)]
        spec = ratio_spec_from_rows(rows, "ratios")
        assert spec.ratio(12) == 1.0 + 2.0 / 12

    def test_gaps_restrict_support(self):
        rows = [(1, 1.0), (2, 0.5), (4, 0.25), (5, 0.2)]
        spec = ratio_spec_from_rows(rows, "terms")
        assert spec.support == (1, 4)  # only adjacent pairs
        with pytest.raises(DomainError):
            spec.ratio(2)

    def test_terms_ratios_are_adjacent_quotients_bit_for_bit(self):
        rows = [(n, math.exp(-0.37 * n) * (1.0 + math.sin(n) / 3.0)) for n in range(3, 40)]
        rows += [(n, 1.0 / (n * math.log(n) ** 2)) for n in range(45, 90, 2)]
        rows += [(n, 1.0 / n**3) for n in range(90, 120)]
        spec = ratio_spec_from_rows(rows, "terms")
        values = dict(rows)
        expected = [n for n, _ in rows if n + 1 in values]
        assert spec.support == tuple(expected)
        for n in expected:
            assert spec.ratio(n).hex() == (values[n] / values[n + 1]).hex(), n

    @pytest.mark.parametrize("kind,missing", [
        ("terms", 2), ("terms", 3), ("terms", 6), ("terms", 0), ("ratios", 3), ("ratios", 7),
    ])
    def test_untabulated_index_has_no_ratio(self, kind, missing):
        spec = ratio_spec_from_rows([(1, 1.0), (2, 0.5), (4, 0.25), (5, 0.2), (6, 0.1)], kind)
        with pytest.raises(DomainError, match=rf"^no tabulated ratio at n={missing}$"):
            spec.ratio(missing)

    def test_no_adjacent_pair_rejected(self):
        with pytest.raises(ValueError, match="no adjacent index pairs"):
            ratio_spec_from_rows([(1, 1.0), (3, 0.5), (5, 0.25)], "terms")

    def test_classification_from_table(self):
        # Tabulated 1/n^2 over a short range still classifies decisively.
        rows = terms_rows(lambda n: 1.0 / n**2, 2, 3000)
        spec = ratio_spec_from_rows(rows, "terms")
        v = adaptive_classify(spec, ClassifyConfig(window_lo=10, window_hi=2500))
        assert v.decision is Decision.CONVERGES

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ratio_spec_from_rows([(1, 1.0), (2, 1.0)], "nope")


class TestFiles:
    def test_load_table(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("\n".join(f"{n} {1.0 / n}" for n in range(1, 400)) + "\n")
        spec = load_table(path, "terms")
        assert spec.first_index == 1
        assert math.isclose(spec.ratio(7), 8.0 / 7.0, rel_tol=1e-15)
