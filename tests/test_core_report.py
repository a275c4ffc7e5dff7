"""Tests for report rendering."""

from repro.core.report import (
    TextTable,
    format_count_pct,
    format_percent,
    render_series,
)
from tests.analysis_reference import sparkline


class TestFormatting:
    def test_percent_large(self):
        assert format_percent(98.4) == "98%"

    def test_percent_small_keeps_decimal(self):
        assert format_percent(2.34) == "2.3%"

    def test_percent_zero(self):
        assert format_percent(0.0) == "0%"

    def test_count_pct(self):
        assert format_count_pct(1748, 100.0) == "1,748 (100%)"


class TestTextTable:
    def test_render_structure(self):
        table = TextTable(title="T", headers=["a", "bb"])
        table.add_row("x", 12)
        table.add_row("longer", "y")
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "### T"
        assert "| a" in lines[2]
        # All data rows share the pipe structure.
        assert lines[4].count("|") == lines[5].count("|") == 3

    def test_notes(self):
        table = TextTable(title="T", headers=["a"])
        table.add_note("careful")
        assert "> careful" in table.render()

    def test_str(self):
        table = TextTable(title="T", headers=["a"])
        assert str(table) == table.render()


class TestRenderSeries:
    def test_contains_points(self):
        text = render_series(
            "curve", {"s": [(0.0, 0.0), (1.0, 50.0)]}, x_label="h", y_label="%"
        )
        assert "### curve" in text
        assert "| s | 0 | 0.00 |" in text
        assert "| s | 1 | 50.00 |" in text

    def test_downsamples_long_series(self):
        points = [(float(i), float(i)) for i in range(1000)]
        text = render_series("curve", {"s": points}, max_points=10)
        rows = [line for line in text.splitlines() if line.startswith("| s |")]
        assert len(rows) <= 12
        # The final point always survives downsampling.
        assert "| s | 999 | 999.00 |" in text


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_shape(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert line[0] <= line[-1]

    def test_constant_values(self):
        assert len(sparkline([5, 5, 5])) == 3
