"""Tests for the ASCII figure renderers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figures import ascii_line_chart, stacked_bar_chart


class TestLineChart:
    def test_markers_and_legend(self):
        text = ascii_line_chart(
            {"a": [(1, 1), (2, 2)], "b": [(1, 2), (2, 1)]},
            width=20, height=6,
        )
        assert "o" in text and "x" in text
        assert "legend: o a   x b" in text

    def test_title_and_axis_labels(self):
        text = ascii_line_chart(
            {"s": [(1, 1), (10, 10)]},
            title="T", xlabel="P", ylabel="sec", width=20, height=6,
        )
        assert text.splitlines()[0] == "T"
        assert "[y: sec]" in text
        assert "(P)" in text

    def test_axis_extremes_labelled(self):
        text = ascii_line_chart(
            {"s": [(2, 5), (64, 500)]}, width=24, height=6
        )
        assert "500" in text and "5" in text
        assert "2" in text and "64" in text

    def test_monotone_series_monotone_rows(self):
        """A strictly decreasing series must render in non-decreasing row
        order (top row = max)."""
        text = ascii_line_chart(
            {"s": [(1, 100), (2, 10), (4, 1)]},
            width=30, height=10, logy=True,
        )
        rows = [
            i
            for i, line in enumerate(text.splitlines())
            if "o" in line and "|" in line
        ]
        assert rows == sorted(rows)

    def test_log_axes_reject_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_line_chart({"s": [(0, 1), (2, 2)]}, logx=True)
        with pytest.raises(ValueError):
            ascii_line_chart({"s": [(1, 0), (2, 2)]}, logy=True)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_line_chart({})
        with pytest.raises(ValueError):
            ascii_line_chart({"s": []})

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            ascii_line_chart({"s": [(1, 1)]}, width=5, height=2)

    def test_single_point(self):
        text = ascii_line_chart({"s": [(3, 7)]}, width=12, height=4)
        assert "o" in text

    @given(
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_grid_dimensions_stable(self, n, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        pts = [(float(i + 1), float(rng.uniform(0.1, 9))) for i in range(n)]
        text = ascii_line_chart({"s": pts}, width=30, height=8)
        plot_rows = [l for l in text.splitlines() if "|" in l]
        assert len(plot_rows) == 8


class TestStackedBars:
    STACKS = {"a": [1.0, 2.0], "b": [3.0, 2.0]}

    def test_totals_shown(self):
        text = stacked_bar_chart(["x", "y"], self.STACKS, width=20)
        assert "| 4" in text

    def test_proportional_bar_lengths(self):
        text = stacked_bar_chart(
            ["x", "y"], {"a": [2.0, 4.0]}, width=20
        )
        rows = [l for l in text.splitlines() if l.startswith(("x", "y"))]
        assert rows[0].count("#") == 10
        assert rows[1].count("#") == 20

    def test_normalized_bars_full_width(self):
        text = stacked_bar_chart(
            ["x", "y"], self.STACKS, width=20, normalize=True
        )
        for row in text.splitlines():
            if row.startswith(("x", "y")):
                filled = sum(row.count(c) for c in "#=")
                assert filled == 20

    def test_layer_shares_sum_to_bar(self):
        text = stacked_bar_chart(
            ["x"], {"a": [1.0], "b": [3.0]}, width=40
        )
        bar_row = next(l for l in text.splitlines() if l.startswith("x"))
        assert bar_row.count("#") + bar_row.count("=") == 40
        # a:b = 1:3 split
        assert bar_row.count("#") == 10
        assert bar_row.count("=") == 30

    def test_legend_lists_layers(self):
        text = stacked_bar_chart(["x"], {"a": [1.0], "b": [3.0]})
        assert "legend: # a   = b" in text

    def test_zero_total_bar(self):
        text = stacked_bar_chart(["x"], {"a": [0.0]}, width=10)
        assert "| 0" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            stacked_bar_chart([], {"a": []})
        with pytest.raises(ValueError):
            stacked_bar_chart(["x"], {"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            stacked_bar_chart(["x"], {"a": [-1.0]})
