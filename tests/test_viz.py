"""ASCII line chart rendering."""

import pytest

from repro.errors import ConfigError
from repro.viz import ascii_line_chart


class TestLineChart:
    def test_renders_all_series_markers(self):
        chart = ascii_line_chart(
            {
                "model_a": {0.1: 0.5, 0.5: 0.4, 1.0: 0.3},
                "model_b": {0.1: 0.2, 0.5: 0.25, 1.0: 0.28},
            },
            width=40,
            height=10,
            title="coherence",
        )
        assert "coherence" in chart
        assert "o=model_a" in chart
        assert "x=model_b" in chart
        assert "o" in chart.splitlines()[1]  # highest point near the top

    def test_extremes_on_borders(self):
        chart = ascii_line_chart({"m": {0.0: 0.0, 1.0: 1.0}}, width=20, height=5)
        lines = chart.splitlines()
        body = [l for l in lines if "|" in l]
        assert "o" in body[0]    # max value on the top row
        assert "o" in body[-1]   # min value on the bottom row

    def test_axis_labels(self):
        chart = ascii_line_chart({"m": {2.0: 0.3, 8.0: 0.9}}, width=30, height=6)
        assert "0.900" in chart
        assert "0.300" in chart
        assert "2" in chart and "8" in chart

    def test_constant_series_handled(self):
        chart = ascii_line_chart({"m": {0.0: 0.5, 1.0: 0.5}})
        assert "o" in chart

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ascii_line_chart({})
        with pytest.raises(ConfigError):
            ascii_line_chart({"m": {}})
