"""ASCII line charts — a matplotlib substitute for terminal-only runs.

The paper's Figures 2-6 are line plots; these helpers render the same
series dictionaries the experiment harness produces as fixed-width text,
so benchmark logs carry an actual *picture* of each figure, not just the
numbers.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigError

_MARKERS = "ox*+#@%&"


def ascii_line_chart(
    series: Mapping[str, Mapping[float, float]],
    width: int = 64,
    height: int = 16,
    title: str | None = None,
    y_label: str = "",
) -> str:
    """Render ``{line_name: {x: y}}`` as an ASCII chart with a legend.

    Lines are drawn with distinct marker characters on a shared canvas;
    later series overwrite earlier ones on collisions (collisions mean the
    curves genuinely overlap at this resolution).
    """
    if not series:
        raise ConfigError("no series to plot")
    xs = sorted({x for line in series.values() for x in line})
    ys = [y for line in series.values() for y in line.values()]
    if not xs or not ys:
        raise ConfigError("series contain no points")
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    canvas = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return min(width - 1, int(round((x - x_min) / x_span * (width - 1))))

    def to_row(y: float) -> int:
        return min(height - 1, int(round((y_max - y) / y_span * (height - 1))))

    legend: list[str] = []
    for index, (name, line) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend.append(f"{marker}={name}")
        for x, y in sorted(line.items()):
            canvas[to_row(y)][to_col(x)] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_max:.3f}"
    bottom_label = f"{y_min:.3f}"
    pad = max(len(top_label), len(bottom_label), len(y_label))
    for i, row in enumerate(canvas):
        if i == 0:
            prefix = top_label.rjust(pad)
        elif i == height - 1:
            prefix = bottom_label.rjust(pad)
        elif i == height // 2 and y_label:
            prefix = y_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}")
    axis = f"{' ' * pad} +{'-' * width}"
    lines.append(axis)
    x_axis = f"{x_min:g}".ljust(width // 2) + f"{x_max:g}".rjust(width - width // 2)
    lines.append(f"{' ' * pad}  {x_axis}")
    lines.append(f"{' ' * pad}  legend: {'  '.join(legend)}")
    return "\n".join(lines)
