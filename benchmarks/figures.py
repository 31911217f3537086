"""Plain-text renderings of the paper's figures and tables.

The evaluation figures are line charts (strong scaling, Figs. 4/6) and
stacked bars (runtime breakdown, Figs. 5/6).  These renderers draw them as
deterministic ASCII art so benchmark artifacts capture the *shape* of each
figure -- slopes, crossovers, dominant layers -- in a terminal and in
EXPERIMENTS.md, without a plotting dependency.  Only the ``bench_*.py``
scripts beside this file draw them (``from figures import ...``: pytest and
``python benchmarks/bench_x.py`` both put this directory on ``sys.path``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["ascii_line_chart", "stacked_bar_chart", "render_matrix"]

#: Per-series plot markers, assigned in insertion order.
MARKERS = "ox+*#@%&"

#: Per-layer fill characters for stacked bars.
FILLS = "#=+-:*ox"


def _scale(value: float, lo: float, hi: float, span: int, log: bool) -> int:
    """Map ``value`` in [lo, hi] onto a cell index in [0, span]."""
    if hi <= lo:
        return 0
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    frac = (value - lo) / (hi - lo)
    return max(0, min(span, round(frac * span)))


def ascii_line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    logx: bool = False,
    logy: bool = False,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render named (x, y) series on one grid with per-series markers.

    ``logx``/``logy`` plot on decimal-log axes -- the natural choice for
    strong-scaling curves, where ideal scaling is a straight line.
    """
    if not series or all(len(pts) == 0 for pts in series.values()):
        raise ValueError("ascii_line_chart needs at least one nonempty series")
    if width < 10 or height < 4:
        raise ValueError(f"chart too small: {width}x{height}")
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if (logx and min(xs) <= 0) or (logy and min(ys) <= 0):
        raise ValueError("log axes need strictly positive coordinates")
    xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, pts) in enumerate(series.items()):
        marker = MARKERS[idx % len(MARKERS)]
        for x, y in pts:
            col = _scale(x, xlo, xhi, width - 1, logx)
            row = height - 1 - _scale(y, ylo, yhi, height - 1, logy)
            grid[row][col] = marker

    y_hi_lab = f"{yhi:.3g}"
    y_lo_lab = f"{ylo:.3g}"
    pad = max(len(y_hi_lab), len(y_lo_lab))
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        label = y_hi_lab if r == 0 else (y_lo_lab if r == height - 1 else "")
        lines.append(f"{label:>{pad}} |" + "".join(row))
    lines.append(" " * pad + " +" + "-" * width)
    x_lo_lab, x_hi_lab = f"{xlo:.3g}", f"{xhi:.3g}"
    gap = width - len(x_lo_lab) - len(x_hi_lab)
    lines.append(" " * pad + "  " + x_lo_lab + " " * max(gap, 1) + x_hi_lab)
    if xlabel:
        lines.append(" " * pad + f"  ({xlabel})")
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(f"legend: {legend}")
    if ylabel:
        lines.insert(1 if title else 0, f"[y: {ylabel}]")
    return "\n".join(lines)


def stacked_bar_chart(
    labels: Sequence[str],
    stacks: Mapping[str, Sequence[float]],
    width: int = 50,
    title: str = "",
    normalize: bool = False,
) -> str:
    """Render horizontal stacked bars, one per label.

    ``stacks`` maps layer name -> one value per label (the paper's stage
    breakdown: layer = pipeline stage, label = node count).  With
    ``normalize`` every bar is stretched to full width, showing relative
    shares (Fig. 5's message); otherwise bar lengths are proportional to
    their totals.
    """
    if not labels:
        raise ValueError("stacked_bar_chart needs at least one bar")
    for layer, vals in stacks.items():
        if len(vals) != len(labels):
            raise ValueError(
                f"layer {layer!r} has {len(vals)} values for "
                f"{len(labels)} labels"
            )
        if any(v < 0 for v in vals):
            raise ValueError(f"layer {layer!r} has negative values")
    totals = [
        sum(stacks[layer][i] for layer in stacks) for i in range(len(labels))
    ]
    peak = max(totals) if totals else 0.0
    label_pad = max(len(str(l)) for l in labels)

    lines = []
    if title:
        lines.append(title)
    for i, label in enumerate(labels):
        total = totals[i]
        bar_cells = (
            width
            if normalize and total > 0
            else (_scale(total, 0.0, peak, width, False) if peak else 0)
        )
        bar = ""
        used = 0
        layer_items = list(stacks.items())
        for j, (layer, vals) in enumerate(layer_items):
            if total <= 0:
                break
            share = vals[i] / total
            cells = (
                bar_cells - used
                if j == len(layer_items) - 1
                else round(share * bar_cells)
            )
            cells = max(0, min(cells, bar_cells - used))
            bar += FILLS[j % len(FILLS)] * cells
            used += cells
        lines.append(f"{str(label):>{label_pad}} |{bar:<{width}}| {total:.4g}")
    legend = "   ".join(
        f"{FILLS[j % len(FILLS)]} {layer}" for j, layer in enumerate(stacks)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def render_matrix(title: str, col_names: list[str], rows: list[tuple[str, list]]) -> str:
    """Generic fixed-width table renderer for bench output."""
    header = f"{'':<18}" + "".join(f"{c:>12}" for c in col_names)
    lines = [title, header]
    for name, values in rows:
        cells = "".join(
            f"{v:>12.4f}" if isinstance(v, float) else f"{v:>12}" for v in values
        )
        lines.append(f"{name:<18}{cells}")
    return "\n".join(lines)
