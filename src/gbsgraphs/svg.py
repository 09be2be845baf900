"""Minimal deterministic SVG emission for scatter and curve panels.

No plotting library: the figures are presentation of already-computed data,
and hand-rolled markup keeps repeated runs byte-identical apart from the
version comment on the second line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 36.0, 46.0
_HEIGHT = 400                     # panel height, legend excluded


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]
    color: str
    kind: str = "points"          # "points" | "line"


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    x_ticks: list[tuple[float, str]] | None = None   # override numeric ticks


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _limits(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _panel_svg(panel: Panel, x0: float, width: float) -> list[str]:
    xs = [x for s in panel.series for x in s.xs]
    ys = [y for s in panel.series for y in s.ys]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    xlo, xhi = _limits(xs)
    ylo, yhi = _limits(ys)
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return x0 + _MARGIN_L + (x - xlo) / (xhi - xlo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - ylo) / (yhi - ylo) * plot_h

    out = []
    out.append(f'<text x="{_fmt(x0 + width / 2)}" y="20" text-anchor="middle" '
               f'font-size="14">{_esc(panel.title)}</text>')
    # frame
    out.append(f'<rect x="{_fmt(x0 + _MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
               f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
               'fill="none" stroke="#333333" stroke-width="1"/>')
    # y ticks
    for tick in _ticks(ylo, yhi):
        y = py(tick)
        out.append(f'<line x1="{_fmt(x0 + _MARGIN_L - 4)}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(x0 + _MARGIN_L)}" y2="{_fmt(y)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(x0 + _MARGIN_L - 7)}" y="{_fmt(y + 3)}" '
                   f'text-anchor="end" font-size="9">{tick:.3g}</text>')
    # x ticks
    if panel.x_ticks is not None:
        ticks = [(x, lbl) for x, lbl in panel.x_ticks if xlo <= x <= xhi]
    else:
        ticks = [(t, f"{t:.3g}") for t in _ticks(xlo, xhi)]
    for tick, lbl in ticks:
        x = px(tick)
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_T + plot_h)}" '
                   f'x2="{_fmt(x)}" y2="{_fmt(_MARGIN_T + plot_h + 4)}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(_MARGIN_T + plot_h + 15)}" '
                   f'text-anchor="middle" font-size="9">{_esc(lbl)}</text>')
    out.append(f'<text x="{_fmt(x0 + _MARGIN_L + plot_w / 2)}" '
               f'y="{_fmt(_HEIGHT - 8)}" text-anchor="middle" font-size="11">'
               f'{_esc(panel.xlabel)}</text>')
    out.append(f'<text x="{_fmt(x0 + 14)}" y="{_fmt(_MARGIN_T + plot_h / 2)}" '
               f'text-anchor="middle" font-size="11" '
               f'transform="rotate(-90 {_fmt(x0 + 14)} {_fmt(_MARGIN_T + plot_h / 2)})">'
               f'{_esc(panel.ylabel)}</text>')
    # data
    for s in panel.series:
        if s.kind == "line" and len(s.xs) > 1:
            points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                              for x, y in zip(s.xs, s.ys))
            out.append(f'<polyline fill="none" stroke="{s.color}" '
                       f'stroke-width="1.5" points="{points}"/>')
        else:
            for x, y in zip(s.xs, s.ys):
                out.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" '
                           f'r="2.5" fill="{s.color}"/>')
    return out


def render(path, panels: list[Panel], panel_width: int = 480) -> Path:
    """Write the panels side by side into one SVG file."""
    path = Path(path)
    total_w = panel_width * len(panels)
    # legend entries: first occurrence of each label across panels
    legend: list[tuple[str, str]] = []
    seen = set()
    for panel in panels:
        for s in panel.series:
            if s.label and s.label not in seen:
                seen.add(s.label)
                legend.append((s.label, s.color))
    legend_h = 18 * ((len(legend) + 3) // 4) + 8 if legend else 0
    total_h = _HEIGHT + legend_h
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}" '
        'font-family="sans-serif">',
        f'<!-- gbsgraphs {__version__} -->',
        f'<rect width="{total_w}" height="{total_h}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        lines.extend(_panel_svg(panel, i * panel_width, panel_width))
    for i, (label, color) in enumerate(legend):
        col, row = i % 4, i // 4
        x = 24 + col * (total_w - 40) / 4
        y = _HEIGHT + 14 + row * 18
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y - 3)}" r="4" fill="{color}"/>')
        lines.append(f'<text x="{_fmt(x + 8)}" y="{_fmt(y)}" font-size="10">'
                     f'{_esc(label)}</text>')
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
