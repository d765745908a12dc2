"""Minimal self-contained SVG line plots (axes, ticks, polylines, legend).

Built on numpy alone, like the rest of the package, so run artifacts
stay single-language and byte-reproducible.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _nice_ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / max(n, 1)))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * m) <= n:
            step *= m
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def line_plot(path, series, title: str = "", xlabel: str = "",
              ylabel: str = "", logx: bool = False, logy: bool = False,
              width: int = 640, height: int = 440) -> None:
    """Write an SVG with one polyline per (xs, ys, label) triple.

    Points whose x or y is not finite, or not positive on a log axis, are
    left out.  A polyline's pixel coordinates are computed on arrays, each
    by the IEEE operations of the one-point formula in its order, so the
    text is that of formatting point by point; a log axis takes
    ``math.log10`` point by point, since ``np.log10`` may round otherwise."""
    clean = []
    for xs, ys, label in series:
        n = min(len(xs), len(ys))
        x, y = (np.asarray(v, dtype=float)[:n] for v in (xs, ys))
        keep = np.isfinite(x) & np.isfinite(y)
        if logx:
            keep &= x > 0
        if logy:
            keep &= y > 0
        if keep.any():
            clean.append((_axis(x[keep], logx), _axis(y[keep], logy), label))
    if not clean:
        clean = [(np.zeros(1), np.zeros(1), "(no data)")]

    xlo = min(float(x.min()) for x, _, _ in clean)
    xhi = max(float(x.max()) for x, _, _ in clean)
    ylo = min(float(y.min()) for _, y, _ in clean)
    yhi = max(float(y.max()) for _, y, _ in clean)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad_y = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad_y, yhi + pad_y

    ml, mr, mt, mb = 70, 20, 34, 52
    pw, ph = width - ml - mr, height - mt - mb

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
           f'stroke="#333" stroke-width="1"/>']
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{_esc(title)}</text>')

    xticks = _nice_ticks(xlo, xhi)
    for t in xticks:
        X = ml + pw * (t - xlo) / (xhi - xlo)
        out.append(f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" '
                   f'y2="{mt + ph + 5}" stroke="#333"/>')
        lbl = f"1e{t:g}" if logx else f"{t:g}"
        out.append(f'<text x="{X:.1f}" y="{mt + ph + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{lbl}</text>')
    yticks = _nice_ticks(ylo, yhi)
    for t in yticks:
        Y = mt + ph * (1.0 - (t - ylo) / (yhi - ylo))
        out.append(f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" '
                   f'stroke="#333"/>')
        lbl = f"1e{t:g}" if logy else f"{t:g}"
        out.append(f'<text x="{ml - 8}" y="{Y + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{lbl}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">{_esc(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{_esc(ylabel)}</text>')

    for i, (x, y, label) in enumerate(clean):
        color = _COLORS[i % len(_COLORS)]
        px = ml + pw * (x - xlo) / (xhi - xlo)
        py = mt + ph * (1.0 - (y - ylo) / (yhi - ylo))
        coords = " ".join(map("{:.2f},{:.2f}".format, px.tolist(),
                              py.tolist()))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * i
        out.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" '
                   f'x2="{ml + pw - 110}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw - 105}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{_esc(label)}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def _axis(v, log: bool):
    """The plotted values of one axis: v, or log10 v point by point."""
    return np.array([math.log10(a) for a in v.tolist()]) if log else v
