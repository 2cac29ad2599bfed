"""Minimal deterministic SVG 1.1 line charts.

Hand-rolled so that repeated runs produce byte-identical files: fixed float
formatting, no timestamps, no randomized element ids.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

WIDTH, HEIGHT = 720, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _nice_ticks(lo: float, hi: float):
    """A short list of round tick positions covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        hi = lo + (abs(lo) if lo != 0 else 1.0) * 1e-9 + 1e-300
    span = hi - lo
    raw = span / 5  # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks, v, k = [], first, 0
    while v <= hi + 0.5 * step and k < 20:
        ticks.append(v)
        v = first + (k + 1) * step
        k += 1
    return ticks or [lo]


def line_chart(path: str, title: str, xlabel: str, ylabel: str,
               series: Sequence[Tuple[str, np.ndarray, np.ndarray]]):
    """Write a line chart of (label, x, y) series to `path` as SVG 1.1."""
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = (float(np.min(xs[finite])), float(np.max(xs[finite]))) if finite.any() else (0, 1)
    y_lo, y_hi = (float(np.min(ys[finite])), float(np.max(ys[finite]))) if finite.any() else (0, 1)
    if y_hi == y_lo:
        pad = abs(y_lo) * 1e-6 + 1e-12
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):  # a float, or an array elementwise in the same operations
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return MARGIN_T + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{WIDTH}" height="{HEIGHT}" '
                 f'viewBox="0 0 {WIDTH} {HEIGHT}">\n')
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="24" font-family="monospace" '
                 f'font-size="15" text-anchor="middle">{title}</text>\n')

    for tx in _nice_ticks(x_lo, x_hi):
        X = sx(tx)
        parts.append(f'<line x1="{X:.2f}" y1="{MARGIN_T}" x2="{X:.2f}" '
                     f'y2="{MARGIN_T + ph}" stroke="#dddddd" stroke-width="1"/>\n')
        parts.append(f'<text x="{X:.2f}" y="{MARGIN_T + ph + 18}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{_fmt(tx)}</text>\n')
    for ty in _nice_ticks(y_lo, y_hi):
        Y = sy(ty)
        parts.append(f'<line x1="{MARGIN_L}" y1="{Y:.2f}" x2="{MARGIN_L + pw}" '
                     f'y2="{Y:.2f}" stroke="#dddddd" stroke-width="1"/>\n')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{Y + 4:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">{_fmt(ty)}</text>\n')

    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="black" stroke-width="1"/>\n')
    parts.append(f'<text x="{MARGIN_L + pw / 2:.1f}" y="{HEIGHT - 12}" '
                 f'font-family="monospace" font-size="12" text-anchor="middle">{xlabel}</text>\n')
    parts.append(f'<text x="18" y="{MARGIN_T + ph / 2:.1f}" font-family="monospace" '
                 f'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 18 {MARGIN_T + ph / 2:.1f})">{ylabel}</text>\n')

    for k, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        color = COLORS[k % len(COLORS)]
        keep = np.isfinite(x) & np.isfinite(y)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as in floats
            xy = np.column_stack([sx(x[keep]), sy(y[keep])])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>\n')
        ly = MARGIN_T + 16 + 16 * k
        parts.append(f'<line x1="{MARGIN_L + pw - 150}" y1="{ly - 4}" '
                     f'x2="{MARGIN_L + pw - 126}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>\n')
        parts.append(f'<text x="{MARGIN_L + pw - 120}" y="{ly}" font-family="monospace" '
                     f'font-size="11">{label}</text>\n')

    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(parts))
