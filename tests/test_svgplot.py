"""The SVG line chart's polylines hold each series' finite points, mapped onto
the plot area and formatted one point at a time as floats give them."""

import math
import re

import numpy as np

from contactmech import svgplot


def _points_one_at_a_time(series):
    """Each series' polyline points, from Python floats point by point."""
    finite = [(x, y) for _, xs, ys in series for x, y in zip(xs.tolist(), ys.tolist())
              if math.isfinite(x) and math.isfinite(y)]
    x_lo, x_hi = min(x for x, _ in finite), max(x for x, _ in finite)
    y_lo, y_hi = min(y for _, y in finite), max(y for _, y in finite)
    pw = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    ph = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    return [" ".join(f"{svgplot.MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw:.2f},"
                     f"{svgplot.MARGIN_T + ph - (y - y_lo) / (y_hi - y_lo) * ph:.2f}"
                     for x, y in zip(xs.tolist(), ys.tolist())
                     if math.isfinite(x) and math.isfinite(y))
            for _, xs, ys in series]


def test_polyline_points_match_the_point_by_point_floats(tmp_path):
    t = np.linspace(0.0, 10.0, 1001)
    y = np.exp(-0.1 * t) * np.cos(t) + 1e-13 * np.arange(1001)
    y[17], y[400] = np.nan, np.inf
    z = t.copy()
    z[5] = -np.inf
    series = [("y", t, y), ("exp(-t)", t[::7], np.exp(-t[::7])), ("t", z, -1e-3 * t),
              ("none", np.array([np.nan]), np.array([1.0]))]
    path = tmp_path / "chart.svg"
    svgplot.line_chart(str(path), "title", "t", "y", series)
    drawn = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert drawn == _points_one_at_a_time(series)
    assert drawn[-1] == "" and len(drawn[0].split()) == 999
