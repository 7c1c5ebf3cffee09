"""Minimal dependency-free SVG line plots.

Hand-rolled on purpose: the generated files are plain strings, so identical
inputs give byte-identical plots (no renderer ids or timestamps).
"""

from __future__ import annotations

import numpy as np

from .ioutil import atomic_write_text

WIDTH, HEIGHT = 820.0, 460.0
MARGIN_LEFT, MARGIN_RIGHT = 72.0, 16.0
MARGIN_TOP, MARGIN_BOTTOM = 34.0, 48.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
MAX_POINTS = 1600


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.6g}"


def _downsample(times, values):
    if len(times) <= MAX_POINTS:
        return times, values
    idx = np.linspace(0, len(times) - 1, MAX_POINTS).astype(int)
    return times[idx], values[idx]


def write_line_plot(path, series, vlines, title: str) -> None:
    """Write a chart of distances over time on a log10 axis. series is a list
    of (label, times, values); vlines are x positions drawn as dashed markers
    (switch times)."""
    if not series:
        raise ValueError("nothing to plot")
    prepared = []  # (label, times, log10 values)
    for label, times, values in series:
        times = np.asarray(times, dtype=float)
        values = np.maximum(np.asarray(values, dtype=float), 1e-300)
        times, values = _downsample(times, values)
        prepared.append((label, times, np.log10(values)))

    x_min = min(float(t[0]) for _, t, _ in prepared)
    x_max = max(float(t[-1]) for _, t, _ in prepared)
    y_min = min(float(np.min(v)) for _, _, v in prepared)
    y_max = max(float(np.max(v)) for _, _, v in prepared)
    if y_max - y_min < 1e-12:
        y_min, y_max = y_min - 1.0, y_max + 1.0
    if x_max - x_min < 1e-12:
        x_max = x_min + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # frame
    parts.append(
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#444" stroke-width="1"/>'
    )
    # switch-time markers
    for x in vlines:
        if x_min - 1e-12 <= x <= x_max + 1e-12:
            parts.append(
                f'<line x1="{_fmt(sx(x))}" y1="{_fmt(MARGIN_TOP)}" x2="{_fmt(sx(x))}" '
                f'y2="{_fmt(MARGIN_TOP + plot_h)}" stroke="#bbbbbb" stroke-width="0.6" '
                f'stroke-dasharray="3,4"/>'
            )
    # axis ticks
    for k in range(6):
        x = x_min + k * (x_max - x_min) / 5
        parts.append(
            f'<text x="{_fmt(sx(x))}" y="{_fmt(HEIGHT - MARGIN_BOTTOM + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(x)}</text>'
        )
        y = y_min + k * (y_max - y_min) / 5
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 6)}" y="{_fmt(sy(y) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{y:.1f}</text>'
        )
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="{_fmt(HEIGHT - 10)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">time [s]</text>'
    )
    y_mid = MARGIN_TOP + plot_h / 2
    parts.append(
        f'<text x="16" y="{_fmt(y_mid)}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {_fmt(y_mid)})">distance (log scale)</text>'
    )
    # series
    for k, (label, times, ys) in enumerate(prepared):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(t))},{_fmt(sy(y))}" for t, y in zip(times, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.4"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT + plot_w - 8)}" y="{_fmt(MARGIN_TOP + 16 + 15 * k)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
