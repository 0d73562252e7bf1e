"""Minimal deterministic SVG rendering of runs: planar trajectories and
the disagreement-norm curve. No plotting dependency; output is plain
markup, one polyline per agent plus one target marker per agent."""

from __future__ import annotations

import math

import numpy as np

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)
WIDTH = 640
HEIGHT = 640
MARGIN = 40


def _scaler(points):
    """Map plane coordinates (scalars or arrays) to pixels, framing the (m, 2) points."""
    (x0, y0), (x1, y1) = np.nanmin(points, axis=0).tolist(), np.nanmax(points, axis=0).tolist()
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    scale = min((WIDTH - 2 * MARGIN) / span_x, (HEIGHT - 2 * MARGIN) / span_y)

    def to_px(x, y):
        # SVG y grows downward; flip so the plane reads normally.
        return MARGIN + (x - x0) * scale, HEIGHT - MARGIN - (y - y0) * scale

    return to_px


def _points(px, py) -> str:
    pairs = zip(np.ravel(px).tolist(), np.ravel(py).tolist())
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in pairs)


def trajectory_svg(result, partition) -> str:
    """Planar trajectories of a run: one polyline per agent, a marker per agent.

    Follower markers sit at the final follower targets, leader markers at
    the final leader positions. Only d=2 is drawable.
    """
    states = result.states
    if states.shape[2] != 2:
        raise ValueError("trajectory plots are only available for d=2")
    n = partition.n
    markers = states[-1].copy()
    markers[[i - 1 for i in partition.followers]] = result.targets[-1]

    corners = (np.nanmin(states, axis=(0, 1)), np.nanmax(states, axis=(0, 1)))
    to_px = _scaler(np.vstack((*corners, markers)))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for agent in range(1, n + 1):
        color = PALETTE[(agent - 1) % len(PALETTE)]
        pts = _points(*to_px(states[:, agent - 1, 0], states[:, agent - 1, 1]))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for agent in range(1, n + 1):
        color = PALETTE[(agent - 1) % len(PALETTE)]
        cx, cy = _points(*to_px(markers[agent - 1, 0], markers[agent - 1, 1])).split(",")
        shape = "3,1" if agent in partition.leaders else None
        dash = f' stroke-dasharray="{shape}"' if shape else ""
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="5" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{float(cx) + 8:.2f}" y="{float(cy) - 8:.2f}" font-size="12" '
            f'fill="{color}">{agent}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def delta_svg(result) -> str:
    """Disagreement norm of a run against step index, log10-scaled vertically."""
    floor = 1e-16
    logs = [math.log10(max(delta, floor)) for delta in result.deltas.tolist()]
    lo, hi = min(logs), max(logs)
    if hi == lo:
        hi = lo + 1.0
    k_last = len(logs) - 1
    px = MARGIN + np.arange(len(logs)) / max(k_last, 1) * (WIDTH - 2 * MARGIN)
    py = HEIGHT - MARGIN - (np.array(logs) - lo) / (hi - lo) * (HEIGHT - 2 * MARGIN)
    pts = _points(px, py)
    axis = (
        f'<polyline points="{MARGIN},{MARGIN} {MARGIN},{HEIGHT - MARGIN} '
        f'{WIDTH - MARGIN},{HEIGHT - MARGIN}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    labels = (
        f'<text x="4" y="{MARGIN}" font-size="11" fill="#333">1e{hi:.1f}</text>'
        f'<text x="4" y="{HEIGHT - MARGIN}" font-size="11" fill="#333">1e{lo:.1f}</text>'
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - 12}" font-size="11" fill="#333">k={k_last}</text>'
        f'<text x="{MARGIN}" y="{HEIGHT - 12}" font-size="11" fill="#333">k=0</text>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f"{axis}\n"
        f'<polyline points="{pts}" fill="none" stroke="{PALETTE[0]}" stroke-width="1.5"/>\n'
        f"{labels}\n"
        "</svg>\n"
    )
