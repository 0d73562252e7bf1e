"""Minimal deterministic SVG rendering of runs: planar trajectories and
the disagreement-norm curve. No plotting dependency; output is plain
markup, one polyline per agent plus one target marker per agent."""

from __future__ import annotations

import math

import numpy as np

from .floattext import fixed2_text

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
GROUP_VERTICES = 2**14


def _finite_range(values):
    """Smallest and largest finite entry of an array, as floats."""
    finite = np.isfinite(values)
    lo = np.min(values, initial=np.inf, where=finite)
    return float(lo), float(np.max(values, initial=-np.inf, where=finite))


def _scaler(points):
    """Map plane coordinates (scalars or arrays) to pixels, framing the
    finite entries of each coordinate of the (m, 2) points."""
    (x0, x1), (y0, y1) = _finite_range(points[:, 0]), _finite_range(points[:, 1])
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    scale = min((WIDTH - 2 * MARGIN) / span_x, (HEIGHT - 2 * MARGIN) / span_y)

    def to_px(x, y):
        # SVG y grows downward; flip so the plane reads normally.
        return MARGIN + (x - x0) * scale, HEIGHT - MARGIN - (y - y0) * scale

    return to_px


def _points(px, py) -> list:
    """SVG points of polylines at pixel resolution: px and py hold one line
    per column, and one string is returned per line.

    A vertex is kept when its rounded pixel differs from the previous
    vertex's; the first and last are always kept, and a nan vertex never
    equals its neighbour. Every dropped vertex shares a 1x1 px cell with
    the last kept vertex before it, so the path moves by at most sqrt(2) px.
    The kept vertices of all lines are written as f"{x:.2f},{y:.2f}",
    space-separated, in one floattext.fixed2_text pass.
    """
    keep = np.ones(px.shape, dtype=bool)
    rx, ry = np.rint(px), np.rint(py)
    keep[1:-1] = (rx[1:-1] != rx[:-2]) | (ry[1:-1] != ry[:-2])
    # Line by line: the kept vertices as x, y pairs, the last pair of each
    # line ending in a newline, which splits the text into lines.
    keep = keep.T
    pairs = np.stack((px.T[keep], py.T[keep]), axis=1)
    separators = np.full(pairs.shape, [ord(","), ord(" ")], dtype=np.uint8)
    separators[np.cumsum(keep.sum(axis=1)) - 1, 1] = ord("\n")
    return fixed2_text(pairs, separators).split("\n")[:-1]


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
    markers[[i - 1 for i in partition.followers]] = result.final_targets

    # Framed by the finite values, so an overflowed run still draws its finite rows.
    ranges = [_finite_range(states[..., c]) for c in (0, 1)]
    to_px = _scaler(np.vstack((np.transpose(ranges), markers)))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # Drawn in groups of agents of at most GROUP_VERTICES vertices, so that
    # the arrays made for one group stay small.
    group = max(1, GROUP_VERTICES // len(states))
    lines = []
    for first in range(0, n, group):
        agents = states[:, first : first + group]
        lines += _points(*to_px(agents[..., 0], agents[..., 1]))
    for agent, pts in enumerate(lines, start=1):
        color = PALETTE[(agent - 1) % len(PALETTE)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    # Each marker is a one-vertex line.
    centres = _points(*to_px(markers[None, :, 0], markers[None, :, 1]))
    for agent, centre in enumerate(centres, start=1):
        color = PALETTE[(agent - 1) % len(PALETTE)]
        cx, cy = centre.split(",")
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
    logs = np.array([math.log10(max(delta, floor)) for delta in result.deltas.tolist()])
    lo, hi = _finite_range(logs)
    if hi == lo:
        hi = lo + 1.0
    k_last = len(logs) - 1
    px = MARGIN + np.arange(len(logs)) / max(k_last, 1) * (WIDTH - 2 * MARGIN)
    py = HEIGHT - MARGIN - (logs - lo) / (hi - lo) * (HEIGHT - 2 * MARGIN)
    (pts,) = _points(px[:, None], py[:, None])
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
