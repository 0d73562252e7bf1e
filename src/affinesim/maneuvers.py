"""Step-indexed manoeuvre schedules that drive the leader agents through
the affine maps p -> theta(k) p + b(k) of the reference, in closed form.
theta may be singular: the targets are every affine image, not just rigid motions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .framework import Configuration, LeaderPartition, is_integer, real_array

# The parameter sets each manoeuvre kind accepts.
PARAMS = {
    "translation": ({"v"},),
    "scaling": ({"c"}, {"diag"}),
    "rotation": ({"angle"}, {"angle", "axes"}),
    "shear": ({"factor"}, {"factor", "axes"}),
}
KINDS = tuple(PARAMS)
INTERPS = ("hold", "linear")


def _stacked_transform(kind: str, params: dict, d: int, s: np.ndarray):
    """Interpolated manoeuvre transform at each progress value of s in [0, 1],
    as (m, d, d) theta and (m, d) b arrays; the params are validated here.

    s=0 is the identity, s=1 the full parameter. Rotation interpolates the
    angle, the other kinds interpolate entries linearly. Rotation and shear
    act in a coordinate plane given by params["axes"] (0-based, default
    [0, 1]); shear axes are [target, source]: target += factor * source.
    """
    axis = np.arange(d)
    theta = np.zeros((len(s), d, d))
    theta[:, axis, axis] = 1.0
    b = np.zeros((len(s), d))
    if kind == "translation":
        v = real_array(params["v"], "translation v")
        if v.shape != (d,):
            raise ValueError(f"translation vector must have length {d}")
        b = s[:, None] * v
    elif kind == "scaling":
        if "diag" in params:
            full = real_array(params["diag"], "scaling diag")
            if full.shape != (d,):
                raise ValueError(f"scaling diagonal must have length {d}")
        else:
            full = real_array(params["c"], "scaling c", 0) * np.ones(d)
        theta[:, axis, axis] = 1.0 + s[:, None] * (full - 1.0)
    else:
        # Rotation or shear; ScheduleSegment has refused every other kind.
        axes = params.get("axes", (0, 1))
        if not (isinstance(axes, (list, tuple)) and len(axes) == 2):
            raise ValueError(f"axes must be a pair of coordinate indices, got {axes!r}")
        a0, a1 = axes
        if not (is_integer(a0) and is_integer(a1) and 0 <= a0 < d and 0 <= a1 < d) or a0 == a1:
            raise ValueError(f"axes ({a0!r}, {a1!r}) invalid for dimension {d}")
        if kind == "rotation":
            angle = s * real_array(params["angle"], "rotation angle", 0)
            theta[:, a0, a0] = np.cos(angle)
            theta[:, a1, a1] = np.cos(angle)
            theta[:, a0, a1] = -np.sin(angle)
            theta[:, a1, a0] = np.sin(angle)
        else:
            theta[:, a0, a1] = s * real_array(params["factor"], "shear factor", 0)
    return theta, b


@dataclass(frozen=True)
class ScheduleSegment:
    """One manoeuvre over steps [k0, k1].

    interp "hold" applies the full transform from k0 on; "linear" ramps the
    progress from 0 at k0 to 1 at k1. After k1 the segment stays at full
    progress.
    """

    k0: int
    k1: int
    kind: str
    params: dict = field(default_factory=dict)
    interp: str = "hold"

    def __post_init__(self):
        if not (is_integer(self.k0) and is_integer(self.k1)) or self.k0 < 0 or self.k1 < self.k0:
            raise ValueError(f"need integers 0 <= k0 <= k1, got [{self.k0!r}, {self.k1!r}]")
        if self.kind not in KINDS:
            raise ValueError(f"unknown manoeuvre kind {self.kind!r}")
        if self.interp not in INTERPS:
            raise ValueError(f"unknown interpolation {self.interp!r}")
        if set(self.params) not in PARAMS[self.kind]:
            expected = " or ".join(str(sorted(keys)) for keys in PARAMS[self.kind])
            raise ValueError(f"{self.kind} takes params {expected}, got {sorted(self.params)}")


@dataclass(frozen=True)
class ManoeuvreSchedule:
    """Ordered, non-overlapping manoeuvre segments.

    Segments compose cumulatively: each acts on the formation already
    transformed by the segments before it. Before the first segment the
    transform is the identity (leaders sit at the reference); after the
    last segment the final transform holds.
    """

    segments: tuple = ()

    def __post_init__(self):
        segments = tuple(self.segments)
        for seg in segments:
            if not isinstance(seg, ScheduleSegment):
                raise TypeError("segments must be ScheduleSegment instances")
        for prev, cur in zip(segments, segments[1:]):
            if cur.k0 <= prev.k1:
                raise ValueError(
                    f"segments overlap: [{prev.k0}, {prev.k1}] then [{cur.k0}, {cur.k1}]"
                )
        object.__setattr__(self, "segments", segments)

    def transforms(self, d: int, k: int, count: int):
        """Cumulative transforms p -> theta p + b at steps k, ..., k+count-1 as
        (count, d, d) theta and (count, d) b arrays, in closed form.

        Steps outside every segment hold the composition of the finished
        ones. Each segment the steps reach is stacked once, at the progress
        of its steps in range plus full progress, and composed onto that
        prefix by one batched product; the full-progress row extends it."""
        if k < 0:
            raise ValueError("step index must be nonnegative")
        thetas = np.empty((count, d, d))
        bs = np.empty((count, d))
        theta, b = np.eye(d), np.zeros(d)
        row = 0
        for seg in self.segments:
            if seg.k0 >= k + count:
                break
            start = min(max(seg.k0 - k, row), count)
            thetas[row:start], bs[row:start] = theta, b
            stop = min(max(seg.k1 - k, start), count)
            progress = np.ones(stop - start + 1)
            if seg.interp == "linear":
                progress[:-1] = (np.arange(k + start, k + stop) - seg.k0) / (seg.k1 - seg.k0)
            ramp, shift = _stacked_transform(seg.kind, seg.params, d, progress)
            ramp_thetas, ramp_bs = ramp @ theta, ramp @ b + shift
            thetas[start:stop], bs[start:stop] = ramp_thetas[:-1], ramp_bs[:-1]
            theta, b = ramp_thetas[-1], ramp_bs[-1]
            row = stop
        thetas[row:], bs[row:] = theta, b
        return thetas, bs

    def last_step(self) -> int:
        return self.segments[-1].k1 if self.segments else 0


def leader_waypoints(
    schedule: ManoeuvreSchedule,
    reference: Configuration,
    partition: LeaderPartition,
    k: int,
    count: int,
) -> np.ndarray:
    """Leader positions at steps k, k+1, ..., k+count-1 as one (count, n_l, d) array.

    The engine asks for a whole run at once. Steps past the schedule hold
    the final transform.
    """
    if partition.n != reference.n:
        raise ValueError("partition does not match configuration")
    leaders = reference.positions[partition.rows[: partition.n_leaders]]
    thetas, bs = schedule.transforms(reference.d, k, count)
    return leaders @ thetas.transpose(0, 2, 1) + bs[:, None, :]
