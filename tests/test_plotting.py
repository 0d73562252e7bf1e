import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from affinesim import ManoeuvreSchedule, ScenarioSpec, ScheduleSegment, plotting, run_scenario
from affinesim.floattext import fixed2_text
from affinesim.plotting import _scaler, delta_svg, trajectory_svg

from conftest import EXACT_WEIGHTS, FOLLOWER_START
from oracles import per_vertex_points

SVG = "{http://www.w3.org/2000/svg}"


def run(framework, partition, **overrides):
    base = dict(
        framework=framework,
        partition=partition,
        law="dynamic",
        T=0.5,
        initial_followers=FOLLOWER_START,
        weights=EXACT_WEIGHTS,
        budget=2000,
    )
    base.update(overrides)
    return run_scenario(ScenarioSpec(**base))


def parse(svg: str):
    root = ET.fromstring(svg)
    polylines = [
        [tuple(pair.split(",")) for pair in line.get("points").split()]
        for line in root.iter(f"{SVG}polyline")
    ]
    return root, polylines


def full_resolution(result, partition):
    """Every vertex of each agent's polyline, in pixels, framed as trajectory_svg frames them."""
    states = result.states
    markers = states[-1].copy()
    leaders = [i - 1 for i in partition.leaders]
    markers[[i - 1 for i in partition.followers]] = result.run.G @ states[-1, leaders]
    corners = (np.nanmin(states, axis=(0, 1)), np.nanmax(states, axis=(0, 1)))
    to_px = _scaler(np.vstack((*corners, markers)))
    return [to_px(states[:, i, 0], states[:, i, 1]) for i in range(partition.n)]


def kept_indices(px, py):
    """The decimation rule as a loop: a vertex is kept when its rounded
    pixel differs from the previous vertex's, and the ends are kept."""
    last = len(px) - 1
    cell = [(round(x), round(y)) if math.isfinite(x) and math.isfinite(y) else None
            for x, y in zip(px.tolist(), py.tolist())]
    return [
        i for i in range(last + 1)
        if i in (0, last) or cell[i] is None or cell[i] != cell[i - 1]
    ]


def test_trajectory_is_drawn_at_pixel_resolution(framework, partition):
    seg = ScheduleSegment(k0=0, k1=600, kind="rotation", params={"angle": 2.0}, interp="linear")
    result = run(framework, partition, schedule=ManoeuvreSchedule((seg,)))
    assert result.steps > 600
    root, polylines = parse(trajectory_svg(result, partition))
    assert len(polylines) == len(list(root.iter(f"{SVG}circle"))) == 5
    dropped = 0
    for points, (px, py) in zip(polylines, full_resolution(result, partition)):
        keep = kept_indices(px, py)
        assert points == [(f"{px[i]:.2f}", f"{py[i]:.2f}") for i in keep]
        assert keep[0] == 0 and keep[-1] == len(px) - 1
        # Each vertex shares the pixel cell of the last kept vertex at or before it.
        last_kept = np.array(keep)[np.searchsorted(keep, np.arange(len(px)), side="right") - 1]
        np.testing.assert_array_equal(np.rint(px), np.rint(px[last_kept]))
        np.testing.assert_array_equal(np.rint(py), np.rint(py[last_kept]))
        assert np.hypot(px - px[last_kept], py - py[last_kept]).max() <= math.sqrt(2)
        dropped += len(px) - len(keep)
    assert dropped > 0
    # The delta curve steps 560 / K < 1 px to the right per row.
    _, polylines = parse(delta_svg(result))
    curve = polylines[-1]
    assert 1 < len(curve) < len(result.deltas)
    assert curve[0][0] == "40.00" and curve[-1][0] == "600.00"


def rendered(result, partition, monkeypatch):
    """trajectory_svg and delta_svg of a run, checked byte for byte against
    the same plots with every vertex written one at a time."""
    svgs = trajectory_svg(result, partition), delta_svg(result)
    with monkeypatch.context() as patch:
        patch.setattr(plotting, "_points", per_vertex_points)
        assert (trajectory_svg(result, partition), delta_svg(result)) == svgs
    return svgs


@pytest.mark.parametrize("T, finite", [(1.4, True), (1e308, False)], ids=["past the limit", "overflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_diverged_run_renders(framework, partition, T, finite, monkeypatch):
    result = run(framework, partition, law="stationary", T=T, budget=500)
    assert result.diverged
    assert np.isfinite(result.states).all() == finite
    trajectories, deltas = rendered(result, partition, monkeypatch)
    root, polylines = parse(trajectories)
    assert len(polylines) == len(list(root.iter(f"{SVG}circle"))) == 5
    for agent, points in enumerate(polylines):
        assert 1 < len(points) <= len(result.states)
        if not finite:
            # Two rows, both kept: a row is drawn at finite pixels iff its state is finite.
            drawn = [math.isfinite(float(x)) and math.isfinite(float(y)) for x, y in points]
            assert drawn == np.isfinite(result.states[:, agent]).all(axis=1).tolist()
    root, polylines = parse(deltas)
    assert 1 < len(polylines[-1]) <= len(result.deltas)
    labels = [text.text for text in root.iter(f"{SVG}text") if text.text.startswith("1e")]
    assert len(labels) == 2 and all(math.isfinite(float(label[2:])) for label in labels)


@pytest.mark.parametrize("rows", [1, 2])
def test_short_run_renders(framework, partition, rows, monkeypatch):
    result = run(framework, partition)
    leaders = [i - 1 for i in partition.leaders]
    result = dataclasses.replace(
        result, states=result.states[:rows], deltas=result.deltas[:rows],
        final_targets=result.run.G @ result.states[rows - 1, leaders],
    )
    trajectories, deltas = rendered(result, partition, monkeypatch)
    root, polylines = parse(trajectories)
    assert [len(points) for points in polylines] == [rows] * 5
    assert len(list(root.iter(f"{SVG}circle"))) == 5
    _, delta_lines = parse(deltas)
    assert len(delta_lines[-1]) == rows


def formatted(values):
    """fixed2_text of values, one per line."""
    values = np.asarray(values, dtype=np.float64)
    return fixed2_text(values, np.full(values.shape, ord("\n"), np.uint8)).split("\n")[:-1]


def test_fixed2_text_matches_format_at_each_switch():
    # Exact ties (k/8: x * 100 ends in .5), near-ties (the doubles nearest
    # k/200) with their neighbours, both ends of the range, values whose
    # text has one to seven digits before the point, and values left to
    # format(): nan, the infinities, 1e6 and beyond.
    k = np.arange(-4000, 4001)
    near = np.concatenate((k / 200, 999999.0 + k[k > 0] / 200))
    values = np.concatenate((
        k / 8, near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
        [0.0, -0.0, 5e-324, -5e-324, 0.004999999999999999, 0.005, -0.005, 0.015, 0.025, 999999.995,
         np.nextafter(1e6, 0), 1e6, -1e6, 1e300, -1e300, np.nan, -np.nan, np.inf, -np.inf],
        [sign * (10.0**e + 0.126) for e in range(7) for sign in (1, -1)],
    ))
    assert formatted(values) == [format(v, ".2f") for v in values.tolist()]
    assert formatted([-0.0, -0.004, 0.125, 0.375, -0.125]) == ["-0.00", "-0.00", "0.12", "0.38", "-0.12"]


def test_fixed2_text_matches_format_on_any_float():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    arrays = pytest.importorskip("hypothesis.extra.numpy").arrays
    # Pixel-sized values, their ties and near-ties, and floats of any size, mixed.
    pixels = st.floats(-2e6, 2e6)
    ties = st.builds(lambda m, e: m / 2.0**e, st.integers(-(10**8), 10**8), st.integers(0, 12))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(arrays(np.float64, st.integers(0, 100), elements=st.one_of(st.floats(), pixels, ties)),
                      st.sampled_from(" ,;\n"))
    def check(array, separator):
        expected = "".join(format(v, ".2f") + separator for v in array.tolist())
        assert fixed2_text(array, np.full(array.shape, ord(separator), np.uint8)) == expected

    check()
