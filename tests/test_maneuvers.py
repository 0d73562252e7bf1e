import numpy as np
import pytest

from affinesim import (
    Configuration,
    LeaderPartition,
    ManoeuvreSchedule,
    ScheduleSegment,
    leader_waypoints,
)

from oracles import equilibrium_residual, per_step_transform


def transform(kind, params, k=0, k1=0, interp="hold", d=2):
    """(theta, b) at step k of the one-segment schedule [0, k1]."""
    schedule = ManoeuvreSchedule((ScheduleSegment(0, k1, kind, params, interp),))
    theta, b = schedule.transforms(d, k, 1)
    return theta[0], b[0]


def image(theta, b, positions):
    return np.asarray(positions) @ theta.T + b


def test_identity_leaves_reference_unchanged(reference):
    theta, b = ManoeuvreSchedule().transforms(2, 0, 1)
    assert np.array_equal(image(theta[0], b[0], reference.positions), reference.positions)


def test_translation_shifts_everything(reference):
    out = image(*transform("translation", {"v": [5.0, 5.0]}), reference.positions)
    np.testing.assert_allclose(out, reference.positions + [5.0, 5.0])


def test_half_scaling(reference):
    out = image(*transform("scaling", {"c": 0.5}), reference.positions)
    expected = [(0.5, 0), (0, 0.5), (0, -0.5), (-0.5, 0), (-1, 0)]
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_quarter_turn():
    theta, b = transform("rotation", {"angle": np.pi / 2})
    np.testing.assert_allclose(theta, [[0, -1], [1, 0]], atol=1e-12)
    np.testing.assert_allclose(b, [0, 0])


def test_interpolation():
    # A linear translation over [0, 4] read at k=2 is half way.
    theta, b = transform("translation", {"v": [2.0, 0.0]}, k=2, k1=4, interp="linear")
    np.testing.assert_allclose(theta, np.eye(2))
    np.testing.assert_allclose(b, [1.0, 0.0])

    theta, _ = transform("scaling", {"c": 2.0})
    np.testing.assert_allclose(theta, 2 * np.eye(2))
    quarter, _ = transform("scaling", {"c": 2.0}, k=1, k1=4, interp="linear")
    np.testing.assert_allclose(quarter, 1.25 * np.eye(2))

    diag, _ = transform("scaling", {"diag": [2.0, 0.5]})
    np.testing.assert_allclose(diag, [[2, 0], [0, 0.5]])

    shear, _ = transform("shear", {"factor": 0.8, "axes": [1, 0]}, k=1, k1=2, interp="linear")
    np.testing.assert_allclose(shear, [[1, 0], [0.4, 1]])


def test_transform_validation():
    with pytest.raises(ValueError):
        transform("translation", {"v": [np.nan, 0.0]})


def test_transform_errors():
    with pytest.raises(ValueError):
        transform("twist", {})
    with pytest.raises(ValueError, match="invalid for dimension 2"):
        transform("rotation", {"angle": 1.0, "axes": [0, 2]})
    with pytest.raises(ValueError, match="invalid for dimension 3"):
        transform("shear", {"factor": 1.0, "axes": [1, 1]}, d=3)
    with pytest.raises(ValueError, match="must have length 2"):
        transform("translation", {"v": [1.0]})


def test_transforms_refuse_negative_steps():
    with pytest.raises(ValueError, match="step index must be nonnegative"):
        ManoeuvreSchedule().transforms(2, -1, 3)


def test_composition_matches_sequential_application(reference):
    # Segments compose: each acts on the image of the ones before it.
    rng = np.random.default_rng(11)
    for _ in range(25):
        first = ScheduleSegment(0, 0, "scaling", {"diag": rng.normal(size=2).tolist()})
        second = ScheduleSegment(1, 1, "rotation", {"angle": float(rng.normal())})
        shift = ScheduleSegment(2, 2, "translation", {"v": rng.normal(size=2).tolist()})
        sequential = reference.positions
        for seg in (first, second, shift):
            theta, b = ManoeuvreSchedule((seg,)).transforms(2, seg.k0, 1)
            sequential = image(theta[0], b[0], sequential)
        theta, b = ManoeuvreSchedule((first, second, shift)).transforms(2, 2, 1)
        np.testing.assert_allclose(image(theta[0], b[0], reference.positions), sequential, atol=1e-12)


def test_segment_validation():
    v = {"v": [1, 0]}
    with pytest.raises(ValueError):
        ScheduleSegment(k0=5, k1=4, kind="translation", params=v)
    with pytest.raises(ValueError):
        ScheduleSegment(k0=-1, k1=4, kind="translation", params=v)
    with pytest.raises(ValueError):
        ScheduleSegment(k0=0, k1=1, kind="wobble", params=v)
    with pytest.raises(ValueError):
        ScheduleSegment(k0=0, k1=1, kind="translation", params=v, interp="cubic")
    for k0, k1 in ((0.7, 4), (0, 4.0), (True, 4), (0, "4")):
        with pytest.raises(ValueError, match="need integers"):
            ScheduleSegment(k0=k0, k1=k1, kind="translation", params=v)
    ScheduleSegment(k0=np.int64(0), k1=np.int64(4), kind="translation", params=v)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("translation", {}),
        ("translation", {"v": [1, 0], "angle": 1.0}),
        ("scaling", {}),
        ("scaling", {"c": 2.0, "diag": [2.0, 1.0]}),
        ("rotation", {"axes": [0, 1]}),
        ("rotation", {"angle": 1.0, "factor": 0.5}),
        ("shear", {"factor": 0.5, "axis": [0, 1]}),
    ],
)
def test_segment_refuses_missing_and_unknown_params(kind, params):
    with pytest.raises(ValueError, match=f"{kind} takes params"):
        ScheduleSegment(k0=0, k1=1, kind=kind, params=params)


def test_schedule_rejects_overlap():
    a = ScheduleSegment(k0=0, k1=10, kind="translation", params={"v": [1, 0]})
    b = ScheduleSegment(k0=10, k1=20, kind="scaling", params={"c": 2})
    with pytest.raises(ValueError):
        ManoeuvreSchedule((a, b))
    ManoeuvreSchedule((a, ScheduleSegment(k0=11, k1=20, kind="scaling", params={"c": 2})))


def test_segment_progress():
    # The progress of a translation segment reads off b.
    def progress(seg, k):
        return ManoeuvreSchedule((seg,)).transforms(2, k, 1)[1][0, 0] / seg.params["v"][0]

    hold = ScheduleSegment(k0=10, k1=10, kind="translation", params={"v": [1, 0]})
    assert progress(hold, 9) == 0.0
    assert progress(hold, 10) == 1.0
    assert progress(hold, 99) == 1.0
    ramp = ScheduleSegment(k0=0, k1=100, kind="translation", params={"v": [2, 0]}, interp="linear")
    assert progress(ramp, 0) == 0.0
    assert progress(ramp, 50) == 0.5
    assert progress(ramp, 100) == 1.0
    assert progress(ramp, 101) == 1.0


def test_waypoints_empty_schedule(reference, partition):
    schedule = ManoeuvreSchedule()
    for k in (0, 7, 123):
        now, nxt = leader_waypoints(schedule, reference, partition, k, 2)
        np.testing.assert_array_equal(now, reference.positions[:3])
        np.testing.assert_array_equal(nxt, reference.positions[:3])


def test_waypoints_hold_boundary(reference, partition):
    seg = ScheduleSegment(k0=10, k1=10, kind="translation", params={"v": [1.0, 0.0]})
    schedule = ManoeuvreSchedule((seg,))
    now, nxt = leader_waypoints(schedule, reference, partition, 9, 2)
    np.testing.assert_array_equal(now, reference.positions[:3])
    np.testing.assert_allclose(nxt, reference.positions[:3] + np.array([1.0, 0.0]))


def test_waypoints_linear_midpoint(reference, partition):
    seg = ScheduleSegment(
        k0=0, k1=100, kind="translation", params={"v": [2.0, 0.0]}, interp="linear"
    )
    schedule = ManoeuvreSchedule((seg,))
    now, _ = leader_waypoints(schedule, reference, partition, 50, 2)
    np.testing.assert_allclose(now, reference.positions[:3] + np.array([1.0, 0.0]))
    # Hold-last beyond the end of the schedule.
    late, later = leader_waypoints(schedule, reference, partition, 500, 2)
    np.testing.assert_allclose(late, reference.positions[:3] + np.array([2.0, 0.0]))
    np.testing.assert_array_equal(late, later)


def test_schedule_segments_compose_cumulatively(reference):
    schedule = ManoeuvreSchedule(
        (
            ScheduleSegment(k0=0, k1=0, kind="translation", params={"v": [1.0, 0.0]}),
            ScheduleSegment(k0=5, k1=5, kind="rotation", params={"angle": np.pi / 2}),
        )
    )
    theta, b = schedule.transforms(2, 10, 1)
    # The quarter turn acts on the shifted formation: theta = R, b = R @ (1, 0).
    np.testing.assert_allclose(theta[0], [[0, -1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(b[0], [0, 1], atol=1e-15)


def test_affine_images_stay_in_equilibrium(exact_stress, reference):
    # Any affine image of the reference annihilates the stress.
    rng = np.random.default_rng(2)
    for _ in range(50):
        positions = image(rng.normal(size=(2, 2)), rng.normal(size=2), reference.positions)
        assert equilibrium_residual(exact_stress, Configuration(positions)) <= 1e-6


def test_waypoints_match_per_step_transforms():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.floats(-3.0, 3.0, allow_nan=False)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        d = data.draw(st.sampled_from((2, 3)), label="d")
        segments, k0 = [], data.draw(st.integers(0, 5))
        for _ in range(data.draw(st.integers(0, 4), label="segments")):
            kind = data.draw(st.sampled_from(("translation", "scaling", "rotation", "shear")))
            axes = data.draw(st.permutations(range(d)))[:2]
            params = {
                "translation": {"v": data.draw(st.lists(value, min_size=d, max_size=d))},
                "scaling": data.draw(
                    st.sampled_from(({"c": 1.5}, {"diag": [0.5, 2.0, 1.25][:d]}, {"c": 0.25}))
                ),
                "rotation": {"angle": data.draw(value), "axes": axes},
                "shear": {"factor": data.draw(value), "axes": axes},
            }[kind]
            k1 = k0 + data.draw(st.integers(0, 25))
            interp = data.draw(st.sampled_from(("hold", "linear")))
            segments.append(ScheduleSegment(k0, k1, kind, params, interp))
            k0 = k1 + data.draw(st.integers(1, 6))
        schedule = ManoeuvreSchedule(tuple(segments))
        n = data.draw(st.integers(d + 1, d + 4), label="n")
        positions = data.draw(st.lists(value, min_size=n * d, max_size=n * d))
        reference = Configuration(np.reshape(positions, (n, d)))
        leaders = data.draw(st.permutations(range(1, n + 1)))[: d + 1]
        partition = LeaderPartition.from_leaders(leaders, n)
        k = data.draw(st.integers(0, schedule.last_step() + 8), label="k")
        count = data.draw(st.integers(1, 40), label="count")
        rows = [i - 1 for i in partition.leaders]
        waypoints = leader_waypoints(schedule, reference, partition, k, count)
        assert waypoints.shape == (count, d + 1, d)
        for r, got in enumerate(waypoints):
            theta, b = (a[0] for a in schedule.transforms(d, k + r, 1))
            expected_theta, expected_b = per_step_transform(schedule, d, k + r)
            assert np.array_equal(theta, expected_theta)
            assert np.array_equal(b, expected_b)
            assert np.array_equal(got, image(theta, b, reference.positions)[rows])

    check()
