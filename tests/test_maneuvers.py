import numpy as np
import pytest

from affinesim import (
    AffineTransform,
    Configuration,
    LeaderPartition,
    ManoeuvreSchedule,
    ScheduleSegment,
    apply_affine,
    leader_waypoints,
    make_transform,
    verify_equilibrium,
)


def test_identity_leaves_reference_unchanged(reference):
    out = apply_affine(AffineTransform.identity(2), reference)
    assert np.array_equal(out.positions, reference.positions)


def test_translation_shifts_everything(reference):
    out = apply_affine(AffineTransform(np.eye(2), [5.0, 5.0]), reference)
    np.testing.assert_allclose(out.positions, reference.positions + [5.0, 5.0])


def test_half_scaling(reference):
    out = apply_affine(AffineTransform(0.5 * np.eye(2), [0.0, 0.0]), reference)
    expected = [(0.5, 0), (0, 0.5), (0, -0.5), (-0.5, 0), (-1, 0)]
    np.testing.assert_allclose(out.positions, expected, atol=1e-15)


def test_transform_validation():
    with pytest.raises(ValueError):
        AffineTransform(np.ones((2, 3)), [0.0, 0.0])
    with pytest.raises(ValueError):
        AffineTransform(np.eye(2), [0.0])
    with pytest.raises(ValueError):
        AffineTransform(np.eye(2) * np.nan, [0.0, 0.0])
    with pytest.raises(ValueError):
        apply_affine(AffineTransform.identity(3), Configuration([(0, 0), (1, 1)]))


def test_make_transform_quarter_turn():
    t = make_transform("rotation", {"angle": np.pi / 2}, 2, 1.0)
    np.testing.assert_allclose(t.theta, [[0, -1], [1, 0]], atol=1e-12)
    np.testing.assert_allclose(t.b, [0, 0])


def test_make_transform_interpolation():
    t = make_transform("translation", {"v": [2.0, 0.0]}, 2, 0.5)
    np.testing.assert_allclose(t.theta, np.eye(2))
    np.testing.assert_allclose(t.b, [1.0, 0.0])

    s = make_transform("scaling", {"c": 2.0}, 2, 1.0)
    np.testing.assert_allclose(s.theta, 2 * np.eye(2))
    quarter = make_transform("scaling", {"c": 2.0}, 2, 0.25)
    np.testing.assert_allclose(quarter.theta, 1.25 * np.eye(2))

    diag = make_transform("scaling", {"diag": [2.0, 0.5]}, 2, 1.0)
    np.testing.assert_allclose(diag.theta, [[2, 0], [0, 0.5]])

    sh = make_transform("shear", {"factor": 0.8, "axes": [1, 0]}, 2, 0.5)
    np.testing.assert_allclose(sh.theta, [[1, 0], [0.4, 1]])


def test_make_transform_errors():
    with pytest.raises(ValueError):
        make_transform("twist", {}, 2, 1.0)
    with pytest.raises(ValueError):
        make_transform("rotation", {"angle": 1.0, "axes": [0, 2]}, 2, 1.0)
    with pytest.raises(ValueError):
        make_transform("shear", {"factor": 1.0, "axes": [1, 1]}, 3, 1.0)
    with pytest.raises(ValueError):
        make_transform("translation", {"v": [1.0, 0.0]}, 2, 1.5)
    with pytest.raises(ValueError):
        make_transform("translation", {"v": [1.0]}, 2, 1.0)


def test_composition_matches_sequential_application(reference):
    rng = np.random.default_rng(11)
    for _ in range(25):
        t1 = AffineTransform(rng.normal(size=(2, 2)), rng.normal(size=2))
        t2 = AffineTransform(rng.normal(size=(2, 2)), rng.normal(size=2))
        sequential = apply_affine(t2, apply_affine(t1, reference))
        composed = apply_affine(t2.compose(t1), reference)
        np.testing.assert_allclose(composed.positions, sequential.positions, atol=1e-12)


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
    hold = ScheduleSegment(k0=10, k1=10, kind="translation", params={"v": [1, 0]})
    assert hold.progress(9) == 0.0
    assert hold.progress(10) == 1.0
    assert hold.progress(99) == 1.0
    ramp = ScheduleSegment(k0=0, k1=100, kind="translation", params={"v": [2, 0]}, interp="linear")
    assert ramp.progress(0) == 0.0
    assert ramp.progress(50) == 0.5
    assert ramp.progress(100) == 1.0
    assert ramp.progress(101) == 1.0


def test_waypoints_empty_schedule(reference, partition):
    schedule = ManoeuvreSchedule()
    for k in (0, 7, 123):
        now, nxt = leader_waypoints(schedule, reference, partition, k)
        np.testing.assert_array_equal(now, reference.positions[:3])
        np.testing.assert_array_equal(nxt, reference.positions[:3])


def test_waypoints_hold_boundary(reference, partition):
    seg = ScheduleSegment(k0=10, k1=10, kind="translation", params={"v": [1.0, 0.0]})
    schedule = ManoeuvreSchedule((seg,))
    now, nxt = leader_waypoints(schedule, reference, partition, 9)
    np.testing.assert_array_equal(now, reference.positions[:3])
    np.testing.assert_allclose(nxt, reference.positions[:3] + np.array([1.0, 0.0]))


def test_waypoints_linear_midpoint(reference, partition):
    seg = ScheduleSegment(
        k0=0, k1=100, kind="translation", params={"v": [2.0, 0.0]}, interp="linear"
    )
    schedule = ManoeuvreSchedule((seg,))
    now, _ = leader_waypoints(schedule, reference, partition, 50)
    np.testing.assert_allclose(now, reference.positions[:3] + np.array([1.0, 0.0]))
    # Hold-last beyond the end of the schedule.
    late, later = leader_waypoints(schedule, reference, partition, 500)
    np.testing.assert_allclose(late, reference.positions[:3] + np.array([2.0, 0.0]))
    np.testing.assert_array_equal(late, later)


def test_schedule_segments_compose_cumulatively(reference):
    schedule = ManoeuvreSchedule(
        (
            ScheduleSegment(k0=0, k1=0, kind="translation", params={"v": [1.0, 0.0]}),
            ScheduleSegment(k0=5, k1=5, kind="rotation", params={"angle": np.pi / 2}),
        )
    )
    total = schedule.transform_at(2, 10)
    rot = make_transform("rotation", {"angle": np.pi / 2}, 2, 1.0)
    shift = make_transform("translation", {"v": [1.0, 0.0]}, 2, 1.0)
    expected = rot.compose(shift)
    np.testing.assert_allclose(total.theta, expected.theta, atol=1e-15)
    np.testing.assert_allclose(total.b, expected.b, atol=1e-15)


def test_affine_images_stay_in_equilibrium(exact_stress, reference):
    # Any affine image of the reference annihilates the stress.
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = AffineTransform(rng.normal(size=(2, 2)), rng.normal(size=2))
        image = apply_affine(t, reference)
        assert verify_equilibrium(exact_stress, image) <= 1e-6


def per_step_transform(schedule, d, k):
    """The per-step composition loop the closed-form evaluator replaced."""
    done = AffineTransform.identity(d)
    for seg in schedule.segments:
        if seg.k1 <= k:
            done = make_transform(seg.kind, seg.params, d, 1.0).compose(done)
        elif seg.k0 <= k:
            return make_transform(seg.kind, seg.params, d, seg.progress(k)).compose(done)
    return done


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
            transform = schedule.transform_at(d, k + r)
            expected = per_step_transform(schedule, d, k + r)
            assert np.array_equal(transform.theta, expected.theta)
            assert np.array_equal(transform.b, expected.b)
            assert np.array_equal(got, apply_affine(transform, reference).positions[rows])

    check()
