import numpy as np
import pytest

from affinesim import (
    CertificateError,
    Configuration,
    Framework,
    Graph,
    LeaderPartition,
    LinearPlant,
    ManoeuvreSchedule,
    LocalizabilityError,
    ScenarioSpec,
    ScheduleSegment,
    assemble_stress,
    compile_run,
    dynamic_leader_step,
    follower_targets,
    leader_waypoints,
    linear_step,
    partition_stress,
    run_batch,
    run_scenario,
    solve_mare,
    spectral_radius,
    stability_flags,
    stationary_leader_step,
)
from affinesim.engine import CONVERGENCE_WINDOW
from affinesim.fileio import ParseError, weights_from_dict

from conftest import EXACT_WEIGHTS, FOLLOWER_START, FOLLOWER_TARGETS, MU_MIN
from oracles import compare_forms, equilibrium_residual, per_step_run


def scenario(framework, partition, **overrides):
    base = dict(
        framework=framework,
        partition=partition,
        law="stationary",
        T=1.0,
        initial_followers=FOLLOWER_START,
        weights=EXACT_WEIGHTS,
        budget=2000,
        tolerance=1e-9,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_spec_validation(framework, partition):
    with pytest.raises(ValueError):
        scenario(framework, partition, law="magic")
    with pytest.raises(ValueError):
        scenario(framework, partition, budget=0)
    with pytest.raises(ValueError):
        scenario(framework, partition, tolerance=0.0)
    with pytest.raises(ValueError):
        scenario(framework, partition, initial_followers=[(1.0, 2.0)])
    with pytest.raises(ValueError):
        scenario(framework, partition, T=-1.0)
    with pytest.raises(ValueError):
        scenario(framework, partition, law="linear")  # no plant


def test_weights_name_an_edge_twice_only_with_equal_values(framework, partition, graph):
    weights = dict(EXACT_WEIGHTS)
    weights[(2, 1)] = weights[(1, 2)] + 1.0
    with pytest.raises(ValueError, match=r"conflicting weights for edge \(1, 2\)"):
        scenario(framework, partition, weights=weights)
    with pytest.raises(ValueError, match=r"conflicting weights for edge \(1, 2\)"):
        assemble_stress(graph, weights)
    with pytest.raises(ParseError, match=r"conflicting weights for edge \(1, 2\)"):
        weights_from_dict({"edges": [[1, 2, 0.5], [2, 1, 1.5]]})

    weights[(2, 1)] = weights[(1, 2)]
    spec = scenario(framework, partition, weights=weights)
    assert spec.weights == EXACT_WEIGHTS
    both = assemble_stress(graph, weights).entries
    assert np.array_equal(both, assemble_stress(graph, EXACT_WEIGHTS).entries)
    assert weights_from_dict({"edges": [[1, 2, 0.5], [2, 1, 0.5]]}) == {(1, 2): 0.5}


def test_run_refused_without_certificate(framework, partition):
    negated = {e: -w for e, w in EXACT_WEIGHTS.items()}
    with pytest.raises(CertificateError) as err:
        run_scenario(scenario(framework, partition, weights=negated))
    assert not err.value.certificate.psd


def test_benchmark_run_converges(framework, partition):
    result = run_scenario(scenario(framework, partition))
    assert result.converged_at is not None
    assert not result.diverged and not result.budget_exhausted
    final = result.final_positions()
    np.testing.assert_allclose(final[3], FOLLOWER_TARGETS[0], atol=1e-6)
    np.testing.assert_allclose(final[4], FOLLOWER_TARGETS[1], atol=1e-6)
    assert result.stability_flags["stable"] is True
    assert result.stability_flags["T_mu_min"] == pytest.approx(MU_MIN, abs=1e-12)


def test_start_at_targets_converges_immediately(framework, partition):
    result = run_scenario(scenario(framework, partition, initial_followers=FOLLOWER_TARGETS))
    assert result.converged_at == 0
    assert result.final_delta <= 1e-9


def test_budget_exhaustion(framework, partition):
    result = run_scenario(scenario(framework, partition, budget=1))
    assert result.budget_exhausted and result.converged_at is None
    assert result.steps == 1


def test_divergence_flagged(framework, partition):
    result = run_scenario(scenario(framework, partition, T=1.4, budget=500))
    assert result.diverged
    assert result.diverged_flags[-1]
    assert result.steps <= 500
    assert result.stability_flags["stable"] is False
    assert result.stability_flags["spectral_radius"] > 1.0


def test_trace_records_are_recomputable(framework, partition):
    result = run_scenario(scenario(framework, partition, budget=50))
    for x, target, delta in zip(result.states, result.targets, result.deltas):
        x_f = x[[3, 4]].ravel()
        assert abs(np.linalg.norm(x_f - target.ravel()) - delta) <= 1e-12


def test_targets_form_equilibrium_configuration(framework, partition):
    seg = ScheduleSegment(k0=5, k1=40, kind="rotation", params={"angle": 1.0}, interp="linear")
    spec = scenario(framework, partition, schedule=ManoeuvreSchedule((seg,)), budget=60)
    result = run_scenario(spec)
    for x, target in zip(result.states, result.targets):
        full_target = np.vstack([x[[0, 1, 2]], target])
        assert equilibrium_residual(result.stress, Configuration(full_target)) <= 1e-6


def test_determinism_bitwise(framework, partition):
    a = run_scenario(scenario(framework, partition))
    b = run_scenario(scenario(framework, partition))
    assert len(a.deltas) == len(b.deltas)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.deltas, b.deltas)


def test_two_phase_reconvergence(framework, partition, blocks):
    # Converge to the reference, then leaders jump to a scaled image.
    seg = ScheduleSegment(k0=800, k1=800, kind="scaling", params={"c": 0.5})
    spec = scenario(framework, partition, schedule=ManoeuvreSchedule((seg,)), budget=3000,
                    tolerance=1e-8)
    result = run_scenario(spec)
    assert result.converged_at is not None and result.converged_at >= 800
    final = result.final_positions()
    leaders_final = final[[0, 1, 2]].ravel()
    expected = follower_targets(blocks, leaders_final).reshape(2, 2)
    np.testing.assert_allclose(final[[3, 4]], expected, atol=1e-6)
    np.testing.assert_allclose(expected, 0.5 * np.asarray(FOLLOWER_TARGETS), atol=1e-12)


def test_monotone_envelope(framework, partition, blocks):
    # Symmetric propagator: delta norm is bounded by rho^k * delta0.
    spec = scenario(framework, partition, budget=300, tolerance=1e-12)
    result = run_scenario(spec)
    eigvals, eigvecs = np.linalg.eigh(np.eye(2) - 1.0 * blocks.ff)
    rho = float(np.abs(eigvals).max())
    kappa = np.linalg.cond(eigvecs)
    assert kappa == pytest.approx(1.0, abs=1e-12)
    delta0 = result.deltas[0]
    for k, delta in enumerate(result.deltas):
        assert delta <= rho**k * delta0 * kappa * (1.0 + 1e-9)


def test_dynamic_law_tracks_moving_leaders(framework, partition):
    seg = ScheduleSegment(
        k0=0, k1=30, kind="translation", params={"v": [3.0, 1.0]}, interp="linear"
    )
    spec = scenario(
        framework,
        partition,
        law="dynamic",
        T=0.5,
        schedule=ManoeuvreSchedule((seg,)),
        budget=200,
    )
    result = run_scenario(spec)
    deltas = result.deltas
    for k in range(12):
        assert deltas[k + 1] / deltas[k] == pytest.approx(0.5, abs=1e-9)
    assert result.converged_at is not None


def test_linear_law_runs(framework, partition):
    plant = LinearPlant(np.eye(2), np.eye(2))
    spec = scenario(
        framework,
        partition,
        law="linear",
        plant=plant,
        epsilon=0.1,
        budget=50,
        tolerance=1e-9,
    )
    result = run_scenario(spec)
    flags = result.stability_flags
    assert flags["law"] == "linear"
    assert flags["closed_loop_spectral_radius"] < 1.0
    assert flags["riccati_residual"] <= 1e-10
    # All agents update, leaders included: state follows the closed loop map.
    x0 = result.states[0].ravel()
    x1 = result.states[1].ravel()
    from affinesim import linear_step, solve_mare

    K = solve_mare(plant, np.eye(2)).K
    np.testing.assert_allclose(x1, linear_step(plant, K, 0.1, result.stress, x0), atol=1e-12)


def test_compare_forms_stationary(benchmark_scenario):
    assert compare_forms(benchmark_scenario) <= 1e-9


def test_compare_forms_dynamic(framework, partition):
    seg = ScheduleSegment(
        k0=0, k1=30, kind="translation", params={"v": [2.0, -1.0]}, interp="linear"
    )
    spec = scenario(
        framework,
        partition,
        law="dynamic",
        T=0.5,
        schedule=ManoeuvreSchedule((seg,)),
        budget=200,
    )
    assert compare_forms(spec) <= 1e-9


def test_compare_forms_single_follower_is_exact():
    # Centroid point held by three leaders; dyadic weights and a dyadic T
    # keep every intermediate exactly representable, so the two forms agree
    # bit for bit over a short run.
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    config = Configuration([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (1.0, 1.0)])
    fw = Framework(k4, config)
    part = LeaderPartition.from_leaders([1, 2, 3], 4)
    weights = {(1, 2): -0.25, (1, 3): -0.25, (2, 3): -0.25,
               (1, 4): 0.75, (2, 4): 0.75, (3, 4): 0.75}
    spec = ScenarioSpec(
        framework=fw,
        partition=part,
        law="stationary",
        T=0.5,
        initial_followers=[(-4.0, 3.0)],
        weights=weights,
        budget=10,
        tolerance=1e-30,
    )
    assert compare_forms(spec) == 0.0


def test_compare_forms_rejects_linear(framework, partition):
    plant = LinearPlant(np.eye(2), np.eye(2))
    spec = scenario(framework, partition, law="linear", plant=plant)
    with pytest.raises(ValueError):
        compare_forms(spec)


def test_run_batch_matches_individual_runs(framework, partition):
    double = {edge: 2.0 * w for edge, w in EXACT_WEIGHTS.items()}
    other_leaders = LeaderPartition.from_leaders((1, 2, 5), 5)
    seg = ScheduleSegment(k0=0, k1=20, kind="rotation", params={"angle": 0.5}, interp="linear")
    double_integrator = LinearPlant(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.0], [1.0]]))
    plants = [double_integrator, LinearPlant(0.9 * np.eye(2), np.eye(2))]
    linear = dict(law="linear", budget=60, epsilon=0.1)
    specs = [
        scenario(framework, partition, budget=100, tolerance=1e-6),
        scenario(framework, partition, T=0.7, budget=100, tolerance=1e-6),
        # Must not share: a second weight set, another leader set, synthesis.
        scenario(framework, partition, T=0.7, weights=double, budget=100, tolerance=1e-6),
        scenario(framework, other_leaders, T=0.5, budget=100, tolerance=1e-6),
        scenario(framework, partition, weights=None, law="dynamic", T=0.5, budget=100,
                 schedule=ManoeuvreSchedule((seg,))),
        # Linear runs on two plants and two Q matrices.
        scenario(framework, partition, plant=plants[0], **linear),
        scenario(framework, partition, plant=plants[1], **linear),
        scenario(framework, partition, plant=plants[0], q_matrix=2.0 * np.eye(2), **linear),
        scenario(framework, partition, plant=plants[0], weights=double, **linear),
    ]
    batch = run_batch(specs)
    assert len({id(result.stress) for result in batch}) == 4
    for spec, got in zip(specs, batch):
        solo = run_scenario(spec)
        for column in ("states", "targets", "deltas", "converged_flags", "diverged_flags"):
            assert np.array_equal(getattr(solo, column), getattr(got, column))
        assert solo.stability_flags == got.stability_flags
        assert np.array_equal(solo.stress.entries, got.stress.entries)
        assert (solo.converged_at, solo.diverged) == (got.converged_at, got.diverged)
    assert not np.array_equal(batch[0].stress.entries, batch[2].stress.entries)
    flags = [result.stability_flags for result in batch[5:]]
    assert len({f["modal_spectral_radius"] for f in flags}) == 4


def test_run_batch_shares_certificate_and_riccati_solve(framework, partition, monkeypatch):
    import affinesim.engine as engine

    calls = {"check_rigidity_certificate": 0, "solve_mare": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _f=original, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    plant = LinearPlant(np.eye(2), np.eye(2))
    specs = [
        scenario(framework, partition, law="linear", plant=plant, epsilon=eps, budget=40)
        for eps in (0.05, 0.1, 0.2)
    ]
    specs += [scenario(framework, partition, T=T, budget=40) for T in (0.5, 1.0)]
    results = run_batch(specs)
    assert calls == {"check_rigidity_certificate": 1, "solve_mare": 1}
    assert all(result.stress is results[0].stress for result in results)
    assert not results[0].blocks.ff.flags.writeable


def test_run_batch_builds_each_shared_set_of_waypoints_once(framework, partition, monkeypatch):
    import affinesim.engine as engine

    counts = []
    waypoints = engine.leader_waypoints
    monkeypatch.setattr(engine, "leader_waypoints", lambda *args: counts.append(args[-1]) or waypoints(*args))
    seg = ScheduleSegment(k0=0, k1=20, kind="rotation", params={"angle": 0.5}, interp="linear")
    schedule, equal = ManoeuvreSchedule((seg,)), ManoeuvreSchedule((seg,))
    double = {edge: 2.0 * w for edge, w in EXACT_WEIGHTS.items()}
    other_leaders = LeaderPartition.from_leaders((1, 2, 5), 5)
    # Shared: other periods, another law and another stress.
    specs = [scenario(framework, partition, schedule=schedule, T=T, budget=60) for T in (0.3, 0.6)]
    specs.append(scenario(framework, partition, schedule=schedule, law="dynamic", T=0.5, budget=60))
    specs.append(scenario(framework, partition, schedule=schedule, weights=double, budget=60))
    # Not shared: a budget that reaches fewer waypoints, an equal schedule
    # that is another object, and another leader set.
    specs.append(scenario(framework, partition, schedule=schedule, budget=10))
    specs.append(scenario(framework, partition, schedule=equal, budget=60))
    specs.append(scenario(framework, other_leaders, schedule=schedule, budget=60))
    batch = run_batch(specs)
    assert counts == [22, 11, 22, 22]
    assert batch[0].stress is batch[2].stress is not batch[3].stress
    for spec, got in zip(specs, batch):
        solo = run_scenario(spec)
        for column in ("states", "targets", "deltas"):
            assert np.array_equal(getattr(solo, column), getattr(got, column))
    assert not compile_run(specs[0]).leaders.flags.writeable


def test_specs_of_one_load_check_the_omitted_q_once_per_dimension(framework, partition, monkeypatch):
    import affinesim.engine as engine

    calls = []
    weight = engine.riccati_weight
    monkeypatch.setattr(engine, "riccati_weight", lambda Q, m, name: calls.append(m) or weight(Q, m, name))
    plant = LinearPlant(np.eye(2), np.eye(2))
    memo = {}
    linear = dict(law="linear", plant=plant, memo=memo)
    specs = [scenario(framework, partition, epsilon=eps, **linear) for eps in (0.1, 0.2, 0.3)]
    assert calls == [2]
    assert specs[0].q_matrix is specs[2].q_matrix
    assert np.array_equal(specs[0].q_matrix, np.eye(2)) and not specs[0].q_matrix.flags.writeable
    # A given q is checked for each spec, and a spec without the memo checks its own.
    scenario(framework, partition, q_matrix=2.0 * np.eye(2), **linear)
    scenario(framework, partition, law="linear", plant=plant)
    assert calls == [2, 2, 2]


def test_run_batch_refuses_before_any_run_steps(framework, partition, monkeypatch):
    import affinesim.engine as engine

    stepped = []
    run = engine.run_scenario
    monkeypatch.setattr(engine, "run_scenario", lambda *args: stepped.append(args) or run(*args))
    negated = {e: -w for e, w in EXACT_WEIGHTS.items()}
    specs = [scenario(framework, partition, budget=40), scenario(framework, partition, weights=negated)]
    with pytest.raises(CertificateError):
        run_batch(specs)
    assert stepped == []
    # A compiled run is taken as it is, by compile_run, run_scenario and run_batch.
    compiled = compile_run(specs[0])
    assert compile_run(compiled) is compiled
    assert np.array_equal(run_batch([compiled])[0].deltas, run_scenario(specs[0]).deltas)
    assert run_scenario(compiled).stability_flags == compiled.stability_flags


def test_trace_record_flags_are_instantaneous(framework, partition):
    result = run_scenario(scenario(framework, partition, tolerance=1e-6))
    crossing = result.converged_flags.tolist()
    # Once inside tolerance with stationary leaders the run stays inside.
    first = crossing.index(True)
    assert all(crossing[first:])
    assert not result.diverged_flags.any()
    assert result.converged_flags.dtype == result.diverged_flags.dtype == bool


def first_window(in_tolerance, settle_after):
    """First k >= settle_after that opens CONVERGENCE_WINDOW in-tolerance rows."""
    for k in range(settle_after, len(in_tolerance) - CONVERGENCE_WINDOW + 1):
        if all(in_tolerance[k : k + CONVERGENCE_WINDOW]):
            return k
    return None


@pytest.mark.parametrize("case", ["on target", "hold", "linear"])
def test_convergence_window(framework, partition, case):
    if case == "on target":
        overrides = dict(initial_followers=FOLLOWER_TARGETS)
    elif case == "hold":
        # In tolerance from the start, but no window may open before the jump.
        seg = ScheduleSegment(k0=40, k1=40, kind="scaling", params={"c": 0.5})
        overrides = dict(initial_followers=FOLLOWER_TARGETS, schedule=ManoeuvreSchedule((seg,)))
    else:
        # Deadbeat tracking is in tolerance from k = 1 while the leaders move.
        seg = ScheduleSegment(k0=0, k1=30, kind="rotation", params={"angle": 1.0}, interp="linear")
        overrides = dict(law="dynamic", schedule=ManoeuvreSchedule((seg,)))
    spec = scenario(framework, partition, **overrides)
    result = run_scenario(spec)
    settle_after = spec.schedule.last_step()
    in_tolerance = (result.deltas <= spec.tolerance).tolist()
    if case != "on target":
        assert all(in_tolerance[1:settle_after])
    assert result.converged_at is not None
    assert result.converged_at == first_window(in_tolerance, settle_after)
    assert len(result.deltas) == result.converged_at + CONVERGENCE_WINDOW
    np.testing.assert_array_equal(result.converged_flags, result.deltas <= spec.tolerance)
    assert not result.diverged_flags.any()


def public_steps(spec, result):
    """Step the scenario through the public one-step functions."""
    blocks, config = result.blocks, spec.framework.config
    f_rows = [i - 1 for i in spec.partition.followers]
    l_rows = [i - 1 for i in spec.partition.leaders]
    x = np.zeros((config.n, config.d))
    x[l_rows] = leader_waypoints(spec.schedule, config, spec.partition, 0, 1)[0]
    x[f_rows] = spec.initial_followers
    K = solve_mare(spec.plant, spec.q_matrix).K if spec.law == "linear" else None
    states, targets = [], []
    for k in range(result.steps + 1):
        states.append(x.copy())
        targets.append(follower_targets(blocks, x[l_rows]).reshape(-1, config.d))
        now, nxt = leader_waypoints(spec.schedule, config, spec.partition, k, 2)
        if spec.law == "linear":
            x = linear_step(spec.plant, K, spec.epsilon, result.stress, x).reshape(config.n, config.d)
            continue
        if spec.law == "stationary":
            x_f = stationary_leader_step(blocks, spec.T, x[f_rows], now)
        else:
            x_f = dynamic_leader_step(blocks, spec.T, x[f_rows], now, nxt)
        x = x.copy()
        x[f_rows] = x_f.reshape(-1, config.d)
        x[l_rows] = nxt
    return np.array(states), np.array(targets)


@pytest.mark.parametrize(
    "law, budget", [("stationary", 150), ("dynamic", 150), ("linear", 150), ("dynamic", 30)]
)
def test_compiled_run_matches_public_steps(framework, partition, law, budget):
    overrides = dict(law=law, budget=budget, tolerance=1e-12)
    if law == "linear":
        # The linear law's plant is already sampled: it takes T = 1 only.
        overrides.update(plant=LinearPlant(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.0], [1.0]])),
                         epsilon=0.2)
    else:
        seg = ScheduleSegment(k0=3, k1=60, kind="rotation", params={"angle": 1.2}, interp="linear")
        overrides.update(schedule=ManoeuvreSchedule((seg,)), T=0.7)
    spec = scenario(framework, partition, **overrides)
    result = run_scenario(spec)
    assert result.steps >= min(budget, 60)
    states, targets = public_steps(spec, result)
    np.testing.assert_allclose(result.states, states, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(result.targets, targets, rtol=0.0, atol=1e-12)
    deltas = [np.linalg.norm(s[[3, 4]] - t) for s, t in zip(states, targets)]
    np.testing.assert_allclose(result.deltas, deltas, rtol=0.0, atol=1e-12)


ROTATION = ManoeuvreSchedule((ScheduleSegment(k0=3, k1=60, kind="rotation", params={"angle": 1.2}, interp="linear"),))
DOUBLE_INTEGRATOR = LinearPlant(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.0], [1.0]]))
STEPPING_CASES = {
    "stationary converged": dict(),
    "stationary past the limit": dict(T=1.4, budget=500),
    "stationary overflow": dict(T=1e300),
    "stationary budget exhausted": dict(T=0.1, budget=40),
    "stationary budget inside the schedule": dict(T=0.7, schedule=ROTATION, budget=30),
    "dynamic converged": dict(law="dynamic", T=0.7, schedule=ROTATION, tolerance=1e-12),
    "dynamic past the limit": dict(law="dynamic", T=2.5),
    "dynamic budget exhausted": dict(law="dynamic", T=0.05, budget=70),
    "dynamic budget inside the schedule": dict(law="dynamic", T=0.7, schedule=ROTATION, budget=30),
    "linear converged": dict(law="linear", plant=DOUBLE_INTEGRATOR, epsilon=0.2),
    "linear past the limit": dict(law="linear", plant=LinearPlant(1.2 * np.eye(2), np.eye(2)), epsilon=1.0),
    "linear budget exhausted": dict(law="linear", plant=DOUBLE_INTEGRATOR, epsilon=0.2, budget=5),
}


@pytest.mark.parametrize("case", STEPPING_CASES)
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_stepping_matches_the_per_step_loop(framework, partition, case):
    spec = scenario(framework, partition, **STEPPING_CASES[case])
    result, oracle = run_scenario(spec), per_step_run(spec)
    outcome = case.split(" ", 1)[1]
    assert result.converged_at is not None if outcome == "converged" else result.converged_at is None
    assert result.diverged == (outcome in ("past the limit", "overflow"))
    assert result.budget_exhausted == outcome.startswith("budget")
    if outcome == "overflow":
        assert not np.isfinite(result.deltas[-1])
    for column in ("states", "targets", "deltas", "converged_flags", "diverged_flags"):
        got, want = getattr(result, column), getattr(oracle, column)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes()), column
    for field in ("converged_at", "diverged", "budget_exhausted"):
        assert getattr(result, field) == getattr(oracle, field), field


def test_trace_columns_and_flags(framework, partition):
    result = run_scenario(scenario(framework, partition, T=1.4, budget=500))
    steps = result.steps
    assert result.states.shape == (steps + 1, 5, 2)
    assert result.targets.shape == (steps + 1, 2, 2)
    assert result.deltas.shape == result.converged_flags.shape == (steps + 1,)
    assert result.diverged_flags.tolist() == [False] * steps + [True]
    np.testing.assert_array_equal(result.converged_flags, result.deltas <= 1e-9)
    for column in ("states", "targets", "deltas", "converged_flags", "diverged_flags"):
        assert not getattr(result, column).flags.writeable


def test_linear_law_flags_predict_divergence(framework, partition):
    # With A = 1.2 I and B = I the gain cancels A, so rho(A + BK) = 0, but
    # the coupled modes 1.2 * lambda_i of the stress are unstable.
    plant = LinearPlant(1.2 * np.eye(2), np.eye(2))
    result = run_scenario(scenario(framework, partition, law="linear", plant=plant, epsilon=1.0))
    assert result.diverged and result.steps == 21
    flags = result.stability_flags
    assert flags["closed_loop_spectral_radius"] == 0.0
    lam_max = np.linalg.eigvalsh(result.stress.entries)[-1]
    assert flags["modal_spectral_radius"] == pytest.approx(1.2 * lam_max, rel=1e-12)
    assert flags["stable"] is False


@pytest.mark.parametrize("case", ["reproduction", "random stress"])
def test_modal_test_matches_per_eigenvalue_loop(exact_stress, case):
    if case == "reproduction":
        plant, stress, epsilon = LinearPlant(1.2 * np.eye(2), np.eye(2)), exact_stress, 1.0
    else:
        rng = np.random.default_rng(5)
        complete = Graph(9, [(i, j) for i in range(1, 10) for j in range(i + 1, 10)])
        stress = assemble_stress(complete, {edge: rng.normal() for edge in complete.edges})
        plant = LinearPlant(rng.normal(size=(2, 2)), rng.normal(size=(2, 1)))
        epsilon = 0.3
    solution = solve_mare(plant, np.eye(2))
    flags = stability_flags("linear", 1.0, None, stress, plant, solution, epsilon)
    BK = plant.B @ solution.K
    loop = max(
        spectral_radius(plant.A + (1.0 - epsilon * lam) * BK)
        for lam in np.linalg.eigvalsh(stress.entries)
    )
    assert flags["modal_spectral_radius"] == loop
    assert flags["stable"] is (loop < 1.0)


def test_linear_law_rejects_schedule(framework, partition):
    seg = ScheduleSegment(k0=0, k1=10, kind="translation", params={"v": [1.0, 0.0]})
    plant = LinearPlant(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="no schedule"):
        scenario(framework, partition, law="linear", plant=plant, schedule=ManoeuvreSchedule((seg,)))


def test_singular_follower_block_raises(framework):
    # Leaders 1, 4, 5 are collinear, so the follower block is singular.
    collinear = LeaderPartition.from_leaders((1, 4, 5), 5)
    spec = scenario(framework, collinear, initial_followers=[(0.0, 1.0), (0.0, -1.0)])
    with pytest.raises(LocalizabilityError):
        run_scenario(spec)
