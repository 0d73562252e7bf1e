"""End-to-end acceptance suite.

Each test is one acceptance criterion; all numeric thresholds are part of
the package contract and must not be loosened.
"""

import json
import math
import time

import numpy as np
import pytest

from affinesim import (
    Configuration,
    LeaderPartition,
    LinearPlant,
    ManoeuvreSchedule,
    ScenarioSpec,
    ScheduleSegment,
    StressMatrix,
    assemble_stress,
    check_rigidity_certificate,
    follower_targets,
    linear_step,
    partition_stress,
    run_scenario,
    solve_mare,
    spectral_radius,
    stability_flags,
    stationary_leader_step,
    synthesize_stress,
)
from affinesim.cli import main

from conftest import (
    EXACT_WEIGHTS,
    FOLLOWER_START,
    FOLLOWER_TARGETS,
    LEADERS,
    MU_MAX,
    MU_MIN,
    REFERENCE_POSITIONS,
    ROUNDED_STRESS,
    write_benchmark_files,
)
from oracles import compare_forms, equilibrium_residual

LEADER_POSITIONS = np.asarray(REFERENCE_POSITIONS, dtype=float)[:3]
TARGETS = np.asarray(FOLLOWER_TARGETS, dtype=float)


def rounded_blocks():
    stress = StressMatrix(ROUNDED_STRESS)
    partition = LeaderPartition.from_leaders(LEADERS, stress.n)
    return partition_stress(stress, partition)


def benchmark_spec(framework, partition, **overrides):
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


def test_benchmark_reproduction():
    # Stationary law at T=1 on the benchmark 5-agent stress, leaders held
    # at (1,0),(0,1),(0,-1), followers from (-4,3),(-3,-2): both followers
    # must reach (-1,0),(-2,0) to 1e-6 inside 2000 steps in under a second.
    blocks = rounded_blocks()
    x_l = LEADER_POSITIONS.ravel()
    x_f = np.ravel(FOLLOWER_START)
    np.testing.assert_allclose(
        follower_targets(blocks, x_l).reshape(2, 2), TARGETS, atol=1e-12
    )

    start = time.perf_counter()
    steps = None
    for k in range(2001):
        errors = np.linalg.norm(x_f.reshape(2, 2) - TARGETS, axis=1)
        if errors.max() <= 1e-6:
            steps = k
            break
        x_f = stationary_leader_step(blocks, 1.0, x_f, x_l)
    elapsed = time.perf_counter() - start

    assert steps is not None and steps <= 2000
    assert elapsed < 1.0
    assert np.linalg.norm(x_f.reshape(2, 2) - TARGETS, axis=1).max() <= 1e-6


def test_follower_block_eigenvalue_reproduction():
    blocks = rounded_blocks()
    eigenvalues = np.sort(np.linalg.eigvalsh(-blocks.ff))
    assert abs(eigenvalues[0] - (-1.49)) <= 0.01
    np.testing.assert_allclose(eigenvalues, [-1.4931, -0.0489], atol=1e-3)
    np.testing.assert_allclose(eigenvalues, [MU_MIN, MU_MAX], atol=1e-12)


def test_equilibrium_residuals(framework, reference):
    rounded = StressMatrix(ROUNDED_STRESS)
    assert equilibrium_residual(rounded, reference) <= 1e-3
    weights = synthesize_stress(framework)[0]
    synthesized = assemble_stress(framework.graph, weights)
    assert equilibrium_residual(synthesized, reference) <= 1e-9


def test_stability_boundary_bracketing(framework, partition, blocks):
    converging = run_scenario(benchmark_spec(framework, partition, T=1.3))
    assert converging.converged_at is not None and not converging.diverged

    diverging = run_scenario(benchmark_spec(framework, partition, T=1.4, budget=500))
    assert diverging.diverged and diverging.steps <= 500

    rho_13 = stability_flags("stationary", 1.3, blocks)["spectral_radius"]
    rho_14 = stability_flags("stationary", 1.4, blocks)["spectral_radius"]
    assert rho_13 < 1.0 < rho_14
    assert rho_13 == pytest.approx(0.9410413328494704, abs=1e-9)
    assert rho_14 == pytest.approx(1.0903522046071217, abs=1e-9)


def test_dynamic_law_exact_decay(framework, partition):
    def run(T, budget=200):
        seg = ScheduleSegment(
            k0=0, k1=30, kind="translation", params={"v": [3.0, 1.0]}, interp="linear"
        )
        return run_scenario(
            benchmark_spec(
                framework,
                partition,
                law="dynamic",
                T=T,
                schedule=ManoeuvreSchedule((seg,)),
                budget=budget,
                tolerance=1e-12,
            )
        )

    for T in (0.5, 1.5):
        deltas = run(T).deltas
        for k in range(12):
            assert abs(deltas[k + 1] / deltas[k] - abs(1.0 - T)) <= 1e-9

    deadbeat = run(1.0)
    assert deadbeat.deltas[1] == 0.0
    assert deadbeat.deltas[1:].max() == 0.0

    assert run(2.5).diverged


def test_affine_images_stay_at_equilibrium(exact_stress, reference, blocks):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        theta = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        image = Configuration(reference.positions @ theta.T + b)
        assert equilibrium_residual(exact_stress, image) <= 1e-6

        mapped_targets = follower_targets(blocks, image.positions[:3].ravel())
        direct_targets = TARGETS @ theta.T + b
        assert np.abs(mapped_targets - direct_targets.ravel()).max() <= 1e-9


def test_per_agent_and_matrix_forms_agree(framework, partition):
    assert compare_forms(benchmark_spec(framework, partition)) <= 1e-9

    seg = ScheduleSegment(
        k0=0, k1=30, kind="translation", params={"v": [2.0, -1.0]}, interp="linear"
    )
    dynamic = benchmark_spec(
        framework,
        partition,
        law="dynamic",
        T=0.5,
        schedule=ManoeuvreSchedule((seg,)),
        budget=200,
    )
    assert compare_forms(dynamic) <= 1e-9


def test_rigidity_certificate(framework, exact_stress):
    certificate = check_rigidity_certificate(exact_stress, framework)
    assert certificate.rank == 2 == framework.config.n - framework.config.d - 1
    assert certificate.min_eigenvalue >= -1e-8
    assert certificate.passed

    negated = check_rigidity_certificate(StressMatrix(-exact_stress.entries), framework)
    assert not negated.psd
    assert not negated.passed


def test_riccati_property_suite(exact_stress):
    rng = np.random.default_rng(7)
    accepted = 0
    while accepted < 20:
        m = int(rng.integers(1, 5))
        q = int(rng.integers(1, m + 1))
        try:
            plant = LinearPlant(rng.normal(size=(m, m)), rng.normal(size=(m, q)))
        except ValueError:
            continue
        solution = solve_mare(plant, np.eye(m))
        assert solution.residual <= 1e-10
        assert np.array_equal(solution.P, solution.P.T)
        assert np.linalg.eigvalsh(solution.P).min() > 0.0
        assert spectral_radius(plant.A + plant.B @ solution.K) < 1.0
        accepted += 1

    # With zero coupling the closed loop decouples agent by agent.
    plant = LinearPlant(np.array([[0.9, 0.1], [0.0, 0.8]]), np.eye(2))
    K = solve_mare(plant, np.eye(2)).K
    x = rng.normal(size=exact_stress.n * 2)
    decoupled = linear_step(plant, K, 0.0, exact_stress, x)
    per_agent = (x.reshape(exact_stress.n, 2) @ (plant.A + plant.B @ K).T).ravel()
    np.testing.assert_allclose(decoupled, per_agent, atol=1e-12)


def test_manoeuvre_suite_reconverges(framework, partition):
    manoeuvres = [
        ("translation", {"v": [2.5, -1.0]}),
        ("scaling", {"c": 0.5}),
        ("rotation", {"angle": math.pi / 2}),
        ("shear", {"factor": 0.7, "axes": [1, 0]}),
    ]
    start = time.perf_counter()
    for kind, params in manoeuvres:
        seg = ScheduleSegment(k0=0, k1=50, kind=kind, params=params, interp="linear")
        spec = benchmark_spec(
            framework,
            partition,
            schedule=ManoeuvreSchedule((seg,)),
            budget=5000,
            tolerance=1e-8,
        )
        result = run_scenario(spec)
        assert result.converged_at is not None, kind
        theta, b = spec.schedule.transforms(2, result.steps, 1)
        expected = TARGETS @ theta[0].T + b[0]
        final = result.final_positions()[[3, 4]]
        assert np.linalg.norm(final - expected, axis=1).max() <= 1e-6, kind
    assert time.perf_counter() - start < 10.0


def test_manifest_reruns_are_byte_identical(tmp_path):
    scenario = write_benchmark_files(tmp_path)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["simulate", str(scenario), "--out", str(first)]) == 0
    assert main(["simulate", str(first / "manifest.json"), "--out", str(second)]) == 0
    assert (second / "trace.csv").read_bytes() == (first / "trace.csv").read_bytes()
    assert (second / "summary.json").read_bytes() == (first / "summary.json").read_bytes()
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["kind"] == "run-manifest"
