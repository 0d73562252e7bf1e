import re

import numpy as np
import pytest

from affinesim import (
    LinearPlant,
    LocalizabilityError,
    SolverError,
    StressBlocks,
    StressMatrix,
    dynamic_leader_step,
    follower_targets,
    linear_step,
    solve_mare,
    spectral_radius,
    stability_flags,
    stationary_leader_step,
)
from affinesim import control
from affinesim.control import RiccatiSolution, check_period
from affinesim.engine import LINEAR_T_ERROR

from conftest import FOLLOWER_TARGETS, MU_MAX
from oracles import local_control_input_dynamic, local_control_input_stationary


def leader_stack(reference):
    return reference.positions[:3].ravel()


def follower_blocks(ff):
    """Blocks of one uncoupled leader and the given follower block."""
    ff = np.asarray(ff, dtype=float)
    return StressBlocks(ll=np.zeros((1, 1)), lf=np.zeros((1, len(ff))), fl=np.zeros((len(ff), 1)), ff=ff)


def test_check_period():
    assert check_period(0.5) == 0.5
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            check_period(bad)


def test_stationary_fixed_point(blocks, reference):
    targets = follower_targets(blocks, leader_stack(reference))
    for T in (0.3, 1.0, 1.7):
        nxt = stationary_leader_step(blocks, T, targets, leader_stack(reference))
        np.testing.assert_allclose(nxt, targets, atol=1e-12)


def test_stationary_single_step_from_zero(blocks, reference):
    # From the origin the update reduces to the leader coupling term.
    x_l = leader_stack(reference)
    got = stationary_leader_step(blocks, 1.0, np.zeros(4), x_l)
    expected = -np.kron(blocks.fl, np.eye(2)) @ x_l
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_stationary_matches_kron_form(blocks, reference):
    rng = np.random.default_rng(5)
    x_l = leader_stack(reference)
    for T in (0.4, 1.0, 1.3):
        big = np.eye(4) - T * np.kron(blocks.ff, np.eye(2))
        for _ in range(20):
            x_f = rng.normal(size=4)
            got = stationary_leader_step(blocks, T, x_f, x_l)
            expected = big @ x_f - T * np.kron(blocks.fl, np.eye(2)) @ x_l
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_stationary_disagreement_recursion(blocks, reference):
    # delta[k+1] = (I - T ff) kron I_d applied to delta[k], exactly.
    rng = np.random.default_rng(9)
    x_l = leader_stack(reference)
    targets = follower_targets(blocks, x_l)
    T = 0.8
    propagator = np.kron(np.eye(blocks.n_followers) - T * blocks.ff, np.eye(2))
    for _ in range(20):
        x_f = rng.normal(size=4)
        delta = x_f - targets
        x_next = stationary_leader_step(blocks, T, x_f, x_l)
        np.testing.assert_allclose(x_next - targets, propagator @ delta, atol=1e-12)


def test_stationary_dimension_checks(blocks, reference):
    with pytest.raises(ValueError):
        stationary_leader_step(blocks, 1.0, np.zeros(5), leader_stack(reference))
    with pytest.raises(ValueError):
        stationary_leader_step(blocks, 1.0, np.zeros(4), np.zeros(5))


def test_dynamic_holds_targets(blocks, reference):
    x_l = leader_stack(reference)
    targets = follower_targets(blocks, x_l)
    for T in (0.5, 1.0, 1.9):
        nxt = dynamic_leader_step(blocks, T, targets, x_l, x_l)
        np.testing.assert_allclose(nxt, targets, atol=1e-12)


def test_dynamic_deadbeat_at_unit_period(blocks, reference):
    x_l = leader_stack(reference)
    targets = follower_targets(blocks, x_l)
    x_f = np.array([-4.0, 3.0, -3.0, -2.0])
    nxt = dynamic_leader_step(blocks, 1.0, x_f, x_l, x_l)
    assert float(np.abs(nxt - targets).max()) == 0.0


def test_dynamic_geometric_decay(blocks, reference):
    x_l = leader_stack(reference)
    targets = follower_targets(blocks, x_l)
    x_f = np.array([-4.0, 3.0, -3.0, -2.0])
    delta0 = np.linalg.norm(x_f - targets)
    T = 0.5
    for k in range(1, 12):
        x_f = dynamic_leader_step(blocks, T, x_f, x_l, x_l)
        assert np.linalg.norm(x_f - targets) == pytest.approx(0.5**k * delta0, rel=1e-9)


def test_dynamic_matches_kron_solve(blocks, reference):
    rng = np.random.default_rng(13)
    ff_big = np.kron(blocks.ff, np.eye(2))
    fl_big = np.kron(blocks.fl, np.eye(2))
    for T in (0.5, 1.5):
        for _ in range(10):
            x_f = rng.normal(size=4)
            x_l = rng.normal(size=6)
            x_l2 = rng.normal(size=6)
            got = dynamic_leader_step(blocks, T, x_f, x_l, x_l2)
            rhs = (1 - T) * (ff_big @ x_f + fl_big @ x_l) - fl_big @ x_l2
            np.testing.assert_allclose(got, np.linalg.solve(ff_big, rhs), atol=1e-12)


def test_local_stationary():
    own = np.array([1.0, 2.0])
    assert np.array_equal(
        local_control_input_stationary(4, own, {1: own, 2: own}, {1: 0.7, 2: -0.3}),
        np.zeros(2),
    )
    # Star with unit weights: u is the sum of neighbor offsets.
    states = {1: own + [1.0, 0.0], 2: own + [0.0, 2.0], 3: own + [-0.5, 0.0]}
    u = local_control_input_stationary(4, own, states, {1: 1.0, 2: 1.0, 3: 1.0})
    np.testing.assert_allclose(u, [0.5, 2.0])
    with pytest.raises(ValueError):
        local_control_input_stationary(4, own, {1: own}, {1: 1.0, 2: 1.0})


def test_local_stationary_matches_global_row(blocks, reference, exact_stress):
    # Agent 4 update computed from neighbors equals row 1 of the global product.
    x_f = np.array([-4.0, 3.0, -3.0, -2.0])
    x_l = leader_stack(reference)
    global_u = -(np.kron(blocks.ff, np.eye(2)) @ x_f + np.kron(blocks.fl, np.eye(2)) @ x_l)
    positions = {1: x_l[0:2], 2: x_l[2:4], 3: x_l[4:6], 5: x_f[2:4]}
    weights = {1: -0.292, 2: 0.542, 3: 0.542, 5: 0.5}
    u4 = local_control_input_stationary(4, x_f[0:2], positions, weights)
    np.testing.assert_allclose(u4, global_u[0:2], atol=1e-12)


def test_local_dynamic():
    own = np.array([0.0, 0.0])
    static = {1: own.copy()}
    assert np.array_equal(
        local_control_input_dynamic(4, own, static, static, {1: 2.0}, 0.5), np.zeros(2)
    )
    # Single neighbor moving with velocity v: pure feedforward.
    v = np.array([3.0, -1.0])
    T = 0.25
    now = {1: own.copy()}
    nxt = {1: own + T * v}
    u = local_control_input_dynamic(4, own, now, nxt, {1: 1.0}, T)
    np.testing.assert_allclose(u, v, atol=1e-12)
    with pytest.raises(ValueError):
        local_control_input_dynamic(4, own, now, nxt, {1: 1e-10}, T)


def test_stationary_stability_condition():
    def stable(T, mu_min):
        return stability_flags("stationary", T, follower_blocks([[-mu_min]]))["stable"]

    assert stable(1.0, -1.49)
    assert not stable(2.0, -1.49)
    assert stable(1e-9, -1e6)
    with pytest.raises(ValueError):
        stable(1.0, 0.1)


def test_stability_flags_guards():
    # An asymmetric follower block is refused before its eigenvalues are read.
    with pytest.raises(ValueError, match="follower block must be symmetric"):
        stability_flags("stationary", 1.0, follower_blocks([[1.0, 0.5], [0.0, 1.0]]))
    # mu_min = 0 exactly: a certified stress never gives a nonnegative mu_min.
    with pytest.raises(ValueError, match="mu_min must be negative, got -0.0; stress certificate is broken"):
        stability_flags("stationary", 1.0, follower_blocks([[-1.0, 0.0], [0.0, 0.0]]))


def test_stationary_stability_needs_a_definite_follower_block():
    # mu = -1 passes T * mu_min > -2, but mu = 0.5 puts 1.5 on the propagator's spectrum.
    flags = stability_flags("stationary", 1.0, follower_blocks([[1.0, 0.0], [0.0, -0.5]]))
    assert flags["stable"] is False
    assert flags["spectral_radius"] == 1.5
    # A singular follower block meets the guard the engine applies.
    with pytest.raises(LocalizabilityError, match="follower stress block is singular"):
        stability_flags("stationary", 1.0, follower_blocks([[1.0, 0.0], [0.0, 0.0]]))


def test_stability_flags_refuses_an_unknown_law_or_a_missing_input():
    with pytest.raises(ValueError, match="unknown law 'foo'"):
        stability_flags("foo", 1.0)
    with pytest.raises(ValueError, match="stationary stability needs blocks"):
        stability_flags("stationary", 1.0)
    stress = StressMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="linear stability needs plant, solution"):
        stability_flags("linear", 1.0, stress=stress)
    plant = LinearPlant(np.eye(2), np.eye(2))
    solution = solve_mare(plant, np.eye(2))
    with pytest.raises(ValueError, match=re.escape(LINEAR_T_ERROR)):
        stability_flags("linear", 0.5, None, stress, plant, solution)


def test_dynamic_stability_condition():
    def stable(T):
        return stability_flags("dynamic", T)["stable"]

    assert stable(0.5)
    assert stable(1.99)
    assert not stable(2.0)
    assert not stable(2.5)


def test_spectral_radius(blocks):
    assert spectral_radius(np.eye(3)) == 1.0
    assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0
    rho = spectral_radius(np.eye(blocks.n_followers) - 1.0 * blocks.ff)
    assert rho == pytest.approx(1.0 + MU_MAX, abs=1e-12)
    assert rho == pytest.approx(0.9511087175765156, abs=1e-12)
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))


def test_plant_validation():
    LinearPlant(np.zeros((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError):
        LinearPlant(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])[:, 1:])  # zero column
    # Unstable uncontrollable mode.
    with pytest.raises(ValueError):
        LinearPlant(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]))
    # Stable uncontrollable mode is fine (stabilizable, not controllable).
    plant = LinearPlant(np.diag([0.5, 2.0]), np.array([[0.0], [1.0]]))
    assert plant.m == 2 and plant.q == 1


def test_solve_mare_scalar_cases():
    dead = solve_mare(LinearPlant([[0.0]], [[1.0]]), [[1.0]])
    assert dead.P[0, 0] == pytest.approx(1.0)
    assert dead.K[0, 0] == pytest.approx(0.0)
    assert dead.iterations == 0 and dead.residual <= 1e-10

    unit = solve_mare(LinearPlant([[1.0]], [[1.0]]), [[1.0]], tol=1e-10)
    assert unit.P[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert unit.K[0, 0] == pytest.approx(-1.0, abs=1e-10)
    assert spectral_radius(np.array([[1.0]]) + np.array([[1.0]]) @ unit.K) < 1.0


def test_solve_mare_input_checks():
    plant = LinearPlant(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        solve_mare(plant, np.eye(3))
    with pytest.raises(ValueError):
        solve_mare(plant, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        solve_mare(plant, -np.eye(2))


def test_solve_mare_iteration_budget(monkeypatch):
    plant = LinearPlant(np.array([[1.2, 1.0], [0.0, 0.8]]), np.array([[0.0], [1.0]]))
    monkeypatch.setattr(control, "RICCATI_MAX_ITER", 1)
    with pytest.raises(SolverError, match="did not reach tol 1e-10 in 1 iterations"):
        solve_mare(plant, np.eye(2), tol=1e-10)
    monkeypatch.undo()
    solution = solve_mare(plant, np.eye(2), tol=1e-10)
    assert solution.residual <= 1e-10
    assert spectral_radius(plant.A + plant.B @ solution.K) < 1.0


def test_riccati_solution_validation():
    with pytest.raises(ValueError):
        RiccatiSolution(P=np.zeros((2, 2)), K=np.zeros((1, 2)), residual=0.0, iterations=0)
    with pytest.raises(ValueError):
        RiccatiSolution(P=np.array([[1.0, 0.2], [0.0, 1.0]]), K=np.zeros((1, 2)), residual=0.0, iterations=0)


def test_linear_step_special_cases(exact_stress):
    plant = LinearPlant([[0.9, 0.1], [0.0, 0.8]], [[0.0], [1.0]])
    n = exact_stress.n
    rng = np.random.default_rng(21)
    x = rng.normal(size=n * 2)

    # Zero gain: open loop, each agent evolves by A alone.
    got = linear_step(plant, np.zeros((1, 2)), 0.3, exact_stress, x)
    np.testing.assert_allclose(got, (x.reshape(n, 2) @ plant.A.T).ravel(), atol=1e-12)

    # Zero coupling: decoupled closed loops A + BK.
    K = np.array([[-0.2, -0.5]])
    got = linear_step(plant, K, 0.0, exact_stress, x)
    closed = plant.A + plant.B @ K
    np.testing.assert_allclose(got, (x.reshape(n, 2) @ closed.T).ravel(), atol=1e-12)


def test_linear_step_matches_dense_oracle(exact_stress):
    plant = LinearPlant([[0.9, 0.1], [0.0, 0.8]], [[0.0], [1.0]])
    K = np.array([[-0.2, -0.5]])
    eps = 0.15
    n = exact_stress.n
    dense = np.kron(np.eye(n), plant.A) + np.kron(
        np.eye(n) - eps * exact_stress.entries, plant.B @ K
    )
    rng = np.random.default_rng(23)
    x = rng.normal(size=n * 2)
    for _ in range(10):
        x_direct = linear_step(plant, K, eps, exact_stress, x)
        np.testing.assert_allclose(x_direct, dense @ x, atol=1e-12)
        x = x_direct


def test_linear_step_shape_checks(exact_stress):
    plant = LinearPlant([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        linear_step(plant, np.zeros((2, 1)), 0.0, exact_stress, np.zeros(5))
    with pytest.raises(ValueError):
        linear_step(plant, np.zeros((1, 1)), 0.0, exact_stress, np.zeros(7))
