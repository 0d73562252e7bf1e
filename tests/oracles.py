"""Reference forms the tests compare the package against.

The engine runs one compiled matrix step per law. The per-agent forms of
the stationary and dynamic laws here restate those laws agent by agent,
so that compare_forms can check that each matrix update decomposes into
neighbor-local computations. per_step_transform restates the schedule's
cumulative transform one step and one segment at a time, and
per_step_run the engine's stepping loop with the whole leaders-first
state carried, recorded and copied one step at a time, and
per_vertex_points the SVG points of plotting one vertex at a time.
equilibrium_residual measures equilibrium apart from the certificate's
ratio. None of this is a path the package runs.
"""

from __future__ import annotations

import numpy as np

from affinesim import (
    ManoeuvreSchedule,
    ScenarioSpec,
    StressBlocks,
    StressMatrix,
    run_scenario,
)
from affinesim.control import check_period
from affinesim.engine import CONVERGENCE_WINDOW, DIVERGENCE_LIMIT, RunResult, compile_run
from affinesim.maneuvers import leader_waypoints

# Per-agent dynamic law divides by the incident weight sum; smaller
# magnitudes are rejected as degenerate.
GAMMA_FLOOR = 1e-9


def local_control_input_stationary(i: int, own, neighbor_states: dict, weights: dict):
    """Per-agent stationary law: u_i = -sum_j w_ij (x_i - x_j).

    neighbor_states and weights are keyed by neighbor id and must cover
    the same neighbors.
    """
    own = np.asarray(own, dtype=float)
    u = np.zeros_like(own)
    for j, w in weights.items():
        if j not in neighbor_states:
            raise ValueError(f"agent {i}: missing state for neighbor {j}")
        u -= w * (own - np.asarray(neighbor_states[j], dtype=float))
    return u


def local_control_input_dynamic(i: int, own, neighbors_now: dict, neighbors_next: dict, weights: dict, T):
    """Per-agent dynamic law with feedforward of neighbor motion.

    u_i = -(1/gamma) sum_j w_ij [x_i - x_j(k) - (x_j(k+1) - x_j(k)) / T]
    with gamma the sum of incident weights. Neighbor states at k+1 make
    this form non-causal agent-by-agent; it exists for parity checks
    against the matrix solve, not for scheduling.
    """
    T = check_period(T)
    own = np.asarray(own, dtype=float)
    gamma = float(sum(weights.values()))
    if abs(gamma) <= GAMMA_FLOOR:
        raise ValueError(f"agent {i}: incident weight sum {gamma:.3g} is degenerate")
    u = np.zeros_like(own)
    for j, w in weights.items():
        if j not in neighbors_now or j not in neighbors_next:
            raise ValueError(f"agent {i}: missing state for neighbor {j}")
        now = np.asarray(neighbors_now[j], dtype=float)
        nxt = np.asarray(neighbors_next[j], dtype=float)
        u -= w * (own - now - (nxt - now) / T)
    return u / gamma


def compare_forms(spec: ScenarioSpec) -> float:
    """Max deviation between the matrix-form run and per-agent updates.

    Runs the scenario, then advances each follower of every traced state
    with its per-agent control input and compares the result with the next
    traced state; returns the largest entrywise difference. The dynamic
    per-agent form consumes neighbor states at k+1, read off the trace.
    """
    if spec.law not in ("stationary", "dynamic"):
        raise ValueError("form comparison is defined for the stationary and dynamic laws")
    result = run_scenario(spec)
    adjacency = spec.framework.graph.adjacency()
    # The stress holds edge weight w_ij as -Omega_ij.
    incident = {
        i: {j: -result.run.stress.entries[i - 1, j - 1] for j in sorted(adjacency[i])}
        for i in spec.partition.followers
    }
    worst = 0.0
    for x, x_next in zip(result.states, result.states[1:]):
        for agent in spec.partition.followers:
            states_now = {j: x[j - 1] for j in incident[agent]}
            if spec.law == "stationary":
                u = local_control_input_stationary(agent, x[agent - 1], states_now, incident[agent])
            else:
                states_next = {j: x_next[j - 1] for j in incident[agent]}
                u = local_control_input_dynamic(
                    agent, x[agent - 1], states_now, states_next, incident[agent], spec.T
                )
            per_agent = x[agent - 1] + spec.T * u
            worst = max(worst, float(np.abs(per_agent - x_next[agent - 1]).max()))
    return worst


def per_step_transform(schedule: ManoeuvreSchedule, d: int, k: int):
    """Cumulative (theta, b) at step k, one segment at a time.

    Each segment's own transform at k is its one-segment schedule's (the
    identity before k0, full progress after k1); the segments compose in
    order as theta <- theta_s theta, b <- theta_s b + b_s.
    """
    theta, b = np.eye(d), np.zeros(d)
    for seg in schedule.segments:
        seg_thetas, seg_bs = ManoeuvreSchedule((seg,)).transforms(d, k, 1)
        theta, b = seg_thetas[0] @ theta, seg_thetas[0] @ b + seg_bs[0]
    return theta, b


def equilibrium_residual(stress: StressMatrix, config) -> float:
    """Largest entry of Omega P: (near) zero when the stress is in equilibrium at the configuration."""
    if stress.n != config.n:
        raise ValueError(f"stress is {stress.n}x{stress.n} but configuration has {config.n} nodes")
    return float(np.abs(stress.entries @ config.positions).max())


def _law_step(spec: ScenarioSpec, blocks: StressBlocks, stress, solution, G, leaders, targets):
    """Map (k, z, target) -> (z, target) at k+1 for a leaders-first state z.

    Steps past the end of leaders and targets hold their last entry."""
    n_l = blocks.n_leaders
    if spec.law == "linear":
        rows = spec.partition.rows
        coupling = np.eye(stress.n) - spec.epsilon * stress.entries[np.ix_(rows, rows)]
        A_t, BK_t = spec.plant.A.T, (spec.plant.B @ solution.K).T

        def step(k, z, target):
            z = z @ A_t + coupling @ z @ BK_t
            return z, G @ z[:n_l]

        return step

    T, last, ff, fl = spec.T, len(leaders) - 1, blocks.ff, blocks.fl

    def step(k, z, target):
        j = min(k + 1, last)
        x_l, x_f = z[:n_l], z[n_l:]
        if spec.law == "stationary":
            x_f = x_f - T * (ff @ x_f + fl @ x_l)
        else:
            x_f = (1.0 - T) * (x_f - target) + targets[j]
        return np.concatenate((leaders[j], x_f)), targets[j]

    return step


def per_step_run(spec) -> RunResult:
    """run_scenario as one closure step per law on the leaders-first state:
    every row's state and delta (np.linalg.norm) are appended as the loop
    goes, and the states are copied into agent order row by row."""
    run = compile_run(spec)
    spec, stress, blocks, G, solution = run.spec, run.stress, run.blocks, run.G, run.solution
    partition = spec.partition
    settle_after = spec.schedule.last_step()
    count = min(spec.budget, settle_after + 1) + 1
    leaders = leader_waypoints(spec.schedule, spec.framework.config, partition, 0, count)
    targets = G @ leaders
    step = _law_step(spec, blocks, stress, solution, G, leaders, targets)

    n_l = blocks.n_leaders
    z = np.concatenate((leaders[0], spec.initial_followers))
    target = targets[0]
    zs, deltas = [], []
    run_below_tol = 0
    converged_at = None
    for k in range(spec.budget + 1):
        delta = float(np.linalg.norm(z[n_l:] - target))
        diverged = not delta <= DIVERGENCE_LIMIT
        zs.append(z)
        deltas.append(delta)
        if diverged:
            break
        run_below_tol = run_below_tol + 1 if delta <= spec.tolerance and k >= settle_after else 0
        if run_below_tol == CONVERGENCE_WINDOW:
            converged_at = k - CONVERGENCE_WINDOW + 1
            break
        if k == spec.budget:
            break
        z, target = step(k, z, target)

    states = np.empty((len(zs), partition.n, spec.framework.config.d))
    for k, z in enumerate(zs):
        states[k, partition.rows] = z
    return RunResult(run, states, np.array(deltas), np.array(target), converged_at, diverged)


def per_vertex_points(px, py) -> list:
    """plotting._points one line at a time, each kept vertex written by
    f"{x:.2f},{y:.2f}": one string per column of px and py."""
    lines = []
    for x, y in zip(np.transpose(px), np.transpose(py)):
        keep = np.ones(x.size, dtype=bool)
        rx, ry = np.rint(x), np.rint(y)
        keep[1:-1] = (rx[1:-1] != rx[:-2]) | (ry[1:-1] != ry[:-2])
        lines.append(" ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x[keep].tolist(), y[keep].tolist())))
    return lines
