"""Reference forms the tests compare the package against.

The engine runs one compiled matrix step per law. The per-agent forms of
the stationary and dynamic laws here restate those laws agent by agent,
so that compare_forms can check that each matrix update decomposes into
neighbor-local computations. per_step_transform restates the schedule's
cumulative transform one step and one segment at a time. reassemble_stress
inverts partition_stress. equilibrium_residual measures equilibrium apart
from the certificate's ratio. None of this is a path the package runs.
"""

from __future__ import annotations

import numpy as np

from affinesim import (
    LeaderPartition,
    ManoeuvreSchedule,
    ScenarioSpec,
    StressBlocks,
    StressMatrix,
    run_scenario,
)
from affinesim.control import check_period

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
        i: {j: -result.stress.entries[i - 1, j - 1] for j in sorted(adjacency[i])}
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


def reassemble_stress(blocks: StressBlocks, partition: LeaderPartition) -> StressMatrix:
    """Inverse of partition_stress: blocks back to the original node order."""
    if partition.n != blocks.n_leaders + blocks.n_followers:
        raise ValueError("partition size does not match blocks")
    full = np.block([[blocks.ll, blocks.lf], [blocks.fl, blocks.ff]])
    perm = [i - 1 for i in partition.order()]
    inverse = np.argsort(perm)
    return StressMatrix(full[np.ix_(inverse, inverse)])
