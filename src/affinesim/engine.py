"""Deterministic discrete-time scenario engine.

Wires a framework, a stress matrix, a manoeuvre schedule and one of the
control laws into a run. Each run is compiled once: the stress is
resolved and certified, the follower-block guard runs once while forming
the target map G = -Omega_ff^-1 Omega_fl, the law's constant operators are
built, and every leader waypoint the run can reach is generated as one
array; run_batch compiles what its runs share only once. A single
stepping loop then advances the state, measures the disagreement against
the instantaneous follower targets, records whether each row is in
tolerance and whether it diverged, and stops on those two tests. The trace
is the columns of RunResult: one row per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import (
    LinearPlant,
    check_period,
    dynamic_law_stable,
    local_control_input_dynamic,
    local_control_input_stationary,
    riccati_weight,
    solve_mare,
    spectral_radius,
    stationary_disagreement_matrix,
    stationary_law_stable,
)
from .framework import Framework, LeaderPartition, is_integer, is_real, real_array
from .maneuvers import ManoeuvreSchedule, leader_waypoints
from .stress import (
    RigidityCertificate,
    StressBlocks,
    StressMatrix,
    assemble_stress,
    check_rigidity_certificate,
    min_eig_neg_ff,
    partition_stress,
    solve_follower_block,
    synthesize_stress,
)

LAWS = ("stationary", "dynamic", "linear")
# A run aborts with the diverged flag once the disagreement norm passes this.
DIVERGENCE_LIMIT = 1e9
# Convergence is declared after this many consecutive in-tolerance trace rows.
CONVERGENCE_WINDOW = 10
LINEAR_T_ERROR = "linear law takes no T but 1.0: its plant is already sampled"


class CertificateError(RuntimeError):
    """Run refused: the stress failed the rigidity certificate."""

    def __init__(self, certificate: RigidityCertificate):
        self.certificate = certificate
        super().__init__(f"stress failed the rigidity certificate: {certificate}")


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """Complete, reproducible description of one simulation run: the
    scenario file's keys (q_matrix is q; partition, the framework's leaders).

    The framework's configuration is the reference the schedule transforms.
    weights=None requests stress synthesis (deterministic); weights, which must
    name exactly the graph's edges, are assembled here into stress once.
    The linear law additionally needs a plant whose state dimension equals
    d; its gain comes from the Riccati solver with weight matrix q_matrix
    (identity when omitted) and tolerance riccati_tol (1e-10 when omitted).
    Under the linear law every agent, leaders included, evolves by the law,
    so it takes no manoeuvre schedule, and its plant is already sampled, so
    it refuses any T but 1.0. The other laws read no plant,
    q_matrix, epsilon or riccati_tol, so they refuse them. Every number is
    checked here, before a run writes any file: the budget is an integer,
    T, tolerance, epsilon and riccati_tol are real numbers, stored as
    floats, the rest is finite, and each schedule segment is evaluated
    against d.
    """

    framework: Framework
    partition: LeaderPartition
    law: str
    initial_followers: np.ndarray
    T: float = 1.0
    weights: dict | None = None
    schedule: ManoeuvreSchedule = ManoeuvreSchedule()
    budget: int = 2000
    tolerance: float = 1e-9
    plant: LinearPlant | None = None
    q_matrix: np.ndarray | None = None
    epsilon: float = 0.0
    riccati_tol: float | None = None
    stress: StressMatrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("T", "tolerance", "epsilon", "riccati_tol"):
            value = getattr(self, name)
            if value is None and name == "riccati_tol":
                continue
            if not is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.partition.n != self.framework.config.n:
            raise ValueError("partition does not match framework")
        if self.law not in LAWS:
            raise ValueError(f"unknown law {self.law!r}; expected one of {LAWS}")
        check_period(self.T)
        init = real_array(self.initial_followers, "initial_followers")
        expected = (self.partition.n_followers, self.framework.config.d)
        if init.shape != expected:
            raise ValueError(f"initial follower positions must have shape {expected}")
        object.__setattr__(self, "initial_followers", init)
        if not is_integer(self.budget) or self.budget < 1:
            raise ValueError("step budget must be an integer of at least 1")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("convergence tolerance must be positive and finite")
        if self.weights is not None:
            object.__setattr__(self, "stress", assemble_stress(self.framework.graph, self.weights))
            entries = self.stress.entries.tolist()
            weights = {(i, j): -entries[i - 1][j - 1] for i, j in sorted(self.framework.graph.edges)}
            object.__setattr__(self, "weights", weights)
        # Each segment at full progress: checks vector lengths, axes and finiteness.
        self.schedule.transform_at(self.framework.config.d, self.schedule.last_step())
        if self.law == "linear":
            if self.plant is None:
                raise ValueError("linear law requires a plant")
            if self.plant.m != self.framework.config.d:
                raise ValueError("plant state dimension must equal the ambient dimension")
            if self.schedule.segments:
                raise ValueError("linear law takes no schedule: its leaders evolve under the law")
            if self.T != 1.0:
                raise ValueError(LINEAR_T_ERROR)
            q = np.eye(self.plant.m) if self.q_matrix is None else self.q_matrix
            object.__setattr__(self, "q_matrix", riccati_weight(q, self.plant.m, "q"))
            if not np.isfinite(self.epsilon):
                raise ValueError("epsilon must be finite")
            if self.riccati_tol is None:
                object.__setattr__(self, "riccati_tol", 1e-10)
            if not 0.0 < self.riccati_tol < np.inf:
                raise ValueError("riccati_tol must be positive and finite")
        elif (
            self.plant is not None
            or self.q_matrix is not None
            or self.epsilon != 0.0
            or self.riccati_tol is not None
        ):
            raise ValueError(f"{self.law} law takes no plant, q, epsilon or riccati_tol")


@dataclass(frozen=True)
class RunResult:
    """A finished run: its trace as columns, the stress it used, and outcome flags.

    Row k of each column is step k, before the law fires: states
    (K+1, n, d) in agent order, targets (K+1, n_f, d), deltas (K+1,), and
    the per-row flags converged_flags (delta in tolerance) and
    diverged_flags (delta past DIVERGENCE_LIMIT or not finite).
    """

    states: np.ndarray
    targets: np.ndarray
    deltas: np.ndarray
    converged_flags: np.ndarray
    diverged_flags: np.ndarray
    weights: dict
    stress: StressMatrix
    blocks: StressBlocks
    certificate: RigidityCertificate
    stability_flags: dict
    converged_at: int | None
    diverged: bool
    budget_exhausted: bool

    @property
    def steps(self) -> int:
        return len(self.deltas) - 1

    @property
    def final_delta(self) -> float:
        return float(self.deltas[-1])

    def final_positions(self) -> np.ndarray:
        return self.states[-1]


def stability_flags(law, T, blocks=None, stress=None, plant=None, solution=None, epsilon=0.0):
    """Stability diagnostics of one law at period T: the stationary law reads
    the stress blocks, the linear law the stress, plant, Riccati solution
    and coupling epsilon, and the dynamic law T alone."""
    if law == "stationary":
        mu_min = min_eig_neg_ff(blocks)
        return {
            "law": "stationary",
            "T": T,
            "mu_min": mu_min,
            "T_mu_min": T * mu_min,
            "stable": stationary_law_stable(T, mu_min),
            "spectral_radius": spectral_radius(stationary_disagreement_matrix(blocks, T)),
        }
    if law == "dynamic":
        return {
            "law": "dynamic",
            "T": T,
            "decay_factor": abs(1.0 - T),
            "stable": dynamic_law_stable(T),
        }
    # Diagonalising the stress splits the closed loop into the modes
    # A + (1 - eps * lambda_i) B K, one per eigenvalue lambda_i of the stress.
    A, BK = plant.A, plant.B @ solution.K
    modes = A + (1.0 - epsilon * np.linalg.eigvalsh(stress.entries))[:, None, None] * BK
    modal = float(np.abs(np.linalg.eigvals(modes)).max())
    return {
        "law": "linear",
        "T": T,
        "epsilon": epsilon,
        "closed_loop_spectral_radius": spectral_radius(A + BK),
        "modal_spectral_radius": modal,
        "riccati_residual": solution.residual,
        "riccati_iterations": solution.iterations,
        "stable": modal < 1.0,
    }


def _array_key(a: np.ndarray):
    return a.shape, a.tobytes()


def _resolve_stress(spec: ScenarioSpec):
    """Stress, certificate, blocks and the target map G of a framework,
    stress (or synthesis) and leader set."""
    weights, stress = spec.weights, spec.stress
    if stress is None:
        weights, stress, certificate = synthesize_stress(spec.framework)
    else:
        certificate = check_rigidity_certificate(stress, spec.framework)
    if not certificate.passed:
        raise CertificateError(certificate)
    blocks = partition_stress(stress, spec.partition)
    # The follower-block guard runs here; G maps leaders to follower targets.
    G = -solve_follower_block(blocks, blocks.fl)
    G.setflags(write=False)
    return weights, stress, certificate, blocks, G


def _compile(spec: ScenarioSpec, memo: dict):
    """A run's constant inputs (weights, stress, certificate, blocks, G,
    Riccati solution or None), each worked out once per memo. Keys compare
    exact bytes and values: positions, graph, stress (None for synthesis)
    and leader list; A, B, Q and riccati_tol."""
    framework = spec.framework
    stress = None if spec.stress is None else _array_key(spec.stress.entries)
    stress_key = ("stress", _array_key(framework.config.positions), framework.graph, stress, spec.partition)
    if stress_key not in memo:
        memo[stress_key] = _resolve_stress(spec)
    if spec.law != "linear":
        return (*memo[stress_key], None)
    plant = spec.plant
    riccati_key = ("riccati", *map(_array_key, (plant.A, plant.B, spec.q_matrix)), spec.riccati_tol)
    if riccati_key not in memo:
        memo[riccati_key] = solve_mare(plant, spec.q_matrix, tol=spec.riccati_tol)
    return (*memo[stress_key], memo[riccati_key])


def _law_step(spec: ScenarioSpec, blocks: StressBlocks, stress, solution, G, leaders, targets):
    """Map (k, z, target) -> (z, target) at k+1 for a leaders-first state z.

    Steps past the end of leaders and targets hold their last entry."""
    n_l = blocks.n_leaders
    if spec.law == "linear":
        perm = [i - 1 for i in spec.partition.order()]
        coupling = np.eye(stress.n) - spec.epsilon * stress.entries[np.ix_(perm, perm)]
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
            # Dynamic law: the follower error to the targets t = G x_l
            # contracts by (1 - T); at T = 1 the followers land on t exactly.
            x_f = (1.0 - T) * (x_f - target) + targets[j]
        return np.concatenate((leaders[j], x_f)), targets[j]

    return step


def run_scenario(spec: ScenarioSpec, *, _memo=None) -> RunResult:
    """Execute a scenario to convergence, divergence, or budget exhaustion.

    The run is refused when the stress fails the rigidity certificate
    (CertificateError) or its follower block is singular
    (LocalizabilityError); a violated stability condition is only recorded
    in the stability flags, since boundary experiments need unstable runs
    to proceed. Convergence is declared after CONVERGENCE_WINDOW
    consecutive in-tolerance rows, and never before the schedule ends.
    _memo is run_batch's: what the batch's runs share is compiled once.
    """
    weights, stress, certificate, blocks, G, solution = _compile(spec, {} if _memo is None else _memo)
    partition = spec.partition
    flags = stability_flags(spec.law, spec.T, blocks, stress, spec.plant, solution, spec.epsilon)

    settle_after = spec.schedule.last_step()
    count = min(spec.budget, settle_after + 1) + 1
    leaders = leader_waypoints(spec.schedule, spec.framework.config, partition, 0, count)
    targets = G @ leaders
    step = _law_step(spec, blocks, stress, solution, G, leaders, targets)

    n_l = blocks.n_leaders
    z = np.concatenate((leaders[0], spec.initial_followers))
    target = targets[0]
    zs, ts, deltas, in_tolerance, past_limit = [], [], [], [], []
    run_below_tol = 0
    converged_at = None
    for k in range(spec.budget + 1):
        delta = float(np.linalg.norm(z[n_l:] - target))
        converged = delta <= spec.tolerance
        # Written as a negation so that nan, which compares false, diverges.
        diverged = not delta <= DIVERGENCE_LIMIT
        zs.append(z)
        ts.append(target)
        deltas.append(delta)
        in_tolerance.append(converged)
        past_limit.append(diverged)
        if diverged:
            break
        run_below_tol = run_below_tol + 1 if converged and k >= settle_after else 0
        if run_below_tol == CONVERGENCE_WINDOW:
            converged_at = k - CONVERGENCE_WINDOW + 1
            break
        if k == spec.budget:
            break
        z, target = step(k, z, target)

    # One buffer filled in agent order: no second full-size copy of the trace.
    order = np.array([i - 1 for i in partition.order()])
    states = np.empty((len(zs), partition.n, spec.framework.config.d))
    for k, z in enumerate(zs):
        states[k, order] = z
    columns = {
        "states": states,
        "targets": np.stack(ts),
        "deltas": np.array(deltas),
        "converged_flags": np.array(in_tolerance),
        "diverged_flags": np.array(past_limit),
    }
    for column in columns.values():
        column.setflags(write=False)
    return RunResult(
        **columns,
        weights=dict(weights),
        stress=stress,
        blocks=blocks,
        certificate=certificate,
        stability_flags=flags,
        converged_at=converged_at,
        diverged=diverged,
        budget_exhausted=converged_at is None and not diverged,
    )


def run_batch(specs):
    """Run independent scenarios one after another; results in input order.

    Runs that share a framework, weights and leader set share one stress,
    certificate and target map; runs that share a plant, Q and riccati_tol
    share one Riccati solve. Each result equals its run_scenario result.
    """
    memo = {}
    return [run_scenario(spec, _memo=memo) for spec in specs]


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
    graph = spec.framework.graph
    incident = {
        i: {j: result.weights[min(i, j), max(i, j)] for j in graph.neighbors(i)}
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
