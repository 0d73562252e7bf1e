"""Deterministic discrete-time scenario engine.

Wires a framework, a stress matrix, a manoeuvre schedule and one of the
control laws into a run. Each run is compiled once, by compile_run, which
raises every refusal of the run: the stress is resolved and certified,
the follower-block guard runs once while forming the target map
G = -Omega_ff^-1 Omega_fl, the Riccati gain is solved and the stability
flags are read; runs that share a memo, as a batch's do, compile what they
share only once. run_scenario then builds the law's constant operators and
generates every leader waypoint the run can reach as one array, and a
single stepping loop advances the state (the followers alone where the
leaders are those waypoints), measures the disagreement against the
instantaneous follower targets, and stops once it diverges or has been
in tolerance long enough. The trace is the columns of RunResult, one row
per step, put together after the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import (
    LinearPlant,
    RiccatiSolution,
    check_period,
    check_riccati_limits,
    riccati_weight,
    solve_mare,
    spectral_radius,
)
from .framework import Framework, LeaderPartition, is_integer, is_real, real_array
from .maneuvers import ManoeuvreSchedule, leader_waypoints
from .stress import (
    RigidityCertificate,
    StressBlocks,
    StressMatrix,
    assemble_stress,
    check_follower_block,
    check_rigidity_certificate,
    partition_stress,
    solve_follower_block,
    synthesize_stress,
)

# Each law and the inputs its stability verdict reads; stability_flags refuses others.
LAW_INPUTS = {"stationary": ("blocks",), "dynamic": (), "linear": ("stress", "plant", "solution")}
LAWS = tuple(LAW_INPUTS)
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
    (identity when omitted) and tolerance riccati_tol (1e-10 when omitted),
    and its stress coupling is epsilon (0.0 when omitted). Under the linear
    law every agent, leaders included, evolves by the law, so it takes no
    manoeuvre schedule, and its plant is already sampled, so it refuses any
    T but 1.0. The other laws read no plant, q_matrix, epsilon or
    riccati_tol, so they refuse each of them given, 0.0 included. Every
    number is checked here, before a run writes any file: the budget is an
    integer, T, tolerance, epsilon and riccati_tol are real numbers, stored
    as floats, the rest is finite, and each schedule segment is evaluated
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
    epsilon: float | None = None
    riccati_tol: float | None = None
    stress: StressMatrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("T", "tolerance", "epsilon", "riccati_tol"):
            value = getattr(self, name)
            if value is None and name in ("epsilon", "riccati_tol"):
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
        self.schedule.transforms(self.framework.config.d, self.schedule.last_step(), 1)
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
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", 0.0)
            if not np.isfinite(self.epsilon):
                raise ValueError("epsilon must be finite")
            if self.riccati_tol is None:
                object.__setattr__(self, "riccati_tol", 1e-10)
            check_riccati_limits(self.riccati_tol, name="riccati_tol")
        elif any(getattr(self, name) is not None for name in ("plant", "q_matrix", "epsilon", "riccati_tol")):
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
    """Stability diagnostics of one law at period T, which compile_run
    records as theorem_flags and the stability command prints. A law reads
    LAW_INPUTS[law], and the linear law epsilon too; an unknown law, a
    missing input and a linear-law T other than 1.0 raise ValueError.

    The stationary law's propagator is I - T * ff, so it is stable when
    each eigenvalue mu of the negated follower block has -2 < T * mu < 0.
    Its follower block must be symmetric, with mu_min negative (else the
    stress certificate upstream is broken), and pass check_follower_block.
    The dynamic law contracts its disagreement by |1 - T| per step, so it
    is stable when that factor is below 1.
    """
    if law not in LAW_INPUTS:
        raise ValueError(f"unknown law {law!r}; expected one of {LAWS}")
    given = {"blocks": blocks, "stress": stress, "plant": plant, "solution": solution}
    missing = [name for name in LAW_INPUTS[law] if given[name] is None]
    if missing:
        raise ValueError(f"{law} stability needs {', '.join(missing)}")
    T = check_period(T)
    if law == "linear" and T != 1.0:
        raise ValueError(LINEAR_T_ERROR)
    if law == "stationary":
        if not np.array_equal(blocks.ff, blocks.ff.T):
            raise ValueError("follower block must be symmetric")
        mu = np.linalg.eigvalsh(-blocks.ff)
        mu_min, mu_max = float(mu[0]), float(mu[-1])
        if mu_min >= 0.0:
            raise ValueError(f"mu_min must be negative, got {mu_min}; stress certificate is broken")
        # compile_run's guard, so that the same leader sets are refused.
        check_follower_block(blocks)
        return {
            "law": "stationary",
            "T": T,
            "mu_min": mu_min,
            "T_mu_min": T * mu_min,
            "stable": T * mu_min > -2.0 and mu_max < 0.0,
            "spectral_radius": spectral_radius(np.eye(blocks.n_followers) - T * blocks.ff),
        }
    if law == "dynamic":
        decay_factor = abs(1.0 - T)
        return {"law": "dynamic", "T": T, "decay_factor": decay_factor, "stable": decay_factor < 1.0}
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
    stress = spec.stress
    if stress is None:
        _, stress, certificate = synthesize_stress(spec.framework)
    else:
        certificate = check_rigidity_certificate(stress, spec.framework)
    if not certificate.passed:
        raise CertificateError(certificate)
    blocks = partition_stress(stress, spec.partition)
    # The follower-block guard runs here; G maps leaders to follower targets.
    G = -solve_follower_block(blocks, blocks.fl)
    G.setflags(write=False)
    return stress, certificate, blocks, G


@dataclass(frozen=True)
class CompiledRun:
    """A scenario with the constants of its run worked out: the stress, its
    certificate and blocks, the target map G, the Riccati solution (linear
    law, else None) and the stability flags. compile_run makes one."""

    spec: ScenarioSpec
    stress: StressMatrix
    certificate: RigidityCertificate
    blocks: StressBlocks
    G: np.ndarray
    solution: RiccatiSolution | None
    stability_flags: dict


def compile_run(spec, memo=None) -> CompiledRun:
    """Compile a scenario's run, raising every refusal of it; a CompiledRun
    is returned as it is.

    The refusals: a failed hypothesis of the certificate (HypothesisError),
    a failed synthesis (SynthesisError) or certificate (CertificateError),
    a singular follower block (LocalizabilityError), a Riccati solve that
    breaks down (SolverError) and stability_flags' ValueError. memo is a
    dict that the runs of one batch share, so that each input below is
    worked out once per memo. Keys compare exact bytes and values:
    positions, graph, stress (None for synthesis) and leader list for the
    stress, certificate, blocks and G; A, B, Q and riccati_tol for the
    Riccati solution.
    """
    if isinstance(spec, CompiledRun):
        return spec
    memo = {} if memo is None else memo
    framework = spec.framework
    given = None if spec.stress is None else _array_key(spec.stress.entries)
    stress_key = ("stress", _array_key(framework.config.positions), framework.graph, given, spec.partition)
    if stress_key not in memo:
        memo[stress_key] = _resolve_stress(spec)
    stress, certificate, blocks, G = memo[stress_key]
    solution = None
    if spec.law == "linear":
        plant = spec.plant
        riccati_key = ("riccati", *map(_array_key, (plant.A, plant.B, spec.q_matrix)), spec.riccati_tol)
        if riccati_key not in memo:
            memo[riccati_key] = solve_mare(plant, spec.q_matrix, tol=spec.riccati_tol)
        solution = memo[riccati_key]
    flags = stability_flags(spec.law, spec.T, blocks, stress, spec.plant, solution, spec.epsilon)
    return CompiledRun(spec, stress, certificate, blocks, G, solution, flags)


def run_scenario(run) -> RunResult:
    """Execute a scenario, or the CompiledRun compile_run made of one, to
    convergence, divergence, or budget exhaustion.

    The run is refused, before it steps, on any of compile_run's refusals:
    a stress that fails the rigidity certificate (CertificateError) or a
    singular follower block (LocalizabilityError), among others. A violated
    stability condition is only recorded in the stability flags, since
    boundary experiments need unstable runs to proceed. Convergence is
    declared after CONVERGENCE_WINDOW consecutive in-tolerance rows, and
    never before the schedule ends.

    Under the stationary and dynamic laws the leaders of row k are the
    waypoint leaders[min(k, last)], so the loop carries the followers
    alone; the linear law moves its leaders too, and carries the whole
    leaders-first state. delta is np.linalg.norm's arithmetic (ravel, dot,
    sqrt) on the follower error, which the dynamic law steps on. The
    states are put in agent order once, after the loop.
    """
    run = compile_run(run)
    spec, stress, blocks, G = run.spec, run.stress, run.blocks, run.G
    partition, law, T = spec.partition, spec.law, spec.T

    settle_after = spec.schedule.last_step()
    count = min(spec.budget, settle_after + 1) + 1
    leaders = leader_waypoints(spec.schedule, spec.framework.config, partition, 0, count)
    targets = G @ leaders
    n_l, last, ff, fl = blocks.n_leaders, count - 1, blocks.ff, blocks.fl
    if law == "linear":
        perm = [i - 1 for i in partition.order()]
        coupling = np.eye(stress.n) - spec.epsilon * stress.entries[np.ix_(perm, perm)]
        A_t, BK_t = spec.plant.A.T, (spec.plant.B @ run.solution.K).T
        x = np.concatenate((leaders[0], spec.initial_followers))
    else:
        x = spec.initial_followers
    target = targets[0]
    xs, ts, deltas = [], [target], []
    run_below_tol = 0
    converged_at = None
    for k in range(spec.budget + 1):
        error = (x[n_l:] if law == "linear" else x) - target
        flat = error.ravel()
        delta = math.sqrt(flat.dot(flat))
        xs.append(x)
        deltas.append(delta)
        # Written as a negation so that nan, which compares false, diverges.
        diverged = not delta <= DIVERGENCE_LIMIT
        if diverged:
            break
        run_below_tol = run_below_tol + 1 if delta <= spec.tolerance and k >= settle_after else 0
        if run_below_tol == CONVERGENCE_WINDOW:
            converged_at = k - CONVERGENCE_WINDOW + 1
            break
        if k == spec.budget:
            break
        if law == "linear":
            x = x @ A_t + coupling @ x @ BK_t
            target = G @ x[:n_l]
            ts.append(target)
            continue
        target = targets[min(k + 1, last)]
        if law == "stationary":
            x = x - T * (ff @ x + fl @ leaders[min(k, last)])
        else:
            # The follower error to the targets t = G x_l contracts by
            # (1 - T); at T = 1 the followers land on t exactly.
            x = (1.0 - T) * error + target

    rows = len(deltas)
    order = np.array([i - 1 for i in partition.order()])
    states = np.empty((rows, partition.n, spec.framework.config.d))
    if law == "linear":
        states[:, order] = np.stack(xs)
        targets = np.stack(ts)
    else:
        held = np.minimum(np.arange(rows), last)
        states[:, order[:n_l]] = leaders[held]
        states[:, order[n_l:]] = np.stack(xs)
        targets = targets[held]
    deltas = np.array(deltas)
    columns = {
        "states": states,
        "targets": targets,
        "deltas": deltas,
        "converged_flags": deltas <= spec.tolerance,
        "diverged_flags": ~(deltas <= DIVERGENCE_LIMIT),
    }
    for column in columns.values():
        column.setflags(write=False)
    return RunResult(
        **columns,
        stress=stress,
        blocks=blocks,
        certificate=run.certificate,
        stability_flags=run.stability_flags,
        converged_at=converged_at,
        diverged=diverged,
        budget_exhausted=converged_at is None and not diverged,
    )


def run_batch(runs):
    """Run scenarios one after another; results in input order.

    runs holds ScenarioSpecs or their CompiledRuns. Every spec is compiled,
    in input order, before any run steps, so the first refusal in input
    order is raised before any run has stepped. Runs that share a
    framework, weights and leader set share one stress, certificate and
    target map; runs that share a plant, Q and riccati_tol share one
    Riccati solve. Each result equals its run_scenario result. affinesim
    batch compiles its runs itself, then gives each worker process its
    share of them here.
    """
    memo = {}
    compiled = [compile_run(run, memo) for run in runs]
    return [run_scenario(run) for run in compiled]
