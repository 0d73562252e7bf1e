"""Deterministic discrete-time scenario engine.

Wires a framework, a stress matrix, a manoeuvre schedule and one of the
control laws into a run. Each run is compiled once, by compile_run, which
raises every refusal of the run: the stress is resolved and certified,
the follower-block guard runs once while forming the target map
G = -Omega_ff^-1 Omega_fl, the Riccati gain is solved and the stability
flags are read. compile_run also generates every leader waypoint the run
can reach as one array. What runs share, as a batch's do, is built once
per memo by shared, the one sharing rule of the package.
run_scenario then forms their follower targets and the law's constant
operators, and a single stepping loop advances the state (the followers
alone where the leaders are those waypoints), measures the disagreement
against the instantaneous follower targets, and stops once it diverges or
has been in tolerance long enough. A RunResult is the compiled run with
what the loop observed: the states and deltas, one row per step, put
together after the loop, the last row's targets and the outcome.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

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
    EdgeWeights,
    RigidityCertificate,
    StressBlocks,
    StressMatrix,
    assemble_stress,
    check_rigidity_certificate,
    normalize_weights,
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


def shared(memo, key, build, *held):
    """build(), made once per key in memo and returned again for that key.

    memo is the dict that one CLI command or one run_batch call passes to
    every load, compile and manifest of its runs, and drops when it
    returns; None shares nothing. A key's first element names its kind;
    README (Engine and trace) lists the kinds. held are the objects that
    the key names by id(): the memo keeps them alive with the value, so
    that no id is reused while it lives."""
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build(), held
    return memo[key][0]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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
    name exactly the graph's edges, are kept as normalize_weights returns
    them (weights it returned are not normalized again) and assembled here
    into stress.
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

    memo is shared's, the one that the specs of a load share, as a batch's
    do (fileio.load_scenario): through it each pair of graph and normalized
    weights is assembled, each pair of schedule and d checked, and the
    omitted q of each plant dimension checked once; the specs share that q.
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
    memo: InitVar[dict | None] = None

    def __post_init__(self, memo):
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
        graph, d = self.framework.graph, self.framework.config.d
        if self.weights is not None:
            weights = self.weights if isinstance(self.weights, EdgeWeights) else normalize_weights(self.weights.items())
            stress = shared(memo, ("stress", graph, id(weights)), lambda: assemble_stress(graph, weights), weights)
            object.__setattr__(self, "weights", weights)
            object.__setattr__(self, "stress", stress)
        # Each segment at full progress: checks vector lengths, axes and finiteness.
        shared(memo, ("schedule", id(self.schedule), d),
               lambda: self.schedule.transforms(d, self.schedule.last_step(), 1), self.schedule)
        if self.law == "linear":
            if self.plant is None:
                raise ValueError("linear law requires a plant")
            if self.plant.m != self.framework.config.d:
                raise ValueError("plant state dimension must equal the ambient dimension")
            if self.schedule.segments:
                raise ValueError("linear law takes no schedule: its leaders evolve under the law")
            if self.T != 1.0:
                raise ValueError(LINEAR_T_ERROR)
            m = self.plant.m
            if self.q_matrix is None:
                # The omitted q, the m x m identity, is checked once per m.
                q = shared(memo, ("q", m), lambda: riccati_weight(np.eye(m), m, "q"))
            else:
                q = riccati_weight(self.q_matrix, m, "q")
            object.__setattr__(self, "q_matrix", q)
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", 0.0)
            if not np.isfinite(self.epsilon):
                raise ValueError("epsilon must be finite")
            if self.riccati_tol is None:
                object.__setattr__(self, "riccati_tol", 1e-10)
            check_riccati_limits(self.riccati_tol, name="riccati_tol")
        elif any(getattr(self, name) is not None for name in ("plant", "q_matrix", "epsilon", "riccati_tol")):
            raise ValueError(f"{self.law} law takes no plant, q, epsilon or riccati_tol")


def stability_flags(law, T, blocks=None, stress=None, plant=None, solution=None, epsilon=0.0):
    """Stability diagnostics of one law at period T, which compile_run
    records as theorem_flags and the stability command prints. A law reads
    LAW_INPUTS[law], and the linear law epsilon too; an unknown law, a
    missing input and a linear-law T other than 1.0 raise ValueError.
    The eigensolves that read the blocks or the stress alone are their
    cached properties, so runs that share them through shared solve each
    once.

    The stationary law's propagator is I - T * ff, so it is stable when
    each eigenvalue mu of the negated follower block has -2 < T * mu < 0;
    StressBlocks.follower_spectrum refuses a follower block that is not
    symmetric, has mu_min >= 0 or fails check_follower_block.
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
        mu_min, mu_max = blocks.follower_spectrum
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
    modes = A + (1.0 - epsilon * stress.spectrum)[:, None, None] * BK
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
    return stress, certificate, blocks, _read_only(-solve_follower_block(blocks, blocks.fl))


@dataclass(frozen=True)
class CompiledRun:
    """A scenario with the constants of its run worked out: the stress, its
    certificate and blocks, the target map G, the Riccati solution (linear
    law, else None), the stability flags, and every leader waypoint the
    run can reach, leaders (count, n_l, d), read-only. compile_run makes
    one."""

    spec: ScenarioSpec
    stress: StressMatrix
    certificate: RigidityCertificate
    blocks: StressBlocks
    G: np.ndarray
    solution: RiccatiSolution | None
    stability_flags: dict
    leaders: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """A finished run: the CompiledRun it stepped and what its loop observed.

    Row k of states (K+1, n, d), in agent order, and of deltas (K+1,) is
    step k, before the law fires; final_targets (n_f, d) are the follower
    targets of the last row. All three are read-only arrays of their own.
    The stress, its certificate and blocks, and the stability flags are
    run's. A row's flags are the loop's two tests on its delta: in
    tolerance when delta <= run.spec.tolerance, diverged when
    delta <= DIVERGENCE_LIMIT fails, as it does for nan.
    """

    run: CompiledRun
    states: np.ndarray
    deltas: np.ndarray
    final_targets: np.ndarray
    converged_at: int | None
    diverged: bool

    @property
    def budget_exhausted(self) -> bool:
        return self.converged_at is None and not self.diverged

    @property
    def steps(self) -> int:
        return len(self.deltas) - 1

    @property
    def final_delta(self) -> float:
        return float(self.deltas[-1])

    def final_positions(self) -> np.ndarray:
        return self.states[-1]


def compile_run(spec, memo=None) -> CompiledRun:
    """Compile a scenario's run, raising every refusal of it; a CompiledRun
    is returned as it is.

    The refusals: a failed hypothesis of the certificate (HypothesisError),
    a failed synthesis (SynthesisError) or certificate (CertificateError),
    a singular follower block (LocalizabilityError), a Riccati solve that
    breaks down (SolverError) and stability_flags' ValueError. memo is
    shared's: the runs compiled with one memo, as a batch's are, share
    their stress, certificate, blocks and G, their Riccati solution and
    their leader waypoints wherever the keys README lists are equal.
    """
    if isinstance(spec, CompiledRun):
        return spec
    framework, partition, schedule = spec.framework, spec.partition, spec.schedule
    given = None if spec.stress is None else _array_key(spec.stress.entries)
    positions = _array_key(framework.config.positions)
    stress, certificate, blocks, G = shared(memo, ("certified", positions, framework.graph, given, partition),
                                            lambda: _resolve_stress(spec))
    solution = None
    if spec.law == "linear":
        plant = spec.plant
        key = ("riccati", *map(_array_key, (plant.A, plant.B, spec.q_matrix)), spec.riccati_tol)
        solution = shared(memo, key, lambda: solve_mare(plant, spec.q_matrix, tol=spec.riccati_tol))
    flags = stability_flags(spec.law, spec.T, blocks, stress, spec.plant, solution, spec.epsilon)
    count = min(spec.budget, schedule.last_step() + 1) + 1
    leaders = shared(memo, ("waypoints", positions, partition, id(schedule), count),
                     lambda: _read_only(leader_waypoints(schedule, framework.config, partition, 0, count)), schedule)
    return CompiledRun(spec, stress, certificate, blocks, G, solution, flags, leaders)


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
    states are put in agent order once, after the loop; of the targets the
    result keeps the last row's.
    """
    run = compile_run(run)
    spec, stress, blocks, G = run.spec, run.stress, run.blocks, run.G
    partition, law, T = spec.partition, spec.law, spec.T

    settle_after = spec.schedule.last_step()
    leaders = run.leaders
    # The targets are formed per run: a compiled run outlives its stepping
    # while the outputs are written, and (count, n_f, d) is the larger array.
    targets = G @ leaders
    n_l, last, ff, fl = blocks.n_leaders, len(leaders) - 1, blocks.ff, blocks.fl
    # Agent rows in leaders-first order: the loop's state rows are these agents.
    order = np.array([i - 1 for i in partition.order()])
    if law == "linear":
        coupling = np.eye(stress.n) - spec.epsilon * stress.entries[np.ix_(order, order)]
        A_t, BK_t = spec.plant.A.T, (spec.plant.B @ run.solution.K).T
        x = np.concatenate((leaders[0], spec.initial_followers))
    else:
        x = spec.initial_followers
    target = targets[0]
    xs, deltas = [], []
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
            continue
        target = targets[min(k + 1, last)]
        if law == "stationary":
            x = x - T * (ff @ x + fl @ leaders[min(k, last)])
        else:
            # The follower error to the targets t = G x_l contracts by
            # (1 - T); at T = 1 the followers land on t exactly.
            x = (1.0 - T) * error + target

    rows = len(deltas)
    states = np.empty((rows, partition.n, spec.framework.config.d))
    if law == "linear":
        states[:, order] = np.stack(xs)
    else:
        states[:, order[:n_l]] = leaders[np.minimum(np.arange(rows), last)]
        states[:, order[n_l:]] = np.stack(xs)
    # The last row's targets are copied, so that the result does not keep
    # the per-run targets array alive.
    observed = states, np.array(deltas), target.copy()
    for column in observed:
        column.setflags(write=False)
    return RunResult(run, *observed, converged_at, diverged)


def run_batch(runs):
    """Run scenarios one after another; results in input order.

    runs holds ScenarioSpecs or their CompiledRuns. Every spec is compiled,
    in input order with one memo of shared, before any run steps, so the
    first refusal in input order is raised before any run has stepped.
    Runs that share a framework, weights and leader set share one stress,
    certificate and target map; runs that share a plant, Q and riccati_tol
    share one Riccati solve. Each result equals its run_scenario result.
    """
    memo = {}
    compiled = [compile_run(run, memo) for run in runs]
    return [run_scenario(run) for run in compiled]
