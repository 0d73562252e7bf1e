"""Stress-based affine formation control for leader-follower agent teams.

The package covers the full pipeline: framework and leader-selection
checks, stress assembly and the universal-rigidity certificate (its
hypotheses, then equilibrium, rank and PSD), stress synthesis, affine
manoeuvre schedules evaluated in closed form by
ManoeuvreSchedule.transforms, three discrete-time control laws with their
stability tests, a deterministic scenario engine, and file/CLI front ends.
"""

__version__ = "0.1.0"

from .control import (
    LinearPlant,
    RiccatiSolution,
    SolverError,
    dynamic_leader_step,
    linear_step,
    solve_mare,
    spectral_radius,
    stationary_leader_step,
)
from .engine import (
    CertificateError,
    CompiledRun,
    RunResult,
    ScenarioSpec,
    compile_run,
    run_batch,
    run_scenario,
    stability_flags,
)
from .framework import (
    Configuration,
    Framework,
    Graph,
    LeaderPartition,
    affine_span_dimension,
    is_k_connected,
    vertex_separator,
)
from .maneuvers import (
    KINDS,
    ManoeuvreSchedule,
    ScheduleSegment,
    leader_waypoints,
)
from .stress import (
    HypothesisError,
    LocalizabilityError,
    RigidityCertificate,
    StressBlocks,
    StressMatrix,
    SynthesisError,
    assemble_stress,
    check_rigidity_certificate,
    follower_targets,
    partition_stress,
    synthesize_stress,
)

__all__ = [name for name in dir() if not name.startswith("_")]
