"""Output checks for one benchmark pass, by maths rather than golden bytes.

An operation is one validate, synth or simulate command, or one scenario of
a batch. Each operation that misses any check counts once as failed. The
checks never read the printed stability flags.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import DEFAULT_TOLERANCE, assemble

# Final followers may sit this many times the run's convergence tolerance
# (max-norm) from the targets computed here.
FOLLOWER_SLACK = 10.0
# Relative tolerances for checking a synthesized stress.
EQUILIBRIUM_RTOL = 1e-8
EIGEN_RTOL = 1e-8
RUN_FILES = ("manifest.json", "trace.csv", "summary.json")


def load_weights(path: Path) -> dict:
    return {(int(i), int(j)): float(w) for i, j, w in json.loads(path.read_text())["edges"]}


def follower_targets(omega: np.ndarray, n_leaders: int, leaders: np.ndarray) -> np.ndarray:
    """-Omega_ff^-1 Omega_fl p_l, with leaders the first n_leaders nodes."""
    return -np.linalg.solve(omega[n_leaders:, n_leaders:], omega[n_leaders:, :n_leaders] @ leaders)


def last_trace_step(path: Path) -> int:
    """Step index of the trace's final row, read from the end of the file."""
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 4096))
        last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return int(last.split(b",", 1)[0])


def check_run(in_dir: Path, run_dir: Path, run: dict, plots) -> str | None:
    """Problem with one simulated scenario's outputs, or None."""
    missing = [name for name in (*RUN_FILES, *plots) if not (run_dir / name).is_file()]
    if missing:
        return f"{run_dir.name}: missing {', '.join(missing)}"
    scenario = json.loads((in_dir / run["scenario"]).read_text())
    framework = json.loads((in_dir / scenario["framework"]).read_text())
    tolerance = float(scenario.get("tolerance", DEFAULT_TOLERANCE))
    try:
        summary = json.loads((run_dir / "summary.json").read_text())
        steps = int(summary["steps"])
        if summary["converged_at"] is None or summary["diverged"] or summary["budget_exhausted"]:
            return f"{run_dir.name}: did not converge"
        if not float(summary["final_delta"]) <= tolerance:
            return f"{run_dir.name}: final delta {summary['final_delta']} above {tolerance}"
        leaders = np.array(summary["final_leaders"], dtype=float)
        followers = np.array(summary["final_followers"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{run_dir.name}: unreadable summary ({exc!r})"
    n_leaders = len(framework["leaders"])
    n = len(framework["positions"])
    omega = assemble(load_weights(in_dir / run["truth"]), n)
    expected = follower_targets(omega, n_leaders, leaders)
    if followers.shape != expected.shape:
        return f"{run_dir.name}: final followers have shape {followers.shape}"
    error = float(np.abs(followers - expected).max())
    if not error <= FOLLOWER_SLACK * tolerance:
        return f"{run_dir.name}: final followers miss -Off^-1 Ofl p_l by {error:.3g}"
    try:
        last = last_trace_step(run_dir / "trace.csv")
    except (OSError, ValueError) as exc:
        return f"{run_dir.name}: unreadable trace ({exc!r})"
    if last != steps:
        return f"{run_dir.name}: trace ends at k={last}, summary says {steps} steps"
    return None


def check_stress(framework_path: Path, weights_path: Path) -> str | None:
    """Problem with a synthesized stress, or None: equilibrium, PSD, rank n-d-1."""
    framework = json.loads(framework_path.read_text())
    positions = np.array(framework["positions"], dtype=float)
    n, d = positions.shape
    try:
        omega = assemble(load_weights(weights_path), n)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"{weights_path.name}: unreadable weights ({exc!r})"
    eig = np.linalg.eigvalsh(omega)
    scale = max(float(np.abs(eig).max()), 1e-300)
    residual = float(np.abs(omega @ positions).max())
    if residual > EQUILIBRIUM_RTOL * scale * max(1.0, float(np.abs(positions).max())):
        return f"{weights_path.name}: equilibrium residual {residual:.3g}"
    if eig[0] < -EIGEN_RTOL * scale:
        return f"{weights_path.name}: not PSD (min eigenvalue {eig[0]:.3g})"
    rank = int(np.sum(eig > EIGEN_RTOL * scale))
    if rank != n - d - 1:
        return f"{weights_path.name}: rank {rank}, expected {n - d - 1}"
    return None


def check_pass(plan: dict, in_dir: Path, out_dir: Path, results) -> tuple[int, list]:
    """Check one pass. results holds (exit code, captured output) per command.

    Returns (operations attempted, one message per failed operation).
    """
    attempted, failures = 0, []
    for command, (code, output) in zip(plan["commands"], results, strict=True):
        kind = command["kind"]
        if kind in ("simulate", "batch"):
            problems = []
            for run in command["runs"]:
                attempted += 1
                problem = check_run(in_dir, out_dir / run["out"], run, command["plots"])
                if problem:
                    problems.append(problem)
            if code != 0 and not problems:
                problems.append(f"{kind} exited {code} though every run converged")
            failures.extend(problems)
            continue
        attempted += 1
        if code != 0:
            failures.append(f"{kind} exited {code}: {str(output).strip()[-200:]}")
        elif kind == "validate" and "certificate: PASS" not in output.splitlines():
            failures.append("validate did not print 'certificate: PASS'")
        elif kind == "synth":
            problem = check_stress(in_dir / command["framework"], out_dir / command["weights_out"])
            if problem:
                failures.append(problem)
    return attempted, failures

