"""Deterministic input generator for the affinesim benchmark.

Each workload is a list of affinesim CLI commands plus the plain JSON input
files they read. Every input is derived from the seed alone, so the same
seed writes byte-identical files.

Every framework is built from a known positive-definite follower block:
with leaders 1..d+1 and A = [P, 1] split into leader rows A_l and follower
rows A_f, the matrix

    Omega = W^T Omega_ff W,   W = [-A_f A_l^-1 | I]

is an equilibrium stress (W A = 0), positive semidefinite with rank
n-d-1, and its follower block is exactly Omega_ff. On a complete graph this
passes the rigidity certificate by construction, and the spectrum of
Omega_ff is chosen rather than found, so the stationary law's period and
convergence rate are the same for every seed. The linear law's coupling
is picked by the modal test rho(A + (1 - eps lambda_i) B K) < 1 over the
eigenvalues lambda_i of Omega. Every command therefore succeeds by
construction; a failure the benchmark reports is a failure of the program.

Run as a script to write one workload's inputs:

    python3 perfbench/workloads.py --workload track-n40 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
from pathlib import Path

import numpy as np

# Why each workload exists, and which layers it loads.
WORKLOADS = {
    "track-n40": (
        "one long dynamic-law simulate --plot at n=40, d=2: the per-step core "
        "and trace/SVG output dominate, set-up is a small share"
    ),
    "ensemble-n16": (
        "one batch of 48 short n=16 runs over all three laws: per-run fixed "
        "costs and the thread pool dominate"
    ),
    "certify-d3": (
        "validate, deadbeat simulate, synth and a synthesizing simulate: "
        "connectivity, the certificate eigensolve and synthesis dominate"
    ),
}

# Spectrum of every generated follower block. Its ratio fixes the
# stationary law's slowest mode at 1 - c * LAMBDA_LO / LAMBDA_HI.
LAMBDA_LO, LAMBDA_HI = 1.0, 2.0
# Followers start this far (standard deviation) from the reference.
INITIAL_SPREAD = 0.2
# The engine's default convergence tolerance, which the scenarios leave set.
DEFAULT_TOLERANCE = 1e-9

# Linear plant of the ensemble: a sampled double integrator, open-loop
# marginally unstable with a single input, so the Riccati solve iterates
# (26 times) and every coupled mode decays at most 0.71 per step.
PLANT_A = [[1.0, 0.5], [0.0, 1.0]]
PLANT_B = [[0.0], [1.0]]
# Stability margin: every modal closed-loop radius of the linear law, and
# T * |mu_min| / 2 for the stationary law, stays below this.
STABILITY_MARGIN = 0.9

ENSEMBLE_SIZE = 48
# Per-scenario ranges, spread evenly so every seed has the same mix.
STATIONARY_GAIN = (0.7, 1.3)  # T * |mu_min|; stability needs < 2
DYNAMIC_T = (0.5, 1.5)  # decay |1 - T| <= 0.5
LINEAR_COUPLING = (0.2, 0.5)  # eps * lambda_max(Omega)


def _dump(data, path: Path) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def leader_simplex(d: int) -> np.ndarray:
    """Fixed, well-spread leader positions: a centred simplex of side 2."""
    corners = np.vstack([np.zeros(d), 2.0 * np.eye(d)])
    return corners - corners.mean(axis=0)


def random_orthogonal(m: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def make_framework(n: int, d: int, rng):
    """Positions and a certified complete-graph stress for nodes 1..n.

    Leaders are nodes 1..d+1. Returns (positions, omega) where omega is the
    symmetric stress assembled from its own edge weights.
    """
    n_l = d + 1
    positions = np.vstack([leader_simplex(d), rng.uniform(-1.5, 1.5, size=(n - n_l, d))])
    aug = np.hstack([positions, np.ones((n, 1))])
    bary = aug[n_l:] @ np.linalg.inv(aug[:n_l])
    w_map = np.hstack([-bary, np.eye(n - n_l)])
    rot = random_orthogonal(n - n_l, rng)
    omega_ff = rot @ np.diag(np.linspace(LAMBDA_LO, LAMBDA_HI, n - n_l)) @ rot.T
    return positions, assemble(edge_weights(w_map.T @ omega_ff @ w_map), n)


def edge_weights(omega: np.ndarray) -> dict:
    """Complete-graph edge weights w_ij = -Omega_ij for 1-based i < j."""
    n = omega.shape[0]
    return {(i + 1, j + 1): float(-omega[i, j]) for i, j in itertools.combinations(range(n), 2)}


def assemble(weights: dict, n: int) -> np.ndarray:
    """Stress from edge weights: -w off the diagonal, incident sums on it."""
    omega = np.zeros((n, n))
    for (i, j), w in weights.items():
        omega[i - 1, j - 1] = omega[j - 1, i - 1] = -w
    omega[np.diag_indices(n)] = -omega.sum(axis=1)
    return omega


def weights_to_json(weights: dict) -> dict:
    return {"edges": [[i, j, w] for (i, j), w in sorted(weights.items())]}


def framework_json(positions: np.ndarray) -> dict:
    """Complete graph on the positions, leaders 1..d+1."""
    n, d = positions.shape
    edges = [[i, j] for i, j in itertools.combinations(range(1, n + 1), 2)]
    return {"d": d, "positions": positions.tolist(), "edges": edges, "leaders": list(range(1, d + 2))}


def follower_start(positions: np.ndarray, rng) -> list:
    d = positions.shape[1]
    return (positions[d + 1 :] + rng.normal(scale=INITIAL_SPREAD, size=positions[d + 1 :].shape)).tolist()


def riccati_gain(a, b, tol: float = 1e-10) -> np.ndarray:
    """Gain of the modified Riccati equation with Q = I, by plain iteration."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p = np.eye(a.shape[0])
    while True:
        gain = -np.linalg.solve(b.T @ p @ b, b.T @ p @ a)
        p_next = a.T @ p @ a + a.T @ p @ b @ gain + np.eye(a.shape[0])
        if np.abs(p_next - p).max() <= tol:
            return gain
        p = (p_next + p_next.T) / 2.0


def modal_radius(omega: np.ndarray, eps: float, a, b, gain) -> float:
    """Largest rho(A + (1 - eps lambda_i) B K) over the eigenvalues of Omega."""
    a, bk = np.asarray(a, dtype=float), np.asarray(b, dtype=float) @ gain
    return max(
        float(np.abs(np.linalg.eigvals(a + (1.0 - eps * lam) * bk)).max())
        for lam in np.linalg.eigvalsh(omega)
    )


def _track(rng, out: Path) -> list:
    positions, omega = make_framework(40, 2, rng)
    _dump(framework_json(positions), out / "framework.json")
    _dump(weights_to_json(edge_weights(omega)), out / "weights.json")
    # Four back-to-back linear ramps, 300 steps each.
    kinds = [
        ("rotation", {"angle": float(rng.uniform(0.4, 1.0))}),
        ("scaling", {"c": float(rng.uniform(1.2, 1.6))}),
        ("shear", {"factor": float(rng.uniform(0.2, 0.5)), "axes": [0, 1]}),
        ("translation", {"v": rng.uniform(-2.0, 2.0, size=2).tolist()}),
    ]
    segments = [
        {"k0": 300 * i, "k1": 300 * i + 299, "kind": kind, "params": params, "interp": "linear"}
        for i, (kind, params) in enumerate(kinds)
    ]
    _dump({"segments": segments}, out / "schedule.json")
    _dump(
        {
            "framework": "framework.json",
            "weights": "weights.json",
            "schedule": "schedule.json",
            "law": "dynamic",
            "T": 0.5,
            "initial_followers": follower_start(positions, rng),
        },
        out / "scenario.json",
    )
    return [
        {
            "kind": "simulate",
            "argv": ["simulate", "{in}/scenario.json", "--out", "{out}/run", "--plot"],
            "runs": [{"scenario": "scenario.json", "out": "run", "truth": "weights.json"}],
            "plots": ["trajectories.svg", "delta.svg"],
        }
    ]


def _ensemble(rng, out: Path) -> list:
    positions, omega = make_framework(16, 2, rng)
    _dump(framework_json(positions), out / "framework.json")
    _dump(weights_to_json(edge_weights(omega)), out / "weights.json")
    segments = [
        {"k0": 0, "k1": 19, "kind": "rotation", "params": {"angle": float(rng.uniform(0.3, 0.8))}, "interp": "linear"},
        {"k0": 20, "k1": 39, "kind": "scaling", "params": {"c": float(rng.uniform(1.1, 1.4))}, "interp": "linear"},
    ]
    _dump({"segments": segments}, out / "schedule.json")

    mu_min = -float(np.linalg.eigvalsh(omega[3:, 3:])[-1])
    lam_max = float(np.linalg.eigvalsh(omega)[-1])
    gain = riccati_gain(PLANT_A, PLANT_B)
    per_law = ENSEMBLE_SIZE // 3
    grids = {
        "stationary": np.linspace(*STATIONARY_GAIN, per_law) / -mu_min,
        "dynamic": np.linspace(*DYNAMIC_T, per_law),
        "linear": np.linspace(*LINEAR_COUPLING, per_law) / lam_max,
    }
    for grid in grids.values():
        rng.shuffle(grid)

    runs = []
    for idx in range(ENSEMBLE_SIZE):
        law = ("stationary", "dynamic", "linear")[idx % 3]
        value = float(grids[law][idx // 3])
        scenario = {
            "framework": "framework.json",
            "weights": "weights.json",
            "law": law,
            "initial_followers": follower_start(positions, rng),
        }
        if law == "linear":
            if modal_radius(omega, value, PLANT_A, PLANT_B, gain) >= STABILITY_MARGIN:
                raise RuntimeError(f"linear coupling {value} fails the modal test")
            scenario.update(plant={"A": PLANT_A, "B": PLANT_B}, epsilon=value)
        else:
            if law == "stationary" and not value * mu_min > -2.0 * STABILITY_MARGIN:
                raise RuntimeError(f"stationary period {value} is too close to -2 / mu_min")
            scenario.update(schedule="schedule.json", T=value)
        name = f"s{idx:02d}-{law}"
        _dump(scenario, out / f"{name}.json")
        runs.append({"scenario": f"{name}.json", "out": name, "truth": "weights.json"})
    return [
        {
            "kind": "batch",
            "argv": ["batch", *(f"{{in}}/{r['scenario']}" for r in runs), "--out", "{out}"],
            "runs": runs,
            "plots": [],
        }
    ]


def _certify(rng, out: Path) -> list:
    positions, omega = make_framework(32, 3, rng)
    _dump(framework_json(positions), out / "fw32.json")
    _dump({"n": 32, "entries": omega.tolist()}, out / "stress32.json")
    _dump(weights_to_json(edge_weights(omega)), out / "weights32.json")
    _dump(
        {
            "framework": "fw32.json",
            "weights": "weights32.json",
            "law": "dynamic",
            "T": 1.0,
            "initial_followers": follower_start(positions, rng),
        },
        out / "sim32.json",
    )
    starts = {}
    for d in (2, 3):
        positions, omega = make_framework(7, d, rng)
        starts[d] = follower_start(positions, rng)
        _dump(framework_json(positions), out / f"fw7d{d}.json")
        # Known certificate, used only by the checks.
        _dump(weights_to_json(edge_weights(omega)), out / f"truth7d{d}.json")
    _dump(
        {"framework": "fw7d3.json", "law": "dynamic", "T": 1.0, "initial_followers": starts[3]},
        out / "sim7d3.json",
    )
    return [
        {"kind": "validate", "argv": ["validate", "{in}/fw32.json", "--stress", "{in}/stress32.json"]},
        {
            "kind": "simulate",
            "argv": ["simulate", "{in}/sim32.json", "--out", "{out}/sim32"],
            "runs": [{"scenario": "sim32.json", "out": "sim32", "truth": "weights32.json"}],
            "plots": [],
        },
        {
            "kind": "synth",
            "argv": ["synth", "{in}/fw7d2.json", "--out", "{out}/synth7d2.json"],
            "framework": "fw7d2.json",
            "weights_out": "synth7d2.json",
        },
        {
            "kind": "simulate",
            "argv": ["simulate", "{in}/sim7d3.json", "--out", "{out}/sim7d3"],
            "runs": [{"scenario": "sim7d3.json", "out": "sim7d3", "truth": "truth7d3.json"}],
            "plots": [],
        },
    ]


INPUT_WRITERS = {"track-n40": _track, "ensemble-n16": _ensemble, "certify-d3": _certify}


def generate(workload: str, seed: int, out_dir, variant: int = 0) -> dict:
    """Write one input set for `workload` into out_dir and return its plan.

    The plan lists the CLI commands of one pass. In each command's argv,
    "{in}" stands for the input directory and "{out}" for the pass's output
    directory. Every command is expected to exit 0.
    """
    if workload not in INPUT_WRITERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(INPUT_WRITERS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, variant])
    plan = {"workload": workload, "seed": seed, "variant": variant, "commands": INPUT_WRITERS[workload](rng, out)}
    _dump(plan, out / "plan.json")
    return plan


def plan_runs(plan: dict) -> list:
    """Every simulated scenario of a plan, across its commands."""
    return [run for command in plan["commands"] for run in command.get("runs", ())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUT_WRITERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.variant)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
