"""Command-line front end.

Subcommands: validate (rigidity certificate), synth (stress synthesis),
simulate (scenario run; trace, summary and plots are written from the
run's trace columns), stability (the engine's stability flags for a law),
riccati (gain solver), batch (many scenarios, run one after another).

Exit codes: 0 success/converged, 1 certificate or synthesis failure, 2 parse
or validation failure (a linear-law scenario with a schedule or a T other
than 1, another law's with a plant, q, epsilon or riccati_tol, an unknown
key, an integer too large for a float, and a stability option the law does
not read, included; batch loads every scenario before writing any file),
3 diverged, 4 step budget exhausted, 5 numerical solver failure (singular
follower block, Riccati budget). Console numerics are printed to 6
significant digits; files carry full precision.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, fileio
from .control import SolverError, LinearPlant, solve_mare, spectral_radius, check_period
from .engine import LAWS, LINEAR_T_ERROR, CertificateError, run_batch, run_scenario, stability_flags
from .framework import LeaderPartition, real_array, validate_leader_selection, vertex_separator
from .plotting import delta_svg, trajectory_svg
from .stress import (
    LocalizabilityError,
    SynthesisError,
    assemble_stress,
    check_rigidity_certificate,
    partition_stress,
    synthesize_stress,
    verify_equilibrium,
)

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_PARSE = 2
EXIT_DIVERGED = 3
EXIT_BUDGET = 4
EXIT_SOLVER = 5


def _fmt(x) -> str:
    return f"{float(x):.6g}"


def _print_matrix(label: str, mat: np.ndarray):
    print(f"{label}:")
    for row in np.atleast_2d(mat):
        print("  [" + ", ".join(_fmt(v) for v in row) + "]")


def _connectivity(separator) -> str:
    if separator is None:
        return "yes"
    return f"no (removing {', '.join(map(str, separator)) or 'nothing'} disconnects the graph)"


def _print_certificate(cert) -> None:
    print(f"rank: {cert.rank}/{cert.expected_rank}")
    print(f"min eigenvalue: {_fmt(cert.min_eigenvalue)}")
    print(f"PSD: {'yes' if cert.psd else 'no'}")
    print(f"connectivity: {_connectivity(cert.separator)}")
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'}")


def _print_flags(flags: dict) -> None:
    for key, value in sorted(flags.items()):
        print(f"{key}: {value if isinstance(value, (str, bool)) else _fmt(value)}")


def cmd_validate(args) -> int:
    framework, partition = fileio.load_framework(args.framework)
    n, d = framework.config.n, framework.config.d
    print(f"nodes: {n}  dimension: {d}  edges: {len(framework.graph.edges)}")

    stress = None
    if args.stress:
        stress = fileio.load_stress(args.stress)
    elif args.weights:
        stress = assemble_stress(framework.graph, fileio.load_weights(args.weights))

    leaders_ok = True
    if partition is not None:
        report = validate_leader_selection(framework, partition)
        leaders_ok = report.passed
        print(
            f"leaders: {report.n_leaders}/{report.required_leaders} required, "
            f"span {report.span_dimension}/{d}: {'ok' if report.passed else 'FAIL'}"
        )

    if stress is None:
        size_ok = n >= d + 2
        if not size_ok:
            print(f"certificate impossible: n = {n} < d+2 = {d + 2}")
        separator = vertex_separator(framework.graph, d + 1) if size_ok else ()
        print(f"connectivity ({d + 1}-connected): {_connectivity(separator) if size_ok else 'no'}")
        passed = size_ok and separator is None and leaders_ok
        print(f"structural checks: {'PASS' if passed else 'FAIL'} (no stress supplied)")
        return EXIT_OK if passed else EXIT_CERTIFICATE

    print(f"equilibrium residual: {_fmt(verify_equilibrium(stress, framework.config))}")
    try:
        cert = check_rigidity_certificate(stress, framework)
    except ValueError as exc:
        print(f"certificate impossible: {exc}")
        return EXIT_CERTIFICATE
    _print_certificate(cert)
    return EXIT_OK if cert.passed and leaders_ok else EXIT_CERTIFICATE


def cmd_synth(args) -> int:
    framework, _ = fileio.load_framework(args.framework)
    weights, _, cert = synthesize_stress(framework)
    fileio.save_weights(weights, args.out)
    print(f"wrote {args.out}")
    _print_certificate(cert)
    return EXIT_OK


def _write_run_outputs(spec, result, out_dir: Path, plot: bool):
    d = spec.framework.config.d
    fileio.write_trace(result, out_dir / "trace.csv")
    fileio.write_summary(result, spec.partition, out_dir / "summary.json")
    written = ["manifest.json", "trace.csv", "summary.json"]
    if plot:
        if d == 2:
            (out_dir / "trajectories.svg").write_text(
                trajectory_svg(result, spec.partition)
            )
            written.append("trajectories.svg")
        else:
            print("trajectory plot skipped: only d=2 is drawable")
        (out_dir / "delta.svg").write_text(delta_svg(result))
        written.append("delta.svg")
    return written


def _outcome_exit(result) -> int:
    if result.diverged:
        return EXIT_DIVERGED
    if result.budget_exhausted:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = fileio.load_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_manifest(spec, args.scenario, out_dir, out_dir / "manifest.json")

    result = run_scenario(spec)
    written = _write_run_outputs(spec, result, out_dir, args.plot)

    print(f"steps: {result.steps}")
    print(f"final delta: {_fmt(result.final_delta)}")
    _print_flags(result.stability_flags)
    if result.converged_at is not None:
        print(f"outcome: converged at k={result.converged_at}")
    elif result.diverged:
        print(f"outcome: DIVERGED at k={result.steps}")
    else:
        print("outcome: step budget exhausted")
    print("wrote: " + " ".join(str(out_dir / name) for name in written))
    return _outcome_exit(result)


def cmd_batch(args) -> int:
    parsed = {}
    # Every scenario is loaded, and so checked, before any file is written.
    specs = [fileio.load_scenario(raw, _parsed=parsed) for raw in args.scenarios]
    runs = [(raw, spec, Path(args.out) / Path(raw).stem) for raw, spec in zip(args.scenarios, specs)]
    owners = {}
    for raw, _, out_dir in runs:
        if out_dir in owners:
            raise fileio.ParseError(f"{owners[out_dir]} and {raw} would both write {out_dir}")
        owners[out_dir] = raw
    for raw, spec, out_dir in runs:
        out_dir.mkdir(parents=True, exist_ok=True)
        fileio.save_manifest(spec, raw, out_dir, out_dir / "manifest.json")

    codes = []
    for (raw, spec, out_dir), result in zip(runs, run_batch(specs)):
        _write_run_outputs(spec, result, out_dir, args.plot)
        code = _outcome_exit(result)
        codes.append(code)
        state = {0: "converged", 3: "diverged", 4: "budget"}[code]
        print(f"{raw}: {state}, steps={result.steps}, final delta={_fmt(result.final_delta)}")
    if any(c == EXIT_DIVERGED for c in codes):
        return EXIT_DIVERGED
    if any(c == EXIT_BUDGET for c in codes):
        return EXIT_BUDGET
    return EXIT_OK


# The options each law's stability report reads; the others are refused.
STABILITY_OPTIONS = {
    "stationary": ("stress", "leaders"),
    "dynamic": (),
    "linear": ("stress", "A", "B", "epsilon"),
}


def cmd_stability(args) -> int:
    T = check_period(args.T)
    unread = [
        f"--{name}"
        for name in ("stress", "leaders", "A", "B", "epsilon")
        if getattr(args, name) is not None and name not in STABILITY_OPTIONS[args.law]
    ]
    if unread:
        raise fileio.ParseError(f"{args.law} stability reads no {', '.join(unread)}")
    epsilon = float(real_array(0.0 if args.epsilon is None else args.epsilon, "epsilon"))
    print(f"law: {args.law}")
    if args.law == "dynamic":
        flags = stability_flags("dynamic", T)
        factor = flags["decay_factor"]
        print(f"decay factor |1-T|: {_fmt(factor)}")
        print(f"disagreement spectral radius: {_fmt(factor)}")
        if flags["stable"]:
            print(f"T = {_fmt(T)} < 2: stable, decay {_fmt(factor)} per step")
        elif T == 2.0:
            print("marginally unstable (|1-T| = 1)")
        else:
            print(f"T = {_fmt(T)}: UNSTABLE (|1-T| = {_fmt(factor)} >= 1)")
        return EXIT_OK

    if args.law == "linear" and T != 1.0:
        raise ValueError(LINEAR_T_ERROR)
    if args.law == "linear" and not (args.stress and args.A and args.B):
        raise fileio.ParseError("linear stability needs --stress, --A and --B")
    if args.law == "stationary" and not (args.stress and args.leaders):
        raise fileio.ParseError("stationary stability needs --stress and --leaders")
    stress = fileio.load_stress(args.stress)
    if args.law == "linear":
        plant = LinearPlant(fileio.load_matrix(args.A), fileio.load_matrix(args.B))
        solution = solve_mare(plant, np.eye(plant.m))
        _print_flags(stability_flags("linear", T, None, stress, plant, solution, epsilon))
        return EXIT_OK

    leaders = [int(tok) for tok in args.leaders.split(",") if tok.strip()]
    partition = LeaderPartition.from_leaders(leaders, stress.n)
    flags = stability_flags("stationary", T, partition_stress(stress, partition))
    print(f"mu_min: {_fmt(flags['mu_min'])}")
    relation, verdict = (">", "stable") if flags["stable"] else ("<=", "UNSTABLE")
    print(f"T*mu_min = {_fmt(flags['T_mu_min'])} {relation} -2: {verdict}")
    print(f"disagreement spectral radius: {_fmt(flags['spectral_radius'])}")
    return EXIT_OK


def cmd_riccati(args) -> int:
    plant = LinearPlant(fileio.load_matrix(args.A), fileio.load_matrix(args.B))
    Q = np.eye(plant.m) if args.Q is None else fileio.load_matrix(args.Q)
    solution = solve_mare(plant, Q, tol=args.tol, max_iter=args.max_iter)
    _print_matrix("P", solution.P)
    _print_matrix("K", solution.K)
    print(f"residual: {_fmt(solution.residual)}")
    print(f"iterations: {solution.iterations}")
    print(f"closed-loop spectral radius: {_fmt(spectral_radius(plant.A + plant.B @ solution.K))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinesim",
        description="Stress-based affine formation control: validation, synthesis, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the rigidity certificate of a framework/stress pair")
    p.add_argument("framework", help="framework JSON file")
    p.add_argument("--stress", help="stress matrix JSON file")
    p.add_argument("--weights", help="edge weights JSON file (assembled into a stress)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="synthesize a certificate-passing stress")
    p.add_argument("framework", help="framework JSON file")
    p.add_argument("--out", default="weights.json", help="output weights file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run a scenario (or re-run a manifest)")
    p.add_argument("scenario", help="scenario or manifest JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--plot", action="store_true", help="also write SVG plots")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("batch", help="run several scenarios one after another")
    p.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p.add_argument("--out", required=True, help="output root directory")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("stability", help="stability report for a law and sampling period")
    p.add_argument("--law", choices=LAWS, required=True)
    p.add_argument("--T", type=float, required=True, help="sampling period")
    p.add_argument("--stress", help="stress JSON (stationary and linear laws)")
    p.add_argument("--leaders", help="comma-separated leader ids (stationary law)")
    p.add_argument("--A", help="plant state matrix JSON (linear law)")
    p.add_argument("--B", help="plant input matrix JSON (linear law)")
    p.add_argument("--epsilon", type=float, help="stress coupling (linear law; default 0)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("riccati", help="solve the modified Riccati equation for a gain")
    p.add_argument("--A", required=True, help="state matrix JSON")
    p.add_argument("--B", required=True, help="input matrix JSON")
    p.add_argument("--Q", help="weight matrix JSON (default identity)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100000, dest="max_iter")
    p.set_defaults(func=cmd_riccati)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fileio.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CertificateError as exc:
        print("run refused:", file=sys.stderr)
        _print_certificate(exc.certificate)
        return EXIT_CERTIFICATE
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (LocalizabilityError, SolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
