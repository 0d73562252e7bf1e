"""Command-line front end.

Subcommands: validate (the certificate's hypotheses, and with a stress the
rigidity certificate), synth (stress synthesis), stability (compiles a
scenario or manifest as simulate does and prints its run's flag lines,
writing no file), riccati (the same for a linear-law run's Riccati
solution), and simulate and batch, which differ only in how they load
their scenarios and report a run. simulate is a batch of one run, and both
go through one pipeline, _run: every run is compiled here in input order,
with the memo of engine.shared that its load filled, so that every refusal
is decided before any file but the manifests is written; a refused run
reports on stderr alone, after the scenario's path and ": " in a batch.
The runs are then split with workers.split over one forked worker per
usable CPU, each writing its runs' manifests, traces, summaries and
plots; their stdout texts are printed here in input order.
One run is one share that forks no worker, so fileio.write_trace still
splits its large trace's rows over two CPUs.

Exit codes: 0 success/converged, 1 certificate or synthesis failure (a
failed hypothesis of the certificate, n < d+2, positions that do not
affinely span R^d or a graph that is not (d+1)-connected, included: every
command names it on stderr in the same words), 2 parse or validation
failure (a linear-law scenario with a schedule or a T other than 1, another
law's with a plant, q, epsilon or riccati_tol, an unknown key, an integer
too large for a float, validate given both --stress and --weights or a
stress whose size is not the framework's or with a nonzero entry off the
graph's edges, a riccati scenario whose law is not linear, and a failed
batch worker, with its message, included), 3 diverged (in a batch, before
4), 4 step budget exhausted, 5 numerical solver failure (singular follower
block, Riccati budget).
Console numerics are printed to 6 significant digits; files carry full
precision.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, fileio, workers
from .control import SolverError
from .engine import CertificateError, compile_run, run_scenario
from .framework import affine_span_dimension
from .plotting import delta_svg, trajectory_svg
from .stress import (
    HypothesisError,
    LocalizabilityError,
    SynthesisError,
    assemble_stress,
    check_rigidity_certificate,
    synthesize_stress,
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


def _print_certificate(cert, file=None) -> None:
    print(f"rank: {cert.rank}/{cert.expected_rank}", file=file)
    print(f"min eigenvalue: {_fmt(cert.min_eigenvalue)}", file=file)
    print(f"PSD: {'yes' if cert.psd else 'no'}", file=file)
    print(f"equilibrium ratio: {_fmt(cert.equilibrium_ratio)}", file=file)
    print(f"equilibrium: {'yes' if cert.equilibrium else 'no'}", file=file)
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'}", file=file)


def _flags_text(flags: dict) -> str:
    return "".join(f"{key}: {value if isinstance(value, (str, bool)) else _fmt(value)}\n"
                   for key, value in sorted(flags.items()))


def cmd_validate(args) -> int:
    framework, partition = fileio.load_framework(args.framework)
    stress = None
    if args.stress:
        stress = fileio.load_stress(args.stress)
    elif args.weights:
        stress = assemble_stress(framework.graph, fileio.load_weights(args.weights))
    # Every refusal, and a failed hypothesis, comes before the first line on stdout.
    cert = check_rigidity_certificate(stress, framework)

    d = framework.config.d
    print(f"nodes: {framework.config.n}  dimension: {d}  edges: {len(framework.graph.edges)}")
    leaders_ok = True
    if partition is not None:
        # The leaders must affinely span R^d: with a certified stress the
        # follower block is then nonsingular (Zhao, IEEE TAC 2018).
        n_l = partition.n_leaders
        span = affine_span_dimension(framework.config.positions[partition.rows[:n_l]]) if n_l else 0
        leaders_ok = span == d
        print(f"leaders: {n_l}/{d + 1} required, span {span}/{d}: {'ok' if leaders_ok else 'FAIL'}")

    if cert is None:
        print(f"structural checks: {'PASS' if leaders_ok else 'FAIL'} (no stress supplied)")
        return EXIT_OK if leaders_ok else EXIT_CERTIFICATE
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
    """Write the trace, the summary and the plots; return the names
    written, manifest.json first, and the text to print before the run's
    report."""
    fileio.write_trace(result, out_dir / "trace.csv")
    fileio.write_summary(result, spec.partition, out_dir / "summary.json")
    written, notes = ["manifest.json", "trace.csv", "summary.json"], ""
    if plot:
        if spec.framework.config.d == 2:
            (out_dir / "trajectories.svg").write_text(trajectory_svg(result, spec.partition))
            written.append("trajectories.svg")
        else:
            notes = "trajectory plot skipped: only d=2 is drawable\n"
        (out_dir / "delta.svg").write_text(delta_svg(result))
        written.append("delta.svg")
    return written, notes


def _save_manifest(memo, raw, spec, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_manifest(spec, raw, out_dir, out_dir / "manifest.json", memo)


def _run(runs, plot: bool, where: str, report, memo) -> int:
    """Run every (raw, spec, out_dir) of runs, the one pipeline of simulate
    and batch; return the exit code.

    memo is engine.shared's, the one the runs were loaded with: every run
    is compiled with it, in input order, before any file is written, and
    the manifests written with it encode each framework and weights text
    once (fileio.save_manifest). A refusal writes every run's manifest and
    nothing else, and is reported on stderr after where.format(raw), raw
    the refused run's. Otherwise the runs are split with workers.split,
    whose forked workers inherit the memo: each share, run by run, writes
    the manifest, steps the run and writes its outputs, so that it holds
    one result at a time, and returns for each run its exit code and its
    stdout text, report(run, result, written). The texts are printed here
    in input order.
    """
    compiled = []
    for raw, spec, _ in runs:
        try:
            compiled.append(compile_run(spec, memo))
        except REPORTED as exc:
            for run in runs:
                _save_manifest(memo, *run)
            return _report(exc, where.format(raw))

    def share(indices):
        outputs = []
        for i in indices:
            _save_manifest(memo, *runs[i])
            result = run_scenario(compiled[i])
            _, spec, out_dir = runs[i]
            written, notes = _write_run_outputs(spec, result, out_dir, plot)
            code = EXIT_DIVERGED if result.diverged else EXIT_BUDGET if result.budget_exhausted else EXIT_OK
            outputs.append((code, notes + report(runs[i], result, written)))
        return outputs

    outputs = workers.split(len(runs), share)
    print("".join(text for _, text in outputs), end="")
    codes = {code for code, _ in outputs}
    return next((code for code in (EXIT_DIVERGED, EXIT_BUDGET) if code in codes), EXIT_OK)


def _simulate_report(run, result, written) -> str:
    if result.converged_at is not None:
        outcome = f"converged at k={result.converged_at}"
    elif result.diverged:
        outcome = f"DIVERGED at k={result.steps}"
    else:
        outcome = "step budget exhausted"
    return (
        f"steps: {result.steps}\nfinal delta: {_fmt(result.final_delta)}\n"
        + _flags_text(result.run.stability_flags)
        + f"outcome: {outcome}\nwrote: {' '.join(str(run[2] / name) for name in written)}\n"
    )


def cmd_simulate(args) -> int:
    memo = {}
    spec = fileio.load_scenario(args.scenario, memo)
    return _run([(args.scenario, spec, Path(args.out))], args.plot, "", _simulate_report, memo)


def _batch_report(run, result, written) -> str:
    state = "converged" if result.converged_at is not None else "diverged" if result.diverged else "budget"
    return f"{run[0]}: {state}, steps={result.steps}, final delta={_fmt(result.final_delta)}\n"


def cmd_batch(args) -> int:
    memo = {}
    # Every scenario is loaded, and so checked, before any file is written.
    specs = [fileio.load_scenario(raw, memo) for raw in args.scenarios]
    runs = [(raw, spec, Path(args.out) / Path(raw).stem) for raw, spec in zip(args.scenarios, specs)]
    owners = {}
    for raw, _, out_dir in runs:
        if out_dir in owners:
            raise fileio.ParseError(f"{owners[out_dir]} and {raw} would both write {out_dir}")
        owners[out_dir] = raw
    return _run(runs, args.plot, "{}: ", _batch_report, memo)


def cmd_stability(args) -> int:
    # The run's own compile, so every refusal is simulate's and the flags are the lines it prints.
    print(_flags_text(compile_run(fileio.load_scenario(args.scenario)).stability_flags), end="")
    return EXIT_OK


def cmd_riccati(args) -> int:
    # The run's own compile, as in stability: the refusals are simulate's and the gain is the run's.
    spec = fileio.load_scenario(args.scenario)
    if spec.law != "linear":
        raise fileio.ParseError(f"riccati needs a linear-law scenario, got the {spec.law} law")
    run = compile_run(spec)
    _print_matrix("P", run.solution.P)
    _print_matrix("K", run.solution.K)
    flags = run.stability_flags
    print(f"residual: {_fmt(flags['riccati_residual'])}")
    print(f"iterations: {flags['riccati_iterations']}")
    print(f"closed-loop spectral radius: {_fmt(flags['closed_loop_spectral_radius'])}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: main and every
    in-process caller share it, as parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="affinesim",
        description="Stress-based affine formation control: validation, synthesis, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the rigidity certificate of a framework/stress pair")
    p.add_argument("framework", help="framework JSON file")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--stress", help="stress matrix JSON file")
    given.add_argument("--weights", help="edge weights JSON file (assembled into a stress)")
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

    p = sub.add_parser("batch", help="run several scenarios, split over the usable CPUs")
    p.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p.add_argument("--out", required=True, help="output root directory")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("stability", help="print the stability flags that simulate prints for a scenario")
    p.add_argument("scenario", help="scenario or manifest JSON file")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("riccati", help="print the Riccati solution of a linear-law scenario's run")
    p.add_argument("scenario", help="scenario or manifest JSON file")
    p.set_defaults(func=cmd_riccati)

    return parser


# Every failure that main reports on stderr, with an exit code, in place of a traceback.
REPORTED = (CertificateError, HypothesisError, SynthesisError, LocalizabilityError, SolverError, ValueError,
            TypeError, OverflowError, OSError)


def _report(exc, where="") -> int:
    """Print exc, one of REPORTED, to stderr, each report opening with
    where (a batch names the scenario there); return its exit code."""
    if isinstance(exc, CertificateError):
        print(f"{where}run refused:", file=sys.stderr)
        _print_certificate(exc.certificate, file=sys.stderr)
        return EXIT_CERTIFICATE
    if isinstance(exc, HypothesisError):
        print(f"{where}{exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    if isinstance(exc, SynthesisError):
        print(f"{where}synthesis failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    if isinstance(exc, (LocalizabilityError, SolverError)):
        print(f"{where}solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"{where}error: {exc}", file=sys.stderr)
    return EXIT_PARSE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except REPORTED as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
