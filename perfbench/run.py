"""affinesim benchmark: drive the CLI on generated scenarios, check, report.

    python3 perfbench/run.py --workload track-n40 --seed 1 --seconds 35 --trace 0

Run from the repository root. The package is imported from ./src; nothing
is installed. One process generates the inputs, runs timed passes of the
workload's CLI commands for --seconds after one untimed warm-up pass,
checks every pass's outputs by maths, and, outside the timed passes,
replays the last pass's manifests to check that they reproduce
byte-identical traces. Each pass reads a fresh input set derived from the
seed and the pass index, so the metrics cover many frameworks and the same
seed always yields the same inputs.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries per-layer metrics from one extra traced pass, which
wraps the package's functions from outside (see LAYERS). Earlier lines give
a readable report: every metric with its unit, the failed ratio with its
attempt count, sample counts and machine info.

End-to-end metrics (tracing off; times scaled to the nominal host speed,
see REFERENCE_NOMINAL_S):
  wall_s       mean wall time of one pass over the run, from the call into
               cli.main to all files written; excludes interpreter start and
               import. The report also gives the raw median and a high
               percentile.
  steps_per_s  summed summary.json steps of all passes over their summed
               wall time
  setup_s      median over fresh interpreters, one after each pass, of the
               time until `import affinesim` is done and the pass's scenario
               files are parsed by fileio.load_scenario
  peak_rss_mb  ru_maxrss of this process, which ran every pass
The failed ratio (failed / attempted operations) is the final line's
`failed` over `attempted`; it is printed, not listed as a metric, because a
metric must never read 0.

Why wall_s is a mean: the passes of one run read different input sets whose
costs differ by up to 2x (synthesis on certify-d3 most of all), so the
median of 15-25 passes jumps with the handful of input sets nearest the
middle. On a 2-vCPU host the median moved about twice as much between seeds
as the mean over the same passes. The warm-up pass keeps first-call costs
out of the mean, and a garbage collection before each pass gives every
pass the same heap to start from.

The benchmark's own tests: python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
# Stop starting passes after this long, whatever --seconds says, so a run
# stays well inside its 180 s limit.
PASS_CAP_S = 90.0
# One set-up probe follows each pass, so probes sample the same stretch of
# time as the passes; short runs top them up to this many.
MIN_SETUP_PROBES = 7
PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import affinesim\n"
    "from affinesim import fileio\n"
    "for path in sys.argv[2:]:\n"
    "    fileio.load_scenario(path)\n"
    "print('ready', flush=True)\n"
)

# Host speed. On a shared host the same pass can run 40% slower for minutes
# at a time, on every core the process gets, and runs of one workload span
# several such phases. Before each pass and each set-up probe the benchmark
# times reference_work(), a fixed piece of work that does not use affinesim,
# and the time metrics are scaled to a host on which it takes
# REFERENCE_NOMINAL_S (about its median on the 2-vCPU Xeon host the bounds
# were set on). The raw figures are printed too.
REFERENCE_NOMINAL_S = 0.15
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.random((40, 40))
_REF_MATRIX = _REF_MATRIX @ _REF_MATRIX.T + 40.0 * np.eye(40)
_REF_VECTOR = _REF_RNG.random(40)

END_TO_END = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _count_steps(tracer, result):
    tracer.count("engine.steps", result.steps)


def _count_iterations(tracer, solution):
    tracer.count("control.solve_mare.iterations", solution.iterations)


# Traced functions: on-return hook, and the end-to-end metric and workload
# each should move.
LAYERS = {
    "cli.main": (None, "glue self time; wall_s on all workloads"),
    "fileio.load_scenario": (None, "wall_s on ensemble-n16; setup_s"),
    "fileio.save_manifest": (None, "wall_s on ensemble-n16; setup_s"),
    "fileio.write_summary": (None, "wall_s on ensemble-n16; setup_s"),
    "fileio.write_trace": (None, "wall_s on track-n40"),
    "engine.run_batch": (None, "wall_s on ensemble-n16"),
    "engine.run_scenario": (_count_steps, "wall_s, peak_rss_mb on track-n40"),
    "maneuvers.leader_waypoints": (None, "wall_s on track-n40"),
    "stress.follower_targets": (None, "wall_s on track-n40, ensemble-n16"),
    "stress.solve_follower_block": (None, "wall_s on track-n40, ensemble-n16"),
    "control.dynamic_leader_step": (None, "wall_s on track-n40, ensemble-n16"),
    "control.stationary_leader_step": (None, "wall_s on track-n40, ensemble-n16"),
    "control.linear_step": (None, "wall_s on ensemble-n16"),
    "control.solve_mare": (_count_iterations, "wall_s on ensemble-n16"),
    "stress.check_rigidity_certificate": (None, "wall_s on certify-d3, ensemble-n16"),
    "framework.is_k_connected": (None, "wall_s on certify-d3 (about 10% of track-n40)"),
    "stress.synthesize_stress": (None, "wall_s, failed_ratio on certify-d3"),
    "plotting.trajectory_svg": (None, "wall_s on track-n40"),
    "plotting.delta_svg": (None, "wall_s on track-n40"),
}

# Per-layer metrics beyond <layer>.calls and <layer>.self_s, with units.
LAYER_EXTRAS = {
    "control.solve_mare.iterations": "count",
    "engine.step_us": "us",
    "engine.run_batch.parallelism": "ratio",
    "fileio.bytes_written": "bytes",
    "stress.synthesize_stress.certified_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}


def import_cli():
    """Import affinesim.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "affinesim" / "__init__.py").is_file():
        raise SystemExit(f"error: no affinesim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from affinesim import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported affinesim from {cli.__file__}, not {SRC}")
    return cli


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def scenario_files(plan: dict, in_dir: Path) -> list:
    return [str(in_dir / run["scenario"]) for run in workloads.plan_runs(plan)]


def measure_setup(files) -> float:
    """Seconds from spawning a fresh interpreter until it has parsed files."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", PROBE, str(SRC), *files],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def reference_work() -> float:
    """Seconds taken by a fixed mix of what a pass does, without affinesim:
    interpreted float and dict work, small dense solves, float formatting."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(150_000):
        acc += i * 0.5
        table[i & 1023] = acc
    v = _REF_VECTOR
    for _ in range(900):
        v = np.linalg.solve(_REF_MATRIX, v + _REF_VECTOR)
    "\n".join(f"{i},{acc / (i + 1):.17g},{v[i % 40]:.17g}" for i in range(30_000))
    return time.perf_counter() - start


def run_pass(cli, plan: dict, in_dir: Path, out_dir: Path):
    """Run one pass's commands; return (wall seconds, [(exit code, output)])."""
    out_dir.mkdir(parents=True)
    argvs = [
        [arg.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for arg in cmd["argv"]]
        for cmd in plan["commands"]
    ]
    results = []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                code = f"raised {type(exc).__name__}: {exc}"
        results.append((code, buf.getvalue()))
    return time.perf_counter() - start, results


def pass_steps(plan: dict, out_dir: Path) -> int:
    total = 0
    for run in workloads.plan_runs(plan):
        with contextlib.suppress(OSError, ValueError, KeyError):
            total += int(json.loads((out_dir / run["out"] / "summary.json").read_text())["steps"])
    return total


def replay(cli, plan: dict, out_dir: Path, replay_dir: Path) -> tuple[int, list]:
    """Re-run each written manifest; its trace must match byte for byte."""
    attempted, failures = 0, []
    for idx, run in enumerate(workloads.plan_runs(plan)):
        attempted += 1
        manifest, trace = out_dir / run["out"] / "manifest.json", out_dir / run["out"] / "trace.csv"
        target = replay_dir / f"r{idx}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(["simulate", str(manifest), "--out", str(target)])
            except (Exception, SystemExit) as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        if code != 0:
            failures.append(f"replay of {manifest.parent.name} exited {code}")
        elif (target / "trace.csv").read_bytes() != trace.read_bytes():
            failures.append(f"replay of {manifest.parent.name} wrote a different trace.csv")
    return attempted, failures


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def high_percentile(samples) -> tuple:
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None, None
    return 100 * rank // len(ordered), ordered[rank - 1]


def layer_metrics(tracer, traced_wall: float, median_wall: float, bytes_written: int) -> dict:
    self_ns = spans.self_times(tracer.spans)
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    for span in tracer.spans:
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += self_ns[span.sid] / 1e9
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    runs = by_name.get("engine.run_scenario", [])
    steps = tracer.counts["engine.steps"]
    metrics["engine.step_us"] = sum(s.end - s.start for s in runs) / 1e3 / steps if steps else 0.0
    batches = by_name.get("engine.run_batch", [])
    batch_ids = {s.sid for s in batches}
    in_batch = sum(s.end - s.start for s in runs if s.parent in batch_ids)
    batch_ns = sum(s.end - s.start for s in batches)
    metrics["engine.run_batch.parallelism"] = in_batch / batch_ns if batch_ns else 0.0
    metrics["control.solve_mare.iterations"] = tracer.counts["control.solve_mare.iterations"]
    synths = by_name.get("stress.synthesize_stress", [])
    metrics["stress.synthesize_stress.certified_ratio"] = (
        sum(s.ok for s in synths) / len(synths) if synths else 0.0
    )
    metrics["fileio.bytes_written"] = bytes_written
    accounted = (sum(self_ns.values()) - spans.concurrent_ns(tracer.spans)) / 1e9
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - median_wall
    metrics["trace.accounted_ratio"] = accounted / traced_wall
    return metrics


def layer_unit(name: str) -> str:
    if name in LAYER_EXTRAS:
        return LAYER_EXTRAS[name]
    return "count" if name.endswith(".calls") else "s"


def benchmark(cli, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    plans, walls, steps, setup, refs = [], [], [], [], []
    attempted, failures = 0, []
    # Warm-up on an input set of its own (variant 0), checked but not timed.
    plan = workloads.generate(workload, seed, work / "in-warm", 0)
    reference_work()
    _, results = run_pass(cli, plan, work / "in-warm", work / "out-warm")
    attempted, failures = checks.check_pass(plan, work / "in-warm", work / "out-warm", results)
    shutil.rmtree(work / "out-warm")
    started = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - started < min(seconds, PASS_CAP_S):
        idx = len(walls)
        in_dir = work / f"in{idx}"
        plan = workloads.generate(workload, seed, in_dir, idx + 1)
        plans.append((plan, in_dir))
        out_dir = work / f"out{idx}"
        gc.collect()
        refs.append(reference_work())
        wall, results = run_pass(cli, plan, in_dir, out_dir)
        done, failed = checks.check_pass(plan, in_dir, out_dir, results)
        attempted += done
        failures += failed
        walls.append(wall)
        steps.append(pass_steps(plan, out_dir))
        if idx:
            shutil.rmtree(work / f"out{idx - 1}")
        refs.append(reference_work())
        setup.append(measure_setup(scenario_files(plan, in_dir)))
    measured_s = time.perf_counter() - started
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(measure_setup(scenario_files(plan, in_dir)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    last = len(walls) - 1
    done, failed = replay(cli, plans[last][0], work / f"out{last}", work / "replay")
    attempted += done
    failures += failed

    # Seconds on this host times scale = seconds on the nominal host.
    scale = REFERENCE_NOMINAL_S / statistics.fmean(refs)
    result = {
        "walls": walls,
        "measured_s": measured_s,
        "scale": scale,
        "reference_samples": len(refs),
        "raw": {
            "wall_s": statistics.fmean(walls),
            "steps_per_s": sum(steps) / sum(walls),
            "setup_s": statistics.median(setup),
        },
        "setup_samples": setup,
    }
    result["end_to_end"] = {
        "wall_s": result["raw"]["wall_s"] * scale,
        "steps_per_s": result["raw"]["steps_per_s"] / scale,
        "setup_s": result["raw"]["setup_s"] * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        # Trace the input set whose untraced wall time sits at the median.
        median = statistics.median(walls)
        idx = min(range(len(walls)), key=lambda i: abs(walls[i] - median))
        plan, in_dir = plans[idx]
        out_dir = work / "traced"
        tracer = spans.Tracer()
        targets = {name: hook for name, (hook, _) in LAYERS.items()}
        with spans.patched(tracer, "affinesim", targets):
            traced_wall, results = run_pass(cli, plan, in_dir, out_dir)
        for done, failed in (
            checks.check_pass(plan, in_dir, out_dir, results),
            replay(cli, plan, out_dir, work / "replay-traced"),
        ):
            attempted += done
            failures += failed
        result["per_layer"] = layer_metrics(tracer, traced_wall, median, tree_bytes(out_dir))
        result["traced_variant"] = idx
    result["attempted"] = attempted
    result["failures"] = failures
    return result


def report(workload: str, seed: int, result: dict, trace: bool) -> None:
    walls = result["walls"]
    e2e = result["end_to_end"]
    print(f"affinesim benchmark: workload {workload}, seed {seed}")
    print(f"why: {workloads.WORKLOADS[workload]}")
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(f"{len(walls)} passes in {result['measured_s']:.2f} s")
    pct, value = high_percentile(walls)
    tail = f"p{pct} {value:.6f} s" if pct is not None else "no percentile: fewer than 11 samples"
    raw = result["raw"]
    print(
        f"host speed: reference work took {REFERENCE_NOMINAL_S / result['scale']:.6f} s (mean of {result['reference_samples']}); "
        f"times below are scaled by {result['scale']:.4f} to its nominal {REFERENCE_NOMINAL_S} s, raw in brackets"
    )
    print(
        f"  wall_s       {e2e['wall_s']:.6f} s    [{raw['wall_s']:.6f}] mean of {len(walls)}; "
        f"raw median {statistics.median(walls):.6f} s; raw {tail}"
    )
    print(f"  steps_per_s  {e2e['steps_per_s']:.3f} 1/s    [{raw['steps_per_s']:.3f}]")
    print(
        f"  setup_s      {e2e['setup_s']:.6f} s    [{raw['setup_s']:.6f}] "
        f"median of {len(result['setup_samples'])} fresh interpreters"
    )
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB")
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"  failed_ratio {failed / attempted:.6f} ratio  ({failed} of {attempted} operations failed)")
    for problem in result["failures"][:20]:
        print(f"    FAILED: {problem}")
    if trace:
        layers = result["per_layer"]
        print(f"traced pass (input set {result['traced_variant']}); layer: calls, self time, should move")
        for name, (_, moves) in LAYERS.items():
            print(
                f"  {name:36s} {layers[name + '.calls']:8d} calls {layers[name + '.self_s']:10.6f} s"
                f"   -> {moves}"
            )
        for name, unit in LAYER_EXTRAS.items():
            print(f"  {name:42s} {layers[name]:.6g} {unit}")
        self_sum = sum(layers[f"{name}.self_s"] for name in LAYERS)
        accounted = layers["trace.accounted_ratio"] * layers["trace.wall_s"]
        print(
            f"  accounting: self times sum to {self_sum:.6f} s; less {max(0.0, self_sum - accounted):.6f} s "
            f"counted twice by overlapping pool threads, {accounted:.6f} s = "
            f"{layers['trace.accounted_ratio']:.4%} of the traced wall {layers['trace.wall_s']:.6f} s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="affinesim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    # An environment seed would override every scenario's seed.
    os.environ.pop("AFFINESIM_SEED", None)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = benchmark(cli, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    report(args.workload, args.seed, result, bool(args.trace))
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in result["per_layer"].items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit} for name, unit in END_TO_END.items()}
    failed = len(result["failures"])
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": result["attempted"], "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
