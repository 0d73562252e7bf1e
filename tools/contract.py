"""Check the output contract against another revision.

    python3 tools/contract.py --against REV [--one-cpu]

Writes the inputs of every benchmark workload (perfbench/workloads.py) at
seeds 7 and 11, variants 0 and 1, runs every command of each plan with the
package of this tree and with that of REV (extracted with git archive),
and compares the two sides with diff -r: every file the commands write,
and each command's exit code, stdout and stderr. Both sides write to the
same output path, each moved aside after its commands, so the manifests,
which name that path, compare too. Prints the files that differ and exits
1 when any do. With --one-cpu this tree's commands run pinned to one CPU
(os.sched_setaffinity in the command's process only), so a split over
several CPUs is checked against one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("track-n40", "ensemble-n16", "certify-d3")
SEEDS = (7, 11)
VARIANTS = (0, 1)


def run_plan(src: Path, plan: dict, in_dir: Path, out: Path, aside: Path, cpu=None):
    """Run plan's commands with the package under src, writing to out; move
    out to aside and add each command's exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    out.mkdir()
    logs = []
    for command in plan["commands"]:
        argv = [arg.replace("{in}", str(in_dir)).replace("{out}", str(out)) for arg in command["argv"]]
        done = subprocess.run(
            [sys.executable, "-m", "affinesim", *argv], env=env, cwd=out.parent, capture_output=True, preexec_fn=pin
        )
        logs.append(b"exit code %d\n--- stdout\n%b--- stderr\n%b" % (done.returncode, done.stdout, done.stderr))
    aside.parent.mkdir(parents=True, exist_ok=True)
    out.rename(aside)
    for i, log in enumerate(logs):
        (aside / f"command{i}.log").write_bytes(log)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare this tree with")
    parser.add_argument("--one-cpu", action="store_true", help="pin this tree's commands to one CPU")
    args = parser.parse_args(argv)
    cpu = min(os.sched_getaffinity(0)) if args.one_cpu else None
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against], check=True, capture_output=True)
        (tmp / "against").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "against")], input=archive.stdout, check=True)
        sides = {"against": (tmp / "against" / "src", None), "this": (ROOT / "src", cpu)}
        cases = [(w, s, v) for w in WORKLOADS for s in SEEDS for v in VARIANTS]
        for workload, seed, variant in cases:
            case = f"{workload}-s{seed}-v{variant}"
            in_dir = tmp / "inputs" / case
            subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--workload", workload,
                 "--seed", str(seed), "--variant", str(variant), "--out", str(in_dir)],
                check=True,
            )
            plan = json.loads((in_dir / "plan.json").read_text())
            for side, (src, pin) in sides.items():
                run_plan(src, plan, in_dir, tmp / "out", tmp / "runs" / side / case, pin)
        files = sum(path.is_file() for path in (tmp / "runs" / "this").rglob("*"))
        diff = subprocess.run(["diff", "-rq", "against", "this"], cwd=tmp / "runs", capture_output=True, text=True)
    print(diff.stdout, end="")
    print(diff.stderr, end="", file=sys.stderr)
    differ = len(diff.stdout.splitlines())
    print(f"{len(cases)} input sets, {files} files per side against {args.against}"
          f"{' (this side on one CPU)' if args.one_cpu else ''}: {differ} differ")
    return 1 if diff.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
