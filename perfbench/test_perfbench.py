"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import checks
import run
import spans
import workloads

cli = run.import_cli()


def tree(path):
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.generate(workload, seed, tmp_path / name, 2)
    first, again, other = (tree(tmp_path / name) for name in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def test_generated_inputs_meet_their_construction(tmp_path):
    workloads.generate("ensemble-n16", 3, tmp_path, 0)
    omega = workloads.assemble(checks.load_weights(tmp_path / "weights.json"), 16)
    framework = json.loads((tmp_path / "framework.json").read_text())
    eig = np.linalg.eigvalsh(omega)
    assert abs(eig[:3]).max() < 1e-9 and eig[3] > 0.5
    assert abs(omega @ np.array(framework["positions"])).max() < 1e-9
    mu_min = -np.linalg.eigvalsh(omega[3:, 3:])[-1]
    gain = workloads.riccati_gain(workloads.PLANT_A, workloads.PLANT_B)
    for path in sorted(tmp_path.glob("s[0-9]*.json")):
        scenario = json.loads(path.read_text())
        if scenario["law"] == "stationary":
            assert scenario["T"] * mu_min > -1.5
        elif scenario["law"] == "linear":
            radius = workloads.modal_radius(omega, scenario["epsilon"], workloads.PLANT_A, workloads.PLANT_B, gain)
            assert radius < workloads.STABILITY_MARGIN


@pytest.fixture(scope="module")
def certify_pass(tmp_path_factory):
    root = tmp_path_factory.mktemp("certify")
    plan = workloads.generate("certify-d3", 5, root / "in", 0)
    _, results = run.run_pass(cli, plan, root / "in", root / "out")
    return plan, root / "in", root / "out", results


def test_clean_pass_has_no_failures(certify_pass):
    plan, in_dir, out_dir, results = certify_pass
    assert checks.check_pass(plan, in_dir, out_dir, results) == (4, [])


def test_corrupted_outputs_count_as_failed(certify_pass, tmp_path):
    plan, in_dir, out_dir, results = certify_pass
    summary_path = out_dir / "sim32" / "summary.json"
    weights_path = out_dir / "synth7d2.json"
    summary, weights = summary_path.read_text(), weights_path.read_text()
    try:
        data = json.loads(summary)
        data["final_followers"][0][0] += 1e-6
        summary_path.write_text(json.dumps(data))
        bad = json.loads(weights)
        bad["edges"][0][2] += 0.5
        weights_path.write_text(json.dumps(bad))
        results = list(results)
        results[0] = (0, results[0][1].replace("certificate: PASS", "certificate: FAIL"))
        results[3] = (3, results[3][1])
        attempted, failures = checks.check_pass(plan, in_dir, out_dir, results)
    finally:
        summary_path.write_text(summary)
        weights_path.write_text(weights)
    assert attempted == 4
    assert len(failures) == 4, failures


def test_changed_trace_fails_replay(certify_pass, tmp_path):
    plan, _, out_dir, _ = certify_pass
    assert run.replay(cli, plan, out_dir, tmp_path / "ok") == (2, [])
    trace = out_dir / "sim32" / "trace.csv"
    original = trace.read_bytes()
    try:
        trace.write_bytes(original.replace(b",0,", b",0,1", 1))
        attempted, failures = run.replay(cli, plan, out_dir, tmp_path / "bad")
    finally:
        trace.write_bytes(original)
    assert attempted == 2 and len(failures) == 1


def span(sid, start, end, parent=None, name="f"):
    return spans.Span(sid, name, start, end, parent, True)


def test_self_time_of_nested_spans():
    tree_spans = [span(1, 0, 100), span(2, 10, 40, 1), span(3, 20, 30, 2), span(4, 50, 60, 1)]
    assert spans.self_times(tree_spans) == {1: 60, 2: 20, 3: 10, 4: 10}
    assert spans.concurrent_ns(tree_spans) == 0


def test_self_time_of_overlapping_threaded_children():
    tree_spans = [span(1, 0, 100), span(2, 10, 60, 1), span(3, 30, 90, 1), span(4, 40, 50, 3)]
    selfs = spans.self_times(tree_spans)
    assert selfs == {1: 20, 2: 50, 3: 50, 4: 10}
    # Children 2 and 3 overlap for 30 ns; removing that recovers the root.
    assert spans.concurrent_ns(tree_spans) == 30
    assert sum(selfs.values()) - spans.concurrent_ns(tree_spans) == 100


def test_pool_threads_parent_to_the_submitting_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x)
    barrier = threading.Barrier(2)

    def work(x):
        barrier.wait(timeout=10)
        return leaf(x)

    worker = tracer.wrap("worker", work)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(worker, range(2)))

    assert tracer.wrap("root", fan_out)() == [0, 1]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["root"]
    assert root.parent is None
    assert {s.parent for s in by_name["worker"]} == {root.sid}
    workers = {s.sid for s in by_name["worker"]}
    assert {s.parent for s in by_name["leaf"]} <= workers
    assert len({s.parent for s in by_name["leaf"]}) == 2
    selfs = spans.self_times(tracer.spans)
    accounted = sum(selfs.values()) - spans.concurrent_ns(tracer.spans)
    assert accounted == root.end - root.start


def test_patching_reaches_every_binding_and_restores():
    from affinesim import control, stress

    original = stress.solve_follower_block
    tracer = spans.Tracer()
    with spans.patched(tracer, "affinesim", {"stress.solve_follower_block": None}):
        assert control.solve_follower_block is stress.solve_follower_block is not original
    assert control.solve_follower_block is stress.solve_follower_block is original


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile(range(10)) == (None, None)
    assert run.high_percentile(range(1, 21)) == (50, 10)
