import dataclasses
import itertools
import json
import os
import re
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from affinesim import Configuration, Framework, Graph, ScenarioSpec, StressMatrix, assemble_stress, synthesize_stress
from affinesim.cli import main
from affinesim.engine import compile_run
from affinesim.fileio import load_scenario, load_weights, save_weights

from conftest import (
    EDGES,
    EXACT_WEIGHTS,
    FOLLOWER_START,
    FOLLOWER_TARGETS,
    LEADERS,
    REFERENCE_POSITIONS,
    assert_no_child,
    count_forks,
    write_benchmark_files,
    write_stress,
)

FRAMEWORK = {"d": 2, "positions": [list(p) for p in REFERENCE_POSITIONS], "edges": [list(e) for e in EDGES],
             "leaders": list(LEADERS)}
WEIGHT_ROWS = [[i, j, w] for (i, j), w in sorted(EXACT_WEIGHTS.items())]


@pytest.fixture
def bench(tmp_path):
    return write_benchmark_files(tmp_path)


def test_validate_pass(bench, tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "framework.json"), "--weights", str(tmp_path / "weights.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nodes: 5  dimension: 2  edges: 9" in out
    assert "leaders: 3/3 required, span 2/2: ok" in out
    assert "rank: 2/2" in out
    assert "PSD: yes" in out
    assert "equilibrium: yes" in out
    assert "certificate: PASS" in out


def test_validate_structural_only(bench, tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "framework.json")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "structural checks: PASS" in captured.out
    assert captured.err == ""


def test_validate_too_small(tmp_path, capsys):
    data = {"d": 2, "positions": [[0, 0], [1, 0], [0, 1]], "edges": [[1, 2], [1, 3], [2, 3]]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    rc = main(["validate", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == "no valid certificate possible: n=3 < d+2=4\n"


def test_validate_negated_weights_fail(bench, tmp_path, capsys):
    save_weights({e: -w for e, w in EXACT_WEIGHTS.items()}, tmp_path / "neg.json")
    rc = main(["validate", str(tmp_path / "framework.json"), "--weights", str(tmp_path / "neg.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "PSD: no" in out
    assert "certificate: FAIL" in out


def test_validate_refuses_a_stress_off_the_graph(bench, tmp_path, capsys):
    # Omega = W^T diag(1, 2) W is an equilibrium stress on K5, PSD of rank 2,
    # but nonzero at (1, 5), which is no edge of the framework.
    affine = np.column_stack((REFERENCE_POSITIONS, np.ones(5)))
    W = np.hstack((-affine[3:] @ np.linalg.inv(affine[:3]), np.eye(2)))
    omega = W.T @ np.diag([1.0, 2.0]) @ W
    assert omega[0, 4] == 4.0
    write_stress(StressMatrix(omega), tmp_path / "off.json")
    rc = main(["validate", str(tmp_path / "framework.json"), "--stress", str(tmp_path / "off.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: stress must be zero off the graph's edges; non-edge (1, 5) is nonzero\n"


def test_stress_out_of_equilibrium_fails_the_certificate(tmp_path, capsys):
    # A K6 stress built for other positions keeps its PSD rank-3 spectrum
    # but is no equilibrium here: the followers would settle off the reference.
    edges = list(itertools.combinations(range(1, 7), 2))
    other = [(0, 0), (2, 0), (0, 2), (1, 1.5), (1.5, 0.5), (0.5, 0.8)]
    weights, _, _ = synthesize_stress(Framework(Graph(6, edges), Configuration(other)))
    here = [(1, 0), (0, 1), (-1, -1), (0.2, 0.5), (0.1, 0.9), (0.6, -1)]
    framework = {"d": 2, "positions": here, "edges": edges, "leaders": [1, 2, 3]}
    (tmp_path / "framework.json").write_text(json.dumps(framework))
    save_weights(weights, tmp_path / "weights.json")
    scenario = {"framework": "framework.json", "weights": "weights.json", "law": "stationary", "T": 0.5,
                "initial_followers": [[3, 3], [-2, 1], [0, -3]]}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))

    rc = main(["validate", str(tmp_path / "framework.json"), "--weights", str(tmp_path / "weights.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert {"rank: 3/3", "PSD: yes", "equilibrium: no", "certificate: FAIL"} <= set(lines)

    assert main(["simulate", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    # The refusal and the certificate it failed are one report, on stderr.
    assert captured.err.splitlines()[0] == "run refused:"
    assert "equilibrium: no" in captured.err.splitlines()
    assert captured.out == ""
    assert not (tmp_path / "run" / "trace.csv").exists()


def test_validate_refuses_stress_with_weights(bench, tmp_path, capsys):
    # Neither file exists: the pair is refused before either is read.
    absent = str(tmp_path / "absent.json")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(tmp_path / "framework.json"), "--stress", absent, "--weights", absent])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --weights: not allowed with argument --stress" in captured.err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value, report",
    [
        ("validate", "weights", {"edges": 5}, "error: weights: 'edges' must be a list, got 5\n"),
        ("validate", "weights", {"edges": [5]}, "error: weights: 'edges' row 5 is not [i, j, w]\n"),
        ("simulate", "schedule", {"segments": 5}, "error: schedule: 'segments' must be a list, got 5\n"),
    ],
    ids=["edges", "row", "segments"],
)
def test_malformed_lists_name_their_file_kind_and_key(bench, tmp_path, capsys, command, key, value, report):
    (tmp_path / "given.json").write_text(json.dumps(value))
    if command == "validate":
        argv = ["validate", str(tmp_path / "framework.json"), "--weights", str(tmp_path / "given.json")]
    else:
        scenario = json.loads(bench.read_text())
        bench.write_text(json.dumps({**scenario, key: "given.json"}))
        argv = ["simulate", str(bench), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", report)


def test_simulate_writes_outputs(bench, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["simulate", str(bench), "--out", str(out_dir)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "outcome: converged at k=429" in printed
    trace = (out_dir / "trace.csv").read_text()
    assert trace.splitlines()[0] == "k,agent_id,coord_index,value,delta_norm,converged,diverged"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["steps"] == 438
    assert summary["converged_at"] == 429
    assert summary["final_delta"] <= 1e-9
    assert summary["theorem_flags"]["stable"] is True
    np.testing.assert_allclose(summary["final_followers"], FOLLOWER_TARGETS, atol=1e-6)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["kind"] == "run-manifest"
    assert "seed" not in manifest and "seed" not in manifest["scenario"]


def test_manifest_rerun_is_byte_identical(bench, tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    third = tmp_path / "run3"
    assert main(["simulate", str(bench), "--out", str(first)]) == 0
    assert main(["simulate", str(first / "manifest.json"), "--out", str(second)]) == 0
    assert main(["simulate", str(bench), "--out", str(third)]) == 0
    reference = (first / "trace.csv").read_bytes()
    assert (second / "trace.csv").read_bytes() == reference
    assert (third / "trace.csv").read_bytes() == reference
    assert (second / "summary.json").read_bytes() == (first / "summary.json").read_bytes()


def test_older_manifest_with_seed_is_refused(bench, tmp_path, capsys):
    # Older versions wrote a seed that no run reads; it is refused like any unknown key.
    first = tmp_path / "run1"
    assert main(["simulate", str(bench), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["scenario"]["seed"] = 7
    older = tmp_path / "older_manifest.json"
    older.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["simulate", str(older), "--out", str(tmp_path / "run2")]) == 2
    assert capsys.readouterr() == ("", "error: scenario: unknown keys ['seed']\n")
    assert not (tmp_path / "run2").exists()


def test_simulate_divergence_exit_code(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    data["T"] = 1.4
    data["budget"] = 500
    path = tmp_path / "scenario_T14.json"
    path.write_text(json.dumps(data))
    rc = main(["simulate", str(path), "--out", str(tmp_path / "boom")])
    out = capsys.readouterr().out
    assert rc == 3
    assert "DIVERGED" in out


def test_simulate_budget_exit_code(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    data["budget"] = 1
    path = tmp_path / "scenario_b1.json"
    path.write_text(json.dumps(data))
    rc = main(["simulate", str(path), "--out", str(tmp_path / "short")])
    assert rc == 4
    assert "budget exhausted" in capsys.readouterr().out


def test_batch_aggregates_exit_codes(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    data["T"] = 1.4
    data["budget"] = 500
    bad = tmp_path / "unstable.json"
    bad.write_text(json.dumps(data))
    rc = main(["batch", str(bench), str(bad), "--out", str(tmp_path / "batch")])
    out = capsys.readouterr().out
    assert rc == 3
    assert "scenario.json: converged" in out
    assert "unstable.json: diverged" in out
    assert (tmp_path / "batch" / "scenario" / "trace.csv").exists()
    assert (tmp_path / "batch" / "unstable" / "summary.json").exists()


def test_batch_refuses_a_bad_scenario_before_writing(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    scenarios = [bench, tmp_path / "second.json", tmp_path / "third.json"]
    scenarios[1].write_text(json.dumps({**data, "T": 0.5}))
    scenarios[2].write_text(json.dumps({**data, "budget": 0.5}))
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 2
    assert "step budget must be an integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("batch/*/manifest.json"))


def test_batch_refuses_scenarios_that_share_an_output_directory(bench, tmp_path, capsys):
    other = tmp_path / "other"
    other.mkdir()
    inline = {"framework": FRAMEWORK, "weights": {"edges": WEIGHT_ROWS}, "T": 0.5}
    (other / "scenario.json").write_text(json.dumps({**json.loads(bench.read_text()), **inline}))
    assert main(["batch", str(bench), str(other / "scenario.json"), "--out", str(tmp_path / "batch")]) == 2
    err = capsys.readouterr().err
    assert f"{bench} and {other / 'scenario.json'} would both write {tmp_path / 'batch' / 'scenario'}" in err
    assert not (tmp_path / "batch").exists()


def test_matrix_files_refuse_entries_that_are_not_numbers(bench, tmp_path, capsys):
    stress = assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS).entries.tolist()
    stress[0][0] = "0.292"
    (tmp_path / "stress.json").write_text(json.dumps({"n": 5, "entries": stress}))
    assert main(["validate", str(tmp_path / "framework.json"), "--stress", str(tmp_path / "stress.json")]) == 2
    assert "stress: stress matrix: '0.292' is not a real number" in capsys.readouterr().err


def test_batch_loads_each_scenarios_own_files(tmp_path, capsys):
    # Both scenarios reference "framework.json"; b's is the reference scaled by 2.
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = write_benchmark_files(a)
    write_benchmark_files(b)
    scaled = json.loads((b / "framework.json").read_text())
    scaled["positions"] = [[2.0 * x for x in p] for p in scaled["positions"]]
    (b / "framework.json").write_text(json.dumps(scaled))
    second = (b / "scenario.json").rename(b / "scaled.json")
    assert main(["batch", str(first), str(second), "--out", str(tmp_path / "batch")]) == 0
    for scenario, factor in ((first, 1.0), (second, 2.0)):
        run = tmp_path / "batch" / scenario.stem
        summary = json.loads((run / "summary.json").read_text())
        np.testing.assert_allclose(summary["final_followers"], factor * np.array(FOLLOWER_TARGETS), atol=1e-8)
        assert main(["simulate", str(scenario), "--out", str(tmp_path / scenario.stem)]) == 0
        assert (run / "trace.csv").read_bytes() == (tmp_path / scenario.stem / "trace.csv").read_bytes()
    capsys.readouterr()


def test_batch_parses_each_shared_file_once(bench, tmp_path, monkeypatch, capsys):
    from affinesim import fileio

    parsed = []
    for name in ("framework_from_dict", "weights_from_dict"):
        original = getattr(fileio, name)
        monkeypatch.setattr(fileio, name, lambda data, _f=original: parsed.append(_f) or _f(data))
    copies = []
    for T in (0.5, 0.8):
        data = json.loads(bench.read_text())
        data["T"] = T
        copies.append(tmp_path / f"T{T}.json")
        copies[-1].write_text(json.dumps(data))
    assert main(["batch", str(bench), *map(str, copies), "--out", str(tmp_path / "batch")]) == 0
    assert len(parsed) == 2
    capsys.readouterr()


# A change that removes the key from the scenario.
MISSING = object()
LINEAR = {"law": "linear", "plant": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
          "epsilon": 0.1, "budget": 200}


def batch_variants(bench, tmp_path):
    """Scenario files sharing the benchmark framework and weights, plus runs
    that must not share them: another leader set, scaled positions, doubled
    weights, synthesis, and a linear-law plant."""
    data = json.loads(bench.read_text())
    framework = json.loads((tmp_path / "framework.json").read_text())
    variants = {
        "T05": dict(T=0.5),
        "T08": dict(T=0.8),
        "leaders": dict(framework={**framework, "leaders": [1, 2, 5]}),
        "scaled": dict(framework={**framework, "positions": [[2.0 * x for x in p] for p in framework["positions"]]}),
        "double": dict(T=0.5, weights={"edges": [[i, j, 2.0 * w] for (i, j), w in sorted(EXACT_WEIGHTS.items())]}),
        "synth": dict(weights=None),
        "linear": LINEAR,
    }
    paths = [bench]
    for name, changes in variants.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({**data, **changes}))
    return paths


def test_batch_manifests_match_uncached_writes(bench, tmp_path, capsys):
    from affinesim import fileio

    scenarios = batch_variants(bench, tmp_path)
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 0
    capsys.readouterr()
    for scenario in scenarios:
        out_dir = tmp_path / "batch" / scenario.stem
        spec = fileio.load_scenario(scenario)
        fileio.save_manifest(spec, str(scenario), out_dir, tmp_path / "alone.json")
        reference = json.dumps(fileio.manifest_dict(spec, str(scenario), out_dir), sort_keys=True)
        written = (out_dir / "manifest.json").read_text()
        assert written == (tmp_path / "alone.json").read_text() == reference + "\n"


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def reference_manifest(spec, scenario, out_dir) -> str:
    from affinesim import fileio

    return json.dumps(fileio.manifest_dict(spec, str(scenario), out_dir), sort_keys=True) + "\n"


def test_batch_manifests_equal_the_reference_encoding(bench, tmp_path, monkeypatch, capsys):
    # On one CPU every manifest is written by one share, from one set of texts.
    use_cpus(monkeypatch, 1)
    data = json.loads(bench.read_text())
    framework = json.loads((tmp_path / "framework.json").read_text())
    files = {
        "scaled_framework.json": {**framework, "positions": [[2.0 * x for x in p] for p in framework["positions"]]},
        "other_leaders.json": {**framework, "leaders": [1, 2, 5]},
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    variants = {
        "T05": dict(T=0.5),
        "scaled": dict(framework="scaled_framework.json"),
        "scaled_T05": dict(framework="scaled_framework.json", T=0.5),
        "leaders": dict(framework="other_leaders.json"),
        "leaders_T08": dict(framework="other_leaders.json", T=0.8),
        "synth": dict(weights=None),
        "q_linear": Q_WEIGHTED,
    }
    scenarios = [bench]
    for name, changes in variants.items():
        scenarios.append(tmp_path / f"{name}.json")
        scenarios[-1].write_text(json.dumps({**data, **changes}))
    # Q_WEIGHTED's modes are unstable: its run diverges.
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 3
    capsys.readouterr()
    for scenario in scenarios:
        out_dir = tmp_path / "batch" / scenario.stem
        written = (out_dir / "manifest.json").read_text()
        assert written == reference_manifest(load_scenario(scenario), scenario, out_dir)


def test_manifests_sharing_texts_key_the_framework_text_by_its_leaders(benchmark_scenario, tmp_path):
    from affinesim import LeaderPartition, fileio
    from affinesim.control import LinearPlant

    # One framework object under three leader sets, with and without weights,
    # and under a linear law with q: each manifest names its own leaders.
    specs = [benchmark_scenario]
    for leaders in ((1, 2, 5), (2, 3, 4)):
        partition = LeaderPartition.from_leaders(leaders, 5)
        specs.append(dataclasses.replace(benchmark_scenario, partition=partition))
        specs.append(dataclasses.replace(benchmark_scenario, partition=partition, weights=None))
    plant = LinearPlant(Q_WEIGHTED["plant"]["A"], Q_WEIGHTED["plant"]["B"])
    specs.append(dataclasses.replace(benchmark_scenario, law="linear", plant=plant, q_matrix=Q_WEIGHTED["q"],
                                     epsilon=0.5))
    texts = {}
    for i, spec in enumerate(specs):
        fileio.save_manifest(spec, f"s{i}.json", tmp_path, tmp_path / f"{i}.json", texts)
    for i, spec in enumerate(specs):
        written = (tmp_path / f"{i}.json").read_text()
        assert written == reference_manifest(spec, f"s{i}.json", tmp_path)
        assert json.loads(written)["scenario"]["framework"]["leaders"] == list(spec.partition.leaders)
    # Three (framework, leaders) pairs and one weights.
    assert len(texts) == 4


def test_finished_batch_retains_no_spec(bench, tmp_path, monkeypatch, capsys):
    import gc
    import weakref

    from affinesim import fileio

    specs = []
    load = fileio.load_scenario

    def loaded(*args, **kwargs):
        spec = load(*args, **kwargs)
        specs.append(weakref.ref(spec))
        return spec

    monkeypatch.setattr(fileio, "load_scenario", loaded)
    scenarios = batch_variants(bench, tmp_path)
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(specs) == len(scenarios)
    assert all(ref() is None for ref in specs)


def test_batch_builds_each_shared_plant_and_checks_each_shared_schedule_once(bench, tmp_path, monkeypatch, capsys):
    import affinesim.cli
    from affinesim.control import LinearPlant
    from affinesim.maneuvers import ManoeuvreSchedule

    counts = {"plant": 0, "schedule": 0}
    post_init, transforms = LinearPlant.__post_init__, ManoeuvreSchedule.transforms

    def built(self):
        counts["plant"] += 1
        post_init(self)

    def checked(self, *args):
        counts["schedule"] += 1
        return transforms(self, *args)

    monkeypatch.setattr(LinearPlant, "__post_init__", built)
    # Counted at load only: each run's waypoints evaluate the schedule too.
    monkeypatch.setattr(ManoeuvreSchedule, "transforms", checked)
    monkeypatch.setattr(affinesim.cli, "_run", lambda *args: 0)
    data = json.loads(bench.read_text())
    schedule = {"segments": [{"k0": 0, "k1": 9, "kind": "rotation", "params": {"angle": 0.5}, "interp": "linear"}]}
    (tmp_path / "schedule.json").write_text(json.dumps(schedule))
    variants = {
        **{f"linear{i}": {**LINEAR, "epsilon": 0.1 * i} for i in range(1, 4)},
        "other_plant": {**LINEAR, "plant": Q_WEIGHTED["plant"]},
        **{f"scheduled{i}": dict(schedule="schedule.json", T=0.1 * i) for i in range(1, 4)},
        **{f"inline_schedule{i}": dict(schedule=schedule, T=0.1 * i) for i in range(1, 3)},
    }
    scenarios = []
    for name, changes in variants.items():
        scenarios.append(tmp_path / f"{name}.json")
        scenarios[-1].write_text(json.dumps({**data, **changes}))
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 0
    # Two plants. Three schedules: the file, the equal inline ones, parsed
    # apart from the file, and the empty one of the linear runs.
    assert counts == {"plant": 2, "schedule": 3}


def test_batch_encodes_each_shared_text_once_per_worker(bench, tmp_path, monkeypatch, capsys):
    from affinesim import fileio

    use_cpus(monkeypatch, 1)
    counts = {"framework_to_dict": 0, "weights_to_dict": 0}
    for name in counts:
        original = getattr(fileio, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fileio, name, counted)
    data = json.loads(bench.read_text())
    scenarios = [bench]
    for T in (0.5, 0.8):
        scenarios.append(tmp_path / f"T{T}.json")
        scenarios[-1].write_text(json.dumps({**data, "T": T}))
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 0
    assert counts == {"framework_to_dict": 1, "weights_to_dict": 1}
    capsys.readouterr()


def test_manifest_with_unknown_top_level_keys_is_refused(bench, tmp_path, capsys):
    first = tmp_path / "run1"
    assert main(["simulate", str(bench), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest.update(kindd="x", seed=7)
    misspelt = tmp_path / "misspelt_manifest.json"
    misspelt.write_text(json.dumps(manifest))
    capsys.readouterr()
    for argv in (["simulate", str(misspelt), "--out", str(tmp_path / "run2")], ["stability", str(misspelt)],
                 ["batch", str(bench), str(misspelt), "--out", str(tmp_path / "batch")]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: manifest: unknown keys ['kindd', 'seed']\n")
    assert not (tmp_path / "run2").exists() and not (tmp_path / "batch").exists()


def tree(path):
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def run_aside(argv, out, aside):
    """Run argv, which writes under out, then move out to aside. Every run
    writes to the same out, so the manifests, which name it, compare byte
    for byte."""
    code = main(argv)
    out.rename(aside)
    return code


def test_batch_writes_the_same_files_on_one_cpu_and_on_two(bench, tmp_path, monkeypatch, capsys):
    data = json.loads(bench.read_text())
    variants = {"slow": dict(T=0.01), "unstable": dict(T=1.4, budget=500), "slower": dict(T=0.005)}
    scenarios = [bench]
    for name, changes in variants.items():
        scenarios.append(tmp_path / f"{name}.json")
        scenarios[-1].write_text(json.dumps({**data, **changes}))
    started = count_forks(monkeypatch)
    argv = ["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]
    lines = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        assert run_aside(argv, tmp_path / "batch", tmp_path / f"cpus{cpus}") == 3
        lines[cpus] = capsys.readouterr().out.splitlines()
        # One worker per CPU: this process and cpus - 1 forked ones.
        assert len(started) == cpus - 1
        started.clear()
        assert_no_child()
    assert lines[1] == lines[2] == lines[3]
    assert [line.split(": ")[0] for line in lines[2]] == list(map(str, scenarios))
    one = tree(tmp_path / "cpus1")
    assert len(one) == 3 * len(scenarios)
    assert tree(tmp_path / "cpus2") == tree(tmp_path / "cpus3") == one


def negated_weights(data):
    return {**data, "weights": {"edges": [[i, j, -w] for i, j, w in WEIGHT_ROWS]}}


def singular_leaders(data):
    # Collinear leaders: the follower block is singular.
    return {**data, "framework": {**FRAMEWORK, "leaders": [1, 4, 5]}, "initial_followers": [[0.0, 1.0], [0.0, -1.0]]}


def flagged_period(data):
    return {**data, "T": 0.77}


@pytest.mark.parametrize(
    "refuse, code, report",
    [
        (negated_weights, 1, "run refused:"),
        (singular_leaders, 5, "solver failure: follower stress block is singular"),
        (flagged_period, 2, "error: T = 0.77 is refused"),
    ],
    ids=["certificate", "singular-leaders", "stability-flags"],
)
def test_refused_batch_is_the_same_on_one_two_and_three_cpus(bench, tmp_path, monkeypatch, capsys, refuse, code,
                                                              report):
    import affinesim.engine as engine

    flags = engine.stability_flags

    def refuse_077(law, T, *args):
        if law == "stationary" and T == 0.77:
            raise ValueError("T = 0.77 is refused")
        return flags(law, T, *args)

    monkeypatch.setattr(engine, "stability_flags", refuse_077)
    data = json.loads(bench.read_text())
    # The refused scenario is second: on two or three CPUs, it is a forked worker's first run.
    scenarios = [bench, tmp_path / "refused.json", tmp_path / "T08.json", tmp_path / "T05.json"]
    for path, changes in zip(scenarios[1:], (refuse(data), {**data, "T": 0.8}, {**data, "T": 0.5})):
        path.write_text(json.dumps(changes))
    started = count_forks(monkeypatch)
    argv = ["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]
    errs = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        assert run_aside(argv, tmp_path / "batch", tmp_path / f"cpus{cpus}") == code
        captured = capsys.readouterr()
        errs.append(captured.err)
        assert captured.out == ""
        assert started == []
        written = tree(tmp_path / f"cpus{cpus}")
        assert sorted(written) == [f"{path.stem}/manifest.json" for path in sorted(scenarios)]
        assert_no_child()
    assert errs[0] == errs[1] == errs[2]
    assert errs[0].startswith(f"{scenarios[1]}: {report}")
    if refuse is negated_weights:
        assert errs[0].splitlines()[-1] == "certificate: FAIL"
    # The refused run's manifest replays to the same refusal.
    manifest = tmp_path / "cpus1" / "refused" / "manifest.json"
    assert main(["simulate", str(manifest), "--out", str(tmp_path / "replay")]) == code
    assert capsys.readouterr().err.splitlines()[1:] == errs[0].splitlines()[1:]


def diverging(data):
    return {**data, "T": 1.4, "budget": 500}


def short_budget(data):
    return {**data, "budget": 1}


def long_trace(data):
    # Converges at k=4387, with 10 values a step: more than SPLIT_VALUES.
    return {**data, "T": 0.1, "budget": 5000}


@pytest.mark.parametrize(
    "change, code",
    [(dict, 0), (diverging, 3), (short_budget, 4), (negated_weights, 1), (singular_leaders, 5), (long_trace, 0)],
    ids=["converged", "diverged", "budget", "certificate", "singular-leaders", "large-trace"],
)
def test_simulate_is_a_batch_of_one(bench, tmp_path, monkeypatch, capsys, change, code):
    scenario = tmp_path / "x.json"
    scenario.write_text(json.dumps(change(json.loads(bench.read_text()))))
    use_cpus(monkeypatch, 2)
    started = count_forks(monkeypatch)
    out = tmp_path / "d"
    assert run_aside(["simulate", str(scenario), "--out", str(out / "x"), "--plot"], out, tmp_path / "simulate") == code
    simulated = capsys.readouterr()
    forks = len(started)
    assert run_aside(["batch", str(scenario), "--out", str(out), "--plot"], out, tmp_path / "batch") == code
    batched = capsys.readouterr()
    written, ran = tree(tmp_path / "simulate"), code in (0, 3, 4)
    assert tree(tmp_path / "batch") == written
    files = ["delta.svg", "manifest.json", "summary.json", "trace.csv", "trajectories.svg"] if ran else ["manifest.json"]
    assert sorted(written) == [f"x/{name}" for name in files]
    assert batched.err == (f"{scenario}: {simulated.err}" if simulated.err else "")
    assert (simulated.err == "") == ran and batched.out.startswith(f"{scenario}: ") == ran
    # A run forks no batch worker; a large trace splits its rows over both CPUs in either command.
    assert len(started) == 2 * forks == (2 if change is long_trace else 0)
    assert_no_child()


def test_batch_whose_fork_fails_runs_in_one_process(bench, tmp_path, monkeypatch, capsys):
    scenarios = batch_variants(bench, tmp_path)
    argv = ["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]
    use_cpus(monkeypatch, 1)
    assert run_aside(argv, tmp_path / "batch", tmp_path / "reference") == 0
    reference = capsys.readouterr().out
    # The first fork fails; or the second, and the worker the first started is killed.
    for cpus, fail_at in ((2, 1), (3, 2)):
        started = count_forks(monkeypatch, fail_at)
        use_cpus(monkeypatch, cpus)
        assert run_aside(argv, tmp_path / "batch", tmp_path / f"cpus{cpus}") == 0
        assert len(started) == fail_at
        assert capsys.readouterr().out == reference
        assert tree(tmp_path / f"cpus{cpus}") == tree(tmp_path / "reference")
        assert_no_child()


@pytest.mark.parametrize("failure", ["raises", "is-killed"])
def test_batch_worker_failure_exits_2_with_its_message(bench, tmp_path, monkeypatch, capsys, failure):
    from affinesim import fileio

    here, write_summary = os.getpid(), fileio.write_summary

    def fail_in_worker(result, partition, path):
        if os.getpid() != here:
            if failure == "is-killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(f"no room for {path.parent.name}")
        write_summary(result, partition, path)

    monkeypatch.setattr(fileio, "write_summary", fail_in_worker)
    use_cpus(monkeypatch, 2)
    started = count_forks(monkeypatch)
    scenarios = batch_variants(bench, tmp_path)
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if failure == "raises":
        # The worker's first run is the second scenario.
        assert captured.err == f"error: no room for {scenarios[1].stem}\n"
    else:
        assert re.fullmatch(rf"error: worker \d+ exited with status {-signal.SIGKILL}\n", captured.err)
    assert len(started) == 1
    assert_no_child()


def test_batch_failure_here_kills_its_workers(bench, tmp_path, monkeypatch, capsys):
    from affinesim import fileio

    here = os.getpid()

    def stall_or_fail(result, partition, path):
        if os.getpid() != here:
            time.sleep(60)  # unless it is killed first
        raise OSError("disk on fire")

    monkeypatch.setattr(fileio, "write_summary", stall_or_fail)
    use_cpus(monkeypatch, 2)
    scenarios = batch_variants(bench, tmp_path)
    start = time.monotonic()
    assert main(["batch", *map(str, scenarios), "--out", str(tmp_path / "batch")]) == 2
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err == "error: disk on fire\n"
    assert_no_child()


def test_plot_outputs(bench, tmp_path, capsys):
    plain = tmp_path / "plain"
    plotted = tmp_path / "plotted"
    assert main(["simulate", str(bench), "--out", str(plain)]) == 0
    assert main(["simulate", str(bench), "--out", str(plotted), "--plot"]) == 0
    capsys.readouterr()
    svg = (plotted / "trajectories.svg").read_text()
    assert svg.count("<polyline") == 5
    assert svg.count("<circle") == 5
    assert "<polyline" in (plotted / "delta.svg").read_text()
    assert (plotted / "trace.csv").read_bytes() == (plain / "trace.csv").read_bytes()


def stability_lines(scenario, capsys):
    assert main(["stability", str(scenario)]) == 0
    return capsys.readouterr().out.splitlines()


def test_stability_stationary_report(bench, capsys):
    lines = stability_lines(bench, capsys)
    assert "mu_min: -1.49311" in lines
    assert "T_mu_min: -1.49311" in lines
    assert "stable: True" in lines
    assert "spectral_radius: 0.951109" in lines


@pytest.mark.parametrize("leaders", [[1], [1, 2], [2, 3], [4, 5]], ids=["1", "1,2", "2,3", "4,5"])
def test_stability_refuses_a_singular_follower_block(bench, capsys, leaders):
    # These leader sets leave the follower block singular, so simulate refuses them too.
    data = json.loads(bench.read_text())
    bench.write_text(json.dumps({**data, "framework": {**FRAMEWORK, "leaders": leaders},
                                 "initial_followers": [[0.0, 0.0]] * (5 - len(leaders))}))
    rc = main(["stability", str(bench)])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert "follower stress block is singular" in captured.err


def test_stability_stationary_needs_inputs(bench, capsys):
    # The stress and the leaders come from the scenario's framework and weights.
    data = json.loads(bench.read_text())
    del data["framework"]
    bench.write_text(json.dumps(data))
    assert main(["stability", str(bench)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing required key 'framework'" in captured.err


def test_stability_dynamic_reports(bench, capsys):
    data = {**json.loads(bench.read_text()), "law": "dynamic"}
    for T, decay, stable in ((0.5, "0.5", True), (2.0, "1", False), (2.5, "1.5", False)):
        bench.write_text(json.dumps({**data, "T": T}))
        lines = stability_lines(bench, capsys)
        assert f"decay_factor: {decay}" in lines
        assert f"stable: {stable}" in lines


def test_stability_linear_reports_modal_test(bench, capsys):
    stress = assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS)
    plant = {"A": [[1.2, 0.0], [0.0, 1.2]], "B": [[1.0, 0.0], [0.0, 1.0]]}
    data = {**json.loads(bench.read_text()), **LINEAR, "plant": plant}
    # K = -A, so each mode A + (1 - eps lambda_i) B K is 1.2 eps lambda_i I.
    bench.write_text(json.dumps({**data, "epsilon": 1.0}))
    lines = stability_lines(bench, capsys)
    lam_max = np.linalg.eigvalsh(stress.entries)[-1]
    assert f"modal_spectral_radius: {1.2 * lam_max:.6g}" in lines
    assert "stable: False" in lines
    bench.write_text(json.dumps({**data, "epsilon": None}))
    lines = stability_lines(bench, capsys)
    assert "modal_spectral_radius: 0" in lines
    assert "stable: True" in lines


def test_stability_linear_needs_inputs(bench, capsys):
    data = {**json.loads(bench.read_text()), "law": "linear"}
    bench.write_text(json.dumps(data))
    assert main(["stability", str(bench)]) == 2
    assert "linear law requires a plant" in capsys.readouterr().err
    bench.write_text(json.dumps({**data, **LINEAR, "T": 0.5}))
    assert main(["stability", str(bench)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "linear law takes no T but 1.0: its plant is already sampled" in captured.err


# A q-weighted linear run on a double integrator: the gain depends on q.
Q_WEIGHTED = {**LINEAR, "plant": {"A": [[1.0, 0.5], [0.0, 1.0]], "B": [[0.0], [1.0]]}, "q": [[10.0, 0.0], [0.0, 1.0]],
              "epsilon": 0.5}


@pytest.mark.parametrize(
    "changes, code, expected",
    [
        ({}, 0, ["law: stationary"]),
        (dict(law="dynamic", T=0.5), 0, ["law: dynamic"]),
        ({**LINEAR, "epsilon": 0.5}, 0, ["law: linear"]),
        (Q_WEIGHTED, 0, ["closed_loop_spectral_radius: 0.234436", "modal_spectral_radius: 1.22743",
                         "riccati_iterations: 10"]),
        (dict(weights=None), 0, ["law: stationary"]),
        (singular_leaders({}), 5, ["solver failure: follower stress block is singular or near-singular"]),
        (negated_weights({}), 1, ["run refused:", "PSD: no"]),
        ({**LINEAR, "plant": {"A": [[1.0]], "B": [[1.0]]}}, 2,
         ["error: scenario: plant state dimension must equal the ambient dimension"]),
    ],
    ids=["stationary", "dynamic", "linear", "q-weighted-linear", "synthesizing", "singular-leaders", "negated-weights",
         "plant-dimension"],
)
def test_stability_prints_the_flag_lines_simulate_prints(bench, tmp_path, capsys, changes, code, expected):
    bench.write_text(json.dumps({**json.loads(bench.read_text()), **changes}))
    simulated = main(["simulate", str(bench), "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    outcome = ("steps:", "final delta:", "outcome:", "wrote:")
    flag_lines = [line for line in captured.out.splitlines() if not line.startswith(outcome)]
    lines = flag_lines + captured.err.splitlines()
    assert all(any(line.startswith(text) for line in lines) for text in expected)
    if code:
        assert simulated == code
    # The scenario, and the manifest that simulate wrote (a refused run's
    # included), print the same lines or the same refusal, and write nothing.
    written = tree(tmp_path)
    for path in [bench, *(tmp_path / "run").glob("manifest.json")]:
        assert main(["stability", str(path)]) == code
        assert tuple(capsys.readouterr()) == ("".join(line + "\n" for line in flag_lines), captured.err)
    assert tree(tmp_path) == written


# Node 1 of this framework hangs off nodes 2 and 3 only.
KITE = {
    "d": 2,
    "positions": [[0.0, 2.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
    "edges": [[1, 2], [1, 3], [2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5]],
    "leaders": [1, 2, 3],
}
KITE_CUT = "no valid certificate possible: graph is not 3-connected: removing 2, 3 disconnects it"


def test_validate_structural_names_separator(tmp_path, capsys):
    path = tmp_path / "kite.json"
    path.write_text(json.dumps(KITE))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"{KITE_CUT}\n"


def test_refused_run_names_separator(tmp_path, capsys):
    (tmp_path / "kite.json").write_text(json.dumps(KITE))
    scenario = {
        "framework": "kite.json",
        "law": "dynamic",
        "T": 1.0,
        "initial_followers": [[0.0, 0.0], [0.5, 0.0]],
        "weights": {"edges": [[i, j, 1.0] for i, j in KITE["edges"]]},
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    assert main(["simulate", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"{KITE_CUT}\n"


@pytest.mark.parametrize(
    "positions, edges, leaders, message",
    [
        ([[0, 0], [1, 0], [0, 1]], [[1, 2], [1, 3], [2, 3]], [1], "n=3 < d+2=4"),
        ([[0, 0], [1, 0], [2, 0], [3, 0], [5, 0]], list(itertools.combinations(range(1, 6), 2)), [1, 2, 3],
         "the positions do not affinely span R^2"),
        (KITE["positions"], KITE["edges"], KITE["leaders"], "graph is not 3-connected: removing 2, 3 disconnects it"),
    ],
    ids=["too-few-nodes", "collinear", "two-node-separator"],
)
def test_every_command_names_a_failed_hypothesis_alike(tmp_path, capsys, positions, edges, leaders, message):
    (tmp_path / "framework.json").write_text(json.dumps({"d": 2, "positions": positions, "edges": edges,
                                                         "leaders": leaders}))
    save_weights({tuple(e): 1.0 for e in edges}, tmp_path / "weights.json")
    followers = [[0.5, 0.5]] * (len(positions) - len(leaders))
    for name, weights in (("weighted", "weights.json"), ("synthesized", None)):
        scenario = {"framework": "framework.json", "weights": weights, "law": "stationary", "T": 1.0,
                    "initial_followers": followers}
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))
    framework = str(tmp_path / "framework.json")
    commands = [
        ["validate", framework],
        ["validate", framework, "--weights", str(tmp_path / "weights.json")],
        ["synth", framework, "--out", str(tmp_path / "synth.json")],
        *(["simulate", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]
          for name in ("weighted", "synthesized")),
    ]
    for command in commands:
        assert main(command) == 1, command
        assert capsys.readouterr().err == f"no valid certificate possible: {message}\n", command
    assert not (tmp_path / "synth.json").exists()
    assert not list(tmp_path.rglob("trace.csv"))


def test_validate_refuses_a_stress_of_another_size(bench, tmp_path, capsys):
    write_stress(assemble_stress(Graph(4, [(1, 2), (2, 3), (3, 4)]), {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0}),
                 tmp_path / "stress.json")
    assert main(["validate", str(tmp_path / "framework.json"), "--stress", str(tmp_path / "stress.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: stress size does not match framework\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "option, data, message",
    [
        ("--stress", {"n": 5, "entries": [[float(i == j) for j in range(5)] for i in range(5)]},
         "error: stress: row sums deviate from zero by 1\n"),
        ("--stress", {"n": 5, "entries": [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]},
         "error: stress: entries are 3x3, header says 5\n"),
        ("--weights", {"edges": WEIGHT_ROWS[1:]}, "error: weights must name exactly the graph's edges; non-edges [], "
         "missing [(1, 2)]\n"),
    ],
    ids=["unbalanced-stress", "header-mismatch", "missing-weight"],
)
def test_validate_refusal_prints_no_report(bench, tmp_path, capsys, option, data, message):
    # The stress or weights file is refused before the report's first line.
    (tmp_path / "given.json").write_text(json.dumps(data))
    assert main(["validate", str(tmp_path / "framework.json"), option, str(tmp_path / "given.json")]) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3])
def test_psd_cut_is_relative_to_the_stress(bench, tmp_path, capsys, scale):
    # The PSD floor scales with lambda_max(|Omega|): the paper weights pass
    # and their negation, negative semidefinite, fails at every scale.
    for sign, verdict in ((1.0, "PASS"), (-1.0, "FAIL")):
        save_weights({e: sign * scale * w for e, w in EXACT_WEIGHTS.items()}, tmp_path / "scaled.json")
        rc = main(["validate", str(tmp_path / "framework.json"), "--weights", str(tmp_path / "scaled.json")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == (0 if verdict == "PASS" else 1)
        assert {f"PSD: {'yes' if sign > 0 else 'no'}", "equilibrium: yes", f"certificate: {verdict}"} <= set(lines)

def test_synth_failure_reports_best_eigenvalue(tmp_path, capsys):
    data = {
        "d": 1,
        "positions": [[0.0], [2.0], [1.0], [3.0]],
        "edges": [[1, 2], [2, 3], [3, 4], [1, 4]],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    assert main(["synth", str(path), "--out", str(tmp_path / "w.json")]) == 1
    err = capsys.readouterr().err
    assert "synthesis failed: the best lambda_min is <= 0 (best lambda_min -" in err
    assert "stress-space dimension 1" in err
    assert not (tmp_path / "w.json").exists()


# A d=1 linear scenario: four nodes on a line, all joined, leaders 1 and 2.
LINE = {"framework": {"d": 1, "positions": [[0.0], [1.0], [3.0], [4.5]],
                      "edges": [list(e) for e in itertools.combinations(range(1, 5), 2)], "leaders": [1, 2]},
        "law": "linear", "initial_followers": [[2.0], [5.0]], "plant": {"A": [[1.0]], "B": [[1.0]]}}


def test_riccati_scalar(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE))
    rc = main(["riccati", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "iterations: 0" in out
    assert "closed-loop spectral radius: 0" in out
    assert "[-1]" in out  # the gain


def test_riccati_rejects_degenerate_input_matrix(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({**LINE, "plant": {"A": [[1.0]], "B": [[0.0]]}}))
    assert main(["riccati", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: plant: B must have full column rank\n")


def test_riccati_iteration_budget(bench, capsys, monkeypatch):
    from affinesim import control

    plant = {"A": [[1.2, 1.0], [0.0, 0.8]], "B": [[0.0], [1.0]]}
    bench.write_text(json.dumps({**json.loads(bench.read_text()), **LINEAR, "plant": plant}))
    monkeypatch.setattr(control, "RICCATI_MAX_ITER", 1)
    assert main(["riccati", str(bench)]) == 5
    assert capsys.readouterr() == ("", "solver failure: Riccati iteration did not reach tol 1e-10 in 1 iterations\n")
    monkeypatch.undo()
    assert main(["riccati", str(bench)]) == 0


def test_riccati_prints_the_solution_of_the_runs_own_compile(bench, capsys):
    bench.write_text(json.dumps({**json.loads(bench.read_text()), **Q_WEIGHTED}))
    assert main(["riccati", str(bench)]) == 0
    solution = compile_run(load_scenario(bench)).solution
    P, K = ([f"  [{', '.join(f'{v:.6g}' for v in row)}]" for row in mat] for mat in (solution.P, solution.K))
    assert capsys.readouterr().out.splitlines() == [
        "P:", *P, "K:", *K, f"residual: {solution.residual:.6g}", "iterations: 10",
        "closed-loop spectral radius: 0.234436",
    ]


def test_riccati_of_a_manifest_prints_what_its_scenario_prints(bench, tmp_path, capsys):
    bench.write_text(json.dumps({**json.loads(bench.read_text()), **Q_WEIGHTED}))
    # The run diverges (modal radius 1.22743), and its manifest is written all the same.
    assert main(["simulate", str(bench), "--out", str(tmp_path / "run")]) == 3
    capsys.readouterr()
    assert main(["riccati", str(bench)]) == 0
    printed = capsys.readouterr()
    assert main(["riccati", str(tmp_path / "run" / "manifest.json")]) == 0
    assert capsys.readouterr() == printed


def test_synth_roundtrip(bench, tmp_path, capsys):
    out = tmp_path / "synth.json"
    with pytest.raises(SystemExit) as exc:
        main(["synth", str(tmp_path / "framework.json"), "--out", str(out), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    rc = main(["synth", str(tmp_path / "framework.json"), "--out", str(out)])
    assert rc == 0
    assert "certificate: PASS" in capsys.readouterr().out
    weights = load_weights(out)
    assert set(weights) == set(EXACT_WEIGHTS)
    assert main(["validate", str(tmp_path / "framework.json"), "--weights", str(out)]) == 0


def test_synth_fails_on_path_graph(tmp_path, capsys):
    data = {
        "d": 2,
        "positions": [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]],
        "edges": [[1, 2], [2, 3], [3, 4]],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(data))
    rc = main(["synth", str(path), "--out", str(tmp_path / "w.json")])
    assert rc == 1
    assert capsys.readouterr().err == "no valid certificate possible: graph is not 3-connected: removing 2 disconnects it\n"


def test_simulate_singular_follower_block_exit_code(bench, tmp_path, capsys):
    framework = json.loads((tmp_path / "framework.json").read_text())
    framework["leaders"] = [1, 4, 5]  # collinear: the follower block is singular
    (tmp_path / "framework.json").write_text(json.dumps(framework))
    data = json.loads(bench.read_text())
    data["initial_followers"] = [[0.0, 1.0], [0.0, -1.0]]
    bench.write_text(json.dumps(data))
    assert main(["simulate", str(bench), "--out", str(tmp_path / "singular")]) == 5
    assert "follower stress block is singular" in capsys.readouterr().err


def test_simulate_rejects_linear_law_schedule(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    data.update(
        law="linear",
        plant={"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
        epsilon=0.1,
        schedule={"segments": [{"k0": 0, "k1": 5, "kind": "translation", "params": {"v": [1, 0]}}]},
    )
    bench.write_text(json.dumps(data))
    assert main(["simulate", str(bench), "--out", str(tmp_path / "linear")]) == 2
    assert "linear law takes no schedule" in capsys.readouterr().err


def test_simulate_rejects_linear_law_period(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    data.update(LINEAR, T=0.3)
    bench.write_text(json.dumps(data))
    assert main(["simulate", str(bench), "--out", str(tmp_path / "linear")]) == 2
    assert "linear law takes no T but 1.0: its plant is already sampled" in capsys.readouterr().err


def test_linear_law_manifest_replays(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    del data["T"]
    data.update(LINEAR)
    bench.write_text(json.dumps(data))
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", str(bench), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["scenario"]["T"] == 1.0
    assert manifest["scenario"]["law"] == "linear"
    assert main(["simulate", str(first / "manifest.json"), "--out", str(second)]) == 0
    assert (second / "trace.csv").read_bytes() == (first / "trace.csv").read_bytes()
    assert (second / "summary.json").read_bytes() == (first / "summary.json").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "law, extra",
    [
        ("stationary", {"plant": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}}),
        ("dynamic", {"q": [[2.0, 0.0], [0.0, 2.0]]}),
        ("stationary", {"epsilon": 0.1}),
        ("dynamic", {"epsilon": 0.0}),
        ("dynamic", {"riccati_tol": 5.0}),
    ],
    ids=["plant", "q", "epsilon", "zero-epsilon", "riccati_tol"],
)
def test_simulate_rejects_linear_law_inputs_under_other_laws(bench, tmp_path, capsys, law, extra):
    data = json.loads(bench.read_text())
    data.update(law=law, **extra)
    bench.write_text(json.dumps(data))
    assert main(["simulate", str(bench), "--out", str(tmp_path / "other")]) == 2
    assert f"{law} law takes no plant, q, epsilon or riccati_tol" in capsys.readouterr().err


def refuse_nonfinite(token):
    raise AssertionError(f"non-JSON constant {token} written")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_every_written_json_file_is_one_strict_sorted_line(bench, tmp_path, capsys):
    data = json.loads(bench.read_text())
    data.update(T=1e308, budget=500)
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["simulate", str(bench), "--out", str(out / "simulate")]) == 0
    assert main(["batch", *map(str, batch_variants(bench, tmp_path)), str(overflow), "--out", str(out / "batch")]) == 3
    assert main(["synth", str(tmp_path / "framework.json"), "--out", str(out / "synth.json")]) == 0
    capsys.readouterr()
    written = sorted(out.rglob("*.json"))
    assert len(written) == 2 + 2 * 9 + 1
    for path in written:
        text = path.read_text()
        value = json.loads(text, parse_constant=refuse_nonfinite)
        assert text == json.dumps(value, sort_keys=True) + "\n", path
    # The overflowed run's non-finite values are written as strings.
    assert json.loads((out / "batch" / "overflow" / "summary.json").read_text())["final_delta"] == "inf"


@pytest.mark.parametrize(
    "segment, message",
    [
        ({"kind": "translation", "params": {}}, "translation takes params ['v'], got []"),
        ({"kind": "rotation", "params": {"axes": [0, 1]}}, "rotation takes params ['angle'] or ['angle', 'axes']"),
        ({"kind": "translation", "params": {"v": [1, 0], "angle": 1.0}}, "got ['angle', 'v']"),
        ({"kind": "scaling", "params": {"c": 2.0, "diag": [2.0, 1.0]}}, "got ['c', 'diag']"),
        ({"kind": "translation", "params": {"v": [1, 0]}, "k0": 0.7}, "need integers 0 <= k0 <= k1"),
        ({"kind": "translation", "params": {"v": [1, 0]}, "k1": 5.0}, "need integers 0 <= k0 <= k1"),
        ({"kind": "translation", "params": {"v": [1, 0]}, "interpp": "linear"}, "unknown keys ['interpp']"),
        ({"kind": "translation", "params": {"v": [1]}}, "translation vector must have length 2"),
        ({"kind": "rotation", "params": {"angle": 1.0, "axes": [0, 5]}}, "axes (0, 5) invalid for dimension 2"),
        ({"kind": "rotation", "params": {"angle": float("nan")}}, "rotation angle must be finite"),
        ({"kind": "translation", "params": {"v": ["1", 0]}}, "translation v: '1' is not a real number"),
        ({"kind": "rotation", "params": {"angle": True}}, "rotation angle: True is not a real number"),
        ({"kind": "scaling", "params": {"c": "2"}}, "scaling c: '2' is not a real number"),
        ({"kind": "rotation", "params": {"angle": 1.0, "axes": [0.7, 1]}}, "axes (0.7, 1) invalid for dimension 2"),
        ({"kind": "rotation", "params": {"angle": 1.0, "axes": [0]}}, "axes must be a pair of coordinate indices, got [0]"),
        ({"kind": "shear", "params": {"factor": 1.0, "axes": [0, 1, 2]}}, "axes must be a pair of coordinate indices, got [0, 1, 2]"),
        ({"kind": "rotation", "params": {"angle": 1.0, "axes": 5}}, "axes must be a pair of coordinate indices, got 5"),
    ],
    ids=["no-v", "no-angle", "extra-angle", "c-and-diag", "float-k0", "float-k1", "unknown-key",
         "short-v", "bad-axes", "nan-angle", "str-v", "bool-angle", "str-c", "float-axes",
         "one-axis", "three-axes", "int-axes"],
)
def test_simulate_refuses_bad_segments_before_writing(bench, tmp_path, capsys, segment, message):
    data = json.loads(bench.read_text())
    data["schedule"] = {"segments": [{"k0": 0, "k1": 5, **segment}]}
    bench.write_text(json.dumps(data))
    assert main(["simulate", str(bench), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()


BAD_SCENARIOS = [
    ({"budjet": 100}, "unknown keys ['budjet']"),
    ({"budget": float("inf")}, "step budget must be an integer"),
    ({"budget": 0.7}, "step budget must be an integer"),
    ({"budget": True}, "step budget must be an integer"),
    ({"tolerance": float("nan")}, "tolerance must be positive and finite"),
    ({"tolerance": float("inf")}, "tolerance must be positive and finite"),
    ({"weights": {"edges": [[1, 2, float("nan")]]}}, "weight of edge (1, 2) is not finite"),
    ({"weights": {"edges": [[1, 2, "0.5"]]}}, "weight of edge (1, 2) must be a real number, got '0.5'"),
    ({"weights": {"edges": [[1, 2, True]]}}, "weight of edge (1, 2) must be a real number, got True"),
    ({"T": "0.5"}, "T must be a real number, got '0.5'"),
    ({"T": True}, "T must be a real number, got True"),
    ({"tolerance": "1e-9"}, "tolerance must be a real number, got '1e-9'"),
    ({"epsilon": "0"}, "epsilon must be a real number, got '0'"),
    ({**LINEAR, "T": 1.0, "riccati_tol": "1e-10"}, "riccati_tol must be a real number, got '1e-10'"),
    ({**LINEAR, "T": 1.0, "epsilon": float("nan")}, "epsilon must be finite"),
    ({**LINEAR, "T": 1.0, "q": [[float("nan"), 0.0], [0.0, 1.0]]}, "q must be finite"),
    ({**LINEAR, "T": 1.0, "riccati_tol": float("nan")}, "riccati_tol must be positive and finite"),
    ({**LINEAR, "T": 1.0, "riccati_tol": 0.0}, "riccati_tol must be positive and finite"),
    ({**LINEAR, "T": 1.0, "riccati_tol": -1.0}, "riccati_tol must be positive and finite"),
    ({**LINEAR, "T": 1.0, "riccati_tol": float("inf")}, "riccati_tol must be positive and finite"),
    ({"T": 10**400}, "int too large to convert to float"),
    ({"initial_followers": [[10**400, 3], [-3, -2]]}, "int too large to convert to float"),
    ({"weights": {"edges": [[1, 2, 0.5]]}}, "edges; non-edges [], missing [(1, 3), (1, 4), (2, 3)"),
    ({"weights": {"edges": [*WEIGHT_ROWS, [1, 5, 0.1]]}}, "edges; non-edges [(1, 5)], missing []"),
    ({"weights": {"edges": [[1.5, 2, 0.292], *WEIGHT_ROWS[1:]]}}, "edge (1.5, 2) is not a pair of integer node ids"),
    ({"framework": {**FRAMEWORK, "leaders": [1.5, 2, 3]}}, "framework: node ids must be integers, got [1.5]"),
    ({"framework": {**FRAMEWORK, "edges": [[1.5, 2], *EDGES[1:]]}}, "edge [1.5, 2] is not a pair of integer"),
    ({"framework": {**FRAMEWORK, "edges": [["1", 2], *EDGES[1:]]}}, "edge ['1', 2] is not a pair of integer"),
    ({"framework": {**FRAMEWORK, "edges": [[1, 2, 3], *EDGES[1:]]}}, "edge [1, 2, 3] is not a pair of integer"),
    ({"framework": {**FRAMEWORK, "positions": [*FRAMEWORK["positions"][:4], ["-2", 0]]}},
     "framework: positions: '-2' is not a real number"),
    ({"framework": {**FRAMEWORK, "positions": [*FRAMEWORK["positions"][:4], [True, 0]]}},
     "framework: positions: True is not a real number"),
    ({"initial_followers": [["-4", 3], [-3, -2]]}, "scenario: initial_followers: '-4' is not a real number"),
    ({"initial_followers": [[True, 3], [-3, -2]]}, "scenario: initial_followers: True is not a real number"),
    ({"initial_followers": [[-4, 3], [-3]]}, "scenario: initial_followers: [-4, 3] is not a real number"),
    ({**LINEAR, "T": 1.0, "plant": {**LINEAR["plant"], "A": [["1", 0], [0, 1]]}}, "plant: A: '1' is not a real"),
    ({**LINEAR, "T": 1.0, "plant": {**LINEAR["plant"], "B": [[1, 0], [0, True]]}}, "plant: B: True is not a real"),
    ({**LINEAR, "T": 1.0, "q": [[1, 0], [0, "1"]]}, "scenario: q: '1' is not a real number"),
    ({**LINEAR, "T": 1.0, "q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "scenario: q must be 2x2"),
    ({**LINEAR, "T": 1.0, "q": [[1, 0.5], [0, 1]]}, "scenario: q must be symmetric"),
    ({**LINEAR, "T": 1.0, "q": [[-1, 0], [0, 1]]}, "scenario: q must be positive-semidefinite"),
    ({"framework": {**FRAMEWORK, "leaders": [1, 1, 3]}}, "leaders must be distinct nodes of 1..5; 1 is repeated"),
    ({"framework": {**FRAMEWORK, "leaders": [1, 2, 9]}}, "leaders must be distinct nodes of 1..5; 9 is outside"),
    ({"law": MISSING}, "scenario: missing required key 'law'"),
    ({"initial_followers": MISSING}, "scenario: missing required key 'initial_followers'"),
]
BAD_SCENARIO_IDS = [
    "unknown-key", "inf-budget", "float-budget", "bool-budget", "nan-tolerance", "inf-tolerance",
    "nan-weight", "str-weight", "bool-weight", "str-T", "bool-T", "str-tolerance", "str-epsilon",
    "str-riccati-tol", "nan-epsilon", "nan-q", "nan-riccati-tol", "zero-riccati-tol",
    "negative-riccati-tol", "inf-riccati-tol", "huge-T",
    "huge-follower", "missing-weights", "non-edge-weight", "float-weight-id", "float-leader", "float-edge",
    "str-edge", "triple-edge", "str-position", "bool-position", "str-follower", "bool-follower",
    "ragged-followers", "str-plant-A", "bool-plant-B", "str-q", "3x3-q", "asymmetric-q", "negative-q",
    "repeated-leader", "outside-leader", "missing-law", "missing-followers",
]
# riccati refuses the linear-law cases as simulate does, and a scenario of another law.
LINEAR_CASES = [i for i, (changes, _) in enumerate(BAD_SCENARIOS) if changes.get("law") == "linear"]


@pytest.mark.parametrize(
    "command, changes, message",
    [("simulate", *case) for case in BAD_SCENARIOS]
    + [("riccati", *BAD_SCENARIOS[i]) for i in LINEAR_CASES]
    + [("riccati", {}, "riccati needs a linear-law scenario, got the stationary law")],
    ids=BAD_SCENARIO_IDS + [f"riccati-{BAD_SCENARIO_IDS[i]}" for i in LINEAR_CASES] + ["riccati-stationary"],
)
def test_simulate_refuses_bad_scenarios_before_writing(bench, tmp_path, capsys, command, changes, message):
    data = {**json.loads(bench.read_text()), **changes}
    bench.write_text(json.dumps({key: value for key, value in data.items() if value is not MISSING}))
    out = ["--out", str(tmp_path / "run")] if command == "simulate" else []
    assert main([command, str(bench), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize(
    "name, header, message",
    [
        ("framework", {"d": 2.9}, "framework: d must be an integer, got 2.9"),
        ("framework", {"d": "2"}, "framework: d must be an integer, got '2'"),
        ("framework", {"d": True}, "framework: d must be an integer, got True"),
        ("stress", {"n": "5"}, "stress: n must be an integer, got '5'"),
        ("stress", {"n": 5.0}, "stress: n must be an integer, got 5.0"),
    ],
    ids=["float-d", "str-d", "bool-d", "str-n", "float-n"],
)
def test_validate_refuses_headers_that_are_not_integers(bench, tmp_path, capsys, name, header, message):
    write_stress(assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS), tmp_path / "stress.json")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **header}))
    assert main(["validate", str(tmp_path / "framework.json"), "--stress", str(tmp_path / "stress.json")]) == 2
    assert message in capsys.readouterr().err


def test_omitted_and_null_scenario_keys_load_the_spec_defaults(bench):
    data = json.loads(bench.read_text())
    for key in ("T", "budget", "tolerance", "epsilon", "riccati_tol"):
        data.pop(key, None)
    data.update(schedule=None, plant=None, q=None, epsilon=None)
    bench.write_text(json.dumps(data))
    spec = load_scenario(bench)
    for field in dataclasses.fields(ScenarioSpec):
        if field.name in ("T", "budget", "tolerance", "epsilon", "riccati_tol", "schedule", "plant", "q_matrix"):
            assert getattr(spec, field.name) == field.default, field.name
    # The linear law reads an absent epsilon as 0.0.
    bench.write_text(json.dumps({**data, **LINEAR, "epsilon": None}))
    assert load_scenario(bench).epsilon == 0.0


@pytest.mark.parametrize(
    "law, options",
    [
        ("dynamic", ["--stress", "nope.json", "--leaders", "1,2", "--epsilon", "3"]),
        ("dynamic", ["--A", "A.json", "--B", "B.json"]),
        ("stationary", ["--stress", "s.json", "--leaders", "1,2,3", "--epsilon", "0"]),
        ("stationary", ["--stress", "s.json", "--leaders", "1,2,3", "--A", "A.json"]),
        ("linear", ["--stress", "s.json", "--A", "A.json", "--B", "B.json", "--leaders", "1"]),
    ],
    ids=["dynamic-stress-leaders-epsilon", "dynamic-plant", "stationary-epsilon", "stationary-A", "linear-leaders"],
)
def test_stability_refuses_options_its_law_does_not_read(bench, capsys, law, options):
    # The scenario holds every input of its law: stability reads no option.
    bench.write_text(json.dumps({**json.loads(bench.read_text()), **(LINEAR if law == "linear" else {"law": law})}))
    with pytest.raises(SystemExit) as exc:
        main(["stability", str(bench), *options])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(options)}" in captured.err


def test_stability_refuses_a_nonfinite_epsilon(bench, capsys):
    data = {**json.loads(bench.read_text()), **LINEAR}
    for value in (float("nan"), float("inf")):
        bench.write_text(json.dumps({**data, "epsilon": value}))
        assert main(["stability", str(bench)]) == 2
        assert "epsilon must be finite" in capsys.readouterr().err


def json_leaves(value, path=()):
    """(path, leaf) for every number in a JSON value; bools are not numbers."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in json_leaves(value[key], path + (key,))]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in json_leaves(item, path + (i,))]
    return [] if isinstance(value, bool) or not isinstance(value, (int, float)) else [(path, value)]


def test_no_replaced_number_gets_past_the_reader_or_prints_a_traceback(tmp_path, capsys):
    """The benchmark scenario with a schedule, all inline, one number replaced
    by a numeric string, a bool, null, 10**400, [] or a nested list, or by 1.5
    in an integer field (ids, d, budget, k0, k1, axes): the run exits 2 before
    writing a manifest, or its manifest replays byte-identically."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    segments = [
        {"k0": 0, "k1": 4, "kind": "translation", "params": {"v": [1.0, 0.5]}, "interp": "linear"},
        {"k0": 5, "k1": 8, "kind": "rotation", "params": {"angle": 0.5, "axes": [0, 1]}},
    ]
    base = {"framework": FRAMEWORK, "law": "stationary", "T": 1.0, "tolerance": 1e-9, "budget": 2000,
            "initial_followers": [list(p) for p in FOLLOWER_START], "weights": {"edges": WEIGHT_ROWS},
            "schedule": {"segments": segments}}
    leaves = json_leaves(base)

    @hypothesis.settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        path, value = data.draw(st.sampled_from(leaves), label="leaf")
        choices = [str(value), True, None, 10**400, [], [[value]]] + [1.5] * (type(value) is int)
        replacement = data.draw(st.sampled_from(choices), label="replacement")
        scenario = json.loads(json.dumps(base))
        node = scenario
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = replacement
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            work = Path(work)
            (work / "scenario.json").write_text(json.dumps(scenario))
            rc = main(["simulate", str(work / "scenario.json"), "--out", str(work / "run")])
            # Only the huge int is a number. As a budget it runs to convergence (0); as
            # the rotation's k1 it keeps the leaders moving until the budget ends (4).
            assert rc in ((0, 2, 4) if type(replacement) is int else (2,)), (path, replacement, rc)
            if rc == 2:
                assert not (work / "run" / "manifest.json").exists()
            else:
                assert main(["simulate", str(work / "run" / "manifest.json"), "--out", str(work / "replay")]) == rc
                assert (work / "replay" / "trace.csv").read_bytes() == (work / "run" / "trace.csv").read_bytes()
        capsys.readouterr()

    check()
