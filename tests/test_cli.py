import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from affinesim import Graph, ScenarioSpec, assemble_stress
from affinesim.cli import main
from affinesim.fileio import load_scenario, load_weights, save_stress, save_weights

from conftest import (
    EDGES,
    EXACT_WEIGHTS,
    FOLLOWER_START,
    FOLLOWER_TARGETS,
    LEADERS,
    REFERENCE_POSITIONS,
    write_benchmark_files,
)

FRAMEWORK = {"d": 2, "positions": [list(p) for p in REFERENCE_POSITIONS], "edges": [list(e) for e in EDGES],
             "leaders": list(LEADERS)}
WEIGHT_ROWS = [[i, j, w] for (i, j), w in sorted(EXACT_WEIGHTS.items())]


def write_matrix(path, rows):
    path.write_text(json.dumps(rows))
    return str(path)


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
    assert "certificate: PASS" in out


def test_validate_structural_only(bench, tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "framework.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "connectivity (3-connected): yes" in out
    assert "structural checks: PASS" in out


def test_validate_too_small(tmp_path, capsys):
    data = {"d": 2, "positions": [[0, 0], [1, 0], [0, 1]], "edges": [[1, 2], [1, 3], [2, 3]]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    rc = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "certificate impossible: n = 3 < d+2 = 4" in out


def test_validate_negated_weights_fail(bench, tmp_path, capsys):
    save_weights({e: -w for e, w in EXACT_WEIGHTS.items()}, tmp_path / "neg.json")
    rc = main(["validate", str(tmp_path / "framework.json"), "--weights", str(tmp_path / "neg.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "PSD: no" in out
    assert "certificate: FAIL" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_older_manifest_with_seed_replays_byte_identical(bench, tmp_path):
    first = tmp_path / "run1"
    assert main(["simulate", str(bench), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["seed"] = manifest["scenario"]["seed"] = 7
    older = tmp_path / "older_manifest.json"
    older.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert main(["simulate", str(older), "--out", str(tmp_path / "run2")]) == 0
    assert (tmp_path / "run2" / "trace.csv").read_bytes() == (first / "trace.csv").read_bytes()


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
    a = write_matrix(tmp_path / "A.json", [[1.0, "0"], [0.0, 0.8]])
    assert main(["riccati", "--A", a, "--B", write_matrix(tmp_path / "B.json", [[0.0], [1.0]])]) == 2
    assert f"{a}: '0' is not a real number" in capsys.readouterr().err
    b = write_matrix(tmp_path / "B_bool.json", [[False], [1.0]])
    assert main(["riccati", "--A", write_matrix(tmp_path / "A_unit.json", [[1.0]]), "--B", b]) == 2
    assert f"{b}: False is not a real number" in capsys.readouterr().err


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


def test_stability_stationary_report(tmp_path, capsys):
    save_stress(assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS), tmp_path / "stress.json")
    rc = main(["stability", "--law", "stationary", "--T", "1.0",
               "--stress", str(tmp_path / "stress.json"), "--leaders", "1,2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mu_min: -1.49311" in out
    assert "> -2: stable" in out
    assert "disagreement spectral radius: 0.951109" in out


def test_stability_stationary_needs_inputs(capsys):
    assert main(["stability", "--law", "stationary", "--T", "1.0"]) == 2
    assert "needs --stress and --leaders" in capsys.readouterr().err


def test_stability_dynamic_reports(capsys):
    assert main(["stability", "--law", "dynamic", "--T", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "decay factor |1-T|: 0.5" in out
    assert "stable, decay 0.5 per step" in out

    assert main(["stability", "--law", "dynamic", "--T", "2.0"]) == 0
    assert "marginally unstable (|1-T| = 1)" in capsys.readouterr().out

    assert main(["stability", "--law", "dynamic", "--T", "2.5"]) == 0
    assert "UNSTABLE" in capsys.readouterr().out


def test_stability_linear_reports_modal_test(tmp_path, capsys):
    stress = assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS)
    save_stress(stress, tmp_path / "stress.json")
    a = write_matrix(tmp_path / "A.json", [[1.2, 0.0], [0.0, 1.2]])
    b = write_matrix(tmp_path / "B.json", [[1.0, 0.0], [0.0, 1.0]])
    base = ["stability", "--law", "linear", "--T", "1.0", "--stress", str(tmp_path / "stress.json"),
            "--A", a, "--B", b]
    # K = -A, so each mode A + (1 - eps lambda_i) B K is 1.2 eps lambda_i I.
    assert main(base + ["--epsilon", "1.0"]) == 0
    out = capsys.readouterr().out
    lam_max = np.linalg.eigvalsh(stress.entries)[-1]
    assert f"modal_spectral_radius: {1.2 * lam_max:.6g}" in out
    assert "stable: False" in out
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "modal_spectral_radius: 0" in out
    assert "stable: True" in out


def test_stability_linear_needs_inputs(capsys):
    assert main(["stability", "--law", "linear", "--T", "1.0"]) == 2
    assert "needs --stress, --A and --B" in capsys.readouterr().err
    assert main(["stability", "--law", "linear", "--T", "0.5"]) == 2
    assert "linear law takes no T but 1.0: its plant is already sampled" in capsys.readouterr().err


# Node 1 of this framework hangs off nodes 2 and 3 only.
KITE = {
    "d": 2,
    "positions": [[0.0, 2.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
    "edges": [[1, 2], [1, 3], [2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5]],
    "leaders": [1, 2, 3],
}


def test_validate_structural_names_separator(tmp_path, capsys):
    path = tmp_path / "kite.json"
    path.write_text(json.dumps(KITE))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "connectivity (3-connected): no (removing 2, 3 disconnects the graph)" in out
    assert "structural checks: FAIL" in out


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
    captured = capsys.readouterr()
    assert "run refused" in captured.err
    assert "connectivity: no (removing 2, 3 disconnects the graph)" in captured.out


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


def test_riccati_scalar(tmp_path, capsys):
    a = write_matrix(tmp_path / "A.json", [[1.0]])
    b = write_matrix(tmp_path / "B.json", [[1.0]])
    rc = main(["riccati", "--A", a, "--B", b])
    out = capsys.readouterr().out
    assert rc == 0
    assert "iterations: 0" in out
    assert "closed-loop spectral radius: 0" in out
    assert "[-1]" in out  # the gain


def test_riccati_rejects_degenerate_input_matrix(tmp_path, capsys):
    a = write_matrix(tmp_path / "A.json", [[1.0]])
    b = write_matrix(tmp_path / "B.json", [[0.0]])
    assert main(["riccati", "--A", a, "--B", b]) == 2
    assert "error:" in capsys.readouterr().err


def test_riccati_iteration_budget(tmp_path, capsys):
    a = write_matrix(tmp_path / "A.json", [[1.2, 1.0], [0.0, 0.8]])
    b = write_matrix(tmp_path / "B.json", [[0.0], [1.0]])
    assert main(["riccati", "--A", a, "--B", b, "--max-iter", "1"]) == 5
    assert "solver failure" in capsys.readouterr().err
    assert main(["riccati", "--A", a, "--B", b]) == 0


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
    assert "synthesis failed" in capsys.readouterr().err


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
        ("dynamic", {"riccati_tol": 5.0}),
    ],
    ids=["plant", "q", "epsilon", "riccati_tol"],
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
    save_stress(assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS), out / "stress.json")
    capsys.readouterr()
    written = sorted(out.rglob("*.json"))
    assert len(written) == 2 + 2 * 9 + 2
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
    ],
    ids=["no-v", "no-angle", "extra-angle", "c-and-diag", "float-k0", "float-k1", "unknown-key",
         "short-v", "bad-axes", "nan-angle", "str-v", "bool-angle", "str-c", "float-axes"],
)
def test_simulate_refuses_bad_segments_before_writing(bench, tmp_path, capsys, segment, message):
    data = json.loads(bench.read_text())
    data["schedule"] = {"segments": [{"k0": 0, "k1": 5, **segment}]}
    bench.write_text(json.dumps(data))
    assert main(["simulate", str(bench), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize(
    "changes, message",
    [
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
    ],
    ids=["unknown-key", "inf-budget", "float-budget", "bool-budget", "nan-tolerance", "inf-tolerance",
         "nan-weight", "str-weight", "bool-weight", "str-T", "bool-T", "str-tolerance", "str-epsilon",
         "str-riccati-tol", "nan-epsilon", "nan-q", "nan-riccati-tol", "zero-riccati-tol", "huge-T",
         "huge-follower", "missing-weights", "non-edge-weight", "float-weight-id", "float-leader", "float-edge",
         "str-edge", "triple-edge", "str-position", "bool-position", "str-follower", "bool-follower",
         "ragged-followers", "str-plant-A", "bool-plant-B", "str-q", "3x3-q", "asymmetric-q", "negative-q",
         "repeated-leader", "outside-leader"],
)
def test_simulate_refuses_bad_scenarios_before_writing(bench, tmp_path, capsys, changes, message):
    data = json.loads(bench.read_text())
    data.update(changes)
    bench.write_text(json.dumps(data))
    assert main(["simulate", str(bench), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
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
    save_stress(assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS), tmp_path / "stress.json")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **header}))
    assert main(["validate", str(tmp_path / "framework.json"), "--stress", str(tmp_path / "stress.json")]) == 2
    assert message in capsys.readouterr().err


def test_omitted_and_null_scenario_keys_load_the_spec_defaults(bench):
    data = json.loads(bench.read_text())
    for key in ("T", "budget", "tolerance", "epsilon", "riccati_tol"):
        data.pop(key, None)
    data.update(schedule=None, plant=None, q=None)
    bench.write_text(json.dumps(data))
    spec = load_scenario(bench)
    for field in dataclasses.fields(ScenarioSpec):
        if field.name in ("T", "budget", "tolerance", "epsilon", "riccati_tol", "schedule", "plant", "q_matrix"):
            assert getattr(spec, field.name) == field.default, field.name


@pytest.mark.parametrize(
    "law, options, unread",
    [
        ("dynamic", ["--stress", "nope.json", "--leaders", "1,2", "--epsilon", "3"], "--stress, --leaders, --epsilon"),
        ("dynamic", ["--A", "A.json", "--B", "B.json"], "--A, --B"),
        ("stationary", ["--stress", "s.json", "--leaders", "1,2,3", "--epsilon", "0"], "--epsilon"),
        ("stationary", ["--stress", "s.json", "--leaders", "1,2,3", "--A", "A.json"], "--A"),
        ("linear", ["--stress", "s.json", "--A", "A.json", "--B", "B.json", "--leaders", "1"], "--leaders"),
    ],
    ids=["dynamic-stress-leaders-epsilon", "dynamic-plant", "stationary-epsilon", "stationary-A", "linear-leaders"],
)
def test_stability_refuses_options_its_law_does_not_read(capsys, law, options, unread):
    T = "1.0" if law == "linear" else "0.5"
    assert main(["stability", "--law", law, "--T", T, *options]) == 2
    assert f"{law} stability reads no {unread}" in capsys.readouterr().err


def test_stability_refuses_a_nonfinite_epsilon(tmp_path, capsys):
    save_stress(assemble_stress(Graph(5, EDGES), EXACT_WEIGHTS), tmp_path / "stress.json")
    eye = write_matrix(tmp_path / "I.json", [[1.0, 0.0], [0.0, 1.0]])
    base = ["stability", "--law", "linear", "--T", "1.0", "--stress", str(tmp_path / "stress.json"), "--A", eye, "--B", eye]
    for value in ("nan", "inf"):
        assert main(base + ["--epsilon", value]) == 2
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
