import collections
import dataclasses
import json
import pickle

import numpy as np
import pytest

from affinesim import (
    Configuration,
    Framework,
    Graph,
    HypothesisError,
    LeaderPartition,
    LocalizabilityError,
    ScenarioSpec,
    StressBlocks,
    StressMatrix,
    SynthesisError,
    assemble_stress,
    check_rigidity_certificate,
    follower_targets,
    partition_stress,
    run_scenario,
    stability_flags,
    synthesize_stress,
)
from affinesim.cli import main
from affinesim.fileio import load_scenario
from affinesim.stress import _row_space, equilibrium_constraint_matrix, normalize_weights

from conftest import (
    EDGES,
    EXACT_WEIGHTS,
    FOLLOWER_START,
    FOLLOWER_TARGETS,
    MU_MAX,
    MU_MIN,
    write_benchmark_files,
)
from oracles import equilibrium_residual, reassemble_stress


def test_assemble_matches_hand_blocks(exact_stress):
    # Spot-check entries against the defining weights.
    m = exact_stress.entries
    assert m[0, 1] == -0.292
    assert m[3, 4] == -0.5
    assert m[0, 4] == 0.0  # no edge between 1 and 5
    assert m[3, 3] == pytest.approx(1.292, abs=1e-12)
    assert m[4, 4] == pytest.approx(0.25, abs=1e-12)


def test_assemble_row_sums_vanish(graph):
    rng = np.random.default_rng(3)
    for _ in range(50):
        weights = {e: rng.normal() for e in EDGES}
        stress = assemble_stress(graph, weights)
        scale = max(1.0, np.abs(stress.entries).max())
        assert np.abs(stress.entries.sum(axis=1)).max() <= 1e-12 * scale


def test_assemble_rejects_bad_weights(graph):
    with pytest.raises(ValueError):
        assemble_stress(graph, {(1, 5): 1.0, **EXACT_WEIGHTS})
    missing = dict(EXACT_WEIGHTS)
    del missing[(4, 5)]
    with pytest.raises(ValueError):
        assemble_stress(graph, missing)
    with pytest.raises(ValueError):
        assemble_stress(graph, {**EXACT_WEIGHTS, (5, 4): 0.7})
    # Same value under both orientations is fine.
    both = {**EXACT_WEIGHTS, (5, 4): 0.5}
    assert assemble_stress(graph, both).entries[3, 4] == -0.5


def test_stress_matrix_validation():
    with pytest.raises(ValueError):
        StressMatrix([[0.0, 1.0], [0.5, 0.0]])  # not symmetric
    with pytest.raises(ValueError):
        StressMatrix([[1.0, 0.0], [0.0, 1.0]])  # row sums far from zero
    with pytest.raises(ValueError):
        StressMatrix(np.ones((2, 3)))


def test_rounded_matrix_is_accepted(rounded_stress):
    # 3-decimal rounding leaves a small row-sum defect, within the slack.
    assert 0 < np.abs(rounded_stress.entries.sum(axis=1)).max() <= 2e-3


def test_equilibrium_ratio_agrees_with_the_residual(exact_stress, rounded_stress, framework, reference):
    # The certificate's ratio and a max-norm residual computed apart from it
    # agree on which stress is in equilibrium.
    assert equilibrium_residual(exact_stress, reference) <= 1e-12
    assert check_rigidity_certificate(exact_stress, framework).equilibrium
    assert 0 < equilibrium_residual(rounded_stress, reference) <= 1e-3
    assert not check_rigidity_certificate(rounded_stress, framework).equilibrium
    small = Framework(Graph(2, [(1, 2)]), Configuration([(0, 0), (1, 1)]))
    with pytest.raises(ValueError, match="stress size does not match framework"):
        check_rigidity_certificate(exact_stress, small)


def test_partition_blocks(exact_stress, partition, blocks):
    np.testing.assert_allclose(blocks.ff, [[1.292, -0.5], [-0.5, 0.25]], atol=1e-12)
    np.testing.assert_allclose(
        blocks.fl, [[0.292, -0.542, -0.542], [0.0, 0.125, 0.125]], atol=1e-12
    )
    assert np.array_equal(blocks.fl, blocks.lf.T)
    rebuilt = reassemble_stress(blocks, partition)
    assert np.array_equal(rebuilt.entries, exact_stress.entries)


def test_partition_nontrivial_order(exact_stress):
    # Leaders need not be the lowest-numbered nodes.
    part = LeaderPartition.from_leaders([2, 4, 5], 5)
    blocks = partition_stress(exact_stress, part)
    rebuilt = reassemble_stress(blocks, part)
    assert np.array_equal(rebuilt.entries, exact_stress.entries)


def test_blocks_transpose_validation():
    with pytest.raises(ValueError):
        StressBlocks(ll=np.eye(2), lf=np.ones((2, 1)), fl=np.zeros((1, 2)), ff=np.eye(1))


def test_certificate_exact_stress(exact_stress, framework):
    cert = check_rigidity_certificate(exact_stress, framework)
    assert cert.rank == 2 == cert.expected_rank
    assert cert.min_eigenvalue >= -1e-8
    assert cert.psd and cert.passed
    assert cert.equilibrium and cert.equilibrium_ratio <= 1e-14


def test_certificate_rounding_sensitivity(rounded_stress, framework):
    # Rounding to 3 decimals perturbs the spectrum enough to break the
    # strict rank/PSD checks.
    cert = check_rigidity_certificate(rounded_stress, framework)
    assert not cert.passed


def test_certificate_rejects_small_frameworks():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    fw = Framework(g, Configuration([(0, 0), (1, 0), (0, 1)]))
    stress = StressMatrix(np.zeros((3, 3)))
    with pytest.raises(HypothesisError, match=r"^no valid certificate possible: n=3 < d\+2=4$"):
        check_rigidity_certificate(stress, fw)


def test_follower_targets(blocks, reference):
    leaders = reference.positions[:3].ravel()
    targets = follower_targets(blocks, leaders)
    np.testing.assert_allclose(targets, np.ravel(FOLLOWER_TARGETS), atol=1e-12)


def test_follower_targets_singular_block():
    blocks = StressBlocks(
        ll=np.zeros((2, 2)), lf=np.ones((2, 1)), fl=np.ones((1, 2)), ff=np.zeros((1, 1))
    )
    with pytest.raises(LocalizabilityError):
        follower_targets(blocks, np.zeros(4))


def test_min_eig_neg_ff(blocks):
    assert stability_flags("stationary", 1.0, blocks)["mu_min"] == pytest.approx(MU_MIN, abs=1e-12)
    eigs = np.linalg.eigvalsh(-blocks.ff)
    np.testing.assert_allclose(sorted(eigs), [MU_MIN, MU_MAX], atol=1e-12)


def stress_space(framework):
    """(edge count, dimension of the equilibrium stresses), with the row
    space R of the constraint matrix C checked: R^T R = I, and
    w - R R^T w is an equilibrium stress for random w."""
    edges, C = equilibrium_constraint_matrix(framework)
    row_space = _row_space(C)
    np.testing.assert_allclose(row_space.T @ row_space, np.eye(row_space.shape[1]), atol=1e-12)
    rng = np.random.default_rng(11)
    for w in rng.normal(size=(5, len(edges))):
        projected = w - row_space @ (row_space.T @ w)
        assert np.abs(C @ projected).max() <= 1e-12 * np.abs(C).max() * np.abs(w).sum()
    return len(edges), len(edges) - row_space.shape[1]


def test_stress_basis_dimensions(framework):
    assert stress_space(framework) == (9, 2)

    # Complete graph on 4 generic points in the plane: 1-dim stress space.
    k4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    config = Configuration([(0.0, 0.0), (3.0, 0.1), (-0.2, 3.0), (1.1, 0.9)])
    assert stress_space(Framework(k4, config)) == (6, 1)


# Weights synthesized for the benchmark framework and for test_synthesize_k4's
# K4 when the ascent ran on coordinates over an explicit basis of the
# equilibrium stresses. Stepping in edge space gives the same iterates.
PINNED_BENCHMARK_WEIGHTS = {
    (1, 2): 0.07399999999999998,
    (1, 3): 0.07399999999999991,
    (1, 4): -0.07399999999999991,
    (2, 3): -0.10600000000000008,
    (2, 4): 0.20200000000000004,
    (2, 5): -0.06400000000000008,
    (3, 4): 0.20199999999999999,
    (3, 5): -0.064,
    (4, 5): 0.2560000000000001,
}
PINNED_K4_WEIGHTS = {
    (1, 2): -0.09428607640974493,
    (1, 3): -0.07017268330495369,
    (1, 4): 0.2443851750620399,
    (2, 3): -0.08277997894957273,
    (2, 4): 0.2882916641409828,
    (3, 4): 0.21456189946124862,
}


def assert_pinned(weights, pinned):
    assert list(weights) == list(pinned)
    np.testing.assert_allclose(list(weights.values()), list(pinned.values()), rtol=1e-12)


def test_synthesize_benchmark(framework, reference):
    weights, returned, certificate = synthesize_stress(framework)
    assert_pinned(weights, PINNED_BENCHMARK_WEIGHTS)
    stress = assemble_stress(framework.graph, weights)
    assert equilibrium_residual(stress, reference) <= 1e-9
    assert check_rigidity_certificate(stress, framework).passed
    # The stress and certificate returned are those of the weights returned.
    assert np.array_equal(returned.entries, stress.entries)
    assert certificate == check_rigidity_certificate(stress, framework)


def test_synthesize_deterministic(framework):
    w1 = synthesize_stress(framework)[0]
    w2 = synthesize_stress(framework)[0]
    assert w1 == w2


def test_synthesize_k4(framework):
    k4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    config = Configuration([(0.0, 0.0), (3.0, 0.1), (-0.2, 3.0), (1.1, 0.9)])
    fw = Framework(k4, config)
    weights = synthesize_stress(fw)[0]
    assert_pinned(weights, PINNED_K4_WEIGHTS)
    assert check_rigidity_certificate(assemble_stress(k4, weights), fw).passed


def test_synthesize_rejects_weak_graphs():
    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    fw = Framework(path, Configuration([(0, 0), (1, 0.2), (2, -0.1), (3, 0.3)]))
    with pytest.raises(HypothesisError, match="graph is not 3-connected: removing"):
        synthesize_stress(fw)

    tri = Graph(3, [(1, 2), (1, 3), (2, 3)])
    fw3 = Framework(tri, Configuration([(0, 0), (1, 0), (0, 1)]))
    with pytest.raises(HypothesisError, match=r"n=3 < d\+2=4"):
        synthesize_stress(fw3)


def certified_complete_framework(n, d, rng):
    """Complete-graph framework with a certificate by construction.

    With A = [P, 1] split into leader rows A_l (nodes 1..d+1) and follower
    rows A_f, Omega = W^T Omega_ff W with W = [-A_f A_l^-1 | I] and Omega_ff
    positive definite vanishes on A, is PSD and has rank n-d-1.
    """
    positions = rng.uniform(-1.5, 1.5, size=(n, d))
    aug = np.hstack([positions, np.ones((n, 1))])
    w_map = np.hstack([-aug[d + 1 :] @ np.linalg.inv(aug[: d + 1]), np.eye(n - d - 1)])
    root = rng.normal(size=(n - d - 1, n - d - 1))
    omega = w_map.T @ (root @ root.T + np.eye(n - d - 1)) @ w_map
    graph = Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    weights = {(i, j): -omega[i - 1, j - 1] for i, j in graph.edges}
    return Framework(graph, Configuration(positions)), weights


def test_synthesize_certifies_constructed_frameworks():
    rng = np.random.default_rng(2024)
    # 20 frameworks at n=7 per dimension, then one at n=60, d=3 (1770 edges).
    for n, d in [(7, 2)] * 20 + [(7, 3)] * 20 + [(60, 3)]:
        fw, truth = certified_complete_framework(n, d, rng)
        assert check_rigidity_certificate(assemble_stress(fw.graph, truth), fw).passed
        weights = synthesize_stress(fw)[0]
        stress = assemble_stress(fw.graph, weights)
        assert equilibrium_residual(stress, fw.config) <= 1e-9
        assert check_rigidity_certificate(stress, fw).passed


def perturbed_triangulated_grid():
    """4x4 grid with both diagonals per cell and the distance-2 edges, jittered."""
    rng = np.random.default_rng(0)
    positions = [(x, y) for y in range(4) for x in range(4)] + rng.uniform(-0.1, 0.1, (16, 2))
    node = {(x, y): 4 * y + x + 1 for y in range(4) for x in range(4)}
    steps = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
    edges = {
        (node[x, y], node[x + dx, y + dy])
        for (x, y) in node
        for dx, dy in steps
        if (x + dx, y + dy) in node
    }
    edges |= {(node[x + 1, y], node[x, y + 1]) for x in range(3) for y in range(3)}
    return Framework(Graph(16, edges), Configuration(positions))


def test_synthesize_certifies_perturbed_grid():
    fw = perturbed_triangulated_grid()
    assert stress_space(fw) == (58, 29)
    weights = synthesize_stress(fw)[0]
    assert check_rigidity_certificate(assemble_stress(fw.graph, weights), fw).passed


def test_synthesize_reports_missing_psd_stress():
    # The 4-cycle at 0, 2, 1, 3 on a line carries a single stress direction,
    # (3, -6, 3, -2) on edges 12, 23, 34, 14, which is indefinite.
    cycle = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    fw = Framework(cycle, Configuration([(0.0,), (2.0,), (1.0,), (3.0,)]))
    assert stress_space(fw) == (4, 1)
    with pytest.raises(SynthesisError) as info:
        synthesize_stress(fw)
    assert info.value.best_min_eigenvalue < 0.0
    assert "best lambda_min is <= 0" in str(info.value)
    assert "stress-space dimension 1" in str(info.value)

    # At 0, 2, 1, -1 the single stress (1, -2, -1, 2) sums to zero: a = 0.
    fw = Framework(cycle, Configuration([(0.0,), (2.0,), (1.0,), (-1.0,)]))
    with pytest.raises(SynthesisError, match="a = 0: no stress has trace 1"):
        synthesize_stress(fw)


def test_synthesize_is_bit_identical_across_calls_and_seeds():
    fw = perturbed_triangulated_grid()
    first = synthesize_stress(fw)[0]
    for _ in range(3):
        again = synthesize_stress(fw)[0]
        assert list(again) == list(first)
        assert np.array(list(again.values())).tobytes() == np.array(list(first.values())).tobytes()


@pytest.fixture
def separator_calls(monkeypatch):
    """Arguments of every vertex_separator call, under each name it is bound
    to; is_k_connected calls it through the framework module."""
    import affinesim.framework
    import affinesim.stress

    calls, original = [], affinesim.framework.vertex_separator
    for module in (affinesim.framework, affinesim.stress):
        monkeypatch.setattr(module, "vertex_separator", lambda *a: calls.append(a) or original(*a))
    return calls


def count_calls(monkeypatch, names):
    """Call counts of the named stress functions, under every module name
    bound to them."""
    import affinesim.cli
    import affinesim.engine
    import affinesim.fileio
    import affinesim.stress

    counts = collections.Counter()
    for name in names:
        original = getattr(affinesim.stress, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in (affinesim.stress, affinesim.engine, affinesim.cli, affinesim.fileio):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def certify_calls(monkeypatch):
    return count_calls(monkeypatch, ("_certificate", "assemble_stress"))


def test_synthesis_runs_the_connectivity_test_once(separator_calls):
    fw = perturbed_triangulated_grid()
    expected = synthesize_stress(fw)[0]
    separator_calls.clear()
    weights = synthesize_stress(fw)[0]
    assert len(separator_calls) == 1
    assert list(weights) == list(expected)
    assert np.array(list(weights.values())).tobytes() == np.array(list(expected.values())).tobytes()


def test_synthesizing_run_tests_connectivity_once(benchmark_scenario, separator_calls, certify_calls):
    spec = dataclasses.replace(benchmark_scenario, weights=None, budget=5)
    result = run_scenario(spec)
    assert len(separator_calls) == 1
    # Synthesis assembles and certifies the stress it accepts; the run reuses both.
    assert certify_calls == {"_certificate": 1, "assemble_stress": 1}
    assert np.array_equal(result.stress.entries, synthesize_stress(spec.framework)[1].entries)


def test_synth_command_tests_connectivity_once(tmp_path, separator_calls, certify_calls, capsys):
    write_benchmark_files(tmp_path)
    out = tmp_path / "synth.json"
    assert main(["synth", str(tmp_path / "framework.json"), "--out", str(out)]) == 0
    assert len(separator_calls) == 1
    assert certify_calls == {"_certificate": 1, "assemble_stress": 1}
    assert "certificate: PASS" in capsys.readouterr().out


def test_weights_are_assembled_once_per_batch_at_load(tmp_path, monkeypatch, capsys):
    import affinesim.cli

    scenario = write_benchmark_files(tmp_path)
    counts = count_calls(monkeypatch, ("normalize_weights", "assemble_stress"))
    in_runs = collections.Counter()

    def run(arg, _original=affinesim.cli.run_batch):
        before = counts.copy()
        result = _original(arg)
        in_runs.update(counts - before)
        return result

    monkeypatch.setattr(affinesim.cli, "run_batch", run)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "run")]) == 0
    # The file parse normalizes; the spec assembles what it normalized.
    assert counts == {"normalize_weights": 1, "assemble_stress": 1}
    counts.clear()
    copies = [scenario, tmp_path / "T05.json", tmp_path / "T08.json"]
    for T, path in zip((0.5, 0.8), copies[1:]):
        path.write_text(json.dumps({**json.loads(scenario.read_text()), "T": T}))
    assert main(["batch", *map(str, copies), "--out", str(tmp_path / "batch")]) == 0
    # One parse of the shared weights file, and one assembly on the shared graph.
    assert counts == {"normalize_weights": 1, "assemble_stress": 1}
    counts.clear()
    # Weights that differ, inline or in another file, are assembled apart.
    weights = json.loads((tmp_path / "weights.json").read_text())
    doubled = {"edges": [[i, j, 2.0 * w] for i, j, w in weights["edges"]]}
    (tmp_path / "doubled.json").write_text(json.dumps(doubled))
    for name, value in (("inline.json", doubled), ("file.json", "doubled.json")):
        (tmp_path / name).write_text(json.dumps({**json.loads(scenario.read_text()), "T": 0.5, "weights": value}))
        copies.append(tmp_path / name)
    assert main(["batch", *map(str, copies), "--out", str(tmp_path / "batch2")]) == 0
    assert counts == {"normalize_weights": 3, "assemble_stress": 3}
    assert not in_runs
    capsys.readouterr()


def test_weights_are_normalized_once_per_load(framework, partition, tmp_path, monkeypatch):
    scenario = write_benchmark_files(tmp_path)
    inline = tmp_path / "inline.json"
    weights = json.loads((tmp_path / "weights.json").read_text())
    inline.write_text(json.dumps({**json.loads(scenario.read_text()), "weights": weights}))
    counts = count_calls(monkeypatch, ("normalize_weights",))
    for loads, path in enumerate([scenario, inline, scenario], start=1):
        load_scenario(path)
        assert counts["normalize_weights"] == loads
    # A spec given plain weights normalizes them itself, once.
    ScenarioSpec(framework=framework, partition=partition, law="stationary",
                 initial_followers=FOLLOWER_START, weights=EXACT_WEIGHTS)
    assert counts["normalize_weights"] == 4


def test_normalized_weights_are_read_only():
    weights = normalize_weights([((2, 1), 0.5), ((1, 3), 1)])
    assert weights == {(1, 2): 0.5, (1, 3): 1.0}
    for change in (lambda w: w.__setitem__((1, 2), "x"), lambda w: w.update({(1, 2): "x"}),
                   lambda w: w.pop((1, 2)), lambda w: w.setdefault((2, 3), 1.0), lambda w: w.clear()):
        with pytest.raises(TypeError, match="read-only"):
            change(weights)
    assert weights == {(1, 2): 0.5, (1, 3): 1.0}
    copied = pickle.loads(pickle.dumps(weights))
    assert copied == weights and type(copied) is type(weights)


def test_failing_certificate_tests_connectivity_once(framework, separator_calls):
    # Without edge 4-5, node 5 hangs on nodes 2 and 3 alone.
    graph = Graph(5, [e for e in EDGES if e != (4, 5)])
    weights = {e: w for e, w in EXACT_WEIGHTS.items() if e != (4, 5)}
    fw = Framework(graph, framework.config)
    with pytest.raises(HypothesisError, match="graph is not 3-connected: removing 2, 3 disconnects it"):
        check_rigidity_certificate(assemble_stress(graph, weights), fw)
    assert len(separator_calls) == 1
