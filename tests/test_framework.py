import itertools

import numpy as np
import pytest

from affinesim import (
    Configuration,
    Framework,
    Graph,
    LeaderPartition,
    affine_span_dimension,
    is_k_connected,
    validate_leader_selection,
    vertex_separator,
)
from affinesim.framework import numerical_rank, real_array


def test_graph_normalizes_edges():
    g = Graph(4, [(2, 1), (1, 2), (3, 4)])
    assert g.edges == {(1, 2), (3, 4)}
    assert (1, 2) in g.edges and (1, 3) not in g.edges
    assert g.neighbors(1) == (2,)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])


def test_configuration_validation():
    c = Configuration([(0, 0), (1, 2)])
    assert c.n == 2 and c.d == 2
    assert np.array_equal(c.positions.ravel(), [0, 0, 1, 2])
    with pytest.raises(ValueError):
        Configuration([(0, 0), (1,)])
    with pytest.raises(ValueError):
        Configuration([(0, np.inf)])
    with pytest.raises((ValueError, RuntimeError)):
        c.positions[0, 0] = 5.0


def test_framework_size_mismatch():
    with pytest.raises(ValueError):
        Framework(Graph(3, [(1, 2)]), Configuration([(0, 0), (1, 1)]))


def test_partition_from_leaders():
    p = LeaderPartition.from_leaders([2, 4], 5)
    assert p.leaders == (2, 4)
    assert p.followers == (1, 3, 5)
    assert p.order() == (2, 4, 1, 3, 5)
    assert p.n == 5 and p.n_leaders == 2 and p.n_followers == 3


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        LeaderPartition((1, 2), (2, 3))
    with pytest.raises(ValueError):
        LeaderPartition((1,), (3,))
    with pytest.raises(ValueError, match=r"distinct nodes of 1\.\.5; 1 is repeated"):
        LeaderPartition.from_leaders([1, 1, 3], 5)
    with pytest.raises(ValueError, match=r"distinct nodes of 1\.\.5; 9 is outside"):
        LeaderPartition.from_leaders([1, 2, 9], 5)


def test_real_array_reads_numbers_only():
    source = np.arange(4).reshape(2, 2)
    arr = real_array(source, "m", 2)
    assert arr.dtype == float and not arr.flags.writeable and np.array_equal(arr, source)
    assert real_array([[1, 2.5], [np.float32(0.5), np.int64(3)]], "m").tolist() == [[1.0, 2.5], [0.5, 3.0]]
    assert real_array(2, "c", 0).shape == ()
    for value, message in [
        ([1, "2"], "v: '2' is not a real number"),
        ([1, True], "v: True is not a real number"),
        ([1, None], "v: None is not a real number"),
        ([[1, 2], [3]], "v: [1, 2] is not a real number"),
        (np.array([True, False]), "v: True is not a real number"),
        ([1, 10**400], "v: int too large to convert to float"),
        ([1, float("nan")], "v must be finite"),
        ([[1, 2]], "v must be 1-dimensional, got shape (1, 2)"),
    ]:
        with pytest.raises(ValueError) as err:
            real_array(value, "v", 1)
        assert message in str(err.value)


def test_affine_span_dimension_cases():
    assert affine_span_dimension([(5.0, 5.0)]) == 0
    assert affine_span_dimension([(0, 0), (1, 0), (2, 0)]) == 1
    assert affine_span_dimension([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_span_dimension([(1, 0), (0, 1), (0, -1), (-1, 0), (-2, 0)]) == 2
    assert affine_span_dimension([(1, 1), (1, 1)]) == 0


def test_numerical_rank_cut():
    # The cut is size * max * 1e-10, here 2e-10; values at the cut count as zero.
    assert numerical_rank(np.array([1.0, 3e-10, 2e-10, 1e-10]), 2) == 2
    assert numerical_rank(np.zeros(3), 3) == 0
    assert numerical_rank(np.array([]), 1) == 0


def test_affine_span_invariant_under_rigid_motions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = rng.normal(size=(6, 3))
        dim = affine_span_dimension(pts)
        angle = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0],
                [np.sin(angle), np.cos(angle), 0],
                [0, 0, 1],
            ]
        )
        moved = pts @ rot.T + rng.normal(size=3)
        assert affine_span_dimension(moved) == dim


def test_is_k_connected():
    k4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    assert is_k_connected(k4, 3)
    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert is_k_connected(path, 1)
    assert not is_k_connected(path, 2)
    split = Graph(4, [(1, 2), (3, 4)])
    assert not is_k_connected(split, 1)
    with pytest.raises(ValueError):
        is_k_connected(path, 0)
    with pytest.raises(ValueError):
        is_k_connected(path, 4)


def test_benchmark_graph_is_three_connected(graph):
    assert is_k_connected(graph, 3)
    assert not is_k_connected(graph, 4)
    separator = vertex_separator(graph, 4)
    assert len(separator) == 3 and not connected_without(graph, separator)


def connected_without(graph, removed) -> bool:
    """Whether the graph stays connected once the nodes in removed are deleted."""
    adj = graph.adjacency()
    remaining = set(adj) - set(removed)
    start = next(iter(remaining))
    seen, stack = {start}, [start]
    while stack:
        for v in adj[stack.pop()]:
            if v in remaining and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(remaining)


def enumerated_k_connected(graph, k) -> bool:
    """Reference: try every vertex cut of fewer than k nodes."""
    return all(
        connected_without(graph, cut)
        for size in range(k)
        for cut in itertools.combinations(range(1, graph.n + 1), size)
    )


def test_vertex_separator_cases():
    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert vertex_separator(path, 2) == (2,)
    assert vertex_separator(Graph(4, [(1, 2), (3, 4)]), 1) == ()
    k5 = Graph(5, list(itertools.combinations(range(1, 6), 2)))
    assert vertex_separator(k5, 4) is None
    # Node 1 hangs off nodes 2 and 3 only.
    kite = Graph(5, [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    assert vertex_separator(kite, 3) == (2, 3)
    with pytest.raises(ValueError):
        vertex_separator(path, 4)


def test_is_k_connected_matches_cut_enumeration():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 9), label="n")
        k = data.draw(st.integers(1, min(4, n - 1)), label="k")
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        graph = Graph(n, [pair for pair, keep in zip(pairs, mask) if keep])
        separator = vertex_separator(graph, k)
        assert is_k_connected(graph, k) == enumerated_k_connected(graph, k) == (separator is None)
        if separator is not None:
            assert len(separator) < k and not connected_without(graph, separator)

    check()


def test_leader_selection(framework, partition):
    report = validate_leader_selection(framework, partition)
    assert report.passed
    assert report.n_leaders == 3 and report.required_leaders == 3
    assert report.span_dimension == 2

    too_few = LeaderPartition.from_leaders([1, 2], 5)
    assert not validate_leader_selection(framework, too_few).count_ok


def test_leader_selection_collinear_fails():
    # Three leaders on a line span only 1 dimension.
    config = Configuration([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    fw = Framework(g, config)
    report = validate_leader_selection(fw, LeaderPartition.from_leaders([1, 2, 3], 5))
    assert report.count_ok and not report.span_ok and not report.passed
