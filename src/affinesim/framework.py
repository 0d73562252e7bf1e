"""Graphs, configurations and frameworks, plus the connectivity and
affine-span predicates used by rigidity certification and leader selection."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# The relative cut of numerical_rank.
RANK_RTOL = 1e-10
# Float first: a tuple built once and tried in this order keeps is_real cheap
# on the weights every scenario load checks.
REAL_TYPES = (float, int, np.floating, np.integer)


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer, so not a bool, as counts and ids must be."""
    return type(value) is int or isinstance(value, np.integer)


def is_real(value) -> bool:
    """Whether value is a real number and not a bool, as periods and tolerances must be."""
    return isinstance(value, REAL_TYPES) and not isinstance(value, bool)


def real_array(value, name: str, ndim: int | None = None) -> np.ndarray:
    """Read-only float copy of a number or nested list from outside, such as
    the JSON field name: every leaf must pass is_real (no str, bool, None or
    ragged nesting), and the result must be finite, with ndim dimensions if given."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        arr = value.astype(float)
    else:
        leaves = np.array(value, dtype=object)
        for leaf in leaves.flat:
            if not is_real(leaf):
                raise ValueError(f"{name}: {leaf!r} is not a real number")
        try:
            arr = leaves.astype(float)
        except OverflowError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def numerical_rank(values, size: int) -> int:
    """Number of the magnitudes in values (singular values, |eigenvalues|) above
    size * max * RANK_RTOL; 0 when there are none or the maximum is 0."""
    top = values.max() if values.size else 0.0
    return int(np.sum(values > size * top * RANK_RTOL)) if top > 0 else 0


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 1..n.

    Edges are normalized to sorted (i, j) pairs with i < j; duplicates and
    reversed pairs collapse to one edge. Self-loops are rejected.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        normalized = set()
        for edge in self.edges:
            if len(edge) != 2 or not (is_integer(edge[0]) and is_integer(edge[1])):
                raise ValueError(f"edge {list(edge)} is not a pair of integer node ids")
            i, j = int(edge[0]), int(edge[1])
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i}, {j}) outside nodes 1..{self.n}")
            normalized.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "edges", frozenset(normalized))

    def adjacency(self) -> dict:
        adj = {i: set() for i in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class Configuration:
    """Positions of n nodes in R^d, stored as a read-only (n, d) array."""

    positions: np.ndarray

    def __post_init__(self):
        pts = real_array(self.positions, "positions", 2)
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("positions must be a non-empty (n, d) array")
        object.__setattr__(self, "positions", pts)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class Framework:
    """A communication graph together with the configuration of its nodes."""

    graph: Graph
    config: Configuration

    def __post_init__(self):
        if self.graph.n != self.config.n:
            raise ValueError(
                f"graph has {self.graph.n} nodes but configuration has {self.config.n}"
            )


@dataclass(frozen=True)
class LeaderPartition:
    """Split of nodes 1..n into an ordered leader list and follower list.

    rows, the leaders-first ordering (leaders + followers) as 0-based rows,
    is the reindexing every block computation uses.
    """

    leaders: tuple
    followers: tuple

    def __post_init__(self):
        leaders, followers = tuple(self.leaders), tuple(self.followers)
        if not all(map(is_integer, leaders + followers)):
            raise ValueError(f"node ids must be integers, got {[i for i in leaders + followers if not is_integer(i)]}")
        object.__setattr__(self, "leaders", tuple(map(int, leaders)))
        object.__setattr__(self, "followers", tuple(map(int, followers)))
        n = len(leaders) + len(followers)
        if set(leaders) & set(followers):
            raise ValueError("leaders and followers overlap")
        if set(leaders) | set(followers) != set(range(1, n + 1)):
            raise ValueError(f"partition must cover nodes 1..{n} exactly")

    @classmethod
    def from_leaders(cls, leaders, n: int) -> "LeaderPartition":
        leaders = tuple(leaders)
        for k, i in enumerate(leaders):
            if is_integer(i) and (i in leaders[:k] or not 1 <= i <= n):
                raise ValueError(f"leaders must be distinct nodes of 1..{n}; {i} is {'repeated' if i in leaders[:k] else 'outside'}")
        return cls(leaders, tuple(i for i in range(1, n + 1) if i not in leaders))

    @property
    def n(self) -> int:
        return len(self.leaders) + len(self.followers)

    @property
    def n_leaders(self) -> int:
        return len(self.leaders)

    @property
    def n_followers(self) -> int:
        return len(self.followers)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The 0-based rows of the nodes in leaders-first order, read-only:
        rows[:n_leaders] are the leaders' and rows[n_leaders:] the followers'."""
        rows = np.array(self.leaders + self.followers, dtype=np.intp) - 1
        rows.setflags(write=False)
        return rows


def affine_span_dimension(points) -> int:
    """Dimension of the affine hull of a point set.

    Computed as the numerical rank of the matrix of differences p_i - p_1.
    A single point spans dimension 0; two distinct points a line, and so on.
    """
    pts = real_array(points, "points")
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need at least one point")
    # The cut scales with max(m, d), m the number of points (not of difference rows).
    return numerical_rank(np.linalg.svd(pts[1:] - pts[0], compute_uv=False), max(pts.shape))


def is_k_connected(graph: Graph, k: int) -> bool:
    """True iff removing any fewer than k vertices leaves the graph connected."""
    return vertex_separator(graph, k) is None


def vertex_separator(graph: Graph, k: int):
    """Sorted ids of fewer than k nodes whose removal disconnects the graph.

    () when already disconnected, None when k-connected. Even's test (SIAM
    J. Comput. 1975): such a separator misses one of the nodes 1..k, so only
    non-adjacent pairs s < t with s <= k are checked, each by a unit-capacity
    max-flow on the vertex-split digraph stopped after k augmenting paths.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if graph.n <= k:
        raise ValueError(f"k-connectivity with k={k} needs more than k nodes, got n={graph.n}")
    adj = graph.adjacency()
    pairs = [(s, t) for s in range(1, k + 1) for t in range(s + 1, graph.n + 1) if t not in adj[s]]
    if not pairs:
        return None
    # Node 2v is v's entry and 2v+1 its exit. entry -> exit has capacity 1;
    # each edge gives exit -> entry arcs both ways with capacity k, which a
    # cut of value below k can never contain.
    split = [(2 * v, 2 * v + 1, 1) for v in adj]
    split += [arc for i, j in graph.edges for arc in ((2 * i + 1, 2 * j, k), (2 * j + 1, 2 * i, k))]
    base, arcs = {}, {a: [] for a in range(2, 2 * graph.n + 2)}
    for tail, head, cap in split:
        base[tail, head], base[head, tail] = cap, 0
        arcs[tail].append(head)
        arcs[head].append(tail)
    for s, t in pairs:
        residual, source, sink = dict(base), 2 * s + 1, 2 * t
        for _ in range(k):
            parent, queue = {source: None}, [source]
            for a in queue:  # breadth-first: the loop visits what it appends
                if sink in parent:
                    break
                for b in arcs[a]:
                    if b not in parent and residual[a, b] > 0:
                        parent[b] = a
                        queue.append(b)
            if sink not in parent:  # entry reached, exit not: a minimum separator
                return tuple(v for v in adj if 2 * v in parent and 2 * v + 1 not in parent)
            b = sink
            while b != source:
                residual[parent[b], b] -= 1
                residual[b, parent[b]] += 1
                b = parent[b]
    return None

