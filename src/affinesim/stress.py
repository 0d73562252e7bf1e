"""Stress matrices: assembly from edge weights, the universal-rigidity
certificate and its hypotheses, the follower rows of a stress split at the
leaders (StressBlocks, whose follower_spectrum is the follower block's one
test), follower-target computation, and a concave-ascent stress synthesizer."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .framework import (
    RANK_RTOL,
    Framework,
    Graph,
    LeaderPartition,
    affine_span_dimension,
    is_integer,
    is_real,
    numerical_rank,
    real_array,
    vertex_separator,
)

# Matrices with a worse 2-norm condition number (follower blocks, B'PB) are
# treated as singular.
COND_LIMIT = 1e12
# Row-sum slack, relative to the largest entry. Equilibrium stresses have
# exactly zero row sums; matrices transcribed from rounded decimal sources
# carry defects up to about the rounding quantum, which this admits.
ROW_SUM_SLACK = 1e-2
# Stress synthesis: iteration cap, soft-min temperature (times n-d-1) at the
# first and last iteration, and the |gradient| * |w| that counts as converged.
SYNTH_MAX_ITER = 500
SYNTH_TEMPERATURE = (10.0, 1e4)
SYNTH_GRAD_TOL = 1e-12


class LocalizabilityError(ValueError):
    """Follower stress block is singular or too ill-conditioned to invert."""


class HypothesisError(RuntimeError):
    """A hypothesis of the certificate fails, so that no stress can pass it."""


class SynthesisError(RuntimeError):
    """No PSD stress of the required rank was found; best_min_eigenvalue is
    the best lambda_min at trace 1 the ascent reached (None if it never ran)."""

    def __init__(self, message: str, best_min_eigenvalue: float | None = None):
        super().__init__(message)
        self.best_min_eigenvalue = best_min_eigenvalue


@dataclass(frozen=True)
class StressMatrix:
    """Symmetric n x n stress matrix.

    Off-diagonal entries may take either sign (unlike a graph Laplacian);
    an equilibrium stress additionally has zero row sums and respects the
    graph sparsity. Assembly from edge weights guarantees both.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat = real_array(self.entries, "stress matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("stress matrix must be square and non-empty")
        if not np.array_equal(mat, mat.T):
            raise ValueError("stress matrix must be symmetric")
        defect = np.abs(mat @ np.ones(mat.shape[0])).max()
        scale = max(1.0, np.abs(mat).max())
        if defect > ROW_SUM_SLACK * scale:
            raise ValueError(f"row sums deviate from zero by {defect:.3g}")
        object.__setattr__(self, "entries", mat)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of entries, ascending, read-only: solved once per
        stress for its certificate and the linear law's stability flags,
        and the runs of a batch share a stress (engine.shared)."""
        spectrum = np.linalg.eigvalsh(self.entries)
        spectrum.setflags(write=False)
        return spectrum


@dataclass(frozen=True)
class StressBlocks:
    """The follower rows of a stress matrix, split at the leaders: ff, the
    follower block, and fl, the follower-leader block."""

    ff: np.ndarray
    fl: np.ndarray

    def __post_init__(self):
        ff, fl = real_array(self.ff, "ff", 2), real_array(self.fl, "fl", 2)
        if ff.shape[0] != ff.shape[1]:
            raise ValueError("follower block must be square")
        if fl.shape[0] != ff.shape[0]:
            raise ValueError("follower-leader block must have the follower block's rows")
        object.__setattr__(self, "ff", ff)
        object.__setattr__(self, "fl", fl)

    @property
    def n_leaders(self) -> int:
        return self.fl.shape[1]

    @property
    def n_followers(self) -> int:
        return self.ff.shape[0]

    @functools.cached_property
    def follower_spectrum(self) -> np.ndarray:
        """The eigenvalues mu of the negated follower block, ascending,
        read-only: solved once per blocks, which the runs of a batch share
        (engine.shared), and the block's one test. ValueError refuses an
        empty or asymmetric block, LocalizabilityError one whose max|mu| /
        min|mu| (infinite when min|mu| is 0) exceeds COND_LIMIT, and
        ValueError one with mu_min >= 0 (the stress certificate upstream is
        broken); a refusal is not cached."""
        if self.ff.size == 0:
            raise ValueError("follower block is empty: every node is a leader")
        if not np.array_equal(self.ff, self.ff.T):
            raise ValueError("follower block must be symmetric")
        mu = np.linalg.eigvalsh(-self.ff)
        magnitudes = np.abs(mu)
        cond = magnitudes.max() / magnitudes.min() if magnitudes.min() > 0.0 else np.inf
        if not cond <= COND_LIMIT:
            raise LocalizabilityError(
                f"follower stress block is singular or near-singular (cond {cond:.3g}); "
                "the leader selection or stress is inadequate"
            )
        if mu[0] >= 0.0:
            raise ValueError(f"mu_min must be negative, got {float(mu[0])}; stress certificate is broken")
        mu.setflags(write=False)
        return mu


@dataclass(frozen=True)
class RigidityCertificate:
    """Universal-rigidity check outcome for a framework that meets the
    hypotheses. The stress is in equilibrium when equilibrium_ratio,
    |Omega [P 1]|_2 over max(n, d) lambda_max(|Omega|) |[P 1]|_2, is at most
    RANK_RTOL."""

    rank: int
    expected_rank: int
    min_eigenvalue: float
    psd: bool
    equilibrium_ratio: float

    @property
    def equilibrium(self) -> bool:
        return self.equilibrium_ratio <= RANK_RTOL

    @property
    def passed(self) -> bool:
        return self.rank == self.expected_rank and self.psd and self.equilibrium


class EdgeWeights(dict):
    """Edge weights as normalize_weights returns them: keyed (i, j) with
    i < j, each a finite float. They are read-only, so assemble_stress
    takes them as they are instead of normalizing them again."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("normalized edge weights are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return normalize_weights, (tuple(self.items()),)


def normalize_weights(items) -> EdgeWeights:
    """Edge weights keyed (i, j) with i < j, from ((i, j), w) pairs.

    An edge may be named more than once, in either orientation, only with equal
    values; non-integer ids and conflicting, non-finite or non-number values raise ValueError.
    """
    resolved = {}
    for (i, j), value in items:
        if not (is_integer(i) and is_integer(j)):
            raise ValueError(f"edge ({i!r}, {j!r}) is not a pair of integer node ids")
        edge = (int(i), int(j)) if i < j else (int(j), int(i))
        if not is_real(value):
            raise ValueError(f"weight of edge {edge} must be a real number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"weight of edge {edge} is not finite")
        if edge in resolved and resolved[edge] != value:
            raise ValueError(f"conflicting weights for edge {edge}")
        resolved[edge] = value
    return EdgeWeights(resolved)


def assemble_stress(graph: Graph, weights) -> StressMatrix:
    """Build a stress matrix from per-edge weights.

    Diagonal entries are the sums of incident weights, off-diagonal entries
    the negated weights, zero elsewhere, so row sums vanish by construction
    and the weight of edge (i, j) reads back exactly as -entries[i-1, j-1].
    Weights must be given for exactly the edges of the graph; providing both
    orientations of an edge is allowed only with identical values. Weights
    that normalize_weights returned are not normalized again.
    """
    resolved = weights if isinstance(weights, EdgeWeights) else normalize_weights(weights.items())
    extra, missing = sorted(resolved.keys() - graph.edges), sorted(graph.edges - resolved.keys())
    if extra or missing:
        raise ValueError(f"weights must name exactly the graph's edges; non-edges {extra}, missing {missing}")
    edges, i, j = _edge_index(graph)
    return StressMatrix(_stress_entries(graph.n, i, j, np.array([resolved[e] for e in edges])))


def _edge_index(graph: Graph):
    """The graph's edges in sorted order, and the 0-based index arrays of their two ends."""
    edges = sorted(graph.edges)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2) - 1
    return edges, ends[:, 0], ends[:, 1]


def _stress_entries(n: int, i: np.ndarray, j: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """-w at (i, j) and (j, i) of each edge; np.add.at sums the diagonal over the
    interleaved ends (i0, j0, i1, j1, ...) in edge order, unbuffered."""
    mat = np.zeros((n, n))
    mat[i, j] = mat[j, i] = -weights
    ends = np.column_stack((i, j)).ravel()
    np.add.at(mat, (ends, ends), np.repeat(weights, 2))
    return mat


def partition_stress(stress: StressMatrix, partition: LeaderPartition) -> StressBlocks:
    """The follower rows of the stress at the follower and the leader columns."""
    if partition.n != stress.n:
        raise ValueError("partition size does not match stress matrix")
    leaders, followers = np.split(partition.rows, [partition.n_leaders])
    return StressBlocks(stress.entries[np.ix_(followers, followers)], stress.entries[np.ix_(followers, leaders)])


def check_rigidity_certificate(stress: StressMatrix | None, framework: Framework) -> RigidityCertificate | None:
    """Universal-rigidity certificate (Connelly, DCG 2005): an equilibrium
    stress of rank n-d-1, PSD, on a framework that meets the hypotheses.

    A stress of the wrong size, or with a nonzero entry at a pair that is
    not an edge, raises ValueError and a failed hypothesis HypothesisError.
    With stress None only the hypotheses are checked, and None is returned.
    """
    if stress is not None:
        if stress.n != framework.config.n:
            raise ValueError("stress size does not match framework")
        edges = framework.graph.edges
        off_edge = np.triu(stress.entries, 1) != 0
        ends = np.fromiter(itertools.chain.from_iterable(edges), np.intp, 2 * len(edges)) - 1
        off_edge[ends[0::2], ends[1::2]] = False
        if off_edge.any():
            i, j = np.argwhere(off_edge)[0] + 1
            raise ValueError(f"stress must be zero off the graph's edges; non-edge ({i}, {j}) is nonzero")
    _check_hypotheses(framework)
    return None if stress is None else _certificate(stress, framework)


def _check_hypotheses(framework: Framework) -> None:
    """The certificate's hypotheses, each stated here alone: n >= d+2, the
    positions affinely span R^d, and the graph is (d+1)-connected.
    HypothesisError names the first that fails."""
    graph, config = framework.graph, framework.config
    n, d = config.n, config.d
    if n < d + 2:
        reason = f"n={n} < d+2={d + 2}"
    elif affine_span_dimension(config.positions) != d:
        reason = f"the positions do not affinely span R^{d}"
    elif (separator := vertex_separator(graph, d + 1)) is not None:
        cut = ", ".join(map(str, separator)) or "nothing"
        reason = f"graph is not {d + 1}-connected: removing {cut} disconnects it"
    else:
        return
    raise HypothesisError(f"no valid certificate possible: {reason}")


def _certificate(stress: StressMatrix, framework: Framework) -> RigidityCertificate:
    """check_rigidity_certificate for a stress of checked size on a framework
    that meets the hypotheses. Rank, PSD and equilibrium share one relative
    cut, max(n, d) * RANK_RTOL * lambda_max(|Omega|): the rank counts the
    |eigenvalues| above it, PSD allows lambda_min down to minus it, and
    |Omega [P 1]|_2 may reach it times |[P 1]|_2."""
    n, d = stress.n, framework.config.d
    eig = stress.spectrum
    magnitudes = np.abs(eig)
    min_eig, top = float(eig[0]), float(magnitudes.max())
    psd = min_eig >= -max(n, d) * RANK_RTOL * top
    affine = np.column_stack((framework.config.positions, np.ones(n)))
    residual = np.linalg.norm(stress.entries @ affine, 2)
    ratio = float(residual / (max(n, d) * top * np.linalg.norm(affine, 2))) if top > 0 else 0.0
    return RigidityCertificate(numerical_rank(magnitudes, max(n, d)), n - d - 1, min_eig, psd, ratio)


def solve_follower_block(blocks: StressBlocks, rhs: np.ndarray) -> np.ndarray:
    """Solve ff_block @ X = rhs once the block's test, follower_spectrum, passes."""
    blocks.follower_spectrum  # cached: the test runs once per blocks
    return np.linalg.solve(blocks.ff, rhs)


def follower_targets(blocks: StressBlocks, leader_targets) -> np.ndarray:
    """Follower target stack induced by the leader target stack.

    Solves ff_block @ F = -fl_block @ L columnwise per coordinate; the
    follower block must be well-conditioned for the targets to exist.
    """
    stack = np.asarray(leader_targets, dtype=float).ravel()
    n_l = blocks.n_leaders
    if n_l == 0 or stack.size % n_l != 0:
        raise ValueError(f"leader stack of length {stack.size} does not split over {n_l} leaders")
    d = stack.size // n_l
    leaders = stack.reshape(n_l, d)
    targets = -solve_follower_block(blocks, blocks.fl @ leaders)
    return targets.ravel()


def equilibrium_constraint_matrix(framework: Framework):
    """Matrix mapping edge-weight vectors to stacked equilibrium residuals.

    Returns (edges, C) with edges sorted and C of shape (n*d, len(edges));
    weight vectors w with C @ w = 0 are exactly the equilibrium stresses.
    """
    pts = framework.config.positions
    edges, i, j = _edge_index(framework.graph)
    diff, cols = pts[i] - pts[j], np.arange(len(edges))
    # C[d*(v-1) + c, e] holds coordinate c of node v's term in edge e.
    C = np.zeros((framework.graph.n, framework.config.d, len(edges)))
    C[i, :, cols] = diff
    C[j, :, cols] = -diff
    return edges, C.reshape(-1, len(edges))


def _row_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space of a matrix, of numerical_rank(sigma, max(shape)) columns."""
    u, sigma, _ = np.linalg.svd(matrix.T, full_matrices=False)
    return u[:, : numerical_rank(sigma, max(matrix.shape))]


def synthesize_stress(framework: Framework):
    """Certificate-passing equilibrium stress by concave ascent.

    With Q an orthonormal basis of the complement of [P, 1], an equilibrium
    stress Omega(w) = Q M(w) Q^T is PSD with rank n-d-1 exactly when
    lambda_min(M(w)) > 0. The ascent maximises that concave function over
    edge weights w in the null space of the equilibrium constraint matrix C,
    on tr M(w) = a.w = 1, from w0 = a/|a|^2 with a = project(2 * ones),
    where project(w) = w - R R^T w and R spans the row space of C. It
    returns the first iterate that passes check_rigidity_certificate as
    (weights edge -> weight, StressMatrix, RigidityCertificate); see README,
    Certification. The result is deterministic. Raises HypothesisError when
    a hypothesis of the certificate fails, and SynthesisError when a = 0 or
    the best lambda_min is <= 0 at the end.
    """
    graph, config = framework.graph, framework.config
    n, d = graph.n, config.d
    # Checked once here; each candidate below pays only its eigensolve.
    _check_hypotheses(framework)

    edges, C = equilibrium_constraint_matrix(framework)
    _, i, j = _edge_index(graph)
    row_space = _row_space(C)
    dimension = len(edges) - row_space.shape[1]

    def project(w):
        return w - row_space @ (row_space.T @ w)

    a = project(np.full(len(edges), 2.0))  # a.w = tr Omega(w) for every equilibrium w
    if np.linalg.norm(a) <= 2.0 * np.sqrt(len(edges)) * RANK_RTOL:
        raise SynthesisError(f"a = 0: no stress has trace 1 (stress dimension {dimension})")

    size = n - d - 1
    q = np.linalg.svd(np.column_stack([np.ones(n), config.positions]))[0][:, d + 1 :]
    # |Omega(w)|_2 <= 2 sqrt(max degree) |w|, so the soft minimum's gradient is
    # (t * lipschitz)-Lipschitz and a step of 1 / (t * lipschitz) always ascends.
    lipschitz = 4.0 * np.bincount(np.concatenate((i, j))).max()

    def spectrum(weights):
        return np.linalg.eigh(q.T @ _stress_entries(n, i, j, weights) @ q)

    def soft_min(lam, t):
        return lam[0] - np.log(np.exp(-t * (lam - lam[0])).sum()) / t

    weights = a / (a @ a)
    lam, vec = spectrum(weights)
    first, last = SYNTH_TEMPERATURE
    best, eta = -np.inf, 1.0 / (lipschitz * size * first)
    for it in range(SYNTH_MAX_ITER):
        best = max(best, lam[0])
        if lam[0] > 0.0:
            result = dict(zip(edges, weights.tolist()))
            stress = assemble_stress(graph, result)
            certificate = _certificate(stress, framework)
            if certificate.passed:
                return result, stress, certificate
        t = size * first * (last / first) ** (it / (SYNTH_MAX_ITER - 1))
        p, u = np.exp(-t * (lam - lam[0])), q @ vec
        y = (u * (p / p.sum())) @ u.T
        g = project(np.diag(y)[i] + np.diag(y)[j] - 2.0 * y[i, j])
        g -= (a @ g) / (a @ a) * a
        if np.linalg.norm(g) * np.linalg.norm(weights) <= SYNTH_GRAD_TOL:
            break
        # Backtracking: double the last step, halve it until the soft minimum
        # rises by half the first-order gain or the step is the safe one.
        f, eta = soft_min(lam, t), 2.0 * eta
        while True:
            step = weights + eta * g
            lam, vec = spectrum(step)
            if soft_min(lam, t) >= f + 0.5 * eta * (g @ g) or eta * t * lipschitz <= 1.0:
                break
            eta /= 2.0
        weights = step
    condition = "no iterate passed the certificate" if best > 0.0 else "the best lambda_min is <= 0"
    raise SynthesisError(
        f"{condition} (best lambda_min {best:.6g} at trace 1, bound {1.0 / size:.6g}, "
        f"stress-space dimension {dimension}, iterations run: {it + 1})",
        best_min_eigenvalue=float(best),
    )
