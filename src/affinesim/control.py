"""Discrete-time control laws, the sampling-period check and the Riccati gain.

Three laws are provided. The stationary-leader law updates followers
toward fixed leader targets through the propagator I - T * ff_block. The
dynamic-leader law tracks moving leaders by solving the follower rows of
the closed-loop stress relation, contracting its disagreement by (1 - T)
per step. The general linear law couples identical linear plants through
the stress matrix with a gain from a modified discrete Riccati equation.

Each law is stable when the spectral radius over its error's modes is
below 1: 1 + T * mu_i over the eigenvalues mu_i of the negated follower
block, the one mode 1 - T, and A + (1 - eps * lambda_i) B K over the
eigenvalues lambda_i of the stress. engine.stability_flags applies that
rule once, and the engine runs each law as one compiled step. The step
functions here restate the laws on stacked states for the tests; the
per-agent forms of the first two laws are test oracles (tests/oracles.py).
The dynamic step solves through stress.solve_follower_block, after the
follower block's one test, StressBlocks.follower_spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .framework import is_real, numerical_rank, real_array
from .stress import COND_LIMIT, StressBlocks, StressMatrix, solve_follower_block

# The most Riccati updates solve_mare makes before it gives up.
RICCATI_MAX_ITER = 100000


class SolverError(RuntimeError):
    """Riccati iteration broke down or failed to converge."""


def check_period(T) -> float:
    if not is_real(T):
        raise ValueError(f"sampling period must be a real number, got {T!r}")
    T = float(T)
    if not np.isfinite(T) or T <= 0.0:
        raise ValueError(f"sampling period must be positive and finite, got {T}")
    return T


def spectral_radius(M) -> float:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    if M.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(M)).max())


@dataclass(frozen=True)
class LinearPlant:
    """Identical agent dynamics x(k+1) = A x(k) + B u(k).

    B must have full column rank and (A, B) must be stabilizable; both are
    checked at construction, the latter by the eigenvector test on every
    eigenvalue on or outside the unit circle.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A, B = real_array(self.A, "A"), real_array(self.B, "B")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0] or B.shape[1] < 1:
            raise ValueError("B must have as many rows as A and at least one column")
        if numerical_rank(np.linalg.svd(B, compute_uv=False), max(B.shape)) != B.shape[1]:
            raise ValueError("B must have full column rank")
        m = A.shape[0]
        for lam in np.linalg.eigvals(A):
            if abs(lam) < 1.0 - 1e-9:
                continue
            test = np.hstack([A - lam * np.eye(m), B]).astype(complex)
            if numerical_rank(np.linalg.svd(test, compute_uv=False), max(test.shape)) != m:
                raise ValueError(f"(A, B) is not stabilizable: mode {lam:.6g} is uncontrollable")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class RiccatiSolution:
    """Converged Riccati iterate: value matrix P, gain K, final residual."""

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        P, K = real_array(self.P, "P"), real_array(self.K, "K")
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if not np.array_equal(P, P.T):
            raise ValueError("P must be symmetric")
        if np.linalg.eigvalsh(P)[0] <= 0.0:
            raise ValueError("P must be positive-definite")
        if K.ndim != 2 or K.shape[1] != P.shape[0]:
            raise ValueError("K must have as many columns as P")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "K", K)


def _split_stack(stack, rows: int, label: str) -> np.ndarray:
    arr = np.asarray(stack, dtype=float).ravel()
    if rows < 1 or arr.size % rows != 0:
        raise ValueError(f"{label} stack of length {arr.size} does not split over {rows} agents")
    return arr.reshape(rows, arr.size // rows)


def stationary_leader_step(blocks: StressBlocks, T, x_f, x_l_star) -> np.ndarray:
    """One update of the stationary-leader law.

    x_f(k+1) = x_f(k) - T [ff_block x_f(k) + fl_block x_l*], acting
    coordinate-wise through the Kronecker structure.
    """
    T = check_period(T)
    Xf = _split_stack(x_f, blocks.n_followers, "follower")
    Xl = _split_stack(x_l_star, blocks.n_leaders, "leader")
    if Xf.shape[1] != Xl.shape[1]:
        raise ValueError("follower and leader stacks disagree on dimension")
    return (Xf - T * (blocks.ff @ Xf + blocks.fl @ Xl)).ravel()


def dynamic_leader_step(blocks: StressBlocks, T, x_f, x_l, x_l_next) -> np.ndarray:
    """One update of the dynamic-leader law.

    Solves ff_block x_f(k+1) = (1-T)[ff_block x_f(k) + fl_block x_l(k)]
    - fl_block x_l(k+1) per coordinate. The follower block must be
    invertible.
    """
    T = check_period(T)
    Xf = _split_stack(x_f, blocks.n_followers, "follower")
    Xl = _split_stack(x_l, blocks.n_leaders, "leader")
    Xn = _split_stack(x_l_next, blocks.n_leaders, "leader")
    if not (Xf.shape[1] == Xl.shape[1] == Xn.shape[1]):
        raise ValueError("state stacks disagree on dimension")
    rhs = (1.0 - T) * (blocks.ff @ Xf + blocks.fl @ Xl) - blocks.fl @ Xn
    return solve_follower_block(blocks, rhs).ravel()


def riccati_weight(Q, m: int, name: str = "Q") -> np.ndarray:
    """Q symmetrized, read-only; refused unless a finite m x m matrix,
    symmetric up to roundoff and PSD."""
    Q = real_array(Q, name)
    if Q.shape != (m, m):
        raise ValueError(f"{name} must be {m}x{m}")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(Q).max())):
        raise ValueError(f"{name} must be symmetric")
    Q = (Q + Q.T) / 2.0
    if np.linalg.eigvalsh(Q)[0] < -1e-12 * max(1.0, np.abs(Q).max()):
        raise ValueError(f"{name} must be positive-semidefinite")
    Q.setflags(write=False)
    return Q


def check_riccati_limits(tol, name: str = "tol") -> float:
    """tol as a float, refused unless positive and finite; name labels it
    in the message."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(tol)


def solve_mare(plant: LinearPlant, Q, tol: float = 1e-10) -> RiccatiSolution:
    """Fixed-point solve of the modified discrete Riccati equation.

    Iterates P <- A'PA - A'PB (B'PB)^{-1} B'PA + Q from P_0 = Q; the
    update step equals the equation residual at the current iterate, so
    iteration stops once this step is at most tol in max norm. Returns the
    iterate at which the residual was measured together with its gain
    K = -(B'PB)^{-1} B'PA. A solve that has not stopped after
    RICCATI_MAX_ITER updates raises SolverError.
    """
    tol = check_riccati_limits(tol)
    A, B = plant.A, plant.B
    P = Q = riccati_weight(Q, plant.m)
    for iterations in range(RICCATI_MAX_ITER + 1):
        BtPB = B.T @ P @ B
        cond = np.linalg.cond(BtPB)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SolverError(f"B'PB became singular (cond {cond:.3g}) at iteration {iterations}")
        BtPA = B.T @ P @ A
        P_next = A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(BtPB, BtPA) + Q
        P_next = (P_next + P_next.T) / 2.0
        residual = float(np.abs(P_next - P).max())
        if residual <= tol:
            K = -np.linalg.solve(BtPB, BtPA)
            return RiccatiSolution(P=P, K=K, residual=residual, iterations=iterations)
        P = P_next
    raise SolverError(f"Riccati iteration did not reach tol {tol:.3g} in {RICCATI_MAX_ITER} iterations")


def linear_step(plant: LinearPlant, K, epsilon: float, stress: StressMatrix, x) -> np.ndarray:
    """One update of the stress-coupled linear law on the full stacked state.

    x(k+1) = [(I_n kron A) + (I_n - eps * stress) kron (B K)] x(k); every
    agent updates, leaders included. With eps = 0 the agents decouple into
    n copies of A + BK.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (plant.q, plant.m):
        raise ValueError(f"gain must be {plant.q}x{plant.m}")
    X = _split_stack(x, stress.n, "full state")
    if X.shape[1] != plant.m:
        raise ValueError(f"state stack does not split into {plant.m}-vectors")
    coupling = np.eye(stress.n) - float(epsilon) * stress.entries
    return (X @ plant.A.T + coupling @ X @ (plant.B @ K).T).ravel()
