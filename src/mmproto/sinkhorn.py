"""Entropy-regularized optimal transport codes via Sinkhorn-Knopp scaling.

Given a K x B score matrix, produces the soft assignment Q on the
transportation polytope with uniform marginals: every row sums to 1/K,
every column to 1/B, total mass 1. The solver alternates row and column
rescaling of exp(scores / epsilon); higher epsilon spreads mass, lower
epsilon sharpens assignments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DimensionError, as_matrix


class InputError(ValueError):
    """Scores contain non-finite entries."""


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.05
    n_iterations: int = 3
    convergence_tolerance: float = 0.0  # 0 disables early exit

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.n_iterations < 1:
            raise ValueError(
                f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.convergence_tolerance < 0:
            raise ValueError("convergence_tolerance must be >= 0")


#: solver settings used by tests and acceptance runs: iterate to a fixed
#: point instead of a fixed sweep count.
CONVERGED = SinkhornConfig(epsilon=0.05, n_iterations=1000,
                           convergence_tolerance=1e-8)


def converged_config(epsilon: float) -> SinkhornConfig:
    return SinkhornConfig(epsilon=epsilon, n_iterations=1000,
                          convergence_tolerance=1e-8)


@dataclass
class CodeMatrix:
    """Soft assignment Q (K x B) with equipartition marginals."""

    q: np.ndarray

    @property
    def n_prototypes(self) -> int:
        return self.q.shape[0]

    @property
    def n_samples(self) -> int:
        return self.q.shape[1]

    def marginal_deviation(self) -> tuple[float, float]:
        """(max row-sum deviation from 1/K, max col-sum deviation from 1/B)."""
        k, b = self.q.shape
        row = float(np.abs(self.q.sum(axis=1) - 1.0 / k).max())
        col = float(np.abs(self.q.sum(axis=0) - 1.0 / b).max())
        return row, col


def compute_codes(scores, config: SinkhornConfig) -> CodeMatrix:
    """Scale exp(scores / epsilon) onto the equipartition polytope.

    With convergence_tolerance == 0 this runs exactly `n_iterations`
    alternating sweeps (rows to 1/K, then columns to 1/B). With a nonzero
    tolerance it solves for the fixed point directly: plain sweeps crawl
    for sharp kernels (small epsilon), so the converged path switches to a
    damped Newton iteration on the log-domain scaling potentials, which
    reaches the same fixed point in a handful of steps.
    """
    scores = as_matrix(scores)
    if not np.isfinite(scores).all():
        raise InputError("scores contain NaN or Inf")
    k, b = scores.shape

    tol = config.convergence_tolerance
    if tol > 0.0 and min(k, b) > 1:
        return CodeMatrix(_converged_solve(scores / config.epsilon, tol,
                                           config.n_iterations))

    s = scores / config.epsilon
    q = np.exp(s - s.max())  # global max subtraction: no overflow
    q /= q.sum()
    for _ in range(config.n_iterations):
        q *= (1.0 / k) / q.sum(axis=1, keepdims=True)
        q *= (1.0 / b) / q.sum(axis=0, keepdims=True)
        if tol > 0.0:
            row_dev = np.abs(q.sum(axis=1) - 1.0 / k).max()
            col_dev = np.abs(q.sum(axis=0) - 1.0 / b).max()
            if row_dev < tol and col_dev < tol:
                break
    return CodeMatrix(q)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    out = m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _converged_solve(log_kernel: np.ndarray, tol: float,
                     max_iterations: int) -> np.ndarray:
    """Fixed point of Diag(lambda) exp(log_kernel) Diag(mu) with uniform
    marginals, via log-domain sweeps plus Newton steps on the potentials."""
    k, b = log_kernel.shape
    log_r, log_c = -np.log(k), -np.log(b)
    u = np.zeros(k)
    v = np.zeros(b)

    def sweep(u, v):
        u = log_r - _logsumexp(log_kernel + v[None, :], axis=1)
        v = log_c - _logsumexp(log_kernel + u[:, None], axis=0)
        return u, v

    for _ in range(5):  # enter the region where exp() is bounded
        u, v = sweep(u, v)

    r = np.full(k, 1.0 / k)
    c = np.full(b, 1.0 / b)
    m = np.exp(log_kernel + u[:, None] + v[None, :])
    row, col = m.sum(axis=1), m.sum(axis=0)
    for _ in range(max_iterations):
        residual = max(np.abs(row - r).max(), np.abs(col - c).max())
        if residual < tol:
            return m
        du, dv = _newton_step(m, row, col, row - r, (col - c)[:-1])

        t = 1.0
        for _ in range(40):  # backtrack on the marginal residual
            ut, vt = u + t * du, v + t * dv
            mt = log_kernel + ut[:, None] + vt[None, :]
            np.exp(np.minimum(mt, 60.0, out=mt), out=mt)
            rowt, colt = mt.sum(axis=1), mt.sum(axis=0)
            trial = max(np.abs(rowt - r).max(), np.abs(colt - c).max())
            if np.isfinite(trial) and trial < residual:
                # an accepted trial never hit the clamp (its mass would
                # exceed e^60), so it is exactly the next iterate's m
                u, v, m, row, col = ut, vt, mt, rowt, colt
                break
            t *= 0.5
        else:
            u, v = sweep(u, v)
            m = np.exp(log_kernel + u[:, None] + v[None, :])
            row, col = m.sum(axis=1), m.sum(axis=0)
    return m


def _newton_step(m, row, col, g_u, g_v):
    """Newton step (du, dv) on the potentials for the system
    [[diag(row), M'], [M'^T, diag(col')]] (du, dv') = -(g_u, g_v), where
    M' and col' drop the last column, whose v is pinned (dv[-1] = 0) to
    absorb the translation invariance u+t, v-t of the potentials.

    Both diagonal blocks are diagonal, so the larger one is eliminated and
    only the min(K, B-1)-sized Schur complement is factorized (Brauer,
    Clason, Lorenz & Wirth, arXiv:1710.06635).
    """
    k, b = m.shape
    mp, cp = m[:, :-1], col[:-1]
    if k <= b - 1:
        a = mp / cp
        du = _solve(np.diag(row) - a @ mp.T, a @ g_v - g_u)
        dv = (-g_v - mp.T @ du) / cp
    else:
        a = mp / row[:, None]
        dv = _solve(np.diag(cp) - mp.T @ a, a.T @ g_u - g_v)
        du = (-g_u - mp @ dv) / row
    return du, np.append(dv, 0.0)


def _solve(h, rhs):
    try:
        return np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(h, rhs, rcond=None)[0]


def entropy(q: CodeMatrix | np.ndarray) -> float:
    """Shannon entropy -sum(q log q) with 0 log 0 := 0."""
    m = q.q if isinstance(q, CodeMatrix) else as_matrix(q)
    if (m < 0).any():
        raise InputError("entropy requires non-negative entries")
    nz = m[m > 0]
    return float(-(nz * np.log(nz)).sum())


def transport_objective(scores, q: CodeMatrix | np.ndarray,
                        epsilon: float) -> float:
    """Score alignment plus entropy bonus: Tr(Q^T scores) + eps * H(Q).

    Test oracle only: the converged code should not be improvable by small
    feasible perturbations.
    """
    scores = as_matrix(scores)
    m = q.q if isinstance(q, CodeMatrix) else as_matrix(q)
    if scores.shape != m.shape:
        raise DimensionError(
            f"scores {scores.shape} vs codes {m.shape}")
    return float((m * scores).sum()) + epsilon * entropy(m)
