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

from .errors import NumericalError, UsageError
from .numerics import as_matrix


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.05
    n_iterations: int = 3
    # 0 runs exactly n_iterations sweeps; a tolerance > 0 selects the damped
    # Newton solver, capped at n_iterations steps
    convergence_tolerance: float = 0.0

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise UsageError(
                f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.n_iterations < 1:
            raise UsageError(
                f"n_iterations must be >= 1, got {self.n_iterations}")
        if not 0 <= self.convergence_tolerance < np.inf:
            raise UsageError("convergence_tolerance must be finite and >= 0, "
                             f"got {self.convergence_tolerance}")


#: Newton systems whose Schur complement has at least this order are solved
#: by conjugate gradients, smaller ones by a dense factorization; one step
#: costs about the same both ways at this order
CG_MIN_ORDER = 512
#: relative residual |S x - rhs| / |rhs| at which conjugate gradients stop
CG_TOLERANCE = 1e-6
#: conjugate-gradient iterations after which a solve stops short
CG_MAX_ITERATIONS = 1000


def converged_config(epsilon: float) -> SinkhornConfig:
    """Iterate to the fixed point instead of a fixed sweep count."""
    return SinkhornConfig(epsilon=epsilon, n_iterations=1000,
                          convergence_tolerance=1e-8)


@dataclass
class CodeMatrix:
    """Soft assignment Q (K x B) with equipartition marginals.

    A converged-mode solve also reports its final prototype potentials `u`
    (log row scalings, length K), which can start a later solve, the Newton
    steps it took, whether its marginal residual reached the tolerance, and
    its fallbacks: line-search trials rejected (`backtracks`), sweeps taken
    in place of a Newton step whose direction was not finite (a singular
    Schur system, or an overflow) or whose 40 backtracks all failed
    (`fallback_sweeps`), and Newton steps whose conjugate gradients stopped
    short of their tolerance (`inexact_steps`). `residual` is its final
    marginal residual. Fixed sweeps and the single-row or single-column
    closed form carry no potentials, count nothing and report a NaN
    residual; fixed-sweep codes report `converged` False.
    """

    q: np.ndarray
    u: np.ndarray | None = None
    newton_steps: int = 0
    converged: bool = False
    backtracks: int = 0
    fallback_sweeps: int = 0
    inexact_steps: int = 0
    residual: float = float("nan")

    def marginal_deviation(self) -> tuple[float, float]:
        """(max row-sum deviation from 1/K, max col-sum deviation from 1/B)."""
        k, b = self.q.shape
        row = float(np.abs(self.q.sum(axis=1) - 1.0 / k).max())
        col = float(np.abs(self.q.sum(axis=0) - 1.0 / b).max())
        return row, col


def compute_codes(scores, config: SinkhornConfig,
                  start: np.ndarray | None = None) -> CodeMatrix:
    """Scale exp(scores / epsilon) onto the equipartition polytope.

    With convergence_tolerance == 0 this runs exactly `n_iterations`
    alternating sweeps (rows to 1/K, then columns to 1/B); a row or column
    whose kernel underflows to zero is a `NumericalError`, and in either
    mode so is a quotient scores / epsilon that overflows. With a nonzero
    tolerance it solves for the fixed point directly: plain sweeps crawl
    for sharp kernels (small epsilon), so the converged path switches to a
    damped Newton iteration on the log-domain scaling potentials, which
    reaches the same fixed point in a handful of steps. It starts from
    `start`, the potentials `u` of an earlier converged solve over the same
    K prototypes, or from zero potentials when `start` is None (the
    fixed-sweep mode ignores it). A single row or column leaves one
    feasible Q: every entry 1/(K B).
    """
    scores = as_matrix(scores)
    with np.errstate(over="ignore"):
        s = scores / config.epsilon
    if not np.isfinite(s).all():  # 0 < epsilon < inf keeps NaN and Inf
        if not np.isfinite(scores).all():
            raise NumericalError("scores contain NaN or Inf")
        raise NumericalError(f"scores / epsilon overflow at epsilon "
                             f"{config.epsilon}; raise epsilon")
    k, b = s.shape
    if start is not None and np.shape(start) != (k,):
        raise UsageError(f"start potentials {np.shape(start)} for {k} rows")
    if start is not None and not np.isfinite(start).all():
        raise UsageError("start potentials contain NaN or Inf")
    tol = config.convergence_tolerance
    if min(k, b) == 1:
        return CodeMatrix(np.full((k, b), 1.0 / (k * b)), converged=True)
    if tol > 0.0:
        with np.errstate(all="ignore"):  # it rejects non-finite steps
            return _converged_solve(s, tol, config.n_iterations, start)

    with np.errstate(all="ignore"):  # a shift that overflows is -inf
        q = np.exp(s - s.max())  # global max subtraction: exp() <= 1
        q /= q.sum()
        for _ in range(config.n_iterations):
            q *= (1.0 / k) / q.sum(axis=1, keepdims=True)
            q *= (1.0 / b) / q.sum(axis=0, keepdims=True)
    if not np.isfinite(q).all():
        raise NumericalError(
            f"exp(scores / epsilon) underflows at epsilon {config.epsilon}; "
            "raise epsilon or use the converged solver")
    return CodeMatrix(q)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along `axis`, computed in place: overwrites `a`."""
    m = a.max(axis=axis, keepdims=True)
    a -= m
    out = m + np.log(np.exp(a, out=a).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _converged_solve(log_kernel: np.ndarray, tol: float, max_iterations: int,
                     start: np.ndarray | None) -> CodeMatrix:
    """Fixed point of Diag(lambda) exp(log_kernel) Diag(mu) with uniform
    marginals, via Newton steps on the potentials. The solve centres
    `start` (zero potentials when None) as u and fits v to it with one
    column half-sweep (Thornton & Cuturi, arXiv:2206.07630).

    Besides `log_kernel` the solve holds two K x B arrays, allocated once:
    `m`, the current kernel (and each line-search trial, which nothing
    reads after a rejection), and `work`, the scratch of the sweeps and of
    the Newton step. The Newton loop allocates no K x B array."""
    k, b = log_kernel.shape
    log_r, log_c = -np.log(k), -np.log(b)
    r, c = 1.0 / k, 1.0 / b
    m = np.empty_like(log_kernel)
    work = np.empty_like(log_kernel)

    def column_sweep(u):
        return log_c - _logsumexp(
            np.add(log_kernel, u[:, None], out=work), axis=0)

    def sweep(v):
        u = log_r - _logsumexp(
            np.add(log_kernel, v[None, :], out=work), axis=1)
        return u, column_sweep(u)

    def kernel(u, v):
        """exp(log_kernel + u + v) into m, with its row sums, column sums and
        max-norm marginal residual. A trial that overflows has an infinite
        (or NaN) residual, which `trial < residual` rejects."""
        np.add(np.add(log_kernel, u[:, None], out=m), v[None, :], out=m)
        np.exp(m, out=m)
        row, col = m.sum(axis=1), m.sum(axis=0)
        return row, col, max(np.abs(row - r).max(), np.abs(col - c).max())

    u = np.zeros(k) if start is None else start - start.mean()
    v = column_sweep(u)  # every column sums to 1/B: exp() is bounded

    row, col, residual = kernel(u, v)
    steps = backtracks = fallback_sweeps = inexact_steps = 0
    while not residual < tol and steps < max_iterations:
        steps += 1
        du, dv, exact = _newton_step(m, row, col, row - r, (col - c)[:-1],
                                     work)
        inexact_steps += not exact

        finite = np.isfinite(du).all() and np.isfinite(dv).all()
        t = 1.0
        for _ in range(40 if finite else 0):  # backtrack on the residual
            ut, vt = u + t * du, v + t * dv
            rowt, colt, trial = kernel(ut, vt)
            if trial < residual:
                # m holds the next iterate's kernel; a rejected trial is
                # overwritten by the next trial or by the fallback sweep
                u, v, row, col, residual = ut, vt, rowt, colt, trial
                break
            backtracks += 1
            t *= 0.5
        else:
            fallback_sweeps += 1
            u, v = sweep(v)
            row, col, residual = kernel(u, v)
    return CodeMatrix(m, u, steps, bool(residual < tol), backtracks,
                      fallback_sweeps, inexact_steps, float(residual))


def _newton_step(m, row, col, g_u, g_v, work):
    """Newton step (du, dv) on the potentials for the system
    [[diag(row), M'], [M'^T, diag(col')]] (du, dv') = -(g_u, g_v), where
    M' and col' drop the last column, whose v is pinned (dv[-1] = 0) to
    absorb the translation invariance u+t, v-t of the potentials.

    Both diagonal blocks are diagonal, so the larger one is eliminated and
    only the min(K, B-1)-sized Schur complement is solved (Brauer, Clason,
    Lorenz & Wirth, arXiv:1710.06635): a diagonal minus a Gram product of
    M' scaled by the eliminated block's inverse. `work` (K x B) is its
    scratch and is overwritten. Returns (du, dv, exact) as `_schur_solve`.
    """
    k, b = m.shape
    mp, cp, wp = m[:, :-1], col[:-1], work[:, :-1]
    if k <= b - 1:
        du, dv, exact = _schur_solve(mp, row, cp, g_u, g_v, wp)
    else:
        dv, du, exact = _schur_solve(mp.T, cp, row, g_v, g_u, wp.T)
    return du, np.append(dv, 0.0), exact


def _schur_solve(a, d, e, g, h, w):
    """(x, y, exact) solving [[diag(d), a], [a^T, diag(e)]] (x, y) = -(g, h)
    by eliminating y: (diag(d) - a diag(1/e) a^T) x = a (h / e) - g.

    From `CG_MIN_ORDER` up, conjugate gradients solve it without forming the
    Schur complement, preconditioned by its diagonal d - (a * a) / e (the
    squares are written into `w`, the shape of `a`). Smaller complements are
    factorized: the Gram product W W^T, W = a diag(e)^(-1/2) written into
    `w`, is one buffer times its own transpose, which numpy hands to BLAS
    syrk (one triangle, about half the work of a general product). A
    singular complement is a failed step, with a NaN (x, y): one whose
    Jacobi diagonal has an entry within the rounding bound len(e) eps d of
    its own sum, or one the factorization rejects. `exact` is False when
    conjugate gradients stopped short of `CG_TOLERANCE`."""
    rhs = a @ (h / e) - g
    if len(d) >= CG_MIN_ORDER:
        inv_e = 1.0 / e
        jacobi = d - np.multiply(a, a, out=w) @ inv_e
        x, exact = np.nan * rhs, True  # singular unless jacobi is positive
        if (jacobi > len(e) * np.finfo(float).eps * d).all():
            x, exact = _conjugate_gradients(a, d, inv_e, rhs, jacobi)
    else:
        np.divide(a, np.sqrt(e), out=w)
        s = w @ w.T
        np.negative(s, out=s)
        s.flat[::len(d) + 1] += d
        try:
            x, exact = np.linalg.solve(s, rhs), True
        except np.linalg.LinAlgError:  # singular
            x, exact = np.nan * rhs, True
    return x, (-h - a.T @ x) / e, exact


def _conjugate_gradients(a, d, inv_e, rhs, jacobi):
    """(x, exact): conjugate gradients on
    (diag(d) - a diag(inv_e) a^T) x = rhs from x = 0, preconditioned by the
    positive diagonal `jacobi`, each product two matrix-vector products with
    `a`. Stops at a residual of `CG_TOLERANCE` times |rhs| (`exact` True),
    or short of it (`exact` False) after `CG_MAX_ITERATIONS` iterations or
    on a direction of non-positive curvature, returning the last iterate."""
    stop = CG_TOLERANCE * np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r / jacobi
    p, rz = z, r @ z
    for _ in range(CG_MAX_ITERATIONS):
        if np.linalg.norm(r) <= stop:
            return x, True
        sp = d * p - a @ ((a.T @ p) * inv_e)
        curvature = p @ sp
        if not curvature > 0.0:
            return x, False
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * sp
        z = r / jacobi
        rz, previous = r @ z, rz
        p = z + (rz / previous) * p
    return x, bool(np.linalg.norm(r) <= stop)
