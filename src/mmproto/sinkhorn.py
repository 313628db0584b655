"""Entropy-regularized optimal transport codes via Sinkhorn-Knopp scaling.

Given a K x B score matrix, produces the soft assignment Q on the
transportation polytope with uniform marginals: every row sums to 1/K,
every column to 1/B, total mass 1, by scaling the rows and columns of
exp(scores / epsilon); higher epsilon spreads mass, lower epsilon sharpens
assignments. `SinkhornConfig.n_iterations` picks the solver: that many
alternating row and column sweeps, or, at 0, the converged solve, damped
Newton steps on the log-domain scaling potentials until the marginals are
within `TOLERANCE`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .numerics import as_matrix


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.05
    n_iterations: int = 3  # fixed sweeps; 0 solves to the fixed point

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise UsageError(
                f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.n_iterations < 0:
            raise UsageError(
                f"n_iterations must be >= 0, got {self.n_iterations}")


#: max-norm marginal residual at which a converged solve stops
TOLERANCE = 1e-8
#: Newton steps after which a converged solve stops unconverged
MAX_NEWTON_STEPS = 1000
#: line-search trials, each halving the step, before a fallback sweep
MAX_BACKTRACKS = 40
#: the one choice between solvers: `_schur_solve` solves Newton systems
#: with min(K, B) at least this by conjugate gradients, smaller ones by a
#: dense factorization; the line search is the same for both. At this order
#: the conjugate-gradient step is already the cheaper: 2.2-4.0 ms against
#: 8.6-9.4 ms per Newton step on clustered 512 x 600 and 600 x 512
#: problems (2-core VM, OpenBLAS)
CG_MIN_ORDER = 512
#: relative residual |S x - rhs| / |rhs| at which conjugate gradients stop:
#: a tenth of the loosest value that kept 1e-6's Newton steps and rejected
#: trials on every problem of a measured 26-problem grid of the whole
#: complement, 1e-3 (1e-2 cost one problem a step)
CG_TOLERANCE = 1e-4
#: conjugate-gradient iterations after which a solve stops short
CG_MAX_ITERATIONS = 1000


def converged_config(epsilon: float) -> SinkhornConfig:
    """Iterate to the fixed point instead of a fixed sweep count."""
    return SinkhornConfig(epsilon=epsilon, n_iterations=0)


@dataclass
class CodeMatrix:
    """Soft assignment Q (K x B) with equipartition marginals.

    A converged-mode solve also reports its final prototype potentials `u`
    (log row scalings, length K), which can start a later solve, the Newton
    steps it took, whether its marginal residual reached `TOLERANCE`, and
    its fallbacks: line-search trials whose screened residual did not lower
    the current one (`backtracks`), sweeps taken in place of a Newton step
    whose direction was not finite (a singular Schur system, or an
    overflow) or whose `MAX_BACKTRACKS` trials all failed
    (`fallback_sweeps`), and Newton steps whose conjugate gradients stopped
    short of `CG_TOLERANCE` (`inexact_steps`). `residual` is its final
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

    With `n_iterations` > 0 this runs exactly that many alternating sweeps
    (rows to 1/K, then columns to 1/B); a row or column whose kernel
    underflows to zero is a `NumericalError`, and in either mode so is a
    quotient scores / epsilon that overflows. With `n_iterations` 0 it
    solves for the fixed point directly, to the marginal residual
    `TOLERANCE`: plain sweeps crawl for sharp kernels (small epsilon), so
    it takes damped Newton steps on the log-domain scaling potentials,
    which reach the same fixed point in a handful of steps. It starts from
    `start`, the potentials `u` of an earlier converged solve over the same
    K prototypes, or from zero potentials when `start` is None (the
    fixed-sweep mode ignores it). A single row or column leaves one
    feasible Q: every entry 1/(K B); an empty one is a `UsageError`.
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
    if min(k, b) == 0:
        raise UsageError(f"scores of shape {(k, b)} are empty")
    if start is not None and np.shape(start) != (k,):
        raise UsageError(f"start potentials {np.shape(start)} for {k} rows")
    if start is not None and not np.isfinite(start).all():
        raise UsageError("start potentials contain NaN or Inf")
    if min(k, b) == 1:
        return CodeMatrix(np.full((k, b), 1.0 / (k * b)), converged=True)
    if config.n_iterations == 0:
        with np.errstate(all="ignore"):  # it rejects non-finite steps
            return _converged_solve(s, start)

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


def _converged_solve(log_kernel: np.ndarray, start) -> CodeMatrix:
    """Fixed point of Diag(lambda) exp(log_kernel) Diag(mu) with uniform
    marginals, via Newton steps on the potentials. The solve centres
    `start` (zero potentials when None) as u and fits v to it with one
    column half-sweep (Thornton & Cuturi, arXiv:2206.07630).

    Besides `log_kernel` the solve holds one K x B array, allocated once:
    `m`, the current kernel, which the sweeps use as their scratch. Each
    line-search trial is scored by `_screen` from `m` with two
    matrix-vector products and is never formed: one that lowers the
    residual is accepted by scaling `m` in place. The kernel is formed from
    the potentials only at entry and after a fallback sweep."""
    k, b = log_kernel.shape
    log_r, log_c = -np.log(k), -np.log(b)
    r, c = 1.0 / k, 1.0 / b
    m = np.empty_like(log_kernel)

    def column_sweep(u):
        return log_c - _logsumexp(
            np.add(log_kernel, u[:, None], out=m), axis=0)

    def sweep(v):
        u = log_r - _logsumexp(
            np.add(log_kernel, v[None, :], out=m), axis=1)
        return u, column_sweep(u)

    def kernel(u, v):
        """exp(log_kernel + u + v) into m, with its marginals and residual
        computed as `_screen` computes a trial's, so that a trial which
        does not move the kernel cannot lower the residual by rounding."""
        np.add(np.add(log_kernel, u[:, None], out=m), v[None, :], out=m)
        return _screen(np.exp(m, out=m), np.ones(k), np.ones(b), r, c)

    u = np.zeros(k) if start is None else start - start.mean()
    v = column_sweep(u)  # every column sums to 1/B: exp() is bounded

    row, col, residual = kernel(u, v)
    steps = backtracks = fallback_sweeps = inexact_steps = 0
    while not residual < TOLERANCE and steps < MAX_NEWTON_STEPS:
        steps += 1
        du, dv, exact = _newton_step(m, row, col, row - r, col - c)
        inexact_steps += not exact

        finite = np.isfinite(du).all() and np.isfinite(dv).all()
        t = 1.0
        for _ in range(MAX_BACKTRACKS if finite else 0):  # on the residual
            eu, ev = np.exp(t * du), np.exp(t * dv)
            rowt, colt, trial = _screen(m, eu, ev, r, c)
            if trial < residual:
                m *= eu[:, None]
                m *= ev
                u, v = u + t * du, v + t * dv
                row, col, residual = rowt, colt, trial
                break
            backtracks += 1
            t *= 0.5
        else:
            fallback_sweeps += 1
            u, v = sweep(v)
            row, col, residual = kernel(u, v)
    return CodeMatrix(m, u, steps, bool(residual < TOLERANCE), backtracks,
                      fallback_sweeps, inexact_steps, float(residual))


def _screen(m, eu, ev, r, c):
    """(rows, cols, residual): the marginals of the kernel
    diag(eu) m diag(ev) and their max-norm residual against r and c, from
    two matrix-vector products with `m` and no K x B array. A scaling that
    overflows gives an infinite (or NaN) residual, which `trial < residual`
    rejects."""
    rows, cols = eu * (m @ ev), ev * (eu @ m)
    return rows, cols, max(np.abs(rows - r).max(), np.abs(cols - c).max())


def _newton_step(m, row, col, g_u, g_v):
    """Newton step (du, dv) on the potentials for the system
    [[diag(row), M], [M^T, diag(col)]] (du, dv) = -(g_u, g_v). The system is
    singular along the potentials' translation (u + t, v - t), on which the
    plan does not depend; the step returned is pinned to dv[-1] = 0.

    Both diagonal blocks are diagonal, so the larger one is eliminated and
    only a Schur complement is solved (Brauer, Clason, Lorenz & Wirth,
    arXiv:1710.06635): a diagonal minus a Gram product of M scaled by the
    eliminated block's inverse, of order min(K, B). It is singular along
    the translation too; the direction `_schur_solve` finds is shifted onto
    the pin. Returns (du, dv, exact) as `_schur_solve`.
    """
    k, b = m.shape
    if k <= b:
        du, dv, exact = _schur_solve(m, row, col, g_u, g_v)
    else:
        dv, du, exact = _schur_solve(m.T, col, row, g_v, g_u)
    return du + dv[-1], dv - dv[-1], exact


def _schur_solve(a, d, e, g, h):
    """(x, y, exact) solving [[diag(d), a], [a^T, diag(e)]] (x, y) = -(g, h)
    by eliminating y: (diag(d) - a diag(1/e) a^T) x = a (h / e) - g, where
    d and e are the row and column sums of `a`. So the complement annihilates
    the ones vector, the potentials' translation, and its right-hand side
    sums to zero to rounding.

    Of an order n = len(d) below `CG_MIN_ORDER` it is formed and factorized:
    the Gram product W W^T of the scaled copy W = a diag(e)^(-1/2), made per
    step, is one buffer times its own transpose, which numpy hands to BLAS
    syrk (one triangle, about half the work of a general product). Adding
    1 1^T / n^2 gives the ones vector the eigenvalue 1/n in place of 0 and
    changes no other, so the sum's solution is the singular system's with
    no translation component. A regularized system,
    whose raised diagonal is nonsingular already, must not add it: there
    the ones vector is no null vector, and the term would move the
    solution. From `CG_MIN_ORDER` up conjugate gradients solve the
    complement without forming it, preconditioned by its diagonal
    d - (a * a) / e, which one einsum pass forms with no temporary the
    shape of `a`; the iteration never moves along the ones vector. Any
    other singular complement is a failed step, with a NaN (x, y): one
    whose Jacobi diagonal has an entry within the rounding bound
    len(e) eps d of its own sum, or one the factorization rejects. `exact`
    is False when conjugate gradients stopped short of `CG_TOLERANCE`."""
    rhs = a @ (h / e) - g
    if len(d) < CG_MIN_ORDER:
        w = a / np.sqrt(e)
        s = w @ w.T
        np.negative(s, out=s)
        s.flat[::len(d) + 1] += d
        s += 1.0 / len(d) ** 2
        try:
            x, exact = np.linalg.solve(s, rhs), True
        except np.linalg.LinAlgError:  # singular
            x, exact = np.nan * rhs, True
    else:
        inv_e = 1.0 / e
        jacobi = d - np.einsum("ij,ij,j->i", a, a, inv_e)
        x, exact = np.nan * rhs, True  # singular unless jacobi is positive
        if (jacobi > len(e) * np.finfo(float).eps * d).all():
            x, exact = _conjugate_gradients(a, d, inv_e, rhs, jacobi)
    return x, (-h - a.T @ x) / e, exact


def _conjugate_gradients(a, d, inv_e, rhs, jacobi):
    """(x, exact): conjugate gradients on
    (diag(d) - a diag(inv_e) a^T) x = rhs from x = 0, preconditioned by the
    positive diagonal `jacobi`, each product two matrix-vector products with
    `a`. The operator may be singular along the potentials' translation,
    the ones vector, if `rhs` sums to zero: every residual then does too,
    and the iterate converges to one of the solutions. Stops at a residual
    of `CG_TOLERANCE` times |rhs| (`exact` True), or short of it (`exact`
    False) after `CG_MAX_ITERATIONS` iterations or on a direction of
    non-positive curvature, returning the last iterate."""
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
