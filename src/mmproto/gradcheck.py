"""Finite-difference verification of every gradient path in the objective.

Each check rebuilds the loss from raw parameter arrays so central
differences probe exactly what the tape claims to differentiate; Sinkhorn
codes are frozen at the base point because code estimation is a constant
for the gradient (stop-gradient by design).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EncoderConfig, embed, init_params
from .numerics import (Tensor, backward, finite_difference,
                       relative_gradient_error)
from .objective import LossConfig, compute_batch_codes, swapped_loss
from .sinkhorn import converged_config

FD_STEP = 1e-5  # small enough that sharp-softmax curvature (tau = 0.1)
# keeps the central-difference truncation error well under TOLERANCE
TOLERANCE = 1e-4


@dataclass
class CheckResult:
    op: str
    max_relative_error: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error < TOLERANCE


def _check(name, build_loss, params) -> CheckResult:
    """Compare tape gradients of build_loss against central differences."""
    tensors = {k: Tensor(v) for k, v in params.items()}
    analytic = backward(build_loss(tensors), tensors)

    def scalar(raw):
        return float(
            build_loss({k: Tensor(v) for k, v in raw.items()}).data[0, 0])

    numeric = finite_difference(scalar, params, step=FD_STEP)
    return CheckResult(name, relative_gradient_error(analytic, numeric))


def run_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    results.append(_check(
        "matmul", lambda p: (p["a"] @ p["b"]).log_softmax_rows().sum() * 0.1,
        {"a": a, "b": b}))

    m = rng.standard_normal((4, 6))
    results.append(_check(
        "l2_normalize",
        lambda p: (p["m"].l2_normalize_rows() *
                   Tensor(np.ones((4, 6)))).sum(),
        {"m": m.copy() + 0.1}))

    q_rows = np.abs(rng.standard_normal((4, 6)))
    q_rows /= q_rows.sum(axis=1, keepdims=True)
    results.append(_check(
        "cross_entropy",
        lambda p: -(Tensor(q_rows) * p["s"].log_softmax_rows(0.1)).sum()
        * 0.25,
        {"s": rng.standard_normal((4, 6))}))

    results.append(_full_loss_check("swapped_loss", seed, use_queue=False))
    results.append(_full_loss_check("swapped_loss_queue", seed,
                                    use_queue=True))
    return results


def _full_loss_check(name: str, seed: int, use_queue: bool) -> CheckResult:
    """End-to-end swapped loss (B=4, K=8, D=5) against finite differences."""
    cfg = EncoderConfig(input_dims=(6, 6), hidden_dims=(7,), embed_dim=5)
    params = init_params(cfg, 8, seed + 1)
    rng = np.random.default_rng(seed + 2)
    x1 = rng.standard_normal((4, 6))
    x2 = rng.standard_normal((4, 6))
    loss_cfg = LossConfig(temperature=0.1, sinkhorn=converged_config(0.05))
    rows = (None, None)
    if use_queue:
        past = rng.standard_normal((6, 5))
        past /= np.sqrt((past * past).sum(axis=1, keepdims=True))
        rows = (past, past[::-1])

    # freeze codes at the base point: the gradient treats them as constants
    raw = {key: t.data for key, t in params.items()}
    q1, _ = compute_batch_codes(embed(params, x1, 0).data,
                                raw["prototypes"], rows[0], loss_cfg.sinkhorn)
    q2, _ = compute_batch_codes(embed(params, x2, 1).data,
                                raw["prototypes"], rows[1], loss_cfg.sinkhorn)
    return _check(
        name, lambda p: swapped_loss(embed(p, x1, 0), embed(p, x2, 1),
                                     p["prototypes"], None, loss_cfg,
                                     codes=(q1, q2))[0],
        raw)
