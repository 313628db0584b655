"""Finite-difference verification of every gradient path in the objective.

Each check rebuilds the loss from raw parameter arrays so central
differences probe exactly what the tape claims to differentiate; Sinkhorn
codes are frozen at the base point because code estimation is a constant
for the gradient (stop-gradient by design).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import EncoderConfig, embed, init_params
from .numerics import (Tensor, affine, backward, cross_entropy,
                       finite_difference, relative_gradient_error, unit_rows)
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
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results = []

    # each node under a cross-entropy head whose target rows do not sum
    # to 1, so that the gradient's rowsum(targets) factor is audited too
    targets = np.abs(rng.standard_normal((4, 6)))
    results.append(_check(
        "affine", lambda p: cross_entropy(
            affine(p["a"], p["b"], p["c"], relu=True), targets, 0.5),
        {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((3, 6)),
         "c": rng.standard_normal((1, 6))}))
    results.append(_check(
        "l2_normalize",
        lambda p: cross_entropy(p["m"].l2_normalize_rows(), targets, 0.5),
        {"m": rng.standard_normal((4, 6)) + 0.1}))
    results.append(_check(
        "cross_entropy", lambda p: cross_entropy(p["s"], targets, 0.1),
        {"s": rng.standard_normal((4, 6))}))

    results.append(_full_loss_check("swapped_loss", seed, use_queue=False))
    results.append(_full_loss_check("swapped_loss_queue", seed,
                                    use_queue=True))
    return results


def _full_loss_check(name: str, seed: int, use_queue: bool) -> CheckResult:
    """End-to-end swapped loss (B=4, K=8, D=5) against finite differences."""
    cfg = EncoderConfig(input_dims=(6, 6), hidden_dims=(7,), embed_dim=5)
    params = init_params(cfg, 8, seed + 1)
    # init_params zeroes the biases, so a sample with no active hidden unit
    # embeds to the zero vector, where l2_normalize_rows has no derivative
    bias_rng = np.random.default_rng(seed + 3)
    for key, p in params.items():
        if key.endswith(".b"):
            p.data[...] = 0.1 * bias_rng.standard_normal(p.shape)
    rng = np.random.default_rng(seed + 2)
    x1 = rng.standard_normal((4, 6))
    x2 = rng.standard_normal((4, 6))
    loss_cfg = LossConfig(temperature=0.1, sinkhorn=converged_config(0.05))
    rows = (None, None)
    if use_queue:
        past, _ = unit_rows(rng.standard_normal((6, 5)))
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
