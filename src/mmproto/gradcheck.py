"""Finite-difference verification of every gradient path in the objective
and the linear probe, under the one rule that passes or fails a gradient.

Each check rebuilds the loss from raw parameter arrays so central
differences probe exactly what the tape claims to differentiate; Sinkhorn
codes are frozen at the base point because code estimation is a constant
for the gradient (stop-gradient by design).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_seed
from .evaluation import classifier_loss
from .model import EncoderConfig, embed, init_params
from .numerics import Tensor, affine, backward, cross_entropy, unit_rows
from .objective import LossConfig, compute_batch_codes, swapped_loss
from .sinkhorn import converged_config

FD_STEP = 1e-5  # small enough that sharp-softmax curvature (tau = 0.1)
# keeps the central-difference truncation error well under TOLERANCE
TOLERANCE = 1e-4
#: a component passes when |a - n| <= TOLERANCE |n| + C eps |f| / h: the
#: central difference (f(x+h) - f(x-h)) / 2h takes the rounding of two
#: loss evaluations, each off by up to about eps |f|, so C = 2
C = 2.0


@dataclass
class CheckResult:
    op: str
    bound_ratio: float  # the worst component's |a - n| over its bound
    worst: str  # that component, as `parameter[flat index]`

    @property
    def passed(self) -> bool:
        return self.bound_ratio < 1.0


def finite_difference(build_loss, params) -> np.ndarray:
    """Central differences at step FD_STEP of the scalar loss that
    `build_loss` makes of Tensors of the named arrays `params`, as one flat
    array in the order of `params`."""
    work = {k: v.copy() for k, v in params.items()}

    def loss():
        return float(
            build_loss({k: Tensor(v) for k, v in work.items()}).data[0, 0])

    grads = []
    for value in work.values():
        flat = value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = loss()
            flat[i] = orig - FD_STEP
            down = loss()
            flat[i] = orig
            grads.append((up - down) / (2.0 * FD_STEP))
    return np.array(grads)


def check(name, build_loss, params) -> CheckResult:
    """Compare the tape gradients of `build_loss`, a scalar loss of named
    Tensors, against central differences at the raw arrays `params`."""
    tensors = {k: Tensor(v) for k, v in params.items()}
    loss = build_loss(tensors)
    analytic = backward(loss, tensors)
    a = np.concatenate([analytic[k].reshape(-1) for k in params])
    n = finite_difference(build_loss, params)
    names = [f"{k}[{i}]" for k, v in params.items() for i in range(v.size)]
    rounding = C * np.finfo(np.float64).eps * abs(loss.data[0, 0]) / FD_STEP
    diff = np.abs(a - n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(diff == 0.0, 0.0,
                         diff / (TOLERANCE * np.abs(n) + rounding))
    i = int(np.argmax(ratio))  # argmax takes a NaN first, and NaN fails
    return CheckResult(name, float(ratio[i]), names[i])


def run_suite(seed: int = 0) -> list[CheckResult]:
    check_seed("seed", seed)
    rng = np.random.default_rng(seed)
    results = []

    # each node under a cross-entropy head whose target rows do not sum
    # to 1, so that the gradient's rowsum(targets) factor is audited too
    targets = np.abs(rng.standard_normal((4, 6)))
    results.append(check(
        "affine", lambda p: cross_entropy(
            affine(p["a"], p["b"], p["c"], relu=True), targets, 0.5),
        {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((3, 6)),
         "c": rng.standard_normal((1, 6))}))
    results.append(check(
        "l2_normalize",
        lambda p: cross_entropy(p["m"].l2_normalize_rows(), targets, 0.5),
        {"m": rng.standard_normal((4, 6)) + 0.1}))
    results.append(check(
        "cross_entropy", lambda p: cross_entropy(p["s"], targets, 0.1),
        {"s": rng.standard_normal((4, 6))}))
    # the linear probe's classifier: 6 classes x 4 samples of width 3
    x = rng.standard_normal((4, 3))
    results.append(check(
        "linear_probe",
        lambda p: classifier_loss(x, p["w"], p["b"], targets.T),
        {"w": rng.standard_normal((6, 3)), "b": rng.standard_normal((6, 1))}))

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
    return check(
        name, lambda p: swapped_loss(embed(p, x1, 0), embed(p, x2, 1),
                                     p["prototypes"], None, loss_cfg,
                                     codes=(q1, q2))[0],
        raw)
