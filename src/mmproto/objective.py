"""Swapped-prediction loss: each view predicts the other view's cluster code.

Codes come from the Sinkhorn solver and are treated as constants (no
gradient flows through code estimation); the differentiable part is the
temperature-scaled softmax over prototype scores. Rows of a per-modality
feature queue, which the trainer fills, can widen the sample pool that code
estimation sees, since the batch is usually much smaller than the number of
prototypes. The loss itself has no side effects.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .model import prototype_scores
from .numerics import Tensor
from .sinkhorn import SinkhornConfig, compute_codes


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.1
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    queue_length: int = 1920
    queue_start_iteration: int = -1  # -1: resolved to one epoch by the trainer

    def __post_init__(self):
        if not 0 < self.temperature < np.inf:
            raise UsageError(
                f"temperature must be finite and > 0, got {self.temperature}")
        if self.queue_length < 0:
            raise UsageError("queue_length must be >= 0")


class FeatureQueue:
    """Ring buffer of past embeddings, one buffer per modality.

    Stored rows are detached copies; they never carry gradients back to the
    iterations that produced them.
    """

    def __init__(self, capacity: int, dim: int):
        self.capacity = capacity
        self.buffers = [np.zeros((capacity, dim)), np.zeros((capacity, dim))]
        self.fill = 0
        self.cursor = 0

    def rows(self, modality: int) -> np.ndarray:
        """Currently stored rows for one modality (oldest order irrelevant)."""
        return self.buffers[modality][:self.fill]

    def push(self, z1: np.ndarray, z2: np.ndarray):
        """Copy in both modality batches, evicting the oldest rows."""
        n, cap = len(z1), self.capacity
        if cap == 0:
            return
        keep = min(n, cap)  # only the last `cap` rows survive
        start = (self.cursor + n - keep) % cap
        head = min(keep, cap - start)  # rows before the ring wraps
        for buffer, z in zip(self.buffers, (z1, z2)):
            tail = z[n - keep:]
            buffer[start:start + head] = tail[:head]
            buffer[:keep - head] = tail[head:]
        self.cursor = (self.cursor + n) % cap
        self.fill = min(self.fill + n, cap)


def compute_batch_codes(z: np.ndarray, prototypes: np.ndarray,
                        queue_rows: np.ndarray | None,
                        config: SinkhornConfig) -> np.ndarray:
    """Sinkhorn codes for the current batch, as B x K probability rows.

    Queue rows are appended as extra columns for code estimation only; just
    the batch columns are kept, each rescaled to sum 1.
    """
    cols = z
    if queue_rows is not None and len(queue_rows):
        cols = np.vstack([z, queue_rows])
    scores = prototypes @ cols.T  # K x (B + queue)
    q = compute_codes(scores, config).q[:, :z.shape[0]]
    q = q / q.sum(axis=0, keepdims=True)
    return q.T


def swapped_loss(z1: Tensor, z2: Tensor, prototypes: Tensor,
                 queue_rows: tuple[np.ndarray, np.ndarray] | None,
                 config: LossConfig,
                 codes: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Cross-entropy of each view's assignment against the other view's code.

    Returns a scalar Tensor (mean over the batch of both swapped terms).
    `queue_rows`, a (modality 1, modality 2) pair of past embeddings or
    None, widens each view's code estimation. Codes are constants for the
    gradient; `codes` overrides their computation, which finite-difference
    checks use to freeze the targets. Nothing passed in is modified.
    """
    if z1.shape != z2.shape:
        raise UsageError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    b = z1.shape[0]
    if b == 0:
        raise UsageError("batch is empty")

    if queue_rows is None:
        queue_rows = (None, None)
        if b == 1:
            warnings.warn("batch of 1 with no queue: codes are uninformative",
                          stacklevel=2)

    if codes is None:
        c = prototypes.data
        q1 = compute_batch_codes(z1.data, c, queue_rows[0], config.sinkhorn)
        q2 = compute_batch_codes(z2.data, c, queue_rows[1], config.sinkhorn)
    else:
        q1, q2 = codes

    tau = config.temperature
    logp1 = prototype_scores(z1, prototypes).T.log_softmax_rows(tau)
    logp2 = prototype_scores(z2, prototypes).T.log_softmax_rows(tau)
    return -((Tensor(q2) * logp1).sum()
             + (Tensor(q1) * logp2).sum()) * (1.0 / b)
