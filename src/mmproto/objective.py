"""Swapped-prediction loss: each view predicts the other view's cluster code.

Codes come from the Sinkhorn solver and are treated as constants (no
gradient flows through code estimation); the differentiable part is the
temperature-scaled softmax over prototype scores. Rows of a per-modality
feature queue, which the trainer fills, can widen the sample pool that code
estimation sees, since the batch is usually much smaller than the number of
prototypes; the potentials of earlier code solves, which the trainer also
keeps, can start the solves. The loss itself has no side effects.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .numerics import Tensor, check_allocation, cross_entropy_sum
from .sinkhorn import SinkhornConfig, compute_codes


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.1
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    queue_length: int = 256
    queue_start_iteration: int = -1  # -1: resolved to one epoch by the trainer

    def __post_init__(self):
        if not 0 < self.temperature < np.inf:
            raise UsageError(
                f"temperature must be finite and > 0, got {self.temperature}")
        if self.queue_length < 0:
            raise UsageError("queue_length must be >= 0")
        if self.queue_start_iteration < -1:
            raise UsageError(f"queue_start_iteration must be >= -1 "
                             f"(-1: one epoch), got "
                             f"{self.queue_start_iteration}")


class FeatureQueue:
    """First-in first-out queue of past embeddings, one buffer per modality,
    newest rows first, as in SwAV (Caron et al., arXiv:2006.09882).

    Stored rows are detached copies; they never carry gradients back to the
    iterations that produced them.
    """

    def __init__(self, capacity: int, dim: int):
        check_allocation((capacity, dim))
        self.capacity = capacity
        self.buffers = [np.zeros((capacity, dim)), np.zeros((capacity, dim))]
        self.fill = 0

    def rows(self, modality: int) -> np.ndarray:
        """Currently stored rows for one modality, newest batch first."""
        return self.buffers[modality][:self.fill]

    def push(self, z1: np.ndarray, z2: np.ndarray):
        """Shift the stored rows back and copy both modality batches in at
        the front, evicting the oldest rows; of a batch longer than the
        queue, only the last `capacity` rows are kept."""
        n = min(len(z1), self.capacity)
        for buffer, z in zip(self.buffers, (z1, z2)):
            buffer[n:] = buffer[:self.capacity - n]
            buffer[:n] = z[len(z) - n:]
        self.fill = min(self.fill + n, self.capacity)


def compute_batch_codes(z: np.ndarray, prototypes: np.ndarray,
                        queue_rows: np.ndarray | None,
                        config: SinkhornConfig,
                        start: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """Sinkhorn codes for the current batch, as B x K probability rows, and
    the solve's final prototype potentials (None unless converged mode).

    Queue rows are appended as extra columns for code estimation only; just
    the batch columns are kept, each rescaled to sum 1. `start` is passed
    on to `compute_codes`.
    """
    cols = z
    if queue_rows is not None and len(queue_rows):
        cols = np.vstack([z, queue_rows])
    scores = prototypes @ cols.T  # K x (B + queue)
    codes = compute_codes(scores, config, start=start)
    q = codes.q[:, :z.shape[0]]
    q = q / q.sum(axis=0, keepdims=True)
    return q.T, codes.u


def swapped_loss(z1: Tensor, z2: Tensor, prototypes: Tensor,
                 queue_rows: tuple[np.ndarray, np.ndarray] | None,
                 config: LossConfig,
                 codes: tuple[np.ndarray, np.ndarray] | None = None,
                 start: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray] | None]:
    """Cross-entropy of each view's assignment against the other view's code.

    Returns a scalar Tensor (mean over the batch of both swapped terms) and
    the (modality 1, modality 2) prototype potentials of the two code
    solves, or None unless both solves ran in converged mode. `queue_rows`,
    a (modality 1, modality 2) pair of past embeddings or None, widens each
    view's code estimation; `start`, such a pair of potentials, starts each
    view's solve. Codes are constants for the gradient; `codes` overrides
    their computation, which finite-difference checks use to freeze the
    targets. Nothing passed in is modified.
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

    c, potentials = prototypes.data, None
    if codes is None:
        start1, start2 = (None, None) if start is None else start
        q1, u1 = compute_batch_codes(z1.data, c, queue_rows[0],
                                     config.sinkhorn, start1)
        q2, u2 = compute_batch_codes(z2.data, c, queue_rows[1],
                                     config.sinkhorn, start2)
        if u1 is not None and u2 is not None:
            potentials = (u1, u2)
    else:
        q1, q2 = codes

    # one node: each view's B x K scores predict the other view's code,
    # with the closed-form gradient in the scores
    value1, d1 = cross_entropy_sum(z1.data @ c.T, q2, config.temperature)
    value2, d2 = cross_entropy_sum(z2.data @ c.T, q1, config.temperature)

    def backward(g):
        g1, g2 = d1 * (g[0, 0] / b), d2 * (g[0, 0] / b)
        z1._accum(g1 @ c)
        z2._accum(g2 @ c)
        prototypes._accum(g1.T @ z1.data + g2.T @ z2.data)

    loss = Tensor([[(value1 + value2) * (1.0 / b)]], (z1, z2, prototypes),
                  backward)
    return loss, potentials
