"""Shared two-modality encoder, projection head, and prototype bank.

Each modality gets its own linear input adapter (the modalities may have
different dimensionality); everything from the first hidden layer on is
shared: the fully connected trunk, the 2-layer projection head, and the
prototypes. Embeddings and prototypes are kept on the unit sphere so the
dot-product scores live in [-1, 1] and a temperature of 0.1 behaves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .numerics import Tensor

PROTOTYPE_RESEED = 0x5eed  # auxiliary seed for re-randomizing dead prototypes


@dataclass(frozen=True)
class EncoderConfig:
    input_dims: tuple[int, int] = (32, 32)
    hidden_dims: tuple[int, ...] = (64,)
    embed_dim: int = 128

    def __post_init__(self):
        dims = (*self.input_dims, *self.hidden_dims, self.embed_dim)
        if len(self.input_dims) != 2:
            raise UsageError("exactly two modalities are supported")
        if not self.hidden_dims:
            raise UsageError("at least one hidden layer is required")
        if any(d < 1 for d in dims):
            raise UsageError(f"all dims must be >= 1, got {dims}")


class Encoder:
    """Per-modality adapters feeding a shared ReLU trunk and projection head."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.config = config
        h = config.hidden_dims
        self.adapters = [
            self._linear(rng, d_in, h[0]) for d_in in config.input_dims
        ]
        self.trunk = [
            self._linear(rng, h[i], h[i + 1]) for i in range(len(h) - 1)
        ]
        self.head = [
            self._linear(rng, h[-1], h[-1]),
            self._linear(rng, h[-1], config.embed_dim),
        ]

    @staticmethod
    def _linear(rng, fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        # zero biases keep initial embeddings spread on the sphere; a
        # uniform bias draw collapses them toward one direction
        b = Tensor(np.zeros((1, fan_out)))
        return w, b

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for m, (w, b) in enumerate(self.adapters):
            out[f"adapter{m + 1}.w"], out[f"adapter{m + 1}.b"] = w, b
        for i, (w, b) in enumerate(self.trunk):
            out[f"trunk{i}.w"], out[f"trunk{i}.b"] = w, b
        for i, (w, b) in enumerate(self.head):
            out[f"head{i}.w"], out[f"head{i}.b"] = w, b
        return out

    def trunk_forward(self, batch, modality: int) -> Tensor:
        """Shared-trunk activations, before the projection head."""
        if modality not in (0, 1):
            raise UsageError(f"modality must be 0 or 1, got {modality}")
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        w, b = self.adapters[modality]
        if x.shape[1] != w.shape[0]:
            raise UsageError(
                f"modality {modality + 1} expects width {w.shape[0]}, "
                f"got {x.shape[1]}")
        h = (x @ w + b).relu()
        for w, b in self.trunk:
            h = (h @ w + b).relu()
        return h

    def forward(self, batch, modality: int) -> Tensor:
        h = self.trunk_forward(batch, modality)
        w0, b0 = self.head[0]
        w1, b1 = self.head[1]
        out = (h @ w0 + b0).relu() @ w1 + b1
        return out.l2_normalize_rows()


@dataclass
class PrototypeBank:
    """K unit-norm prototype vectors, trained as a linear layer."""

    c: Tensor
    rerandomized_rows: list = field(default_factory=list)

    @property
    def n_prototypes(self) -> int:
        return self.c.shape[0]

    @property
    def dim(self) -> int:
        return self.c.shape[1]


def init_model(config: EncoderConfig, k: int,
               seed: int) -> tuple[Encoder, PrototypeBank]:
    if k < 2:
        raise UsageError(f"need at least 2 prototypes, got {k}")
    rng = np.random.default_rng(seed)
    encoder = Encoder(config, rng)
    bound = 1.0 / np.sqrt(config.embed_dim)
    c = rng.uniform(-bound, bound, size=(k, config.embed_dim))
    c /= np.sqrt((c * c).sum(axis=1, keepdims=True))
    bank = PrototypeBank(Tensor(c))
    return encoder, bank


def embed(encoder: Encoder, batch, modality: int) -> Tensor:
    """L2-normalized embeddings for one modality, differentiable."""
    return encoder.forward(batch, modality)


def prototype_scores(z, bank: PrototypeBank):
    """scores[k, b] = c_k . z_b, shape K x B; differentiable in z and C."""
    zt = z if isinstance(z, Tensor) else Tensor(z)
    if zt.shape[1] != bank.dim:
        raise UsageError(
            f"embedding dim {zt.shape[1]} vs prototype dim {bank.dim}")
    return bank.c @ zt.T


def renormalize_prototypes(bank: PrototypeBank) -> PrototypeBank:
    """Rescale every prototype row to unit norm, in place.

    Zero rows are re-drawn from a fixed auxiliary seed and flagged in
    `bank.rerandomized_rows`.
    """
    c = bank.c.data
    norms = np.sqrt((c * c).sum(axis=1, keepdims=True))
    dead = np.flatnonzero(norms[:, 0] == 0.0)
    if dead.size:
        rng = np.random.default_rng(PROTOTYPE_RESEED)
        fresh = rng.uniform(-1.0, 1.0, size=(dead.size, c.shape[1]))
        c[dead] = fresh
        norms = np.sqrt((c * c).sum(axis=1, keepdims=True))
    c /= norms
    bank.rerandomized_rows = dead.tolist()
    return bank
