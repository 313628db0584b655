"""Shared two-modality encoder, projection head, and prototypes, held as one
dict of named parameter Tensors.

Each modality gets its own linear input adapter (`adapter1`, `adapter2`; the
modalities may have different dimensionality); everything from the first
hidden layer on is shared: the fully connected trunk (`trunk0`, `trunk1`,
...), the 2-layer projection head (`head0`, `head1`), and the `prototypes`,
which are the K x D weights of one more linear layer. Embeddings and
prototypes are kept on the unit sphere so the dot-product scores live in
[-1, 1] and a temperature of 0.1 behaves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .numerics import Tensor, affine, as_matrix, check_allocation, unit_rows


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


def layers(config: EncoderConfig) -> list[tuple[str, int, int]]:
    """(name, fan-in, fan-out) of each linear layer, in draw order."""
    h = config.hidden_dims
    out = [(f"adapter{m + 1}", d_in, h[0])
           for m, d_in in enumerate(config.input_dims)]
    out += [(f"trunk{i}", h[i], h[i + 1]) for i in range(len(h) - 1)]
    return out + [("head0", h[-1], h[-1]), ("head1", h[-1], config.embed_dim)]


def init_params(config: EncoderConfig, k: int, seed: int) -> dict[str, Tensor]:
    """Fresh parameters `<layer>.w` and `<layer>.b` of each linear layer and
    the unit-norm `prototypes`, drawn in that order from `seed`."""
    if k < 2:
        raise UsageError(f"need at least 2 prototypes, got {k}")
    rng = np.random.default_rng(seed)
    params = {}
    for name, fan_in, fan_out in layers(config):
        check_allocation((fan_in, fan_out))
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{name}.w"] = Tensor(
            rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        # zero biases keep initial embeddings spread on the sphere; a
        # uniform bias draw collapses them toward one direction
        params[f"{name}.b"] = Tensor(np.zeros((1, fan_out)))
    check_allocation((k, config.embed_dim))
    bound = 1.0 / np.sqrt(config.embed_dim)
    params["prototypes"] = Tensor(unit_rows(
        rng.uniform(-bound, bound, size=(k, config.embed_dim)))[0])
    return params


def check_width(modality: int, expected: int, width: int) -> None:
    """Input rows of another width than the modality's adapter takes are a
    `UsageError`."""
    if width != expected:
        raise UsageError(f"modality {modality + 1} expects width {expected}, "
                         f"got {width}")


def embed(params: dict[str, Tensor], batch, modality: int) -> Tensor:
    """L2-normalized embeddings for one modality, differentiable in params.

    Rows that overflow come out as NaN without a numpy warning; the loss
    and the probes reject them."""
    if modality not in (0, 1):
        raise UsageError(f"modality must be 0 or 1, got {modality}")
    x = as_matrix(batch)
    w = params[f"adapter{modality + 1}.w"]
    check_width(modality, w.shape[0], x.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        h = affine(x, w, params[f"adapter{modality + 1}.b"], relu=True)
        i = 0
        while f"trunk{i}.w" in params:
            h = affine(h, params[f"trunk{i}.w"], params[f"trunk{i}.b"],
                       relu=True)
            i += 1
        h = affine(h, params["head0.w"], params["head0.b"], relu=True)
        return affine(h, params["head1.w"], params["head1.b"]
                      ).l2_normalize_rows()


def renormalize_prototypes(prototypes: Tensor) -> None:
    """Rescale every prototype row to unit norm, in place. An all-zero row
    stays zero, as `unit_rows` leaves a zero embedding: its zero scores
    still give it a gradient, so the next step moves it off zero."""
    prototypes.data[...] = unit_rows(prototypes.data)[0]
