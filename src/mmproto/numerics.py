"""Dense float64 matrix primitives and a reverse-mode gradient tape.

Matrices are plain 2-D C-contiguous float64 numpy arrays (row-major).
The autodiff facility is a small dynamic graph of fused nodes: every
`Tensor` built by an op records its parents and a backward closure that
hands each parent its share of the gradient; `backward` walks the graph in
reverse topological order and accumulates gradients into the named
parameters.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, UsageError


def as_matrix(x) -> np.ndarray:
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise UsageError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def check_allocation(shape: tuple[int, ...]) -> None:
    """A float64 (or uint64) array of `shape` whose dimension or byte count
    lies beyond numpy's index range, which numpy reports as a `ValueError`,
    is a `MemoryError`: an allocation the machine cannot hold."""
    limit = np.iinfo(np.intp).max
    nbytes = 8 * math.prod(shape)
    if max(shape, default=0) > limit or nbytes > limit:
        raise MemoryError(f"Unable to allocate {nbytes} bytes for an array "
                          f"with shape {shape}")


class Tensor:
    """Node in the dynamic autodiff graph; wraps a float64 ndarray.

    A leaf (a parameter) has no parents. An op's node lists the Tensors it
    differentiates as `parents`, and its `backward(g)` passes each of them
    its gradient through `_accum`.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward=None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def l2_normalize_rows(self) -> "Tensor":
        y, norms = unit_rows(self.data)
        safe = np.where(norms == 0.0, 1.0, norms)

        def backward(g):
            dot = (g * y).sum(axis=1, keepdims=True)
            self._accum((g - y * dot) / safe)

        return Tensor(y, (self,), backward)

    def _accum(self, g: np.ndarray):
        """Add `g` to this node's gradient. The first `g` becomes the
        gradient itself, so it must be a new array that nothing else holds."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of `x` scaled to unit length, and the row norms as a column;
    an all-zero row stays zero, with norm 0."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    rows = x / np.where(norms == 0.0, 1.0, norms)
    # squares below ~1e-308 lose bits and above ~1e308 overflow, so
    # those rows are normalized in units of their largest entry
    rescale = (norms[:, 0] < 1e-150) | (norms[:, 0] > 1e150)
    if rescale.any():
        peak = np.abs(x[rescale]).max(axis=1, keepdims=True)
        unit = x[rescale] / np.where(peak == 0.0, 1.0, peak)
        scale = np.sqrt((unit * unit).sum(axis=1, keepdims=True))
        rows[rescale] = unit / np.where(scale == 0.0, 1.0, scale)
        with np.errstate(over="ignore"):
            norms[rescale] = peak * scale
    return rows, norms


def affine(x, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """`x @ w + b`, through a relu if `relu`, as one node. An ndarray `x`
    (an input batch) is a constant and gets no gradient; a Tensor `x` gets
    its gradient."""
    constant = not isinstance(x, Tensor)
    xd = x if constant else x.data
    if xd.shape[1] != w.data.shape[0]:
        raise UsageError(f"matmul shape mismatch: {xd.shape} times "
                         f"{w.data.shape}")
    out = xd @ w.data
    out += b.data
    if relu:
        mask = out > 0.0
        out *= mask

    def backward(g):
        if relu:
            g = g * mask
        if not constant:
            x._accum(g @ w.data.T)
        w._accum(xd.T @ g)
        b._accum(g.sum(axis=0, keepdims=True))

    return Tensor(out, (w, b) if constant else (x, w, b), backward)


def log_softmax_rows(s: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """log softmax(s / temperature) of each row of an array, computed
    shifted by the row maximum so that no exponential overflows; a quotient
    that is not finite is a `NumericalError`, and an entry whose shift
    overflows comes out -inf."""
    if temperature <= 0:
        raise UsageError(f"temperature must be > 0, got {temperature}")
    with np.errstate(over="ignore"):
        s = s / temperature
    if not np.isfinite(s).all():
        raise NumericalError(
            f"scores / temperature {temperature} hold NaN or Inf")
    with np.errstate(over="ignore", invalid="ignore"):
        s -= s.max(axis=1, keepdims=True)
    s -= np.log(np.exp(s).sum(axis=1, keepdims=True))
    return s


def cross_entropy_sum(scores: np.ndarray, targets: np.ndarray,
                      temperature: float = 1.0) -> tuple[float, np.ndarray]:
    """-sum(targets * log softmax(scores / temperature)) over all rows, and
    its gradient in `scores`, (softmax(s / T) * rowsum(targets) - targets)
    / T, which stays exact for target rows that do not sum to 1."""
    logp = log_softmax_rows(scores, temperature)
    # an extreme temperature leaves a non-finite value the caller names
    with np.errstate(over="ignore", invalid="ignore"):
        grad = np.exp(logp)
        grad *= targets.sum(axis=1, keepdims=True)
        grad -= targets
        grad /= temperature
        return -(targets * logp).sum(), grad


def cross_entropy(scores: Tensor, targets: np.ndarray,
                  temperature: float = 1.0) -> Tensor:
    """Mean over rows of -targets . log softmax(scores / temperature), as
    one scalar node."""
    value, grad = cross_entropy_sum(scores.data, targets, temperature)
    n = len(targets)

    def backward(g):
        scores._accum(grad * (g[0, 0] / n))

    return Tensor([[value / n]], (scores,), backward)


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns a gradient per named parameter (zeros if unreachable); the same
    graph can be swept repeatedly with identical results.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise UsageError("loss must be a scalar Tensor")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    for node in (*topo, *params.values()):
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

    # every gradient is a new array of this sweep's own, so handing it out
    # cannot change a later sweep
    return {name: p.grad if p.grad is not None else np.zeros_like(p.data)
            for name, p in params.items()}

