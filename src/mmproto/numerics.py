"""Dense float64 matrix primitives and a reverse-mode gradient tape.

Matrices are plain 2-D C-contiguous float64 numpy arrays (row-major).
The autodiff facility is a small dynamic graph: every `Tensor` op records
its parents and a backward closure; `backward` walks the graph in reverse
topological order and accumulates gradients into the named parameters.
"""
from __future__ import annotations

import numpy as np

from .errors import UsageError


def as_matrix(x) -> np.ndarray:
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise UsageError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Node in the dynamic autodiff graph; wraps a float64 ndarray."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(self, data, parents, backward) -> "Tensor":
        out = Tensor(data)
        out._parents = tuple(p for p in parents if isinstance(p, Tensor))
        out._backward = backward
        return out

    # ---- elementwise / broadcasting ----

    def __add__(self, other):
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accum(-g)
        return self._make(-self.data, (self,), backward)

    def __mul__(self, other):
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    # ---- matrix ops ----

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._wrap(other)
        if self.data.shape[1] != other.data.shape[0]:
            raise UsageError(
                f"matmul shape mismatch: {self.data.shape} times "
                f"{other.data.shape}")
        out_data = self.data @ other.data

        def backward(g):
            self._accum(g @ other.data.T)
            other._accum(self.data.T @ g)

        return self._make(out_data, (self, other), backward)

    __matmul__ = matmul

    @property
    def T(self) -> "Tensor":
        def backward(g):
            self._accum(g.T)
        return self._make(self.data.T.copy(), (self,), backward)

    # ---- nonlinearities and reductions ----

    def relu(self) -> "Tensor":
        mask = self.data > 0.0

        def backward(g):
            self._accum(g * mask)

        return self._make(self.data * mask, (self,), backward)

    def sum(self) -> "Tensor":
        shape = self.data.shape

        def backward(g):
            self._accum(np.broadcast_to(g, shape))

        return self._make(np.array([[self.data.sum()]]), (self,), backward)

    def log_softmax_rows(self, temperature: float = 1.0) -> "Tensor":
        if temperature <= 0:
            raise UsageError(f"temperature must be > 0, got {temperature}")
        s = self.data / temperature
        s = s - s.max(axis=1, keepdims=True)
        logp = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
        p = np.exp(logp)

        def backward(g):
            self._accum((g - p * g.sum(axis=1, keepdims=True)) / temperature)

        return self._make(logp, (self,), backward)

    def l2_normalize_rows(self) -> "Tensor":
        with np.errstate(over="ignore"):
            norms = np.sqrt((self.data * self.data).sum(axis=1,
                                                        keepdims=True))
        safe = np.where(norms == 0.0, 1.0, norms)
        y = self.data / safe
        # squares below ~1e-308 lose bits and above ~1e308 overflow, so
        # those rows are normalized in units of their largest entry
        rescale = (norms[:, 0] < 1e-150) | (norms[:, 0] > 1e150)
        if rescale.any():
            peak = np.abs(self.data[rescale]).max(axis=1, keepdims=True)
            peak[peak == 0.0] = 1.0
            unit = self.data[rescale] / peak
            scale = np.sqrt((unit * unit).sum(axis=1, keepdims=True))
            scale[scale == 0.0] = 1.0
            y[rescale] = unit / scale
            with np.errstate(over="ignore"):
                safe[rescale] = peak * scale

        def backward(g):
            dot = (g * y).sum(axis=1, keepdims=True)
            self._accum((g - y * dot) / safe)

        return self._make(y, (self,), backward)

    # ---- gradient plumbing ----

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g


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

    out = {}
    for name, p in params.items():
        out[name] = (p.grad.copy() if p.grad is not None
                     else np.zeros_like(p.data))
    return out


def finite_difference(fn, params: dict[str, np.ndarray],
                      step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar function of named arrays."""
    grads = {}
    work = {k: v.copy() for k, v in params.items()}
    for name, value in work.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = fn(work)
            flat[i] = orig - step
            down = fn(work)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def relative_gradient_error(analytic: dict[str, np.ndarray],
                            numeric: dict[str, np.ndarray],
                            magnitude_floor: float = 1e-6) -> float:
    """Max relative error over components with |numeric| above the floor."""
    worst = 0.0
    for name in analytic:
        a, n = analytic[name].reshape(-1), numeric[name].reshape(-1)
        mask = np.abs(n) > magnitude_floor
        if mask.any():
            rel = np.abs(a[mask] - n[mask]) / np.abs(n[mask])
            worst = max(worst, float(rel.max()))
    return worst
