import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmproto import gradcheck
from mmproto.errors import NumericalError, UsageError
from mmproto.numerics import (Tensor, affine, as_matrix, backward,
                              cross_entropy, log_softmax_rows, unit_rows)

finite_matrices = arrays(
    np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False))


def matmul(a, b) -> np.ndarray:
    """The affine node with a zero bias."""
    b = np.asarray(b, dtype=np.float64)
    return affine(Tensor(a), Tensor(b), Tensor(np.zeros((1, b.shape[1])))).data


def softmax_rows(m, temperature: float = 1.0) -> np.ndarray:
    return np.exp(log_softmax_rows(np.asarray(m, dtype=np.float64),
                                   temperature))


def total(t: Tensor, weights=1.0) -> Tensor:
    """sum(weights * t) as a scalar node, built only from `Tensor` itself."""
    w = np.broadcast_to(weights, t.shape)
    return Tensor([[float((w * t.data).sum())]], (t,),
                  lambda g: t._accum(g[0, 0] * w))


def half_sum_of_squares(t: Tensor) -> Tensor:
    return Tensor([[0.5 * float((t.data * t.data).sum())]], (t,),
                  lambda g: t._accum(g[0, 0] * t.data))


def l2_normalize_rows(m) -> np.ndarray:
    return Tensor(m).l2_normalize_rows().data


class TestAsMatrix:
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(UsageError, match=re.escape(
                f"expected a 2-D matrix, got shape {shape}")):
            as_matrix(np.zeros(shape))


class TestMatmul:
    def test_identity(self):
        out = matmul([[1, 0], [0, 1]], [[5, 6], [7, 8]])
        np.testing.assert_array_equal(out, [[5, 6], [7, 8]])

    def test_hand_computed(self):
        out = matmul([[1, 2]], [[3], [4]])
        np.testing.assert_array_equal(out, [[11]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(UsageError, match=r"\(2, 3\) times \(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    @given(a=finite_matrices, b=finite_matrices, c=finite_matrices)
    @settings(max_examples=50)
    def test_associativity(self, a, b, c):
        b = np.resize(b, (a.shape[1], b.shape[1]))
        c = np.resize(c, (b.shape[1], c.shape[1]))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        np.testing.assert_allclose(left, right, atol=1e-9 * (1 + np.abs(left).max()))


class TestSoftmaxRows:
    """Softmax as exp(log_softmax_rows)."""

    def test_symmetric_row(self):
        out = softmax_rows([[0.0, 0.0]], temperature=0.1)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_direct_evaluation(self):
        out = softmax_rows([[1.0, 0.0]], temperature=0.1)
        expect = np.array([1.0, np.exp(-10)]) / (1.0 + np.exp(-10))
        np.testing.assert_allclose(out[0], expect, rtol=1e-12)
        np.testing.assert_allclose(out[0], [0.9999546, 4.5398e-5], rtol=1e-4)

    def test_no_overflow(self):
        logp = log_softmax_rows(np.array([[1000.0, 0.0]]), 1.0)
        np.testing.assert_array_equal(logp, [[0.0, -1000.0]])
        out = softmax_rows([[1000.0, 0.0]], temperature=1.0)
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    def test_nonpositive_temperature(self):
        with pytest.raises(UsageError):
            softmax_rows([[1.0, 2.0]], temperature=0.0)

    def test_overflowing_quotient_named(self):
        with pytest.raises(NumericalError,
                           match=r"^scores / temperature 1e-310 hold NaN"):
            log_softmax_rows(np.array([[0.3, -0.5]]), 1e-310)

    @given(m=finite_matrices)
    @settings(max_examples=50)
    def test_rows_sum_to_one(self, m):
        out = softmax_rows(m, temperature=0.7)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @given(m=finite_matrices, c=st.floats(-20, 20))
    @settings(max_examples=50)
    def test_shift_invariance(self, m, c):
        np.testing.assert_allclose(softmax_rows(m + c), softmax_rows(m),
                                   atol=1e-9)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows([[3.0, 4.0]])
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_zero_row_left_zero(self):
        m = Tensor([[0.0, 0.0], [3.0, 4.0]])
        out = m.l2_normalize_rows()
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
        grad = backward(total(out), {"m": m})["m"]
        assert np.isfinite(grad).all()

    def test_diagonal(self):
        out = l2_normalize_rows([[1.0, 1.0]])
        np.testing.assert_allclose(out, [[0.70710678, 0.70710678]], rtol=1e-7)

    @given(m=finite_matrices)
    @example(m=np.array([[9.4e-160]]))  # squares underflow
    @example(m=np.array([[1e200, 1e200]]))  # squares overflow
    @settings(max_examples=50)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_idempotent(self, m):
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        np.testing.assert_allclose(once, twice, atol=1e-9)
        nonzero = (m != 0).any(axis=1)
        np.testing.assert_allclose(np.linalg.norm(once[nonzero], axis=1), 1.0)
        rows, norms = unit_rows(np.asarray(m, dtype=np.float64))
        np.testing.assert_array_equal(rows, once)
        np.testing.assert_allclose(rows * norms, m, rtol=1e-12,
                                   atol=1e-12 * norms.max())
        assert (norms[~nonzero] == 0).all()


class TestBackward:
    def test_linear_loss_gives_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3))
        grads = backward(total(p), {"p": p})
        np.testing.assert_array_equal(grads["p"], np.ones((2, 3)))

    def test_quadratic_loss_gives_p(self):
        value = np.arange(6.0).reshape(2, 3)
        p = Tensor(value)
        grads = backward(half_sum_of_squares(p), {"p": p})
        np.testing.assert_allclose(grads["p"], value)

    def test_non_scalar_loss_rejected(self):
        p = Tensor(np.ones((2, 2)))
        with pytest.raises(UsageError):
            backward(p.l2_normalize_rows(), {"p": p})

    def test_repeated_backward_identical(self):
        p = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = cross_entropy(affine(p, p, Tensor(np.zeros((1, 2)))),
                             p.data, 0.5)
        first = backward(loss, {"p": p})
        second = backward(loss, {"p": p})
        assert (first["p"] == second["p"]).all()

    def test_unreached_parameter_gets_zeros(self):
        """A parameter the loss does not reach gets zeros, not the gradient
        an earlier sweep left on it."""
        a, b = Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1)))
        zero = Tensor(np.zeros((1, 1)))
        backward(total(affine(a, a, zero)), {"a": a, "b": b})
        grads = backward(total(affine(b, b, zero)), {"a": a, "b": b})
        np.testing.assert_array_equal(grads["a"], [[0.0]])
        np.testing.assert_array_equal(grads["b"], [[2.0]])

    def test_gradient_shapes_match(self):
        w = Tensor(np.ones((3, 4)))
        b = Tensor(np.zeros((1, 4)))
        x = Tensor(np.random.default_rng(0).standard_normal((5, 3)))
        loss = total(affine(x, w, b, relu=True))
        grads = backward(loss, {"w": w, "b": b})
        assert grads["w"].shape == (3, 4)
        assert grads["b"].shape == (1, 4)

    def test_seeded_reproducibility(self):
        def run():
            rng = np.random.default_rng(42)
            p = Tensor(rng.standard_normal((4, 4)))
            x = Tensor(rng.standard_normal((4, 4)))
            loss = cross_entropy(affine(x, p, Tensor(np.zeros((1, 4)))),
                                 x.data, 0.3)
            return backward(loss, {"p": p})["p"]

        a, b = run(), run()
        assert (a == b).all()


class TestFiniteDifferenceAgreement:
    """Every composite op used by the objective matches central differences."""

    def check(self, build, params):
        result = gradcheck.check("op", build, params)
        assert result.passed, (result.bound_ratio, result.worst)

    def test_matmul(self):
        rng = np.random.default_rng(0)
        self.check(lambda p: total(affine(p["a"], p["b"], p["c"])),
                   {"a": rng.standard_normal((3, 4)),
                    "b": rng.standard_normal((4, 2)),
                    "c": rng.standard_normal((1, 2))})

    def test_softmax(self):
        """The cross-entropy node under weights whose rows do not sum to 1."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 5))
        self.check(lambda p: cross_entropy(p["m"], w, 0.2),
                   {"m": rng.standard_normal((3, 5))})

    def test_normalization(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 6))
        self.check(lambda p: total(p["m"].l2_normalize_rows(), w),
                   {"m": rng.standard_normal((4, 6)) + 0.2})

    def test_cross_entropy(self):
        rng = np.random.default_rng(4)
        q = np.abs(rng.standard_normal((4, 5)))
        q /= q.sum(axis=1, keepdims=True)
        self.check(
            lambda p: cross_entropy(p["s"], q, 0.1),
            {"s": rng.standard_normal((4, 5))})


def assert_close(actual, reference, rtol=1e-12):
    """Agreement to `rtol` relative to the reference's largest entry."""
    reference = np.asarray(reference)
    scale = np.abs(reference).max()
    assert np.abs(np.asarray(actual) - reference).max() <= rtol * scale


class TestFusedNodes:
    """Each fused node against numpy of the unfused composition it
    replaces: forward values, and gradients by the chain rule op by op."""

    def affine_case(self, relu, seed=0):
        rng = np.random.default_rng(seed)
        x, w, b = (rng.standard_normal(s) for s in ((5, 3), (3, 4), (1, 4)))
        upstream = rng.standard_normal((5, 4))
        pre = x @ w + b
        mask = pre > 0 if relu else np.ones_like(pre, dtype=bool)
        g = upstream * mask  # relu, then the add: b gets the column sums
        return x, w, b, upstream, pre * mask, {
            "x": g @ w.T, "w": x.T @ g, "b": g.sum(axis=0, keepdims=True)}

    @pytest.mark.parametrize("relu", [False, True])
    def test_affine_leaf_input(self, relu):
        x, w, b, upstream, out, ref = self.affine_case(relu)
        params = {"x": Tensor(x), "w": Tensor(w), "b": Tensor(b)}
        node = affine(params["x"], params["w"], params["b"], relu=relu)
        assert_close(node.data, out)
        grads = backward(total(node, upstream), params)
        for name in ref:
            assert_close(grads[name], ref[name])

    @pytest.mark.parametrize("relu", [False, True])
    def test_affine_constant_input(self, relu):
        """An ndarray input is no parent of the node and is left as is."""
        x, w, b, upstream, out, ref = self.affine_case(relu, seed=1)
        params = {"w": Tensor(w), "b": Tensor(b)}
        before = x.copy()
        node = affine(x, params["w"], params["b"], relu=relu)
        assert node._parents == (params["w"], params["b"])
        assert_close(node.data, out)
        grads = backward(total(node, upstream), params)
        for name in params:
            assert_close(grads[name], ref[name])
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("temperature", [1.0, 0.1])
    def test_cross_entropy_unnormalized_targets(self, temperature):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((4, 6))
        q = np.abs(rng.standard_normal((4, 6)))  # rows sum to 0.9 .. 6
        assert np.abs(q.sum(axis=1) - 1).min() > 0.1
        shifted = s / temperature - (s / temperature).max(axis=1,
                                                          keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        g_logp = -q / 4  # through the mean, then log-softmax's backward
        g_s = (g_logp - np.exp(logp) * g_logp.sum(axis=1, keepdims=True)
               ) / temperature
        scores = Tensor(s)
        loss = cross_entropy(scores, q, temperature)
        assert_close(loss.data, [[-(q * logp).sum() / 4]])
        assert_close(backward(loss, {"s": scores})["s"], g_s)

