import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmproto.errors import UsageError
from mmproto.model import EncoderConfig, embed, init_params
from mmproto.numerics import Tensor, backward
from mmproto.objective import (FeatureQueue, LossConfig, compute_batch_codes,
                               swapped_loss)
from mmproto.sinkhorn import SinkhornConfig, converged_config


def unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_prototypes(rng, k, d):
    return Tensor(unit_rows(rng, k, d))


def log_softmax(scores, temperature):
    """Independent reference: numpy log-softmax over each row."""
    s = np.asarray(scores) / temperature
    s = s - s.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.temperature == 0.1
        assert cfg.queue_length == 256

    def test_temperature_positive(self):
        with pytest.raises(UsageError):
            LossConfig(temperature=0.0)

    def test_queue_length_non_negative(self):
        with pytest.raises(UsageError):
            LossConfig(queue_length=-1)


class TestFeatureQueue:
    def test_fill_and_rows(self):
        q = FeatureQueue(capacity=4, dim=2)
        q.push(np.ones((3, 2)), 2 * np.ones((3, 2)))
        assert q.fill == 3
        assert q.rows(0).shape == (3, 2)
        np.testing.assert_array_equal(q.rows(1), 2 * np.ones((3, 2)))

    def test_oldest_evicted(self):
        q = FeatureQueue(capacity=2, dim=1)
        q.push(np.array([[1.0]]), np.array([[1.0]]))
        q.push(np.array([[2.0]]), np.array([[2.0]]))
        q.push(np.array([[3.0]]), np.array([[3.0]]))
        assert q.fill == 2
        assert sorted(q.rows(0)[:, 0].tolist()) == [2.0, 3.0]

    def test_enqueue_detaches(self):
        q = FeatureQueue(capacity=4, dim=2)
        z = np.ones((1, 2))
        q.push(z, z)
        z[...] = 99.0
        np.testing.assert_array_equal(q.rows(0), np.ones((1, 2)))

    def test_zero_capacity_noop(self):
        q = FeatureQueue(capacity=0, dim=2)
        q.push(np.ones((2, 2)), np.ones((2, 2)))
        assert q.fill == 0

    @given(capacity=st.integers(0, 5),
           sizes=st.lists(st.integers(0, 7), max_size=6),
           seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_push_matches_row_by_row(self, capacity, sizes, seed):
        """Each push puts the batch's last rows, in batch order, in front of
        the stored rows, and keeps the first `capacity` of them."""
        rng = np.random.default_rng(seed)
        queue = FeatureQueue(capacity, 3)
        expect = [np.zeros((0, 3)), np.zeros((0, 3))]
        for n in sizes:
            z = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
            queue.push(*z)
            k = min(n, capacity)
            expect = [np.concatenate([zm[n - k:], rows])[:capacity]
                      for zm, rows in zip(z, expect)]
            assert queue.fill == len(expect[0])
            for modality, rows in enumerate(expect):
                np.testing.assert_array_equal(queue.rows(modality), rows)


class TestCrossEntropyTerm:
    """The swapped loss as -mean_b sum_k q[b,k] log p[b,k], both views."""

    def test_uniform_targets(self):
        rng = np.random.default_rng(0)
        c = unit_rows(rng, 1, 4)
        prototypes = Tensor(np.repeat(c, 3, axis=0))  # equal scores
        z = Tensor(unit_rows(rng, 2, 4))
        q = np.full((2, 3), 1.0 / 3)
        loss, _ = swapped_loss(z, z, prototypes, None, LossConfig(),
                               codes=(q, q))
        assert float(loss.data[0, 0]) == pytest.approx(2 * np.log(3))

    def test_one_hot_target_picks_log_prob(self):
        rng = np.random.default_rng(1)
        prototypes = random_prototypes(rng, 3, 4)
        z1, z2 = unit_rows(rng, 2, 4), unit_rows(rng, 2, 4)
        q1, q2 = np.eye(3)[[0, 2]], np.eye(3)[[1, 1]]
        loss, _ = swapped_loss(Tensor(z1), Tensor(z2), prototypes, None,
                               LossConfig(temperature=0.1), codes=(q1, q2))
        logp1 = log_softmax(z1 @ prototypes.data.T, 0.1)
        logp2 = log_softmax(z2 @ prototypes.data.T, 0.1)
        expect = -(logp1[0, 1] + logp1[1, 1] + logp2[0, 0] + logp2[1, 2]) / 2
        assert float(loss.data[0, 0]) == pytest.approx(expect, abs=1e-12)

    def test_zero_probability_clamped(self):
        """A target on a prototype whose probability underflows to 0
        still gives a finite loss: the log is taken in the log domain."""
        prototypes = Tensor([[1.0, 0.0], [-1.0, 0.0]])
        z = Tensor([[1.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 1.0], [0.0, 1.0]])
        loss, _ = swapped_loss(z, z, prototypes, None,
                               LossConfig(temperature=0.001), codes=(q, q))
        assert np.exp(-2000.0) == 0.0
        assert float(loss.data[0, 0]) == pytest.approx(4000.0)


class TestComputeBatchCodes:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        prototypes = unit_rows(rng, 5, 8)
        q, _ = compute_batch_codes(unit_rows(rng, 6, 8), prototypes, None,
                                   converged_config(0.05))
        assert q.shape == (6, 5)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert (q >= 0).all()

    def test_queue_columns_change_codes(self):
        rng = np.random.default_rng(3)
        prototypes = unit_rows(rng, 4, 8)
        z = unit_rows(rng, 5, 8)
        extra = unit_rows(rng, 16, 8)
        plain, _ = compute_batch_codes(z, prototypes, None,
                                       converged_config(0.05))
        with_queue, _ = compute_batch_codes(z, prototypes, extra,
                                            converged_config(0.05))
        assert np.abs(plain - with_queue).max() > 1e-6

    def test_batch_columns_only(self):
        rng = np.random.default_rng(4)
        prototypes = unit_rows(rng, 4, 8)
        z = unit_rows(rng, 3, 8)
        q, _ = compute_batch_codes(z, prototypes, unit_rows(rng, 10, 8),
                                   converged_config(0.05))
        assert q.shape == (3, 4)


class TestSwappedLoss:
    def make(self, seed, b=6, k=5, d=8):
        rng = np.random.default_rng(seed)
        prototypes = random_prototypes(rng, k, d)
        z1 = Tensor(unit_rows(rng, b, d))
        z2 = Tensor(unit_rows(rng, b, d))
        cfg = LossConfig(temperature=0.1, sinkhorn=converged_config(0.05),
                         queue_length=32)
        return z1, z2, prototypes, cfg

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_swap_symmetry(self, seed):
        z1, z2, prototypes, cfg = self.make(seed)
        a, _ = swapped_loss(z1, z2, prototypes, None, cfg)
        b, _ = swapped_loss(z2, z1, prototypes, None, cfg)
        assert abs(float(a.data[0, 0]) - float(b.data[0, 0])) < 1e-12

    def test_identical_views_low_loss(self):
        """Perfectly aligned sharp views cost less than misaligned ones."""
        z1, z2, prototypes, cfg = self.make(7)
        aligned, _ = swapped_loss(z1, z1, prototypes, None, cfg)
        crossed, _ = swapped_loss(z1, z2, prototypes, None, cfg)
        assert float(aligned.data[0, 0]) < float(crossed.data[0, 0])

    def test_shape_mismatch(self):
        z1, z2, prototypes, cfg = self.make(8)
        with pytest.raises(UsageError):
            swapped_loss(z1, Tensor(z2.data[:3]), prototypes, None, cfg)

    def test_empty_batch(self):
        z1, z2, prototypes, cfg = self.make(9)
        with pytest.raises(UsageError):
            swapped_loss(Tensor(np.zeros((0, 8))), Tensor(np.zeros((0, 8))),
                         prototypes, None, cfg)

    def test_single_sample_warns(self):
        z1, z2, prototypes, cfg = self.make(10, b=1)
        with pytest.warns(UserWarning):
            swapped_loss(z1, z2, prototypes, None, cfg)

    def test_no_side_effects(self):
        """Inputs, queue rows included, come back unchanged, and a second
        call gives the same loss bit for bit."""
        z1, z2, prototypes, cfg = self.make(11)
        rng = np.random.default_rng(11)
        rows = (unit_rows(rng, 10, 8), unit_rows(rng, 10, 8))
        inputs = [z1.data, z2.data, prototypes.data, *rows]
        before = [a.copy() for a in inputs]
        first, _ = swapped_loss(z1, z2, prototypes, rows, cfg)
        second, _ = swapped_loss(z1, z2, prototypes, rows, cfg)
        assert first.data[0, 0] == second.data[0, 0]
        for a, b in zip(inputs, before):
            np.testing.assert_array_equal(a, b)
        assert z1.grad is None and prototypes.grad is None

    def test_frozen_codes_override(self):
        z1, z2, prototypes, cfg = self.make(12, b=4, k=3)
        q = np.full((4, 3), 1.0 / 3)
        loss, _ = swapped_loss(z1, z2, prototypes, None, cfg, codes=(q, q))
        # uniform targets: loss = mean of -sum_k (1/3) log p in both terms
        p1 = log_softmax(z1.data @ prototypes.data.T, 0.1)
        p2 = log_softmax(z2.data @ prototypes.data.T, 0.1)
        expect = -(q * p1).sum(axis=1).mean() - (q * p2).sum(axis=1).mean()
        assert float(loss.data[0, 0]) == pytest.approx(expect, abs=1e-12)

    def test_queue_rows_get_no_gradient(self):
        """Queued history influences codes only, never the gradient path."""
        rng = np.random.default_rng(13)
        cfg = LossConfig(temperature=0.1, sinkhorn=converged_config(0.05),
                         queue_length=16)
        params = init_params(EncoderConfig((4, 4), (6,), 8), k=3, seed=0)

        # iteration 1 fills the queue; iteration 2 uses it
        z1 = embed(params, rng.standard_normal((4, 4)), 0)
        z2 = embed(params, rng.standard_normal((4, 4)), 1)
        queue = FeatureQueue(cfg.queue_length, 8)
        queue.push(z1.data, z2.data)

        x1, x2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        loss, _ = swapped_loss(embed(params, x1, 0), embed(params, x2, 1),
                               params["prototypes"],
                               (queue.rows(0), queue.rows(1)), cfg)
        grads = backward(loss, params)

        # recompute with plain copies of the same rows: gradients must be
        # identical because queue rows are constants
        rows2 = (queue.rows(0)[:4].copy(), queue.rows(1)[:4].copy())
        params2 = init_params(EncoderConfig((4, 4), (6,), 8), k=3, seed=0)
        loss2, _ = swapped_loss(embed(params2, x1, 0), embed(params2, x2, 1),
                                params2["prototypes"], rows2, cfg)
        grads2 = backward(loss2, params2)
        for name in grads:
            np.testing.assert_allclose(grads[name], grads2[name], atol=1e-12)


def sweep_step(seed=0):
    """One `train_sweep3_k16`-shaped step: K=16, B=32, 32-wide inputs, a
    96-wide hidden layer, D=16 and the default 3-sweep codes."""
    rng = np.random.default_rng(seed)
    params = init_params(EncoderConfig((32, 32), (96,), 16), k=16, seed=seed)
    x1, x2 = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    cfg = LossConfig(temperature=0.2, sinkhorn=SinkhornConfig())
    z1, z2 = embed(params, x1, 0), embed(params, x2, 1)
    loss, _ = swapped_loss(z1, z2, params["prototypes"], None, cfg)
    return params, (x1, x2), cfg, loss


class TestTape:
    def test_graph_size(self):
        """The step's graph: three affine nodes and an l2 normalization per
        modality, one loss node, nine parameters (47 nodes when every
        matmul, add, relu, transpose and sum was a node of its own)."""
        _, _, _, loss = sweep_step()
        seen, stack = {id(loss)}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert len(seen) <= 20, len(seen)

    def test_node_matches_unfused_reference(self):
        """Value and gradients of the one loss node against numpy of the
        unfused scores -> log-softmax -> weighted sum, with code rows that
        do not sum to 1."""
        rng = np.random.default_rng(14)
        b, tau = 5, 0.1
        z1, z2, c = (unit_rows(rng, n, 4) for n in (b, b, 3))
        q1, q2 = (np.abs(rng.standard_normal((b, 3))) for _ in range(2))
        params = {"z1": Tensor(z1), "z2": Tensor(z2), "c": Tensor(c)}
        loss, _ = swapped_loss(params["z1"], params["z2"], params["c"], None,
                               LossConfig(temperature=tau), codes=(q1, q2))

        logp1, logp2 = log_softmax(z1 @ c.T, tau), log_softmax(z2 @ c.T, tau)
        value = -((q2 * logp1).sum() + (q1 * logp2).sum()) / b
        g_s = [(-q / b + np.exp(logp) * q.sum(axis=1, keepdims=True) / b)
               / tau for q, logp in ((q2, logp1), (q1, logp2))]
        ref = {"z1": g_s[0] @ c, "z2": g_s[1] @ c,
               "c": g_s[0].T @ z1 + g_s[1].T @ z2}
        assert abs(loss.data[0, 0] - value) <= 1e-12 * abs(value)
        grads = backward(loss, params)
        for name in ref:
            scale = np.abs(ref[name]).max()
            assert np.abs(grads[name] - ref[name]).max() <= 1e-12 * scale

    def test_shared_gradient_is_sum_of_both_views(self):
        """head0.w's gradient through both views is the sum of the
        gradients through each view alone: the first contribution is kept,
        the second added."""
        params, (x1, x2), cfg, _ = sweep_step(1)
        z1, z2 = embed(params, x1, 0), embed(params, x2, 1)
        codes = tuple(compute_batch_codes(z.data, params["prototypes"].data,
                                          None, cfg.sinkhorn)[0]
                      for z in (z1, z2))

        def head_grad(v1, v2):
            loss, _ = swapped_loss(v1, v2, params["prototypes"], None, cfg,
                                   codes=codes)
            return backward(loss, params)["head0.w"]

        both = head_grad(z1, z2)
        only1 = head_grad(z1, Tensor(z2.data))
        only2 = head_grad(Tensor(z1.data), z2)
        assert np.abs(only1).max() > 0 and np.abs(only2).max() > 0
        np.testing.assert_array_equal(both, only1 + only2)

    def test_mutated_gradient_leaves_graph_intact(self):
        """Changing the gradients `backward` returned does not change what
        a second sweep of the same graph returns."""
        params, _, _, loss = sweep_step(2)
        first = backward(loss, params)
        kept = {name: g.copy() for name, g in first.items()}
        for g in first.values():
            g += 1.0
        second = backward(loss, params)
        for name in kept:
            np.testing.assert_array_equal(second[name], kept[name])
