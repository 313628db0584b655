import numpy as np
import pytest

from mmproto import gradcheck
from mmproto.errors import UsageError
from mmproto.model import (EncoderConfig, embed, init_params,
                           renormalize_prototypes)
from mmproto.numerics import Tensor, backward, cross_entropy

CFG = EncoderConfig(input_dims=(6, 9), hidden_dims=(8,), embed_dim=5)


class TestConfig:
    def test_two_modalities_required(self):
        with pytest.raises(UsageError):
            EncoderConfig(input_dims=(4,))

    def test_hidden_layer_required(self):
        with pytest.raises(UsageError):
            EncoderConfig(hidden_dims=())

    def test_positive_dims(self):
        with pytest.raises(UsageError):
            EncoderConfig(input_dims=(0, 4))

    def test_min_prototypes(self):
        with pytest.raises(UsageError):
            init_params(CFG, k=1, seed=0)


class TestInit:
    def test_deterministic(self):
        p1 = init_params(CFG, k=4, seed=3)
        p2 = init_params(CFG, k=4, seed=3)
        assert list(p1) == list(p2)
        for name in p1:
            assert (p1[name].data == p2[name].data).all(), name

    def test_seed_changes_weights(self):
        p1 = init_params(CFG, k=4, seed=3)
        p2 = init_params(CFG, k=4, seed=4)
        assert not (p1["adapter1.w"].data == p2["adapter1.w"].data).all()

    def test_weight_scale(self):
        w = init_params(CFG, k=4, seed=0)["adapter1.w"].data
        assert np.abs(w).max() <= 1.0 / np.sqrt(6)

    def test_prototypes_unit_norm(self):
        c = init_params(CFG, k=7, seed=0)["prototypes"].data
        norms = np.sqrt((c ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_parameter_names(self):
        assert set(init_params(CFG, k=4, seed=0)) == {
            "adapter1.w", "adapter1.b", "adapter2.w", "adapter2.b",
            "head0.w", "head0.b", "head1.w", "head1.b", "prototypes"}

    def test_shared_trunk_parameter_identity(self):
        """Each modality's loss reaches the shared trunk and head and its own
        adapter, never the other modality's adapter."""
        params = init_params(EncoderConfig((6, 9), (8, 8), 5), k=4, seed=0)
        rng = np.random.default_rng(0)
        inputs = (rng.standard_normal((3, 6)), rng.standard_normal((3, 9)))
        weights = rng.standard_normal((3, 5))
        shared = ("trunk0.w", "trunk0.b", "head0.w", "head0.b",
                  "head1.w", "head1.b")
        for m in (0, 1):
            grads = backward(
                cross_entropy(embed(params, inputs[m], m), weights), params)
            for name in (*shared, f"adapter{m + 1}.w", f"adapter{m + 1}.b"):
                assert np.abs(grads[name]).max() > 0, (m, name)
            for name in (f"adapter{2 - m}.w", f"adapter{2 - m}.b"):
                assert not grads[name].any(), (m, name)


class TestEmbed:
    def test_rows_unit_norm(self):
        params = init_params(CFG, k=4, seed=1)
        x = np.random.default_rng(0).standard_normal((10, 6))
        z = embed(params, x, 0).data
        np.testing.assert_allclose((z ** 2).sum(axis=1), 1.0, atol=1e-12)

    def test_modality_dim_checked(self):
        params = init_params(CFG, k=4, seed=1)
        with pytest.raises(UsageError):
            embed(params, np.zeros((3, 9)), 0)

    def test_bad_modality_index(self):
        params = init_params(CFG, k=4, seed=1)
        with pytest.raises(UsageError):
            embed(params, np.zeros((3, 6)), 2)

    def test_deterministic_and_pure(self):
        params = init_params(CFG, k=4, seed=1)
        x = np.random.default_rng(1).standard_normal((4, 9))
        a = embed(params, x, 1).data
        b = embed(params, x, 1).data
        assert (a == b).all()

    def test_gradient_matches_finite_differences(self):
        params = init_params(CFG, k=4, seed=2)
        del params["prototypes"]  # the embedding does not reach them
        x = np.random.default_rng(2).standard_normal((3, 6))
        weights = np.random.default_rng(3).standard_normal((3, 5))

        result = gradcheck.check(
            "embed", lambda p: cross_entropy(embed(p, x, 0), weights, 0.5),
            {name: p.data for name, p in params.items()})
        assert result.passed, (result.bound_ratio, result.worst)


class TestRenormalizePrototypes:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_back_to_unit(self):
        # the squares of the last two rows overflow and underflow
        prototypes = Tensor(np.array([[3.0, 4.0], [0.5, 0.0],
                                      [1e200, 1e200], [1e-200, 1e-200]]))
        renormalize_prototypes(prototypes)
        np.testing.assert_allclose(np.linalg.norm(prototypes.data, axis=1),
                                   1.0)

    def test_zero_row_stays_zero(self):
        prototypes = Tensor(np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]]))
        assert renormalize_prototypes(prototypes) is None
        np.testing.assert_array_equal(prototypes.data[1], [0.0, 0.0])
        np.testing.assert_allclose(
            np.linalg.norm(prototypes.data[[0, 2]], axis=1), 1.0)

    def test_in_place(self):
        prototypes = Tensor(np.array([[2.0, 0.0]]))
        original = prototypes.data
        renormalize_prototypes(prototypes)
        assert prototypes.data is original
        np.testing.assert_array_equal(original, [[1.0, 0.0]])
