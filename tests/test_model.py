import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmproto.errors import UsageError
from mmproto.model import (EncoderConfig, PrototypeBank, embed, init_model,
                           prototype_scores, renormalize_prototypes)
from mmproto.numerics import (Tensor, backward, finite_difference,
                              relative_gradient_error)

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
            init_model(CFG, k=1, seed=0)


class TestInit:
    def test_deterministic(self):
        e1, b1 = init_model(CFG, k=4, seed=3)
        e2, b2 = init_model(CFG, k=4, seed=3)
        for (name, p), (_, q) in zip(sorted(e1.parameters().items()),
                                     sorted(e2.parameters().items())):
            assert (p.data == q.data).all(), name
        assert (b1.c.data == b2.c.data).all()

    def test_seed_changes_weights(self):
        e1, _ = init_model(CFG, k=4, seed=3)
        e2, _ = init_model(CFG, k=4, seed=4)
        assert not (e1.parameters()["adapter1.w"].data
                    == e2.parameters()["adapter1.w"].data).all()

    def test_weight_scale(self):
        encoder, _ = init_model(CFG, k=4, seed=0)
        w = encoder.parameters()["adapter1.w"].data
        assert np.abs(w).max() <= 1.0 / np.sqrt(6)

    def test_prototypes_unit_norm(self):
        _, bank = init_model(CFG, k=7, seed=0)
        norms = np.sqrt((bank.c.data ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_parameter_names(self):
        encoder, _ = init_model(CFG, k=4, seed=0)
        assert set(encoder.parameters()) == {
            "adapter1.w", "adapter1.b", "adapter2.w", "adapter2.b",
            "head0.w", "head0.b", "head1.w", "head1.b"}

    def test_shared_trunk_parameter_identity(self):
        """Both modality paths read the very same trunk/head tensors."""
        encoder, _ = init_model(
            EncoderConfig((6, 9), (8, 8), 5), k=4, seed=0)
        params = encoder.parameters()
        assert params["trunk0.w"] is encoder.trunk[0][0]
        assert params["head0.w"] is encoder.head[0][0]
        # adapters are the only per-modality parameters
        assert encoder.adapters[0][0] is not encoder.adapters[1][0]


class TestEmbed:
    def test_rows_unit_norm(self):
        encoder, _ = init_model(CFG, k=4, seed=1)
        x = np.random.default_rng(0).standard_normal((10, 6))
        z = embed(encoder, x, 0).data
        np.testing.assert_allclose((z ** 2).sum(axis=1), 1.0, atol=1e-12)

    def test_modality_dim_checked(self):
        encoder, _ = init_model(CFG, k=4, seed=1)
        with pytest.raises(UsageError):
            embed(encoder, np.zeros((3, 9)), 0)

    def test_bad_modality_index(self):
        encoder, _ = init_model(CFG, k=4, seed=1)
        with pytest.raises(UsageError):
            embed(encoder, np.zeros((3, 6)), 2)

    def test_deterministic_and_pure(self):
        encoder, _ = init_model(CFG, k=4, seed=1)
        x = np.random.default_rng(1).standard_normal((4, 9))
        a = embed(encoder, x, 1).data
        b = embed(encoder, x, 1).data
        assert (a == b).all()

    def test_gradient_matches_finite_differences(self):
        encoder, _ = init_model(CFG, k=4, seed=2)
        x = np.random.default_rng(2).standard_normal((3, 6))
        weights = np.random.default_rng(3).standard_normal((3, 5))

        loss = (embed(encoder, x, 0) * Tensor(weights)).sum()
        analytic = backward(loss, encoder.parameters())

        raw = {name: p.data.copy() for name, p in encoder.parameters().items()}

        def scalar(values):
            enc, _ = init_model(CFG, k=4, seed=2)
            for name, p in enc.parameters().items():
                p.data[...] = values[name]
            return float((embed(enc, x, 0) * Tensor(weights)).sum().data[0, 0])

        numeric = finite_difference(scalar, raw)
        assert relative_gradient_error(analytic, numeric) < 1e-4


class TestPrototypeScores:
    def test_hand_computed(self):
        bank = PrototypeBank(Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])))
        z = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(prototype_scores(z, bank).data,
                                   [[0.6], [0.8]])

    def test_dim_mismatch(self):
        bank = PrototypeBank(Tensor(np.eye(2)))
        with pytest.raises(UsageError):
            prototype_scores(np.zeros((3, 4)), bank)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_scores_bounded_for_unit_rows(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((4, 6))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        z = rng.standard_normal((5, 6))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        scores = prototype_scores(z, PrototypeBank(Tensor(c))).data
        assert np.abs(scores).max() <= 1.0 + 1e-12


class TestRenormalizePrototypes:
    def test_rows_back_to_unit(self):
        bank = PrototypeBank(Tensor(np.array([[3.0, 4.0], [0.5, 0.0]])))
        renormalize_prototypes(bank)
        np.testing.assert_allclose(np.linalg.norm(bank.c.data, axis=1), 1.0)
        assert bank.rerandomized_rows == []

    def test_dead_row_rerandomized(self):
        bank = PrototypeBank(Tensor(np.array([[3.0, 4.0], [0.0, 0.0]])))
        renormalize_prototypes(bank)
        assert bank.rerandomized_rows == [1]
        np.testing.assert_allclose(np.linalg.norm(bank.c.data, axis=1), 1.0)

    def test_in_place(self):
        bank = PrototypeBank(Tensor(np.array([[2.0, 0.0]])))
        original = bank.c
        renormalize_prototypes(bank)
        assert bank.c is original
