import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmproto.data import CorpusSpec, PairedCorpus, generate
from mmproto.errors import UsageError
from mmproto.evaluation import (cluster_agreement, knn_probe, linear_probe,
                                normalized_mutual_information, purity_score,
                                train_linear_classifier)
from mmproto.model import EncoderConfig, embed
from mmproto.objective import LossConfig
from mmproto.sinkhorn import SinkhornConfig
from mmproto.trainer import (TrainConfig, model_from_checkpoint,
                             random_init_checkpoint, train)


def probe_corpus(noise=0.05, n=200, seed=5):
    return generate(CorpusSpec(n_samples=n, n_latent_clusters=3, latent_dim=4,
                               d1=8, d2=9, noise_sigma=noise, seed=seed))


def probe_config(**kw):
    defaults = dict(
        epochs=1, batch_size=16, base_lr=0.1, momentum=0.9,
        prototype_freeze_iterations=0,
        loss=LossConfig(temperature=0.1,
                        sinkhorn=SinkhornConfig(epsilon=0.05, n_iterations=3),
                        queue_length=16, queue_start_iteration=4),
        k_prototypes=3,
        encoder=EncoderConfig(input_dims=(8, 9), hidden_dims=(8,),
                              embed_dim=6),
        seed=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestLinearClassifier:
    def test_one_hot_features_perfect(self):
        labels = np.array([0, 1, 2, 0, 1, 2, 1, 0])
        onehot = np.eye(3)[labels]
        w, b = train_linear_classifier(onehot, labels, 3)
        pred = (onehot @ w + b).argmax(axis=1)
        assert (pred == labels).all()


class TestLinearProbe:
    def test_requires_labels(self):
        corpus = probe_corpus()
        unlabeled = PairedCorpus(corpus.modality1, corpus.modality2, None)
        with pytest.raises(UsageError):
            linear_probe(random_init_checkpoint(probe_config()), unlabeled, 0)

    def test_deterministic(self):
        corpus = probe_corpus()
        ckpt = random_init_checkpoint(probe_config())
        a = linear_probe(ckpt, corpus, split_seed=3)
        b = linear_probe(ckpt, corpus, split_seed=3)
        assert a.accuracy == b.accuracy
        assert a.per_class_accuracy == b.per_class_accuracy

    def test_report_counts(self):
        corpus = probe_corpus(n=200)
        report = linear_probe(random_init_checkpoint(probe_config()),
                              corpus, split_seed=1)
        assert report.n_train == 160 and report.n_test == 40
        assert 0.0 <= report.accuracy <= 1.0

    def test_shuffled_labels_chance_level(self):
        corpus = probe_corpus(n=600)
        rng = np.random.default_rng(0)
        shuffled = PairedCorpus(corpus.modality1, corpus.modality2,
                                rng.permutation(corpus.labels))
        report = linear_probe(random_init_checkpoint(probe_config()),
                              shuffled, split_seed=1)
        assert abs(report.accuracy - 1.0 / 3) < 0.15

    def test_unknown_modality(self):
        with pytest.raises(UsageError):
            linear_probe(random_init_checkpoint(probe_config()),
                         probe_corpus(), 0, modality="m3")


class TestKnnProbe:
    def test_zero_noise_perfect(self):
        corpus = probe_corpus(noise=0.0)
        ckpt = random_init_checkpoint(probe_config())
        assert knn_probe(ckpt, corpus, 1, split_seed=4).accuracy == 1.0

    def test_k_validation(self):
        ckpt = random_init_checkpoint(probe_config())
        with pytest.raises(UsageError):
            knn_probe(ckpt, probe_corpus(), 0, split_seed=1)
        with pytest.raises(UsageError):
            knn_probe(ckpt, probe_corpus(n=50), 41, split_seed=1)

    def test_accuracy_in_bounds(self):
        ckpt = random_init_checkpoint(probe_config())
        report = knn_probe(ckpt, probe_corpus(), 5, split_seed=2)
        assert 0.0 <= report.accuracy <= 1.0


class TestNmi:
    def test_identical_assignments(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(a, a) == pytest.approx(1.0)

    def test_constant_assignment_zero(self):
        a = np.zeros(10, dtype=int)
        b = np.array([0, 1] * 5)
        assert normalized_mutual_information(a, b) == 0.0

    def test_label_permutation_invariant(self):
        truth = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        pred = np.array([2, 2, 0, 0, 1, 1, 2, 0])  # same partition, renamed
        assert normalized_mutual_information(pred, truth) == pytest.approx(1.0)

    def test_hand_computed_half_split(self):
        # one predicted cluster covers two true classes exactly
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 0, 0])
        assert normalized_mutual_information(pred, truth) == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 3, size=30)
        assert abs(normalized_mutual_information(a, b)
                   - normalized_mutual_information(b, a)) < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 5, size=40)
        b = rng.integers(0, 5, size=40)
        assert 0.0 <= normalized_mutual_information(a, b) <= 1.0


class TestPurity:
    def test_perfect(self):
        a = np.array([0, 0, 1, 1])
        assert purity_score(a, a) == 1.0

    def test_single_cluster(self):
        pred = np.zeros(6, dtype=int)
        truth = np.array([0, 0, 0, 1, 1, 2])
        assert purity_score(pred, truth) == pytest.approx(0.5)

    def test_cluster_relabel_invariant(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([1, 1, 2, 2, 0, 0])
        assert purity_score(pred, truth) == 1.0


class TestClusterAgreement:
    def test_requires_labels(self):
        corpus = probe_corpus()
        unlabeled = PairedCorpus(corpus.modality1, corpus.modality2, None)
        with pytest.raises(UsageError):
            cluster_agreement(random_init_checkpoint(probe_config()),
                              unlabeled)

    def test_report_contents(self):
        report = cluster_agreement(random_init_checkpoint(probe_config()),
                                   probe_corpus())
        assert 0.0 <= report.nmi <= 1.0
        assert 0.0 <= report.purity <= 1.0
        assert report.cluster_sizes.sum() == 200
        assert len(report.cluster_sizes) == 3

    def test_deterministic(self):
        ckpt = random_init_checkpoint(probe_config())
        a = cluster_agreement(ckpt, probe_corpus())
        b = cluster_agreement(ckpt, probe_corpus())
        assert a.nmi == b.nmi and a.purity == b.purity

    def test_modality_2_assigns_its_own_embeddings(self):
        corpus = probe_corpus()
        ckpt, _ = train(corpus, probe_config())
        params = model_from_checkpoint(ckpt)
        z = embed(params, corpus.modality2, 1).data
        assigned = (params["prototypes"].data @ z.T).argmax(axis=0)
        report = cluster_agreement(ckpt, corpus, "m2")
        assert report.nmi == normalized_mutual_information(assigned,
                                                           corpus.labels)
        assert report.purity == purity_score(assigned, corpus.labels)
        np.testing.assert_array_equal(report.cluster_sizes,
                                      np.bincount(assigned, minlength=3))
        assert report.nmi != cluster_agreement(ckpt, corpus, "m1").nmi
