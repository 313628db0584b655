import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmproto.data import CorpusSpec, PairedCorpus, generate
from mmproto.errors import UsageError
from mmproto.evaluation import (PROBE_LR, PROBE_STEPS, cluster_agreement,
                                knn_probe, linear_probe, majority_vote,
                                nearest_neighbors,
                                normalized_mutual_information, purity_score,
                                train_linear_classifier)
from mmproto.model import EncoderConfig, embed
from mmproto.numerics import (Tensor, affine, as_matrix, backward,
                              cross_entropy, unit_rows)
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

    def test_matches_samples_by_classes_loop(self):
        """The classes x samples classifier trains the weights of the
        samples x classes loop `cross_entropy(affine(x, w, b), onehot)`."""
        rng = np.random.default_rng(11)
        x, _ = unit_rows(rng.standard_normal((300, 6)))
        x[250:] = x[:50]  # duplicated rows
        labels = rng.integers(0, 4, size=300)

        onehot = np.eye(4)[labels]
        w, b = Tensor(np.zeros((6, 4))), Tensor(np.zeros((1, 4)))
        for _ in range(PROBE_STEPS):
            grads = backward(cross_entropy(affine(as_matrix(x), w, b), onehot),
                             {"w": w, "b": b})
            w.data -= PROBE_LR * grads["w"]
            b.data -= PROBE_LR * grads["b"]

        got_w, got_b = train_linear_classifier(x, labels, 4)
        assert got_w.shape == (6, 4) and got_b.shape == (1, 4)
        np.testing.assert_allclose(got_w, w.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_b, b.data, rtol=0, atol=1e-12)
        np.testing.assert_array_equal((x @ got_w + got_b).argmax(axis=1),
                                      (x @ w.data + b.data).argmax(axis=1))


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


class TestNearestNeighbors:
    @given(seed=st.integers(0, 10_000), n_distinct=st.integers(1, 8),
           n_train=st.integers(5, 40))
    @settings(max_examples=60, deadline=None)
    def test_partition_matches_stable_sort(self, seed, n_distinct, n_train):
        """Training rows drawn with repeats from a few distinct rows score
        exact ties, which both orders break by index."""
        rng = np.random.default_rng(seed)
        distinct, _ = unit_rows(rng.standard_normal((n_distinct, 4)))
        train_z = distinct[rng.integers(0, n_distinct, size=n_train)]
        test_z, _ = unit_rows(rng.standard_normal((3, 4)))
        for row in test_z @ train_z.T:
            assert len(np.unique(row)) <= n_distinct
            for k in (1, 5, n_train):
                np.testing.assert_array_equal(
                    nearest_neighbors(row, k),
                    np.argsort(-row, kind="stable")[:k])


class TestMajorityVote:
    def test_tie_goes_to_nearest_tied_class(self):
        # votes 2 / 2 / 1: class 2 is nearest but not among the winners
        assert majority_vote(np.array([2, 0, 0, 1, 1])) == 0

    def test_majority_beats_nearest(self):
        assert majority_vote(np.array([2, 1, 1, 0, 1])) == 1


class TestClassIds:
    @pytest.mark.parametrize("probe", [
        lambda ckpt, corpus: linear_probe(ckpt, corpus, split_seed=3),
        lambda ckpt, corpus: knn_probe(ckpt, corpus, 5, split_seed=3)],
        ids=["linear", "knn"])
    def test_labels_are_ids_not_sizes(self, probe):
        """Labels far above the sample count, in the same order, give the
        same report under the new labels: no probe allocates by a label."""
        corpus = probe_corpus()
        ids = PairedCorpus(corpus.modality1, corpus.modality2,
                           2**31 + 7 * corpus.labels)
        ckpt = random_init_checkpoint(probe_config())
        want, got = probe(ckpt, corpus), probe(ckpt, ids)
        assert got.accuracy == want.accuracy
        assert got.per_class_accuracy == {
            2**31 + 7 * c: v for c, v in want.per_class_accuracy.items()}


def cellwise_nmi(a, b):
    """NMI summed cell by cell in Python: the reference for the table."""
    n = len(a)
    a_vals, a_inv = np.unique(a, return_inverse=True)
    b_vals, b_inv = np.unique(b, return_inverse=True)
    joint = np.zeros((len(a_vals), len(b_vals)))
    np.add.at(joint, (a_inv, b_inv), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mi = 0.0
    for i in range(len(a_vals)):
        for j in range(len(b_vals)):
            if joint[i, j] > 0:
                mi += joint[i, j] * np.log(joint[i, j] / (pa[i] * pb[j]))
    ha = float(-(pa[pa > 0] * np.log(pa[pa > 0])).sum())
    hb = float(-(pb[pb > 0] * np.log(pb[pb > 0])).sum())
    denom = 0.5 * (ha + hb)
    if denom == 0.0:
        return 1.0 if mi == 0.0 and len(a_vals) == len(b_vals) == 1 else 0.0
    return float(max(0.0, min(1.0, mi / denom)))


def membership_purity(pred, truth):
    """Purity counted cluster by cluster: the reference for the table."""
    total = 0
    for cluster in np.unique(pred):
        total += np.bincount(truth[pred == cluster]).max()
    return float(total) / len(truth)


class TestNmi:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_cellwise_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        a = rng.integers(0, int(rng.integers(1, 40)), size=n)
        b = rng.integers(0, int(rng.integers(1, 10)), size=n)
        assert abs(normalized_mutual_information(a, b)
                   - cellwise_nmi(a, b)) <= 1e-14
        assert purity_score(a, b) == membership_purity(a, b)

    def test_identical_assignments(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(a, a) == pytest.approx(1.0)

    def test_constant_assignment_zero(self):
        a = np.zeros(10, dtype=int)
        b = np.array([0, 1] * 5)
        assert normalized_mutual_information(a, b) == 0.0

    def test_two_constant_labelings_agree(self):
        a, b = np.zeros(7, dtype=int), np.full(7, 3)
        assert normalized_mutual_information(a, b) == 1.0

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
