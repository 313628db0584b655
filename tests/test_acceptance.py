"""Acceptance gate: eight reference-measured criteria, one test each.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion. Thresholds are frozen from the reference runs recorded in the
configs below; tolerances are stated inline.
"""
import time

import numpy as np
import pytest

from mmproto.data import (CorpusSpec, generate, load_corpus, n_batches,
                          save_corpus)
from mmproto.evaluation import cluster_agreement, linear_probe
from mmproto.gradcheck import run_suite
from mmproto.model import EncoderConfig
from mmproto.numerics import Tensor
from mmproto.objective import LossConfig, swapped_loss
from mmproto.sinkhorn import compute_codes, converged_config
from mmproto.trainer import (TrainConfig, load_checkpoint,
                             random_init_checkpoint, save_checkpoint, train)

# ---- frozen reference configuration --------------------------------------

STANDARD_CORPUS = CorpusSpec(n_samples=2000, n_latent_clusters=8,
                             latent_dim=16, d1=32, d2=32, noise_sigma=0.05,
                             seed=123)

REFERENCE_SEED = 1


def reference_config(k: int) -> TrainConfig:
    return TrainConfig(
        epochs=30, batch_size=32, base_lr=0.3, momentum=0.9,
        prototype_freeze_iterations=-1,
        loss=LossConfig(temperature=0.2, sinkhorn=converged_config(0.05),
                        queue_length=256, queue_start_iteration=-1),
        k_prototypes=k,
        encoder=EncoderConfig(input_dims=(32, 32), hidden_dims=(96,),
                              embed_dim=16),
        seed=REFERENCE_SEED)


@pytest.fixture(scope="session")
def standard_corpus():
    return generate(STANDARD_CORPUS)


@pytest.fixture(scope="session")
def k16_run(standard_corpus):
    start = time.time()
    ckpt, metrics = train(standard_corpus, reference_config(16))
    return ckpt, metrics, time.time() - start


@pytest.fixture(scope="session")
def k8_run(standard_corpus):
    start = time.time()
    ckpt, metrics = train(standard_corpus, reference_config(8))
    return ckpt, metrics, time.time() - start


# ---- criteria ------------------------------------------------------------

def test_criterion_1_sinkhorn_marginals_200_matrices():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 65))
        b = int(rng.integers(2, 65))
        eps = float(rng.choice([0.01, 0.05, 1.0]))
        scores = rng.uniform(-1.0, 1.0, size=(k, b))
        codes = compute_codes(scores, converged_config(eps))
        worst = max(worst, *codes.marginal_deviation())
    elapsed = time.time() - start
    assert worst < 1e-6, f"worst marginal deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_sinkhorn_closed_forms():
    eps = 0.05
    sym = [[eps * np.log(3), 0.0], [0.0, eps * np.log(3)]]
    q = compute_codes(sym, converged_config(eps)).q
    np.testing.assert_allclose(q, [[0.375, 0.125], [0.125, 0.375]],
                               atol=1e-6)
    dominated = [[10.0, 10.0], [0.0, 0.0]]
    q = compute_codes(dominated, converged_config(eps)).q
    np.testing.assert_allclose(q, 0.25, atol=1e-6)


def test_criterion_3_gradient_correctness():
    start = time.time()
    results = run_suite(seed=0)
    elapsed = time.time() - start
    names = {r.op for r in results}
    assert {"affine", "l2_normalize", "cross_entropy", "swapped_loss",
            "swapped_loss_queue"} <= names
    for r in results:
        assert r.passed, (f"{r.op}: relative error "
                          f"{r.max_relative_error:.3e} >= 1e-4")
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"


def test_criterion_4_collapse_avoidance(k16_run):
    _, metrics, _ = k16_run
    floor = np.log(16) - 0.2
    low = min(m.code_entropy for m in metrics)
    assert low >= floor, (f"code-usage entropy dropped to {low:.4f}, "
                          f"floor {floor:.4f}")


def test_criterion_5_learning_signal(k16_run):
    _, metrics, _ = k16_run
    per_epoch = n_batches(STANDARD_CORPUS.n_samples,
                          reference_config(16).batch_size)
    first = float(np.mean([m.loss for m in metrics[:per_epoch]]))
    last = float(np.mean([m.loss for m in metrics[-per_epoch:]]))
    assert last <= 0.7 * first, (f"final-epoch mean {last:.4f} > 0.7 x "
                                 f"first-epoch mean {first:.4f}")


def test_criterion_6_representation_quality(standard_corpus, k8_run,
                                            k16_run):
    ckpt, _, train_seconds = k8_run
    start = time.time()
    trained = linear_probe(ckpt, standard_corpus, split_seed=99,
                           modality="m1").accuracy
    random_ckpt = random_init_checkpoint(reference_config(8))
    untrained = linear_probe(random_ckpt, standard_corpus, split_seed=99,
                             modality="m1").accuracy
    agreement = cluster_agreement(ckpt, standard_corpus)
    eval_seconds = time.time() - start

    margin = 100.0 * (trained - untrained)
    assert margin >= 15.0, (f"linear-probe margin {margin:.1f} points "
                            f"(trained {trained:.3f}, random {untrained:.3f})")
    assert agreement.nmi >= 0.5, f"NMI {agreement.nmi:.3f} < 0.5"
    pipeline = train_seconds + k16_run[2] + eval_seconds
    assert pipeline < 900.0, f"pipeline took {pipeline:.0f}s (budget 900s)"


def test_criterion_7_modality_swap_symmetry():
    rng = np.random.default_rng(7)
    cfg = LossConfig(temperature=0.1, sinkhorn=converged_config(0.05),
                     queue_length=0)
    for _ in range(100):
        b = int(rng.integers(2, 17))
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, 9))
        z1 = rng.standard_normal((b, d))
        z2 = rng.standard_normal((b, d))
        z1 /= np.linalg.norm(z1, axis=1, keepdims=True)
        z2 /= np.linalg.norm(z2, axis=1, keepdims=True)
        c = rng.standard_normal((k, d))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        prototypes = Tensor(c)
        fwd = float(swapped_loss(Tensor(z1), Tensor(z2), prototypes, None,
                                 cfg)[0].data[0, 0])
        rev = float(swapped_loss(Tensor(z2), Tensor(z1), prototypes, None,
                                 cfg)[0].data[0, 0])
        assert abs(fwd - rev) < 1e-12


def test_criterion_8_bit_exact_reproducibility(tmp_path, standard_corpus):
    # corpus file round-trip
    corpus_path = tmp_path / "corpus.mmp"
    save_corpus(standard_corpus, corpus_path)
    first_bytes = corpus_path.read_bytes()
    save_corpus(load_corpus(corpus_path), corpus_path)
    assert corpus_path.read_bytes() == first_bytes

    # identical seeds/config -> identical checkpoints; resume matches
    spec = CorpusSpec(n_samples=96, n_latent_clusters=4, latent_dim=8,
                      d1=12, d2=12, noise_sigma=0.05, seed=5)
    corpus = generate(spec)
    cfg = TrainConfig(
        epochs=3, batch_size=16, base_lr=0.2, momentum=0.9,
        prototype_freeze_iterations=-1,
        loss=LossConfig(temperature=0.2, sinkhorn=converged_config(0.05),
                        queue_length=32, queue_start_iteration=-1),
        k_prototypes=4,
        encoder=EncoderConfig(input_dims=(12, 12), hidden_dims=(16,),
                              embed_dim=8),
        seed=9)
    a_path, b_path = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt_a, metrics_a = train(corpus, cfg)
    ckpt_b, metrics_b = train(corpus, cfg)
    save_checkpoint(ckpt_a, a_path)
    save_checkpoint(ckpt_b, b_path)
    assert a_path.read_bytes() == b_path.read_bytes()
    assert [m.loss for m in metrics_a] == [m.loss for m in metrics_b]

    mid, _ = train(corpus, cfg, stop_after=8)
    resumed, resumed_metrics = train(corpus, cfg, resume_from=mid)
    r_path = tmp_path / "r.ckpt"
    save_checkpoint(resumed, r_path)
    assert r_path.read_bytes() == a_path.read_bytes()
    assert ([m.loss for m in resumed_metrics]
            == [m.loss for m in metrics_a[8:]])

    # ... and so does a resume through a checkpoint file
    mid_path = tmp_path / "mid.ckpt"
    save_checkpoint(mid, mid_path)
    resumed, _ = train(corpus, cfg, resume_from=load_checkpoint(mid_path))
    save_checkpoint(resumed, r_path)
    assert r_path.read_bytes() == a_path.read_bytes()

    # checkpoint file round-trip is bit-exact
    reloaded_path = tmp_path / "reload.ckpt"
    save_checkpoint(load_checkpoint(a_path), reloaded_path)
    assert reloaded_path.read_bytes() == a_path.read_bytes()
