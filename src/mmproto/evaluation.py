"""Probes for representation quality on labeled synthetic corpora.

Linear probe: multinomial logistic regression on frozen embeddings.
kNN probe: cosine-similarity majority vote. Cluster agreement: hard
prototype assignment scored against the true labels with NMI
(arithmetic-mean normalization) and purity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedCorpus, check_seed, permutation
from .errors import NumericalError, UsageError
from .model import embed, prototype_scores
from .numerics import Tensor, affine, as_matrix, backward, cross_entropy
from .trainer import Checkpoint, model_from_checkpoint

PROBE_STEPS = 500
PROBE_LR = 0.1
#: the share of the samples that the linear and kNN probes hold out
TEST_FRACTION = 0.2


@dataclass
class ProbeReport:
    kind: str
    accuracy: float
    per_class_accuracy: dict
    n_train: int
    n_test: int

    def to_dict(self) -> dict:
        return {"probe": self.kind, "accuracy": self.accuracy,
                "n_train": self.n_train, "n_test": self.n_test,
                "per_class": {str(k): v
                              for k, v in self.per_class_accuracy.items()}}


@dataclass
class ClusterReport:
    nmi: float
    purity: float
    cluster_sizes: np.ndarray

    def to_dict(self) -> dict:
        return {"probe": "cluster", "nmi": self.nmi, "purity": self.purity,
                "cluster_sizes": self.cluster_sizes.tolist()}


def _embeddings(ckpt: Checkpoint, corpus: PairedCorpus, modality: str):
    """Frozen encoder-output embeddings; no parameter is ever updated here."""
    if corpus.labels is None:
        raise UsageError("corpus has no labels")
    views = {"m1": (0,), "m2": (1,), "both": (0, 1)}.get(modality)
    if views is None:
        raise UsageError(f"unknown modality {modality!r}")
    inputs = (corpus.modality1, corpus.modality2)
    for m in views:
        bad = np.flatnonzero(~np.isfinite(inputs[m]).all(axis=1))
        if bad.size:
            raise NumericalError(f"{bad.size} modality {m + 1} row(s) hold "
                                 f"NaN or Inf, the first is row {bad[0]}")
    params = model_from_checkpoint(ckpt)
    z = np.hstack([embed(params, inputs[m], m).data for m in views])
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        raise NumericalError(f"{bad.size} row(s) overflow the encoder to NaN "
                             f"or Inf, the first is row {bad[0]}")
    return z, params["prototypes"].data


def _test_size(n_samples: int, fraction: float) -> int:
    """How many of `n_samples` a probe scores at `fraction` of them; none is
    a `UsageError`."""
    n_test = int(round(n_samples * fraction))
    if n_test == 0:
        raise UsageError(f"a corpus of {n_samples} sample(s) leaves no test "
                         f"sample")
    return n_test


def _probe(kind: str, ckpt: Checkpoint, corpus: PairedCorpus,
           split_seed: int, modality: str, predict) -> ProbeReport:
    """Score `predict(train_z, train_labels, test_z)`, the predicted test
    labels, on a seeded hold-out of `TEST_FRACTION` of the samples."""
    check_seed("split_seed", split_seed)
    n_test = _test_size(corpus.n_samples, TEST_FRACTION)
    z, _ = _embeddings(ckpt, corpus, modality)
    order = permutation(corpus.n_samples, split_seed)
    train, test = order[n_test:], order[:n_test]
    pred = predict(z[train], corpus.labels[train], z[test])
    truth = corpus.labels[test]
    per_class = {int(cls): float((pred[truth == cls] == cls).mean())
                 for cls in np.unique(truth)}
    return ProbeReport(kind, float((pred == truth).mean()), per_class,
                       len(train), len(test))


def train_linear_classifier(features: np.ndarray, labels: np.ndarray,
                            n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch softmax regression trained with the gradient tape."""
    n, d = features.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0

    w, b = Tensor(np.zeros((d, n_classes))), Tensor(np.zeros((1, n_classes)))
    x = as_matrix(features)
    for _ in range(PROBE_STEPS):
        grads = backward(cross_entropy(affine(x, w, b), onehot),
                         {"w": w, "b": b})
        w.data -= PROBE_LR * grads["w"]
        b.data -= PROBE_LR * grads["b"]
    return w.data, b.data


def linear_probe(ckpt: Checkpoint, corpus: PairedCorpus, split_seed: int,
                 modality: str = "m1") -> ProbeReport:
    def predict(train_z, train_labels, test_z):
        w, b = train_linear_classifier(train_z, train_labels,
                                       int(corpus.labels.max()) + 1)
        return (test_z @ w + b).argmax(axis=1)
    return _probe("linear", ckpt, corpus, split_seed, modality, predict)


def check_neighbors(k_neighbors: int) -> None:
    """The kNN probe's neighbor count must be positive."""
    if k_neighbors < 1:
        raise UsageError(f"k_neighbors must be >= 1, got {k_neighbors}")


def knn_probe(ckpt: Checkpoint, corpus: PairedCorpus, k_neighbors: int,
              split_seed: int, modality: str = "m1") -> ProbeReport:
    check_neighbors(k_neighbors)

    def predict(train_z, train_labels, test_z):
        if k_neighbors > len(train_z):
            raise UsageError(
                f"k_neighbors {k_neighbors} exceeds train size {len(train_z)}")
        pred = np.empty(len(test_z), dtype=np.int64)
        for i, row in enumerate(test_z @ train_z.T):  # unit rows: cosine
            nearest = np.argsort(-row, kind="stable")[:k_neighbors]
            votes = np.bincount(train_labels[nearest])
            winners = np.flatnonzero(votes == votes.max())
            pred[i] = (winners[0] if len(winners) == 1
                       else train_labels[nearest[0]])  # tie: single nearest
        return pred
    return _probe("knn", ckpt, corpus, split_seed, modality, predict)


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts of each (value of a, value of b) pair, over the values seen."""
    a_vals, a_inv = np.unique(a, return_inverse=True)
    b_vals, b_inv = np.unique(b, return_inverse=True)
    shape = (len(a_vals), len(b_vals))
    cells = np.bincount(a_inv * shape[1] + b_inv, minlength=shape[0] * shape[1])
    return cells.reshape(shape).astype(np.float64)


def normalized_mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """NMI with arithmetic-mean normalization, natural log."""
    joint = _contingency(a, b) / len(a)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    i, j = np.nonzero(joint)
    cell = joint[i, j]
    mi = float((cell * np.log(cell / (pa[i] * pb[j]))).sum())
    ha = float(-(pa * np.log(pa)).sum())  # every value occurs: pa > 0
    hb = float(-(pb * np.log(pb)).sum())
    denom = 0.5 * (ha + hb)
    if denom == 0.0:
        return 1.0 if mi == 0.0 and joint.shape == (1, 1) else 0.0
    return float(max(0.0, min(1.0, mi / denom)))


def purity_score(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(_contingency(pred, truth).max(axis=1).sum()) / len(truth)


def cluster_agreement(ckpt: Checkpoint, corpus: PairedCorpus,
                      modality: str = "m1") -> ClusterReport:
    if modality not in ("m1", "m2"):
        raise UsageError(
            f"the cluster probe takes modality m1 or m2, got {modality!r}")
    _test_size(corpus.n_samples, 1.0)  # it scores every sample
    z, prototypes = _embeddings(ckpt, corpus, modality)
    scores = prototype_scores(z, prototypes)  # K x n
    assignments = scores.argmax(axis=0)
    sizes = np.bincount(assignments, minlength=prototypes.shape[0])
    return ClusterReport(
        nmi=normalized_mutual_information(assignments, corpus.labels),
        purity=purity_score(assignments, corpus.labels),
        cluster_sizes=sizes)
