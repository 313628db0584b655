"""Probes for representation quality on labeled synthetic corpora.

Linear probe: multinomial logistic regression on frozen embeddings.
kNN probe: cosine-similarity majority vote. Cluster agreement: hard
prototype assignment scored against the true labels with NMI
(arithmetic-mean normalization) and purity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedCorpus, permutation
from .errors import NumericalError, UsageError
from .model import embed, prototype_scores
from .numerics import Tensor, affine, as_matrix, backward, cross_entropy
from .trainer import Checkpoint, model_from_checkpoint

PROBE_STEPS = 500
PROBE_LR = 0.1


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


def _split(n: int, split_seed: int, test_fraction: float = 0.2):
    order = permutation(n, split_seed)
    n_test = int(round(n * test_fraction))
    return order[n_test:], order[:n_test]


def _per_class(pred: np.ndarray, truth: np.ndarray) -> dict:
    out = {}
    for cls in np.unique(truth):
        mask = truth == cls
        out[int(cls)] = float((pred[mask] == cls).mean())
    return out


def train_linear_classifier(features: np.ndarray, labels: np.ndarray,
                            n_classes: int, steps: int = PROBE_STEPS,
                            lr: float = PROBE_LR) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch softmax regression trained with the gradient tape."""
    n, d = features.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0

    w, b = Tensor(np.zeros((d, n_classes))), Tensor(np.zeros((1, n_classes)))
    x = as_matrix(features)
    for _ in range(steps):
        grads = backward(cross_entropy(affine(x, w, b), onehot),
                         {"w": w, "b": b})
        w.data -= lr * grads["w"]
        b.data -= lr * grads["b"]
    return w.data, b.data


def linear_probe(ckpt: Checkpoint, corpus: PairedCorpus, split_seed: int,
                 modality: str = "m1") -> ProbeReport:
    if corpus.labels is None:
        raise UsageError("corpus has no labels")
    z, _ = _embeddings(ckpt, corpus, modality)
    labels = corpus.labels
    n_classes = int(labels.max()) + 1
    train_idx, test_idx = _split(corpus.n_samples, split_seed)

    w, b = train_linear_classifier(z[train_idx], labels[train_idx], n_classes)
    pred = (z[test_idx] @ w + b).argmax(axis=1)
    truth = labels[test_idx]
    return ProbeReport("linear", float((pred == truth).mean()),
                       _per_class(pred, truth), len(train_idx), len(test_idx))


def knn_probe(ckpt: Checkpoint, corpus: PairedCorpus, k_neighbors: int,
              split_seed: int, modality: str = "m1") -> ProbeReport:
    if corpus.labels is None:
        raise UsageError("corpus has no labels")
    if k_neighbors < 1:
        raise UsageError(f"k_neighbors must be >= 1, got {k_neighbors}")
    z, _ = _embeddings(ckpt, corpus, modality)
    labels = corpus.labels
    train_idx, test_idx = _split(corpus.n_samples, split_seed)
    if k_neighbors > len(train_idx):
        raise UsageError(
            f"k_neighbors {k_neighbors} exceeds train size {len(train_idx)}")

    sims = z[test_idx] @ z[train_idx].T  # rows unit-norm: dot = cosine
    pred = np.empty(len(test_idx), dtype=np.int64)
    for i, row in enumerate(sims):
        nearest = np.argsort(-row, kind="stable")[:k_neighbors]
        votes = np.bincount(labels[train_idx[nearest]])
        winners = np.flatnonzero(votes == votes.max())
        if len(winners) == 1:
            pred[i] = winners[0]
        else:
            pred[i] = labels[train_idx[nearest[0]]]  # tie: single nearest
    truth = labels[test_idx]
    return ProbeReport("knn", float((pred == truth).mean()),
                       _per_class(pred, truth), len(train_idx), len(test_idx))


def normalized_mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """NMI with arithmetic-mean normalization, natural log."""
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


def purity_score(pred: np.ndarray, truth: np.ndarray) -> float:
    total = 0
    for cluster in np.unique(pred):
        members = truth[pred == cluster]
        total += np.bincount(members).max()
    return float(total) / len(truth)


def cluster_agreement(ckpt: Checkpoint, corpus: PairedCorpus,
                      modality: str = "m1") -> ClusterReport:
    if corpus.labels is None:
        raise UsageError("corpus has no labels")
    if modality not in ("m1", "m2"):
        raise UsageError(
            f"the cluster probe takes modality m1 or m2, got {modality!r}")
    z, prototypes = _embeddings(ckpt, corpus, modality)
    scores = prototype_scores(z, prototypes)  # K x n
    assignments = scores.argmax(axis=0)
    sizes = np.bincount(assignments, minlength=prototypes.shape[0])
    return ClusterReport(
        nmi=normalized_mutual_information(assignments, corpus.labels),
        purity=purity_score(assignments, corpus.labels),
        cluster_sizes=sizes)
