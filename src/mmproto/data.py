"""Synthetic paired-modality corpora and their binary container format.

A corpus is built from a latent cluster model: unit-norm cluster centers in
latent space, per-sample gaussian jitter, then two fixed random linear maps
project each latent point into the two modality spaces. Both modality rows
of a sample derive from the same latent draw, so the modalities share all
cluster information by construction.

All randomness comes from a splitmix64 stream with Box-Muller gaussians,
so corpora are reproducible bit-for-bit from the seed alone.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UsageError

MAGIC = b"MMP1"
FORMAT_VERSION = 1

#: Observation noise per modality is this multiple of noise_sigma. The
#: latent jitter (sigma itself) is shared by both views and so can never
#: be removed; the per-modality part is independent across views, which is
#: exactly what cross-modal training can learn to discard. Scaling it up
#: makes frozen random features measurably worse than trained ones while a
#: raw-feature kNN stays near-perfect, provided the modality dims oversample
#: the latent space (d1, d2 >= 2 * latent_dim, as in the default corpora).
MODALITY_NOISE_SCALE = 5.0

_MASK = (1 << 64) - 1


class SplitMix64:
    """Minimal 64-bit splittable generator (splitmix64 reference constants)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self, stream: int) -> "SplitMix64":
        child = SplitMix64(self.state)
        child.state = (child.state ^ (stream * 0xD1342543DE82EF95)) & _MASK
        child.next_u64()
        return child

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) from the top 53 bits of each draw."""
        out = np.empty(n)
        for i in range(n):
            out[i] = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return out

    def gaussian(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        m = (n + 1) // 2
        u1 = np.maximum(self.uniform(m), 1e-300)  # avoid log(0)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                              r * np.sin(2.0 * np.pi * u2)])
        return out[:n]

    def integers(self, n: int, high: int) -> np.ndarray:
        """n integers uniform in [0, high) by rejection-free modulo of 64 bits.

        Bias is below 2**-50 for high < 2**13, which covers cluster counts.
        """
        return np.array([self.next_u64() % high for _ in range(n)],
                        dtype=np.int64)


@dataclass(frozen=True)
class CorpusSpec:
    n_samples: int
    n_latent_clusters: int
    latent_dim: int
    d1: int
    d2: int
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.n_latent_clusters < 2:
            raise UsageError(
                f"need >= 2 latent clusters, got {self.n_latent_clusters}")
        if min(self.n_samples, self.latent_dim, self.d1, self.d2) < 1:
            raise UsageError("counts and dims must be >= 1")
        if not 0 <= self.noise_sigma < np.inf:
            raise UsageError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass
class PairedCorpus:
    modality1: np.ndarray  # n x d1
    modality2: np.ndarray  # n x d2
    labels: np.ndarray | None  # n cluster indices, eval only

    @property
    def n_samples(self) -> int:
        return self.modality1.shape[0]


@dataclass
class ModalityBatch:
    x1: np.ndarray
    x2: np.ndarray
    sample_indices: np.ndarray


def generate(spec: CorpusSpec) -> PairedCorpus:
    """Draw a paired corpus; deterministic per seed."""
    root = SplitMix64(spec.seed)
    rng_centers = root.split(1)
    rng_assign = root.split(2)
    rng_latent = root.split(3)
    rng_maps = root.split(4)
    rng_noise = root.split(5)

    centers = rng_centers.gaussian(
        spec.n_latent_clusters * spec.latent_dim).reshape(
            spec.n_latent_clusters, spec.latent_dim)
    centers /= np.sqrt((centers * centers).sum(axis=1, keepdims=True))

    labels = rng_assign.integers(spec.n_samples, spec.n_latent_clusters)
    latent = centers[labels] + spec.noise_sigma * rng_latent.gaussian(
        spec.n_samples * spec.latent_dim).reshape(-1, spec.latent_dim)

    map1 = rng_maps.gaussian(spec.latent_dim * spec.d1).reshape(
        spec.latent_dim, spec.d1) / np.sqrt(spec.latent_dim)
    map2 = rng_maps.gaussian(spec.latent_dim * spec.d2).reshape(
        spec.latent_dim, spec.d2) / np.sqrt(spec.latent_dim)

    sigma_m = MODALITY_NOISE_SCALE * spec.noise_sigma
    x1 = latent @ map1 + sigma_m * rng_noise.gaussian(
        spec.n_samples * spec.d1).reshape(-1, spec.d1)
    x2 = latent @ map2 + sigma_m * rng_noise.gaussian(
        spec.n_samples * spec.d2).reshape(-1, spec.d2)
    return PairedCorpus(x1, x2, labels)


def permutation(n: int, seed: int) -> np.ndarray:
    """Seeded order of range(n): Fisher-Yates with splitmix draws."""
    order = np.arange(n)
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def batches(corpus: PairedCorpus, batch_size: int, epoch_seed: int):
    """Seeded shuffle into aligned batches; a trailing batch of 1 is dropped."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    n = corpus.n_samples
    order = permutation(n, epoch_seed)
    out = []
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if len(idx) < 2 and len(idx) < batch_size:
            break  # Sinkhorn degeneracy guard
        out.append(ModalityBatch(corpus.modality1[idx], corpus.modality2[idx],
                                 idx.copy()))
    return out


def n_batches(n_samples: int, batch_size: int) -> int:
    full, rem = divmod(n_samples, batch_size)
    return full + (1 if rem >= 2 else 0)


def save_corpus(corpus: PairedCorpus, path):
    n, d1 = corpus.modality1.shape
    d2 = corpus.modality2.shape[1]
    has_labels = corpus.labels is not None
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIIIB3x", FORMAT_VERSION, n, d1, d2,
                            int(has_labels)))
        f.write(np.ascontiguousarray(
            corpus.modality1, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(
            corpus.modality2, dtype="<f8").tobytes())
        if has_labels:
            f.write(np.ascontiguousarray(
                corpus.labels, dtype="<u4").tobytes())


def load_corpus(path) -> PairedCorpus:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic at offset 0: {blob[:4]!r}")
    if len(blob) < 21:
        raise FormatError(f"truncated header: file is {len(blob)} bytes")
    version, n, d1, d2, has_labels = struct.unpack_from("<IIIIB", blob, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    offset = 24
    expect = offset + 8 * n * (d1 + d2) + (4 * n if has_labels else 0)
    if len(blob) != expect:
        raise FormatError(
            f"truncated payload: expected {expect} bytes, got {len(blob)} "
            f"(offset {min(len(blob), expect)})")
    m1 = np.frombuffer(blob, dtype="<f8", count=n * d1,
                       offset=offset).reshape(n, d1).copy()
    offset += 8 * n * d1
    m2 = np.frombuffer(blob, dtype="<f8", count=n * d2,
                       offset=offset).reshape(n, d2).copy()
    offset += 8 * n * d2
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<u4", count=n,
                               offset=offset).astype(np.int64)
        bad = np.flatnonzero(labels >= n)
        if bad.size:
            raise FormatError(
                f"label {labels[bad[0]]} at offset {offset + 4 * bad[0]} "
                f"is not below the sample count {n}")
    return PairedCorpus(m1, m2, labels)
