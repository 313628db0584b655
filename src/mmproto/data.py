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

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericalError, UsageError
from .numerics import unit_rows

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
_GAMMA = 0x9E3779B97F4A7C15  # the stream's Weyl-sequence increment


def check_seed(name: str, seed: int) -> None:
    """A splitmix64 seed is a 64-bit word; a larger one would be masked to
    the stream of a smaller seed."""
    if seed < 0:
        raise UsageError(f"{name} must be >= 0, got {seed}")
    if seed > _MASK:
        raise UsageError(f"{name} must be < 2**64, got {seed}")


class SplitMix64:
    """Minimal 64-bit splittable generator (splitmix64 reference constants)
    whose draws are uint64 arrays, wrapping modulo 2**64."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def words(self, n: int) -> np.ndarray:
        """The next n outputs: mixes of state + k * gamma for k = 1..n."""
        z = np.uint64(self.state) + np.uint64(_GAMMA) * np.arange(
            1, n + 1, dtype=np.uint64)
        self.state = (self.state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def split(self, stream: int) -> "SplitMix64":
        child = SplitMix64(self.state ^ stream * 0xD1342543DE82EF95)
        child.words(1)
        return child

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) from the top 53 bits of each draw."""
        return (self.words(n) >> np.uint64(11)) * (1.0 / (1 << 53))

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
        return (self.words(n) % np.uint64(high)).astype(np.int64)


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
        check_seed("seed", self.seed)


@dataclass
class PairedCorpus:
    modality1: np.ndarray  # n x d1
    modality2: np.ndarray  # n x d2
    labels: np.ndarray | None  # n class ids (any <u4), eval only

    @property
    def n_samples(self) -> int:
        return self.modality1.shape[0]


@dataclass
class ModalityBatch:
    x1: np.ndarray
    x2: np.ndarray
    sample_indices: np.ndarray


def generate(spec: CorpusSpec) -> PairedCorpus:
    """Draw a paired corpus; deterministic per seed. A noise_sigma whose
    noise overflows the corpus to NaN or Inf is a `NumericalError`."""
    root = SplitMix64(spec.seed)
    rng_centers = root.split(1)
    rng_assign = root.split(2)
    rng_latent = root.split(3)
    rng_maps = root.split(4)
    rng_noise = root.split(5)

    centers, _ = unit_rows(rng_centers.gaussian(
        spec.n_latent_clusters * spec.latent_dim).reshape(
            spec.n_latent_clusters, spec.latent_dim))

    labels = rng_assign.integers(spec.n_samples, spec.n_latent_clusters)
    map1 = rng_maps.gaussian(spec.latent_dim * spec.d1).reshape(
        spec.latent_dim, spec.d1) / np.sqrt(spec.latent_dim)
    map2 = rng_maps.gaussian(spec.latent_dim * spec.d2).reshape(
        spec.latent_dim, spec.d2) / np.sqrt(spec.latent_dim)

    sigma_m = MODALITY_NOISE_SCALE * spec.noise_sigma
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        latent = centers[labels] + spec.noise_sigma * rng_latent.gaussian(
            spec.n_samples * spec.latent_dim).reshape(-1, spec.latent_dim)
        x1 = latent @ map1 + sigma_m * rng_noise.gaussian(
            spec.n_samples * spec.d1).reshape(-1, spec.d1)
        x2 = latent @ map2 + sigma_m * rng_noise.gaussian(
            spec.n_samples * spec.d2).reshape(-1, spec.d2)
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise NumericalError(f"noise_sigma (--sigma) {spec.noise_sigma} "
                             "overflows the corpus to NaN or Inf")
    return PairedCorpus(x1, x2, labels)


def permutation(n: int, seed: int) -> np.ndarray:
    """Seeded order of range(n): Fisher-Yates with splitmix draws."""
    order = list(range(n))
    draws = SplitMix64(seed).words(max(n - 1, 0))
    js = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
    for i, j in zip(range(n - 1, 0, -1), js):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=int)


def batches(corpus: PairedCorpus, batch_size: int, epoch_seed: int):
    """Seeded shuffle into the `n_batches` aligned batches of an epoch."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    order = permutation(corpus.n_samples, epoch_seed)
    out = []
    for i in range(n_batches(corpus.n_samples, batch_size)):
        idx = order[i * batch_size:(i + 1) * batch_size]
        out.append(ModalityBatch(corpus.modality1[idx], corpus.modality2[idx],
                                 idx.copy()))
    return out


def n_batches(n_samples: int, batch_size: int) -> int:
    """Batches per epoch: a trailing batch of 1 is dropped (Sinkhorn
    degeneracy guard)."""
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


class Reader:
    """Bounds-checked reads of a container file in field order. A bad magic
    or version, a read past the end and an unread trailing byte are each a
    `FormatError` naming the container kind, the field and the offset."""

    def __init__(self, path, kind: str, magic: bytes, version: int):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.kind, self.offset = kind, 0
        got = self.bytes(len(magic), "magic")
        if got != magic:
            raise FormatError(f"bad {kind} magic at offset 0: {got!r}")
        self.version = self.u32("version")
        if self.version != version:
            raise FormatError(
                f"unsupported {kind} version {self.version} at offset 4")

    def _claim(self, n: int, field: str) -> int:
        """The offset of the next n bytes, which `field` takes."""
        at = self.offset
        if at + n > len(self.blob):
            raise FormatError(
                f"truncated {self.kind}: {field} needs {n} bytes at offset "
                f"{at}, file is {len(self.blob)} bytes")
        self.offset = at + n
        return at

    def expect(self, n: int, field: str):
        """Check that `field` can take the next n bytes, reading none."""
        self.offset = self._claim(n, field)

    def bytes(self, n: int, field: str) -> bytes:
        at = self._claim(n, field)
        return self.blob[at:at + n]

    def u32(self, field: str) -> int:
        return int.from_bytes(self.bytes(4, field), "little")

    def array(self, dtype: str, shape: tuple, field: str) -> np.ndarray:
        """A writable `shape` array of a little-endian `<f8` or `<u4`."""
        count = math.prod(shape)
        at = self._claim(np.dtype(dtype).itemsize * count, field)
        return np.frombuffer(self.blob, dtype, count, at).reshape(
            shape).copy()

    def end(self):
        """Reject any byte after the last field."""
        if self.offset != len(self.blob):
            raise FormatError(f"{len(self.blob) - self.offset} trailing "
                              f"bytes at offset {self.offset} of the "
                              f"{self.kind}")


def load_corpus(path) -> PairedCorpus:
    reader = Reader(path, "corpus", MAGIC, FORMAT_VERSION)
    n, d1, d2 = (reader.u32(field) for field in ("n", "d1", "d2"))
    has_labels = reader.bytes(1, "label flag")[0]
    if has_labels > 1:
        raise FormatError(f"bad corpus label flag {has_labels} at offset "
                          f"{reader.offset - 1}")
    padding = reader.bytes(3, "padding")
    if any(padding):
        at = reader.offset - 3 + next(i for i, v in enumerate(padding) if v)
        raise FormatError(f"nonzero corpus padding byte at offset {at}")
    m1 = reader.array("<f8", (n, d1), "modality 1")
    m2 = reader.array("<f8", (n, d2), "modality 2")
    labels = None
    if has_labels:
        labels = reader.array("<u4", (n,), "labels").astype(np.int64)
    reader.end()
    return PairedCorpus(m1, m2, labels)
