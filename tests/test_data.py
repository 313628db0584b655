import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmproto.data import (CorpusSpec, PairedCorpus, SplitMix64, batches,
                          generate, load_corpus, n_batches, permutation,
                          save_corpus)
from mmproto.errors import FormatError, UsageError


def small_spec(**kw):
    defaults = dict(n_samples=200, n_latent_clusters=4, latent_dim=8,
                    d1=12, d2=10, noise_sigma=0.05, seed=7)
    defaults.update(kw)
    return CorpusSpec(**defaults)


def reference_stream(seed):
    """Scalar splitmix64 (Steele, Lea & Flood, OOPSLA 2014), one output a
    step, on Python ints."""
    mask, state = (1 << 64) - 1, seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


class TestRandomStream:
    """Every corpus, batch order and reference number rests on this stream."""

    def test_splitmix64_reference_outputs(self):
        rng = SplitMix64(0)
        assert rng.words(3).tolist() == [
            0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        assert SplitMix64(2**64 - 1).words(3).tolist() == [
            0xe4d971771b652c20, 0xe99ff867dbf682c9, 0x382ff84cb27281e9]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 40),
           m=st.integers(0, 40))
    @example(seed=2**64 - 1, n=3, m=40)
    def test_words_continue_the_scalar_stream(self, seed, n, m):
        rng, ref = SplitMix64(seed), reference_stream(seed)
        drawn = rng.words(n).tolist() + rng.words(m).tolist()
        assert drawn == [next(ref) for _ in range(n + m)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 60))
    @example(seed=2**64 - 1, n=60)
    def test_permutation_is_scalar_fisher_yates(self, seed, n):
        order, ref = list(range(n)), reference_stream(seed)
        for i in range(n - 1, 0, -1):
            j = next(ref) % (i + 1)
            order[i], order[j] = order[j], order[i]
        assert permutation(n, seed).tolist() == order

    def test_draws_pinned(self):
        assert SplitMix64(123).split(4).integers(6, 8).tolist() == [
            7, 4, 0, 6, 0, 6]
        assert SplitMix64(9).uniform(2).tolist() == [
            0.6823627349789958, 0.7506948929582787]

    def test_permutation_pinned(self):
        assert permutation(10, 7).tolist() == [8, 1, 5, 9, 0, 4, 3, 2, 6, 7]
        assert permutation(0, 0).tolist() == []
        assert permutation(1, 5).tolist() == [0]
        assert [permutation(2, s).tolist() for s in range(4)] == [
            [0, 1], [0, 1], [1, 0], [0, 1]]
        assert hashlib.sha256(permutation(2000, 99).tobytes()).hexdigest() == (
            "db42cd1bc4f036dcdd915fb22ff35d0c2c3b0edcc2ed8392aa580c127a2c262b")


class TestSpecValidation:
    def test_too_few_clusters(self):
        with pytest.raises(UsageError):
            small_spec(n_latent_clusters=1)

    def test_negative_sigma(self):
        with pytest.raises(UsageError):
            small_spec(noise_sigma=-0.1)

    def test_zero_dim(self):
        with pytest.raises(UsageError):
            small_spec(latent_dim=0)


class TestGenerate:
    def test_deterministic(self):
        a = generate(small_spec())
        b = generate(small_spec())
        assert (a.modality1 == b.modality1).all()
        assert (a.modality2 == b.modality2).all()
        assert (a.labels == b.labels).all()

    def test_different_seed_differs(self):
        a = generate(small_spec())
        b = generate(small_spec(seed=8))
        assert not (a.modality1 == b.modality1).all()

    def test_zero_noise_cluster_members_identical(self):
        corpus = generate(small_spec(noise_sigma=0.0))
        for cluster in range(4):
            rows = corpus.modality1[corpus.labels == cluster]
            assert len(rows) > 0
            assert np.abs(rows - rows[0]).max() == 0.0

    def test_cluster_counts_near_uniform(self):
        corpus = generate(small_spec(n_samples=1000, n_latent_clusters=8))
        counts = np.bincount(corpus.labels, minlength=8)
        # binomial(1000, 1/8): mean 125, sigma = sqrt(1000*(1/8)*(7/8)) ~ 10.5
        sigma = np.sqrt(1000 * (1 / 8) * (7 / 8))
        assert np.abs(counts - 125).max() < 4 * sigma

    def test_shapes(self):
        corpus = generate(small_spec())
        assert corpus.modality1.shape == (200, 12)
        assert corpus.modality2.shape == (200, 10)
        assert corpus.labels.shape == (200,)

    def test_raw_modality_knn_separable(self):
        """Low-noise corpora must be learnable before training claims."""
        corpus = generate(small_spec(n_samples=600, n_latent_clusters=8,
                                     latent_dim=16, d1=32, d2=32))
        x, labels = corpus.modality1, corpus.labels
        train, test = np.arange(480), np.arange(480, 600)
        dists = ((x[test][:, None, :] - x[train][None, :, :]) ** 2).sum(-1)
        nearest = dists.argsort(axis=1)[:, :5]
        pred = np.array([np.bincount(labels[train[row]]).argmax()
                         for row in nearest])
        assert (pred == labels[test]).mean() >= 0.99


class TestBatches:
    def test_short_final_batch_dropped(self):
        corpus = generate(small_spec(n_samples=10))
        out = batches(corpus, 3, epoch_seed=1)
        assert [len(b.sample_indices) for b in out] == [3, 3, 3]
        assert n_batches(10, 3) == 3

    def test_two_sample_final_batch_kept(self):
        corpus = generate(small_spec(n_samples=11))
        out = batches(corpus, 3, epoch_seed=1)
        assert [len(b.sample_indices) for b in out] == [3, 3, 3, 2]

    def test_epoch_seed_determinism(self):
        corpus = generate(small_spec())
        a = batches(corpus, 32, epoch_seed=5)
        b = batches(corpus, 32, epoch_seed=5)
        c = batches(corpus, 32, epoch_seed=6)
        assert all((x.sample_indices == y.sample_indices).all()
                   for x, y in zip(a, b))
        assert any((x.sample_indices != y.sample_indices).any()
                   for x, y in zip(a, c))

    def test_partition_of_retained_indices(self):
        corpus = generate(small_spec(n_samples=99))
        out = batches(corpus, 7, epoch_seed=2)
        seen = np.concatenate([b.sample_indices for b in out])
        assert len(seen) == len(set(seen.tolist()))
        assert len(seen) == 98  # 14 batches of 7, trailing 1 dropped

    def test_batch_sizes_match_n_batches(self):
        for n in range(40):
            corpus = PairedCorpus(np.zeros((n, 1)), np.zeros((n, 1)), None)
            for size in range(1, 12):
                full, rem = divmod(n, size)
                want = [size] * full + ([rem] if rem >= 2 else [])
                got = [len(b.sample_indices)
                       for b in batches(corpus, size, epoch_seed=0)]
                assert got == want and n_batches(n, size) == len(want)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(UsageError,
                           match="batch_size must be >= 1, got 0"):
            batches(generate(small_spec()), 0, 0)

    def test_modalities_stay_aligned(self):
        corpus = generate(small_spec())
        for batch in batches(corpus, 16, epoch_seed=3):
            assert (batch.x1 == corpus.modality1[batch.sample_indices]).all()
            assert (batch.x2 == corpus.modality2[batch.sample_indices]).all()


class TestCorpusFile:
    def test_round_trip_bit_exact(self, tmp_path):
        corpus = generate(small_spec())
        path = tmp_path / "c.mmp"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert (loaded.modality1 == corpus.modality1).all()
        assert (loaded.modality2 == corpus.modality2).all()
        assert (loaded.labels == corpus.labels).all()

    def test_round_trip_without_labels(self, tmp_path):
        corpus = generate(small_spec())
        unlabeled = PairedCorpus(corpus.modality1, corpus.modality2, None)
        path = tmp_path / "c.mmp"
        save_corpus(unlabeled, path)
        assert load_corpus(path).labels is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.mmp"
        save_corpus(generate(small_spec()), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_corpus(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "c.mmp"
        save_corpus(generate(small_spec()), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_corpus(path)

    def test_label_is_any_u4(self, tmp_path):
        """A label is a class id: one of 2**31 and up in a corpus of 10
        samples reads back as it is."""
        path = tmp_path / "c.mmp"
        corpus = generate(small_spec(n_samples=10))
        save_corpus(corpus, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) - 4 * 7 + 3] |= 0x80  # label of sample 3
        path.write_bytes(bytes(blob))
        labels = corpus.labels.copy()
        labels[3] += 2**31
        np.testing.assert_array_equal(load_corpus(path).labels, labels)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "c.mmp"
        save_corpus(generate(small_spec()), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_corpus(path)

    def test_label_flag_must_be_0_or_1(self, tmp_path):
        path = tmp_path / "c.mmp"
        save_corpus(generate(small_spec()), path)
        blob = bytearray(path.read_bytes())
        blob[20] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError,
                           match="^bad corpus label flag 2 at offset 20$"):
            load_corpus(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "c.mmp"
        save_corpus(generate(small_spec(d1=32, d2=32)), path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError,
                           match="^8 trailing bytes at offset 103224 of the corpus$"):
            load_corpus(path)

    @pytest.mark.parametrize("offset", [21, 22, 23])
    def test_padding_must_be_zero(self, tmp_path, offset):
        path = tmp_path / "c.mmp"
        save_corpus(generate(small_spec()), path)
        blob = bytearray(path.read_bytes())
        blob[offset] = 0xff
        path.write_bytes(bytes(blob))
        with pytest.raises(
                FormatError,
                match=f"^nonzero corpus padding byte at offset {offset}$"):
            load_corpus(path)
