import numpy as np
import pytest

from mmproto.data import CorpusSpec, FormatError, generate
from mmproto.model import EncoderConfig
from mmproto.objective import LossConfig
from mmproto.sinkhorn import SinkhornConfig
from mmproto.trainer import (CHECKPOINT_VERSION, Checkpoint, NumericalAbort,
                             TrainConfig, VersionError, config_from_text,
                             config_to_text, cosine_lr, epoch_shuffle_seed,
                             load_checkpoint, model_from_checkpoint,
                             random_init_checkpoint, save_checkpoint, train)


def tiny_corpus(seed=5, n=48):
    return generate(CorpusSpec(n_samples=n, n_latent_clusters=3, latent_dim=4,
                               d1=6, d2=7, noise_sigma=0.05, seed=seed))


def tiny_config(**kw):
    defaults = dict(
        epochs=2, batch_size=8, base_lr=0.1, momentum=0.9,
        prototype_freeze_iterations=3,
        loss=LossConfig(temperature=0.1,
                        sinkhorn=SinkhornConfig(epsilon=0.05, n_iterations=3),
                        queue_length=16, queue_start_iteration=6),
        k_prototypes=4,
        encoder=EncoderConfig(input_dims=(6, 7), hidden_dims=(8,),
                              embed_dim=5),
        seed=11)
    defaults.update(kw)
    return TrainConfig(**defaults)


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    if a.config != b.config or a.iteration != b.iteration:
        return False
    if set(a.params) != set(b.params):
        return False
    for name in a.params:
        if not (a.params[name] == b.params[name]).all():
            return False
    for name in a.momentum_buffers:
        if not (a.momentum_buffers[name] == b.momentum_buffers[name]).all():
            return False
    return ((a.queue_m1 == b.queue_m1).all()
            and (a.queue_m2 == b.queue_m2).all()
            and a.queue_fill == b.queue_fill
            and a.queue_cursor == b.queue_cursor)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=0)
        with pytest.raises(ValueError):
            tiny_config(base_lr=-0.1)
        with pytest.raises(ValueError):
            tiny_config(momentum=1.0)

    def test_config_text_round_trip(self):
        cfg = tiny_config()
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_config_text_sorted_lines(self):
        lines = [l.split("=")[0] for l in
                 config_to_text(tiny_config()).splitlines()]
        assert lines == sorted(lines)

    def test_config_text_partial_uses_defaults(self):
        cfg = config_from_text("epochs=7\n")
        assert cfg.epochs == 7
        assert cfg.batch_size == TrainConfig().batch_size


class TestCosineLr:
    def test_endpoints_exact(self):
        assert cosine_lr(0, 100, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert cosine_lr(99, 100, 0.5) == pytest.approx(0.0005, abs=1e-15)

    def test_midpoint(self):
        base = 0.5
        mid = cosine_lr(50, 101, base)
        assert mid == pytest.approx((base + base / 1000) / 2, rel=1e-12)

    def test_monotone_decreasing(self):
        values = [cosine_lr(t, 60, 0.3) for t in range(60)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_step_run(self):
        assert cosine_lr(0, 1, 0.2) == 0.2


class TestTrain:
    def test_zero_lr_leaves_parameters_unchanged(self):
        corpus = tiny_corpus()
        cfg = tiny_config(base_lr=0.0)
        before = random_init_checkpoint(cfg)
        after, _ = train(corpus, cfg)
        for name in before.params:
            np.testing.assert_array_equal(after.params[name],
                                          before.params[name], err_msg=name)

    def test_deterministic(self):
        corpus = tiny_corpus()
        a, ma = train(corpus, tiny_config())
        b, mb = train(corpus, tiny_config())
        assert checkpoints_equal(a, b)
        assert [m.loss for m in ma] == [m.loss for m in mb]

    def test_metrics_shape(self):
        corpus = tiny_corpus()  # 48 samples, batch 8 -> 6 steps/epoch
        ckpt, metrics = train(corpus, tiny_config())
        assert len(metrics) == 12
        assert [m.iteration for m in metrics] == list(range(12))
        assert metrics[0].epoch == 0 and metrics[-1].epoch == 1
        assert ckpt.iteration == 12

    def test_metrics_sink_called_per_step(self):
        seen = []
        train(tiny_corpus(), tiny_config(), metrics_sink=seen.append)
        assert len(seen) == 12

    def test_prototypes_frozen_window(self):
        corpus = tiny_corpus()
        cfg = tiny_config(epochs=1, prototype_freeze_iterations=100)
        before = random_init_checkpoint(cfg)
        after, _ = train(corpus, cfg)
        np.testing.assert_array_equal(after.params["prototypes"],
                                      before.params["prototypes"])
        assert not (after.params["adapter1.w"]
                    == before.params["adapter1.w"]).all()

    def test_prototypes_move_after_freeze(self):
        corpus = tiny_corpus()
        before = random_init_checkpoint(tiny_config())
        after, _ = train(corpus, tiny_config())
        assert not (after.params["prototypes"]
                    == before.params["prototypes"]).all()
        norms = np.linalg.norm(after.params["prototypes"], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_resume_matches_uninterrupted(self):
        corpus = tiny_corpus()
        cfg = tiny_config()
        full, full_metrics = train(corpus, cfg)

        mid, mid_metrics = train(corpus, cfg, stop_after=7)
        assert mid.iteration == 7
        resumed, resumed_metrics = train(corpus, cfg, resume_from=mid)
        assert checkpoints_equal(full, resumed)
        assert ([m.loss for m in mid_metrics + resumed_metrics]
                == [m.loss for m in full_metrics])
        assert ([m.lr for m in mid_metrics + resumed_metrics]
                == [m.lr for m in full_metrics])

    def test_resume_config_mismatch(self):
        corpus = tiny_corpus()
        ckpt, _ = train(corpus, tiny_config())
        with pytest.raises(ValueError):
            train(corpus, tiny_config(seed=99), resume_from=ckpt)

    def test_nan_abort_diagnostics(self):
        corpus = tiny_corpus()
        cfg = tiny_config()
        ckpt = random_init_checkpoint(cfg)
        ckpt.params["adapter1.w"][...] = np.nan
        with pytest.raises(NumericalAbort) as err:
            train(corpus, cfg, resume_from=ckpt)
        assert err.value.iteration == 0
        assert len(err.value.batch_indices) == 8

    def test_empty_corpus_rejected(self):
        from mmproto.data import PairedCorpus
        empty = PairedCorpus(np.zeros((0, 6)), np.zeros((0, 7)),
                             np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            train(empty, tiny_config())


class TestCheckpointFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ckpt, _ = train(tiny_corpus(), tiny_config())
        path = tmp_path / "run.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert checkpoints_equal(ckpt, loaded)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        ckpt, _ = train(tiny_corpus(), tiny_config())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_from_file(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_config()
        full, _ = train(corpus, cfg)
        mid, _ = train(corpus, cfg, stop_after=5)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(mid, path)
        resumed, _ = train(corpus, cfg, resume_from=load_checkpoint(path))
        assert checkpoints_equal(full, resumed)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        ckpt = random_init_checkpoint(tiny_config())
        path = tmp_path / "x.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[4] = CHECKPOINT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_truncated_anywhere(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        blob = path.read_bytes()
        # every offset through the header, config text and first tensor
        # header, then every 7th byte (all residues mod 4 and 8)
        prefix = 12 + int.from_bytes(blob[8:12], "little") + 64
        for cut in [*range(prefix), *range(prefix, len(blob), 7)]:
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError,
                               match=r"^truncated checkpoint: .* offset \d+"):
                load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_random_init_checkpoint_probe_ready(self):
        ckpt = random_init_checkpoint(tiny_config())
        encoder, bank, queue = model_from_checkpoint(ckpt)
        assert bank.n_prototypes == 4
        assert queue.fill == 0
        assert ckpt.iteration == 0


class TestEpochShuffleSeed:
    def test_distinct_across_epochs(self):
        seeds = [epoch_shuffle_seed(3, e) for e in range(50)]
        assert len(set(seeds)) == 50

    def test_deterministic(self):
        assert epoch_shuffle_seed(7, 9) == epoch_shuffle_seed(7, 9)
