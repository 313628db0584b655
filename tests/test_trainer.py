import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmproto
from mmproto.data import CorpusSpec, generate, save_corpus
from mmproto.errors import (FormatError, NumericalAbort, NumericalError,
                            UsageError)
from mmproto.model import EncoderConfig
from mmproto.objective import LossConfig
from mmproto.sinkhorn import SinkhornConfig, converged_config
from mmproto.trainer import (CHECKPOINT_VERSION, Checkpoint, TrainConfig,
                             config_from_text, config_to_text, cosine_lr,
                             epoch_shuffle_seed, load_checkpoint,
                             model_from_checkpoint, random_init_checkpoint,
                             save_checkpoint, train, _leaves, _tensors)


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
    """Equal configs and equal named arrays, exactly as the file holds them."""
    ta, tb = _tensors(a), _tensors(b)
    return (a.config == b.config
            and [name for name, _ in ta] == [name for name, _ in tb]
            and all(np.array_equal(x, y) for (_, x), (_, y) in zip(ta, tb)))


class TestConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            tiny_config(epochs=0)
        with pytest.raises(UsageError):
            tiny_config(base_lr=-0.1)
        with pytest.raises(UsageError):
            tiny_config(momentum=1.0)
        with pytest.raises(UsageError):
            tiny_config(batch_size=0)

    def test_config_text_round_trip(self):
        cfg = tiny_config()
        assert config_from_text(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("sinkhorn", [SinkhornConfig(),
                                          converged_config(0.05)],
                             ids=["sweeps", "converged"])
    def test_config_text_round_trip_each_sinkhorn_mode(self, sinkhorn):
        cfg = tiny_config(loss=dataclasses.replace(tiny_config().loss,
                                                   sinkhorn=sinkhorn))
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_config_text_sorted_lines(self):
        lines = [l.split("=")[0] for l in
                 config_to_text(tiny_config()).splitlines()]
        assert lines == sorted(lines)

    def test_config_text_partial_uses_defaults(self):
        cfg = config_from_text("epochs=7\n")
        assert cfg.epochs == 7
        assert cfg.batch_size == TrainConfig().batch_size

    def test_default_config_text(self):
        assert config_to_text(TrainConfig()) == (
            "base_lr=0.5\n"
            "batch_size=32\n"
            "encoder.embed_dim=128\n"
            "encoder.hidden_dims=64\n"
            "encoder.input_dims=32,32\n"
            "epochs=30\n"
            "k_prototypes=16\n"
            "loss.queue_length=256\n"
            "loss.queue_start_iteration=-1\n"
            "loss.sinkhorn.epsilon=0.05\n"
            "loss.sinkhorn.n_iterations=3\n"
            "loss.temperature=0.1\n"
            "momentum=0.9\n"
            "prototype_freeze_iterations=-1\n"
            "seed=0\n")

    def test_config_text_keys_are_field_paths(self):
        keys = [l.split("=")[0] for l in
                config_to_text(TrainConfig()).splitlines()]
        assert keys == sorted(key for key, _ in _leaves(TrainConfig()))

    def test_input_dims_round_trip(self):
        cfg = config_from_text("encoder.input_dims=6,7\n")
        assert cfg.encoder.input_dims == (6, 7)
        assert "encoder.input_dims=6,7\n" in config_to_text(cfg)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_unknown_keys_named(self):
        with pytest.raises(UsageError, match="unknown config key.*: "
                                             "bath_size, loss.temp$"):
            config_from_text("bath_size=64\nloss.temp=1\nepochs=3\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(UsageError,
                           match="^config line 3 repeats key epochs$"):
            config_from_text("epochs=1\n# again\n epochs = 3\n")

    @pytest.mark.parametrize("line", ["epochs=3.5", "base_lr=fast",
                                      "encoder.hidden_dims=8,x",
                                      "encoder.input_dims=",
                                      "loss.sinkhorn.epsilon=-"])
    def test_bad_value_names_key(self, line):
        key = line.split("=")[0]
        with pytest.raises(UsageError, match=f"^config key {key}: bad value"):
            config_from_text(line)


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

    @pytest.mark.parametrize("steps, capacity",
                             [(1, 16), (3, 16), (5, 13), (12, 13), (2, 0)])
    def test_every_step_pushes_its_batch(self, steps, capacity):
        """The trainer pushes both views of each 8-row batch into the
        queue, before and after the queue starts feeding the codes."""
        cfg = tiny_config()
        cfg = dataclasses.replace(cfg, loss=dataclasses.replace(
            cfg.loss, queue_length=capacity))
        ckpt, metrics = train(tiny_corpus(), cfg, stop_after=steps)
        assert ckpt.queue.fill == min(steps * 8, capacity)
        assert ([m.queue_fill for m in metrics]
                == [min(i * 8, capacity) for i in range(1, steps + 1)])

    def test_potentials_start_at_zero(self):
        """Fresh checkpoints and fixed-sweep runs carry zero potentials; a
        converged run holds its latest solves' from its first step on."""
        cfg = tiny_config()
        swept, _ = train(tiny_corpus(), cfg)
        for ckpt in (random_init_checkpoint(cfg), swept):
            for u in ckpt.potentials:
                np.testing.assert_array_equal(u, np.zeros(cfg.k_prototypes))
        converged = tiny_config(loss=dataclasses.replace(
            cfg.loss, sinkhorn=converged_config(0.05)))
        ckpt, _ = train(tiny_corpus(), converged, stop_after=2)  # epoch 0
        assert all(np.abs(u).max() > 0 for u in ckpt.potentials)

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

    def test_zero_prototype_row_recovers(self):
        """A prototype row zeroed with its momentum past the freeze window
        scores 0 against every embedding, which still gives it a gradient:
        one step puts it back at unit norm."""
        corpus = tiny_corpus()
        cfg = tiny_config()  # prototypes frozen for 3 steps
        mid, _ = train(corpus, cfg, stop_after=5)
        mid.params["prototypes"][0] = 0.0
        mid.momentum_buffers["prototypes"][0] = 0.0
        after, _ = train(corpus, cfg, resume_from=mid, stop_after=6)
        assert np.linalg.norm(after.params["prototypes"][0]) == (
            pytest.approx(1.0, abs=1e-12))

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
        with pytest.raises(UsageError):
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
        assert str(err.value).startswith(
            "scores contain NaN or Inf at iteration 0, batch indices [")

    @pytest.mark.parametrize("kw, stop_after", [
        (dict(epochs=1, batch_size=48), None), ({}, 1)],
        ids=["last-step-of-run", "stop-after"])
    def test_overflowing_last_update_aborts(self, kw, stop_after):
        """An update that overflows at the last step this call runs has no
        next step to catch it: the tensors returned are checked, and the
        abort names the first non-finite one."""
        cfg = tiny_config(base_lr=1e308, **kw)
        with pytest.raises(NumericalAbort) as err:
            train(tiny_corpus(), cfg, stop_after=stop_after)
        assert err.value.iteration == 0
        assert len(err.value.batch_indices) == cfg.batch_size
        assert re.match(r"tensor param\.\S+ holds NaN or Inf at iteration 0,"
                        r" batch indices \[", str(err.value))

    def test_empty_corpus_rejected(self):
        from mmproto.data import PairedCorpus
        empty = PairedCorpus(np.zeros((0, 6)), np.zeros((0, 7)),
                             np.zeros(0, dtype=np.int64))
        with pytest.raises(UsageError):
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
        """Also in converged mode, stopped before and after the queue feeds
        the codes: the potentials go through the file."""
        corpus = tiny_corpus()
        converged = tiny_config(loss=dataclasses.replace(
            tiny_config().loss, sinkhorn=converged_config(0.05)))
        for cfg, stop in [(tiny_config(), 5), (converged, 5),
                          (converged, 9)]:
            full, _ = train(corpus, cfg)
            mid, _ = train(corpus, cfg, stop_after=stop)
            path = tmp_path / "mid.ckpt"
            save_checkpoint(mid, path)
            resumed, _ = train(corpus, cfg, resume_from=load_checkpoint(path))
            assert checkpoints_equal(full, resumed)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        ckpt = random_init_checkpoint(tiny_config())
        path = tmp_path / "x.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[4] = CHECKPOINT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        """Version 1 files predate the potentials; they are not read."""
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError,
                           match="^unsupported checkpoint version 1 at "):
            load_checkpoint(path)

    def test_potentials_always_stored(self, tmp_path):
        """An untrained checkpoint holds both records too; a record that is
        not finite, or missing, is refused."""
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        blob = path.read_bytes()
        assert b"potentials.m1" in blob and b"potentials.m2" in blob
        cfg = tiny_config(loss=dataclasses.replace(
            tiny_config().loss, sinkhorn=converged_config(0.05)))
        ckpt, _ = train(tiny_corpus(), cfg, stop_after=9)
        save_checkpoint(ckpt, path)
        assert checkpoints_equal(load_checkpoint(path), ckpt)
        blob = path.read_bytes()
        record = blob.index(b"potentials.m2") - 4  # its name length
        at = record + 4 + 13 + 4 + 4  # name length, name, rank, K
        path.write_bytes(blob[:at] + np.float64(np.inf).tobytes()
                         + blob[at + 8:])
        with pytest.raises(FormatError, match="tensor potentials.m2 at "
                                              "offset .* holds NaN or Inf"):
            load_checkpoint(path)
        count_at = 16 + int.from_bytes(blob[8:12], "little") - 4
        count = int.from_bytes(blob[count_at:count_at + 4], "little")
        size = 4 + 13 + 4 + 4 + 8 * 4  # name length, name, rank, K, values
        path.write_bytes(blob[:count_at] + (count - 1).to_bytes(4, "little")
                         + blob[count_at + 4:record] + blob[record + size:])
        with pytest.raises(FormatError,
                           match=f"^tensor count {count - 1} at offset "
                                 f"{count_at} is not {count}$"):
            load_checkpoint(path)

    def assert_version_rejected(self, tmp_path, version):
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError,
                           match=f"^unsupported checkpoint version {version} "
                                 "at offset 4$"):
            load_checkpoint(path)

    def test_version_4_rejected(self, tmp_path):
        """Version 4 files may lack the potentials; they are not read."""
        self.assert_version_rejected(tmp_path, 4)

    def test_version_5_rejected(self, tmp_path):
        """Version 5 config text holds a Sinkhorn tolerance key that the
        config no longer has; those files are not read."""
        self.assert_version_rejected(tmp_path, 5)

    def test_version_6_rejected(self, tmp_path):
        """Version 6 config text spells the input widths encoder.d1 and
        encoder.d2; those files are not read."""
        self.assert_version_rejected(tmp_path, 6)

    def test_save_refuses_non_finite(self, tmp_path):
        """A checkpoint that load_checkpoint would refuse is never written."""
        ckpt = random_init_checkpoint(tiny_config())
        ckpt.momentum_buffers["head0.w"][1, 2] = np.nan
        path = tmp_path / "x.ckpt"
        with pytest.raises(NumericalError,
                           match="^tensor mom.head0.w holds NaN or Inf$"):
            save_checkpoint(ckpt, path)
        assert not path.exists()

    def test_repeated_config_key_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        blob = path.read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        text = blob[12:12 + n] + b"epochs=3\n"
        path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text
                         + blob[12 + n:])
        last = len(text.splitlines())
        with pytest.raises(FormatError,
                           match=f"^bad config text at offset 12: config line "
                                 f"{last} repeats key epochs$"):
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

    @pytest.mark.parametrize("corrupt, message", [
        (lambda b, at: b[:at + 6] + b"\xff" + b[at + 7:],
         r"^tensor param.adapter1.b of shape \(1, 8\) expected at offset "
         r"\d+, found b'pa\\xffam.adapter1.b' of shape \(1, 8\)$"),
        (lambda b, at: b[:at + 20] + b"\x03" + b[at + 21:],
         r"^tensor param.adapter1.b .* at offset \d+, found "
         r"b'param.adapter1.b' of shape \(1, 8, 0\)$"),
        (lambda b, at: b[:at + 24] + b"\x00" + b[at + 25:],
         r"^tensor param.adapter1.b .* at offset \d+, found "
         r"b'param.adapter1.b' of shape \(0, 8\)$"),
        (lambda b, at: b[:at + 10] + b"X" + b[at + 11:],
         r"^tensor param.adapter1.b .* at offset \d+, found "
         r"b'param.Xdapter1.b' "),
        (lambda b, at: b[:at - 4] + b"\x00" + b[at - 3:],
         r"^tensor count 0 at offset \d+ is not 23$"),
        (lambda b, at: b[:at - 4] + (b[at - 4] - 1).to_bytes(4, "little")
         + b[at:-41], r"^tensor count 22 at offset \d+ is not 23$"),
    ], ids=["name-not-utf8", "rank-3", "shape-0", "name-changed", "count-0",
            "count-short"])
    def test_corrupt_tensor_headers(self, tmp_path, corrupt, message):
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        blob = path.read_bytes()
        at = 16 + int.from_bytes(blob[8:12], "little")  # first tensor record
        assert blob[at + 4:at + 19] == b"param.adapter1."
        path.write_bytes(corrupt(blob, at))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_records_in_file_order(self, tmp_path):
        """Two records swapped: each name and shape is one the model has,
        but not at its place in the order that save_checkpoint writes."""
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        blob = path.read_bytes()
        m1, m2 = (blob.index(name) - 4 for name in (b"queue.m1", b"queue.m2"))
        path.write_bytes(blob[:m1] + blob[m2:2 * m2 - m1] + blob[m1:m2]
                         + blob[2 * m2 - m1:])
        with pytest.raises(FormatError, match=rf"^tensor queue.m1 of shape "
                           rf"\(16, 5\) expected at offset {m1}, found "
                           rf"b'queue.m2' of shape \(16, 5\)$"):
            load_checkpoint(path)

    def test_config_must_build_the_stored_tensors(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        path.write_bytes(path.read_bytes().replace(b"k_prototypes=4",
                                                   b"k_prototypes=5"))
        with pytest.raises(FormatError, match=r"^tensor param.prototypes of "
                           r"shape \(5, 5\) expected at offset \d+, found "
                           r"b'param.prototypes' of shape \(4, 5\)$"):
            load_checkpoint(path)

    def test_bad_run_state(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt = random_init_checkpoint(tiny_config())
        ckpt.queue.fill = 17  # above the queue length of 16
        save_checkpoint(ckpt, path)
        with pytest.raises(FormatError, match="tensor state"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(random_init_checkpoint(tiny_config()), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_random_init_checkpoint_probe_ready(self):
        ckpt = random_init_checkpoint(tiny_config())
        params = model_from_checkpoint(ckpt)
        assert params["prototypes"].shape[0] == 4
        assert ckpt.queue.fill == 0
        assert ckpt.iteration == 0


class TestEpochShuffleSeed:
    def test_distinct_across_epochs(self):
        seeds = [epoch_shuffle_seed(3, e) for e in range(50)]
        assert len(set(seeds)) == 50

    def test_deterministic(self):
        assert epoch_shuffle_seed(7, 9) == epoch_shuffle_seed(7, 9)


def test_converged_checkpoint_independent_of_blas_threads(tmp_path):
    """A short converged run with B = 32 batch + 256 queue rows writes the
    same checkpoint bytes under one OpenBLAS thread as under two."""
    corpus = tmp_path / "corpus.mmp"
    save_corpus(generate(CorpusSpec(n_samples=640, n_latent_clusters=8,
                                    latent_dim=16, d1=32, d2=32,
                                    noise_sigma=0.05, seed=123)), corpus)
    cfg = TrainConfig(
        epochs=3, batch_size=32, base_lr=0.3, momentum=0.9,
        prototype_freeze_iterations=-1,
        loss=LossConfig(temperature=0.2, sinkhorn=converged_config(0.05),
                        queue_length=256, queue_start_iteration=-1),
        k_prototypes=16,
        encoder=EncoderConfig(input_dims=(32, 32), hidden_dims=(96,),
                              embed_dim=16),
        seed=1)
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(config_to_text(cfg))
    src = str(Path(mmproto.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.ckpt"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "mmproto", "pretrain",
                        "--data", str(corpus), "--config", str(cfg_path),
                        "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
