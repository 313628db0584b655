import functools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmproto import gradcheck
from mmproto.cli import (CONFIG_FLAGS, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                         EXIT_USAGE, main)
from mmproto.data import PairedCorpus, load_corpus, save_corpus
from mmproto.errors import FormatError
from mmproto.model import embed
from mmproto.numerics import backward
from mmproto.trainer import (TrainConfig, load_checkpoint,
                             model_from_checkpoint, save_checkpoint)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.mmp"
    assert main(["gen-data", "--n", "120", "--clusters", "3",
                 "--latent-dim", "4", "--d1", "8", "--d2", "8",
                 "--sigma", "0.05", "--seed", "7",
                 "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def trained_ckpt(tmp_path, corpus_file):
    path = tmp_path / "run.ckpt"
    assert main(["pretrain", "--data", str(corpus_file), "--out", str(path),
                 "--epochs", "2", "--batch-size", "16", "--lr", "0.1",
                 "--k", "4", "--embed-dim", "6", "--hidden-dims", "8",
                 "--queue-length", "16", "--seed", "3"]) == EXIT_OK
    return path


class TestGenData:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.mmp", tmp_path / "b.mmp"
        for out in (a, b):
            code, _, _ = run(capsys, "gen-data", "--n", "100",
                             "--clusters", "8", "--seed", "7",
                             "--out", str(out))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, corpus_file):
        manifest = json.loads(
            (corpus_file.parent / "corpus.mmp.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 7
        assert manifest["config"]["clusters"] == 3

    def test_invalid_clusters_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-data", "--clusters", "1",
                           "--out", str(tmp_path / "x.mmp"))
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_negative_seed_usage_error_writes_nothing(self, tmp_path,
                                                      capsys):
        code, _, err = run(capsys, "gen-data", "--seed", "-1",
                           "--out", str(tmp_path / "x.mmp"))
        assert code == EXIT_USAGE
        assert err == "usage error: seed must be >= 0, got -1\n"
        assert not any(tmp_path.iterdir())

    def test_unwritable_path_io_error(self, capsys):
        code, _, _ = run(capsys, "gen-data", "--n", "10",
                         "--out", "/nonexistent-dir/x.mmp")
        assert code == EXIT_IO


class TestPretrain:
    def test_writes_checkpoint_and_metrics(self, tmp_path, corpus_file,
                                           capsys):
        out = tmp_path / "run.ckpt"
        metrics = tmp_path / "metrics.jsonl"
        code, stdout, _ = run(
            capsys, "pretrain", "--data", str(corpus_file),
            "--out", str(out), "--metrics", str(metrics),
            "--epochs", "1", "--batch-size", "16", "--lr", "0.1",
            "--k", "4", "--embed-dim", "6", "--hidden-dims", "8",
            "--seed", "3")
        assert code == EXIT_OK
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert len(lines) == 8  # 120 samples / batch 16 -> 8 steps
        assert [l["iter"] for l in lines] == list(range(8))
        ckpt = load_checkpoint(out)
        assert ckpt.iteration == 8

    def test_missing_data_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "pretrain", "--data",
                         str(tmp_path / "nope.mmp"),
                         "--out", str(tmp_path / "x.ckpt"))
        assert code == EXIT_IO

    def test_inline_flag_beats_config_file(self, tmp_path, corpus_file,
                                           capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=1\nbatch_size=16\nbase_lr=0.1\n"
                       "k_prototypes=4\nencoder.embed_dim=6\n"
                       "encoder.hidden_dims=8\nseed=3\n")
        out = tmp_path / "run.ckpt"
        code, _, _ = run(capsys, "pretrain", "--data", str(corpus_file),
                         "--out", str(out), "--config", str(cfg),
                         "--k", "5")
        assert code == EXIT_OK
        ckpt = load_checkpoint(out)
        assert ckpt.config.k_prototypes == 5
        manifest = json.loads((tmp_path / "run.ckpt.manifest.json").read_text())
        assert manifest["config"]["inline_overrides"] == {"k_prototypes": "5"}

    def test_resume_matches_uninterrupted(self, tmp_path, corpus_file,
                                          capsys):
        flags = ["--data", str(corpus_file), "--epochs", "2",
                 "--batch-size", "16", "--lr", "0.1", "--k", "4",
                 "--embed-dim", "6", "--hidden-dims", "8",
                 "--queue-length", "16", "--seed", "3"]
        full = tmp_path / "full.ckpt"
        assert run(capsys, "pretrain", *flags, "--out", str(full))[0] == EXIT_OK

        mid = tmp_path / "mid.ckpt"
        assert run(capsys, "pretrain", *flags, "--out", str(mid),
                   "--stop-after", "7")[0] == EXIT_OK
        resumed = tmp_path / "resumed.ckpt"
        metrics = tmp_path / "resumed_metrics.jsonl"
        assert run(capsys, "pretrain", "--data", str(corpus_file),
                   "--resume", str(mid), "--out", str(resumed),
                   "--metrics", str(metrics))[0] == EXIT_OK

        assert full.read_bytes() == resumed.read_bytes()
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert [l["iter"] for l in lines] == list(range(7, 16))

    @pytest.mark.parametrize("flags", [["--k", "4"], ["--config", "x.cfg"]])
    def test_resume_rejects_config_flags(self, tmp_path, corpus_file,
                                         trained_ckpt, capsys, flags):
        (tmp_path / "x.cfg").write_text("seed=3\n")
        out = tmp_path / "resumed.ckpt"
        code, _, err = run(capsys, "pretrain", "--data", str(corpus_file),
                           "--resume", str(trained_ckpt), "--out", str(out),
                           *[str(tmp_path / f) if f.endswith(".cfg") else f
                             for f in flags])
        assert code == EXIT_USAGE
        assert err.startswith("usage error: --resume takes its config")
        assert not out.exists()

    @pytest.mark.parametrize("config, flags", [
        ("encoder.d1=20\n", []),
        ("", ["--resume", "{ckpt}", "--stop-after", "3"]),
    ])
    def test_usage_error_writes_no_metrics(self, tmp_path, corpus_file,
                                           trained_ckpt, capsys, config,
                                           flags):
        metrics = tmp_path / "m.jsonl"
        argv = ["pretrain", "--data", str(corpus_file), "--metrics",
                str(metrics), "--out", str(tmp_path / "x.ckpt"),
                *[f.format(ckpt=trained_ckpt) for f in flags]]
        if config:
            (tmp_path / "c.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "c.cfg")]
        assert run(capsys, *argv)[0] == EXIT_USAGE
        assert not metrics.exists()


class TestProbe:
    def test_cluster_probe_prints_nmi(self, corpus_file, trained_ckpt,
                                      capsys):
        code, out, _ = run(capsys, "probe", "--ckpt", str(trained_ckpt),
                           "--data", str(corpus_file), "--probe", "cluster")
        assert code == EXIT_OK
        report = json.loads(out)
        assert "nmi" in report and "purity" in report

    def test_linear_probe_deterministic(self, corpus_file, trained_ckpt,
                                        capsys):
        args = ("probe", "--ckpt", str(trained_ckpt), "--data",
                str(corpus_file), "--probe", "linear", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_knn_probe_reports_accuracy(self, corpus_file, trained_ckpt,
                                        capsys):
        code, out, _ = run(capsys, "probe", "--ckpt", str(trained_ckpt),
                           "--data", str(corpus_file), "--probe", "knn",
                           "--knn-k", "3")
        assert code == EXIT_OK
        assert 0.0 <= json.loads(out)["accuracy"] <= 1.0

    def test_unknown_probe_usage_error(self, corpus_file, trained_ckpt,
                                       capsys):
        code, _, _ = run(capsys, "probe", "--ckpt", str(trained_ckpt),
                         "--data", str(corpus_file), "--probe", "quadratic")
        assert code == EXIT_USAGE

    def test_small_gen_data_corpus(self, tmp_path, capsys):
        """5 samples of 8 clusters: labels at or above the sample count are
        class ids that train and probe like any other."""
        corpus, ckpt = tmp_path / "five.mmp", tmp_path / "five.ckpt"
        assert main(["gen-data", "--n", "5", "--out", str(corpus)]) == EXIT_OK
        assert load_corpus(corpus).labels.max() >= 5
        assert run(capsys, "pretrain", "--data", str(corpus), "--out",
                   str(ckpt), "--epochs", "2", "--batch-size", "4")[0] == EXIT_OK
        for kind in ("linear", "knn", "cluster"):
            assert run(capsys, "probe", "--ckpt", str(ckpt), "--data",
                       str(corpus), "--probe", kind,
                       "--knn-k", "1")[0] == EXIT_OK

    @pytest.mark.parametrize("kind", ["linear", "knn"])
    @pytest.mark.filterwarnings("error")
    def test_no_test_sample_usage_error(self, tmp_path, trained_ckpt, capsys,
                                        kind):
        """A fifth of 2 samples rounds to an empty test set."""
        two = tmp_path / "two.mmp"
        assert main(["gen-data", "--n", "2", "--clusters", "3",
                     "--latent-dim", "4", "--d1", "8", "--d2", "8",
                     "--out", str(two)]) == EXIT_OK
        capsys.readouterr()
        code, out, err = run(capsys, "probe", "--ckpt", str(trained_ckpt),
                             "--data", str(two), "--probe", kind)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("usage error: a corpus of 2 sample(s) leaves no test "
                       "sample\n")

    def test_results_file_appended(self, tmp_path, corpus_file, trained_ckpt,
                                   capsys):
        results = tmp_path / "results.jsonl"
        args = ("probe", "--ckpt", str(trained_ckpt), "--data",
                str(corpus_file), "--probe", "cluster",
                "--results", str(results))
        run(capsys, *args)
        run(capsys, *args)
        assert len(results.read_text().splitlines()) == 2


class TestCheckpointFormat:
    @pytest.mark.parametrize("part", ["header", "config", "tensor"])
    def test_truncated_checkpoint_format_error(self, tmp_path, corpus_file,
                                               trained_ckpt, capsys, part):
        blob = trained_ckpt.read_bytes()
        cfg_len = int.from_bytes(blob[8:12], "little")
        cut = {"header": 6, "config": 12 + cfg_len // 2,
               "tensor": len(blob) - 3}[part]
        truncated = tmp_path / "cut.ckpt"
        truncated.write_bytes(blob[:cut])
        code, _, err = run(capsys, "probe", "--ckpt", str(truncated),
                           "--data", str(corpus_file), "--probe", "cluster")
        assert code == EXIT_IO
        assert err.startswith("error: truncated checkpoint")
        assert "offset" in err


class TestExitCodes:
    """One row per error class: the exit code and the stderr prefix."""

    @pytest.mark.parametrize("files, argv, code, prefix", [
        ({"train.cfg": "bath_size=64\n"},
         "pretrain --data {corpus} --out {tmp}/x.ckpt --config {tmp}/train.cfg",
         EXIT_USAGE, "usage error: unknown config key(s): bath_size"),
        ({"train.cfg": "epochs=two\n"},
         "pretrain --data {corpus} --out {tmp}/x.ckpt --config {tmp}/train.cfg",
         EXIT_USAGE, "usage error: config key epochs: bad value 'two'"),
        ({}, "probe --ckpt {ckpt} --data {tmp}/unlabeled.mmp --probe cluster",
         EXIT_USAGE, "usage error: corpus has no labels"),
        ({"scores.csv": "1,2\n3\n"}, "codes --scores {tmp}/scores.csv",
         EXIT_IO, "error: "),
        ({"scores.csv": ""}, "codes --scores {tmp}/scores.csv",
         EXIT_IO, "error: "),
        ({"bad.ckpt": "MMCK\x02"},
         "probe --ckpt {tmp}/bad.ckpt --data {corpus} --probe cluster",
         EXIT_IO, "error: truncated checkpoint"),
        ({"scores.csv": "nan,0\n0,0\n"}, "codes --scores {tmp}/scores.csv",
         EXIT_NUMERIC, "numerical error: scores contain NaN or Inf"),
        ({}, "pretrain --data {tmp}/nan.mmp --out {tmp}/x.ckpt --epochs 1 "
             "--batch-size 16 --k 4 --embed-dim 6 --hidden-dims 8",
         EXIT_NUMERIC,
         "numerical error: scores contain NaN or Inf at iteration "),
        *[({}, f"pretrain --data {{corpus}} --out {{tmp}}/x.ckpt {flag} {v}",
           EXIT_USAGE, f"usage error: {field} must be finite")
          for flag, field, v in [("--lr", "base_lr", "nan"),
                                 ("--temperature", "temperature", "nan"),
                                 ("--epsilon", "epsilon", "nan"),
                                 ("--epsilon", "epsilon", "inf")]],
        *[({}, f"gen-data --sigma {v} --out {{tmp}}/x.mmp", EXIT_USAGE,
           "usage error: noise_sigma must be finite") for v in ("nan", "inf")],
        ({}, "probe --ckpt {tmp}/nan.ckpt --data {corpus} --probe cluster",
         EXIT_IO, "error: tensor param.adapter1.w at offset "),
        *[({}, f"probe --ckpt {{ckpt}} --data {{tmp}}/nan.mmp --probe {kind}",
           EXIT_NUMERIC, "numerical error: 1 modality 1 row(s) hold NaN")
          for kind in ("linear", "knn", "cluster")],
        ({"scores.csv": "1,-1\n1,-1\n"},
         "codes --scores {tmp}/scores.csv --epsilon 0.001", EXIT_NUMERIC,
         "numerical error: exp(scores / epsilon) underflows"),
        ({}, "probe --ckpt {ckpt} --data {corpus} --probe cluster "
             "--modality both",
         EXIT_USAGE, "usage error: the cluster probe takes modality m1 or m2"),
        ({}, "pretrain --data {corpus} --out {tmp}/x.ckpt --stop-after -3",
         EXIT_USAGE, "usage error: stop_after must be >= 0, got -3"),
        ({"train.cfg": "encoder.d1=20\nencoder.d2=8\n"},
         "pretrain --data {corpus} --out {tmp}/x.ckpt --config {tmp}/train.cfg",
         EXIT_USAGE, "usage error: modality 1 expects width 20, got 8"),
        ({"v1.ckpt": "MMCK\x01\x00\x00\x00"},
         "probe --ckpt {tmp}/v1.ckpt --data {corpus} --probe cluster",
         EXIT_IO, "error: unsupported checkpoint version 1 at offset 4"),
        ({}, "pretrain --data {corpus} --out {tmp}/x.ckpt --resume {ckpt} "
             "--stop-after 3",
         EXIT_USAGE, "usage error: stop_after 3 is below the resumed "
                     "iteration 16"),
        *[({}, f"probe --ckpt {{ckpt}} --data {{tmp}}/big.mmp --probe {kind}",
           EXIT_NUMERIC, "numerical error: 1 row(s) overflow the encoder to "
                         "NaN or Inf, the first is row 7")
          for kind in ("linear", "knn", "cluster")],
        ({}, "pretrain --data {tmp}/big.mmp --out {tmp}/x.ckpt --epochs 1 "
             "--batch-size 16 --k 4 --embed-dim 6 --hidden-dims 8",
         EXIT_NUMERIC,
         "numerical error: scores contain NaN or Inf at iteration "),
        ({}, "pretrain --data {corpus} --out {tmp}/x.ckpt --seed -1",
         EXIT_USAGE, "usage error: seed must be >= 0, got -1"),
        ({"train.cfg": "seed=-1\n"},
         "pretrain --data {corpus} --out {tmp}/x.ckpt --config {tmp}/train.cfg",
         EXIT_USAGE, "usage error: seed must be >= 0, got -1"),
        ({}, "gradcheck --seed -1",
         EXIT_USAGE, "usage error: seed must be >= 0, got -1"),
        *[({}, f"probe --ckpt {{ckpt}} --data {{corpus}} --probe {kind} "
               "--seed -1",
           EXIT_USAGE, "usage error: split_seed must be >= 0, got -1")
          for kind in ("linear", "knn")],
        *[({}, f"probe --ckpt {{ckpt}} --data {{tmp}}/empty.mmp --probe {kind}",
           EXIT_USAGE, "usage error: a corpus of 0 sample(s) leaves no test "
                       "sample")
          for kind in ("linear", "knn", "cluster")],
        ({"v2.ckpt": "MMCK\x02\x00\x00\x00"},
         "probe --ckpt {tmp}/v2.ckpt --data {corpus} --probe cluster",
         EXIT_IO, "error: unsupported checkpoint version 2 at offset 4"),
        *[({"scores.csv": "0.3,-0.5,-0.9\n0.6,0.8,0.2\n"},
           f"codes --scores {{tmp}}/scores.csv --epsilon 1e-310{flag}",
           EXIT_NUMERIC,
           "numerical error: scores / epsilon overflow at epsilon 1e-310")
          for flag in (" --converged", "")],
        ({"scores.csv": "0.3,-0.5,-0.9,-1.0\n0.6,0.8,0.2,0.5\n"
                        "0.1,0.9,0.6,-1.0\n"},
         "codes --scores {tmp}/scores.csv --epsilon 0.001 --converged",
         EXIT_NUMERIC, "numerical error: codes did not converge: 1000 Newton "
                       "steps left residual "),
        ({}, "pretrain --data {corpus} --out {tmp}/x.ckpt --epochs 1 "
             "--batch-size 16 --k 4 --embed-dim 6 --hidden-dims 8 "
             "--temperature 1e-310",
         EXIT_NUMERIC, "numerical error: scores / temperature 1e-310 hold NaN "
                       "or Inf at iteration 0, batch indices "),
        ({}, "pretrain --data {corpus} --out {tmp}/x.ckpt --epochs 1 "
             "--batch-size 16 --k 4 --embed-dim 6 --hidden-dims 8 "
             "--epsilon 0.001",
         EXIT_NUMERIC, "numerical error: exp(scores / epsilon) underflows at "
                       "epsilon 0.001; raise epsilon or use the converged "
                       "solver at iteration 1, batch indices "),
        ({}, "gen-data --n 5 --clusters 2 --latent-dim 1 --d1 1 --d2 1 "
             "--sigma 1e308 --out {tmp}/x.mmp",
         EXIT_NUMERIC, "numerical error: noise_sigma (--sigma) 1e+308 "
                       "overflows the corpus to NaN or Inf"),
        *[({}, f"{command} --seed {2**64}", EXIT_USAGE,
           f"usage error: {field} must be < 2**64, got {2**64}")
          for command, field in [
              ("gen-data --out {tmp}/x.mmp", "seed"),
              ("pretrain --data {corpus} --out {tmp}/x.ckpt", "seed"),
              *[(f"probe --ckpt {{ckpt}} --data {{corpus}} --probe {kind}",
                 "split_seed") for kind in ("linear", "knn")]]],
        *[({}, f"pretrain --data {{tmp}}/wide.mmp --out {{tmp}}/x.ckpt "
               f"--resume {ckpt}",
           EXIT_USAGE, "usage error: modality 1 expects width 8, got 12")
          for ckpt in ("{tmp}/mid.ckpt", "{ckpt}")],
        ({}, "probe --ckpt {ckpt} --data {corpus} --probe cluster --seed -5",
         EXIT_USAGE, "usage error: split_seed must be >= 0, got -5"),
        ({}, "probe --ckpt {ckpt} --data {corpus} --probe linear --knn-k -3",
         EXIT_USAGE, "usage error: k_neighbors must be >= 1, got -3"),
        ({"scores.csv": "1,2\n3,4\n"},
         "codes --scores {tmp}/scores.csv --converged --iters 0",
         EXIT_USAGE, "usage error: n_iterations must be >= 1, got 0"),
        ({"big.ckpt": "MMCK\x05\x00\x00\x00\x22\x00\x00\x00"
                      "encoder.hidden_dims=1000000000000\n"},
         "probe --ckpt {tmp}/big.ckpt --data {corpus} --probe cluster",
         EXIT_IO, "error: truncated checkpoint: tensor data needs "
                  "16000000003120000000559384 bytes at offset 46, file is "
                  "46 bytes"),
        *[({}, f"pretrain --data {{tmp}}/short.mmp --out {{tmp}}/x.ckpt "
               f"--resume {ckpt}",
           EXIT_USAGE, "usage error: the checkpoint's run trains on 120 "
                       "samples, the corpus has 90")
          for ckpt in ("{tmp}/mid.ckpt", "{ckpt}")],
        ({"v3.ckpt": "MMCK\x03\x00\x00\x00"},
         "probe --ckpt {tmp}/v3.ckpt --data {corpus} --probe cluster",
         EXIT_IO, "error: unsupported checkpoint version 3 at offset 4"),
        ({}, "pretrain --data {corpus} --out {tmp}/x.ckpt "
             "--queue-length 1000000000000",
         EXIT_IO, "error: out of memory: Unable to allocate "),
        ({"train.cfg": "# note\n\nepochs\n"},
         "pretrain --data {corpus} --out {tmp}/x.ckpt --config {tmp}/train.cfg",
         EXIT_USAGE, "usage error: config line 3 is not key=value: 'epochs'"),
        ({}, f"gradcheck --seed {2**64}",
         EXIT_USAGE, f"usage error: seed must be < 2**64, got {2**64}"),
        ({}, "pretrain --data {tmp}/one.mmp --out {tmp}/x.ckpt",
         EXIT_USAGE, "usage error: a corpus of 1 sample leaves only a "
                     "trailing batch of 1, which training drops"),
        ({"train.cfg": "epochs=1\nepochs=3\n"},
         "pretrain --data {corpus} --out {tmp}/x.ckpt --config {tmp}/train.cfg",
         EXIT_USAGE, "usage error: config line 2 repeats key epochs"),
        ({"scores.csv": "1,-1\n1,-1\n"},
         "codes --scores {tmp}/scores.csv --epsilon 1e-308",
         EXIT_NUMERIC, "numerical error: exp(scores / epsilon) underflows at "
                       "epsilon 1e-308; raise epsilon"),
        *[({}, "pretrain --data {corpus} --out {tmp}/x.ckpt --epochs 1 "
               "--batch-size 16 --k 4 --embed-dim 6 --hidden-dims 8 "
               f"--temperature {temperature}",
           EXIT_NUMERIC, "numerical error: non-finite loss inf at "
                         "iteration 0, batch indices ")
          for temperature in ("1e-308", "6e-309")],
    ])
    @pytest.mark.filterwarnings("error")
    def test_exit_code_and_prefix(self, tmp_path, corpus_file, trained_ckpt,
                                  capsys, files, argv, code, prefix):
        corpus = load_corpus(corpus_file)
        save_corpus(PairedCorpus(corpus.modality1, corpus.modality2, None),
                    tmp_path / "unlabeled.mmp")
        big = PairedCorpus(corpus.modality1.copy(), corpus.modality2,
                           corpus.labels)
        big.modality1[7] = 1.7e308  # finite, but overflows the encoder
        save_corpus(big, tmp_path / "big.mmp")
        for name, n in (("empty.mmp", 0), ("one.mmp", 1), ("short.mmp", 90)):
            save_corpus(PairedCorpus(corpus.modality1[:n], corpus.modality2[:n],
                                     corpus.labels[:n]), tmp_path / name)
        save_corpus(PairedCorpus(
            np.hstack([corpus.modality1, corpus.modality1[:, :4]]),
            corpus.modality2, corpus.labels), tmp_path / "wide.mmp")
        mid = load_checkpoint(trained_ckpt)
        mid.iteration = 8  # halfway through the 16 steps
        save_checkpoint(mid, tmp_path / "mid.ckpt")
        corpus.modality1[5, 0] = np.nan
        save_corpus(corpus, tmp_path / "nan.mmp")
        ckpt = load_checkpoint(trained_ckpt)
        ckpt.params["adapter1.w"][2, 3] = np.inf
        save_checkpoint(ckpt, tmp_path / "nan.ckpt")
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = argv.format(tmp=tmp_path, corpus=corpus_file, ckpt=trained_ckpt)
        got, _, err = run(capsys, *argv.split())
        assert got == code
        assert err.startswith(prefix), err
        assert not list(tmp_path.glob("x.*")), "a failed command wrote output"

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_warning_is_one_labelled_line(self, tmp_path, corpus_file,
                                          capsys):
        code, _, err = run(capsys, "pretrain", "--data", str(corpus_file),
                           "--out", str(tmp_path / "x.ckpt"),
                           "--batch-size", "1", "--epochs", "1")
        assert code == EXIT_OK
        assert err == ("warning: batch of 1 with no queue: codes are "
                       "uninformative\n")


class TestCorruptFiles:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        corpus, ckpt = root / "c.mmp", root / "r.ckpt"
        assert main(["gen-data", "--n", "24", "--clusters", "3",
                     "--latent-dim", "2", "--d1", "3", "--d2", "3",
                     "--out", str(corpus)]) == EXIT_OK
        assert main(["pretrain", "--data", str(corpus), "--out", str(ckpt),
                     "--epochs", "1", "--batch-size", "8", "--k", "3",
                     "--embed-dim", "2", "--hidden-dims", "3",
                     "--queue-length", "4"]) == EXIT_OK
        return root, corpus.read_bytes(), ckpt.read_bytes()

    @given(target=st.sampled_from(["ckpt", "corpus"]),
           position=st.integers(0, 2**16), bit=st.integers(0, 7),
           probe=st.sampled_from(["cluster", "knn", "linear"]))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_bit_flip(self, files, target, position, bit, probe):
        """A flipped bit in either container ends as exit 0 or 1, except
        that a flip making a probed (modality 1) corpus value NaN or Inf,
        or making the encoder overflow on a probed row (a value or weight
        flipped to near the float64 maximum), ends as a numerical error."""
        root, corpus, ckpt = files
        blob = bytearray(ckpt if target == "ckpt" else corpus)
        blob[position % len(blob)] ^= 1 << bit
        paths = {"ckpt": root / "r.ckpt", "corpus": root / "c.mmp"}
        flipped = root / "flipped"
        flipped.write_bytes(bytes(blob))
        paths[target] = flipped
        code = main(["probe", "--ckpt", str(paths["ckpt"]),
                     "--data", str(paths["corpus"]), "--probe", probe,
                     "--knn-k", "3"])
        try:
            params = model_from_checkpoint(load_checkpoint(paths["ckpt"]))
            z = embed(params, load_corpus(paths["corpus"]).modality1, 0).data
        except FormatError:
            z = np.zeros(1)
        if np.isfinite(z).all():
            assert code in (EXIT_OK, EXIT_IO)
        else:
            assert code == EXIT_NUMERIC


class TestCodes:
    def test_zero_scores_uniform(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("0,0\n0,0\n")
        code, out, _ = run(capsys, "codes", "--scores", str(scores),
                           "--converged")
        assert code == EXIT_OK
        values = [float(v) for line in out.strip().splitlines()
                  for v in line.split(",")]
        np.testing.assert_allclose(values, 0.25, atol=1e-9)

    def test_symmetric_closed_form(self, tmp_path, capsys):
        eps = 0.05
        s = eps * np.log(3)
        scores = tmp_path / "scores.csv"
        scores.write_text(f"{s},0\n0,{s}\n")
        code, out, _ = run(capsys, "codes", "--scores", str(scores),
                           "--epsilon", str(eps), "--converged")
        assert code == EXIT_OK
        rows = [[float(v) for v in line.split(",")]
                for line in out.strip().splitlines()]
        np.testing.assert_allclose(
            rows, [[0.375, 0.125], [0.125, 0.375]], atol=1e-6)

    def test_zero_epsilon_usage_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("0,0\n")
        code, _, _ = run(capsys, "codes", "--scores", str(scores),
                         "--epsilon", "0")
        assert code == EXIT_USAGE


class TestGradcheck:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == EXIT_OK
        assert "pass" in out and "FAIL" not in out
        assert "max_rel_err" in out

    @pytest.mark.parametrize("seed", [0, 4, 10, 17, 25, 26, 31, 32])
    def test_correct_tape_passes_on_every_seed(self, seed):
        """With zero biases, seeds 17, 31 and 32 embedded a sample to the
        zero vector and 4, 10, 25 and 26 showed truncation error."""
        for result in gradcheck.run_suite(seed):
            assert result.passed, (result.op, result.max_relative_error)

    def test_perturbed_gradient_fails(self, capsys, monkeypatch):
        def faulty(loss, params):  # corrupts the affine check's `a` gradient
            grads = backward(loss, params)
            if "a" in grads:
                grads["a"] = grads["a"] + 0.5
            return grads

        monkeypatch.setattr(gradcheck, "backward", faulty)
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == EXIT_NUMERIC
        assert "FAIL" in out and "affine" in out


class TestUsage:
    def test_no_command_usage_error(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_help_lists_defaults(self, capsys):
        code, out, _ = run(capsys, "gen-data", "--help")
        assert code == EXIT_OK
        assert "default" in out

    def test_pretrain_help_lists_config_defaults(self, capsys):
        code, out, _ = run(capsys, "pretrain", "--help")
        assert code == EXIT_OK
        text = " ".join(out.split())  # undo argparse's line wrapping
        for flag, (key, _, help_text) in CONFIG_FLAGS.items():
            value = functools.reduce(getattr, key.split("."), TrainConfig())
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            metavar = flag[2:].upper().replace("-", "_")
            assert f"{flag} {metavar} {help_text} (default: {value})" in text
