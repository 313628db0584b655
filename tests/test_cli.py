import json

import numpy as np
import pytest

from mmproto.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from mmproto.data import load_corpus
from mmproto.trainer import TrainConfig, load_checkpoint


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

    def test_perturbed_gradient_fails(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0",
                           "--perturb", "matmul")
        assert code == EXIT_NUMERIC
        assert "FAIL" in out and "matmul" in out


class TestUsage:
    def test_no_command_usage_error(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_help_lists_defaults(self, capsys):
        code, out, _ = run(capsys, "gen-data", "--help")
        assert code == EXIT_OK
        defaults = TrainConfig()
        assert "default" in out
