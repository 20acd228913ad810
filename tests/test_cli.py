"""End-to-end command-line runs in subprocesses: exit codes and artifacts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from sdckws.data import SAMPLE_RATE, load_manifest, write_wav
from sdckws.dsp import Waveform
from sdckws.features import read_features
from sdckws.metrics import read_scores
from sdckws.model import load_checkpoint, save_checkpoint

SMALL_INI = """\
[frontend]
num_mel = 12
num_cepstra = 12

[model]
feature = mel
conv_filters = 2
gru_hidden = 4
embed_dim = 6
char_embed_dim = 8
disc_hidden = 4
batch_size = 8
dropout = 0.0
lr = 0.001
seed = 5
"""

SDC_INI = """\
[frontend]
num_mel = 8
num_cepstra = 8

[sdc]
n = 8
d = 1
p = 2
k = 2

[model]
feature = sdc
conv_filters = 2
gru_hidden = 4
embed_dim = 6
char_embed_dim = 8
disc_hidden = 4
batch_size = 8
dropout = 0.0
seed = 5
"""


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sdckws", *[str(a) for a in args]],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized dataset, config files, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    (root / "small.ini").write_text(SMALL_INI)
    (root / "sdc.ini").write_text(SDC_INI)
    synth = run_cli("synth", "--keywords", "abc", "xyz", "--per-keyword", "3",
                    "--seed", "17", "-o", root / "ds")
    assert synth.returncode == 0, synth.stderr
    manifest = synth.stdout.strip()
    train = run_cli("train", "--manifest", manifest, "--epochs", "1",
                    "--config", root / "small.ini", "-o", root / "model.kwsm")
    assert train.returncode == 0, train.stderr
    return {"root": root, "manifest": manifest,
            "ckpt": root / "model.kwsm",
            "history": root / "model_history.csv"}


@pytest.fixture(scope="module")
def second_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wavs") / "one_second.wav"
    rng = np.random.default_rng(8)
    write_wav(path, Waveform(0.1 * rng.normal(size=SAMPLE_RATE), SAMPLE_RATE))
    return path


class TestExtract:
    def test_single_file_default_sdc(self, second_wav, tmp_path):
        out = tmp_path / "feat.kwsf"
        result = run_cli("extract", second_wav, "-o", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str(out)
        feat = read_features(out)
        assert feat.data.shape == (98, 360)

    def test_named_front_end(self, second_wav, tmp_path):
        out = tmp_path / "feat.kwsf"
        result = run_cli("extract", second_wav, "-o", out, "--feature", "mfcc")
        assert result.returncode == 0, result.stderr
        assert read_features(out).data.shape == (98, 13)

    def test_directory_batch(self, tmp_path):
        rng = np.random.default_rng(9)
        for name in ("a.wav", "b.wav"):
            write_wav(tmp_path / name,
                      Waveform(0.1 * rng.normal(size=8000), SAMPLE_RATE))
        result = run_cli("extract", tmp_path, "-o", tmp_path / "feats",
                         "--feature", "mel")
        assert result.returncode == 0, result.stderr
        produced = sorted(result.stdout.split())
        assert [os.path.basename(p) for p in produced] == ["a.kwsf", "b.kwsf"]
        for path in produced:
            assert read_features(path).data.shape[1] == 40

    def test_unknown_feature_is_usage_error(self, second_wav):
        result = run_cli("extract", second_wav, "--feature", "bogus")
        assert result.returncode == 2

    def test_missing_input_is_runtime_error(self, tmp_path):
        result = run_cli("extract", tmp_path / "ghost.wav")
        assert result.returncode == 1

    def test_bad_sdc_string_is_usage_error(self, second_wav):
        result = run_cli("extract", second_wav, "--sdc", "40-1-3")
        assert result.returncode == 2


class TestSynth:
    def test_counts_and_layout(self, workspace):
        manifest = load_manifest(workspace["manifest"])
        assert len(manifest) == 12
        assert sum(ex.label for ex in manifest) == 6

    def test_deterministic_across_runs(self, tmp_path):
        for sub in ("one", "two"):
            result = run_cli("synth", "--keywords", "ab", "cd",
                             "--per-keyword", "2", "--seed", "3",
                             "-o", tmp_path / sub)
            assert result.returncode == 0, result.stderr
        a, b = tmp_path / "one", tmp_path / "two"
        assert (a / "manifest.jsonl").read_bytes() == (
            b / "manifest.jsonl"
        ).read_bytes()
        name = sorted(os.listdir(a / "wavs"))[0]
        assert (a / "wavs" / name).read_bytes() == (
            b / "wavs" / name
        ).read_bytes()

    def test_single_keyword_is_usage_error(self, tmp_path):
        result = run_cli("synth", "--keywords", "solo", "-o", tmp_path / "d")
        assert result.returncode == 2

    def test_bad_character_is_data_error(self, tmp_path):
        result = run_cli("synth", "--keywords", "ok", "no#pe",
                         "-o", tmp_path / "d")
        assert result.returncode == 1
        assert "#" in result.stderr


class TestTrain:
    def test_artifacts(self, workspace):
        ckpt = load_checkpoint(workspace["ckpt"])
        assert ckpt.step > 0
        lines = workspace["history"].read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,val_auc,val_eer"
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_epochs_zero(self, workspace, tmp_path):
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "0", "--config",
                         workspace["root"] / "small.ini",
                         "-o", tmp_path / "init.kwsm")
        assert result.returncode == 0, result.stderr
        assert "best_val_auc=nan" in result.stdout
        history = (tmp_path / "init_history.csv").read_text().strip()
        assert history == "epoch,train_loss,val_loss,val_auc,val_eer"
        assert load_checkpoint(tmp_path / "init.kwsm").step == 0

    def test_non_finite_loss_exits_1_and_writes_nothing(self, workspace,
                                                        tmp_path):
        # The CLI in a process whose forward returns NaN logits.
        script = (
            "import sys\n"
            "from sdckws import cli, model\n"
            "forward = model.KwsModel.forward\n"
            "model.KwsModel.forward = lambda self, *a, **k: tuple(\n"
            "    t * float('nan') for t in forward(self, *a, **k))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "nan.kwsm"
        result = subprocess.run(
            [sys.executable, "-c", script, "train", "--manifest",
             workspace["manifest"], "--epochs", "1", "--config",
             workspace["root"] / "small.ini", "-o", out],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 1
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("ERROR")]
        assert errors == ["ERROR sdckws: epoch 0 step 0: loss is nan"]
        assert "Traceback" not in result.stderr
        assert not out.exists()
        assert not (tmp_path / "nan_history.csv").exists()

    def test_same_seed_is_byte_identical(self, workspace, tmp_path):
        outputs = []
        for sub in ("one.kwsm", "two.kwsm"):
            result = run_cli("train", "--manifest", workspace["manifest"],
                             "--epochs", "1", "--config",
                             workspace["root"] / "small.ini",
                             "-o", tmp_path / sub,
                             "--history", tmp_path / f"{sub}.csv")
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert (tmp_path / "one.kwsm").read_bytes() == (
            tmp_path / "two.kwsm"
        ).read_bytes()
        assert (tmp_path / "one.kwsm.csv").read_bytes() == (
            tmp_path / "two.kwsm.csv"
        ).read_bytes()

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nwarp_factor = 9\n")
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config", bad,
                         "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2
        assert "warp_factor" in result.stderr

    def test_unknown_section_is_usage_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[optimizer]\nlr = 0.1\n")
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config", bad,
                         "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2

    def test_invalid_value_is_usage_error(self, workspace, tmp_path):
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config",
                         workspace["root"] / "small.ini",
                         "--dropout", "1.5", "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nconv_filters = abc\n")
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config", bad,
                         "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2
        assert "bad value for model.conv_filters" in result.stderr
        bad.write_text("[model]\nlr = nan\n")
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config", bad,
                         "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2
        assert "bad value for model.lr" in result.stderr

    def test_missing_manifest_is_runtime_error(self, workspace, tmp_path):
        result = run_cli("train", "--manifest", tmp_path / "none.jsonl",
                         "--epochs", "1", "-o", tmp_path / "m.kwsm")
        assert result.returncode == 1


class TestEval:
    def test_metrics_and_scores_file(self, workspace, tmp_path):
        scores_path = tmp_path / "scores.csv"
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", workspace["ckpt"], "-o", scores_path)
        assert result.returncode == 0, result.stderr
        printed = dict(line.split("=", 1)
                       for line in result.stdout.strip().split("\n"))
        assert 0.0 <= float(printed["auc"]) <= 1.0
        assert 0.0 <= float(printed["eer"]) <= 1.0
        assert 0.0 <= float(printed["f1_at_0.5"]) <= 1.0
        scored = read_scores(scores_path)
        manifest = load_manifest(workspace["manifest"])
        assert scored.size == len(manifest)
        np.testing.assert_array_equal(
            scored.labels, [ex.label for ex in manifest]
        )

    def test_corrupted_checkpoint_is_runtime_error(self, workspace, tmp_path):
        broken = tmp_path / "broken.kwsm"
        blob = workspace["ckpt"].read_bytes()
        broken.write_bytes(blob[: len(blob) // 2])
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", broken)
        assert result.returncode == 1
        assert "truncated" in result.stderr

    def test_unknown_feature_in_checkpoint_is_runtime_error(self, workspace,
                                                            tmp_path):
        ckpt = load_checkpoint(workspace["ckpt"])
        ckpt.config["feature"] = "zzz"
        broken = tmp_path / "bad_feature.kwsm"
        save_checkpoint(broken, ckpt)
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", broken)
        assert result.returncode == 1
        assert "zzz" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key,value", [
        ("conv_filters", "abc"), ("nfft", "512.0"), ("sdc", "40-1-3"),
        ("dropout_after_conv", "maybe"), ("lr", "nan"), ("frame_ms", "nan"),
        ("log_floor", "inf"), ("pre_emphasis", "1.5"),
    ])
    def test_bad_config_value_in_checkpoint_is_runtime_error(
            self, workspace, tmp_path, key, value):
        ckpt = load_checkpoint(workspace["ckpt"])
        ckpt.config[key] = value
        broken = tmp_path / "bad_value.kwsm"
        save_checkpoint(broken, ckpt)
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", broken)
        assert result.returncode == 1
        assert key in result.stderr
        assert "Traceback" not in result.stderr

    def test_nan_weight_in_checkpoint_is_runtime_error(self, workspace,
                                                       tmp_path):
        ckpt = load_checkpoint(workspace["ckpt"])
        ckpt.tensors["disc.dense.bias"][0] = np.nan
        broken = tmp_path / "nan_weight.kwsm"
        save_checkpoint(broken, ckpt)
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", broken)
        assert result.returncode == 1
        assert "not finite" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_checkpoint_is_runtime_error(self, workspace, tmp_path):
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", tmp_path / "none.kwsm")
        assert result.returncode == 1


class TestAblate:
    def test_d_sweep_rows(self, workspace, tmp_path):
        out = tmp_path / "grid.csv"
        result = run_cli("ablate", "--train-manifest", workspace["manifest"],
                         "--eval-manifest", workspace["manifest"],
                         "--sweep", "d=1..2", "--epochs", "0",
                         "--config", workspace["root"] / "sdc.ini", "-o", out)
        assert result.returncode == 0, result.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "d,k,auc,eer"
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    def test_bad_sweep_variable_is_usage_error(self, workspace, tmp_path):
        result = run_cli("ablate", "--train-manifest", workspace["manifest"],
                         "--eval-manifest", workspace["manifest"],
                         "--sweep", "q=1..2", "--epochs", "0",
                         "-o", tmp_path / "grid.csv")
        assert result.returncode == 2

    def test_bad_sweep_range_is_usage_error(self, workspace, tmp_path):
        result = run_cli("ablate", "--train-manifest", workspace["manifest"],
                         "--eval-manifest", workspace["manifest"],
                         "--sweep", "d=4..1", "--epochs", "0",
                         "-o", tmp_path / "grid.csv")
        assert result.returncode == 2


class TestLogging:
    def test_info_shows_resolved_config(self, second_wav, tmp_path):
        result = run_cli("extract", second_wav, "-o", tmp_path / "f.kwsf",
                         env_extra={"SDCKWS_LOG": "info"})
        assert result.returncode == 0
        assert "resolved config" in result.stderr

    def test_error_level_silences_info(self, second_wav, tmp_path):
        result = run_cli("extract", second_wav, "-o", tmp_path / "f.kwsf",
                         env_extra={"SDCKWS_LOG": "error"})
        assert result.returncode == 0
        assert "resolved config" not in result.stderr

    def test_no_subcommand_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 2
