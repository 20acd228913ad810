"""End-to-end command-line runs in subprocesses: exit codes and artifacts."""

import errno
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdckws import cli
from sdckws.data import SAMPLE_RATE, load_manifest, write_wav
from sdckws.dsp import Waveform
from sdckws.errors import FormatError
from sdckws.features import read_features
from sdckws.model import load_checkpoint, save_checkpoint
from test_metrics import read_scores

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

    def test_directory_basename_collision_is_usage_error(self, tmp_path):
        rng = np.random.default_rng(10)
        for sub in ("a", "b"):
            (tmp_path / "in" / sub).mkdir(parents=True)
            write_wav(tmp_path / "in" / sub / "x.wav",
                      Waveform(0.1 * rng.normal(size=8000), SAMPLE_RATE))
        result = run_cli("extract", tmp_path / "in", "-o", tmp_path / "out",
                         "--feature", "mel")
        assert result.returncode == 2
        assert os.path.join("a", "x.wav") in result.stderr
        assert os.path.join("b", "x.wav") in result.stderr
        assert "Traceback" not in result.stderr
        assert list(tmp_path.rglob("*.kwsf")) == []

    def test_unknown_feature_is_usage_error(self, second_wav):
        result = run_cli("extract", second_wav, "--feature", "bogus")
        assert result.returncode == 2

    def test_directory_without_wavs_is_runtime_error(self, tmp_path):
        result = run_cli("extract", tmp_path)
        assert result.returncode == 1
        assert f"no .wav files under {tmp_path}" in result.stderr

    def test_missing_input_is_runtime_error(self, tmp_path):
        result = run_cli("extract", tmp_path / "ghost.wav")
        assert result.returncode == 1

    def test_bad_sdc_string_is_usage_error(self, second_wav):
        result = run_cli("extract", second_wav, "--sdc", "40-1-3")
        assert result.returncode == 2

    @pytest.mark.parametrize("size", [0, 20, 1001, 16044],
                             ids=["empty", "truncated", "half-sample",
                                  "short-data-chunk"])
    def test_short_wav_is_runtime_error(self, second_wav, tmp_path, size):
        short = tmp_path / "short.wav"
        short.write_bytes(second_wav.read_bytes()[:size])
        result = run_cli("extract", short, "-o", tmp_path / "f.kwsf")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "short.wav" in result.stderr

    def test_corrupt_chunk_size_is_runtime_error(self, second_wav, tmp_path):
        # The fmt chunk's size field, set past the end of the file.
        blob = bytearray(second_wav.read_bytes())
        blob[16:20] = struct.pack("<I", 100000)
        corrupt = tmp_path / "corrupt.wav"
        corrupt.write_bytes(bytes(blob))
        result = run_cli("extract", corrupt, "-o", tmp_path / "f.kwsf")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "corrupt.wav" in result.stderr

    def test_non_utf8_config_is_usage_error(self, second_wav, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[model]\nfeature = m\xffl\n")
        result = run_cli("extract", second_wav, "--config", bad,
                         "-o", tmp_path / "f.kwsf")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "bad.ini: not UTF-8" in result.stderr

    def test_overflowing_frame_is_usage_error(self, second_wav, tmp_path):
        bad = tmp_path / "huge.ini"
        bad.write_text("[frontend]\nframe_ms = 1e306\nhop_ms = 1e305\n")
        result = run_cli("extract", second_wav, "--config", bad,
                         "-o", tmp_path / "f.kwsf")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("ERROR")]
        assert len(errors) == 1 and "frame_ms" in errors[0]
        assert not (tmp_path / "f.kwsf").exists()

    @pytest.mark.parametrize("text", [
        "feature = mel\n",
        "[model]\nfeature = mel\nfeature = mfcc\n",
    ], ids=["key-before-section", "repeated-key"])
    def test_malformed_config_is_usage_error(self, second_wav, tmp_path, text):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        result = run_cli("extract", second_wav, "--config", bad,
                         "-o", tmp_path / "f.kwsf")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert str(bad) in result.stderr


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_and_keeps_target(
            self, second_wav, tmp_path, monkeypatch):
        # A disk that fills up halfway through the feature file.
        def partial_write(path, feat):
            with open(path, "wb") as handle:
                handle.write(b"KWSF\x01")
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        target = tmp_path / "f.kwsf"
        target.write_bytes(b"previous")
        monkeypatch.setattr(cli, "write_features", partial_write)
        assert cli.main(["extract", str(second_wav), "-o", str(target)]) == 1
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["f.kwsf"]


def test_import_leaves_out_scipy_signal_and_stats():
    # A fresh interpreter: this test process has imported both for oracles.
    script = ("import sys, sdckws, sdckws.cli\n"
              "print(' '.join(sorted(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    modules = result.stdout.split()
    assert "sdckws.cli" in modules and "scipy" in modules
    assert [m for m in modules
            if m.startswith(("scipy.signal", "scipy.stats"))] == []


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

    def test_output_that_is_a_file_is_runtime_error(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        result = run_cli("synth", "--keywords", "ab", "cd", "-o", taken)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("ERROR")]
        assert len(errors) == 1 and str(taken) in errors[0]

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

    def test_step_over_available_memory_exits_1(self, workspace, tmp_path):
        # The CLI in a process that reports 1 KiB of available memory.
        script = (
            "import sys\n"
            "from sdckws import cli, model\n"
            "model.available_memory = lambda: 1024\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "big.kwsm"
        result = subprocess.run(
            [sys.executable, "-c", script, "train", "--manifest",
             workspace["manifest"], "--epochs", "1", "--config",
             workspace["root"] / "small.ini", "-o", out],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 1
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("ERROR")]
        assert len(errors) == 1
        assert re.fullmatch(
            r"ERROR sdckws: epoch 0 step 0: a training step on features"
            r" \[\d+, \d+, 12\] and tokens \[\d+, \d+\] needs about [\d.]+ MiB,"
            r" but 0\.0 MiB is available", errors[0]), errors[0]
        assert "Traceback" not in result.stderr
        assert not out.exists()
        assert not (tmp_path / "big_history.csv").exists()

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
        bad.write_text("[model]\nd = 2\n")
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config", bad,
                         "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2
        assert "unknown key 'd' in section [model]" in result.stderr

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

    @pytest.mark.parametrize("text", ["[model]\nlr = 1e-3%\n",
                                      "[model]\nlr = %(seed)s\n"],
                             ids=["percent", "interpolation"])
    def test_percent_in_value_is_usage_error(self, workspace, tmp_path, text):
        (tmp_path / "bad.ini").write_text(text)
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config", tmp_path / "bad.ini",
                         "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "bad value for model.lr" in result.stderr

    @pytest.mark.parametrize("text", [
        "[model]\nseed = -1\n",
        "[frontend]\nframe_ms = 0.02\nhop_ms = 0.01\n",
        "[frontend]\nnum_cepstra = 39\n[model]\nfeature = plp\n",
    ], ids=["negative-seed", "hop-under-one-sample", "plp-cepstra"])
    def test_config_training_cannot_use_is_usage_error(self, workspace,
                                                       tmp_path, text):
        (tmp_path / "bad.ini").write_text(text)
        result = run_cli("train", "--manifest", workspace["manifest"],
                         "--epochs", "1", "--config", tmp_path / "bad.ini",
                         "-o", tmp_path / "m.kwsm")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

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

    def test_version_1_checkpoint_is_runtime_error(self, workspace, tmp_path):
        # Version 1 held each GRU gate's weights as a tensor of its own;
        # such a file stops at the header, not at a missing tensor.
        blob = bytearray(workspace["ckpt"].read_bytes())
        assert blob[4:6] == struct.pack("<H", 4)
        blob[4:6] = struct.pack("<H", 1)
        old = tmp_path / "v1.kwsm"
        old.write_bytes(bytes(blob))
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", old)
        assert result.returncode == 1
        assert "v1.kwsm: unsupported version 1" in result.stderr
        assert "Traceback" not in result.stderr

    def test_version_2_checkpoint_is_runtime_error(self, workspace, tmp_path):
        # Version 2 held each GRU direction as its own layer and the convs'
        # biases; it stops at the header too.
        blob = bytearray(workspace["ckpt"].read_bytes())
        blob[4:6] = struct.pack("<H", 2)
        old = tmp_path / "v2.kwsm"
        old.write_bytes(bytes(blob))
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", old)
        assert result.returncode == 1
        assert "v2.kwsm: unsupported version 2" in result.stderr
        assert "Traceback" not in result.stderr
        with pytest.raises(FormatError, match="unsupported version 2"):
            load_checkpoint(old)

    def test_version_3_checkpoint_is_runtime_error(self, workspace, tmp_path):
        # Version 3 held a bias for the attention's key projection; it
        # stops at the header too.
        blob = bytearray(workspace["ckpt"].read_bytes())
        blob[4:6] = struct.pack("<H", 3)
        old = tmp_path / "v3.kwsm"
        old.write_bytes(bytes(blob))
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", old)
        assert result.returncode == 1
        assert result.stderr.rstrip().endswith("unsupported version 3")
        assert "Traceback" not in result.stderr

    def test_overflowing_tensor_shape_is_runtime_error(self, workspace,
                                                       tmp_path):
        # 65536 ** 4 elements wrap to 0 in int64; the header must still be
        # read as a declared size far past the end of the file.
        blob = workspace["ckpt"].read_bytes()
        old = b"audio.bn2.gamma" + struct.pack("<BI", 1, 2)
        new = b"audio.bn2.gamma" + struct.pack("<B4I", 4, *(65536,) * 4)
        assert blob.count(old) == 1
        broken = tmp_path / "huge_shape.kwsm"
        broken.write_bytes(blob.replace(old, new))
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", broken)
        assert result.returncode == 1
        assert "huge_shape.kwsm" in result.stderr
        assert "truncated" in result.stderr
        assert "Traceback" not in result.stderr

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
        ("batch_size", "many"), ("lr", "nan"), ("frame_ms", "nan"),
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

    @pytest.mark.parametrize("old,new,message", [
        (b"audio.bn2.gamma", b"audio.bn2.gamm\xff", "not UTF-8"),
        (b"audio.bn2.gamma", b"audio.bn1.gamma", "appears twice"),
    ], ids=["non-utf8-name", "repeated-name"])
    def test_bad_tensor_name_in_checkpoint_is_runtime_error(
            self, workspace, tmp_path, old, new, message):
        blob = workspace["ckpt"].read_bytes()
        assert blob.count(old) == 1
        broken = tmp_path / "bad_name.kwsm"
        broken.write_bytes(blob.replace(old, new))
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", broken)
        assert result.returncode == 1
        assert message in result.stderr
        assert "bad_name.kwsm" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("name,value", [
        ("audio.bn1.running_var", np.ones(1, dtype=np.float32)),
        ("audio.bn1.running_var", np.ones(3, dtype=np.float32)),
        ("audio.bn3.running_var", np.ones(2, dtype=np.float32)),
    ], ids=["broadcastable-buffer", "wrong-buffer", "extra-tensor"])
    def test_checkpoint_tensor_outside_the_model_is_runtime_error(
            self, workspace, tmp_path, name, value):
        ckpt = load_checkpoint(workspace["ckpt"])
        ckpt.tensors[name] = value
        broken = tmp_path / "bad_tensor.kwsm"
        save_checkpoint(broken, ckpt)
        result = run_cli("eval", "--manifest", workspace["manifest"],
                         "--ckpt", broken)
        assert result.returncode == 1
        assert name in result.stderr
        assert "Traceback" not in result.stderr

    def test_non_utf8_manifest_is_runtime_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"audio": "a.wav", "text": "\xff", "label": 1}\n')
        result = run_cli("eval", "--manifest", bad, "--ckpt", workspace["ckpt"])
        assert result.returncode == 1
        assert "bad.jsonl: not UTF-8" in result.stderr

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

    @pytest.mark.parametrize("sweep,column", [
        ("p=1..3", ["1", "2", "3"]),
        ("feature=mel,sdc", ["mel", "sdc"]),
        ("seed=1,2", ["1", "2"]),
    ])
    def test_any_key_sweeps_with_its_own_column(self, workspace, tmp_path,
                                                sweep, column):
        out = tmp_path / "grid.csv"
        result = run_cli("ablate", "--train-manifest", workspace["manifest"],
                         "--eval-manifest", workspace["manifest"],
                         "--sweep", sweep, "--epochs", "0",
                         "--config", workspace["root"] / "sdc.ini", "-o", out)
        assert result.returncode == 0, result.stderr
        lines = out.read_text().strip().split("\n")
        key = sweep.split("=")[0]
        assert lines[0] == f"{key},d,k,auc,eer"
        assert [line.split(",")[0] for line in lines[1:]] == column
        # the base d and k of sdc.ini in every cell
        assert {tuple(line.split(",")[1:3]) for line in lines[1:]} == {("1", "2")}

    @pytest.mark.parametrize("sweep", ["sdc=8-1-2-2", "d=0,1", "n=20",
                                       "lr=0,0.1", "feature=fft"])
    def test_bad_sweep_is_usage_error_before_training(self, workspace,
                                                      tmp_path, sweep):
        out = tmp_path / "grid.csv"
        result = run_cli("ablate", "--train-manifest", workspace["manifest"],
                         "--eval-manifest", workspace["manifest"],
                         "--sweep", sweep, "--epochs", "1",
                         "--config", workspace["root"] / "sdc.ini", "-o", out)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "auc=" not in result.stderr
        assert not out.exists()

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
        assert "environment:" not in result.stderr

    def test_info_logs_environment_first(self, second_wav, tmp_path):
        result = run_cli("extract", second_wav, "-o", tmp_path / "f.kwsf",
                         env_extra={"SDCKWS_LOG": "info",
                                    "OPENBLAS_NUM_THREADS": "1"})
        assert result.returncode == 0
        first = result.stderr.splitlines()[0]
        assert first.startswith("INFO sdckws: environment: ")
        for part in (f"numpy {np.__version__}", "scipy ", "blas ",
                     "OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=",
                     "MKL_NUM_THREADS=", f"cpus {os.cpu_count()}"):
            assert part in first

    def test_no_subcommand_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 2


@pytest.mark.parametrize("argv", [
    ["synth", "--keywords", "ab", "cd", "--per-keyword", "0"],
    ["synth", "--keywords", "ab", "cd", "--negative-ratio", "-1"],
    ["synth", "--keywords", "ab", "cd", "--negative-ratio", "nan"],
    ["synth", "--keywords", "ab", "cd", "--seed", "-1"],
    ["synth", "--keywords", "ab", "ab"],
    ["train", "--manifest", "m.jsonl", "--epochs", "1", "--seed", "-1"],
    ["train", "--manifest", "m.jsonl", "--epochs", "-1"],
    ["ablate", "--train-manifest", "m.jsonl", "--eval-manifest", "m.jsonl",
     "--sweep", "d=1..2", "--epochs", "-1"],
], ids=["per-keyword", "negative-ratio", "nan-ratio", "synth-seed",
        "duplicate-keywords", "train-seed", "train-epochs", "ablate-epochs"])
def test_bad_count_is_rejected_before_the_command_runs(argv, tmp_path):
    # main rejects these counts before a handler runs.
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "-o", str(tmp_path / "out")])
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()


def readme_commands():
    """Every `sdckws ...` command in README's bash blocks, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("sdckws "):
                commands.append(line.strip())
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert any("--sweep" in command for command in commands)
    parser = cli.build_parser()
    for command in commands:
        assert "$" not in command, command
        parser.parse_args(shlex.split(command)[1:])
