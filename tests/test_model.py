"""Matcher architecture, checkpoints, and the training loop."""

import argparse
import dataclasses
import gc
import inspect
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import sdckws.autodiff as ad
from sdckws import cli
from sdckws import model as model_module
from sdckws.data import (
    ALPHABET,
    Batch,
    load_manifest,
    synth_dataset,
    tokenize,
)
from sdckws.errors import (
    ConfigMismatch,
    DegenerateDataset,
    EmptyDataset,
    FormatError,
    InsufficientMemory,
    NonFiniteValue,
    ShapeError,
)
from sdckws.features import FeatureKind, FrontEndConfig, SdcConfig
from sdckws.layers import Adam, BatchNorm, BiGru, glorot_uniform
from sdckws.model import (
    ARCH_KEYS,
    CONFIG_KEYS,
    Checkpoint,
    HISTORY_HEADER,
    KwsModel,
    ModelConfig,
    config_with,
    epochs_jsonl,
    evaluate,
    history_csv,
    load_checkpoint,
    save_checkpoint,
    split_validation,
    step_peak_bytes,
    strided_length,
    train,
)


def small_cfg(**overrides):
    """A tiny mel-input matcher that keeps unit tests fast."""
    base = dict(
        feature=FeatureKind.MEL_SPEC,
        front_end=FrontEndConfig(num_mel=12, num_cepstra=12),
        conv_filters=4,
        gru_hidden=6,
        embed_dim=8,
        char_embed_dim=16,
        disc_hidden=5,
        dropout=0.0,
        batch_size=8,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_default_sdc_width(self):
        assert ModelConfig().feature_width == 360

    def test_mel_width(self):
        assert small_cfg().feature_width == 12

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_cfg(dropout=1.0)
        with pytest.raises(ValueError):
            small_cfg(lr=0.0)
        with pytest.raises(ValueError, match="lr"):
            small_cfg(lr=float("nan"))
        with pytest.raises(ValueError, match="lr"):
            small_cfg(lr=float("inf"))
        with pytest.raises(ValueError):
            small_cfg(conv_filters=0)
        # 1e306 ms is inf samples: a ValueError naming the key, not an
        # OverflowError from the sample count.
        with pytest.raises(ValueError, match="frame_ms"):
            ModelConfig(front_end=FrontEndConfig(frame_ms=1e306, hop_ms=1e305))

    def test_sdc_base_must_match_mel_count(self):
        with pytest.raises(ValueError, match="num_mel"):
            ModelConfig(feature=FeatureKind.SDC, sdc=SdcConfig(n=13))

    def test_dict_round_trip(self):
        cfg = small_cfg(dropout=0.3, lr=2e-3, stride_t=3)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip_sdc(self):
        cfg = ModelConfig(sdc=SdcConfig(40, 2, 4, 5), seed=9)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_field_order_is_kwsm_block_order(self):
        assert list(ModelConfig().to_dict()) == [
            "feature", "sdc", "frame_ms", "hop_ms", "pre_emphasis", "nfft",
            "num_mel", "num_cepstra", "log_floor", "delta_window",
            "conv_filters", "kernel", "stride_t", "gru_hidden", "embed_dim",
            "char_embed_dim", "disc_hidden", "dropout", "lr", "batch_size",
            "seed",
        ]

    def test_arch_keys_leave_out_training_fields(self):
        assert ARCH_KEYS == (
            "feature", "sdc", "frame_ms", "hop_ms", "pre_emphasis", "nfft",
            "num_mel", "num_cepstra", "log_floor", "delta_window",
            "conv_filters", "kernel", "stride_t", "gru_hidden", "embed_dim",
            "char_embed_dim", "disc_hidden",
        )

    @pytest.mark.parametrize("key,value", [
        ("conv_filters", "0"), ("dropout", "1.5"), ("num_mel", "12"),
        ("lr", "nan"), ("frame_ms", "nan"), ("log_floor", "inf"),
        ("pre_emphasis", "1.5"), ("seed", "-1"), ("hop_ms", "0.01"),
        ("frame_ms", "1e306"),
    ])
    def test_from_dict_out_of_range_is_format_error(self, key, value):
        with pytest.raises(FormatError, match=key):
            ModelConfig.from_dict({key: value})

    def test_readme_config_example_sets_every_key(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config file", 1)[1]
        ini = section.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(ini)
        values = cli.load_ini(path)
        assert set(values) == (
            set(ModelConfig().to_dict()) - {"sdc"} | {"n", "d", "p", "k"})
        args = argparse.Namespace(config=path)
        assert cli.build_model_config(args) == ModelConfig()


class TestConfigKeys:
    def test_sections_and_kwsm_order(self):
        assert list(CONFIG_KEYS) == [
            "feature", "n", "d", "p", "k", "frame_ms", "hop_ms",
            "pre_emphasis", "nfft", "num_mel", "num_cepstra", "log_floor",
            "delta_window", "conv_filters", "kernel", "stride_t",
            "gru_hidden", "embed_dim", "char_embed_dim", "disc_hidden",
            "dropout", "lr", "batch_size", "seed",
        ]
        sections = {key: spec.section for key, spec in CONFIG_KEYS.items()}
        assert {k for k, s in sections.items() if s == "sdc"} == set("ndpk")
        assert sections["num_mel"] == "frontend"
        assert sections["feature"] == sections["lr"] == "model"

    def test_config_with_replaces_keys_in_every_section(self):
        cfg = config_with(ModelConfig(), {"d": 2, "num_cepstra": 20,
                                          "lr": 0.01})
        assert cfg == ModelConfig(sdc=SdcConfig(d=2), lr=0.01,
                                  front_end=FrontEndConfig(num_cepstra=20))
        assert config_with(cfg, {}) == cfg

    @pytest.mark.parametrize("values", [{"d": 0}, {"n": 20}, {"lr": 0.0}])
    def test_config_with_rejects_invalid_result(self, values):
        with pytest.raises(ValueError):
            config_with(ModelConfig(), values)

    def test_sdc_flag_replaces_the_whole_section(self, tmp_path):
        path = tmp_path / "d2.ini"
        path.write_text("[sdc]\nd = 2\np = 4\n")
        args = argparse.Namespace(config=path, sdc=SdcConfig.parse("40-1-3-8"))
        assert cli.build_model_config(args).sdc == SdcConfig(40, 1, 3, 8)


class TestStridedLength:
    @pytest.mark.parametrize("length,stride,want", [
        (98, 2, 49), (97, 2, 49), (96, 2, 48), (1, 2, 1), (5, 3, 2),
        (6, 3, 2), (7, 1, 7),
    ])
    def test_table(self, length, stride, want):
        assert strided_length(length, stride) == want

    def test_vectorized(self):
        np.testing.assert_array_equal(
            strided_length(np.array([98, 97, 1]), 2), [49, 49, 1]
        )


@pytest.fixture(scope="module")
def default_model():
    return KwsModel(ModelConfig(seed=1))


@pytest.fixture(scope="module")
def alone_audio(default_model):
    """40 one-second sdc clips and each one's eval audio embedding alone."""
    feats = np.random.default_rng(9).normal(
        size=(40, 98, 360)).astype(np.float32)
    alone = [default_model.audio_encode(f[None], [98])[0].data[0]
             for f in feats]
    return feats, alone


def capture_projected(monkeypatch):
    """What each BiGru call given its pre-activations receives, in order."""
    captured = []
    call = BiGru.__call__

    def capture(layer, x, mask, projected=False):
        if projected:
            captured.append(x.data.copy())
        return call(layer, x, mask, projected)

    monkeypatch.setattr(BiGru, "__call__", capture)
    return captured


class TestFullSizeShapes:
    def test_audio_embedding(self, default_model):
        feats = np.random.default_rng(0).normal(size=(1, 98, 360)).astype(np.float32)
        embed, frame_mask = default_model.audio_encode(feats, [98])
        assert embed.shape == (1, 49, 128)
        np.testing.assert_array_equal(frame_mask.sum(axis=1), [49])

    def test_text_embedding(self, default_model):
        tokens = np.array([tokenize("hello")])
        embed = default_model.text_encode(tokens, np.ones((1, 5), np.float32))
        assert embed.shape == (1, 5, 128)

    def test_feature_width_mismatch(self, default_model):
        with pytest.raises(ConfigMismatch, match="360"):
            default_model.audio_encode(np.zeros((1, 10, 100), dtype=np.float32),
                                       [10])

    def test_audio_features_must_be_batched(self, default_model):
        with pytest.raises(ShapeError, match=r"\[B, T, D\]"):
            default_model.audio_encode(np.zeros((10, 360), dtype=np.float32),
                                       [10])

    @pytest.mark.parametrize("shape", [(360,), (1, 10, 360)])
    def test_score_features_must_be_a_matrix(self, default_model, shape):
        with pytest.raises(ShapeError, match=r"\[T, D\]"):
            default_model.score(np.zeros(shape, dtype=np.float32), "able")

    def test_zero_frame_features_are_a_shape_error(self, default_model):
        with pytest.raises(ShapeError, match=re.escape("(1, 0, 360)")):
            default_model.score(np.zeros((0, 360), dtype=np.float32), "ab")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_score_rejects_non_finite_features(self, default_model, value):
        feats = np.zeros((10, 360), dtype=np.float32)
        feats[4, 7] = value
        with pytest.raises(NonFiniteValue):
            default_model.score(feats, "able")

    def test_eval_conv_stack_holds_two_activations(self, default_model):
        # Eval audio_encode on 4 one-second sdc clips: each conv-stack
        # output is freed once the next layer has consumed it, and conv2
        # pads one example at a time, so the peak is two [4, 32, 49, 360]
        # activations and one example's padded frame.
        feats = np.random.default_rng(3).normal(
            size=(4, 98, 360)).astype(np.float32)
        activation = 4 * 32 * 49 * 360 * 4
        frame = 32 * 51 * 362 * 4
        gc.collect()
        tracemalloc.start()
        try:
            default_model.audio_encode(feats, [98] * 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * activation + frame + 2 * 2**20

    def test_eval_conv_stack_runs_one_example_at_a_time(self, default_model):
        # In eval the conv stack runs per example, and its rows go
        # through gru_a1's projection in chunks, so the peak is one chunk
        # of gru_a1's input (all 392 rows here), the [8, 49, 6H]
        # pre-activations, two one-example activations and one padded
        # frame: less than the two batch activations a batch-wide stack
        # holds.
        feats = np.random.default_rng(4).normal(
            size=(8, 98, 360)).astype(np.float32)
        chunk = min(model_module.GRU_CHUNK_ROWS, 8 * 49) * 32 * 360 * 4
        pre = 8 * 49 * 6 * 64 * 4
        activation = 32 * 49 * 360 * 4
        frame = 32 * 51 * 362 * 4
        gc.collect()
        tracemalloc.start()
        try:
            default_model.audio_encode(feats, [98] * 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= chunk + pre + 2 * activation + frame + 2 * 2**20

    def test_eval_peak_holds_one_chunk_of_gru_a1_input(self, default_model):
        # At batch 32, gru_a1's [32, 49, 32 * 360] input would be 72 MB;
        # eval holds one GRU_CHUNK_ROWS chunk of it, the [32, 49, 6H]
        # pre-activations, and the conv stack's two one-example
        # activations and padded frame.
        feats = np.random.default_rng(6).normal(
            size=(32, 98, 360)).astype(np.float32)
        chunk = model_module.GRU_CHUNK_ROWS * 32 * 360 * 4
        pre = 32 * 49 * 6 * 64 * 4
        conv_stack = 2 * 32 * 49 * 360 * 4 + 32 * 51 * 362 * 4
        gc.collect()
        tracemalloc.start()
        try:
            default_model.audio_encode(feats, [98] * 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunk < 32 * 49 * 32 * 360 * 4 / 2
        assert peak <= chunk + pre + conv_stack + 2 * 2**20

    def test_eval_conv_stack_is_exact_per_example(self, default_model,
                                                  monkeypatch):
        # gru_a1's pre-activations for a padded batch hold, row for row,
        # what each example gives alone, and exact zeros past its length.
        captured = capture_projected(monkeypatch)
        rng = np.random.default_rng(5)
        lengths = [98, 37, 5, 60, 1]
        feats = np.zeros((len(lengths), 98, 360), dtype=np.float32)
        for i, n in enumerate(lengths):
            feats[i, :n] = rng.normal(size=(n, 360))
        default_model.audio_encode(feats, lengths)
        for i, n in enumerate(lengths):
            default_model.audio_encode(feats[i : i + 1, :n], [n])
        together, alone = captured[0], captured[1:]
        assert together.shape == (5, 49, 6 * 64)
        for i, n in enumerate(lengths):
            rows = strided_length(n, 2)
            assert np.array_equal(together[i, :rows], alone[i][0]), i
            assert not together[i, rows:].any(), i

    def test_one_row_chunk_matches_one_whole_batch_gemm(self, default_model,
                                                        monkeypatch):
        # Full 1 s clips fill the first chunk, and a 1-frame clip is left
        # as the last chunk's only row. A one-row GEMM would go to gemv and
        # round that row unlike the batch projected as one chunk.
        captured = capture_projected(monkeypatch)
        full, rest = divmod(model_module.GRU_CHUNK_ROWS, 49)
        lengths = [98] * full + ([2 * rest] if rest else []) + [1]
        rng = np.random.default_rng(8)
        feats = np.zeros((len(lengths), 98, 360), dtype=np.float32)
        for i, n in enumerate(lengths):
            feats[i, :n] = rng.normal(size=(n, 360))
        default_model.audio_encode(feats, lengths)
        monkeypatch.setattr(model_module, "GRU_CHUNK_ROWS", 10**6)
        default_model.audio_encode(feats, lengths)
        chunked, whole = captured
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("size", [1, 3, 8, 9, 17, 32, 40])
    def test_eval_audio_rows_match_single_examples(self, default_model,
                                                   alone_audio, size):
        # Batch sizes that put the gru_a1 chunk boundaries at different
        # rows, and inside examples, leave every audio embedding as it is
        # for the clip alone.
        feats, want = alone_audio
        for start in range(0, len(feats), size):
            part = feats[start : start + size]
            embed, _ = default_model.audio_encode(part, [98] * len(part))
            for i, row in enumerate(embed.data, start):
                assert np.array_equal(row, want[i]), (size, i)

    @pytest.mark.parametrize("lengths", [[25, 20], [20, 0], [20]])
    def test_bad_lengths_are_a_shape_error(self, default_model, lengths):
        feats = np.zeros((2, 20, 360), dtype=np.float32)
        with pytest.raises(ShapeError, match=re.escape(f"{lengths}") + ".*T=20"):
            default_model.audio_encode(feats, lengths)

    def test_score_is_probability_and_reproducible(self, default_model):
        feats = np.random.default_rng(2).normal(size=(30, 360)).astype(np.float32)
        first = default_model.score(feats, "able")
        assert 0.0 < first < 1.0
        assert default_model.score(feats, "able") == first

    def test_parameter_inventory(self, default_model):
        params = default_model.named_params()
        assert len(params) == 36
        assert all(p.data.dtype == np.float32 for p in params.values())
        assert params["text.embed.table"].shape == (28, 512)
        assert set(default_model.named_buffers()) == {
            "audio.bn1.running_mean", "audio.bn1.running_var",
            "audio.bn2.running_mean", "audio.bn2.running_var",
        }

    def test_fresh_weights_are_the_per_direction_draws(self, default_model):
        # Each BiGru's fused w [in, 6H] and b [6H] hold, forward gates then
        # backward ones, what separate per-direction layers drew from the
        # same generator: conv kernels, then each GRU direction's Wz, Wr,
        # Wh, Uz, Ur, Uh, then the dense and embedding weights, in
        # construction order. Biases start at zero and draw nothing.
        cfg = default_model.cfg
        rng = np.random.default_rng(cfg.seed)
        ch, hidden, width = cfg.conv_filters, cfg.gru_hidden, cfg.feature_width

        def kernel(c_in):
            return glorot_uniform(rng, (ch, c_in, 3, 3), c_in * 9, ch * 9)

        def gru(in_dim, size):
            w, u = [], []
            for _ in range(2):
                w += [glorot_uniform(rng, (in_dim, size), in_dim, size)
                      for _ in range(3)]
                u += [glorot_uniform(rng, (size, size), size, size)
                      for _ in range(3)]
            return {"w": np.concatenate(w, axis=1),
                    "u_zr": np.stack([np.concatenate(u[:2], axis=1),
                                      np.concatenate(u[3:5], axis=1)]),
                    "u_h": np.stack([u[2], u[5]])}

        def dense(in_dim, out_dim):
            return {"weight": glorot_uniform(rng, (in_dim, out_dim), in_dim,
                                             out_dim)}

        want = {"audio.conv1": {"kernel": kernel(1)},
                "audio.conv2": {"kernel": kernel(ch)},
                "audio.gru1": gru(ch * width, hidden),
                "audio.gru2": gru(2 * hidden, hidden),
                "audio.dense": dense(2 * hidden, cfg.embed_dim)}
        want["text.embed"] = {"table": glorot_uniform(
            rng, (len(ALPHABET), cfg.char_embed_dim), len(ALPHABET),
            cfg.char_embed_dim)}
        want["text.gru"] = gru(cfg.char_embed_dim, hidden)
        want["text.dense"] = dense(2 * hidden, cfg.embed_dim)
        for proj in ("q_proj", "k_proj", "v_proj", "out_proj"):
            want[f"extract.attn.{proj}"] = dense(cfg.embed_dim, cfg.embed_dim)
        # The key projection draws as a dense layer does, but has no bias.
        want["extract.attn"] = want.pop("extract.attn.k_proj")
        want["extract.attn"]["k_proj"] = want["extract.attn"].pop("weight")
        want["disc.gru"] = gru(cfg.embed_dim, cfg.disc_hidden)
        want["disc.dense"] = dense(2 * cfg.disc_hidden, 1)
        params = default_model.named_params()
        drawn = {f"{prefix}.{name}": array for prefix, arrays in want.items()
                 for name, array in arrays.items()}
        for name, array in drawn.items():
            assert np.array_equal(params[name].data, array), name
        for name in set(params) - set(drawn):
            assert not params[name].data.any() or name.endswith(".gamma"), name
        for prefix in ("audio.gru1", "audio.gru2", "text.gru", "disc.gru"):
            assert not params[f"{prefix}.b"].data.any()


def random_batch(rng, width, sizes=(5, 9), token_counts=(3, 2)):
    batch = len(sizes)
    t_max, n_max = max(sizes), max(token_counts)
    feats = np.zeros((batch, t_max, width), dtype=np.float32)
    tokens = np.zeros((batch, n_max), dtype=np.int64)
    for i, (t, n) in enumerate(zip(sizes, token_counts)):
        feats[i, :t] = rng.normal(size=(t, width))
        tokens[i, :n] = rng.integers(0, 28, size=n)
    labels = (np.arange(batch) % 2).astype(np.float32)
    return Batch(feats, np.array(sizes, dtype=np.int64), tokens,
                 np.array(token_counts, dtype=np.int64), labels)


class TestSmallModel:
    def test_forward_shapes(self):
        model = KwsModel(small_cfg())
        batch = random_batch(np.random.default_rng(0), 12)
        probs, logits = model.forward(batch)
        assert probs.shape == (2,)
        assert logits.shape == (2,)
        assert np.all((probs.data > 0) & (probs.data < 1))

    def test_eval_records_no_graph(self):
        # With grad enabled, an eval-mode forward or audio_encode records
        # no node: the program never differentiates inference.
        model = KwsModel(small_cfg(dropout=0.2))
        batch = random_batch(np.random.default_rng(12), 12, sizes=(7, 11))
        probs, logits = model.forward(batch, train=False)
        embed, _ = model.audio_encode(batch.features, batch.feature_lengths,
                                      train=False)
        for out in (probs, logits, embed):
            assert not out.requires_grad
            assert out._node is None

    def test_padding_invariance_is_exact(self):
        # Padded frames are masked after each conv and inside the GRUs,
        # so extra padding must not change an example's score at all.
        model = KwsModel(small_cfg())
        rng = np.random.default_rng(1)
        short = random_batch(rng, 12, sizes=(6, 11), token_counts=(4, 2))
        alone = Batch(
            short.features[:1, :6].copy(), np.array([6]),
            short.tokens[:1, :4].copy(), np.array([4]),
            short.labels[:1].copy(),
        )
        together, _ = model.forward(short)
        solo, _ = model.forward(alone)
        assert together.data[0] == solo.data[0]

    def test_score_matches_its_row_of_forward(self):
        # score is forward on a padded batch of one, so it agrees with the
        # example's row of a bigger padded batch up to BLAS row rounding.
        model = KwsModel(small_cfg())
        batch = random_batch(np.random.default_rng(11), 12, sizes=(7, 13, 4),
                             token_counts=(3, 5, 2))
        probs, _ = model.forward(batch)
        for i in range(batch.size):
            feats = batch.features[i, :batch.feature_lengths[i]]
            text = "".join(ALPHABET[t]
                           for t in batch.tokens[i, :batch.token_lengths[i]])
            assert abs(model.score(feats, text) - probs.data[i]) <= 1e-6

    def test_train_mode_padding_leaves_real_frames_unchanged(self):
        # The train-mode conv stack and batch norm see the valid frames
        # only, packed, so appending padded frames moves no bit of a
        # real frame's embedding.
        model = KwsModel(small_cfg())
        batch = random_batch(np.random.default_rng(7), 12, sizes=(9, 14))
        padded = np.pad(batch.features, ((0, 0), (0, 8), (0, 0)))
        short, frame_mask = model.audio_encode(batch.features,
                                               batch.feature_lengths, train=True)
        long, _ = model.audio_encode(padded, batch.feature_lengths,
                                     train=True)
        for i, n in enumerate(frame_mask.sum(axis=1).astype(int)):
            assert np.array_equal(long.data[i, :n], short.data[i, :n]), i

    def test_gru_a1_reads_bn2s_output_in_place(self, monkeypatch):
        # Train-mode batch norm writes frame-major, so gru_a1's [M, C * F]
        # input rows are a view of bn2's output, not a transposed copy.
        model = KwsModel(small_cfg(dropout=0.2))
        batch = random_batch(np.random.default_rng(7), 12, sizes=(9, 1, 14))
        seen = {}
        gru_call = BiGru.__call__

        def gru(layer, x, *args, **kwargs):
            seen.setdefault("gru_a1", x.data)
            return gru_call(layer, x, *args, **kwargs)

        norm_call = BatchNorm.__call__

        def norm(layer, *args):
            seen["bn2"] = norm_call(layer, *args)
            return seen["bn2"]

        monkeypatch.setattr(BiGru, "__call__", gru)
        monkeypatch.setattr(BatchNorm, "__call__", norm)
        model.audio_encode(batch.features, batch.feature_lengths, train=True,
                           rng=np.random.default_rng(3))
        rows, out = seen["gru_a1"], seen["bn2"].data
        assert rows.shape == (out.shape[1], out.shape[0] * out.shape[2])
        assert np.shares_memory(rows, out)

    def test_gradient_reaches_every_parameter(self):
        model = KwsModel(small_cfg())
        batch = random_batch(np.random.default_rng(2), 12)
        _, logits = model.forward(batch, train=True)
        loss = ad.sigmoid_bce(logits, batch.labels)
        loss.backward()
        params = model.named_params()
        missing = [name for name, p in params.items() if p.grad is None]
        assert missing == []
        # Every parameter must receive signal.
        still = [name for name, p in params.items()
                 if not np.abs(p.grad).max() > 0]
        assert still == []
        # So must every gate block of each GRU tensor, in each direction:
        # a stacked tensor would otherwise hide a dead gate.
        dead_gates = []
        for name, p in params.items():
            gru = name.rpartition(".")[0]
            if f"{gru}.u_h" not in params:
                continue
            hidden = params[f"{gru}.u_h"].shape[-1]
            for d, grad in enumerate(p.grad if p.ndim == 3 else [p.grad]):
                for k in range(0, grad.shape[-1], hidden):
                    if not np.abs(grad[..., k : k + hidden]).max() > 0:
                        dead_gates.append((name, d, k // hidden))
        assert dead_gates == []

    def test_overfits_a_tiny_set(self):
        model = KwsModel(small_cfg(seed=0))
        batch = random_batch(np.random.default_rng(3), 12,
                             sizes=(7, 9, 6, 8, 7, 9),
                             token_counts=(3, 2, 4, 2, 3, 2))
        optimizer = Adam(model.named_params().values(), lr=0.02)
        losses = []
        for _ in range(80):
            _, logits = model.forward(batch, train=True)
            loss = ad.sigmoid_bce(logits, batch.labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < 0.1 * losses[0]

    def test_dropout_changes_training_forward_only(self):
        model = KwsModel(small_cfg(dropout=0.5))
        batch = random_batch(np.random.default_rng(4), 12)
        train_a, _ = model.forward(batch, train=True,
                                   rng=np.random.default_rng(10))
        train_b, _ = model.forward(batch, train=True,
                                   rng=np.random.default_rng(11))
        assert not np.array_equal(train_a.data, train_b.data)
        eval_a, _ = model.forward(batch)
        eval_b, _ = model.forward(batch)
        np.testing.assert_array_equal(eval_a.data, eval_b.data)

    def test_graph_size_does_not_grow_with_frames(self):
        # Counted as the benchmark's autodiff.nodes_per_step is: distinct
        # tensors reachable from the loss through recorded parents.
        def graph_size(root):
            seen, stack = {id(root)}, [root]
            while stack:
                for parent in stack.pop()._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return len(seen)

        model = KwsModel(small_cfg(dropout=0.2))
        counts = []
        for frames in (12, 24):
            batch = random_batch(np.random.default_rng(5), 12,
                                 sizes=(frames, frames - 3))
            _, logits = model.forward(batch, train=True,
                                      rng=np.random.default_rng(6))
            counts.append(graph_size(ad.sigmoid_bce(logits, batch.labels)))
        assert counts[0] == counts[1]

    def test_probs_are_expit_of_logits_outside_the_graph(self):
        model = KwsModel(small_cfg(dropout=0.2))
        batch = random_batch(np.random.default_rng(8), 12, sizes=(7, 11))
        probs, logits = model.forward(batch, train=True,
                                      rng=np.random.default_rng(9))
        expect = expit(logits.data)
        assert probs.dtype == expect.dtype == np.float32
        assert probs.data.tobytes() == expect.tobytes()
        assert probs._backward_fn is None and probs._parents == ()
        assert logits._backward_fn is not None

    def test_every_autodiff_op_is_reached(self):
        # The op kinds a training loss's backward runs, each named by the
        # op whose closure is a node's backward, must be every op autodiff
        # defines: an op the loss stops reaching fails here.
        model = KwsModel(small_cfg(dropout=0.2))
        batch = random_batch(np.random.default_rng(8), 12, sizes=(7, 11))
        _, logits = model.forward(batch, train=True,
                                  rng=np.random.default_rng(9))
        stack = [ad.sigmoid_bce(logits, batch.labels)]
        seen, reached = set(), set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward_fn is not None:
                reached.add(node._backward_fn.__qualname__.split(".")[0])
            stack.extend(node._parents)
        defined = {name for name, fn in vars(ad).items()
                   if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                   and "_from_op" in fn.__code__.co_names}
        assert reached == defined


class TestCheckpointFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = KwsModel(small_cfg(seed=7))
        model.training_step = 42
        path = tmp_path / "m.kwsm"
        save_checkpoint(path, model.to_checkpoint())
        restored = KwsModel.from_checkpoint(load_checkpoint(path))
        assert restored.training_step == 42
        assert restored.cfg == model.cfg
        for name, param in model.named_params().items():
            other = restored.named_params()[name]
            assert param.data.tobytes() == other.data.tobytes(), name
        for name, buf in model.named_buffers().items():
            assert buf.tobytes() == restored.named_buffers()[name].tobytes()

    def test_save_is_deterministic(self, tmp_path):
        model = KwsModel(small_cfg(seed=7))
        save_checkpoint(tmp_path / "a.kwsm", model.to_checkpoint())
        save_checkpoint(tmp_path / "b.kwsm", model.to_checkpoint())
        assert (tmp_path / "a.kwsm").read_bytes() == (
            tmp_path / "b.kwsm"
        ).read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.kwsm"
        save_checkpoint(path, KwsModel(small_cfg()).to_checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.kwsm"
        path.write_bytes(b"AAAA" + b"\x00" * 60)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.kwsm"
        save_checkpoint(path, KwsModel(small_cfg()).to_checkpoint())
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_arch_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.kwsm"
        save_checkpoint(path, KwsModel(small_cfg()).to_checkpoint())
        other = KwsModel(small_cfg(gru_hidden=7))
        with pytest.raises(ConfigMismatch, match="gru_hidden"):
            other.load_state(load_checkpoint(path))

    def test_missing_tensor_rejected(self):
        model = KwsModel(small_cfg())
        ckpt = model.to_checkpoint()
        tensors = dict(ckpt.tensors)
        del tensors["disc.dense.weight"]
        with pytest.raises(ConfigMismatch, match="disc.dense.weight"):
            model.load_state(Checkpoint(tensors, ckpt.config, ckpt.step))

    @pytest.mark.parametrize("edit", [
        lambda config: dict(config, frame_ms="25"),
        lambda config: {k: v for k, v in config.items() if k != "kernel"},
    ], ids=["respelled-value", "omitted-default-key"])
    def test_block_compares_decoded_values(self, edit):
        model = KwsModel(small_cfg(seed=7))
        ckpt = model.to_checkpoint()
        assert ckpt.config["frame_ms"] == "25.0"
        assert ckpt.config["kernel"] == "3"
        edited = Checkpoint(ckpt.tensors, edit(ckpt.config), ckpt.step)
        restored = KwsModel.from_checkpoint(edited)
        assert restored.cfg == model.cfg
        for name, param in model.named_params().items():
            other = restored.named_params()[name]
            assert param.data.tobytes() == other.data.tobytes(), name

    @pytest.mark.parametrize("key, value, tensor", [
        ("conv_filters", "5", "audio.conv1.kernel"),
        ("kernel", "5", "audio.conv1.kernel"),
        ("num_mel", "13", "audio.gru1.w"),
        ("gru_hidden", "7", "audio.gru1.w"),
        ("char_embed_dim", "17", "text.embed.table"),
        ("embed_dim", "12899", "extract.attn.q_proj.weight"),
        ("disc_hidden", "6", "disc.gru.u_h"),
    ])
    def test_block_checked_against_tensors_before_weights_are_drawn(
            self, monkeypatch, key, value, tensor):
        ckpt = KwsModel(small_cfg()).to_checkpoint()
        edited = Checkpoint(ckpt.tensors, dict(ckpt.config, **{key: value}),
                            ckpt.step)

        def no_model(*args):
            raise AssertionError("KwsModel built before the shape check")

        monkeypatch.setattr(KwsModel, "__init__", no_model)
        with pytest.raises(ConfigMismatch, match=re.escape(repr(tensor))):
            KwsModel.from_checkpoint(edited)

    def test_decoded_arch_mismatch_names_the_key(self):
        model = KwsModel(small_cfg())
        ckpt = model.to_checkpoint()
        config = dict(ckpt.config, stride_t="1")
        with pytest.raises(ConfigMismatch, match="stride_t"):
            model.load_state(Checkpoint(ckpt.tensors, config, ckpt.step))

    def test_lr_and_seed_are_not_arch_keys(self, tmp_path):
        # Training knobs may differ between saver and loader.
        path = tmp_path / "m.kwsm"
        save_checkpoint(path, KwsModel(small_cfg()).to_checkpoint())
        other = KwsModel(small_cfg(lr=0.5, seed=99, batch_size=2))
        other.load_state(load_checkpoint(path))

    def test_save_holds_no_copy_of_the_payload(self, default_model, tmp_path):
        # Each tensor's buffer goes to the file as it is.
        ckpt = default_model.to_checkpoint()
        payload = sum(t.nbytes for t in ckpt.tensors.values())
        gc.collect()
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "m.kwsm", ckpt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * payload

    def test_file_is_header_table_then_payload(self, tmp_path):
        import struct

        ckpt = KwsModel(small_cfg(seed=3)).to_checkpoint()
        config = dict(ckpt.config, training_step=str(ckpt.step))
        blob = "\n".join(f"{k}={v}" for k, v in config.items()).encode()
        want = [model_module.KWSM_MAGIC,
                struct.pack("<HI", model_module.KWSM_VERSION, len(blob)), blob,
                struct.pack("<I", len(ckpt.tensors))]
        for name, tensor in ckpt.tensors.items():
            want += [struct.pack("<H", len(name)), name.encode(),
                     struct.pack(f"<B{tensor.ndim}I", tensor.ndim, *tensor.shape)]
        want += [t.astype("<f4").tobytes() for t in ckpt.tensors.values()]
        save_checkpoint(tmp_path / "m.kwsm", ckpt)
        assert (tmp_path / "m.kwsm").read_bytes() == b"".join(want)


class TestCheckpointLoad:
    """Loading copies each tensor once and draws no initialization."""

    def test_from_checkpoint_draws_nothing(self, default_model, monkeypatch):
        ckpt = default_model.to_checkpoint()

        def no_rng(*args, **kwargs):
            raise AssertionError("from_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        state = KwsModel.from_checkpoint(ckpt)._state()
        assert list(state) == list(ckpt.tensors)
        for name, array in state.items():
            want = ckpt.tensors[name]
            assert array.dtype == want.dtype and array.shape == want.shape
            assert array.tobytes() == want.tobytes(), name

    def test_from_checkpoint_allocates_one_copy(self, default_model):
        ckpt = default_model.to_checkpoint()
        tensor_bytes = sum(t.nbytes for t in ckpt.tensors.values())
        gc.collect()
        tracemalloc.start()
        try:
            KwsModel.from_checkpoint(ckpt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tensor_bytes + 2**20

    def test_load_checkpoint_copies_each_tensor_once(self, default_model,
                                                     tmp_path):
        # The file's bytes plus one copy of each tensor, and no slice of
        # the file on top (gru1's w alone is 8.8 MB).
        path = tmp_path / "m.kwsm"
        save_checkpoint(path, default_model.to_checkpoint())
        gc.collect()
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tensor_bytes = sum(t.nbytes for t in ckpt.tensors.values())
        assert peak <= path.stat().st_size + tensor_bytes + 2**20


class TestHistoryCsv:
    def test_header_and_float_round_trip(self):
        from sdckws.model import EpochStats

        rows = [EpochStats(0, 0.7015625, 0.650001, 0.512345678901234, 0.25)]
        text = history_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == HISTORY_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == rows[0].train_loss
        assert float(cells[3]) == rows[0].val_auc


def tiny_dataset(tmp_path, per_keyword=4, seed=21):
    path = synth_dataset(["abc", "xyz"], per_keyword, 1.0, seed,
                         tmp_path / f"ds{seed}")
    return load_manifest(path)


class TestTrain:
    def test_epochs_zero_returns_initialization(self, tmp_path):
        manifest = tiny_dataset(tmp_path)
        cfg = small_cfg(batch_size=4)
        model, ckpt, history = train(manifest, cfg, epochs=0)
        assert history == []
        assert ckpt.step == 0
        fresh = KwsModel(cfg)
        for name, param in fresh.named_params().items():
            got = model.named_params()[name]
            np.testing.assert_array_equal(param.data, got.data, err_msg=name)

    def test_history_and_determinism(self, tmp_path):
        manifest = tiny_dataset(tmp_path)
        cfg = small_cfg(batch_size=4, lr=1e-3)

        def run(out):
            model, ckpt, history = train(manifest, cfg, epochs=2)
            save_checkpoint(out, ckpt)
            return history

        first = run(tmp_path / "a.kwsm")
        second = run(tmp_path / "b.kwsm")
        assert [row.epoch for row in first] == [0, 1]
        assert history_csv(first) == history_csv(second)
        assert (tmp_path / "a.kwsm").read_bytes() == (
            tmp_path / "b.kwsm"
        ).read_bytes()
        for row in first:
            assert np.isfinite([row.train_loss, row.val_loss,
                                row.val_auc, row.val_eer]).all()

    def test_returned_model_matches_checkpoint(self, tmp_path):
        manifest = tiny_dataset(tmp_path)
        model, ckpt, _ = train(manifest, small_cfg(batch_size=4), epochs=1)
        for name, param in model.named_params().items():
            assert param.data.tobytes() == ckpt.tensors[name].tobytes(), name

    def test_log_callback_sees_each_epoch(self, tmp_path):
        manifest = tiny_dataset(tmp_path)
        seen = []
        train(manifest, small_cfg(batch_size=4), epochs=2, log=seen.append)
        assert [row.epoch for row in seen] == [0, 1]

    def test_epoch_costs_beside_the_history_row(self, tmp_path, monkeypatch):
        # The largest global gradient norm is the largest of the norms the
        # optimizer saw; the measured fields do not enter row equality.
        manifest = tiny_dataset(tmp_path)
        step = Adam.step
        norms = []

        def record_norm(self):
            norms.append(np.sqrt(sum(
                np.sum(p.grad.astype(np.float64) ** 2)
                for p in self.params if p.grad is not None)))
            step(self)

        monkeypatch.setattr(Adam, "step", record_norm)
        _, _, first = train(manifest, small_cfg(batch_size=4), epochs=1)
        (row,) = first
        assert row.max_grad_norm == pytest.approx(max(norms), rel=1e-12)
        assert 0 < row.step_ms_p50 <= row.step_ms_p90
        assert row.examples_per_s > 0
        assert row.peak_rss_mb > 1
        _, _, second = train(manifest, small_cfg(batch_size=4), epochs=1)
        assert second == first
        record = json.loads(epochs_jsonl(first))
        assert record == dataclasses.asdict(row)

    def test_sum_of_squares_is_finite_exactly_for_finite_float32(self):
        top = np.finfo(np.float32).max
        assert np.isfinite(model_module._sum_of_squares(
            np.full((64, 1024), top, np.float32)))
        for bad in (np.inf, -np.inf, np.nan):
            grad = np.full((3, 5), top, np.float32)
            grad[2, 4] = bad
            assert not np.isfinite(model_module._sum_of_squares(grad))

    def test_empty_manifest(self):
        with pytest.raises(EmptyDataset):
            train([], small_cfg(), epochs=1)

    def test_single_class_manifest(self, tmp_path):
        manifest = tiny_dataset(tmp_path)
        positives = [ex for ex in manifest if ex.label == 1]
        with pytest.raises(DegenerateDataset):
            train(positives, small_cfg(), epochs=1)

    def test_negative_epochs(self, tmp_path):
        manifest = tiny_dataset(tmp_path)
        with pytest.raises(ValueError):
            train(manifest, small_cfg(), epochs=-1)

    def test_non_finite_loss_stops_before_the_update(self, tmp_path,
                                                      monkeypatch):
        manifest = tiny_dataset(tmp_path)
        forward = KwsModel.forward
        updates = []
        monkeypatch.setattr(Adam, "step", lambda self: updates.append(1))

        def nan_logits(self, batch, train=False, rng=None):
            probs, logits = forward(self, batch, train, rng)
            return probs, logits * float("nan")

        monkeypatch.setattr(KwsModel, "forward", nan_logits)
        with pytest.raises(NonFiniteValue, match="epoch 0 step 0: loss is nan"):
            train(manifest, small_cfg(batch_size=4), epochs=1)
        assert updates == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_names_the_parameter(self, tmp_path,
                                                     monkeypatch):
        manifest = tiny_dataset(tmp_path)
        forward = KwsModel.forward
        updates = []
        monkeypatch.setattr(Adam, "step", lambda self: updates.append(1))

        def nan_gradient(self, batch, train=False, rng=None):
            probs, logits = forward(self, batch, train, rng)
            # The zero-initialized output bias scaled by 1e60 adds 0 to
            # the loss, and its gradient, scaled likewise, overflows
            # float32 to inf.
            return probs, logits + self.dense_out.bias * 1e30 * 1e30

        monkeypatch.setattr(KwsModel, "forward", nan_gradient)
        with pytest.raises(NonFiniteValue,
                           match="epoch 0 step 0: gradient of disc.dense.bias"):
            train(manifest, small_cfg(batch_size=4), epochs=1)
        assert updates == []

    def test_evaluate_scores_in_manifest_order(self, tmp_path):
        manifest = tiny_dataset(tmp_path)
        model = KwsModel(small_cfg(batch_size=4))
        scored = evaluate(model, manifest)
        assert scored.scores.shape == (len(manifest),)
        np.testing.assert_array_equal(
            scored.labels, [ex.label for ex in manifest]
        )
        # Same call is bit-identical; another batch size may regroup the
        # BLAS reductions, so that comparison gets a small tolerance.
        repeat = evaluate(model, manifest)
        np.testing.assert_array_equal(scored.scores, repeat.scores)
        regrouped = evaluate(model, manifest, batch_size=3)
        np.testing.assert_allclose(scored.scores, regrouped.scores, atol=1e-5)


def one_second_step(feature, size):
    """(bytes retained after the forward, step peak) of a default model.

    One training forward and backward, dropout on, on `size` 1 s clips
    (98 frames) of 5 tokens each, measured by tracemalloc.
    """
    model = KwsModel(ModelConfig(feature=feature, seed=1))
    batch = random_batch(np.random.default_rng(12), model.cfg.feature_width,
                         sizes=(98,) * size, token_counts=(5,) * size)
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        _, logits = model.forward(batch, train=True,
                                  rng=np.random.default_rng(13))
        loss = ad.sigmoid_bce(logits, batch.labels)
        retained = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return model, retained, peak


class TestTrainingMemory:
    """A training step keeps what its backward reads, and train checks it fits."""

    def test_one_second_step_fits_its_budget(self):
        for feature in (FeatureKind.MFCC, FeatureKind.MEL_SPEC,
                        FeatureKind.SDC):
            model, retained, peak = one_second_step(feature, 8)
            # The guard's estimate must not undercount on any front-end.
            estimate = step_peak_bytes(model, 8, 98, 5)
            assert peak <= estimate, feature
        # sdc, the last and widest front-end, keeps its per-example budget.
        mib_per_example = 8 * 2**20
        assert retained <= 14 * mib_per_example
        assert peak <= 20 * mib_per_example
        # Nor overcount so far on sdc that the guard refuses steps that fit.
        assert estimate <= 1.5 * peak

    def test_backward_frees_gru_a1_input_before_its_gradient(self):
        # The sdc step peaks as gru_a1.w's gradient is handed over. Its
        # [N, C * F] input is freed before that input's gradient is made,
        # and the gradient reaches bn2 as views, masked in place there,
        # so past what the forward retained the peak holds that weight
        # gradient and under 1 MiB more.
        model, retained, peak = one_second_step(FeatureKind.SDC, 8)
        assert peak <= retained + model.gru_a1.w.data.nbytes + 2**20

    def test_narrow_step_fits_its_estimate_at_a_large_batch(self):
        # On mfcc the recurrent stack holds more per frame than the convs,
        # and at batch 64 the fixed terms no longer cover an undercount.
        model, _, peak = one_second_step(FeatureKind.MFCC, 64)
        assert peak <= step_peak_bytes(model, 64, 98, 5)

    def test_estimate_scales_with_post_conv_frames_and_width(self):
        model = KwsModel(ModelConfig())
        params = sum(p.data.size for p in model.named_params().values())
        per_example = 49 * 4 * 64 + 5 * 512 + 49 * 32 * 360
        assert step_peak_bytes(model, 8, 98, 5) == 4 * (
            model_module.STEP_PEAK_COPIES * 8 * per_example + 2 * params)
        assert step_peak_bytes(model, 8, 97, 5) == step_peak_bytes(
            model, 8, 98, 5)
        fixed = step_peak_bytes(model, 0, 98, 5)
        assert step_peak_bytes(model, 16, 98, 5) - fixed == 2 * (
            step_peak_bytes(model, 8, 98, 5) - fixed)
        assert step_peak_bytes(model, 8, 98, 6) - step_peak_bytes(
            model, 8, 98, 5) == 4 * model_module.STEP_PEAK_COPIES * 8 * 512

    def test_guard_stops_training_before_the_first_forward(self, tmp_path,
                                                           monkeypatch):
        manifest = tiny_dataset(tmp_path)
        cfg = ModelConfig(batch_size=4, seed=3)
        monkeypatch.setattr(model_module, "available_memory",
                            lambda: 10 * 2**20)
        calls = []
        monkeypatch.setattr(KwsModel, "forward",
                            lambda *args, **kwargs: calls.append(1))
        with pytest.raises(InsufficientMemory) as info:
            train(manifest, cfg, epochs=1)
        assert calls == []
        found = re.fullmatch(
            r"epoch 0 step 0: a training step on features \[4, (\d+), 360\]"
            r" and tokens \[4, (\d+)\] needs about ([\d.]+) MiB, but 10\.0"
            r" MiB is available",
            str(info.value))
        assert found is not None, str(info.value)
        need = step_peak_bytes(KwsModel(cfg), 4, int(found[1]), int(found[2]))
        assert found[3] == f"{need / 2**20:.1f}"

    def test_meminfo_is_read_for_mem_available(self, tmp_path, monkeypatch):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:        8000000 kB\n"
                           "MemFree:         1000000 kB\n"
                           "MemAvailable:    2048 kB\n")
        monkeypatch.setattr(model_module, "MEMINFO_PATH", str(meminfo))
        assert model_module.available_memory() == 2048 * 1024

    def test_no_guard_without_meminfo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model_module, "MEMINFO_PATH",
                            str(tmp_path / "missing"))
        assert model_module.available_memory() is None
        _, ckpt, _ = train(tiny_dataset(tmp_path), small_cfg(batch_size=4),
                           epochs=1)
        assert ckpt.step > 0


class TestSplitValidation:
    def fake(self, labels):
        from sdckws.data import Example

        return [Example(f"/tmp/{i}.wav", "ab", label)
                for i, label in enumerate(labels)]

    def test_stratified_and_deterministic(self):
        manifest = self.fake([1] * 30 + [0] * 20)
        train_a, val_a = split_validation(manifest, seed=4)
        train_b, val_b = split_validation(manifest, seed=4)
        assert [ex.audio_ref for ex in val_a] == [ex.audio_ref for ex in val_b]
        assert len(val_a) == 5  # 3 positives + 2 negatives at 10%
        assert sum(ex.label for ex in val_a) == 3
        assert len(train_a) + len(val_a) == 50

    def test_small_groups_keep_one_each(self):
        manifest = self.fake([1, 1, 0, 0])
        train_set, val_set = split_validation(manifest, seed=0)
        assert sorted(ex.label for ex in val_set) == [0, 1]
        assert sorted(ex.label for ex in train_set) == [0, 1]

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataset):
            split_validation(self.fake([1, 1, 1]), seed=0)
