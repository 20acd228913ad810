"""Shipping gate: the seven release criteria, one test and one printed
pass/fail line each.

Every numeric check here runs against an oracle that is independent of
the implementation under test: scalar triple loops for the shifted
deltas, float64 central differences for the gradients, O(n^2) pair
sweeps for the rank metrics, and direct cosine sums for the DCT.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import sdckws.autodiff as ad
from sdckws.autodiff import Tensor, no_grad
from sdckws.data import load_manifest, synth_dataset
from sdckws.dsp import Waveform
from sdckws.features import (
    FeatureKind,
    FrontEndConfig,
    SdcConfig,
    make_front_end,
    mel_spectrogram,
    mfcc,
    sdc,
)
from sdckws.layers import (
    BatchNorm,
    BiGru,
    Conv2d,
    CrossAttention,
    Dense,
    named_tensors,
)
from sdckws.metrics import ScoredSet, auc, eer
from sdckws.model import (
    KwsModel,
    ModelConfig,
    ablation_grid,
    evaluate,
    history_csv,
    load_checkpoint,
    save_checkpoint,
    train,
)

SAMPLE_RATE = 16000


def _emit(capsys, text):
    with capsys.disabled():
        print(text, flush=True)


@contextmanager
def criterion(capsys, number, name, detail):
    """Print one gate line; FAIL still prints before the assertion surfaces."""
    notes = []
    try:
        yield notes
    except Exception:
        _emit(capsys, f"criterion {number} ({name}): FAIL  [{detail}]")
        raise
    extra = f" {'; '.join(notes)}" if notes else ""
    _emit(capsys, f"criterion {number} ({name}): PASS  [{detail}]{extra}")


# --- criterion 1: shifted-delta stacking vs a scalar triple loop ------------


def sdc_scalar_oracle(base, d, p, k):
    frames, n = base.shape
    out = np.zeros((frames, n * (k + 1)))
    out[:, :n] = base
    for t in range(frames):
        for i in range(k):
            ahead = min(max(t + i * p + d, 0), frames - 1)
            behind = min(max(t + i * p - d, 0), frames - 1)
            for j in range(n):
                out[t, n * (i + 1) + j] = base[ahead, j] - base[behind, j]
    return out


def test_criterion_1_sdc_matches_triple_loop(capsys):
    detail = "1000 random matrices, 24 (d, k) cells, exact equality, < 30 s"
    with criterion(capsys, 1, "shifted-delta oracle", detail) as notes:
        start = time.monotonic()
        cells = [(d, k) for d in range(1, 5) for k in range(5, 11)]
        rng = np.random.default_rng(101)
        for index in range(1000):
            d, k = cells[index % len(cells)]
            frames = int(rng.integers(1, 40))
            n = int(rng.integers(1, 11))
            base = rng.normal(size=(frames, n))
            got = sdc(base, SdcConfig(n=n, d=d, p=3, k=k)).data
            want = sdc_scalar_oracle(base, d, 3, k)
            assert got.shape == (frames, n * (k + 1))
            assert np.array_equal(got, want)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        notes.append(f"{elapsed:.1f} s")


# --- criterion 2: layer gradients vs float64 central differences -----------

H = 1e-5
REL_TOL = 1e-4


def objective(forward, probe):
    data = forward().data
    return float(data if probe is None else (data * probe).sum())


def numeric_grad(forward, leaf, probe):
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    with no_grad():
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + H
            hi = objective(forward, probe)
            flat[i] = keep - H
            lo = objective(forward, probe)
            flat[i] = keep
            grad.reshape(-1)[i] = (hi - lo) / (2.0 * H)
    return grad


def check_gradients(forward, leaves, seed):
    """Seeded backward against central differences of the same contraction.

    A scalar output is differentiated as it is; any other is contracted
    with a normal probe fixed by seed. A leaf is a Tensor, scored
    against its own largest gradient, or a (Tensor, width) pair whose
    width-wide column blocks (a GRU tensor's gates) are each scored
    against their own.
    """
    leaves = [leaf if isinstance(leaf, tuple) else (leaf, None)
              for leaf in leaves]
    for leaf, _ in leaves:
        leaf.grad = None
    out = forward()
    probe = (None if out.shape == ()
             else np.random.default_rng(seed).normal(size=out.shape))
    out.backward(probe)
    worst = 0.0
    for leaf, width in leaves:
        assert leaf.grad is not None
        numeric = numeric_grad(forward, leaf, probe)
        step = width or leaf.grad.shape[-1]
        for k in range(0, leaf.grad.shape[-1], step):
            block = (..., slice(k, k + step))
            analytic, approx = leaf.grad[block], numeric[block]
            scale = max(np.abs(analytic).max(), np.abs(approx).max(), 1e-6)
            worst = max(worst, np.abs(analytic - approx).max() / scale)
    assert worst < REL_TOL, worst
    return worst


def test_criterion_2_gradients_match_central_differences(capsys):
    detail = ("dense, conv2d, batch_norm, bigru, cross_attention, "
              "sigmoid_bce; >= 3 shapes each, rel < 1e-4, h = 1e-5, < 2 min")
    with criterion(capsys, 2, "autodiff gradient oracle", detail) as notes:
        start = time.monotonic()
        rng = np.random.default_rng(202)
        worst = 0.0

        def tensor(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        for i, (batch, dim_in, dim_out) in enumerate(
                [(2, 3, 4), (4, 5, 2), (3, 7, 7)]):
            layer = Dense(dim_in, dim_out, rng, dtype=np.float64)
            x = tensor(batch, dim_in)
            worst = max(worst, check_gradients(
                lambda: layer(x), [x, layer.weight, layer.bias], 300 + i))

        for i, (ch_in, ch_out, frames, width, stride) in enumerate(
                [(1, 2, 5, 6, 1), (2, 3, 7, 5, 2), (1, 1, 4, 4, 1)]):
            layer = Conv2d(ch_in, ch_out, rng, kernel=3, stride_t=stride,
                           dtype=np.float64)
            x = tensor(2, ch_in, frames, width)
            worst = max(worst, check_gradients(
                lambda: layer(x), [x, layer.kernel, layer.bias], 310 + i))

        for i, channels in enumerate([2, 3, 4]):
            layer = BatchNorm(channels, dtype=np.float64)
            x = tensor(3, channels, 4, 3 + i)
            worst = max(worst, check_gradients(
                lambda: layer(x, train=True), [x, layer.gamma, layer.beta],
                320 + i))

        for i, (dim_in, hidden, frames) in enumerate(
                [(3, 2, 4), (4, 3, 5), (2, 4, 3)]):
            layer = BiGru(dim_in, hidden, rng, dtype=np.float64)
            x = tensor(2, frames, dim_in)
            mask = np.ones((2, frames))
            if i == 1:
                mask[1, -2:] = 0.0

            def fwd():
                seq, final = layer(x, mask=mask)
                return ad.concat([seq.reshape(-1), final.reshape(-1)])

            params = [x] + [(p, hidden) for p in
                            named_tensors(layer, "g", Tensor).values()]
            worst = max(worst, check_gradients(fwd, params, 330 + i))

        for i, (dim, queries, keys) in enumerate(
                [(3, 2, 4), (4, 3, 3), (6, 1, 5)]):
            layer = CrossAttention(dim, rng, dtype=np.float64)
            q = tensor(2, queries, dim)
            kv = tensor(2, keys, dim)
            key_mask = np.ones((2, keys))
            if i == 2:
                key_mask[0, -1] = 0.0
            worst = max(worst, check_gradients(
                lambda: layer(q, kv, key_mask=key_mask),
                [q, kv] + list(named_tensors(layer, "a", Tensor).values()),
                340 + i))

        for i, size in enumerate([4, 3, 6]):
            logits = tensor(size)
            targets = (np.arange(size) % 2).astype(np.float64)
            worst = max(worst, check_gradients(
                lambda: ad.sigmoid_bce(logits, targets), [logits], 350 + i))

        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        notes.append(f"worst rel {worst:.2e}, {elapsed:.1f} s")


# --- criterion 3: rank metrics vs O(n^2) sweeps -----------------------------


def pairwise_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (pos.shape[0] * neg.shape[0])


def swept_eer(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    far = np.array([(neg >= t).mean() for t in thresholds])
    frr = np.array([(pos < t).mean() for t in thresholds])
    gap = frr - far
    idx = int(np.argmax(gap >= 0.0))
    if gap[idx] == 0.0:
        return float(far[idx])
    j = idx - 1
    fraction = -gap[j] / (gap[j + 1] - gap[j])
    return float(far[j] + fraction * (far[j + 1] - far[j]))


def test_criterion_3_metrics_match_brute_force(capsys):
    detail = "100 random sets up to 200 scores, |delta| < 1e-9; edge cases exact"
    with criterion(capsys, 3, "auc/eer oracle", detail):
        assert auc(ScoredSet([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0
        assert eer(ScoredSet([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 0.0
        assert auc(ScoredSet([0.8, 0.9, 0.1, 0.2], [0, 0, 1, 1])) == 0.0
        assert eer(ScoredSet([0.8, 0.9, 0.1, 0.2], [0, 0, 1, 1])) == 1.0
        assert auc(ScoredSet([0.5] * 4, [0, 1, 0, 1])) == 0.5
        assert eer(ScoredSet([0.5] * 4, [0, 1, 0, 1])) == 0.5
        rng = np.random.default_rng(303)
        for _ in range(100):
            size = int(rng.integers(2, 201))
            labels = np.zeros(size, dtype=np.int64)
            labels[: max(1, size // 2)] = 1
            labels = rng.permutation(labels)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(size), 2)  # forces ties
            scored = ScoredSet(scores, labels)
            assert abs(auc(scored) - pairwise_auc(scores, labels)) < 1e-9
            assert abs(eer(scored) - swept_eer(scores, labels)) < 1e-9


# --- criterion 4: front-end frame counts, widths, and transforms ------------


def test_criterion_4_front_end_invariants(capsys):
    detail = ("98 frames from 1 s; widths 40/13/39/13/13/360; RASTA offset"
              " < 1e-3 after frame 50; MFCC vs direct DCT < 1e-9")
    with criterion(capsys, 4, "front-end invariants", detail):
        rng = np.random.default_rng(404)
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        samples = (0.3 * np.sin(2 * np.pi * 440.0 * t)
                   + 0.05 * rng.normal(size=SAMPLE_RATE))
        wave = Waveform(samples, SAMPLE_RATE)
        cfg = FrontEndConfig()
        widths = {"mel": 40, "mfcc": 13, "mfcc-dd": 39, "plp": 13,
                  "rasta-plp": 13, "sdc": 360}
        from sdckws.features import FEATURE_NAMES

        for name, width in widths.items():
            front = make_front_end(FEATURE_NAMES[name], cfg, SdcConfig())
            feat = front(wave)
            assert feat.num_frames == 98, name
            assert feat.dim == width, name

        # A flat gain is a constant log-spectral offset; the band-pass
        # trajectory filter must cancel it once its memory fills.
        rasta = make_front_end(FEATURE_NAMES["rasta-plp"], cfg, SdcConfig())
        scaled = Waveform(samples * 2.0, SAMPLE_RATE)
        gap = np.abs(rasta(wave).data[50:] - rasta(scaled).data[50:])
        assert gap.max() < 1e-3

        log_mel = mel_spectrogram(wave, cfg).data
        cepstra = mfcc(wave, cfg).data
        direct = np.zeros_like(cepstra)
        bins = 40
        for j in range(13):
            scale = np.sqrt((1.0 if j == 0 else 2.0) / bins)
            for m in range(bins):
                direct[:, j] += (scale * log_mel[:, m]
                                 * np.cos(np.pi * j * (2 * m + 1) / (2 * bins)))
        assert np.abs(cepstra - direct).max() < 1e-9


# --- criteria 5 and 6: the desk-scale experiment ----------------------------


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    keywords = ["able", "ocean", "tiger", "winter"]
    train_manifest = load_manifest(
        synth_dataset(keywords, 25, 1.0, 11, root / "train")
    )
    eval_all = load_manifest(
        synth_dataset(keywords, 13, 1.0, 12, root / "eval")
    )
    positives = [ex for ex in eval_all if ex.label == 1][:50]
    negatives = [ex for ex in eval_all if ex.label == 0][:50]
    return train_manifest, positives + negatives


def desk_config(**overrides):
    base = dict(lr=1e-3, batch_size=32, seed=5)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.mark.slow
def test_criterion_5_desk_scale_end_to_end(capsys, desk_data):
    detail = ("100+100 train, 50+50 eval, sdc 40-1-3-8, <= 50 epochs:"
              " auc >= 0.95, eer <= 0.10, < 10 min; sdc auc >= mel auc - 0.02")
    with criterion(capsys, 5, "desk-scale training", detail) as notes:
        start = time.monotonic()
        train_manifest, eval_manifest = desk_data
        assert sum(ex.label for ex in train_manifest) == 100
        assert sum(1 - ex.label for ex in train_manifest) == 100
        assert sum(ex.label for ex in eval_manifest) == 50
        assert sum(1 - ex.label for ex in eval_manifest) == 50

        epochs = 15
        assert epochs <= 50
        model_sdc, _, _ = train(train_manifest, desk_config(), epochs)
        scored_sdc = evaluate(model_sdc, eval_manifest)
        auc_sdc, eer_sdc = auc(scored_sdc), eer(scored_sdc)

        mel_cfg = desk_config(feature=FeatureKind.MEL_SPEC)
        model_mel, _, _ = train(train_manifest, mel_cfg, epochs)
        scored_mel = evaluate(model_mel, eval_manifest)
        auc_mel = auc(scored_mel)

        elapsed = time.monotonic() - start
        assert auc_sdc >= 0.95
        assert eer_sdc <= 0.10
        assert auc_sdc >= auc_mel - 0.02
        assert elapsed < 600.0
        notes.append(
            f"sdc auc {auc_sdc:.4f} eer {eer_sdc:.4f},"
            f" mel auc {auc_mel:.4f}, {elapsed:.0f} s"
        )


@pytest.mark.slow
def test_criterion_6_reproducibility(capsys, desk_data, tmp_path):
    detail = ("same seed twice: byte-identical history csv and checkpoint;"
              " save/load round trip bit-exact")
    with criterion(capsys, 6, "reproducibility", detail):
        train_manifest, _ = desk_data
        paths = []
        histories = []
        for run in ("one", "two"):
            model, ckpt, history = train(train_manifest, desk_config(), 2)
            path = tmp_path / f"{run}.kwsm"
            save_checkpoint(path, ckpt)
            paths.append(path)
            histories.append(history_csv(history))
        assert histories[0] == histories[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()

        restored = load_checkpoint(paths[0])
        model = KwsModel.from_checkpoint(restored)
        resaved = tmp_path / "resaved.kwsm"
        save_checkpoint(resaved, model.to_checkpoint())
        assert resaved.read_bytes() == paths[0].read_bytes()
        for name, tensor in restored.tensors.items():
            again = model.to_checkpoint().tensors[name]
            assert tensor.tobytes() == again.tobytes(), name


# --- criterion 7: shift and block-count ablation grids ----------------------


@pytest.mark.slow
def test_criterion_7_ablation_grids(capsys, tmp_path):
    detail = "d grid {1..4} -> 4 rows, k grid {5..10} -> 6 rows; trend reported"
    with criterion(capsys, 7, "ablation grids", detail) as notes:
        keywords = ["able", "ocean", "tiger", "winter"]
        train_manifest = load_manifest(
            synth_dataset(keywords, 8, 1.0, 13, tmp_path / "train")
        )
        eval_manifest = load_manifest(
            synth_dataset(keywords, 6, 1.0, 14, tmp_path / "eval")
        )
        cfg = desk_config(batch_size=16)
        d_rows = ablation_grid(train_manifest, eval_manifest, "d",
                               [1, 2, 3, 4], base_cfg=cfg, epochs=8)
        k_rows = ablation_grid(train_manifest, eval_manifest, "k",
                               [5, 6, 7, 8, 9, 10], base_cfg=cfg, epochs=8)
        cells = lambda rows: [(r.cfg.sdc.d, r.cfg.sdc.k) for r in rows]
        assert cells(d_rows) == [(1, 8), (2, 8), (3, 8), (4, 8)]
        assert cells(k_rows) == [(1, k) for k in range(5, 11)]
        for row in d_rows + k_rows:
            assert 0.0 <= row.auc <= 1.0
            assert 0.0 <= row.eer <= 1.0
        notes.append(
            "d trend " + " ".join(f"d{r.value}:{r.auc:.3f}" for r in d_rows)
            + "; k trend " + " ".join(f"k{r.value}:{r.auc:.3f}" for r in k_rows)
        )
