"""The three benchmark workloads, each run in a process of its own.

    python3 perfbench/workloads.py --workload train-short --seed 1 \
        --seconds 25 --trace 0 --workdir .perfbench_work/w

prints one JSON object as its last line: the end-to-end metrics, the
same numbers under the names users know, the correctness checks, the
machine context, a digest of the generated inputs and, with --trace 1,
the per-layer metrics.  run.py starts this script; it is not meant to
be called by hand except to debug one workload.

All three are closed loops: one caller, and each call starts when the
previous one returns.  The program only ever sees the wavs and
manifests generated here from --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from sdckws import data, features, metrics, model  # noqa: E402
from sdckws.dsp import Waveform  # noqa: E402

import spans  # noqa: E402

WORKLOADS = ("train-short", "score-1s", "extract-1s")

# train-short: the README's synthetic set, four keywords x 25 positives plus
# as many negatives.  split_validation keeps 180 for training (five batches
# of 32 and one of 20) and 20 for validation.  Six batches per epoch keep
# the seed's effect on the longest clip, which sets each batch's padded
# length, small.
KEYWORDS = ("able", "ocean", "tiger", "winter")
TRAIN_PER_KEYWORD = 25
TRAIN_NEGATIVE_RATIO = 1.0
TRAIN_EPOCHS = 1
BATCH = 32
LR = 1e-3

# score-1s and extract-1s: one-second clips, a keyword of 3-12 letters
# placed at a seeded offset in noise.  Even clips carry their own text
# (label 1), odd clips another random word (label 0).
SAMPLE_RATE = data.SAMPLE_RATE
SCORE_CLIPS = 32
EXTRACT_CLIPS = 16
WORD_LETTERS = (3, 12)
BACKGROUND_RMS = 0.025

# Set-up runs this many times before the timed loop and again after each
# iteration of it, so that setup_s, the median of all of them, covers the
# same stretch of time as the throughput.  The host's speed changes in
# phases of seconds to minutes; a burst of set-ups at the start alone caught
# whichever phase the run began in.  Set-up takes 4-8% of each iteration's
# time.
SETUP_REPEATS = {"train-short": 10, "score-1s": 3, "extract-1s": 1}
# Batch-32 and batch-1 scores may differ by BLAS regrouping only; the
# repository's own regrouping test allows the same absolute difference.
SCORE_TOLERANCE = 1e-5
REPLAY_REPEATS = 3
KINDS = tuple(features.FEATURE_NAMES)


class Checks:
    """Correctness checks; each checked operation counts as one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def random_word(rng):
    length = int(rng.integers(WORD_LETTERS[0], WORD_LETTERS[1] + 1))
    return "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=length))


def write_one_second_set(seed, out_dir, count):
    """Write count 1 s wavs plus manifest.jsonl; returns the manifest path."""
    os.makedirs(os.path.join(out_dir, "wavs"), exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    records = []
    for i in range(count):
        word = random_word(rng)
        clip = data.render_keyword(word, rng).samples
        audio = BACKGROUND_RMS * rng.standard_normal(SAMPLE_RATE)
        offset = int(rng.integers(0, SAMPLE_RATE - clip.size + 1))
        audio[offset:offset + clip.size] += clip
        rel = os.path.join("wavs", f"u{i:03d}.wav")
        data.write_wav(os.path.join(out_dir, rel),
                       Waveform(np.clip(audio, -1.0, 1.0 - 1.0 / 32768), SAMPLE_RATE))
        text = word
        if i % 2:
            while text == word:
                text = random_word(rng)
        records.append({"audio": rel, "text": text, "label": 1 - i % 2})
    path = os.path.join(out_dir, "manifest.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(r) + "\n" for r in records)
    return path


def tree_digest(top):
    """sha256 over every generated file's relative path and bytes."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def time_setup(build, times, repeats):
    """Run build() repeats times, appending each duration; returns the last result."""
    for _ in range(repeats):
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def is_probability(value):
    return math.isfinite(value) and 0.0 <= value <= 1.0


def same_checkpoint(a, b):
    if a.config != b.config or a.step != b.step or a.tensors.keys() != b.tensors.keys():
        return False
    return all(a.tensors[k].dtype == b.tensors[k].dtype
               and a.tensors[k].shape == b.tensors[k].shape
               and a.tensors[k].tobytes() == b.tensors[k].tobytes()
               for k in a.tensors)


def model_config(seed):
    return model.ModelConfig(lr=LR, batch_size=BATCH, seed=seed)


def warm_up(kws, manifest):
    front = features.make_front_end(kws.cfg.feature, kws.cfg.front_end, kws.cfg.sdc)
    kws.score(front(data.read_wav(manifest[0].audio_ref)), manifest[0].text)


# -- train-short ---------------------------------------------------------


def train_short(seed, seconds, work, tracer):
    cfg = model_config(seed)
    # The benchmark's inputs, written once and untimed.
    data_dir = os.path.join(work, "train")
    manifest_path = data.synth_dataset(KEYWORDS, TRAIN_PER_KEYWORD,
                                       TRAIN_NEGATIVE_RATIO, seed, data_dir)

    def build():
        manifest = data.load_manifest(manifest_path)
        warm_up(model.KwsModel(cfg), manifest)
        return manifest

    setup_times = []
    manifest = time_setup(build, setup_times, SETUP_REPEATS["train-short"])
    train_set, val_set = model.split_validation(manifest, cfg.seed)
    checks = Checks()
    call_s, epoch_ms = [], []
    ckpt_path = os.path.join(work, "roundtrip.kwsm")
    deadline = time.perf_counter() + seconds
    while True:
        stamps = [time.perf_counter()]
        trained, ckpt, history = model.train(
            manifest, cfg, TRAIN_EPOCHS,
            log=lambda _row: stamps.append(time.perf_counter()))
        call_s.append(time.perf_counter() - stamps[0])
        epoch_ms += [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        for row in history:
            checks.record(math.isfinite(row.train_loss) and math.isfinite(row.val_loss),
                          f"epoch {row.epoch}: non-finite loss")
        model.save_checkpoint(ckpt_path, ckpt)
        checks.record(same_checkpoint(ckpt, model.load_checkpoint(ckpt_path)),
                      "checkpoint round trip changed a tensor")
        time_setup(build, setup_times, SETUP_REPEATS["train-short"])
        if time.perf_counter() >= deadline:
            break
    examples_per_s = len(call_s) * TRAIN_EPOCHS * len(train_set) / sum(call_s)
    # Per-layer figures are read before the padding check, so that the
    # check's evaluate pass is not counted as per-epoch validation.
    traced = (train_short_layers(tracer, trained)
              if isinstance(tracer, spans.Tracer) else None)
    check_padding(trained, val_set, checks)
    result = {
        "e2e": {
            "throughput_per_s": examples_per_s,
            "latency_p90_ms": percentile(epoch_ms, 90),
        },
        "named": [
            ("train_examples_per_s", examples_per_s, "1/s",
             f"{len(call_s)} train() calls of {TRAIN_EPOCHS} epoch(s)"
             f" x {len(train_set)} examples, validation included"),
            ("epoch_p50_ms", statistics.median(epoch_ms), "ms",
             f"{len(epoch_ms)} epochs"),
            ("epoch_p90_ms", percentile(epoch_ms, 90), "ms",
             f"{len(epoch_ms)} epochs"),
        ],
        "setup_times": setup_times,
        "checks": checks,
        "digest": tree_digest(data_dir),
    }
    if traced is not None:
        result["layers"] = traced
    return result


def check_padding(kws, examples, checks):
    """Batch-32 evaluate equals batch-1 score on each clip.

    The validation clips are 20-38 frames long, so the batch pads the
    audio side as well as the text side; a mask that let padded frames
    through the convolutions, GRUs or attention would show here.
    """
    scored = model.evaluate(kws, examples, BATCH)
    front = features.make_front_end(kws.cfg.feature, kws.cfg.front_end, kws.cfg.sdc)
    for i, example in enumerate(examples):
        single = kws.score(front(data.read_wav(example.audio_ref)), example.text)
        checks.record(abs(single - scored.scores[i]) <= SCORE_TOLERANCE,
                      f"validation clip {i}: batch-1 score {single!r} vs batch-32"
                      f" {scored.scores[i]!r}")


def train_short_layers(tracer, trained):
    out = {}
    fwd = {n: tracer.median_ms(f"layers.{n}", "train") for n in spans.LAYER_NAMES}
    bwd, peak = spans.replay_backward(tracer, trained, REPLAY_REPEATS)
    for n in spans.LAYER_NAMES:
        out[f"layers.{n}.fwd_ms"] = fwd[n]
        out[f"layers.{n}.bwd_ms"] = bwd[n]
    for n in spans.PEAK_LAYERS:
        out[f"layers.{n}.bwd_peak_mb"] = peak[n]
    adam_ms = tracer.median_ms("layers.adam.step", "train")
    step_ms = statistics.median(tracer.step_ms)
    out["layers.adam.step_ms"] = adam_ms
    out["autodiff.backward_ms"] = tracer.median_ms("autodiff.backward", "train")
    out["autodiff.nodes_per_step"] = statistics.median(tracer.nodes_per_step)
    for name in ("forward", "audio_encode", "text_encode", "match_score"):
        out[f"model.{name}_ms"] = tracer.median_ms(f"model.{name}", "train")
    for name in ("forward", "audio_encode"):
        out[f"model.{name}.self_ms"] = tracer.median_ms(f"model.{name}", "train",
                                                        self_time=True)
    out["model.validate_ms"] = tracer.median_ms("model.evaluate")
    out["model.to_checkpoint_ms"] = tracer.median_ms("model.to_checkpoint")
    out["model.step_ms"] = step_ms
    out["model.step_attributed_frac"] = (
        (sum(fwd.values()) + sum(bwd.values()) + adam_ms) / step_ms)
    out["features.sdc_ms"] = tracer.median_ms("features.sdc")
    counts = tracer.counts
    out["data.padded_frame_frac"] = counts["padded_frames"] / counts["batch_frames"]
    return out


# -- score-1s ------------------------------------------------------------


def score_1s(seed, seconds, work, tracer):
    cfg = model_config(seed)
    front = features.make_front_end(cfg.feature, cfg.front_end, cfg.sdc)

    # The benchmark's inputs: the wavs, their manifest and the fixed-seed
    # checkpoint.  Writing them is not the program's set-up, so it is untimed.
    data_dir = os.path.join(work, "score")
    manifest_path = write_one_second_set(seed, data_dir, SCORE_CLIPS)
    ckpt_path = os.path.join(data_dir, "model.kwsm")
    model.save_checkpoint(ckpt_path, model.KwsModel(cfg).to_checkpoint())

    def build():
        with tracer.span("model.load_checkpoint"):
            kws = model.KwsModel.from_checkpoint(model.load_checkpoint(ckpt_path))
        manifest = data.load_manifest(manifest_path)
        warm_up(kws, manifest)
        return kws, manifest

    setup_times = []
    kws, manifest = time_setup(build, setup_times, SETUP_REPEATS["score-1s"])
    # The batch-1 loop times KwsModel.score alone, so its features are
    # extracted here, outside the timed calls.
    feats = [front(data.read_wav(ex.audio_ref)) for ex in manifest]
    checks = Checks()
    eval_s, score_ms = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        scored = model.evaluate(kws, manifest, BATCH)
        eval_s.append(time.perf_counter() - start)
        with tracer.span("metrics.auc"):
            auc = metrics.auc(scored)
        with tracer.span("metrics.eer"):
            eer = metrics.eer(scored)
        checks.record(is_probability(auc) and is_probability(eer),
                      f"auc {auc!r} / eer {eer!r} outside [0, 1]")
        previous = tracer.set_phase("score")
        for i, (feat, example) in enumerate(zip(feats, manifest)):
            checks.record(is_probability(float(scored.scores[i])),
                          f"utterance {i}: batch score {scored.scores[i]!r}")
            start = time.perf_counter()
            single = kws.score(feat, example.text)
            score_ms.append(1e3 * (time.perf_counter() - start))
            checks.record(is_probability(single)
                          and abs(single - scored.scores[i]) <= SCORE_TOLERANCE,
                          f"utterance {i}: batch-1 score {single!r} vs batch-32"
                          f" {scored.scores[i]!r}")
        tracer.set_phase(previous)
        time_setup(build, setup_times, SETUP_REPEATS["score-1s"])
        if time.perf_counter() >= deadline:
            break
    utt_per_s = len(eval_s) * len(manifest) / sum(eval_s)
    result = {
        "e2e": {
            "throughput_per_s": utt_per_s,
            "latency_p90_ms": percentile(score_ms, 90),
        },
        "named": [
            ("eval_utt_per_s", utt_per_s, "1/s",
             f"{len(eval_s)} evaluate() calls over {len(manifest)}"
             " utterances at batch 32, wav read and front-end included"),
            ("score_p50_ms", statistics.median(score_ms), "ms",
             f"{len(score_ms)} KwsModel.score calls at batch 1"),
            ("score_p90_ms", percentile(score_ms, 90), "ms",
             f"{len(score_ms)} calls"),
        ],
        "setup_times": setup_times,
        "checks": checks,
        "digest": tree_digest(data_dir),
    }
    if isinstance(tracer, spans.Tracer):
        result["layers"] = score_1s_layers(tracer)
    return result


def score_1s_layers(tracer):
    out = {f"layers.{n}.fwd_ms": tracer.median_ms(f"layers.{n}", "eval")
           for n in spans.LAYER_NAMES}
    for name in ("forward", "audio_encode", "text_encode", "match_score"):
        out[f"model.{name}_ms"] = tracer.median_ms(f"model.{name}", "eval")
    for name in ("forward", "audio_encode"):
        out[f"model.{name}.self_ms"] = tracer.median_ms(f"model.{name}", "eval",
                                                        self_time=True)
    out["model.evaluate_ms"] = tracer.median_ms("model.evaluate")
    out["model.load_checkpoint_ms"] = tracer.median_ms("model.load_checkpoint")
    out["data.make_batches_ms"] = tracer.median_ms("data.make_batches", "eval")
    out["data.make_batches.self_ms"] = tracer.median_ms("data.make_batches", "eval",
                                                        self_time=True)
    out["data.read_wav_ms"] = tracer.median_ms("data.read_wav", "eval")
    out["features.sdc_ms"] = tracer.median_ms("features.sdc", "eval")
    out["dsp.analysis_ms"] = tracer.child_sum_ms(
        ("features.sdc",), spans.DSP_SPANS, "eval")
    out["metrics.auc_ms"] = tracer.median_ms("metrics.auc")
    out["metrics.eer_ms"] = tracer.median_ms("metrics.eer")
    return out


# -- extract-1s ----------------------------------------------------------


def extract_1s(seed, seconds, work, tracer):
    front_cfg, sdc_cfg = features.FrontEndConfig(), features.SdcConfig()
    kinds = features.FEATURE_NAMES
    # The benchmark's inputs, written once and untimed.
    data_dir = os.path.join(work, "extract")
    manifest_path = write_one_second_set(seed, data_dir, EXTRACT_CLIPS)
    out_dir = os.path.join(work, "kwsf")
    os.makedirs(out_dir, exist_ok=True)

    def build():
        manifest = data.load_manifest(manifest_path)
        fronts = {name: tracer.wrap(features.make_front_end(kind, front_cfg, sdc_cfg),
                                    f"features.{name}")
                  for name, kind in kinds.items()}
        wave = data.read_wav(manifest[0].audio_ref)
        for front in fronts.values():
            features.write_features(os.path.join(out_dir, "warm-up.kwsf"), front(wave))
        return fronts, [ex.audio_ref for ex in manifest]

    setup_times = []
    fronts, wavs = time_setup(build, setup_times, SETUP_REPEATS["extract-1s"])
    checks = Checks()
    pair_ms = []
    deadline = time.perf_counter() + seconds
    while True:
        for i, wav in enumerate(wavs):
            for name, front in fronts.items():
                target = os.path.join(out_dir, f"u{i:03d}-{name}.kwsf")
                start = time.perf_counter()
                feat = front(data.read_wav(wav))
                features.write_features(target, feat)
                elapsed = time.perf_counter() - start
                pair_ms.append(1e3 * elapsed)
                back = features.read_features(target)
                checks.record(
                    feat.dim == features.feature_dim(kinds[name], front_cfg, sdc_cfg)
                    and bool(np.isfinite(feat.data).all())
                    and back.kind == kinds[name]
                    and np.array_equal(back.data, feat.data.astype(np.float32)),
                    f"{wav} {name}: width, finiteness or .kwsf re-read")
        time_setup(build, setup_times, SETUP_REPEATS["extract-1s"])
        if time.perf_counter() >= deadline:
            break
    pairs_per_s = 1e3 * len(pair_ms) / sum(pair_ms)
    result = {
        "e2e": {
            "throughput_per_s": pairs_per_s,
            "latency_p90_ms": percentile(pair_ms, 90),
        },
        "named": [
            ("extract_utt_per_s", pairs_per_s, "1/s",
             f"(file, kind) pairs per second over"
             f" {len(pair_ms) // (len(wavs) * len(fronts))} passes of"
             f" {len(wavs)} files x {len(fronts)} kinds"),
            ("pair_p50_ms", statistics.median(pair_ms), "ms",
             f"{len(pair_ms)} read + front-end + write calls"),
            ("pair_p90_ms", percentile(pair_ms, 90), "ms", f"{len(pair_ms)} calls"),
        ],
        "setup_times": setup_times,
        "checks": checks,
        "digest": tree_digest(data_dir),
    }
    if isinstance(tracer, spans.Tracer):
        result["layers"] = extract_1s_layers(tracer)
    return result


def extract_1s_layers(tracer):
    out = {"data.read_wav_ms": tracer.median_ms("data.read_wav"),
           "features.write_features_ms": tracer.median_ms("features.write_features"),
           "dsp.analysis_ms": tracer.child_sum_ms(
               tuple(f"features.{name}" for name in KINDS), spans.DSP_SPANS)}
    for name in KINDS:
        out[f"features.{name}_ms"] = tracer.median_ms(f"features.{name}")
    return out


# -- process entry -------------------------------------------------------


def machine_context():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


RUNNERS = {"train-short": train_short, "score-1s": score_1s, "extract-1s": extract_1s}


def run(workload, seed, seconds, trace, work):
    tracer = spans.Tracer() if trace else spans.NullTracer()
    if trace:
        spans.instrument(tracer)
    load_before = os.getloadavg()
    result = RUNNERS[workload](seed, seconds, work, tracer)
    load_after = os.getloadavg()
    checks = result.pop("checks")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    context = machine_context()
    context["loadavg_before"] = load_before
    context["loadavg_after"] = load_after
    context["overloaded"] = max(load_before[0], load_after[0]) > context["nproc"]
    setup_times = result.pop("setup_times")
    result["e2e"] = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_mb,
                     **result["e2e"]}
    failed = len(checks.failures)
    result["named"] = [("setup_s", result["e2e"]["setup_s"], "s",
                        f"median of {len(setup_times)} set-ups through the run"),
                       ("peak_rss_mb", peak_mb, "MB", "ru_maxrss of this process"),
                       *result["named"],
                       ("failed_frac", failed / checks.attempted, "fraction",
                        f"{failed} of {checks.attempted} checked operations")]
    result.update(workload=workload, seed=seed, trace=bool(trace),
                  attempted=checks.attempted, failed=failed,
                  failures=checks.failures[:10], context=context)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
