"""The traced benchmark's hooks still find the functions they wrap.

perfbench/spans.py wraps program functions by name and replays layers
with the arguments it captured; a rename or a changed layer call would
only surface as a failed `perfbench/run.py --trace 1`. These run its
`instrument` in a fresh process, then each of the six front-ends or one
tiny training run, and check what the traced run reads from it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import numpy as np
import spans
from sdckws import features
from sdckws.dsp import Waveform

tracer = spans.Tracer()
spans.instrument(tracer)
wave = Waveform(np.random.default_rng(0).normal(size=1600), 16000)
for name, kind in features.FEATURE_NAMES.items():
    front = tracer.wrap(features.make_front_end(kind, features.FrontEndConfig()),
                        f"features.{name}")
    front(wave)
    # extract-1s charges dsp spans to the front-end span that encloses them.
    outer = tracer.spans[-1]
    found = {span.name for span in tracer.spans if span.parent is outer}
    missing = set(spans.DSP_SPANS) - found
    assert not missing, (name, sorted(missing))
"""

# 2 keywords x 5 clips and as many negatives; validation keeps one of
# each label, so 18 training examples make two full batches of 9.
REPLAY_PROBE = """
import math
import sys
import spans
from sdckws import data, model
from sdckws.features import FeatureKind, FrontEndConfig

tracer = spans.Tracer()
spans.instrument(tracer)
manifest = data.load_manifest(
    data.synth_dataset(["abc", "xyz"], 5, 1.0, 21, sys.argv[1]))
cfg = model.ModelConfig(
    feature=FeatureKind.MEL_SPEC,
    front_end=FrontEndConfig(num_mel=12, num_cepstra=12), conv_filters=4,
    gru_hidden=6, embed_dim=8, char_embed_dim=16, disc_hidden=5,
    dropout=0.0, batch_size=9, seed=3)
kws, _, _ = model.train(manifest, cfg, epochs=1)
assert tracer.step_ms, "no full training batch was traced"
bwd_ms, _ = spans.replay_backward(tracer, kws, repeats=1)
assert set(bwd_ms) == set(spans.LAYER_NAMES), sorted(bwd_ms)
assert all(math.isfinite(ms) for ms in bwd_ms.values()), bwd_ms
"""


def run_probe(probe, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    result = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                            cwd=ROOT / "perfbench", env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_instrument_wraps_every_traced_function():
    run_probe(PROBE)


def test_replay_times_every_layer_backward(tmp_path):
    run_probe(REPLAY_PROBE, tmp_path)
