"""The traced benchmark's hooks still find the functions they wrap.

perfbench/spans.py wraps program functions by name; a rename would
only surface as a failed `perfbench/run.py --trace 1`. This runs its
`instrument` in a fresh process, then one front-end, and checks that
every analysis step recorded a span.
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
front = features.make_front_end(features.FeatureKind.SDC,
                                 features.FrontEndConfig())
front(Waveform(np.random.default_rng(0).normal(size=1600), 16000))
missing = set(spans.DSP_SPANS) - {span.name for span in tracer.spans}
assert not missing, sorted(missing)
"""


def test_instrument_wraps_every_traced_function():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    result = subprocess.run([sys.executable, "-c", PROBE],
                            cwd=ROOT / "perfbench", env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
