"""Byte-edit fuzzing of the readers of outside input.

Each test takes a small valid file, applies one to three byte
replacements, insertions or deletions, or one truncation, and hands the
result to the reader. The reader must accept it or raise a typed error:
KwsError for `.kwsm`, `.kwsf` and manifest files, UsageError for the INI
file. Any other exception is a traceback a user would see.
"""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckws import cli
from sdckws.data import load_manifest
from sdckws.errors import KwsError
from sdckws.features import (
    FeatureKind,
    FeatureMatrix,
    FrontEndConfig,
    read_features,
    write_features,
)
from sdckws.model import (
    KwsModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)

FUZZ = settings(max_examples=50, deadline=None, derandomize=True)


def byte_edits(size, hot=None):
    """Edit lists for a size-byte file; hot (lo, hi) offsets draw as often as all."""
    spans = [st.integers(0, size - 1)]
    if hot is not None:
        spans.append(st.integers(hot[0], hot[1] - 1))
    where = st.one_of(*spans)
    edit = st.tuples(st.sampled_from(("replace", "insert", "delete")), where,
                     st.integers(0, 255))
    truncate = st.tuples(st.just("truncate"), where, st.just(0))
    return st.one_of(st.lists(edit, min_size=1, max_size=3),
                     truncate.map(lambda cut: [cut]))


def apply_edits(blob, edits):
    out = bytearray(blob)
    for op, at, value in edits:
        at = min(at, len(out))  # earlier deletions may shorten the file
        if op == "insert":
            out.insert(at, value)
        elif op == "truncate":
            del out[at:]
        elif at < len(out):
            if op == "replace":
                out[at] = value
            else:
                del out[at]
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ModelConfig(feature=FeatureKind.MEL_SPEC,
                      front_end=FrontEndConfig(num_mel=6, num_cepstra=6),
                      conv_filters=2, gru_hidden=3, embed_dim=4,
                      char_embed_dim=4, disc_hidden=3, seed=1)
    save_checkpoint(root / "valid.kwsm", KwsModel(cfg).to_checkpoint())
    rng = np.random.default_rng(0)
    write_features(root / "valid.kwsf",
                   FeatureMatrix(rng.normal(size=(6, 4)), FeatureKind.MFCC))
    for name in ("x.wav", "y.wav"):
        (root / name).write_bytes(b"")
    (root / "valid.jsonl").write_text(
        '{"audio": "x.wav", "text": "abc", "label": 1}\n'
        '{"audio": "y.wav", "text": "don\'t", "label": 0}\n')
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (root / "valid.ini").write_text(ini)
    return root


def edited_copy(root, name, edits):
    blob = (root / f"valid{Path(name).suffix}").read_bytes()
    path = root / name
    path.write_bytes(apply_edits(blob, edits))
    return path


@pytest.fixture(scope="module")
def kwsm_layout(files):
    """The valid .kwsm's size and the offset just past its config block."""
    blob = (files / "valid.kwsm").read_bytes()
    # Magic (4 bytes), version (2), block length (4), then the block.
    return len(blob), 10 + int.from_bytes(blob[6:10], "little")


def test_edit_helpers():
    assert apply_edits(b"abcd", [("replace", 1, 0x7A)]) == b"azcd"
    assert apply_edits(b"abcd", [("insert", 4, 0x7A)]) == b"abcdz"
    assert apply_edits(b"abcd", [("delete", 0, 0), ("delete", 9, 0)]) == b"bcd"
    assert apply_edits(b"abcd", [("truncate", 1, 0)]) == b"a"


@FUZZ
@given(data=st.data())
def test_kwsm_edits_raise_only_typed_errors(files, kwsm_layout, data):
    size, block_end = kwsm_layout
    edits = data.draw(byte_edits(size, hot=(0, block_end)))
    path = edited_copy(files, "edited.kwsm", edits)
    try:
        # An edited block can ask for any model size; from_checkpoint
        # checks it against the tensors before drawing a weight.
        KwsModel.from_checkpoint(load_checkpoint(path))
    except KwsError:
        pass


@FUZZ
@given(data=st.data())
def test_kwsf_edits_raise_only_typed_errors(files, data):
    size = len((files / "valid.kwsf").read_bytes())
    path = edited_copy(files, "edited.kwsf", data.draw(byte_edits(size)))
    try:
        read_features(path)
    except KwsError:
        pass


@FUZZ
@given(data=st.data())
def test_manifest_edits_raise_only_typed_errors(files, data):
    size = len((files / "valid.jsonl").read_bytes())
    path = edited_copy(files, "edited.jsonl", data.draw(byte_edits(size)))
    try:
        load_manifest(path)
    except KwsError:
        pass


@FUZZ
@given(data=st.data())
def test_ini_edits_raise_only_usage_errors(files, data):
    size = len((files / "valid.ini").read_bytes())
    path = edited_copy(files, "edited.ini", data.draw(byte_edits(size)))
    try:
        cli.build_model_config(argparse.Namespace(config=str(path)))
    except cli.UsageError:
        pass
