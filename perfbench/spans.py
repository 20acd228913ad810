"""Spans around the program's public calls, recorded from outside it.

A traced workload process calls ``instrument`` once: it wraps public
functions of ``data``, ``dsp`` (as ``features`` imports them),
``features``, ``model``, ``layers`` and ``autodiff`` so that each call
records a span.  The twelve layers of every ``KwsModel`` built in the
process are wrapped per instance.  Nothing under ``src/`` is edited;
the wrappers live only in the traced process.

Spans are kept in memory.  A span's self time is its duration minus
the time covered by its direct children.  Every span also carries the
phase that was current when it started (``train``, ``train-partial``,
``eval``, ``score`` or ``replay``), so a layer called in a training step
is not mixed with the same layer called in validation.  ``train`` holds
only the steps on a full batch; the epoch's smaller remainder batch runs
in ``train-partial``, so every step figure is taken at the configured
batch size.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc

import numpy as np

from sdckws import data, features, layers, model
from sdckws.autodiff import Tensor

LAYER_NAMES = ("conv1", "bn1", "conv2", "bn2", "gru_a1", "gru_a2", "dense_a",
               "gru_t", "dense_t", "attn", "gru_d", "dense_out")
# Layers whose backward peak memory is reported: the two convolutions and
# the BiGRU whose 11520-wide input projection holds most parameters.
PEAK_LAYERS = ("conv1", "conv2", "gru_a1")
# gru_d feeds the model through its final state, the others through the
# per-frame sequence; a replay seeds the gradient on the output the model uses.
FINAL_STATE_LAYERS = ("gru_d",)
DSP_STEPS = ("pre_emphasize", "frame_signal", "apply_hamming", "power_spectrum")
DSP_SPANS = tuple(f"dsp.{step}" for step in DSP_STEPS)


class Span:
    __slots__ = ("name", "phase", "parent", "start", "end", "child_s")

    def __init__(self, name, phase, parent, start):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_s


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def wrap(self, fn, name):
        return fn

    def set_phase(self, phase):
        return None


class Tracer:
    """In-memory span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self.counts = {"padded_frames": 0, "batch_frames": 0}
        self.nodes_per_step = []
        self.step_ms = []
        self.step_start = None
        self.captured = {}        # layer name -> (args, kwargs) of the last full training step
        self.layer_classes = {}

    def set_phase(self, phase):
        previous = self.phase
        self.phase = phase
        return previous

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.phase, parent, time.perf_counter())
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        opened = self._open(name)
        try:
            yield opened
        finally:
            self._close(opened)

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            opened = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(opened)
        return traced

    # -- summaries -----------------------------------------------------

    def select(self, name, phase=None):
        return [s for s in self.spans
                if s.name == name and (phase is None or s.phase == phase)]

    def median_ms(self, name, phase=None, self_time=False):
        chosen = self.select(name, phase)
        if not chosen:
            raise LookupError(f"no span {name!r} in phase {phase!r}")
        values = [s.self_time if self_time else s.duration for s in chosen]
        return 1e3 * statistics.median(values)

    def child_sum_ms(self, parent_names, child_names, phase=None):
        """Median over the named parent spans of their time in named children."""
        totals = {id(s): 0.0 for s in self.spans
                  if s.name in parent_names and (phase is None or s.phase == phase)}
        for span in self.spans:
            if span.name in child_names and id(span.parent) in totals:
                totals[id(span.parent)] += span.duration
        if not totals:
            raise LookupError(f"no span among {parent_names} in phase {phase!r}")
        return 1e3 * statistics.median(totals.values())


def _graph_nodes(root):
    """Distinct tensors reachable from root through recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _traced_layer_class(tracer, cls, name):
    key = (cls, name)
    if key in tracer.layer_classes:
        return tracer.layer_classes[key]
    original = cls.__call__

    def __call__(self, *args, **kwargs):
        if tracer.phase == "train":
            tracer.captured[name] = (args, kwargs)
        opened = tracer._open(f"layers.{name}")
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer._close(opened)

    traced = type(f"Traced{cls.__name__}", (cls,), {"__call__": __call__})
    tracer.layer_classes[key] = traced
    return traced


def instrument(tracer):
    """Wrap the program's public calls for the rest of this process."""
    KwsModel = model.KwsModel

    # data: wav reads and batching.  make_batches is a generator, so each
    # yielded batch gets its own span and its padding is counted.
    data.read_wav = tracer.wrap(data.read_wav, "data.read_wav")
    make_batches = model.make_batches

    def traced_make_batches(*args, **kwargs):
        train_mode = kwargs.get("mode", "train") == "train"
        batches = make_batches(*args, **kwargs)
        while True:
            opened = tracer._open("data.make_batches")
            batch = next(batches, None)
            if batch is None:
                tracer.stack.pop()      # the call that found no batch is not a span
                return
            tracer._close(opened)
            if train_mode:
                b, t_max = batch.features.shape[:2]
                tracer.counts["batch_frames"] += b * t_max
                tracer.counts["padded_frames"] += (
                    b * t_max - int(batch.feature_lengths.sum()))
            yield batch

    model.make_batches = traced_make_batches

    # dsp: the analysis chain every front-end runs first.
    for step in DSP_STEPS:
        setattr(features, step,
                tracer.wrap(getattr(features, step), f"dsp.{step}"))
    features.write_features = tracer.wrap(features.write_features,
                                          "features.write_features")

    # features: every front-end built by train() or evaluate().
    model.make_front_end = lambda kind, cfg, sdc_cfg=None: tracer.wrap(
        features.make_front_end(kind, cfg, sdc_cfg),
        f"features.{model.KIND_NAMES[kind]}")

    # model: methods, plus per-instance layer wrappers set up at construction.
    init = KwsModel.__init__

    def traced_init(self, cfg):
        init(self, cfg)
        for name in LAYER_NAMES:
            layer = getattr(self, name)
            layer.__class__ = _traced_layer_class(tracer, type(layer), name)

    KwsModel.__init__ = traced_init
    forward = KwsModel.forward

    def traced_forward(self, batch, train=False, rng=None):
        if train:
            full = batch.size == self.cfg.batch_size
            tracer.set_phase("train" if full else "train-partial")
            tracer.step_start = time.perf_counter() if full else None
        opened = tracer._open("model.forward")
        try:
            return forward(self, batch, train, rng)
        finally:
            tracer._close(opened)

    KwsModel.forward = traced_forward
    for method, span_name in (("audio_encode", "model.audio_encode"),
                              ("text_encode", "model.text_encode"),
                              ("text_encode_batch", "model.text_encode"),
                              ("match_score", "model.match_score"),
                              ("to_checkpoint", "model.to_checkpoint")):
        setattr(KwsModel, method,
                tracer.wrap(getattr(KwsModel, method), span_name))

    evaluate = model.evaluate

    def traced_evaluate(*args, **kwargs):
        previous = tracer.set_phase("eval")
        opened = tracer._open("model.evaluate")
        try:
            return evaluate(*args, **kwargs)
        finally:
            tracer._close(opened)
            tracer.set_phase(previous)

    model.evaluate = traced_evaluate

    # autodiff and layers.Adam: whole-graph backward and the update.
    backward = Tensor.backward

    def traced_backward(self, grad=None):
        if tracer.phase != "train":
            return backward(self, grad)
        tracer.nodes_per_step.append(_graph_nodes(self))
        opened = tracer._open("autodiff.backward")
        try:
            return backward(self, grad)
        finally:
            tracer._close(opened)

    Tensor.backward = traced_backward
    adam_step = layers.Adam.step

    def traced_adam_step(self):
        opened = tracer._open("layers.adam.step")
        try:
            return adam_step(self)
        finally:
            tracer._close(opened)
            if tracer.phase == "train" and tracer.step_start is not None:
                tracer.step_ms.append(
                    1e3 * (time.perf_counter() - tracer.step_start))
                tracer.step_start = None

    layers.Adam.step = traced_adam_step


def replay_backward(tracer, kws, repeats):
    """Time each layer's backward alone at the shapes of the last full training step.

    Forward is re-run untimed before each timed backward.  The peak
    layers get one more replay under tracemalloc, whose peak above the
    level at the start of backward is reported in MB.
    """
    previous = tracer.set_phase("replay")
    params = list(kws.named_params().values())
    bwd_ms, peak_mb = {}, {}
    try:
        for name in LAYER_NAMES:
            args, kwargs = tracer.captured[name]
            layer = getattr(kws, name)
            times = []
            for rep in range(repeats + (name in PEAK_LAYERS)):
                # One leaf per captured tensor, shared where the step shared
                # it (attention gets the audio embedding as key and value).
                leaves = {id(a): Tensor(a.data, requires_grad=a.requires_grad)
                          for a in args if isinstance(a, Tensor)}
                out = layer(*[leaves.get(id(a), a) for a in args], **kwargs)
                if isinstance(out, tuple):
                    out = out[1 if name in FINAL_STATE_LAYERS else 0]
                seed = np.ones_like(out.data)
                measure_peak = rep == repeats
                if measure_peak:
                    tracemalloc.start()
                    base, _ = tracemalloc.get_traced_memory()
                start = time.perf_counter()
                out.backward(seed)
                elapsed = time.perf_counter() - start
                if measure_peak:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    peak_mb[name] = (peak - base) / 2**20
                else:
                    times.append(elapsed)
                for param in params:
                    param.grad = None
            bwd_ms[name] = 1e3 * statistics.median(times)
    finally:
        tracer.set_phase(previous)
    return bwd_ms, peak_mb

