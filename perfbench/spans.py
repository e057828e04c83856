"""In-memory span recorder and the timing wrappers around each layer.

The benchmark explains its end-to-end numbers layer by layer without
touching the program: :func:`install` replaces public functions of each
``repro`` layer with thin wrappers that open a span, call the original and
close the span.  Every span records its name, start, end, parent span and
the operation it belongs to; spans stay in memory and are written out once,
when the run ends (:meth:`Recorder.dump`).

The wrappers are installed before the workload builds anything, so code
that binds a kernel at build time (generated replay code closes over the
conv backend methods and the optimizer's update kernel; streaming layers
hold their backend object) binds the wrapper.  While the recorder is
disabled a wrapper costs one attribute test and a call.

Span names are ``<module>.<stage>``, e.g. ``autograd.graph.lower``; the
per-layer metric for a span family is its name plus ``_s`` (summed time)
or a count.  :func:`summarize` turns the spans of a set of operations into
those metrics.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

#: Root span of one measured operation (a PIT run, a sweep, a pool tick).
OP = "op"

#: Span families whose summed time is reported as ``<family>_s``.  A family
#: may group several span names (``conv_bwd`` is both adjoint kernels).
TIMED_FAMILIES: Dict[str, tuple] = {
    "autograd.graph.trace": ("autograd.graph.trace",),
    "autograd.graph.optimize": ("autograd.graph.optimize",),
    "autograd.graph.lower": ("autograd.graph.lower",),
    "autograd.graph.compile": ("autograd.graph.compile",),
    "autograd.graph.driven_epoch": ("autograd.graph.driven_epoch",),
    "autograd.graph.replayed_epoch": ("autograd.graph.replayed_epoch",),
    "autograd.backends.conv_fwd": ("autograd.backends.conv_fwd",),
    "autograd.backends.conv_bwd": ("autograd.backends.conv_grad_input",
                                   "autograd.backends.conv_grad_weight"),
    "autograd.backends.conv_stacked": ("autograd.backends.conv_stacked",),
    "autograd.backends.conv_step": ("autograd.backends.conv_step",),
    "optim.update": ("optim.update",),
    "data.load": ("data.load",),
    "core.trainer.eval": ("core.trainer.eval",),
    "core.stacked.build": ("core.stacked.build",),
    "core.stacked.fit": ("core.stacked.fit",),
    "core.checkpoint.save": ("core.checkpoint.save",),
    "evaluation.dse.cache_put": ("evaluation.dse.cache_put",),
    "hw.quantization.calibrate": ("hw.quantization.calibrate",),
    "serving.streaming.build": ("serving.streaming.build",),
    "serving.streaming.push": ("serving.streaming.push",),
}

#: Families counted by number of (outermost) spans.
COUNTED_FAMILIES: Dict[str, str] = {
    "autograd.graph.driven_epochs": "autograd.graph.driven_epoch",
    "autograd.graph.replayed_epochs": "autograd.graph.replayed_epoch",
    "autograd.backends.conv_calls": "conv",
    "core.checkpoint.saves": "core.checkpoint.save",
}

#: Amounts added up at layer boundaries with :meth:`Recorder.count`.
COUNTED_AMOUNTS = ("data.batches", "core.checkpoint.bytes")

#: Families measured once per set-up rather than per operation.
SETUP_FAMILIES = ("hw.quantization.calibrate", "serving.streaming.build")

_CONV_KERNELS = {
    "forward": "autograd.backends.conv_fwd",
    "grad_input": "autograd.backends.conv_grad_input",
    "grad_weight": "autograd.backends.conv_grad_weight",
    "forward_stacked": "autograd.backends.conv_stacked",
    "grad_input_stacked": "autograd.backends.conv_stacked",
    "grad_weight_stacked": "autograd.backends.conv_stacked",
    "forward_step": "autograd.backends.conv_step",
}
_CONV_NAMES = frozenset(_CONV_KERNELS.values())


class Recorder:
    """Collects spans and counts of the operations being traced.

    ``op`` is the identifier stamped on every span opened while it is set;
    the workload driver sets it around each operation (and to ``"setup"``
    around the traced set-up).  Spans nest by call order: the parent of a
    span is the innermost span still open when it starts.
    """

    def __init__(self):
        self.enabled = False
        self.op: Optional[str] = None
        # One entry per span, kept as parallel lists of plain values so the
        # garbage collector has no per-span container to traverse.
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[Optional[str]] = []
        self.counts: Dict[tuple, float] = defaultdict(float)
        # Compiled steps and epoch drivers built while recording, so their
        # fallback reasons can be counted (see fallbacks()).
        self.compiled: List[object] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[(self.op, name)] += amount

    def wrap(self, fn, name: str):
        """``fn`` timed as a span called ``name`` while recording."""
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            index = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)
        return timed

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in zip(self.names, self.starts, self.ends,
                            self.parents, self.ops):
                handle.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op"), span))) + "\n")


def _timed_batches(recorder: Recorder, iterator):
    """Re-yield a batch iterator, timing each ``next`` as ``data.load``."""
    while True:
        with recorder.span("data.load"):
            try:
                batch = next(iterator)
            except StopIteration:
                return
        recorder.count("data.batches")
        yield batch


def _tracked_init(recorder: Recorder, init):
    """``init`` that also remembers the object it built while recording."""
    @functools.wraps(init)
    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if recorder.enabled:
            recorder.compiled.append(self)
    return tracked


def fallbacks(recorder: Recorder) -> int:
    """Fallback reasons of the compiled steps and epoch drivers built since
    the last call: a step's eager fallback and per-program lowering
    failures, an epoch's loop rejection and its lowering failures."""
    count = 0
    for obj in recorder.compiled:
        reason = getattr(obj, "fallback_reason",
                         getattr(obj, "loop_fallback_reason", None))
        count += (reason is not None) + len(obj.exec_fallbacks)
    recorder.compiled.clear()
    return count


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every measured layer.

    Call before the workload imports data or builds a model.  The wrappers
    stay for the life of the process.
    """
    from repro.autograd.backends import available_backends, get_backend
    from repro.autograd.graph import (CompiledEpoch, CompiledStep, codegen,
                                      executor)
    from repro.core import checkpoint, stacked, trainer
    from repro.data import dataset
    from repro.evaluation import dse
    from repro.hw import quantization
    from repro.optim import optimizers
    from repro.serving import pool, streaming

    wrap = recorder.wrap

    # autograd.graph: capture, pass pipeline, lowering and builtins.compile
    # (looked up as a module global of the lowering code), whole epochs.
    capture = executor.capture

    @functools.wraps(capture)
    @contextlib.contextmanager
    def timed_capture(*args, **kwargs):
        with recorder.span("autograd.graph.trace"):
            with capture(*args, **kwargs) as tracer:
                yield tracer
    executor.capture = timed_capture
    executor.optimize_program = wrap(executor.optimize_program,
                                     "autograd.graph.optimize")
    codegen.lower_program = wrap(codegen.lower_program,
                                 "autograd.graph.lower")
    codegen.lower_epoch = wrap(codegen.lower_epoch, "autograd.graph.lower")
    codegen.compile = wrap(builtins.compile, "autograd.graph.compile")

    for cls in (CompiledStep, CompiledEpoch):
        cls.__init__ = _tracked_init(recorder, cls.__init__)

    run_batches = CompiledEpoch.run_batches

    @functools.wraps(run_batches)
    def timed_run_batches(self, batches):
        if not recorder.enabled:
            return run_batches(self, batches)
        replayed = self.replayed_epochs
        index = recorder.open("autograd.graph.epoch")
        try:
            return run_batches(self, batches)
        finally:
            recorder.close(index)
            recorder.names[index] = (
                "autograd.graph.replayed_epoch"
                if self.replayed_epochs > replayed
                else "autograd.graph.driven_epoch")
    CompiledEpoch.run_batches = timed_run_batches

    # autograd.backends: every kernel of every registered backend instance.
    for backend_name in available_backends():
        backend = get_backend(backend_name)
        for attr, span_name in _CONV_KERNELS.items():
            setattr(backend, attr, wrap(getattr(backend, attr), span_name))

    # optim: the Adam kernel (bound into captured loops) and eager step().
    optimizers.adam_update = wrap(optimizers.adam_update, "optim.update")
    optimizers.Adam.step = wrap(optimizers.Adam.step, "optim.update")

    # data: each batch a loader or a stacked replay view hands out.
    loader_iter = dataset.DataLoader.__iter__
    replay_epoch = dataset.EpochReplayLoader.epoch

    @functools.wraps(loader_iter)
    def timed_iter(self):
        if not recorder.enabled:
            return loader_iter(self)
        return _timed_batches(recorder, loader_iter(self))

    @functools.wraps(replay_epoch)
    def timed_epoch(self, epoch):
        if not recorder.enabled:
            return replay_epoch(self, epoch)
        return _timed_batches(recorder, replay_epoch(self, epoch))
    dataset.DataLoader.__iter__ = timed_iter
    dataset.EpochReplayLoader.epoch = timed_epoch

    # core: validation, stacked trainer, checkpoints.
    trainer.evaluate = wrap(trainer.evaluate, "core.trainer.eval")
    stacked.StackedPITTrainer.__init__ = wrap(
        stacked.StackedPITTrainer.__init__, "core.stacked.build")
    stacked.StackedPITTrainer.fit = wrap(stacked.StackedPITTrainer.fit,
                                         "core.stacked.fit")
    save = checkpoint.TrainerCheckpoint.save

    @functools.wraps(save)
    def timed_save(self, arrays, meta):
        with recorder.span("core.checkpoint.save"):
            save(self, arrays, meta)
        recorder.count("core.checkpoint.bytes", os.path.getsize(self.path)
                       if recorder.enabled else 0)
    checkpoint.TrainerCheckpoint.save = timed_save

    # evaluation.dse, hw.quantization, serving.
    dse.DSECache.put = wrap(dse.DSECache.put, "evaluation.dse.cache_put")
    quantization.quantize_network = wrap(quantization.quantize_network,
                                         "hw.quantization.calibrate")
    streaming.StreamingExecutor.__init__ = wrap(
        streaming.StreamingExecutor.__init__, "serving.streaming.build")
    streaming.StreamingExecutor.push = wrap(streaming.StreamingExecutor.push,
                                            "serving.streaming.push")
    pool.StreamingPool.tick = wrap(pool.StreamingPool.tick,
                                   "serving.pool.tick")


def _family_of(name: str) -> Optional[str]:
    for family, names in TIMED_FAMILIES.items():
        if name in names:
            return family
    return None


def summarize(recorder: Recorder, ops: Iterable[str],
              setups: Iterable[str]) -> Dict[str, float]:
    """Per-layer totals, averaged per operation (per set-up for the set-up
    families).

    A family's time is the summed duration of its *outermost* spans, so a
    kernel that calls another kernel of the same family is not counted
    twice.  ``serving.pool.self`` is a tick's duration minus the time its
    child spans cover.  ``unattributed`` is an operation's duration minus
    the time covered by its top-level layer spans.
    """
    ops, setups = set(ops), set(setups)
    names, parents = recorder.names, recorder.parents
    durations = [end - start
                 for start, end in zip(recorder.starts, recorder.ends)]
    family = [_family_of(name) for name in names]
    conv = [name in _CONV_NAMES for name in names]

    def outermost(i: int, same) -> bool:
        parent = parents[i]
        while parent >= 0:
            if same(parent):
                return False
            parent = parents[parent]
        return True

    child_time = defaultdict(float)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[i]

    totals = defaultdict(float)
    counts = defaultdict(int)
    for i, (name, op) in enumerate(zip(names, recorder.ops)):
        if name == OP and op in ops:
            totals["unattributed"] += durations[i] - child_time[i]
            continue
        fam = family[i]
        window = setups if fam in SETUP_FAMILIES else ops
        if op not in window:
            continue
        if name == "serving.pool.tick":
            totals["serving.pool.self"] += durations[i] - child_time[i]
        if fam is not None and outermost(i, lambda j: family[j] == fam):
            totals[fam] += durations[i]
            counts[fam] += 1
        if conv[i] and outermost(i, lambda j: conv[j]):
            counts["conv"] += 1

    n_ops, n_setups = max(len(ops), 1), max(len(setups), 1)
    metrics: Dict[str, float] = {}
    for fam in TIMED_FAMILIES:
        per = n_setups if fam in SETUP_FAMILIES else n_ops
        metrics[f"{fam}_s"] = totals[fam] / per
    for metric, fam in COUNTED_FAMILIES.items():
        metrics[metric] = counts[fam] / n_ops
    metrics["serving.pool.self_s"] = totals["serving.pool.self"] / n_ops
    metrics["unattributed_s"] = totals["unattributed"] / n_ops
    for name in COUNTED_AMOUNTS:
        metrics[name] = sum(
            amount for (op, counted), amount in recorder.counts.items()
            if op in ops and counted == name) / n_ops
    return metrics
