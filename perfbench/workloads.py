"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload turns a seed into inputs (``setup``), runs one measured
operation at a time (``prepare`` untimed, ``op`` timed, ``record`` untimed)
and finally checks the program's outputs (``check``, untimed).

* ``pit_search`` — one PIT run (warmup → prune → finetune) per operation;
* ``lambda_sweep`` — one stacked eight-point λ-sweep per operation;
* ``stream_serve`` — one tick of an eight-slot int8 streaming pool per
  operation.

Every input comes from ``make_ppg_dalia`` and the model constructors,
seeded by the ``--seed`` argument; the program receives only those
generated inputs.
"""

from __future__ import annotations

import functools
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import Tensor, default_dtype_scope, no_grad
from repro.autograd.graph import CompileConfig
from repro.autograd.graph.codegen import clear_code_cache
from repro.core import PITTrainer
from repro.data import (DataLoader, PPGDaliaConfig, make_ppg_dalia,
                        train_val_test_split)
from repro.data.ppg_dalia import SHIFT_SAMPLES
from repro.evaluation import DSEEngine
from repro.evaluation.pareto import hypervolume
from repro.hw import FakeQuant, quantization
from repro.models import temponet_hand_tuned, temponet_seed
from repro.nn import mae_loss
from repro.serving import StreamingPool

#: The ROADMAP re-anchor scale: 6 subjects × 120 s → 240 training windows.
PPG = PPGDaliaConfig(num_subjects=6, seconds_per_subject=120)
BATCH = 4
SEED_WIDTH = 0.125
WARMUP = 1
SCHEDULE = dict(gamma_lr=0.03, max_prune_epochs=3, finetune_epochs=2)
PIT_LAMBDA = 0.5
LAMBDAS = (0.0, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0)
STACK = 4
#: Fixed (params, validation MAE in BPM) corner of the front hypervolume;
#: above the unpruned seed's 12593 parameters and any loss seen in a run.
HV_REFERENCE = (13000.0, 30.0)
#: Stacked-vs-sequential loss tolerance of the stacked parity suite under
#: float64 (tests/test_dse_stacked.py).
STACK_TOL = dict(atol=1e-8, rtol=1e-8)

SERVE_WIDTH = 0.25
SLOTS = 8
CALIBRATION_BATCH = 16
#: A detach/attach cycle every CHURN_EVERY ticks (a multiple of the
#: network's total stride, so the re-attached slot activates at once).
CHURN_EVERY = 512
#: Streamed frames compared against full-sequence inference.
MAX_FRAME_CHECKS = 48


#: Per-layer metrics that are not span times: read from each operation's
#: result, or around it by the runner; a workload that does not run a
#: layer reports 0.
OUTCOME_LAYERS = (
    "autograd.graph.code_cache_hits", "autograd.graph.code_cache_misses",
    "autograd.graph.fallbacks",
    "core.trainer.warmup_s", "core.trainer.prune_s",
    "core.trainer.finetune_s", "core.trainer.epochs",
    "core.trainer.best_val",
    "evaluation.dse.points_ok", "evaluation.dse.points_failed",
    "evaluation.dse.retries", "evaluation.dse.front_hypervolume",
)


@dataclass
class Outcome:
    """What one operation attempted, how much of it failed, its work."""
    attempted: int
    failed: int
    work: float
    layers: Dict[str, float] = field(default_factory=dict)


def _split(seed: int):
    data = make_ppg_dalia(PPG, seed=seed)
    return data, train_val_test_split(data, rng=np.random.default_rng(seed))


def _loaders(train, val, seed: int):
    return (DataLoader(train, BATCH, shuffle=True,
                       rng=np.random.default_rng(seed + 1)),
            DataLoader(val, BATCH))


def _report(message: str) -> None:
    print(message, file=sys.stderr)


class PitSearch:
    """One full ``PITTrainer.fit`` per operation, from a cold code cache."""

    name = "pit_search"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.runs: List[tuple] = []
        self._fresh = None

    def _build(self):
        model = temponet_seed(width_mult=SEED_WIDTH, seed=self.seed)
        return model, _loaders(self.train, self.val, self.seed)

    def setup(self) -> None:
        _, (self.train, self.val, _) = _split(self.seed)
        self._fresh = self._build()

    def prepare(self):
        fresh = self._fresh or self._build()
        self._fresh = None
        clear_code_cache()
        return fresh

    def op(self, args):
        model, (train_loader, val_loader) = args
        trainer = PITTrainer(model, mae_loss, lam=PIT_LAMBDA,
                             warmup_epochs=WARMUP, **SCHEDULE)
        return trainer.fit(train_loader, val_loader)

    def record(self, result, error) -> Outcome:
        if error is not None:
            return Outcome(1, 1, 0.0)
        failed = 0
        if result.resumed_epochs != 0:
            _report(f"pit_search: run resumed {result.resumed_epochs} epochs")
            failed = 1
        if max(result.dilations) <= 1:
            _report(f"pit_search: no layer pruned {result.dilations}")
            failed = 1
        self.runs.append((result.dilations, result.effective_params,
                          result.best_val))
        epochs = (result.warmup_epochs + result.prune_epochs
                  + result.finetune_epochs)
        layers = {
            "core.trainer.warmup_s": result.warmup_seconds,
            "core.trainer.prune_s": result.prune_seconds,
            "core.trainer.finetune_s": result.finetune_seconds,
            "core.trainer.epochs": epochs,
            "core.trainer.best_val": result.best_val,
        }
        return Outcome(1, failed, len(self.train) * epochs, layers)

    def check(self) -> int:
        """Runs whose outcome is not bit-equal to one eager run."""
        model, (train_loader, val_loader) = self._build()
        eager = PITTrainer(
            model, mae_loss, lam=PIT_LAMBDA, warmup_epochs=WARMUP,
            compile_config=CompileConfig(compile_step=False,
                                         loop_capture=False),
            **SCHEDULE).fit(train_loader, val_loader)
        reference = (eager.dilations, eager.effective_params, eager.best_val)
        bad = [run for run in self.runs if run != reference]
        if bad:
            _report(f"pit_search: {len(bad)} runs differ from eager "
                    f"{reference}: {bad[0]}")
        return len(bad)

    def summary(self) -> Dict[str, tuple]:
        if not self.runs:
            return {}
        dilations, params, best_val = self.runs[0]
        return {"val_loss": (best_val, "BPM"), "params": (params, "count"),
                "dilations": (str(dilations), "")}


class LambdaSweep:
    """One stacked ``DSEEngine.run`` over the λ grid per operation."""

    name = "lambda_sweep"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.front: Optional[tuple] = None  # (hypervolume, points) of sweep 1
        self.factory = functools.partial(temponet_seed, width_mult=SEED_WIDTH,
                                         seed=seed)

    def setup(self) -> None:
        _, (self.train, self.val, _) = _split(self.seed)
        self.factory()

    def prepare(self):
        clear_code_cache()
        directory = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        return directory, _loaders(self.train, self.val, self.seed)

    def _engine(self, loaders, stack: int, directory: Optional[str] = None):
        train_loader, val_loader = loaders
        persist = {}
        if directory is not None:
            persist = dict(cache_path=f"{directory}/cache.json",
                           checkpoint_dir=f"{directory}/ckpt")
        return DSEEngine(self.factory, mae_loss, train_loader, val_loader,
                         workers=0, stack=stack, trainer_kwargs=SCHEDULE,
                         **persist)

    def op(self, args):
        directory, loaders = args
        try:
            engine = self._engine(loaders, STACK, directory)
            cached = len(engine.cache)  # entries a run could hit
            return engine, cached, engine.run(LAMBDAS, warmups=[WARMUP])
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def record(self, outcome, error) -> Outcome:
        if error is not None:
            return Outcome(len(LAMBDAS), len(LAMBDAS), 0.0)
        engine, cached, result = outcome
        stats = engine.last_run_stats
        failed = 0
        for point in result.points:
            if not point.ok:
                _report(f"lambda_sweep: point lam={point.lam} failed: "
                        f"{point.error}")
                failed += 1
        if cached or stats["resumed_epochs"] != 0:
            _report(f"lambda_sweep: started with {cached} cached points, "
                    f"resumed {stats['resumed_epochs']} epochs")
            failed = len(result.points)
        largest = result.points[-1]
        if largest.ok and max(largest.dilations) <= 1:
            _report(f"lambda_sweep: lam={largest.lam} pruned nothing")
            failed += 1
        hv = self.hypervolume(result.points)
        if self.front is None:
            self.front = (hv, len(result.pareto()))
        ok = [p for p in result.points if p.ok]
        epochs = sum(p.result.warmup_epochs + p.result.prune_epochs
                     + p.result.finetune_epochs for p in ok)
        layers = {
            "evaluation.dse.points_ok": len(result.ok_points),
            "evaluation.dse.points_failed": len(result.failed_points),
            "evaluation.dse.retries": stats["retried"],
            "evaluation.dse.front_hypervolume": hv,
        }
        return Outcome(len(result.points), failed, len(self.train) * epochs,
                       layers)

    @staticmethod
    def hypervolume(points) -> float:
        front = [(p.params, p.loss) for p in points if p.ok]
        return hypervolume(front, HV_REFERENCE) if front else 0.0

    def check(self) -> int:
        """Grid-end points whose stacked and sequential runs disagree.

        The smallest and largest λ train once as a stack and once through
        the sequential (``stack=1``) path; dilations and parameter counts
        must be equal and the loss within the stacked parity suite's
        tolerance.  This runs in float64: under float32 the two paths sum
        in different orders and six epochs amplify that into percent-level
        loss differences, so no fixed tolerance separates a stacking bug
        from rounding there.
        """
        lams = (LAMBDAS[0], LAMBDAS[-1])
        runs = []
        with default_dtype_scope("float64"):
            for stack in (len(lams), 1):
                clear_code_cache()
                loaders = _loaders(self.train, self.val, self.seed)
                runs.append(self._engine(loaders, stack).run(
                    lams, warmups=[WARMUP]).points)
        bad = 0
        for stacked, sequential in zip(*runs):
            if not (stacked.ok and sequential.ok
                    and stacked.dilations == sequential.dilations
                    and stacked.params == sequential.params
                    and np.allclose(stacked.loss, sequential.loss,
                                    **STACK_TOL)):
                _report(f"lambda_sweep: lam={stacked.lam} stacked "
                        f"{stacked.dilations}/{stacked.params}/"
                        f"{stacked.loss} vs sequential "
                        f"{sequential.dilations}/{sequential.params}/"
                        f"{sequential.loss}")
                bad += 1
        return bad

    def summary(self) -> Dict[str, tuple]:
        if self.front is None:
            return {}
        hv, points = self.front
        return {"front_hypervolume": (hv, "param-BPM"),
                "front_points": (points, "count")}


def _continuous_streams(data, config: PPGDaliaConfig) -> np.ndarray:
    """Re-join each subject's overlapping windows into one recording."""
    per_subject = len(data) // config.num_subjects
    streams = []
    for s in range(config.num_subjects):
        windows = data.inputs[s * per_subject:(s + 1) * per_subject]
        parts = [windows[0]] + [w[:, -SHIFT_SAMPLES:] for w in windows[1:]]
        streams.append(np.concatenate(parts, axis=1))
    return np.stack(streams)


class StreamServe:
    """One barrier tick of an eight-slot int8 ``StreamingPool`` per
    operation, driven closed-loop with periodic slot churn."""

    name = "stream_serve"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        # (slot, attach position, age, frame): the first warm frame after
        # each attach, up to MAX_FRAME_CHECKS, and each slot's latest frame.
        self.frames: List[tuple] = []
        self.latest: Dict[int, tuple] = {}

    def setup(self) -> None:
        data, (train, _, _) = _split(self.seed)
        net = temponet_hand_tuned(width_mult=SERVE_WIDTH, seed=self.seed)
        self.quantized = quantization.quantize_network(
            net, DataLoader(train, CALIBRATION_BATCH))
        self.pool = StreamingPool(self.quantized, capacity=SLOTS)
        recordings = _continuous_streams(data, PPG)
        # Slot k replays recording k mod 6, slots 6 and 7 from mid-way.
        self.streams = np.stack([
            np.roll(recordings[k % len(recordings)],
                    -(k // len(recordings)) * recordings.shape[2] // 2,
                    axis=1)
            for k in range(SLOTS)])
        self.length = self.streams.shape[2]
        self.start = [0] * SLOTS   # stream position of the slot's attach
        self.age = [0] * SLOTS     # samples fed since attach
        self.churns = 0
        for _ in range(SLOTS):
            self.pool.attach()

    def prepare(self):
        pool = self.pool
        if pool.ticks and pool.ticks % CHURN_EVERY == 0:
            slot = self.churns % SLOTS
            self.churns += 1
            pool.detach(slot)
            pool.attach()
            self.start[slot] = (self.start[slot] + self.age[slot]
                                + self.length // 3) % self.length
            self.age[slot] = 0
        return {slot: self.streams[slot, :, (self.start[slot] + self.age[slot])
                                   % self.length]
                for slot in range(SLOTS)}

    def op(self, samples):
        return self.pool.tick(samples)

    def record(self, outputs, error) -> Outcome:
        if error is not None:
            return Outcome(1, 1, 0.0)
        for slot in range(SLOTS):
            self.age[slot] += 1
        failed = 0
        for out in outputs:
            if not np.all(np.isfinite(out.frame)):
                failed = 1
            if not out.warm:
                continue
            frame = (out.slot, self.start[out.slot], self.age[out.slot],
                     out.frame)
            if (self.age[out.slot] == self.pool.warmup_ticks
                    and len(self.frames) < MAX_FRAME_CHECKS):
                self.frames.append(frame)
            self.latest[out.slot] = frame
        # Every tick serves one sample to each of the SLOTS active slots.
        return Outcome(1, failed, float(SLOTS))

    def check(self) -> int:
        """Streamed frames that disagree with full-sequence inference of
        the same int8 network over the slot's samples.

        Streaming and full-window kernels sum in different orders, so a
        last-ulp difference can flip an inner int8 code, which reaches the
        output as a few output codes.  A frame therefore fails when it is
        off by more than one step of the coarsest quantizer (the streaming
        parity suite's bound), and every frame off by more than one output
        code fails when such frames are not rare (a quarter or more of
        those checked) — the mark of a systematic error, not rounding.
        """
        net = self.quantized
        quantizers = [m for m in net.modules() if isinstance(m, FakeQuant)]
        steps = [(float(m.hi) - float(m.lo)) / (2 ** m.bits - 1)
                 for m in quantizers]
        bound = max(steps)
        out_code = steps[-1] * (1 + 1e-3)   # one code, plus float32 rounding
        head_len = net.input_length // 16
        errors = []
        with no_grad():
            for slot, start, age, frame in (self.frames
                                            + list(self.latest.values())):
                idx = (start + np.arange(age)) % self.length
                x = self.streams[slot][:, idx][None]
                features = net.features(Tensor(x)).data[:, :, -head_len:]
                expected = net.head(Tensor(features)).data[0]
                errors.append(float(np.abs(frame - expected).max()))
        bad = sum(not error <= bound + 1e-9 for error in errors)
        flipped = sum(not error <= out_code for error in errors)
        if flipped * 4 >= len(errors):
            bad = max(bad, flipped)
        if bad:
            _report(f"stream_serve: {bad} of {len(errors)} frames off; "
                    f"largest error {max(errors):g}, output code "
                    f"{steps[-1]:g}, parity bound {bound:g}")
        if not self.frames:
            _report("stream_serve: no warm frame was checked")
            bad += 1
        return bad

    def summary(self) -> Dict[str, tuple]:
        return {"frames_checked": (len(self.frames) + len(self.latest),
                                   "count"),
                "churns": (self.churns, "count")}


WORKLOADS = {cls.name: cls for cls in (PitSearch, LambdaSweep, StreamServe)}
