"""Differential harness for the graph-capture executor.

Locks the compiled training step to eager execution: identical losses,
identical parameter gradients, identical trained weights, identical final
γ̂ masks — over a grid of conv configurations (dilation/stride), the two
TCN seeds, the RNN baselines, and the full three-phase PIT trainer.

Also covers the executor's operational behaviour: per-shape re-tracing for
short final batches, and the permanent eager fallback for value-dependent
(capture-unsafe) models.

The env-gated perf smoke at the bottom (``REPRO_RUN_PERF=1``) records
eager-vs-compiled step timings on a TEMPONet-sized model to
``BENCH_graph_executor.json``.
"""

import copy
import json
import os
import time

import numpy as np
import pytest

import repro
from repro.autograd import CompiledStep, EagerStep, set_default_dtype
from repro.autograd.graph import CompileConfig
from repro.core import PITTrainer, network_dilations, size_regularizer
from repro.core.channel_mask import PITChannelConv1d
from repro.core.trainer import make_training_step, train_plain
from repro.data import ArrayDataset, DataLoader
from repro.models import restcn_seed, temponet_seed
from repro.models.rnn_baselines import HeartRateGRU, MusicLSTM
from repro.nn import (
    CausalConv1d,
    GlobalAvgPool1d,
    Linear,
    Module,
    ReLU,
    Sequential,
    mae_loss,
    mse_loss,
    polyphonic_nll,
)
from repro.optim import Adam


def batches_of(xshape, yshape, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(xshape), rng.standard_normal(yshape))
            for _ in range(count)]


def assert_same_grads(m1, m2, context=""):
    g1, g2 = dict(m1.named_parameters()), dict(m2.named_parameters())
    assert g1.keys() == g2.keys()
    for name in g1:
        a, b = g1[name].grad, g2[name].grad
        assert (a is None) == (b is None), f"{context}: grad presence {name}"
        if a is not None:
            assert np.array_equal(a, b), f"{context}: grad mismatch {name}"


def assert_same_state(m1, m2, context=""):
    s1, s2 = m1.state_dict(), m2.state_dict()
    assert s1.keys() == s2.keys()
    for key in s1:
        assert np.array_equal(s1[key], s2[key]), f"{context}: state {key}"


def run_parity(make_model, batches, loss_fn, extra_loss_fn=None, lr=1e-3,
               context="", expect_compiled=True):
    """Train two copies — one eager, one compiled — on identical batches.

    Asserts bit-equal losses on every step and bit-equal gradients, weights
    and buffers at the end.  Returns the compiled step for introspection.
    """
    eager_model = make_model()
    compiled_model = copy.deepcopy(eager_model)
    runners = {}
    for label, model, compile_step in (("eager", eager_model, False),
                                       ("compiled", compiled_model, True)):
        extra = (lambda m=model: extra_loss_fn(m)) if extra_loss_fn else None
        runners[label] = (model,
                          make_training_step(
                              model, loss_fn, extra_loss=extra,
                              compile_config=CompileConfig(
                                  compile_step=compile_step)),
                          Adam(model.parameters(), lr=lr))
    losses = {"eager": [], "compiled": []}
    for x, y in batches:
        for label, (model, step, optimizer) in runners.items():
            model.train()
            optimizer.zero_grad()
            values = step(x, y)
            optimizer.step()
            losses[label].append(values)
    assert losses["eager"] == losses["compiled"], f"{context}: loss trajectories"
    compiled_step = runners["compiled"][1]
    assert isinstance(compiled_step, CompiledStep)
    if expect_compiled:
        assert compiled_step.fallback_reason is None, compiled_step.fallback_reason
        assert compiled_step.compiled_shapes
        # Lowering must actually be in effect — a silent eager fallback
        # would make the parity assertions vacuous.
        assert not compiled_step.exec_fallbacks, compiled_step.exec_fallbacks
        assert (compiled_step.dump_source().keys()
                == set(compiled_step.compiled_shapes))
    assert_same_grads(eager_model, compiled_model, context)
    assert_same_state(eager_model, compiled_model, context)
    return compiled_step


# ----------------------------------------------------------------------
# Conv configuration grid
# ----------------------------------------------------------------------

class TestConvGrid:
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dilation_stride_parity(self, dilation, stride):
        def make_model():
            rng = np.random.default_rng(7)
            return Sequential(
                CausalConv1d(3, 6, kernel_size=5, dilation=dilation,
                             stride=stride, rng=rng),
                ReLU(),
                CausalConv1d(6, 4, kernel_size=3, dilation=dilation, rng=rng),
                GlobalAvgPool1d(),
                Linear(4, 2, rng=rng),
            )
        run_parity(make_model, batches_of((4, 3, 32), (4, 2)), mse_loss,
                   context=f"d={dilation},s={stride}")

    @pytest.mark.parametrize("backend", ["einsum", "im2col"])
    def test_backend_captured_at_trace_time(self, backend):
        """The compiled program keeps its trace-time conv backend even if
        the process default changes afterwards."""
        def make_model():
            rng = np.random.default_rng(3)
            return Sequential(CausalConv1d(2, 3, kernel_size=3, rng=rng),
                              GlobalAvgPool1d(), Linear(3, 1, rng=rng))
        batches = batches_of((4, 2, 16), (4, 1))
        with repro.use_backend(backend):
            step = run_parity(make_model, batches[:1], mse_loss,
                              context=f"backend={backend}")
        # Replays after a backend switch reproduce the traced kernels: the
        # results must equal a run that never switched.
        model = make_model()
        reference = make_training_step(
            model, mse_loss, compile_config=CompileConfig(compile_step=False))
        other = "im2col" if backend == "einsum" else "einsum"
        with repro.use_backend(backend):
            expected = [reference(x, y) for x, y in batches]
        model2 = make_model()
        with repro.use_backend(backend):
            compiled = make_training_step(
                model2, mse_loss,
                compile_config=CompileConfig(compile_step=True))
            compiled(*batches[0])
        with repro.use_backend(other):
            replayed = [compiled(x, y) for x, y in batches[1:]]
        assert replayed == expected[1:]


# ----------------------------------------------------------------------
# Model grid: TCN seeds and RNN baselines
# ----------------------------------------------------------------------

class TestModelGrid:
    def test_temponet_with_regularizer(self):
        run_parity(lambda: temponet_seed(width_mult=0.125, seed=3),
                   batches_of((8, 4, 256), (8, 1)), mae_loss,
                   extra_loss_fn=lambda m: size_regularizer(m, 0.02),
                   context="temponet")

    def test_restcn_with_regularizer(self):
        run_parity(lambda: restcn_seed(width_mult=0.05, seed=1),
                   batches_of((4, 88, 48), (4, 88, 48)), polyphonic_nll,
                   extra_loss_fn=lambda m: size_regularizer(m, 0.02),
                   context="restcn")

    def test_heart_rate_gru(self):
        run_parity(lambda: HeartRateGRU(hidden=8,
                                        rng=np.random.default_rng(2)),
                   batches_of((4, 4, 32), (4, 1)), mae_loss, context="gru")

    def test_music_lstm(self):
        run_parity(lambda: MusicLSTM(hidden=12,
                                     rng=np.random.default_rng(2)),
                   batches_of((2, 88, 16), (2, 88, 16)), polyphonic_nll,
                   context="lstm")

    def test_float32_parity(self):
        set_default_dtype("float32")
        try:
            run_parity(lambda: temponet_seed(width_mult=0.125, seed=3),
                       batches_of((8, 4, 256), (8, 1)), mae_loss,
                       extra_loss_fn=lambda m: size_regularizer(m, 0.02),
                       context="temponet-f32")
        finally:
            set_default_dtype("float64")


# ----------------------------------------------------------------------
# Full PIT trainer: final masks must be bit-identical
# ----------------------------------------------------------------------

class TestPITTrainerParity:
    def _loaders(self, seed=0):
        rng = np.random.default_rng(seed)
        data = ArrayDataset(rng.standard_normal((24, 4, 256)),
                            rng.standard_normal((24, 1)))
        train = DataLoader(data, 8, shuffle=True,
                           rng=np.random.default_rng(seed + 1))
        val = DataLoader(data, 8)
        return train, val

    def test_three_phase_parity(self):
        results = {}
        for compile_step in (False, True):
            model = temponet_seed(width_mult=0.125, seed=3)
            train, val = self._loaders()
            trainer = PITTrainer(model, mae_loss, lam=0.5, gamma_lr=0.1,
                                 warmup_epochs=1, max_prune_epochs=2,
                                 prune_patience=2, finetune_epochs=1,
                                 finetune_patience=1,
                                 compile_config=CompileConfig(
                                     compile_step=compile_step))
            outcome = trainer.fit(train, val)
            results[compile_step] = (outcome, model)
        eager, compiled = results[False][0], results[True][0]
        assert compiled.dilations == eager.dilations
        assert compiled.best_val == eager.best_val
        assert compiled.history == eager.history
        assert compiled.effective_params == eager.effective_params
        assert (network_dilations(results[True][1])
                == network_dilations(results[False][1]))
        assert_same_state(results[False][1], results[True][1], "pit-final")

    def test_env_default_enables_compilation(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_STEP", "1")
        model = temponet_seed(width_mult=0.125, seed=3)
        trainer = PITTrainer(model, mae_loss, lam=0.5)
        assert trainer.compile_config.compile_step is True
        monkeypatch.setenv("REPRO_COMPILE_STEP", "0")
        trainer = PITTrainer(model, mae_loss, lam=0.5)
        assert trainer.compile_config.compile_step is False


# ----------------------------------------------------------------------
# Shape changes and capture-unsafe fallbacks
# ----------------------------------------------------------------------

class TestFallbacks:
    def test_short_final_batch_retraces(self):
        """A loader whose last batch is short triggers one extra trace; the
        results still match eager exactly."""
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((10, 2, 16)),
                            rng.standard_normal((10, 1)))
        loader = DataLoader(data, 4)  # batches of 4, 4, 2

        def make_model():
            mrng = np.random.default_rng(5)
            return Sequential(CausalConv1d(2, 4, kernel_size=3, rng=mrng),
                              GlobalAvgPool1d(), Linear(4, 1, rng=mrng))

        eager_model = make_model()
        compiled_model = copy.deepcopy(eager_model)
        eager = make_training_step(
            eager_model, mse_loss,
            compile_config=CompileConfig(compile_step=False))
        compiled = make_training_step(
            compiled_model, mse_loss,
            compile_config=CompileConfig(compile_step=True))
        for epoch in range(2):
            for x, y in loader:
                eager_model.zero_grad()
                compiled_model.zero_grad()
                assert compiled(x, y) == eager(x, y)
        assert compiled.fallback_reason is None
        assert sorted(key[0][0] for key in compiled.compiled_shapes) == [2, 4]
        assert_same_grads(eager_model, compiled_model, "short-batch")

    def test_channel_mask_falls_back_to_eager(self):
        """Channel-masked models are value-dependent: the capture poisons
        itself and the step runs eagerly — with identical results."""
        def make_model():
            rng = np.random.default_rng(4)
            return Sequential(
                PITChannelConv1d(2, 6, rf_max=4, rng=rng),
                GlobalAvgPool1d(), Linear(6, 1, rng=rng))
        step = run_parity(make_model, batches_of((4, 2, 16), (4, 1)),
                          mse_loss, context="channel-mask",
                          expect_compiled=False)
        assert step.fallback_reason is not None
        assert "ChannelMask" in step.fallback_reason
        assert not step.compiled_shapes

    def test_train_plain_compiled_matches_eager(self):
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((16, 2, 16)),
                            rng.standard_normal((16, 1)))

        def run(compile_step):
            mrng = np.random.default_rng(5)
            model = Sequential(CausalConv1d(2, 4, kernel_size=3, rng=mrng),
                               ReLU(), GlobalAvgPool1d(),
                               Linear(4, 1, rng=mrng))
            train = DataLoader(data, 4, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(data, 4)
            return train_plain(model, mse_loss, train, val, epochs=3,
                               patience=2, compile_config=CompileConfig(
                                   compile_step=compile_step))
        eager, compiled = run(False), run(True)
        assert compiled.best_val == eager.best_val
        assert compiled.history == eager.history
        assert compiled.epochs == eager.epochs


class TestForwardOnly:
    def test_compiled_validation_tracks_live_bn_stats(self):
        """A forward-only program (``make_eval_step``) has no backward
        schedule and never writes ``.grad``; its BatchNorm reads the
        running statistics live, so after training moves them the replay
        still equals eager evaluation bit for bit (per batch shape: the
        short last validation batch re-traces once)."""
        from repro.core.trainer import evaluate, make_eval_step
        from repro.nn import BatchNorm1d
        rng = np.random.default_rng(0)
        val = DataLoader(ArrayDataset(rng.standard_normal((10, 2, 16)),
                                      rng.standard_normal((10, 1))), 4)
        mrng = np.random.default_rng(5)
        model = Sequential(CausalConv1d(2, 4, kernel_size=3, rng=mrng),
                           BatchNorm1d(4), ReLU(), GlobalAvgPool1d(),
                           Linear(4, 1, rng=mrng))
        val_step = make_eval_step(model, mse_loss,
                                  CompileConfig(compile_step=True))
        step = make_training_step(
            model, mse_loss, compile_config=CompileConfig(compile_step=False))
        optimizer = Adam(model.parameters(), lr=1e-2)
        for x, y in batches_of((4, 2, 16), (4, 1), count=3, seed=1):
            model.train()
            optimizer.zero_grad()
            step(x, y)
            optimizer.step()
            grads = {name: p.grad for name, p in model.named_parameters()}
            assert (evaluate(model, mse_loss, val, val_step)
                    == evaluate(model, mse_loss, val))
            for name, p in model.named_parameters():
                assert p.grad is grads[name], name
        assert val_step.fallback_reason is None
        assert len(val_step.compiled_shapes) == 2
        for runner in val_step._runners.values():
            assert not runner.program.backward_steps
            assert not runner.program.grad_leaves


# ----------------------------------------------------------------------
# Perf smoke (env-gated): records BENCH_graph_executor.json
# ----------------------------------------------------------------------

PERF_RESULT_PATH = os.path.join(os.path.dirname(__file__), "..",
                                "BENCH_graph_executor.json")
# TEMPONet at width 0.25, PPG input length, the PIT pruning-phase step
# (task loss + size regularizer).  float32 + the im2col GEMM backend is
# the fast configuration this PR targets; the assertions ride on the
# graph-optimized replay.
# Headline config first: it runs before sustained load heats the machine
# into thermal throttling, which would otherwise skew its clock envelope.
PERF_CONFIGS = [
    ("float32", "im2col", 4),
    ("float32", "im2col", 16),
    ("float64", "im2col", 16),
    ("float64", "einsum", 16),
]
PERF_ASSERT_CONFIG = ("float32", "im2col", 4)
PERF_TARGET_SPEEDUP = 1.3   # optimized replay on the headline config
PERF_FLOOR_SPEEDUP = 1.0    # optimized replay on every config
REPS = 25
WARMUP = 3


def _time_interleaved(steps, model, x, y):
    """Min-of-reps per step, measured round-robin.

    Interleaving is load-bearing: timing one variant to completion before
    the next lets CPU frequency drift (turbo decay, thermal throttling)
    masquerade as a speedup or regression of whichever ran later — the
    seed benchmark's apparent float64/einsum "regression" was exactly
    that.  Round-robin exposes every variant to the same clock envelope.
    """
    best = [float("inf")] * len(steps)
    for rep in range(WARMUP + REPS):
        for i, step in enumerate(steps):
            model.zero_grad()
            start = time.perf_counter()
            step(x, y)
            elapsed = time.perf_counter() - start
            if rep >= WARMUP:
                best[i] = min(best[i], elapsed)
    return best


@pytest.mark.perf
@pytest.mark.skipif(not os.environ.get("REPRO_RUN_PERF"),
                    reason="perf smoke test; set REPRO_RUN_PERF=1 to run")
def test_compiled_step_speedup():
    rows = []
    try:
        for dtype, backend, batch in PERF_CONFIGS:
            set_default_dtype(dtype)
            rng = np.random.default_rng(0)
            x = rng.standard_normal((batch, 4, 256))
            y = rng.standard_normal((batch, 1))
            model = temponet_seed(width_mult=0.25, seed=3)

            def step_fn(tx, ty, model=model):
                task = mae_loss(model(tx), ty)
                return task + size_regularizer(model, 0.02), task

            with repro.use_backend(backend):
                plain = CompiledStep(step_fn, optimize="none")
                optimized = CompiledStep(step_fn, optimize="default")
                plain(x, y)
                optimized(x, y)
                assert plain.fallback_reason is None
                assert optimized.fallback_reason is None
                # Steady-state replay must not allocate: warm every lazy
                # scratch buffer, snapshot, replay more, then re-read.
                optimized(x, y)
                optimized.alloc_stats
                for _ in range(3):
                    model.zero_grad()
                    optimized(x, y)
                alloc = optimized.alloc_stats
                assert alloc["steady_state_growth"] == 0, alloc
                eager_s, compiled_s, optimized_s = _time_interleaved(
                    [EagerStep(step_fn), plain, optimized], model, x, y)
            stats = next(iter(optimized.opt_stats.values()))
            rows.append({
                "dtype": dtype, "backend": backend, "batch": batch,
                "model": "temponet width=0.25 T=256",
                "eager_seconds": eager_s,
                "compiled_seconds": compiled_s,
                "optimized_seconds": optimized_s,
                "speedup": eager_s / compiled_s,
                "optimized_speedup": eager_s / optimized_s,
                "opt_stats": stats,
                "alloc_stats": alloc,
            })
            print(f"\n{dtype} {backend} b{batch}: eager {eager_s * 1e3:.2f} ms  "
                  f"compiled {compiled_s * 1e3:.2f} ms "
                  f"({eager_s / compiled_s:.2f}x)  "
                  f"optimized {optimized_s * 1e3:.2f} ms "
                  f"({eager_s / optimized_s:.2f}x)")
    finally:
        set_default_dtype("float64")

    payload = {"reps": REPS, "timing": "interleaved min-of-reps",
               "step": "PIT pruning step (task + size reg)", "rows": rows}
    with open(os.path.abspath(PERF_RESULT_PATH), "w") as handle:
        json.dump(payload, handle, indent=2)

    for row in rows:
        assert row["optimized_speedup"] >= PERF_FLOOR_SPEEDUP, (
            f"optimized replay slower than eager on "
            f"{row['dtype']}/{row['backend']}/b{row['batch']}: "
            f"{row['optimized_speedup']:.2f}x")
    headline = next(r for r in rows
                    if (r["dtype"], r["backend"], r["batch"]) == PERF_ASSERT_CONFIG)
    assert headline["optimized_speedup"] >= PERF_TARGET_SPEEDUP, (
        f"optimized step speedup regressed: "
        f"{headline['optimized_speedup']:.2f}x < {PERF_TARGET_SPEEDUP}x "
        f"({headline['eager_seconds'] * 1e3:.2f} ms vs "
        f"{headline['optimized_seconds'] * 1e3:.2f} ms)")
