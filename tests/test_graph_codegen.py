"""Unit + differential tests for the codegen (generated-source) executor.

The lowering pass turns an optimized ``GraphProgram`` into one specialized
Python function — slots become locals, kernels become closure-bound calls,
the backward schedule is unrolled in source order.  These tests lock:

* knob resolution (``graph_exec`` / ``REPRO_GRAPH_EXEC``);
* the generated source's *shape* — no dict dispatch, no kwargs re-lookup,
  no interpreter loop in the hot path;
* bit-parity with the interpreted replay on models the module-wide legs in
  ``test_graph_executor.py`` don't cover verbatim (three-phase PIT with
  ``graph_exec`` plumbed through the trainer, stacked training);
* the process-wide source→code cache (retraces and same-architecture DSE
  points compile once);
* the automatic interp fallback on lowering failure;
* ``dump_source``/``diagnostics`` introspection and zero steady-state
  allocation under source replay.
"""

import copy
import json
import os
import time

import numpy as np
import pytest

import repro

from repro.autograd import Tensor, set_default_dtype
from repro.autograd.graph import (
    ENV_GRAPH_EXEC,
    CompiledStep,
    LoweringError,
    graph_exec_default,
    resolve_graph_exec,
)
from repro.autograd.graph import codegen
from repro.core import PITTrainer, size_regularizer
from repro.core.stacked import StackedPITTrainer
from repro.core.trainer import make_training_step, train_plain
from repro.data import ArrayDataset, DataLoader, clone_loader
from repro.models import temponet_seed
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    GlobalAvgPool1d,
    Linear,
    ReLU,
    Sequential,
    mae_loss,
    mse_loss,
)
from repro.optim import Adam


def small_model(seed=7):
    rng = np.random.default_rng(seed)
    return Sequential(
        CausalConv1d(3, 6, kernel_size=5, dilation=2, rng=rng),
        BatchNorm1d(6), ReLU(),
        CausalConv1d(6, 4, kernel_size=3, rng=rng),
        GlobalAvgPool1d(), Linear(4, 2, rng=rng))


def batches_of(xshape, yshape, count=4, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(xshape), rng.standard_normal(yshape))
            for _ in range(count)]


def train_steps(make_model, batches, graph_exec, loss_fn=mse_loss):
    """Train one model with a compiled step; return (losses, state, grads, step)."""
    model = make_model()
    step = make_training_step(model, loss_fn, compile_step=True,
                              graph_exec=graph_exec)
    optimizer = Adam(model.parameters(), lr=1e-3)
    losses = []
    for x, y in batches:
        model.train()
        optimizer.zero_grad()
        losses.append(step(x, y))
        optimizer.step()
    grads = {name: np.array(p.grad) for name, p in model.named_parameters()
             if p.grad is not None}
    return losses, model.state_dict(), grads, step


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------

class TestKnobs:
    def test_default_is_interp(self, monkeypatch):
        monkeypatch.delenv(ENV_GRAPH_EXEC, raising=False)
        assert graph_exec_default() == "interp"
        assert resolve_graph_exec(None) == "interp"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_GRAPH_EXEC, "source")
        assert resolve_graph_exec(None) == "source"
        # An explicit argument beats the environment.
        assert resolve_graph_exec("interp") == "interp"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="graph executor"):
            resolve_graph_exec("jit")
        with pytest.raises(ValueError):
            CompiledStep(lambda x, y: x, graph_exec="llvm")

    def test_env_reaches_compiled_step(self, monkeypatch):
        monkeypatch.setenv(ENV_GRAPH_EXEC, "source")
        step = CompiledStep(lambda x, y: x)
        assert step.graph_exec == "source"


# ----------------------------------------------------------------------
# Generated-source shape: the dispatch overhead must actually be gone
# ----------------------------------------------------------------------

class TestGeneratedSource:
    def _source(self):
        model = small_model()
        model.train()  # BatchNorm must record its running-stats effect
        step = make_training_step(model, mse_loss, compile_step=True,
                                  graph_exec="source")
        x, y = batches_of((4, 3, 32), (4, 2), count=1)[0]
        step(x, y)
        sources = step.dump_source()
        assert len(sources) == 1
        return next(iter(sources.values()))

    def test_no_dict_dispatch_in_hot_path(self):
        """The whole point of lowering: no per-node dispatch machinery.

        The generated function must not re-enter the eager dispatcher
        (``apply_op``), index a slot table (``values[``), walk a plan
        (``for`` over nodes), or rebuild kwargs per call (``**``).
        """
        source = self._source()
        body = source[source.index("def run(inputs):"):]
        assert "apply_op" not in body
        assert "values[" not in body
        assert "self." not in body
        assert "**" not in body
        for line in body.splitlines():
            stripped = line.strip()
            assert not stripped.startswith("for "), line
            assert not stripped.startswith("while "), line

    def test_source_is_compilable_standalone(self):
        """The text is pure structure: it must compile with no context."""
        source = self._source()
        compile(source, "<dump>", "exec")

    def test_effects_emitted_in_place(self):
        """BatchNorm's running-stats update appears in the forward sweep."""
        import re
        source = self._source()
        body = source[source.index("def run(inputs):"):]
        # Effect callbacks are closure-bound e<i> calls in schedule order.
        assert re.search(r"\be\d+\(v\d+", body), body

    def test_dump_source_and_cli_registry_agree(self):
        codegen.clear_code_cache()
        source = self._source()
        recorded = codegen.recorded_sources()
        assert source in recorded.values()

    def test_temponet_source_size_budget(self):
        """Compact emission: the generated text is what ``compile()`` pays
        for, so its size is locked.  The three PIT step programs of the
        TEMPONet seed (width 0.125, seed 0) lowered to 152371 + 176171 +
        94976 = 423518 characters with the previous emitter (``name =
        C[...]`` cell bindings, seven-line gradient routes, three-line
        dtype guards); they must stay within a third of that."""
        from repro.autograd.graph import CompileConfig
        from repro.core.regularizer import pit_layers
        model = temponet_seed(width_mult=0.125, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4, 256))
        y = rng.standard_normal((4, 1))
        cfg = CompileConfig(compile_step=True, graph_opt="default",
                            graph_exec="source")
        sizes = []
        for phase in ("warmup", "prune", "finetune"):
            if phase == "finetune":
                for layer in pit_layers(model):
                    layer.freeze()
            extra = ((lambda: size_regularizer(model, 0.5))
                     if phase == "prune" else None)
            step = make_training_step(model, mae_loss, extra,
                                      compile_config=cfg)
            model.train()
            step(x, y)
            (source,) = step.dump_source().values()
            sizes.append(len(source))
        assert sum(sizes) <= 423518 // 3, sizes


# ----------------------------------------------------------------------
# Bit-parity with the interpreted replay
# ----------------------------------------------------------------------

class TestParity:
    def test_training_run_bit_identical(self):
        batches = batches_of((4, 3, 32), (4, 2))
        interp = train_steps(small_model, batches, "interp")
        source = train_steps(small_model, batches, "source")
        assert interp[0] == source[0]
        for key in interp[1]:
            assert np.array_equal(interp[1][key], source[1][key]), key
        for key in interp[2]:
            assert np.array_equal(interp[2][key], source[2][key]), key
        assert source[3].executors and all(
            mode == "source" for mode in source[3].executors.values())

    def test_float32_parity(self):
        set_default_dtype("float32")
        try:
            batches = batches_of((4, 3, 32), (4, 2))
            interp = train_steps(small_model, batches, "interp")
            source = train_steps(small_model, batches, "source")
            assert interp[0] == source[0]
            for key in interp[1]:
                assert np.array_equal(interp[1][key], source[1][key]), key
        finally:
            set_default_dtype("float64")

    def test_three_phase_pit_bit_identical(self):
        outcomes = {}
        for graph_exec in ("interp", "source"):
            rng = np.random.default_rng(0)
            data = ArrayDataset(rng.standard_normal((24, 4, 256)),
                                rng.standard_normal((24, 1)))
            train = DataLoader(data, 8, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(data, 8)
            model = temponet_seed(width_mult=0.125, seed=3)
            trainer = PITTrainer(model, mae_loss, lam=0.5, gamma_lr=0.1,
                                 warmup_epochs=1, max_prune_epochs=2,
                                 prune_patience=2, finetune_epochs=1,
                                 finetune_patience=1, compile_step=True,
                                 graph_exec=graph_exec)
            outcomes[graph_exec] = (trainer.fit(train, val),
                                    model.state_dict())
        base, src = outcomes["interp"], outcomes["source"]
        assert base[0].dilations == src[0].dilations
        assert base[0].best_val == src[0].best_val
        assert base[0].history == src[0].history
        for key in base[1]:
            assert np.array_equal(base[1][key], src[1][key]), key
        # The trainer surfaced per-phase diagnostics for both runs.
        assert set(src[0].compile_stats) == {"warmup", "prune", "finetune"}
        assert all(stats["graph_exec"] == "source"
                   for stats in src[0].compile_stats.values())

    def test_stacked_training_bit_identical(self):
        """Same stacked program, both executors: results must be bit-equal
        (this is executor-vs-executor, not stacked-vs-sequential, so no
        reduction-order tolerance applies)."""
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((24, 4, 256)),
                            rng.standard_normal((24, 1)))
        outcomes = {}
        for graph_exec in ("interp", "source"):
            train = DataLoader(data, 8, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(data, 8)
            trainer = StackedPITTrainer(
                temponet_seed(width_mult=0.125, seed=3), mae_loss,
                lams=[0.0, 0.5], warmup_epochs=1, max_prune_epochs=2,
                prune_patience=2, finetune_epochs=1, finetune_patience=1,
                compile_step=True, graph_exec=graph_exec)
            outcomes[graph_exec] = trainer.fit(train, val)
        for seq, src in zip(outcomes["interp"], outcomes["source"]):
            assert seq.dilations == src.dilations
            assert seq.best_val == src.best_val
            assert seq.history == src.history

    def test_short_final_batch_retraces_and_matches(self):
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((10, 3, 32)),
                            rng.standard_normal((10, 2)))
        loader = DataLoader(data, 4)  # batches of 4, 4, 2
        eager_model = small_model()
        source_model = copy.deepcopy(eager_model)
        eager = make_training_step(eager_model, mse_loss, compile_step=False)
        source = make_training_step(source_model, mse_loss,
                                    compile_step=True, graph_exec="source")
        for _ in range(2):
            for x, y in loader:
                eager_model.zero_grad()
                source_model.zero_grad()
                assert source(x, y) == eager(x, y)
        assert sorted(mode for mode in source.executors.values()) \
            == ["source", "source"]


# ----------------------------------------------------------------------
# The process-wide source→code cache
# ----------------------------------------------------------------------

class TestCodeCache:
    def test_same_architecture_compiles_once(self):
        """Structurally identical programs (same architecture, fresh
        weights — i.e. DSE points within a worker) share one compiled code
        object: the second step is a pure cache hit."""
        codegen.clear_code_cache()
        x, y = batches_of((4, 3, 32), (4, 2), count=1)[0]
        for seed in (1, 2):
            step = make_training_step(small_model(seed), mse_loss,
                                      compile_step=True, graph_exec="source")
            step(x, y)
        stats = codegen.codegen_cache_stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_retrace_shares_code_across_shapes(self):
        """A short-final-batch retrace re-lowers but re-uses the compiled
        artifact: source text encodes structure, not shapes."""
        codegen.clear_code_cache()
        model = small_model()
        step = make_training_step(model, mse_loss, compile_step=True,
                                  graph_exec="source")
        rng = np.random.default_rng(0)
        step(rng.standard_normal((4, 3, 32)), rng.standard_normal((4, 2)))
        step(rng.standard_normal((2, 3, 32)), rng.standard_normal((2, 2)))
        stats = codegen.codegen_cache_stats()
        assert len(step.compiled_shapes) == 2
        assert stats["entries"] == 1
        assert stats["hits"] == 1

    def test_dtype_flip_retraces(self):
        """A set_default_dtype switch must re-trace, not replay the stale
        program (the retrace-cache key carries the dtype)."""
        model = small_model()
        step = make_training_step(model, mse_loss, compile_step=True,
                                  graph_exec="source")
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 3, 32)), rng.standard_normal((4, 2))
        step(x, y)
        set_default_dtype("float32")
        try:
            model.zero_grad()
            step(x, y)
            assert len(step.compiled_shapes) == 2
            dtypes = {key[2] for key in step.compiled_shapes}
            assert dtypes == {np.float64, np.float32}
        finally:
            set_default_dtype("float64")


# ----------------------------------------------------------------------
# Lowering failure → interp fallback (never break training)
# ----------------------------------------------------------------------

class TestLoweringFallback:
    def test_emit_failure_falls_back_to_interp(self, monkeypatch):
        def explode(runner):
            raise LoweringError("synthetic lowering failure")

        monkeypatch.setattr(codegen, "_emit", explode)
        batches = batches_of((4, 3, 32), (4, 2))
        interp = train_steps(small_model, batches, "interp")
        degraded = train_steps(small_model, batches, "source")
        # Bit-identical results — the step silently ran interpreted...
        assert interp[0] == degraded[0]
        step = degraded[3]
        assert all(mode == "interp" for mode in step.executors.values())
        # ...and the reason is on the record, per program.
        assert step.exec_fallbacks
        assert "synthetic lowering failure" in next(
            iter(step.exec_fallbacks.values()))
        assert step.diagnostics()["exec_fallbacks"]

    def test_interp_mode_never_lowers(self, monkeypatch):
        def explode(runner):  # pragma: no cover - must not be reached
            raise AssertionError("interp mode invoked the lowering pass")

        monkeypatch.setattr(codegen, "_emit", explode)
        step = make_training_step(small_model(), mse_loss,
                                  compile_step=True, graph_exec="interp")
        x, y = batches_of((4, 3, 32), (4, 2), count=1)[0]
        step(x, y)
        assert not step.dump_source()


# ----------------------------------------------------------------------
# Allocation discipline under source replay
# ----------------------------------------------------------------------

class TestAllocStats:
    def test_zero_steady_state_growth(self):
        model = small_model()
        step = make_training_step(model, mse_loss, compile_step=True,
                                  graph_exec="source")
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 3, 32)), rng.standard_normal((4, 2))
        step(x, y)          # trace + lower
        step(x, y)          # warm replay (materializes lazy scratch)
        warm = step.alloc_stats
        for _ in range(5):
            model.zero_grad()
            step(x, y)
        steady = step.alloc_stats
        assert steady["steady_state_growth"] == 0
        assert steady["persistent_buffers"] == warm["persistent_buffers"]

    def test_train_plain_surfaces_diagnostics(self):
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((16, 3, 32)),
                            rng.standard_normal((16, 2)))
        train = DataLoader(data, 4, shuffle=True,
                           rng=np.random.default_rng(1))
        val = DataLoader(data, 4)
        result = train_plain(small_model(), mse_loss, train, val, epochs=2,
                             patience=2, compile_step=True,
                             graph_exec="source")
        stats = result.compile_stats
        assert stats is not None
        assert stats["graph_exec"] == "source"
        assert all(mode == "source" for mode in stats["executors"].values())
        assert stats["alloc_stats"]["persistent_buffers"] > 0
        # diagnostics() must stay JSON-able (DSE results pickle/serialize).
        import json
        json.dumps(stats)

        eager = train_plain(small_model(), mse_loss, clone_loader(train),
                            clone_loader(val), epochs=2, patience=2,
                            compile_step=False)
        assert eager.compile_stats is None


# ----------------------------------------------------------------------
# Perf smoke (env-gated): records BENCH_codegen.json
# ----------------------------------------------------------------------

PERF_RESULT_PATH = os.path.join(os.path.dirname(__file__), "..",
                                "BENCH_codegen.json")
# Every row times the two executors of the *same* optimized program
# (``optimize="default"`` on both sides), so the ratio isolates exactly
# what source lowering removes: the interpreter's plan-tuple loop and the
# FusedOp wrapper's sub-op machinery.  The headline row is the
# dispatch-bound regime this executor targets — per-sample latency and
# small-batch DSE probing, where kernels are cheap and the per-node
# machinery is the bottleneck.  Wide heavy-batch rows are kernel-bound;
# they only assert the source executor never loses.
# Headline config first: it runs before sustained load heats the machine
# into thermal throttling, which would otherwise skew its clock envelope.
PERF_CONFIGS = [
    ("float32", "im2col", 0.1, 1),    # headline: dispatch-bound
    ("float32", "im2col", 0.25, 4),   # the interpreter bench's headline shape
    ("float64", "im2col", 0.25, 16),  # kernel-bound
]
PERF_ASSERT_CONFIG = ("float32", "im2col", 0.1, 1)
PERF_TARGET_SPEEDUP = 1.15  # source over interp on the headline row
PERF_FLOOR_SPEEDUP = 1.0    # source over interp on every row
REPS = 25
WARMUP = 3


def _time_interleaved(steps, models, x, y):
    """Min-of-reps per step, measured round-robin (PR 4 methodology).

    Interleaving is load-bearing: timing one variant to completion before
    the next lets CPU frequency drift (turbo decay, thermal throttling)
    masquerade as a speedup or regression of whichever ran later.
    Round-robin exposes every variant to the same clock envelope.
    """
    best = [float("inf")] * len(steps)
    for rep in range(WARMUP + REPS):
        for i, step in enumerate(steps):
            models[i].zero_grad()
            start = time.perf_counter()
            step(x, y)
            elapsed = time.perf_counter() - start
            if rep >= WARMUP:
                best[i] = min(best[i], elapsed)
    return best


def _assert_zero_alloc(step, model, x, y):
    step(x, y)              # warm replay (materializes lazy scratch)
    step.alloc_stats
    for _ in range(3):
        model.zero_grad()
        step(x, y)
    alloc = step.alloc_stats
    assert alloc["steady_state_growth"] == 0, alloc
    return alloc


@pytest.mark.perf
@pytest.mark.skipif(not os.environ.get("REPRO_RUN_PERF"),
                    reason="perf smoke test; set REPRO_RUN_PERF=1 to run")
def test_codegen_executor_speedup():
    rows = []
    try:
        for dtype, backend, width, batch in PERF_CONFIGS:
            set_default_dtype(dtype)
            rng = np.random.default_rng(0)
            x = rng.standard_normal((batch, 4, 256))
            y = rng.standard_normal((batch, 1))
            model = temponet_seed(width_mult=width, seed=3)

            def step_fn(tx, ty, model=model):
                task = mae_loss(model(tx), ty)
                return task + size_regularizer(model, 0.02), task

            with repro.use_backend(backend):
                interp = CompiledStep(step_fn, optimize="default",
                                      graph_exec="interp")
                source = CompiledStep(step_fn, optimize="default",
                                      graph_exec="source")
                interp(x, y)
                source(x, y)
                assert interp.fallback_reason is None
                assert not source.exec_fallbacks, source.exec_fallbacks
                alloc = _assert_zero_alloc(source, model, x, y)
                interp_s, source_s = _time_interleaved(
                    [interp, source], [model, model], x, y)
            rows.append({
                "row": "pit-step", "dtype": dtype, "backend": backend,
                "width": width, "batch": batch,
                "model": f"temponet width={width} T=256",
                "interp_seconds": interp_s, "source_seconds": source_s,
                "speedup": interp_s / source_s,
                "alloc_stats": alloc,
            })
            print(f"\n{dtype} {backend} w{width} b{batch}: "
                  f"interp {interp_s * 1e3:.2f} ms  "
                  f"source {source_s * 1e3:.2f} ms "
                  f"({interp_s / source_s:.2f}x)")

        # Stacked row: the vmap-style multi-λ step (M grid points fused into
        # one program) through both executors.
        set_default_dtype("float32")
        rng = np.random.default_rng(0)
        trainers = []
        for mode in ("interp", "source"):
            model = temponet_seed(width_mult=0.25, seed=3)
            trainers.append(StackedPITTrainer(
                model, mse_loss, lams=[0.0, 0.25, 0.5, 1.0],
                compile_step=True, graph_opt="default", graph_exec=mode))
        m = trainers[0].m
        x = rng.standard_normal((m, 4, 4, 256)).astype(np.float32)
        y = rng.standard_normal((m, 4, 1)).astype(np.float32)
        with repro.use_backend("im2col"):
            steps = [tr._make_step(True) for tr in trainers]
            for tr, step in zip(trainers, steps):
                step(x, y)
            assert not steps[1].exec_fallbacks, steps[1].exec_fallbacks
            alloc = _assert_zero_alloc(steps[1], trainers[1].stacked, x, y)
            interp_s, source_s = _time_interleaved(
                steps, [tr.stacked for tr in trainers], x, y)
        rows.append({
            "row": "stacked-step", "dtype": "float32", "backend": "im2col",
            "width": 0.25, "batch": 4,
            "model": f"stacked temponet width=0.25 T=256 M={m}",
            "interp_seconds": interp_s, "source_seconds": source_s,
            "speedup": interp_s / source_s,
            "alloc_stats": alloc,
        })
        print(f"\nstacked float32 im2col M={m} b4: "
              f"interp {interp_s * 1e3:.2f} ms  "
              f"source {source_s * 1e3:.2f} ms "
              f"({interp_s / source_s:.2f}x)")
    finally:
        set_default_dtype("float64")

    payload = {"reps": REPS, "timing": "interleaved min-of-reps",
               "compares": "graph_exec=interp vs graph_exec=source, both "
                           "optimize=default",
               "step": "PIT pruning step (task + size reg)", "rows": rows}
    with open(os.path.abspath(PERF_RESULT_PATH), "w") as handle:
        json.dump(payload, handle, indent=2)

    for row in rows:
        assert row["speedup"] >= PERF_FLOOR_SPEEDUP, (
            f"source executor slower than interp on {row['row']} "
            f"{row['dtype']}/{row['backend']}/w{row['width']}"
            f"/b{row['batch']}: {row['speedup']:.2f}x")
    headline = next(r for r in rows
                    if (r["dtype"], r["backend"], r["width"], r["batch"])
                    == PERF_ASSERT_CONFIG and r["row"] == "pit-step")
    assert headline["speedup"] >= PERF_TARGET_SPEEDUP, (
        f"codegen executor speedup regressed: "
        f"{headline['speedup']:.2f}x < {PERF_TARGET_SPEEDUP}x "
        f"({headline['interp_seconds'] * 1e3:.2f} ms vs "
        f"{headline['source_seconds'] * 1e3:.2f} ms)")
