"""Unit + differential tests for source lowering, the compiled step's replay.

The lowering pass turns an optimized ``GraphProgram`` into one specialized
Python function — slots become locals, kernels become closure-bound calls,
the backward schedule is unrolled in source order.  These tests lock:

* the generated source's *shape* — no dict dispatch, no kwargs re-lookup,
  no plan loop in the hot path;
* bit-parity with eager execution on models the module-wide legs in
  ``test_graph_executor.py`` don't cover verbatim (three-phase PIT through
  the trainer, stacked training);
* the process-wide source→code cache (retraces and same-architecture DSE
  points compile once);
* the eager fallback on lowering failure;
* ``dump_source``/``diagnostics`` introspection and zero steady-state
  allocation under replay.
"""

import copy

import numpy as np

from repro.autograd import set_default_dtype
from repro.autograd.graph import CompileConfig, LoweringError
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


COMPILED = CompileConfig(compile_step=True)


def train_steps(make_model, batches, compiled, loss_fn=mse_loss):
    """Train one model with an eager or compiled step; return (losses,
    state, grads, step)."""
    model = make_model()
    step = make_training_step(
        model, loss_fn, compile_config=CompileConfig(compile_step=compiled))
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
# Generated-source shape: the dispatch overhead must actually be gone
# ----------------------------------------------------------------------

class TestGeneratedSource:
    def _source(self):
        model = small_model()
        model.train()  # BatchNorm runs its stateful training-mode op
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
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

    def test_batch_norm_kernel_called_once_per_layer(self):
        """Each BatchNorm layer is one fused batch-norm kernel call in the
        forward sweep (its running-statistics update included), not a
        chain of primitives plus a separate update."""
        from repro.autograd.ops_nn import _BATCH_NORM
        rng = np.random.default_rng(3)
        model = Sequential(
            CausalConv1d(3, 6, kernel_size=3, rng=rng), BatchNorm1d(6),
            ReLU(), GlobalAvgPool1d(), Linear(6, 4, rng=rng),
            BatchNorm1d(4), Linear(4, 2, rng=rng))
        model.train()
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
        x, y = batches_of((4, 3, 32), (4, 2), count=1)[0]
        step(x, y)
        (runner,) = step._runners.values()
        names = [name for name, cell in zip(runner.run.__code__.co_freevars,
                                             runner.run.__closure__)
                 if cell.cell_contents is _BATCH_NORM.fwd_scratch]
        assert len(names) == 1
        body = runner.source[runner.source.index("def run(inputs):"):]
        assert body.count(f"{names[0]}(") == 2

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
        from repro.core.regularizer import pit_layers
        model = temponet_seed(width_mult=0.125, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4, 256))
        y = rng.standard_normal((4, 1))
        cfg = CompileConfig(compile_step=True)
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
# Bit-parity with eager execution
# ----------------------------------------------------------------------

def assert_all_lowered(step):
    """Every compiled program replays its generated source."""
    assert step.fallback_reason is None
    assert not step.exec_fallbacks
    assert step.compiled_shapes
    assert step.dump_source().keys() == set(step.compiled_shapes)


class TestParity:
    def test_training_run_bit_identical(self):
        batches = batches_of((4, 3, 32), (4, 2))
        eager = train_steps(small_model, batches, False)
        source = train_steps(small_model, batches, True)
        assert eager[0] == source[0]
        for key in eager[1]:
            assert np.array_equal(eager[1][key], source[1][key]), key
        for key in eager[2]:
            assert np.array_equal(eager[2][key], source[2][key]), key
        assert_all_lowered(source[3])

    def test_float32_parity(self):
        set_default_dtype("float32")
        try:
            batches = batches_of((4, 3, 32), (4, 2))
            eager = train_steps(small_model, batches, False)
            source = train_steps(small_model, batches, True)
            assert eager[0] == source[0]
            for key in eager[1]:
                assert np.array_equal(eager[1][key], source[1][key]), key
        finally:
            set_default_dtype("float64")

    def test_three_phase_pit_bit_identical(self):
        outcomes = {}
        for mode in ("eager", "source"):
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
                                 finetune_patience=1,
                                 compile_config=CompileConfig(
                                     compile_step=(mode == "source")))
            outcomes[mode] = (trainer.fit(train, val), model.state_dict())
        base, src = outcomes["eager"], outcomes["source"]
        assert base[0].dilations == src[0].dilations
        assert base[0].best_val == src[0].best_val
        assert base[0].history == src[0].history
        for key in base[1]:
            assert np.array_equal(base[1][key], src[1][key]), key
        # The trainer surfaced per-phase diagnostics for the compiled run.
        assert set(src[0].compile_stats) == {"warmup", "prune", "finetune"}
        assert all(stats["fallback_reason"] is None
                   and not stats["exec_fallbacks"]
                   for stats in src[0].compile_stats.values())

    def test_stacked_training_bit_identical(self):
        """Same stacked program, eager and compiled: results must be
        bit-equal (this is tier-vs-tier, not stacked-vs-sequential, so no
        reduction-order tolerance applies)."""
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((24, 4, 256)),
                            rng.standard_normal((24, 1)))
        outcomes = {}
        for mode in ("eager", "source"):
            train = DataLoader(data, 8, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(data, 8)
            trainer = StackedPITTrainer(
                temponet_seed(width_mult=0.125, seed=3), mae_loss,
                lams=[0.0, 0.5], warmup_epochs=1, max_prune_epochs=2,
                prune_patience=2, finetune_epochs=1, finetune_patience=1,
                compile_config=CompileConfig(compile_step=(mode == "source")))
            outcomes[mode] = trainer.fit(train, val)
        for seq, src in zip(outcomes["eager"], outcomes["source"]):
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
        eager = make_training_step(
            eager_model, mse_loss,
            compile_config=CompileConfig(compile_step=False))
        source = make_training_step(source_model, mse_loss,
                                    compile_config=COMPILED)
        for _ in range(2):
            for x, y in loader:
                eager_model.zero_grad()
                source_model.zero_grad()
                assert source(x, y) == eager(x, y)
        assert len(source.compiled_shapes) == 2
        assert_all_lowered(source)


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
                                      compile_config=COMPILED)
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
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
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
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
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
# Lowering failure → eager fallback (never break training)
# ----------------------------------------------------------------------

class TestLoweringFallback:
    def test_emit_failure_falls_back_to_eager(self, monkeypatch):
        calls = []

        def explode(runner):
            calls.append(runner)
            raise LoweringError("synthetic lowering failure")

        monkeypatch.setattr(codegen, "_emit", explode)
        batches = batches_of((4, 3, 32), (4, 2))
        eager = train_steps(small_model, batches, False)
        degraded = train_steps(small_model, batches, True)
        # Bit-identical results — the step dropped to its eager rung...
        assert eager[0] == degraded[0]
        for key in eager[1]:
            assert np.array_equal(eager[1][key], degraded[1][key]), key
        for key in eager[2]:
            assert np.array_equal(eager[2][key], degraded[2][key]), key
        step = degraded[3]
        assert step.compiled_shapes == ()
        assert len(calls) == 1          # lowered once, then eager for good
        # ...and the reason is on the record, per program.
        assert len(step.exec_fallbacks) == 1
        assert "synthetic lowering failure" in next(
            iter(step.exec_fallbacks.values()))
        assert "synthetic lowering failure" in step.fallback_reason
        stats = step.diagnostics()
        assert stats["exec_fallbacks"]
        assert stats["fallback_reason"] == step.fallback_reason


# ----------------------------------------------------------------------
# Allocation discipline under replay
# ----------------------------------------------------------------------

class TestAllocStats:
    def test_zero_steady_state_growth(self):
        model = small_model()
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
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
                             patience=2, compile_config=COMPILED)
        stats = result.compile_stats
        assert stats is not None
        assert stats["fallback_reason"] is None
        assert not stats["exec_fallbacks"]
        assert stats["opt_stats"]
        assert stats["alloc_stats"]["persistent_buffers"] > 0
        # diagnostics() must stay JSON-able (DSE results pickle/serialize).
        import json
        json.dumps(stats)

        eager = train_plain(small_model(), mse_loss, clone_loader(train),
                            clone_loader(val), epochs=2, patience=2,
                            compile_config=CompileConfig(compile_step=False))
        assert eager.compile_stats is None
