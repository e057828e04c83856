"""Unit + differential tests for the graph-optimizer pass pipeline.

Each pass is exercised on tiny captured programs where its effect is
observable (folded constants, removed dead ops, fused chains, planned
buffers), and the pipeline as a whole is locked to the unoptimized replay
bit-for-bit: same losses, same gradients, same trained state — across the
TCN seeds and the full three-phase PIT run.  ``CompiledStep.alloc_stats``
is asserted to show zero steady-state growth, the "optimized replay
allocates nothing" guarantee.
"""

import numpy as np
import pytest

from repro.autograd import (
    CompiledStep,
    Tensor,
    set_default_dtype,
)
from repro.autograd.graph import CompileConfig, build_program, capture
from repro.autograd.graph.ir import OpNode
from repro.autograd.graph.passes import (
    ENV_GRAPH_OPT,
    FusedOp,
    eliminate_dead_nodes,
    fold_constants,
    fuse_chains,
    graph_opt_default,
    resolve_graph_opt,
)
from repro.core import PITTrainer, size_regularizer
from repro.core.pit_conv import PITConv1d
from repro.core.trainer import make_training_step
from repro.data import ArrayDataset, DataLoader
from repro.models import restcn_seed, temponet_seed
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    GlobalAvgPool1d,
    Linear,
    ReLU,
    Sequential,
    mae_loss,
    mse_loss,
    polyphonic_nll,
)
from repro.optim import Adam

OPTIMIZED = CompileConfig(compile_step=True, graph_opt="default")


def trace_program(step_fn, x, y):
    """Capture one step into a (program, outputs) pair."""
    with capture() as tracer:
        tx, ty = Tensor(x), Tensor(y)
        tracer.add_input(tx)
        tracer.add_input(ty)
        outs = step_fn(tx, ty)
        outs = outs if isinstance(outs, tuple) else (outs,)
        outs[0].backward()
    assert tracer.failure is None, tracer.failure
    return build_program(tracer, outs[0], outs), outs


def op_names(program):
    return [node.op.name for node in program.schedule
            if type(node) is OpNode]


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------

class TestKnobs:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv(ENV_GRAPH_OPT, raising=False)
        assert graph_opt_default() == "default"
        assert resolve_graph_opt(None) == "default"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_GRAPH_OPT, "none")
        assert resolve_graph_opt(None) == "none"
        # An explicit argument beats the environment.
        assert resolve_graph_opt("default") == "default"

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="graph optimization level"):
            resolve_graph_opt("aggressive")
        with pytest.raises(ValueError):
            CompiledStep(lambda x, y: x, optimize="O3")


# ----------------------------------------------------------------------
# Pass 1: constant folding
# ----------------------------------------------------------------------

class TestFoldConstants:
    def test_constant_subgraph_folds(self):
        w = Tensor(np.ones((3,)), requires_grad=True)
        c1, c2 = Tensor([1.0, 2.0, 3.0]), Tensor([2.0, 2.0, 2.0])

        def step_fn(x, y):
            scale = (c1 * c2) + 1.0          # entirely constant
            return ((x * scale * w) - y).abs().mean()

        program, _ = trace_program(step_fn, np.ones(3), np.zeros(3))
        ops_before = op_names(program)
        assert ops_before.count("mul") >= 3
        assert "add" in ops_before            # the +1.0 constant op
        folded = fold_constants(program)
        assert folded == 2                    # c1*c2 and +1.0
        assert "add" not in op_names(program)
        # The folded values are bound as constant leaves with unique slots.
        slots = {slot for slot, _ in program.leaves}
        assert len(slots) == len(program.leaves)

    def test_folding_respects_dtype(self):
        set_default_dtype("float32")
        try:
            c1, c2 = Tensor([1.0, 2.0]), Tensor([0.5, 4.0])
            w = Tensor(np.ones(2), requires_grad=True)

            def step_fn(x, y):
                return (x * (c1 > c2) * w).sum()  # comparison -> bool -> f32

            program, _ = trace_program(step_fn, np.ones(2), np.zeros(2))
            folded = fold_constants(program)
            assert folded == 1
            slot, leaf = program.leaves[-1]
            assert leaf.data.dtype == np.float32
            assert np.array_equal(leaf.data, np.array([1.0, 0.0], np.float32))
        finally:
            set_default_dtype("float64")

    def test_inputs_are_never_constants(self):
        """Batch inputs appear in program.leaves but must never fold."""
        w = Tensor(np.ones(4), requires_grad=True)

        def step_fn(x, y):
            return (x[0:2].sum() + (x * w).sum()) - y.sum()

        program, _ = trace_program(step_fn, np.arange(4.0), np.zeros(1))
        before = len(op_names(program))
        assert fold_constants(program) == 0
        assert len(op_names(program)) == before

    def test_stateful_dropout_never_folds(self):
        from repro.autograd import dropout
        c = Tensor(np.ones(64))
        w = Tensor(np.ones(64), requires_grad=True)
        rng = np.random.default_rng(0)

        def step_fn(x, y):
            masked = dropout(c, 0.5, training=True, rng=rng)  # constant input
            return (masked * w * x).sum()

        program, _ = trace_program(step_fn, np.ones(64), np.zeros(1))
        fold_constants(program)
        assert "dropout" in op_names(program)

    def test_frozen_pit_mask_subgraph_folds(self):
        """Phase 3: frozen masks turn the whole mask product constant."""
        rng = np.random.default_rng(0)
        model = Sequential(PITConv1d(2, 3, rf_max=9, rng=rng),
                           GlobalAvgPool1d(), Linear(3, 1, rng=rng))
        model[0].freeze()
        step = make_training_step(model, mse_loss,
                                  compile_config=OPTIMIZED)
        x, y = rng.standard_normal((2, 2, 16)), rng.standard_normal((2, 1))
        step(x, y)
        stats = next(iter(step.opt_stats.values()))
        # The frozen mask's kernel-order getitem pre-evaluates at least.
        assert stats["folded"] >= 1

    def test_stateful_batch_norm_never_folds(self):
        bn = BatchNorm1d(4)
        for p in bn.parameters():
            p.requires_grad = False
        c = Tensor(np.arange(8.0).reshape(2, 4))
        w = Tensor(np.ones(4), requires_grad=True)

        def step_fn(x, y):
            return (bn(c) * w * x).sum()      # every bn input is constant

        program, _ = trace_program(step_fn, np.ones(4), np.zeros(1))
        fold_constants(program)
        assert "batch_norm" in op_names(program)

    def test_batch_norm_survives_frozen_mask_folding(self):
        """Finetune: the frozen mask product folds, while the batch norm
        behind the masked conv stays and keeps updating its running
        statistics on every replay, exactly as eager does."""
        def make():
            rng = np.random.default_rng(0)
            model = Sequential(PITConv1d(2, 3, rf_max=9, rng=rng),
                               BatchNorm1d(3), ReLU(), GlobalAvgPool1d(),
                               Linear(3, 1, rng=rng))
            model[0].freeze()
            return model

        model, twin = make(), make()
        step = make_training_step(model, mse_loss, compile_config=OPTIMIZED)
        eager = make_training_step(
            twin, mse_loss, compile_config=CompileConfig(compile_step=False))
        rng = np.random.default_rng(1)
        for _ in range(3):
            x, y = rng.standard_normal((2, 2, 16)), rng.standard_normal((2, 1))
            assert step(x, y) == eager(x, y)
            assert np.array_equal(model[1].running_mean, twin[1].running_mean)
            assert np.array_equal(model[1].running_var, twin[1].running_var)
        assert next(iter(step.opt_stats.values()))["folded"] >= 1
        (runner,) = step._runners.values()
        assert any("batch_norm" in node.op.name
                   for node in runner.program.schedule)


# ----------------------------------------------------------------------
# Pass 2: dead-node elimination
# ----------------------------------------------------------------------

class TestDeadNodeElimination:
    def test_dead_subgraph_removed(self):
        w = Tensor(np.ones(3), requires_grad=True)

        def step_fn(x, y):
            dead = (x - y).abs().mean()       # feeds nothing
            return (x * w).sum()

        program, _ = trace_program(step_fn, np.ones(3), np.zeros(3))
        assert "abs" in op_names(program)
        removed = eliminate_dead_nodes(program)
        assert removed == 3                    # sub, abs, mean
        assert "abs" not in op_names(program)

    def test_effect_nodes_and_their_inputs_survive(self):
        """Stateful ops (BatchNorm's running-statistics update) are roots
        of liveness, and so is everything they read."""
        bn = BatchNorm1d(3)
        w = Tensor(np.ones(3), requires_grad=True)

        def step_fn(x, y):
            bn(x.abs())                        # output feeds nothing
            return (x * w).sum()

        program, _ = trace_program(step_fn, np.ones((4, 3)), np.zeros(3))
        removed = eliminate_dead_nodes(program)
        assert removed == 0
        assert "abs" in op_names(program)
        assert "batch_norm" in op_names(program)

    def test_compiled_replay_still_fires_effects(self):
        bn, twin = BatchNorm1d(3), BatchNorm1d(3)
        w = Tensor(np.ones(3), requires_grad=True)

        def step_fn(x, y):
            bn(x)                              # output feeds nothing
            return (x * w).sum()

        step = CompiledStep(step_fn, optimize="default")
        for value in (1.0, 2.0, 3.0):
            x = np.full((4, 3), value) + np.arange(3.0)
            step(x, np.zeros(3))
            twin(Tensor(x))
            assert np.array_equal(bn.running_mean, twin.running_mean)
            assert np.array_equal(bn.running_var, twin.running_var)
        assert bn.running_mean[0] != 0.0


# ----------------------------------------------------------------------
# Pass 3: fusion
# ----------------------------------------------------------------------

class TestFusion:
    def test_loss_chain_fuses(self):
        w = Tensor(np.ones((4,)), requires_grad=True)

        def step_fn(x, y):
            return ((x * w) - y).abs().mean()

        program, _ = trace_program(step_fn, np.ones(4), np.zeros(4))
        groups, absorbed = fuse_chains(program)
        assert groups >= 1
        fused = [node.op for node in program.schedule
                 if type(node) is OpNode and isinstance(node.op, FusedOp)]
        assert fused and any("abs" in op.name for op in fused)

    def test_fused_backward_is_bit_identical(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((5,)), requires_grad=True)

        def step_fn(x, y):
            return ((x * w) - y).abs().mean()

        plain = CompiledStep(step_fn, optimize="none")
        fused = CompiledStep(step_fn, optimize="default")
        for i in range(4):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            w.zero_grad()
            out_a = plain(x, y)
            grad_a = np.array(w.grad)
            w.zero_grad()
            out_b = fused(x, y)
            assert out_a == out_b
            assert np.array_equal(grad_a, w.grad)
        stats = next(iter(fused.opt_stats.values()))
        assert stats["fused_groups"] >= 1

    def test_output_slots_never_fuse_away(self):
        """Both step outputs (loss, task) stay addressable after fusion."""
        w = Tensor(np.ones(3), requires_grad=True)

        def step_fn(x, y):
            task = (x * w).sum()
            return task + 0.5 * (w * w).sum(), task

        step = CompiledStep(step_fn, optimize="default")
        first = step(np.ones(3), np.zeros(3))
        second = step(np.ones(3), np.zeros(3))
        assert first == second
        assert len(first) == 2


# ----------------------------------------------------------------------
# Pass 4: memory planning / alloc_stats
# ----------------------------------------------------------------------

class TestMemoryPlan:
    def _conv_model(self):
        rng = np.random.default_rng(7)
        return Sequential(
            CausalConv1d(3, 8, kernel_size=5, rng=rng), ReLU(),
            CausalConv1d(8, 8, kernel_size=3, rng=rng), ReLU(),
            GlobalAvgPool1d(), Linear(8, 2, rng=rng))

    def test_inplace_when_fusion_blocked_by_effect(self):
        w = Tensor(np.ones((4,)), requires_grad=True)
        bn = BatchNorm1d(4)

        def step_fn(x, y):
            a = x * w
            # The stateful batch-norm read blocks fusing [mul, relu], and
            # the two consumers of b keep relu out of any chain — a
            # standalone relu whose input dies right there, so it runs in
            # place.
            bn(a)
            b = a.relu()
            return b.sum() + b.mean()

        step = CompiledStep(step_fn, optimize="default")
        x = np.linspace(-1, 1, 16).reshape(4, 4)
        first = step(x, np.zeros(1))
        stats = next(iter(step.opt_stats.values()))
        assert stats["inplace_ops"] >= 1
        assert step(x, np.zeros(1)) == first

    def test_alloc_stats_zero_steady_state_growth(self):
        model = self._conv_model()
        step = make_training_step(model, mse_loss,
                                  compile_config=OPTIMIZED)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 3, 32)), rng.standard_normal((4, 2))
        step(x, y)          # trace
        step(x, y)          # warm replay (materializes lazy scratch)
        warm = step.alloc_stats
        assert warm["programs"] == 1
        assert warm["arena_buffers"] > 0
        for _ in range(5):
            model.zero_grad()
            step(x, y)
        steady = step.alloc_stats
        assert steady["steady_state_growth"] == 0
        assert steady["persistent_buffers"] == warm["persistent_buffers"]

    def test_arena_shares_buffers(self):
        model = temponet_seed(width_mult=0.125, seed=3)

        def step_fn(tx, ty):
            task = mae_loss(model(tx), ty)
            return task + size_regularizer(model, 0.02), task

        step = CompiledStep(step_fn, optimize="default")
        rng = np.random.default_rng(0)
        step(rng.standard_normal((4, 4, 256)), rng.standard_normal((4, 1)))
        stats = next(iter(step.opt_stats.values()))
        assert stats["arena_reuses"] >= 1
        assert stats["inplace_ops"] >= 1
        assert stats["fused_groups"] >= 10

    def test_views_never_share_recycled_buffers(self):
        """A reshape of an intermediate keeps the storage alive."""
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((6,)), requires_grad=True)

        def step_fn(x, y):
            a = x + w                    # fwd_out op -> arena candidate
            b = a.reshape(2, 3)          # view of a
            c = (x * 2.0).relu()         # more arena traffic
            return (b.sum() + c.sum()) - y.sum()

        plain = CompiledStep(step_fn, optimize="none")
        opt = CompiledStep(step_fn, optimize="default")
        for _ in range(3):
            x = rng.standard_normal(6)
            y = rng.standard_normal(1)
            w.zero_grad()
            ref = plain(x, y)
            ga = np.array(w.grad)
            w.zero_grad()
            assert opt(x, y) == ref
            assert np.array_equal(w.grad, ga)


# ----------------------------------------------------------------------
# Whole-pipeline differential: optimized == unoptimized, bit for bit
# ----------------------------------------------------------------------

def run_training(make_model, batches, loss_fn, extra_loss_fn, graph_opt):
    model = make_model()
    extra = (lambda: extra_loss_fn(model)) if extra_loss_fn else None
    step = make_training_step(model, loss_fn, extra_loss=extra,
                              compile_config=CompileConfig(
                                  compile_step=True, graph_opt=graph_opt))
    optimizer = Adam(model.parameters(), lr=1e-3)
    losses = []
    for x, y in batches:
        model.train()
        optimizer.zero_grad()
        losses.append(step(x, y))
        optimizer.step()
    assert step.fallback_reason is None, step.fallback_reason
    assert not step.exec_fallbacks, step.exec_fallbacks
    assert step.dump_source().keys() == set(step.compiled_shapes)
    return losses, model.state_dict(), step


class TestPipelineParity:
    def _batches(self, xshape, yshape, count=3, seed=0):
        rng = np.random.default_rng(seed)
        return [(rng.standard_normal(xshape), rng.standard_normal(yshape))
                for _ in range(count)]

    @pytest.mark.parametrize("seed_fn,xshape,yshape,loss_fn", [
        (lambda: temponet_seed(width_mult=0.125, seed=3), (8, 4, 256),
         (8, 1), mae_loss),
        (lambda: restcn_seed(width_mult=0.05, seed=1), (4, 88, 48),
         (4, 88, 48), polyphonic_nll),
    ])
    def test_tcn_seeds_bit_identical(self, seed_fn, xshape, yshape, loss_fn):
        batches = self._batches(xshape, yshape)
        base, state_a, _ = run_training(
            seed_fn, batches, loss_fn,
            lambda m: size_regularizer(m, 0.02), "none")
        opt, state_b, step = run_training(
            seed_fn, batches, loss_fn,
            lambda m: size_regularizer(m, 0.02), "default")
        assert base == opt
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key
        stats = next(iter(step.opt_stats.values()))
        assert stats["fused_groups"] >= 1

    def test_three_phase_pit_bit_identical(self):
        outcomes = {}
        configs = ["none", "default"]
        for graph_opt in configs:
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
                                     compile_step=True, graph_opt=graph_opt))
            outcomes[graph_opt] = (trainer.fit(train, val),
                                   model.state_dict())
        base = outcomes[configs[0]]
        for config in configs[1:]:
            opt = outcomes[config]
            assert base[0].dilations == opt[0].dilations, config
            assert base[0].best_val == opt[0].best_val, config
            assert base[0].history == opt[0].history, config
            for key in base[1]:
                assert np.array_equal(base[1][key], opt[1][key]), (config, key)

    def test_shape_polymorphism_optimizes_each_program(self):
        rng = np.random.default_rng(5)
        model = Sequential(CausalConv1d(2, 4, kernel_size=3, rng=rng),
                           ReLU(), GlobalAvgPool1d(), Linear(4, 1, rng=rng))
        step = make_training_step(model, mse_loss,
                                  compile_config=OPTIMIZED)
        step(rng.standard_normal((4, 2, 16)), rng.standard_normal((4, 1)))
        step(rng.standard_normal((2, 2, 16)), rng.standard_normal((2, 1)))
        assert len(step.opt_stats) == 2
        assert all(s["fused_groups"] >= 1 for s in step.opt_stats.values())
