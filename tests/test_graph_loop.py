"""Differential harness for whole-loop (epoch) capture.

Locks :class:`repro.autograd.graph.CompiledEpoch` — one loop program per
epoch, optimizer update kernels and grad clipping included — to the
per-step compiled path and to eager execution: bit-identical losses,
parameters, Adam moments (``m`` / ``v`` / step counters) and early-stop
trajectories, across both conv backends, both dtypes, and the stacked
trainer.

Also covers the loop structure itself (a replayed epoch is a single
:class:`LoopNode` program lowered to a real ``for`` loop), the fallback
ladder (loop → per-step → eager, each rung degrading without poisoning
the one below, epoch lowering failures included), and the consolidated
:class:`CompileConfig` knob object.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    get_default_dtype,
    mark_capture_unsafe,
    set_default_dtype,
    use_backend,
)
from repro.autograd.graph import (
    CompileConfig,
    CompiledEpoch,
    CompiledStep,
    EagerStep,
    LoopNode,
    loop_capture_default,
)
from repro.autograd.graph import codegen
from repro.core import PITTrainer
from repro.core.pit_conv import PITConv1d
from repro.core.stacked import StackedPITTrainer
from repro.core.trainer import make_epoch_runner, make_training_step, train_plain
from repro.data import ArrayDataset, DataLoader, clone_loader
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    GlobalAvgPool1d,
    Linear,
    Module,
    ReLU,
    Sequential,
    mse_loss,
)
from repro.optim import Adam, clip_grad_norm


@pytest.fixture
def dtype_restore():
    prev = get_default_dtype()
    yield
    set_default_dtype(prev)


def small_net(seed=5):
    rng = np.random.default_rng(seed)
    return Sequential(CausalConv1d(2, 4, kernel_size=3, rng=rng), ReLU(),
                      GlobalAvgPool1d(), Linear(4, 1, rng=rng))


class StackSeed(Module):
    """A PIT seed with BN and dropout: every stacked per-model stream."""

    def __init__(self):
        super().__init__()
        mrng = np.random.default_rng(0)
        self.c1 = PITConv1d(2, 4, rf_max=5, rng=mrng)
        self.bn = BatchNorm1d(4)
        self.r1 = ReLU()
        self.dp = Dropout(0.2, rng=mrng)
        self.h = CausalConv1d(4, 1, 1, rng=mrng)

    def forward(self, inp):
        return self.h(self.dp(self.r1(self.bn(self.c1(inp)))))


def batches_of(count=4, n=6, seed=0, tail=None):
    """`count` uniform (x, y) batch pairs, plus an optional ragged tail."""
    rng = np.random.default_rng(seed)
    dtype = get_default_dtype()
    out = [(rng.standard_normal((n, 2, 16)).astype(dtype),
            rng.standard_normal((n, 1)).astype(dtype))
           for _ in range(count)]
    if tail:
        out.append((rng.standard_normal((tail, 2, 16)).astype(dtype),
                    rng.standard_normal((tail, 1)).astype(dtype)))
    return out


def run_leg(mode, batches, epochs=3, grad_clip=None, model_seed=5):
    """Train one fresh model `epochs` times over `batches` in one mode.

    mode: "eager" | "step" (per-step compiled) | "loop" (whole-loop).
    Returns (model, optimizer, per-epoch mean task losses, epoch runner).
    """
    model = small_net(model_seed)
    optimizer = Adam(model.parameters(), lr=1e-3)
    cfg = CompileConfig(compile_step=(mode != "eager"),
                        loop_capture=(mode == "loop"))
    step = make_training_step(model, mse_loss, compile_config=cfg)
    epoch = make_epoch_runner(step, optimizer, grad_clip, cfg)
    assert (epoch is not None) == (mode == "loop")
    losses = []
    for _ in range(epochs):
        if epoch is not None:
            losses.append(epoch.run_batches(list(batches)))
        else:
            total = 0.0
            for x, y in batches:
                optimizer.zero_grad()
                outs = step(x, y)
                if grad_clip is not None:
                    clip_grad_norm(optimizer.params, grad_clip)
                optimizer.step()
                total += outs[1]
            losses.append(total / len(batches))
    return model, optimizer, losses, epoch


def assert_leg_parity(ref, other, context=""):
    """Bit-equality of losses, parameters and full Adam state."""
    ref_model, ref_opt, ref_losses, _ = ref
    model, opt, losses, _ = other
    assert len(ref_losses) == len(losses)
    for i, (a, b) in enumerate(zip(ref_losses, losses)):
        assert np.array_equal(a, b), f"{context}: epoch {i} loss"
    s1, s2 = ref_model.state_dict(), model.state_dict()
    assert s1.keys() == s2.keys()
    for key in s1:
        assert np.array_equal(s1[key], s2[key]), f"{context}: state {key}"
    for p1, p2 in zip(ref_opt.params, opt.params):
        k1, k2 = id(p1), id(p2)
        assert (k1 in ref_opt._m) == (k2 in opt._m), f"{context}: moment set"
        if k1 in ref_opt._m:
            assert np.array_equal(ref_opt._m[k1], opt._m[k2]), \
                f"{context}: adam m"
            assert np.array_equal(ref_opt._v[k1], opt._v[k2]), \
                f"{context}: adam v"
            assert ref_opt._t[k1] == opt._t[k2], f"{context}: adam t"


# ----------------------------------------------------------------------
# Three-way parity: loop == per-step compiled == eager, bit for bit
# ----------------------------------------------------------------------

class TestEpochParity:
    @pytest.mark.parametrize("backend", ["einsum", "im2col"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_three_way_parity(self, backend, dtype, dtype_restore):
        set_default_dtype(dtype)
        with use_backend(backend):
            batches = batches_of(count=3, tail=2)
            ctx = f"{backend}/{dtype}"
            eager = run_leg("eager", batches)
            step = run_leg("step", batches)
            loop = run_leg("loop", batches)
            assert_leg_parity(eager, step, context=f"{ctx} step")
            assert_leg_parity(eager, loop, context=f"{ctx} loop")
            epoch = loop[3]
            assert epoch.loop_fallback_reason is None
            assert epoch.driven_epochs == 1      # the tracing epoch
            assert epoch.replayed_epochs == 2

    def test_parity_with_grad_clip(self):
        batches = batches_of(count=3, tail=2, seed=3)
        eager = run_leg("eager", batches, grad_clip=0.5)
        loop = run_leg("loop", batches, grad_clip=0.5)
        assert_leg_parity(eager, loop, context="grad-clip")
        assert loop[3].replayed_epochs == 2

    @pytest.mark.parametrize("grad_clip", [None, 0.5],
                             ids=["no-clip", "clip"])
    @pytest.mark.parametrize("tail", [None, 2], ids=["no-tail", "tail"])
    def test_first_epoch_parity(self, tail, grad_clip):
        """The tracing epoch itself replays from its second batch (an
        untraced ragged tail is driven last): one epoch of eager ==
        per-step compiled == loop, bit for bit — losses summed in eager
        order, parameters, full Adam state."""
        batches = batches_of(count=4, tail=tail, seed=4)
        eager = run_leg("eager", batches, epochs=1, grad_clip=grad_clip)
        step = run_leg("step", batches, epochs=1, grad_clip=grad_clip)
        loop = run_leg("loop", batches, epochs=1, grad_clip=grad_clip)
        assert_leg_parity(eager, step, context="first-epoch step")
        assert_leg_parity(eager, loop, context="first-epoch loop")
        epoch = loop[3]
        assert epoch.loop_fallback_reason is None
        assert (epoch.driven_epochs, epoch.replayed_epochs) == (1, 0)

    @pytest.mark.parametrize("tail", [None, 2], ids=["no-tail", "tail"])
    def test_first_epoch_drives_only_traced_batches(self, tail):
        """Eager ``optimizer.step()`` runs once in a signature's first
        epoch (the batch that traces the body), plus once for an untraced
        ragged tail (which traces the epilogue), and never afterwards."""
        model = small_net()
        optimizer = Adam(model.parameters(), lr=1e-3)
        cfg = CompileConfig(compile_step=True, loop_capture=True)
        step = make_training_step(model, mse_loss, compile_config=cfg)
        epoch = make_epoch_runner(step, optimizer, None, cfg)
        calls = []
        eager_step = optimizer.step

        def counted_step():
            calls.append(1)
            eager_step()
        optimizer.step = counted_step
        batches = batches_of(count=5, tail=tail)
        per_epoch = []
        for _ in range(3):
            before = len(calls)
            epoch.run_batches(list(batches))
            per_epoch.append(len(calls) - before)
        assert per_epoch == [1 + (tail is not None), 0, 0]
        assert (epoch.driven_epochs, epoch.replayed_epochs) == (1, 2)

    @pytest.mark.parametrize("n_train", [16, 18], ids=["no-tail", "tail"])
    def test_stacked_first_epoch_parity(self, n_train):
        """Stacked training (per-model ``vector_m`` loss accumulation,
        stacked clip kernel) where every phase is a single first epoch:
        eager, per-step compiled and loop stacked trainers agree bit for
        bit."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((n_train + 4, 2, 12))
        y = x[:, :1, :] * 0.5 + 0.3 * rng.standard_normal((n_train + 4, 1, 12))

        def run(compile_step, loop_capture):
            train = DataLoader(ArrayDataset(x[:n_train], y[:n_train]), 4,
                               shuffle=True, rng=np.random.default_rng(1))
            val = DataLoader(ArrayDataset(x[n_train:], y[n_train:]), 4)
            trainer = StackedPITTrainer(
                StackSeed(), mse_loss, lams=[1e-7, 1e-4], warmup_epochs=1,
                max_prune_epochs=1, prune_patience=1, finetune_epochs=1,
                finetune_patience=1, grad_clip=1.0,
                compile_config=CompileConfig(compile_step=compile_step,
                                             loop_capture=loop_capture))
            results = trainer.fit(train, val)
            states = [trainer.model_for(i).state_dict()
                      for i in range(len(results))]
            return results, states

        eager = run(False, False)
        for legs in (run(True, False), run(True, True)):
            for ref, other in zip(eager[0], legs[0]):
                assert other.dilations == ref.dilations
                assert other.best_val == ref.best_val
                assert other.history == ref.history
            for ref, other in zip(eager[1], legs[1]):
                for key in ref:
                    assert np.array_equal(ref[key], other[key]), key

    def test_parity_uniform_batches_no_tail(self):
        batches = batches_of(count=4)
        eager = run_leg("eager", batches)
        loop = run_leg("loop", batches)
        assert_leg_parity(eager, loop, context="no-tail")
        (node,) = loop[3].loop_nodes.values()
        assert node.epilogue is None

    def test_randomized_early_stop_grid(self):
        """train_plain with randomized patience/epoch grids: the looped,
        per-step and eager paths must stop on the same epoch with
        bit-identical histories and restored best weights."""
        rng = np.random.default_rng(7)
        data_rng = np.random.default_rng(11)
        x = data_rng.standard_normal((20, 2, 16))
        y = data_rng.standard_normal((20, 1))

        def run(cfg, epochs, patience, seed):
            model = small_net(seed)
            train = DataLoader(ArrayDataset(x[:14], y[:14]), 4, shuffle=True,
                               rng=np.random.default_rng(seed + 1))
            val = DataLoader(ArrayDataset(x[14:], y[14:]), 4)
            result = train_plain(model, mse_loss, train, val, epochs=epochs,
                                 patience=patience, compile_config=cfg)
            return model, result

        for trial in range(3):
            epochs = int(rng.integers(3, 7))
            patience = int(rng.integers(1, 4))
            seed = int(rng.integers(0, 100))
            ctx = f"trial {trial}: epochs={epochs} patience={patience}"
            legs = {}
            for mode in ("eager", "step", "loop"):
                cfg = CompileConfig(compile_step=(mode != "eager"),
                                    loop_capture=(mode == "loop"))
                legs[mode] = run(cfg, epochs, patience, seed)
            _, ref = legs["eager"]
            for mode in ("step", "loop"):
                model, result = legs[mode]
                assert result.epochs == ref.epochs, ctx
                assert result.history == ref.history, ctx
                assert result.best_val == ref.best_val, ctx
                s1 = legs["eager"][0].state_dict()
                s2 = model.state_dict()
                for key in s1:
                    assert np.array_equal(s1[key], s2[key]), f"{ctx}: {key}"
            loop_stats = legs["loop"][1].compile_stats.get("loop")
            assert loop_stats is not None, ctx
            assert loop_stats["loop_fallback_reason"] is None, ctx

    def test_pit_trainer_loop_matches_step(self):
        """All three PIT phases replay under loop capture with results
        bit-identical to the per-step compiled trainer."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((16, 2, 12))
        y = rng.standard_normal((16, 1, 12))

        def run(loop_capture):
            mrng = np.random.default_rng(9)
            model = Sequential(PITConv1d(2, 4, rf_max=5, rng=mrng), ReLU(),
                               CausalConv1d(4, 1, 1, rng=mrng))
            train = DataLoader(ArrayDataset(x[:12], y[:12]), 4, shuffle=True,
                               rng=np.random.default_rng(3))
            val = DataLoader(ArrayDataset(x[12:], y[12:]), 4)
            trainer = PITTrainer(
                model, mse_loss, lam=1e-6, warmup_epochs=2,
                max_prune_epochs=3, prune_patience=2, finetune_epochs=2,
                finetune_patience=2,
                compile_config=CompileConfig(compile_step=True,
                                             loop_capture=loop_capture))
            result = trainer.fit(train, val)
            return model, result

        m_step, r_step = run(False)
        m_loop, r_loop = run(True)
        assert r_loop.dilations == r_step.dilations
        assert r_loop.best_val == r_step.best_val
        assert r_loop.history == r_step.history
        s1, s2 = m_step.state_dict(), m_loop.state_dict()
        for key in s1:
            assert np.array_equal(s1[key], s2[key]), key
        for phase in ("warmup", "prune", "finetune"):
            stats = r_loop.compile_stats[phase]
            assert stats["loop"]["loop_fallback_reason"] is None, phase
            assert stats["loop"]["replayed_epochs"] >= 1, phase

    def test_stacked_trainer_loop_matches_step(self):
        """Stacked whole-loop capture (vector accumulation, stacked clip
        kernel, loop-carried ``active`` mask) is bit-identical to the
        per-step compiled stacked trainer."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 2, 12))
        y = (x[:, :1, :] * 0.5 + 0.3 * rng.standard_normal((20, 1, 12)))

        def run(loop_capture):
            train = DataLoader(ArrayDataset(x[:16], y[:16]), 4, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(ArrayDataset(x[16:], y[16:]), 4)
            trainer = StackedPITTrainer(
                StackSeed(), mse_loss, lams=[1e-7, 1e-4], warmup_epochs=2,
                max_prune_epochs=3, prune_patience=2, finetune_epochs=2,
                finetune_patience=2, grad_clip=1.0,
                compile_config=CompileConfig(compile_step=True,
                                             loop_capture=loop_capture))
            results = trainer.fit(train, val)
            states = [trainer.model_for(i).state_dict()
                      for i in range(len(results))]
            return results, states

        step_results, step_states = run(False)
        loop_results, loop_states = run(True)
        for rs, rl in zip(step_results, loop_results):
            assert rl.dilations == rs.dilations
            assert rl.best_val == rs.best_val
            assert rl.history == rs.history
            assert rl.prune_epochs == rs.prune_epochs
            assert rl.finetune_epochs == rs.finetune_epochs
        for ss, sl in zip(step_states, loop_states):
            for key in ss:
                assert np.array_equal(ss[key], sl[key]), key


# ----------------------------------------------------------------------
# Loop structure: one program per epoch, real `for` loop in source
# ----------------------------------------------------------------------

class TestLoopStructure:
    def test_epoch_is_single_loop_node_program(self):
        batches = batches_of(count=3, tail=2)
        _, _, _, epoch = run_leg("loop", batches)
        assert len(epoch.epoch_programs) == 1
        (program,) = epoch.epoch_programs.values()
        assert len(program.schedule) == 1
        (node,) = program.schedule
        assert isinstance(node, LoopNode)
        assert node.epilogue is not None          # the ragged tail body
        assert len(node.updates) > 0              # captured Adam kernels
        assert node.carried["params"]             # state crossed as data

    def test_source_executor_emits_real_for_loop(self):
        batches = batches_of(count=3, tail=2)
        _, _, _, epoch = run_leg("loop", batches)
        assert not epoch.exec_fallbacks
        assert epoch.dump_source().keys() == epoch.epoch_programs.keys()
        (source,) = epoch.dump_source().values()
        assert "for pair in bodies:" in source
        assert "def run(bodies, tail):" in source

    def test_diagnostics_are_jsonable(self):
        import json
        batches = batches_of(count=3)
        _, _, _, epoch = run_leg("loop", batches)
        report = epoch.diagnostics()
        json.dumps(report)
        assert report["replayed_epochs"] == 2
        assert report["driven_epochs"] == 1


# ----------------------------------------------------------------------
# Flat-packed optimizer state: one update kernel per group per batch
# ----------------------------------------------------------------------

class TestFlatPack:
    def _specs(self, epoch):
        (runner,) = epoch._runners.values()
        return runner.specs

    def test_small_params_pack_into_one_flat_spec(self):
        from repro.optim.kernels import FlatParam, StepCounters
        batches = batches_of(count=3)
        model, optimizer, _, epoch = run_leg("loop", batches)
        specs = self._specs(epoch)
        # One group, four small parameters -> a single flat update spec.
        assert len(specs) == 1
        flat = specs[0].param
        assert isinstance(flat, FlatParam)
        assert flat.data.ndim == 1
        total = sum(p.data.size for p in model.parameters())
        assert flat.data.size == total
        # Every parameter's storage is a view of the pack, and the Adam
        # moments were rebound to views of the flat state buffers.
        for p in model.parameters():
            assert np.shares_memory(p.data, flat.data)
            assert np.shares_memory(optimizer._m[id(p)], specs[0].state[0])
            assert np.shares_memory(optimizer._v[id(p)], specs[0].state[1])
        assert isinstance(specs[0].state[2], StepCounters)

    def test_eager_step_interop_after_packing(self):
        """Eager ``Adam.step()`` on a packed optimizer stays exact.

        The flat pack rebinds parameter/moment storage to views; a later
        eager step (the drive rung for a new batch signature) must write
        through those views and advance every per-parameter counter.
        """
        batches = batches_of(count=3)
        loop = run_leg("loop", batches, epochs=2)
        step_leg = run_leg("step", batches, epochs=2)
        for leg in (loop, step_leg):
            model, optimizer, _, _ = leg
            x, y = batches_of(count=1, n=3, seed=9)[0]
            optimizer.zero_grad()
            loss = mse_loss(model(Tensor(x)), Tensor(y))
            loss.backward()
            optimizer.step()
        assert_leg_parity(step_leg, loop, "eager step after packing")
        _, opt, _, _ = loop
        assert all(int(t) == 7 for t in opt._t.values())  # 2*3 replays + 1

    def test_threshold_keeps_params_unpacked(self, monkeypatch):
        from repro.optim import optimizers as optim_mod
        monkeypatch.setattr(optim_mod, "FLAT_PACK_MAX_ELEMENTS", 0)
        batches = batches_of(count=3)
        loop = run_leg("loop", batches)
        model = loop[0]
        specs = self._specs(loop[3])
        assert len(specs) == len(list(model.parameters()))
        assert_leg_parity(run_leg("eager", batches), loop,
                          "unpacked loop replay")

    def test_resync_readopts_rebound_storage(self):
        """Rebinding a param's ``.data`` between epochs must not desync."""
        batches = batches_of(count=3)
        loop = run_leg("loop", batches, epochs=2)
        ref = run_leg("eager", batches, epochs=2)
        for leg in (loop, ref):
            model, optimizer, losses, epoch = leg
            p = next(iter(model.parameters()))
            p.data = np.array(p.data, copy=True)  # same values, new array
            if epoch is not None:
                losses.append(epoch.run_batches(list(batches)))
            else:
                step = make_training_step(
                    model, mse_loss,
                    compile_config=CompileConfig(compile_step=False))
                total = 0.0
                for x, y in batches:
                    optimizer.zero_grad()
                    outs = step(x, y)
                    optimizer.step()
                    total += outs[1]
                losses.append(total / len(batches))
        assert_leg_parity(ref, loop, "post-rebind epoch")
        model, _, _, epoch = loop
        flat = self._specs(epoch)[0].param
        p = next(iter(model.parameters()))
        assert np.shares_memory(p.data, flat.data)  # re-adopted by resync


# ----------------------------------------------------------------------
# Fallback ladder: loop -> per-step -> eager, no rung poisons the next
# ----------------------------------------------------------------------

class TestFallbackLadder:
    def test_eager_step_drives_permanently(self):
        model = small_net()
        optimizer = Adam(model.parameters(), lr=1e-3)
        step = make_training_step(
            model, mse_loss,
            compile_config=CompileConfig(compile_step=False))
        assert isinstance(step, EagerStep)
        epoch = CompiledEpoch(step, optimizer)
        epoch.run_batches(batches_of(count=2))
        assert epoch.loop_fallback_reason == "step is not compiled"
        assert epoch.replayed_epochs == 0
        assert epoch.driven_epochs == 1

    def test_capture_unsafe_model_degrades_to_eager_not_loop(self):
        """A capture-unsafe step poisons itself to eager; the loop layer
        steps aside without masking that reason."""
        class Unsafe(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(4, 1, rng=np.random.default_rng(0))

            def forward(self, inp):
                mark_capture_unsafe("value-dependent test layer")
                return self.lin(inp)

        model = Unsafe()
        optimizer = Adam(model.parameters(), lr=1e-3)
        cfg = CompileConfig(compile_step=True, loop_capture=True)
        step = make_training_step(model, mse_loss, compile_config=cfg)
        assert isinstance(step, CompiledStep)
        epoch = make_epoch_runner(step, optimizer, None, cfg)
        rng = np.random.default_rng(0)
        batches = [(rng.standard_normal((4, 4)), rng.standard_normal((4, 1)))
                   for _ in range(2)]
        epoch.run_batches(list(batches))
        epoch.run_batches(list(batches))
        assert step.fallback_reason is not None          # rung 3
        assert "value-dependent test layer" in step.fallback_reason
        assert "eager" in epoch.loop_fallback_reason     # rung 2 explains
        assert epoch.replayed_epochs == 0

    @pytest.mark.parametrize("tail", [None, 2], ids=["no-tail", "tail"])
    def test_epoch_lowering_failure_drives_per_step(self, monkeypatch, tail):
        """An epoch program that fails to lower drops one rung: that
        signature drives the compiled step per batch, the reason is
        recorded, lowering is not retried, and every bit matches eager."""
        calls = []

        def broken(runner):
            calls.append(runner)
            raise RuntimeError("injected epoch emit failure")

        batches = batches_of(count=3, tail=tail)
        eager = run_leg("eager", batches)
        monkeypatch.setattr(codegen, "_emit_epoch", broken)
        loop = run_leg("loop", batches)
        epoch = loop[3]
        assert epoch.replayed_epochs == 0
        assert epoch.driven_epochs == 3
        assert epoch.epoch_programs == {}
        assert epoch.exec_fallbacks
        assert all("injected epoch emit failure" in reason
                   for reason in epoch.exec_fallbacks.values())
        assert len(calls) == len(epoch.exec_fallbacks)   # never retried
        assert epoch.loop_fallback_reason is None
        assert epoch.step.fallback_reason is None       # the step is fine
        assert_leg_parity(eager, loop, "epoch lowering failure")

    def test_optimizer_without_capture_updates_drives(self):
        class Legacy(Adam):
            capture_updates = None

        model = small_net()
        optimizer = Legacy(model.parameters(), lr=1e-3)
        step = make_training_step(
            model, mse_loss, compile_config=CompileConfig(compile_step=True))
        epoch = CompiledEpoch(step, optimizer)
        batches = batches_of(count=2)
        epoch.run_batches(list(batches))
        epoch.run_batches(list(batches))
        assert "capture_updates" in epoch.loop_fallback_reason
        assert epoch.replayed_epochs == 0
        assert epoch.driven_epochs == 2

    def test_clip_without_kernel_drives(self):
        model = small_net()
        optimizer = Adam(model.parameters(), lr=1e-3)
        step = make_training_step(
            model, mse_loss, compile_config=CompileConfig(compile_step=True))
        epoch = CompiledEpoch(step, optimizer, grad_clip=1.0,
                              clip_fn=clip_grad_norm, clip_kernel=None)
        epoch.run_batches(batches_of(count=2))
        assert "clip kernel" in epoch.loop_fallback_reason
        assert epoch.driven_epochs == 1

    def test_ragged_interior_drives_then_uniform_replays(self):
        """Non-uniform interior batches drive that epoch, but the loop is
        not permanently disabled: a later uniform epoch still replays."""
        model = small_net()
        optimizer = Adam(model.parameters(), lr=1e-3)
        cfg = CompileConfig(compile_step=True, loop_capture=True)
        step = make_training_step(model, mse_loss, compile_config=cfg)
        epoch = make_epoch_runner(step, optimizer, None, cfg)
        ragged = batches_of(count=1) + batches_of(count=1, n=3, seed=1) \
            + batches_of(count=1, seed=2)
        epoch.run_batches(list(ragged))
        assert epoch.loop_fallback_reason == \
            "interior batches are not shape-uniform"
        # The ragged drive already traced the (n, ...) body through the
        # step's own cache, so uniform epochs replay immediately.
        uniform = batches_of(count=3, seed=4)
        epoch.run_batches(list(uniform))
        epoch.run_batches(list(uniform))
        assert epoch.replayed_epochs == 2
        assert epoch.driven_epochs == 1

    def test_empty_epoch_raises(self):
        model = small_net()
        optimizer = Adam(model.parameters(), lr=1e-3)
        step = make_training_step(
            model, mse_loss, compile_config=CompileConfig(compile_step=True))
        epoch = CompiledEpoch(step, optimizer)
        with pytest.raises(ValueError, match="no batches"):
            epoch.run_batches([])


# ----------------------------------------------------------------------
# CompileConfig: one knob object, env defaults
# ----------------------------------------------------------------------

class TestCompileConfig:
    def test_defaults_defer_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOOP_CAPTURE", raising=False)
        monkeypatch.delenv("REPRO_COMPILE_STEP", raising=False)
        cfg = CompileConfig()
        assert not loop_capture_default()
        assert not cfg.want_loop()
        assert not cfg.want_compile()
        monkeypatch.setenv("REPRO_LOOP_CAPTURE", "1")
        assert loop_capture_default()
        assert cfg.want_compile()    # loop capture implies compilation
        assert cfg.want_loop()

    def test_explicit_compile_off_beats_loop_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOOP_CAPTURE", "1")
        cfg = CompileConfig(compile_step=False)
        assert not cfg.want_compile()
        assert not cfg.want_loop()

    def test_compile_env_beats_loop_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOOP_CAPTURE", "1")
        monkeypatch.setenv("REPRO_COMPILE_STEP", "0")
        cfg = CompileConfig()
        assert not cfg.want_compile()
        assert not cfg.want_loop()

    def test_resolve_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="CompileConfig"):
            CompileConfig.resolve({"compile_step": True})

    def test_validate_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CompileConfig(graph_opt="aggressive").validate()

    def test_picklable(self):
        cfg = CompileConfig(compile_step=True, graph_opt="default",
                            loop_capture=True)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
