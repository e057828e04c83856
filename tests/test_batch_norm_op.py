"""Tests for the fused training-mode ``batch_norm`` op.

``BatchNorm1d`` and ``StackedBatchNorm1d`` run one stateful op per call in
training mode: a closed-form backward, and the running-statistics update
inside its forward.  These tests lock

* its gradients (float64 numerical checks on every input, per-model and
  stacked layouts);
* its forward, running statistics and gradients, bit for bit, to the
  primitive composition the layers ran before the op existed;
* eager == compiled step == whole-epoch loop, bit for bit, including the
  running statistics after several replays and a ragged tail batch.
"""

import copy

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    batch_norm,
    check_gradients,
    get_default_dtype,
    set_default_dtype,
)
from repro.autograd.graph import CompileConfig
from repro.core.trainer import make_epoch_runner, make_training_step
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    GlobalAvgPool1d,
    Linear,
    ReLU,
    Sequential,
    mse_loss,
)
from repro.nn.stacked import StackContext, StackedBatchNorm1d, StackedModel
from repro.optim import Adam


@pytest.fixture
def dtype_restore():
    prev = get_default_dtype()
    yield
    set_default_dtype(prev)


class StatsSink:
    """Stands in for a layer: records what the op reports each call."""

    def __init__(self):
        self.calls = []

    def _update_running_stats(self, mean, var):
        self.calls.append((mean.copy(), var.copy()))


# (input shape, reduction axes, weight/bias shape)
LAYOUTS = {
    "NC": ((6, 3), (0,), (3,)),
    "NCT": ((4, 3, 5), (0, 2), (3,)),
    "MNC": ((2, 6, 3), (1,), (2, 3)),
    "MNCT": ((2, 4, 3, 5), (1, 3), (2, 3)),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_gradients_all_inputs(layout):
    shape, axes, param_shape = LAYOUTS[layout]
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(shape) * 2.0 + 0.5, requires_grad=True)
    w = Tensor(rng.standard_normal(param_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(param_shape), requires_grad=True)
    # Random output weights: sum(batch_norm(x)) alone has a zero
    # x-gradient (x̂ sums to zero over the reduced axes).
    coeff = Tensor(rng.standard_normal(shape))
    sink = StatsSink()
    check_gradients(lambda x, w, b: batch_norm(x, w, b, axes, 1e-5, sink)
                    * coeff, [x, w, b])
    mean, var = sink.calls[0]
    assert np.allclose(mean, x.data.mean(axis=axes).reshape(param_shape))
    assert np.allclose(var, x.data.var(axis=axes).reshape(param_shape))


def composed_batch_norm(module, x, axes):
    """The primitive composition the layers ran before the fused op (the
    reference whose bits the op must keep)."""
    shape = tuple(1 if i in axes else d for i, d in enumerate(x.shape))
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    module._update_running_stats(mean.data.reshape(module.weight.shape),
                                 var.data.reshape(module.weight.shape))
    x_hat = (x - mean) / (var + module.eps).sqrt()
    return x_hat * module.weight.reshape(shape) + module.bias.reshape(shape)


def _randomize(module, rng):
    for p in module.parameters():
        p.data[...] = rng.standard_normal(p.data.shape)
    return module


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_bits_match_composition(layout, dtype, dtype_restore):
    set_default_dtype(dtype)
    shape, axes, param_shape = LAYOUTS[layout]
    rng = np.random.default_rng(1)
    layer = BatchNorm1d(3)
    if len(param_shape) == 2:
        layer = StackedBatchNorm1d(layer, StackContext(param_shape[0]))
    _randomize(layer, rng)
    reference = copy.deepcopy(layer)
    for _ in range(3):
        data = rng.standard_normal(shape) * 3.0 + 1.0
        upstream = rng.standard_normal(shape)
        x, x_ref = Tensor(data, requires_grad=True), Tensor(data,
                                                            requires_grad=True)
        out = layer(x)
        ref = composed_batch_norm(reference, x_ref, axes)
        assert out.data.dtype == ref.data.dtype
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(layer.running_mean, reference.running_mean)
        assert np.array_equal(layer.running_var, reference.running_var)
        layer.zero_grad()
        reference.zero_grad()
        out.backward(upstream)
        ref.backward(upstream)
        assert np.array_equal(x.grad, x_ref.grad)
        assert np.array_equal(layer.weight.grad, reference.weight.grad)
        assert np.array_equal(layer.bias.grad, reference.bias.grad)


# ----------------------------------------------------------------------
# Eager == compiled step == whole-epoch loop
# ----------------------------------------------------------------------

def bn_net(seed=5):
    """Both BatchNorm layouts: (N, C, T) after a conv, (N, C) after a
    linear layer."""
    rng = np.random.default_rng(seed)
    return Sequential(
        CausalConv1d(2, 4, kernel_size=3, rng=rng), BatchNorm1d(4), ReLU(),
        GlobalAvgPool1d(), Linear(4, 3, rng=rng), BatchNorm1d(3),
        Linear(3, 1, rng=rng))


def bn_batches(count=3, n=6, tail=2, stack=None, seed=0):
    rng = np.random.default_rng(seed)
    lead = () if stack is None else (stack,)
    dtype = get_default_dtype()
    sizes = [n] * count + ([tail] if tail else [])
    return [(rng.standard_normal(lead + (size, 2, 16)).astype(dtype),
             rng.standard_normal(lead + (size, 1)).astype(dtype))
            for size in sizes]


def train_leg(mode, make_model, batches, epochs=3):
    model = make_model()
    optimizer = Adam(model.parameters(), lr=1e-2)
    cfg = CompileConfig(compile_step=(mode != "eager"),
                        loop_capture=(mode == "loop"))
    step = make_training_step(model, mse_loss, compile_config=cfg)
    epoch = make_epoch_runner(step, optimizer, None, cfg)
    losses = []
    for _ in range(epochs):
        model.train()
        if epoch is not None:
            losses.append(epoch.run_batches(list(batches)))
            continue
        for x, y in batches:
            optimizer.zero_grad()
            losses.append(step(x, y))
            optimizer.step()
    return model, losses, step, epoch


def assert_same_training(ref, other, context):
    ref_model, ref_losses = ref[:2]
    model, losses = other[:2]
    assert np.array_equal(np.asarray(ref_losses), np.asarray(losses)), context
    s1, s2 = ref_model.state_dict(), model.state_dict()
    assert s1.keys() == s2.keys()
    for key in s1:
        assert np.array_equal(s1[key], s2[key]), f"{context}: {key}"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_eager_step_parity_with_running_stats(dtype, dtype_restore):
    set_default_dtype(dtype)
    batches = bn_batches()
    eager = train_leg("eager", bn_net, batches)
    step = train_leg("step", bn_net, batches)
    assert_same_training(eager, step, f"step/{dtype}")
    compiled = step[2]
    assert compiled.fallback_reason is None
    assert len(compiled.compiled_shapes) == 2     # uniform + ragged tail
    stats = eager[0].state_dict()
    assert not np.all(stats["m1.running_mean"] == 0)


def test_eager_loop_parity_with_running_stats():
    """The whole-epoch tier returns each epoch's mean task loss: compare
    it with the same mean over an eager leg's per-step losses."""
    batches = bn_batches()
    eager_model, eager_losses, _, _ = train_leg("eager", bn_net, batches)
    loop_model, loop_losses, _, epoch = train_leg("loop", bn_net, batches)
    assert epoch.loop_fallback_reason is None
    assert epoch.replayed_epochs == 2
    per_epoch = len(batches)
    for e, total in enumerate(loop_losses):
        task = sum(out[1] for out in eager_losses[e * per_epoch:
                                                   (e + 1) * per_epoch])
        assert np.array_equal(task / per_epoch, total), e
    s1, s2 = eager_model.state_dict(), loop_model.state_dict()
    for key in s1:
        assert np.array_equal(s1[key], s2[key]), key


def test_stacked_eager_step_parity_with_running_stats():
    batches = bn_batches(stack=2, seed=2)
    make = lambda: StackedModel(bn_net(), 2)
    eager = train_leg("eager", make, batches)
    step = train_leg("step", make, batches)
    assert_same_training(eager, step, "stacked step")
    assert step[2].fallback_reason is None
    stats = eager[0].state_dict()
    means = [v for k, v in stats.items() if k.endswith("running_mean")]
    assert means and all(v.shape[0] == 2 for v in means)


def test_compiled_step_allocates_nothing_in_steady_state():
    model = bn_net()
    step = make_training_step(model, mse_loss,
                              compile_config=CompileConfig(compile_step=True))
    (x, y), = bn_batches(count=1, tail=None)
    step(x, y)          # trace
    step(x, y)          # first replay fills the op scratch
    step.alloc_stats
    for _ in range(4):
        model.zero_grad()
        step(x, y)
    assert step.alloc_stats["steady_state_growth"] == 0
