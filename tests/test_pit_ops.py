"""Tests for PIT's two ops: ``pit_time_mask`` (Eqs. 2-4) and
``pit_size_reg`` (Eq. 6).

The ops replace a composition of scalar primitives (binarize, prepend γ0,
one ``getitem``/``mul`` pair per Γ product, ``concatenate``, lag gather,
kernel flip; per-layer ``abs``/``mul``/``sum`` and a chain of adds).  That
composition is kept here as the reference: the ops must reproduce its
masks, losses and every gradient bit for bit, in float64 and float32,
flat and stacked, eager and compiled.  Finite differences check the
backward kernels themselves.
"""

import numpy as np
import pytest

from repro.autograd import (
    OpDef,
    Tensor,
    apply_op,
    binarize_ste,
    check_gradients,
    concatenate,
    conv1d_causal,
    set_default_dtype,
)
from repro.autograd.graph import CompileConfig
from repro.core import PITTrainer, TimeMask, mask_eq4, num_gamma
from repro.core.masks import (
    _PIT_TIME_MASK,
    _cum_index,
    lag_gamma_indices,
    pit_time_mask,
)
from repro.core.pit_conv import PITConv1d
from repro.core.regularizer import (
    _time_masked_layers,
    gamma_size_coefficients,
    pit_size_reg,
)
from repro.core.stacked import StackedPITTrainer
from repro.data import ArrayDataset, DataLoader
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    Module,
    ReLU,
    mse_loss,
)

RF_MAXES = (3, 9, 17, 33)


# ----------------------------------------------------------------------
# The reference composition (the scalar-primitive form the ops replace)
# ----------------------------------------------------------------------

def reference_time_mask(gamma_hat, rf_max, threshold=0.5, flip=False):
    """The mask of ``gamma_hat`` ((L-1,) or (M, L-1)) built from scalar
    primitives: lag order, or kernel order with ``flip``."""
    length = num_gamma(rf_max)
    lead = (slice(None),) * (gamma_hat.ndim - 1)
    if length == 1:
        return Tensor(np.ones(gamma_hat.shape[:-1] + (rf_max,)))
    gamma_bin = binarize_ste(gamma_hat, threshold)
    full_gamma = concatenate(
        [Tensor(np.ones(gamma_hat.shape[:-1] + (1,))), gamma_bin], axis=-1)
    cumulative = [full_gamma[lead + (slice(0, 1),)]]
    for k in range(1, length):
        cumulative.append(cumulative[-1] * full_gamma[lead + (slice(k, k + 1),)])
    big_gamma = concatenate(list(reversed(cumulative)), axis=-1)
    mask = big_gamma[lead + (lag_gamma_indices(rf_max),)]
    if flip:
        mask = mask[lead + (np.arange(rf_max)[::-1].copy(),)]
    return mask


def reference_size_reg(layers, axis=None):
    """Σ_l factor_l · Σ_i coeff_i · |γ̂_i| over ``(γ̂, rf_max, factor)``
    layers as a chain of scalar ops."""
    terms = [(Tensor(gamma_size_coefficients(rf)) * g.abs()).sum(axis=axis)
             * float(f) for g, rf, f in layers]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def composed_forward(self, x):
    """``PITConv1d.forward`` with the reference mask.  A frozen layer's γ̂
    enters as a constant, so its whole mask composition is foldable."""
    gamma = self.mask.gamma_hat
    if self.mask.frozen:
        gamma = Tensor(gamma.data)
    mask = reference_time_mask(gamma, self.rf_max, self.mask.threshold,
                               flip=True)
    out = conv1d_causal(x, self.weight * mask, self.bias, dilation=1,
                        stride=self.stride, backend=self.backend)
    self._last_t_out = out.shape[-1]
    return out


def reference_regularizer(model, lam):
    """``size_regularizer`` built from the reference composition."""
    live = [(mask, conv) for mask, conv in _time_masked_layers(model)
            if not mask.frozen and mask.length > 1]
    if not live:
        return Tensor(np.zeros(()))
    return reference_size_reg(
        [(mask.gamma_hat, c.rf_max, c.in_channels * c.out_channels)
         for mask, c in live]) * lam


@pytest.fixture(params=["float64", "float32"])
def dtype(request):
    set_default_dtype(request.param)
    yield np.dtype(request.param)
    set_default_dtype("float64")


def _grad(t):
    """``t.grad``; a γ̂ with no γ (rf_max 2) that got none reads as empty."""
    return np.zeros_like(t.data) if t.grad is None else t.grad


def _gamma(rng, shape, threshold=0.5):
    """γ̂ values on both sides of the threshold, some exactly on it."""
    values = rng.uniform(-0.6, 1.6, shape)
    values.flat[::3] = threshold
    return values


# ----------------------------------------------------------------------
# Finite differences
# ----------------------------------------------------------------------

def _relaxed_fwd(ins, attrs):
    # pit_time_mask's forward without the Heaviside: the Γ products and the
    # scatter of γ̂ itself.  The straight-through backward must be the
    # exact Jacobian of this multilinear map.
    gamma = ins[0]
    ones = np.ones(gamma.shape[:-1] + (1,), gamma.dtype)
    cum = np.cumprod(np.concatenate([ones, gamma], axis=-1), axis=-1)
    return cum[..., attrs["index"]], (gamma, cum)


_RELAXED = OpDef("relaxed_time_mask", _relaxed_fwd, _PIT_TIME_MASK.bwd,
                 bwd_uses=())


def _relaxed_mask(gamma, rf_max, flip):
    return apply_op(_RELAXED, (gamma,),
                    {"flip": flip, "index": _cum_index(rf_max, flip)})


class TestGradcheck:
    @pytest.mark.parametrize("rf_max", RF_MAXES)
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_time_mask_backward(self, rf_max, stacked, flip):
        rng = np.random.default_rng(rf_max)
        shape = ((3,) if stacked else ()) + (num_gamma(rf_max) - 1,)
        gamma = Tensor(rng.uniform(0.6, 1.4, shape), requires_grad=True)
        weights = Tensor(rng.standard_normal(shape[:-1] + (rf_max,)))
        check_gradients(lambda g: _relaxed_mask(g, rf_max, flip) * weights,
                        [gamma])

    @pytest.mark.parametrize("rf_max", RF_MAXES)
    @pytest.mark.parametrize("stacked", [False, True])
    def test_straight_through_is_the_relaxed_jacobian(self, rf_max, stacked):
        """At the binarized point the op's gradient is the relaxed map's."""
        rng = np.random.default_rng(rf_max + 1)
        shape = ((3,) if stacked else ()) + (num_gamma(rf_max) - 1,)
        gamma_hat = _gamma(rng, shape)
        weights = Tensor(rng.standard_normal(shape[:-1] + (rf_max,)))
        op_in = Tensor(gamma_hat, requires_grad=True)
        (pit_time_mask(op_in, rf_max, flip=True) * weights).sum().backward()
        bits = Tensor((gamma_hat >= 0.5).astype(float), requires_grad=True)
        (_relaxed_mask(bits, rf_max, True) * weights).sum().backward()
        assert np.array_equal(op_in.grad, bits.grad)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_size_reg_backward(self, stacked):
        rng = np.random.default_rng(5)
        lead = (3,) if stacked else ()
        gammas = [Tensor(rng.uniform(0.2, 1.5, lead + (num_gamma(rf) - 1,))
                         * rng.choice([-1.0, 1.0], lead + (num_gamma(rf) - 1,)),
                         requires_grad=True) for rf in RF_MAXES]
        factors = [6.0, 24.0, 3.0, 80.0]
        check_gradients(
            lambda *gs: pit_size_reg(list(zip(gs, RF_MAXES, factors)),
                                     axis=1 if stacked else None),
            gammas)


# ----------------------------------------------------------------------
# Bit equality with the reference composition
# ----------------------------------------------------------------------

class TestMatchesComposition:
    @pytest.mark.parametrize("rf_max", (2,) + RF_MAXES + (5, 12))
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_time_mask(self, dtype, rf_max, stacked, flip):
        rng = np.random.default_rng(rf_max)
        shape = ((4,) if stacked else ()) + (num_gamma(rf_max) - 1,)
        gamma_hat = _gamma(rng, shape)
        weights = rng.standard_normal(shape[:-1] + (rf_max,)) * 10.0 ** \
            rng.integers(-3, 4, shape[:-1] + (rf_max,))
        results = []
        for build in (pit_time_mask, reference_time_mask):
            gamma = Tensor(gamma_hat, requires_grad=True)
            w = Tensor(weights, requires_grad=True)
            mask = build(gamma, rf_max, 0.5, flip)
            loss = (mask * w).sum()
            loss.backward()
            results.append((mask.data, loss.data, _grad(gamma), w.grad))
        for ours, ref in zip(*results):
            assert ours.dtype == ref.dtype == dtype
            assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("kind", ["size", "flops"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_size_reg(self, dtype, kind, stacked):
        """λ·reg plus a mask on the same γ̂: two contributions per γ̂.
        rf_max 12 gives coefficients (1, 3, 6), not just powers of two."""
        rng = np.random.default_rng(11)
        lead = (4,) if stacked else ()
        rf_maxes = RF_MAXES + (12,)
        channels = [(2, 4), (4, 8), (8, 3), (3, 1), (5, 7)]
        t_outs = [256, 128, 33, 7, 3] if kind == "flops" else [1] * 5
        factors = [i * o * t for (i, o), t in zip(channels, t_outs)]
        values = [_gamma(rng, lead + (num_gamma(rf) - 1,)) for rf in rf_maxes]
        weights = [rng.standard_normal(lead + (rf,)) for rf in rf_maxes]
        lam = rng.uniform(0.0, 2.0, lead) if stacked else 0.37
        results = []
        for reg_fn, mask_fn in ((pit_size_reg, pit_time_mask),
                                (reference_size_reg, reference_time_mask)):
            gammas = [Tensor(v, requires_grad=True) for v in values]
            reg = reg_fn(list(zip(gammas, rf_maxes, factors)),
                         axis=1 if stacked else None)
            masks = sum(((mask_fn(g, rf, 0.5, True) * Tensor(w)).sum()
                         for g, rf, w in zip(gammas, rf_maxes, weights)),
                        Tensor(np.zeros(())))
            loss = (reg * Tensor(lam)).sum() + masks
            loss.backward()
            results.append([reg.data, loss.data] + [g.grad for g in gammas])
        for ours, ref in zip(*results):
            assert ours.dtype == ref.dtype == dtype
            assert np.array_equal(ours, ref)

    def test_eq4_spec_agrees_with_op(self):
        for rf_max in RF_MAXES:
            for bits in np.ndindex(*(2,) * (num_gamma(rf_max) - 1)):
                gamma = np.array(bits, dtype=float)
                spec = mask_eq4(Tensor(np.concatenate([[1.0], gamma])), rf_max)
                assert np.array_equal(
                    pit_time_mask(Tensor(gamma), rf_max).data, spec.data)

    def test_frozen_kernel_mask_is_one_reversed_constant(self):
        mask = TimeMask(9)
        mask.gamma_hat.data[...] = [1.0, 0.2, 0.9]
        live = mask.kernel_mask().data
        mask.freeze()
        frozen = mask.kernel_mask()
        assert not frozen.requires_grad and frozen._op is None
        assert np.array_equal(frozen.data, live)
        assert np.array_equal(frozen.data, mask().data[::-1])


# ----------------------------------------------------------------------
# Execution tiers and whole runs
# ----------------------------------------------------------------------

EAGER = CompileConfig(compile_step=False)
STEP = CompileConfig(compile_step=True, loop_capture=False)
LOOP = CompileConfig(compile_step=True)


class TwoLayerSeed(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c1 = PITConv1d(2, 4, rf_max=9, rng=rng)
        self.bn = BatchNorm1d(4)
        self.r1 = ReLU()
        self.dp = Dropout(0.2, rng=rng)
        self.c2 = PITConv1d(4, 4, rf_max=17, rng=rng)
        self.r2 = ReLU()
        self.h = CausalConv1d(4, 1, 1, rng=rng)

    def forward(self, x):
        return self.h(self.r2(self.c2(self.dp(self.r1(self.bn(self.c1(x)))))))


def _loaders():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 2, 24))
    y = x[:, :1, :] * 0.5 + 0.3 * rng.standard_normal((20, 1, 24))
    train = DataLoader(ArrayDataset(x[:16], y[:16]), 4, shuffle=True,
                       rng=np.random.default_rng(1))
    return train, DataLoader(ArrayDataset(x[16:], y[16:]), 4)


SCHEDULE = dict(lr=1e-2, gamma_lr=0.1, warmup_epochs=1, max_prune_epochs=4,
                prune_patience=2, finetune_epochs=2, finetune_patience=2)


def _pit_run(config, regularizer="size"):
    model = TwoLayerSeed()
    result = PITTrainer(model, mse_loss, lam=0.5, regularizer=regularizer,
                        compile_config=config, **SCHEDULE).fit(*_loaders())
    return result, model.state_dict()


def _assert_same_run(a, b):
    (ra, sa), (rb, sb) = a, b
    assert ra.dilations == rb.dilations
    assert ra.history == rb.history
    assert ra.best_val == rb.best_val
    assert sa.keys() == sb.keys()
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), key


class TestTiers:
    @pytest.mark.parametrize("regularizer", ["size", "flops"])
    def test_pit_trainer_eager_step_loop(self, regularizer):
        runs = [_pit_run(config, regularizer=regularizer)
                for config in (EAGER, STEP, LOOP)]
        assert max(runs[0][0].dilations) > 1        # the masks did move
        for run in runs[1:]:
            _assert_same_run(runs[0], run)

    def test_stacked_trainer_eager_step_loop(self):
        runs = []
        for config in (EAGER, STEP, LOOP):
            trainer = StackedPITTrainer(TwoLayerSeed(), mse_loss,
                                        lams=[0.0, 0.5, 5.0],
                                        compile_config=config, **SCHEDULE)
            results = trainer.fit(*_loaders())
            runs.append([(r, trainer.model_for(i).state_dict())
                         for i, r in enumerate(results)])
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                _assert_same_run(a, b)

    def test_whole_run_matches_composition(self, dtype, monkeypatch):
        """A PIT run through the ops is bit-identical to one through the
        reference composition."""
        ours = _pit_run(EAGER)
        monkeypatch.setattr(PITConv1d, "forward", composed_forward)
        monkeypatch.setattr("repro.core.trainer.size_regularizer",
                            reference_regularizer)
        _assert_same_run(ours, _pit_run(EAGER))
