"""Stacked PIT search: M (λ, warmup) grid points trained in lockstep.

The DSE sweep of paper Fig. 4 trains the *same* seed architecture once per
λ value; only the loss scaling differs.  :class:`StackedPITTrainer` runs
Algorithm 1 on a whole group of grid points at once through a
:class:`repro.nn.StackedModel`: every parameter carries a leading model
axis ``(M, ...)``, every batch is stacked to ``(M, N, ...)``, and the
per-model losses are combined as::

    L = Σ_m  active_m · (L_perf(W_m) + λ_m · L_R(γ_m))

Model slices are mathematically independent, so the gradient of ``L``
w.r.t. slice ``m`` equals the gradient the sequential trainer would
compute for that grid point; the stack just executes all M of them per op
dispatch.  The trainer reproduces sequential *semantics* exactly (up to
floating-point reduction order — see ``tests/test_dse_stacked.py`` for the
locked tolerance):

* per-model early stopping: a converged model is masked out of the loss
  (``active_m = 0``), its dropout streams stop advancing, its state is
  snapshotted at the stop epoch and restored at the phase boundary — the
  stack keeps training the rest at zero semantic cost to the finished one;
* per-model data streams: each model consumes its *own* epoch sequence of
  the training loader (via :class:`repro.data.EpochReplayLoader`), so a
  model entering fine-tuning after an early prune stop sees exactly the
  batches its sequential run would have;
* per-model Adam / per-model gradient clipping / per-model BatchNorm
  running statistics — all carried on the stacked axis.

Stacking requires the model to be built from layers with registered
stacked counterparts and plain :class:`repro.data.DataLoader` loaders;
anything else raises :class:`repro.nn.StackingUnsupported` *before
training starts* and the DSE engine falls back to the sequential path.
"""

from __future__ import annotations

import functools
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..autograd import (
    CompiledStep,
    EagerStep,
    Tensor,
    binarize_ste,
    concatenate,
    conv1d_causal_stacked,
    get_default_dtype,
    no_grad,
    where,
)
from ..autograd.graph import CompileConfig, CompiledEpoch
from ..data import EpochReplayLoader
from ..nn.losses import (
    bce_with_logits,
    huber_loss,
    mae_loss,
    mse_loss,
    polyphonic_nll,
)
from ..nn.module import Module, Parameter
from ..nn.stacked import (
    StackContext,
    StackedModel,
    StackingUnsupported,
    register_slice_sync,
    register_stacked,
    stack_parameter,
)
from ..optim import Adam, EarlyStopping, clip_grads_stacked
from ..testing import faults
from .checkpoint import (
    TrainerCheckpoint,
    capture_rngs,
    module_rng_map,
    optimizer_arrays,
    restore_optimizer,
    restore_rngs,
    restore_stopper,
    stopper_arrays,
)
from .export import effective_parameters, network_dilations
from .masks import TimeMask, lag_gamma_indices
from .pit_conv import PITConv1d
from .regularizer import gamma_size_coefficients
from .trainer import DivergedError, PITResult, make_eval_step

__all__ = [
    "StackedTimeMask",
    "StackedPITConv1d",
    "stacked_regularizer_vector",
    "per_model_loss",
    "register_stacked_loss",
    "clip_grad_norm_stacked",
    "StackedPITTrainer",
]


# ----------------------------------------------------------------------
# Stacked searchable layers
# ----------------------------------------------------------------------

class StackedTimeMask(Module):
    """M independent :class:`TimeMask` instances on one ``(M, L-1)`` γ̂.

    ``forward`` returns the stacked lag mask ``(M, rf_max)``; binarization,
    the reversed cumulative Γ products and the lag scatter all act
    per-model along the leading axis.
    """

    def __init__(self, template: TimeMask, ctx: StackContext):
        super().__init__()
        self.m = ctx.m
        self.rf_max = template.rf_max
        self.length = template.length
        self.threshold = template.threshold
        self.gamma_hat = Parameter(
            stack_parameter(template.gamma_hat.data, ctx.m),
            name="stacked.pit.gamma_hat")
        self.register_buffer(
            "frozen_mask", stack_parameter(template.frozen_mask, ctx.m))
        self._lag_indices = lag_gamma_indices(template.rf_max)
        self.frozen = template.frozen

    # -- training-time mask -------------------------------------------------
    def forward(self) -> Tensor:
        if self.frozen:
            return Tensor(self.frozen_mask)
        if self.length == 1:
            return Tensor(np.ones((self.m, self.rf_max)))
        gamma_bin = binarize_ste(self.gamma_hat, self.threshold)  # (M, L-1)
        full_gamma = concatenate(
            [Tensor(np.ones((self.m, 1))), gamma_bin], axis=1)    # (M, L)
        cumulative = [full_gamma[:, 0:1]]
        for k in range(1, self.length):
            cumulative.append(cumulative[-1] * full_gamma[:, k:k + 1])
        big_gamma = concatenate(list(reversed(cumulative)), axis=1)  # (M, L)
        return big_gamma[:, self._lag_indices]                       # (M, rf)

    # -- per-model bookkeeping ----------------------------------------------
    def binary_gamma(self, index: int) -> np.ndarray:
        if self.length == 1:
            return np.ones(1)
        bits = (self.gamma_hat.data[index] >= self.threshold).astype(np.float64)
        return np.concatenate([[1.0], bits])

    def current_mask(self, index: int) -> np.ndarray:
        from .masks import mask_from_binary_gamma
        if self.frozen and self.frozen_mask.shape[1]:
            return self.frozen_mask[index].copy()
        return mask_from_binary_gamma(self.binary_gamma(index), self.rf_max)

    def current_dilation(self, index: int) -> int:
        from .masks import effective_dilation
        if self.frozen and self.frozen_mask.shape[1]:
            # Mirror TimeMask.current_dilation: a frozen mask is the
            # authority, even if γ̂ was restored out of sync with it.
            alive = np.nonzero(self.frozen_mask[index] >= 0.5)[0]
            gaps = np.diff(alive)
            return int(gaps[0]) if gaps.size else self.rf_max
        return effective_dilation(self.binary_gamma(index), self.rf_max)

    def freeze(self) -> None:
        """Fix all M masks at their current binary values."""
        masks = np.stack([self.current_mask(i) for i in range(self.m)])
        self.update_buffer("frozen_mask", masks)
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False

    def __repr__(self) -> str:
        return (f"StackedTimeMask(M={self.m}, rf_max={self.rf_max}, "
                f"L={self.length}, frozen={self.frozen})")


class StackedPITConv1d(Module):
    """M searchable PIT convolutions sharing one stacked dispatch."""

    def __init__(self, template: PITConv1d, ctx: StackContext):
        super().__init__()
        self.m = ctx.m
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.rf_max = template.rf_max
        self.stride = template.stride
        self.backend = template.backend
        self.weight = Parameter(stack_parameter(template.weight.data, ctx.m),
                                name="stacked.pitconv.weight")
        self.bias = (Parameter(stack_parameter(template.bias.data, ctx.m),
                               name="stacked.pitconv.bias")
                     if template.bias is not None else None)
        self.mask = StackedTimeMask(template.mask, ctx)
        self._flip_index = template._flip_index.copy()
        self._last_t_out: Optional[int] = None

    def forward(self, x: Tensor) -> Tensor:
        mask_lags = self.mask()                        # (M, rf_max), lag order
        mask_kernel = mask_lags[:, self._flip_index]   # kernel order
        masked_weight = self.weight * mask_kernel.reshape(
            self.m, 1, 1, self.rf_max)
        out = conv1d_causal_stacked(x, masked_weight, self.bias, dilation=1,
                                    stride=self.stride, backend=self.backend)
        self._last_t_out = out.shape[-1]
        return out

    def effective_params(self, index: int) -> int:
        """Post-export parameter count of model slice ``index`` (mirrors
        :meth:`PITConv1d.effective_params`)."""
        kept = int(self.mask.current_mask(index).sum())
        count = kept * self.in_channels * self.out_channels
        if self.bias is not None:
            count += self.out_channels
        return count

    def freeze(self) -> None:
        self.mask.freeze()

    def unfreeze(self) -> None:
        self.mask.unfreeze()

    def __repr__(self) -> str:
        return (f"StackedPITConv1d(M={self.m}, {self.in_channels}, "
                f"{self.out_channels}, rf_max={self.rf_max}, "
                f"s={self.stride})")


@register_stacked(PITConv1d)
def _stack_pit_conv(template: PITConv1d, ctx: StackContext) -> StackedPITConv1d:
    return StackedPITConv1d(template, ctx)


def _sync_mask_flags(stacked_net: Module, template: Module) -> None:
    """Mirror per-stack freeze flags onto the template's masks.

    Parameters and the ``frozen_mask`` buffers travel through the generic
    name-aligned slice sync; the boolean ``frozen`` flag is a plain
    attribute and needs this hook so a synced template reports the right
    dilations/params.
    """
    stacked_masks = [m for m in stacked_net.modules()
                     if isinstance(m, StackedTimeMask)]
    template_masks = [m for m in template.modules() if isinstance(m, TimeMask)]
    for source, target in zip(stacked_masks, template_masks):
        target.frozen = source.frozen


register_slice_sync(_sync_mask_flags)


# ----------------------------------------------------------------------
# Stacked regularizer (Eq. 6 with a per-model axis, λ applied by caller)
# ----------------------------------------------------------------------

def stacked_regularizer_vector(stacked: StackedModel,
                               kind: str = "size") -> Tensor:
    """Per-model regularizer values ``(M,)`` — Eq. 6 *without* the λ factor.

    ``kind="size"`` is the paper's model-size Lasso; ``"flops"`` multiplies
    each layer's term by its last recorded output length, mirroring
    :func:`repro.core.flops_regularizer`.  The caller applies its per-model
    λ vector (``λ ⊙ reg``), which is exactly where stacked grid points
    differ from each other.
    """
    terms: List[Tensor] = []
    for layer in stacked.net.modules():
        if not isinstance(layer, StackedPITConv1d):
            continue
        mask = layer.mask
        if mask.frozen or mask.length <= 1:
            continue
        coeffs = Tensor(gamma_size_coefficients(layer.rf_max))     # (L-1,)
        contribution = (coeffs * mask.gamma_hat.abs()).sum(axis=1)  # (M,)
        factor = float(layer.in_channels * layer.out_channels)
        if kind == "flops":
            factor *= float(layer._last_t_out or 1)
        terms.append(contribution * factor)
    if not terms:
        return Tensor(np.zeros(stacked.stack_size))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


# ----------------------------------------------------------------------
# Per-model losses
# ----------------------------------------------------------------------

def _tail_axes(t: Tensor) -> tuple:
    return tuple(range(1, t.ndim))


def _stacked_mse(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - target
    return (diff * diff).mean(axis=_tail_axes(pred))


def _stacked_mae(pred: Tensor, target: Tensor) -> Tensor:
    return (pred - target).abs().mean(axis=_tail_axes(pred))


def _stacked_bce(logits: Tensor, targets: Tensor) -> Tensor:
    softplus = ((-logits.abs()).exp() + 1.0).log()
    per_element = logits.relu() - logits * targets + softplus
    return per_element.mean(axis=_tail_axes(logits))


def _stacked_polyphonic_nll(logits: Tensor, targets: Tensor) -> Tensor:
    softplus = ((-logits.abs()).exp() + 1.0).log()
    per_element = logits.relu() - logits * targets + softplus  # (M, N, 88, T)
    per_frame = per_element.sum(axis=2)                        # (M, N, T)
    return per_frame.mean(axis=(1, 2))


def _stacked_huber(pred: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    diff = (pred - target).abs()
    quadratic = 0.5 * diff * diff
    linear = delta * diff - 0.5 * delta * delta
    return where(diff <= delta, quadratic, linear).mean(axis=_tail_axes(pred))


#: loss_fn -> vectorized per-model variant returning an (M,) tensor.
_STACKED_LOSSES: Dict[Callable, Callable] = {
    mse_loss: _stacked_mse,
    mae_loss: _stacked_mae,
    bce_with_logits: _stacked_bce,
    polyphonic_nll: _stacked_polyphonic_nll,
    huber_loss: _stacked_huber,
}


def register_stacked_loss(loss_fn: Callable, stacked_fn: Callable) -> None:
    """Register a vectorized per-model variant of ``loss_fn``.

    ``stacked_fn(pred, target)`` receives stacked ``(M, N, ...)`` tensors
    and must return the ``(M,)`` vector of per-model losses.  Unregistered
    losses still work through a generic per-slice fallback — correct, just
    M small graphs instead of one vectorized reduction.
    """
    _STACKED_LOSSES[loss_fn] = stacked_fn


def per_model_loss(loss_fn: Callable, pred: Tensor, target: Tensor) -> Tensor:
    """``(M,)`` tensor of per-model task losses for stacked predictions."""
    fast = _STACKED_LOSSES.get(loss_fn)
    if fast is not None:
        return fast(pred, target)
    parts = [loss_fn(pred[i], target[i]).reshape(1)
             for i in range(pred.shape[0])]
    return concatenate(parts, axis=0)


def clip_grad_norm_stacked(params: Sequence[Parameter], max_norm: float
                           ) -> np.ndarray:
    """Per-model gradient clipping over stacked parameters.

    The sequential trainer clips each model's *global* gradient norm; on a
    stack that norm lives per slice: ``norm_m = ||(g_p[m])_p||_2``.  Slices
    are scaled independently, so no model's clipping decision leaks into
    another's — matching M separate :func:`repro.optim.clip_grad_norm`
    calls.  Returns the per-model pre-clipping norms.
    """
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return np.zeros(0)
    m = grads[0].shape[0]
    total = np.zeros(m)
    for g in grads:
        total += (g * g).reshape(m, -1).sum(axis=1)
    norms = np.sqrt(total)
    scales = np.where(norms > max_norm, max_norm / np.maximum(norms, 1e-300),
                      1.0)
    if np.any(scales < 1.0):
        for g in grads:
            g *= scales.reshape((m,) + (1,) * (g.ndim - 1))
    return norms


# ----------------------------------------------------------------------
# The lockstep trainer
# ----------------------------------------------------------------------

class StackedPITTrainer:
    """Algorithm 1 over M grid points at once (same warmup, per-model λ).

    Mirrors :class:`repro.core.PITTrainer`'s parameters with ``lams`` (a
    sequence) replacing ``lam``; :meth:`fit` returns one
    :class:`PITResult` per λ, index-aligned, semantically equivalent to M
    sequential ``PITTrainer(model_i, lam=lams[i], ...)`` runs (up to
    floating-point reduction order — batched kernels sum in different
    orders than per-model ones).

    Phase seconds in the results are the *stack's* wall clock (all models
    share it); per-model epoch counts, histories and early-stop points are
    exact.

    Raises :class:`repro.nn.StackingUnsupported` before any training when
    the model contains layers without stacked counterparts (channel masks,
    recurrent baselines, Proxyless value-dependent supernets) — callers
    fall back to the sequential path.
    """

    def __init__(self, model: Module, loss_fn, lams: Sequence[float],
                 lr: float = 1e-3, gamma_lr: Optional[float] = None,
                 warmup_epochs: int = 5, prune_patience: int = 5,
                 max_prune_epochs: int = 50, finetune_epochs: int = 30,
                 finetune_patience: int = 10, regularizer: str = "size",
                 channel_lam: float = 0.0,
                 grad_clip: Optional[float] = None, verbose: bool = False,
                 compile_config: Optional[CompileConfig] = None,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_tags: Optional[Sequence[str]] = None,
                 checkpoint_resume: bool = True):
        if regularizer not in ("size", "flops"):
            raise ValueError("regularizer must be 'size' or 'flops'")
        if len(lams) < 1:
            raise ValueError("lams must name at least one grid point")
        if channel_lam:
            raise StackingUnsupported(
                "channel-mask search (channel_lam != 0) has no stacked path")
        self.model = model
        self.loss_fn = loss_fn
        self.lams = [float(lam) for lam in lams]
        self.m = len(self.lams)
        self.lr = lr
        self.gamma_lr = gamma_lr if gamma_lr is not None else lr
        self.warmup_epochs = warmup_epochs
        self.prune_patience = prune_patience
        self.max_prune_epochs = max_prune_epochs
        self.finetune_epochs = finetune_epochs
        self.finetune_patience = finetune_patience
        self.regularizer = regularizer
        self.grad_clip = grad_clip
        self.verbose = verbose
        cfg = CompileConfig.resolve(compile_config)
        # Resolve once at construction so a later env flip cannot split the
        # three phases across different tiers.
        self.compile_config = CompileConfig(
            compile_step=cfg.want_compile(), graph_opt=cfg.resolved_opt(),
            loop_capture=cfg.want_loop())

        # Per-slice checkpoint files: each slice writes a self-contained,
        # template-shaped snapshot, so a stack's resume composes with
        # slicing (and a sequential trainer can adopt a slice's file).
        self._checkpoints: Optional[List[TrainerCheckpoint]] = None
        if checkpoint_dir:
            tags = (list(checkpoint_tags) if checkpoint_tags
                    else [f"stack{i}" for i in range(self.m)])
            if len(tags) != self.m:
                raise ValueError(
                    f"checkpoint_tags names {len(tags)} slices, "
                    f"trainer has {self.m}")
            self._checkpoints = [
                TrainerCheckpoint.create(checkpoint_dir, tag,
                                         every=checkpoint_every,
                                         resume=checkpoint_resume)
                for tag in tags]

        self.stacked = StackedModel(model, self.m)  # may raise StackingUnsupported
        self._pit_layers = [layer for layer in self.stacked.net.modules()
                            if isinstance(layer, StackedPITConv1d)]
        if not self._pit_layers:
            raise ValueError("model contains no searchable (PITConv1d) layers")
        # The non-searchable remainder of the effective-parameter count
        # (everything except PIT-layer params) is mask-independent and
        # identical across slices: count it once from the template.
        searchable_param_ids = set()
        for module in model.modules():
            if isinstance(module, PITConv1d):
                for _, p in module.named_parameters():
                    searchable_param_ids.add(id(p))
        self._fixed_param_count = sum(
            p.data.size for _, p in model.named_parameters()
            if id(p) not in searchable_param_ids)
        dtype = get_default_dtype()
        # Both live arrays are shared storage with their tensors: the λ
        # vector is a per-stack constant, the active mask is flipped by the
        # early-stopping bookkeeping and read by every (re)played step.
        self._lam_t = Tensor(np.asarray(self.lams, dtype=dtype))
        self._active_t = Tensor(self.stacked.active)

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[StackedPIT] {message}")

    def _split_params(self):
        gamma_params, weight_params = [], []
        for name, p in self.stacked.net.named_parameters():
            (gamma_params if name.endswith("gamma_hat")
             else weight_params).append(p)
        return weight_params, gamma_params

    def _make_step(self, with_reg: bool):
        stacked = self.stacked
        lam_t = self._lam_t
        active_t = self._active_t
        loss_fn = self.loss_fn
        regularizer = self.regularizer

        def step_fn(x: Tensor, y: Tensor):
            pred = stacked(x)
            task_vec = per_model_loss(loss_fn, pred, y)        # (M,)
            per_total = task_vec
            if with_reg:
                reg = stacked_regularizer_vector(stacked, regularizer)
                per_total = task_vec + lam_t * reg
            # Masked (early-stopped) models contribute zero gradient; their
            # parameters only drift through optimizer momentum, which the
            # phase-boundary snapshot restore discards.
            loss = (per_total * active_t).sum()
            return loss, task_vec

        if self.compile_config.compile_step:
            return CompiledStep(step_fn,
                                optimize=self.compile_config.graph_opt)
        return EagerStep(step_fn)

    def _make_eval_step(self) -> Optional[CompiledStep]:
        """The compiled per-model validation forward, or None (eager)."""
        return make_eval_step(self.stacked,
                              functools.partial(per_model_loss, self.loss_fn),
                              self.compile_config)

    def _make_epoch(self, step, optimizer) -> Optional[CompiledEpoch]:
        """The phase's whole-loop runner, or None when capture is off.

        The per-model ``task_vec`` output (``acc_index=1``) accumulates as
        a length-M vector, and clipping uses the stacked per-model norm —
        otherwise identical to the sequential trainer's epoch loop.
        """
        if not self.compile_config.loop_capture:
            return None
        return CompiledEpoch(step, optimizer, grad_clip=self.grad_clip,
                             clip_fn=clip_grad_norm_stacked,
                             clip_kernel=clip_grads_stacked,
                             vector_m=self.m, acc_index=1)

    # ------------------------------------------------------------------
    def _epoch_index(self, cursors: List[int], i: int, active: List[bool]) -> int:
        # Masked models re-read their last epoch (results discarded) so the
        # zip over per-model iterators stays rectangular without advancing
        # their stream position.
        return cursors[i] if active[i] else max(cursors[i] - 1, 0)

    def _run_train_epoch(self, step, optimizer, train_view: EpochReplayLoader,
                         cursors: List[int], active: List[bool],
                         epoch: Optional[CompiledEpoch] = None) -> np.ndarray:
        iters = [train_view.epoch(self._epoch_index(cursors, i, active))
                 for i in range(self.m)]
        if epoch is not None:
            # Whole-loop capture path: stack the per-model streams into the
            # epoch's batch list and replay it as one loop program (the
            # ``active`` mask is a loop-carried leaf, re-read per epoch).
            batches = [(np.stack([part[0] for part in parts]),
                        np.stack([part[1] for part in parts]))
                       for parts in zip(*iters)]
            totals = np.asarray(epoch.run_batches(batches))
        else:
            totals = np.zeros(self.m)
            batches = 0
            for parts in zip(*iters):
                x = np.stack([part[0] for part in parts])
                y = np.stack([part[1] for part in parts])
                optimizer.zero_grad()
                _, task_vec = step(x, y)
                if self.grad_clip is not None:
                    clip_grad_norm_stacked(optimizer.params, self.grad_clip)
                optimizer.step()
                totals += np.asarray(task_vec)
                batches += 1
            if batches == 0:
                raise ValueError("training loader produced no batches")
            totals = totals / batches
        for i in range(self.m):
            if active[i]:
                cursors[i] += 1
        return totals

    def _run_validation(self, val_view: EpochReplayLoader,
                        cursors: List[int], active: List[bool],
                        step: Optional[CompiledStep] = None) -> np.ndarray:
        stacked = self.stacked
        was_training = stacked.net.training
        stacked.eval()
        iters = [val_view.epoch(self._epoch_index(cursors, i, active))
                 for i in range(self.m)]
        totals = np.zeros(self.m)
        batches = 0
        with no_grad():
            for parts in zip(*iters):
                x = np.stack([part[0] for part in parts])
                y = np.stack([part[1] for part in parts])
                if step is None:
                    vec = per_model_loss(self.loss_fn, stacked(Tensor(x)),
                                         Tensor(y)).data
                else:
                    vec = step(x, y)[0]
                totals += np.asarray(vec, dtype=np.float64)
                batches += 1
        if was_training:
            stacked.train()
        if batches == 0:
            raise ValueError("evaluation loader produced no batches")
        for i in range(self.m):
            if active[i]:
                cursors[i] += 1
        vals = totals / batches
        if faults.fire("nan_loss") is not None:
            # One diverged slice genuinely poisons the whole stack: the
            # models share one summed loss, so NaN gradients reach every
            # slice.  The injector reproduces exactly that blast radius.
            vals = np.full_like(vals, np.nan)
        bad = [i for i in range(self.m)
               if active[i] and not np.isfinite(vals[i])]
        if bad:
            raise DivergedError(
                "stacked validation loss is non-finite for model(s) "
                + ", ".join(f"{i} (lam={self.lams[i]:g})" for i in bad)
                + "; a diverged slice poisons the shared stacked loss — "
                  "retrain the group sequentially to isolate it")
        return vals

    def _effective_params(self, index: int) -> int:
        """Per-slice equivalent of :func:`repro.core.effective_parameters`.

        Counted from the stacked masks directly — per epoch per model this
        runs on the hot path, and a full ``sync_template`` copy just to
        count parameters would cost M state copies per pruning epoch.
        PIT-layer counts depend only on the masks; everything else is the
        constant non-searchable remainder, computed once.
        """
        return self._fixed_param_count + sum(
            layer.effective_params(index) for layer in self._pit_layers)

    def model_for(self, index: int) -> Module:
        """The template materialized as trained model ``index``.

        One shared template instance serves all slices — use the returned
        model (export, deploy, evaluate) before asking for the next index.
        """
        return self.stacked.sync_template(index)

    # ------------------------------------------------------------------
    def _load_resume(self):
        """All M slice checkpoints, or None (absent / torn / mismatched).

        Every slice must exist and agree on (phase, global epoch): a crash
        *between* per-slice writes leaves a torn set, which degrades to a
        fresh start rather than resuming slices at different epochs.
        """
        if self._checkpoints is None:
            return None
        states = []
        for i, ckpt in enumerate(self._checkpoints):
            state = ckpt.load()
            if state is None:
                return None
            meta = state.meta
            if meta.get("trainer") != "pit" or not meta.get("stack"):
                return None
            info = meta["stack"]
            if int(info.get("m", -1)) != self.m or int(info.get("index", -1)) != i:
                return None
            states.append(state)
        if len({(s.meta.get("phase"), int(s.meta.get("global_epoch", -1)))
                for s in states}) != 1:
            warnings.warn(
                "stacked checkpoint set is torn (slices disagree on "
                "phase/epoch); starting fresh")
            return None
        return states

    def _save_boundary(self, phase: str, optimizer, stoppers, histories, *,
                       warmup_ran: int, prune_ran: List[int],
                       finetune_ran: List[int], stack_prune_epoch: int,
                       stack_finetune_epoch: int, seconds: Dict,
                       active: List[bool], train_cur: List[int],
                       val_cur: List[int], train_view, val_view,
                       snapshots: Optional[List[Optional[Dict]]] = None
                       ) -> None:
        """One shared epoch boundary: write every slice's snapshot (when
        due), then hit the ``crash@epoch=K`` fault site."""
        self._global_epoch += 1
        ge = self._global_epoch
        ckpts = self._checkpoints
        if ckpts is not None and ckpts[0].due(ge):
            orders = {"train": len(train_view._orders),
                      "val": len(val_view._orders)}
            for i, ckpt in enumerate(ckpts):
                arrays = {f"model/{name}": arr for name, arr
                          in self.stacked.slice_state(i).items()}
                arrays.update(optimizer_arrays(optimizer, slice_index=i))
                if stoppers is not None:
                    arrays.update(stopper_arrays(stoppers[i]))
                if snapshots is not None and snapshots[i] is not None:
                    arrays.update({f"snap/{name}": arr
                                   for name, arr in snapshots[i].items()})
                ckpt.save(arrays, {
                    "trainer": "pit", "phase": phase, "global_epoch": ge,
                    "counters": {
                        "warmup_ran": warmup_ran,
                        "prune_ran": int(prune_ran[i]),
                        "finetune_ran": int(finetune_ran[i]),
                        "stack_prune_epoch": stack_prune_epoch,
                        "stack_finetune_epoch": stack_finetune_epoch,
                    },
                    "history": histories[i],
                    "seconds": seconds,
                    "rngs": capture_rngs(
                        module_rng_map(self.stacked.net, slice_index=i)),
                    "loader_epochs": {"train": int(train_cur[i]),
                                      "val": int(val_cur[i])},
                    "stack": {
                        "m": self.m, "index": i,
                        "active": bool(active[i]),
                        "train_cur": int(train_cur[i]),
                        "val_cur": int(val_cur[i]),
                        "orders": orders,
                        "has_snapshot": bool(
                            snapshots is not None
                            and snapshots[i] is not None),
                    },
                })
        faults.crash_at_epoch(ge)

    def fit(self, train_loader, val_loader) -> List[PITResult]:
        """Run warmup → pruning → fine-tuning for all M grid points.

        With checkpointing configured (``checkpoint_dir=``), every shared
        epoch boundary writes one template-shaped snapshot per slice and a
        complete, consistent set is resumed bit-identically to the
        uninterrupted stacked run.  Slice files use the same format the
        sequential trainer writes, so the same grid point resumes across
        both execution strategies (within the established stacked-vs-
        sequential floating-point tolerance).
        """
        try:
            train_view = EpochReplayLoader(train_loader)
            val_view = EpochReplayLoader(val_loader)
        except TypeError as exc:
            raise StackingUnsupported(str(exc)) from exc

        m = self.m
        stacked = self.stacked
        states = self._load_resume()
        meta0 = states[0].meta if states else {}
        phases = ("warmup", "prune", "finetune")
        phase_at = (phases.index(meta0["phase"])
                    if meta0.get("phase") in phases else -1)
        shared = meta0.get("counters", {})
        seconds = {k: float(v) for k, v in meta0.get("seconds", {}).items()}
        self._global_epoch = int(meta0.get("global_epoch", 0))
        resumed_epochs = self._global_epoch
        if states:
            histories = [dict(s.meta["history"]) for s in states]
            train_cur = [int(s.meta["stack"]["train_cur"]) for s in states]
            val_cur = [int(s.meta["stack"]["val_cur"]) for s in states]
            # Regenerate the views' memoized epoch orders: the loaders
            # passed in are pristine, so replaying the shuffle stream
            # reproduces exactly the orders the interrupted run drew.
            orders = meta0["stack"].get("orders", {})
            if int(orders.get("train", 0)) > 0:
                train_view._order(int(orders["train"]) - 1)
            if int(orders.get("val", 0)) > 0:
                val_view._order(int(orders["val"]) - 1)
            self._log(f"resumed {m} slices at phase {meta0.get('phase')!r}, "
                      f"global epoch {self._global_epoch}")
        else:
            histories = [
                {"warmup_val": [], "prune_val": [], "finetune_val": [],
                 "prune_params": []}
                for _ in range(m)]
            train_cur = [0] * m
            val_cur = [0] * m
        weight_params, gamma_params = self._split_params()

        def restore_slices(optimizer, stoppers=None):
            for i, state in enumerate(states):
                stacked.load_slice_state(i, state.group("model/"))
                restore_optimizer(optimizer, state.arrays, slice_index=i)
                if stoppers is not None:
                    restore_stopper(stoppers[i], state.arrays)
                restore_rngs(module_rng_map(stacked.net, slice_index=i),
                             state.meta.get("rngs", {}))

        # One compiled validation forward through warmup and pruning;
        # freezing builds a new one.
        val_step = self._make_eval_step()

        # ---------------- Phase 1: warmup (weights only) ----------------
        start = time.perf_counter()
        warmup_base = seconds.get("warmup", 0.0)
        warmup_ran = int(shared.get("warmup_ran", 0))
        warmup_seconds = warmup_base
        if self.warmup_epochs > 0 and phase_at <= 0:
            optimizer = Adam(weight_params, lr=self.lr)
            if states and phase_at == 0:
                restore_slices(optimizer)
            step = self._make_step(with_reg=False)
            epoch = self._make_epoch(step, optimizer)
            active = [True] * m
            val = None
            for _ in range(warmup_ran, self.warmup_epochs):
                self._run_train_epoch(step, optimizer, train_view,
                                      train_cur, active, epoch=epoch)
                val = self._run_validation(val_view, val_cur, active,
                                           val_step)
                for i in range(m):
                    histories[i]["warmup_val"].append(float(val[i]))
                warmup_ran += 1
                self._save_boundary(
                    "warmup", optimizer, None, histories,
                    warmup_ran=warmup_ran, prune_ran=[0] * m,
                    finetune_ran=[0] * m, stack_prune_epoch=0,
                    stack_finetune_epoch=0,
                    seconds={**seconds, "warmup": warmup_base
                             + (time.perf_counter() - start)},
                    active=active, train_cur=train_cur, val_cur=val_cur,
                    train_view=train_view, val_view=val_view)
            if val is not None:
                self._log(f"warmup done, val={val}")
            warmup_seconds = warmup_base + (time.perf_counter() - start)
        seconds["warmup"] = warmup_seconds

        # ---------------- Phase 2: pruning (weights + γ) ----------------
        start = time.perf_counter()
        prune_base = seconds.get("prune", 0.0)
        prune_ran = ([int(s.meta["counters"].get("prune_ran", 0))
                      for s in states] if states else [0] * m)
        prune_epoch = int(shared.get("stack_prune_epoch", 0))
        snapshots: List[Optional[Dict]] = [None] * m
        prune_seconds = prune_base
        if phase_at <= 1:
            groups = [{"params": weight_params, "lr": self.lr}]
            if gamma_params:
                groups.append({"params": gamma_params, "lr": self.gamma_lr,
                               "weight_decay": 0.0})
            optimizer = Adam(groups, lr=self.lr)
            stoppers = [EarlyStopping(patience=self.prune_patience,
                                      mode="min") for _ in range(m)]
            active = [True] * m
            stacked.set_all_active()
            if states and phase_at == 1:
                restore_slices(optimizer, stoppers)
                for i, state in enumerate(states):
                    info = state.meta["stack"]
                    active[i] = bool(info.get("active", True))
                    stacked.set_active(i, active[i])
                    if info.get("has_snapshot"):
                        snapshots[i] = {name: np.array(arr, copy=True)
                                        for name, arr
                                        in state.group("snap/").items()}
            step = self._make_step(with_reg=True)
            epoch = self._make_epoch(step, optimizer)
            for _ in range(prune_epoch, self.max_prune_epochs):
                if not any(active):
                    break
                self._run_train_epoch(step, optimizer, train_view,
                                      train_cur, active, epoch=epoch)
                val = self._run_validation(val_view, val_cur, active,
                                           val_step)
                for i in range(m):
                    if not active[i]:
                        continue
                    histories[i]["prune_val"].append(float(val[i]))
                    histories[i]["prune_params"].append(
                        float(self._effective_params(i)))
                    prune_ran[i] += 1
                    stoppers[i].update(float(val[i]))
                    if stoppers[i].should_stop:
                        # Freeze this grid point where its sequential run
                        # would have stopped; the stack keeps going for
                        # the others.
                        active[i] = False
                        stacked.set_active(i, False)
                        snapshots[i] = stacked.slice_state(i)
                prune_epoch += 1
                self._save_boundary(
                    "prune", optimizer, stoppers, histories,
                    warmup_ran=warmup_ran, prune_ran=prune_ran,
                    finetune_ran=[0] * m, stack_prune_epoch=prune_epoch,
                    stack_finetune_epoch=0,
                    seconds={**seconds, "prune": prune_base
                             + (time.perf_counter() - start)},
                    active=active, train_cur=train_cur, val_cur=val_cur,
                    train_view=train_view, val_view=val_view,
                    snapshots=snapshots)
            for i in range(m):
                if snapshots[i] is None:          # ran to the epoch cap
                    snapshots[i] = stacked.slice_state(i)
            for i in range(m):
                stacked.load_slice_state(i, snapshots[i])
            prune_seconds = prune_base + (time.perf_counter() - start)
        seconds["prune"] = prune_seconds
        self._log(f"pruning converged after {prune_ran} epochs")

        # ---------------- Phase 3: freeze + fine-tune --------------------
        start = time.perf_counter()
        finetune_base = seconds.get("finetune", 0.0)
        finetune_ran = ([int(s.meta["counters"].get("finetune_ran", 0))
                         for s in states] if states else [0] * m)
        finetune_epoch = int(shared.get("stack_finetune_epoch", 0))
        stacked.set_all_active()
        for layer in self._pit_layers:
            layer.freeze()
        optimizer = Adam(weight_params, lr=self.lr)
        stoppers = [EarlyStopping(patience=self.finetune_patience, mode="min")
                    for _ in range(m)]
        active = [True] * m
        if states and phase_at == 2:
            # freeze() first (it shapes the stacked frozen-mask buffers),
            # restore second: the snapshots carry the exact masks of the
            # original pruning outcome for every slice.
            restore_slices(optimizer, stoppers)
            for i, state in enumerate(states):
                active[i] = bool(state.meta["stack"].get("active", True))
                stacked.set_active(i, active[i])
        # Fresh step: freezing changed the graph (per-model masks became
        # constants the optimizer passes fold away).
        step = self._make_step(with_reg=False)
        epoch = self._make_epoch(step, optimizer)
        val_step = self._make_eval_step()
        for _ in range(finetune_epoch, self.finetune_epochs):
            if not any(active):
                break
            self._run_train_epoch(step, optimizer, train_view,
                                  train_cur, active, epoch=epoch)
            val = self._run_validation(val_view, val_cur, active, val_step)
            for i in range(m):
                if not active[i]:
                    continue
                histories[i]["finetune_val"].append(float(val[i]))
                finetune_ran[i] += 1
                stoppers[i].update(float(val[i]),
                                   state=stacked.slice_state(i))
                if stoppers[i].should_stop:
                    active[i] = False
                    stacked.set_active(i, False)
            finetune_epoch += 1
            self._save_boundary(
                "finetune", optimizer, stoppers, histories,
                warmup_ran=warmup_ran, prune_ran=prune_ran,
                finetune_ran=finetune_ran, stack_prune_epoch=prune_epoch,
                stack_finetune_epoch=finetune_epoch,
                seconds={**seconds, "finetune": finetune_base
                         + (time.perf_counter() - start)},
                active=active, train_cur=train_cur, val_cur=val_cur,
                train_view=train_view, val_view=val_view)
        for i in range(m):
            if stoppers[i].best_state is not None:
                stacked.load_slice_state(i, stoppers[i].best_state)
        stacked.set_all_active()
        finetune_seconds = finetune_base + (time.perf_counter() - start)

        best_vals = [None if stoppers[i].best is None else float(stoppers[i].best)
                     for i in range(m)]
        if any(v is None for v in best_vals):
            # No fine-tune epoch ran (finetune_epochs=0): evaluate once,
            # per model, like the sequential fallback path does.
            needs = [best_vals[i] is None for i in range(m)]
            val = self._run_validation(val_view, val_cur, needs, val_step)
            for i in range(m):
                if best_vals[i] is None:
                    best_vals[i] = float(val[i])
        self._log(f"fine-tuning done, best val={best_vals}")

        results = []
        for i in range(m):
            template = self.stacked.sync_template(i)
            results.append(PITResult(
                dilations=network_dilations(template),
                best_val=best_vals[i],
                effective_params=effective_parameters(template),
                warmup_seconds=warmup_seconds,
                prune_seconds=prune_seconds,
                finetune_seconds=finetune_seconds,
                warmup_epochs=warmup_ran,
                prune_epochs=prune_ran[i],
                finetune_epochs=finetune_ran[i],
                history=histories[i],
                resumed_epochs=resumed_epochs,
            ))
        return results
