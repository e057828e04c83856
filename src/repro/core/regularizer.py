"""Dilation regularizers (paper Sec. III-B, Eq. 6).

The pruning phase augments the task loss with a Lasso term on the float
γ̂ parameters, weighted so that each γ̂ pays proportionally to the model
size it keeps alive::

    L_R(γ) = λ Σ_l C_in^l · C_out^l · Σ_{i=1..L-1} round((rf_max-1)/2^{L-i}) |γ̂_i^l|

The coefficient ``round((rf_max-1)/2^{L-i})`` is the number of kernel
time-slices whose aliveness is (marginally) attributed to γ_i — e.g. for
``rf_max = 9`` (L = 4) the coefficients are (1, 2, 4) for (γ1, γ2, γ3),
and together with the always-alive slices they account for all 9 taps.

A FLOPs-weighted variant (paper: "easily extendable to other types of
optimizations, e.g. FLOPs reduction") multiplies each layer's term by its
output sequence length.  Both are one :func:`pit_size_reg` op times λ.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import OpDef, Tensor, apply_op, get_default_dtype
from ..nn.module import Module
from .masks import num_gamma
from .pit_conv import PITConv1d

__all__ = [
    "gamma_size_coefficients",
    "pit_size_reg",
    "regularizer_term",
    "size_regularizer",
    "flops_regularizer",
    "pit_layers",
]


def gamma_size_coefficients(rf_max: int) -> np.ndarray:
    """Eq. 6 coefficients for γ_1 .. γ_{L-1} (index 0 ↔ γ_1).

    ``coeff[i-1] = round((rf_max - 1) / 2^{L-i})``.
    """
    length = num_gamma(rf_max)
    return np.array([round((rf_max - 1) / 2 ** (length - i)) for i in range(1, length)],
                    dtype=np.float64)


def _size_reg_fwd(ins, attrs):
    total = None
    for gamma, coeff, factor in zip(ins, attrs["coeffs"], attrs["factors"]):
        term = (coeff * np.abs(gamma)).sum(axis=attrs["axis"]) * factor
        total = term if total is None else total + term
    return total, None


def _size_reg_bwd(g, ins, out, ctx, attrs, needs):
    # The per-layer chain of the composition it replaces (× factor,
    # broadcast over γ, × coeff, × sign), so gradients keep their bits.
    axis = attrs["axis"]
    return tuple(
        (g * factor if axis is None else np.expand_dims(g * factor, axis))
        * coeff * np.sign(gamma)
        for gamma, coeff, factor in zip(ins, attrs["coeffs"], attrs["factors"]))


_PIT_SIZE_REG = OpDef("pit_size_reg", _size_reg_fwd, _size_reg_bwd,
                      bwd_uses=("ins",))


def pit_size_reg(layers: Sequence[Tuple[Tensor, int, float]],
                 axis: Optional[int] = None) -> Tensor:
    """Σ factor · Σ_i coeff_i(rf_max) · |γ̂_i| over ``(γ̂, rf_max, factor)``
    layers as one op; ``axis=1`` keeps the model axis of stacked γ̂'s."""
    dtype = get_default_dtype()
    return apply_op(_PIT_SIZE_REG, tuple(gamma for gamma, _, _ in layers), {
        "coeffs": tuple(np.asarray(gamma_size_coefficients(rf), dtype)
                        for _, rf, _ in layers),
        "factors": tuple(np.asarray(f, dtype) for _, _, f in layers),
        "axis": axis})


def regularizer_term(pairs: Iterable, kind: str = "size",
                     default_t_out: int = 1,
                     axis: Optional[int] = None) -> Optional[Tensor]:
    """Eq. 6 without λ over ``(time_mask, conv)`` pairs (None if no mask
    trains); ``kind="flops"`` also weighs each layer by its output length."""
    live = [(mask.gamma_hat, conv.rf_max, conv.in_channels * conv.out_channels
             * ((getattr(conv, "_last_t_out", None) or default_t_out)
                if kind == "flops" else 1))
            for mask, conv in pairs if not mask.frozen and mask.length > 1]
    return pit_size_reg(live, axis) if live else None


def pit_layers(model: Module) -> List[PITConv1d]:
    """All PIT convolutions of a model, in traversal order."""
    return [m for m in model.modules() if isinstance(m, PITConv1d)]


def _time_masked_layers(model: Module):
    """Yield ``(time_mask, layer)`` for every layer carrying a searchable
    time mask — plain :class:`PITConv1d` and the combined
    :class:`repro.core.channel_mask.PITChannelConv1d`."""
    from .channel_mask import PITChannelConv1d
    for module in model.modules():
        if isinstance(module, PITConv1d):
            yield module.mask, module
        elif isinstance(module, PITChannelConv1d):
            yield module.time_mask, module


def size_regularizer(model: Module, lam: float) -> Tensor:
    """Model-size Lasso regularizer (Eq. 6), differentiable w.r.t. γ̂.

    Returns a scalar :class:`Tensor`; layers whose mask is frozen (or that
    have no trainable γ) contribute nothing.
    """
    term = regularizer_term(_time_masked_layers(model))
    return Tensor(np.zeros(())) if term is None else term * lam


def flops_regularizer(model: Module, lam: float, default_t_out: int = 1) -> Tensor:
    """FLOPs-weighted variant: each layer's Eq. 6 term × output length.

    Uses the output length recorded during the last forward pass (the
    trainer runs a forward before computing the loss, so it is available);
    ``default_t_out`` is used for layers that have not yet run.
    """
    term = regularizer_term(_time_masked_layers(model), "flops", default_t_out)
    return Tensor(np.zeros(())) if term is None else term * lam
