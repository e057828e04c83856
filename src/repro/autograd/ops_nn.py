"""Neural-network specific differentiable operations.

Contains the numerically-stable softmax family, the straight-through
Heaviside binarization used by PIT's γ parameters (paper Eq. 2), a dropout
primitive and training-mode batch normalization.

All ops are expressed as :class:`repro.autograd.tensor.OpDef` kernel pairs
dispatched through :func:`repro.autograd.tensor.apply_op`, so they are
captured by the graph executor like every other primitive.  Dropout and
batch normalization are the stateful ops: dropout's generator and the
normalization's statistics owner are static attributes, and every replay
of a captured step draws fresh masks / updates the running statistics in
recorded program order — exactly as an eager run would.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .backends.base import scratch_buffer
from .tensor import OpDef, Tensor, apply_op, get_default_dtype

__all__ = [
    "softmax",
    "log_softmax",
    "binarize_ste",
    "dropout",
    "dropout_stacked",
    "batch_norm",
    "logsumexp",
]


def _softmax_fwd(ins, attrs):
    x = ins[0]
    shifted = x - x.max(axis=attrs["axis"], keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=attrs["axis"], keepdims=True), None


def _softmax_out(ins, attrs, out):
    x = ins[0]
    shifted = x - x.max(axis=attrs["axis"], keepdims=True)
    exp = np.exp(shifted)
    np.divide(exp, exp.sum(axis=attrs["axis"], keepdims=True), out=out)
    return None


def _softmax_bwd(g, ins, out, ctx, attrs, needs):
    # J^T g = s * (g - sum(g * s))
    dot = (g * out).sum(axis=attrs["axis"], keepdims=True)
    return (out * (g - dot),)


_SOFTMAX = OpDef("softmax", _softmax_fwd, _softmax_bwd, _softmax_out,
                 bwd_uses=("out",), inplace={0: ()})


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return apply_op(_SOFTMAX, (x,), {"axis": axis})


def _log_softmax_fwd(ins, attrs):
    x = ins[0]
    shifted = x - x.max(axis=attrs["axis"], keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=attrs["axis"], keepdims=True))
    return shifted - lse, None


def _log_softmax_out(ins, attrs, out):
    x = ins[0]
    shifted = x - x.max(axis=attrs["axis"], keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=attrs["axis"], keepdims=True))
    np.subtract(shifted, lse, out=out)
    return None


def _log_softmax_bwd(g, ins, out, ctx, attrs, needs):
    soft = np.exp(out)
    return (g - soft * g.sum(axis=attrs["axis"], keepdims=True),)


_LOG_SOFTMAX = OpDef("log_softmax", _log_softmax_fwd, _log_softmax_bwd,
                     _log_softmax_out, bwd_uses=("out",), inplace={0: ()})


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return apply_op(_LOG_SOFTMAX, (x,), {"axis": axis})


def _logsumexp_fwd(ins, attrs):
    x = ins[0]
    axis = attrs["axis"]
    m = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    if not attrs["keepdims"]:
        out = out.squeeze(axis=axis)
    return out, None


def _logsumexp_bwd(g, ins, out, ctx, attrs, needs):
    axis = attrs["axis"]
    if not attrs["keepdims"]:
        g = np.expand_dims(g, axis=axis)
        out = np.expand_dims(out, axis=axis)
    soft = np.exp(ins[0] - out)
    return (g * soft,)


_LOGSUMEXP = OpDef("logsumexp", _logsumexp_fwd, _logsumexp_bwd,
                   bwd_uses=("ins", "out"))


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp reduction."""
    return apply_op(_LOGSUMEXP, (x,), {"axis": axis, "keepdims": keepdims})


def _binarize_fwd(ins, attrs):
    x = ins[0]
    return (x >= attrs["threshold"]).astype(x.dtype), None


def _binarize_bwd(g, ins, out, ctx, attrs, needs):
    return (g,)


_BINARIZE = OpDef("binarize_ste", _binarize_fwd, _binarize_bwd, bwd_uses=())


def binarize_ste(x: Tensor, threshold: float = 0.5) -> Tensor:
    """Heaviside step with a straight-through estimator (paper Eq. 2).

    Forward::

        H(x - threshold) = 1 if x >= threshold else 0

    Backward: the step's true derivative is zero almost everywhere, so —
    following BinaryConnect [19] — the gradient passes through unchanged
    (identity), letting the float "shadow" parameters γ̂ keep learning.
    """
    return apply_op(_BINARIZE, (x,), {"threshold": threshold})


def _dropout_fwd(ins, attrs):
    x = ins[0]
    p = attrs["p"]
    keep = (attrs["rng"].random(x.shape) >= p) / (1.0 - p)
    return x * keep, keep


def _dropout_bwd(g, ins, out, keep, attrs, needs):
    return (g * keep,)


# bwd reads the keep-mask from ctx, not the forward values.  The "rng"
# attribute marks the op stateful: the graph optimizer must never
# constant-fold it (every replay draws fresh masks in program order).
_DROPOUT = OpDef("dropout", _dropout_fwd, _dropout_bwd, bwd_uses=())


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - p)``.

    At evaluation time (``training=False``) this is the identity, so no
    rescaling is needed at inference — the convention used by PyTorch and
    assumed by the deployment flow in :mod:`repro.hw`.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng or np.random.default_rng()
    return apply_op(_DROPOUT, (x,), {"p": p, "rng": rng})


def _dropout_stacked_fwd(ins, attrs):
    x = ins[0]                       # (M, N, ...): leading model axis
    p = attrs["p"]
    rngs = attrs["rng"]              # one generator per model slice
    active = attrs["active"]         # live per-model flags (may be None)
    scale = 1.0 / (1.0 - p)
    keep = np.empty_like(x)
    for m, rng in enumerate(rngs):
        if active is None or active[m]:
            # Identical draw shape and stream position as the sequential
            # model would consume: per-model parity depends on it.
            keep[m] = (rng.random(x.shape[1:]) >= p) * scale
        else:
            # A converged model rides along masked: no draw (its stream
            # must not advance past its early-stop point), no scaling.
            keep[m] = 1.0
    return x * keep, keep


def _dropout_stacked_bwd(g, ins, out, keep, attrs, needs):
    return (g * keep,)


# Like _DROPOUT, the "rng" attribute (here a tuple of per-model generators)
# marks the op stateful so the graph optimizer never constant-folds it; the
# "active" array is read live on every (re)play.
_DROPOUT_STACKED = OpDef("dropout_stacked", _dropout_stacked_fwd,
                         _dropout_stacked_bwd, bwd_uses=())


def dropout_stacked(x: Tensor, p: float, training: bool,
                    rngs, active=None) -> Tensor:
    """Inverted dropout over a stacked ``(M, N, ...)`` activation.

    Each model slice draws its keep-mask from its *own* generator
    ``rngs[m]`` with the per-model shape ``x.shape[1:]`` — the exact stream
    an unstacked model would consume, which is what keeps stacked training
    trajectories aligned with sequential ones.  ``active`` is an optional
    live array of per-model flags: inactive slices (early-stopped models
    riding along in the stack) skip their draw entirely so their stream
    position stays frozen at the stop point.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rngs = tuple(rngs)
    if len(rngs) != x.shape[0]:
        raise ValueError(f"got {len(rngs)} generators for a stack of "
                         f"{x.shape[0]} models")
    return apply_op(_DROPOUT_STACKED, (x,),
                    {"p": p, "rng": rngs, "active": active})


def _empty(scratch, key, shape, dtype):
    """A replay-persistent work buffer, or a fresh one when eager."""
    buf, _ = scratch_buffer(scratch, key, shape, dtype)
    return np.empty(shape, dtype) if buf is None else buf


def _batch_norm_fwd_scratch(ins, attrs, scratch):
    x, w, b = ins
    axes = attrs["axes"]
    # The arithmetic of the primitive composition it replaces, in the same
    # order — mean; x - mean; square; mean; + eps; sqrt; divide; × w; + b —
    # so activations and running statistics keep their bits.
    mean = x.mean(axis=axes, keepdims=True)
    centered = np.subtract(x, mean, out=_empty(scratch, "c", x.shape, x.dtype))
    sq = np.multiply(centered, centered,
                     out=_empty(scratch, "sq", x.shape, x.dtype))
    var = sq.mean(axis=axes, keepdims=True)
    attrs["state"]._update_running_stats(mean.reshape(w.shape),
                                         var.reshape(w.shape))
    std = np.sqrt(var + attrs["eps"])
    x_hat = np.divide(centered, std,
                      out=_empty(scratch, "x_hat", x.shape, x.dtype))
    w_col = w.reshape(mean.shape)
    dtype = np.result_type(x_hat, w, b)
    out = sq if dtype == sq.dtype else _empty(scratch, "out", x.shape, dtype)
    np.multiply(x_hat, w_col, out=out)
    np.add(out, b.reshape(mean.shape), out=out)
    return out, (centered, x_hat, std, w_col)


def _batch_norm_bwd_scratch(g, ins, out, ctx, attrs, needs, scratch):
    # The adjoint of the forward's chain in closed form, computed with the
    # roundings of the primitives' own backward kernels and the eager
    # accumulation order, so gradients — and whole training runs — keep
    # the bits of the composition (c = x - mean, n = reduced size):
    #   gb = Σg,  gw = Σ g·x̂,  gd = g·w/σ,  gσ = -Σ g·w·c/σ²,
    #   gc = 2·(gσ·0.5/σ/n)·c,  gx = gd + (-Σgd)/n + gc + (-Σgc)/n.
    # (Negating before or after a product, quotient or sum gives the same
    # bits.)  The factored (w/σ)·(g - mean(g) - x̂·mean(g·x̂)) rounds
    # differently, enough to change float32 stacked-vs-sequential drift.
    centered, x_hat, std, w = ctx
    axes = attrs["axes"]
    n = x_hat.size // std.size
    buf = _empty(scratch, "t", g.shape, np.result_type(g, x_hat, w))
    gw = np.multiply(g, x_hat, out=buf).sum(axis=axes, keepdims=True)
    gxh = np.multiply(g, w, out=buf)
    gx = np.divide(gxh, std, out=_empty(scratch, "gx", g.shape, buf.dtype))
    np.multiply(gxh, centered, out=buf)
    g_std = -np.divide(buf, std ** 2, out=buf).sum(axis=axes, keepdims=True)
    g_mean = -gx.sum(axis=axes, keepdims=True)
    gc = np.multiply(g_std * 0.5 / std / n, centered, out=buf)
    np.add(gc, gc, out=gc)
    g_mu = -gc.sum(axis=axes, keepdims=True)
    np.add(gx, g_mean / n, out=gx)
    np.add(gx, gc, out=gx)
    np.add(gx, g_mu / n, out=gx)
    return (gx,
            gw.reshape(ins[1].shape) if needs[1] else None,
            g.sum(axis=axes, keepdims=True).reshape(ins[2].shape)
            if needs[2] else None)


# The backward reads only its ctx (c, x̂, σ and w), never the forward
# values.  The "state" attribute marks the op stateful, like buffer
# reads: the graph optimizer neither folds nor drops it, so every replay
# updates the running statistics.
_BATCH_NORM = OpDef(
    "batch_norm",
    lambda ins, attrs: _batch_norm_fwd_scratch(ins, attrs, None),
    lambda *args: _batch_norm_bwd_scratch(*args, None),
    fwd_scratch=_batch_norm_fwd_scratch,
    bwd_scratch=_batch_norm_bwd_scratch, bwd_uses=())


def batch_norm(x: Tensor, weight: Tensor, bias: Tensor, axes, eps: float,
               stats_owner) -> Tensor:
    """Training-mode batch normalization of ``x`` over ``axes``.

    ``weight`` and ``bias`` have the shape of the axes that remain (e.g.
    ``(C,)`` for ``(N, C, T)`` over ``(0, 2)``; ``(M, C)`` for a stacked
    ``(M, N, C, T)`` over ``(1, 3)``).  Each call — eager or replayed by a
    compiled step — hands the batch mean and biased variance, shaped like
    ``weight``, to ``stats_owner._update_running_stats``.
    """
    eps = np.asarray(eps, dtype=get_default_dtype())
    return apply_op(_BATCH_NORM, (x, weight, bias),
                    {"axes": tuple(axes), "eps": eps, "state": stats_owner})
