"""im2col / ``as_strided`` GEMM conv backend.

Instead of one contraction per kernel tap, this backend lowers the causal
dilated convolution to a *single* batched GEMM:

1. ``as_strided`` builds a zero-copy patch view of the padded input with
   shape ``(N, C_in, K, T_out)`` where
   ``patches[n, c, i, j] = xp[n, c, i*dilation + j*stride]``;
2. the kernel is flattened to ``(C_out, C_in*K)`` and multiplied against
   the ``(N, C_in*K, T_out)`` patch matrix in one ``matmul``.

The backward passes are the transposed GEMMs of the same lowering: the
weight gradient contracts the output gradient with the patch matrix, and
the input gradient computes ``W^T @ grad`` into "column" space, then
scatter-adds each tap's column back into the padded input (columns overlap
whenever ``stride < K*dilation``, so the fold is a K-step vectorized loop
rather than a pure view write).

The patch view never materializes until a GEMM consumes it, so peak extra
memory is the ``(N, C_in*K, T_out)`` im2col buffer — the classic
space-for-speed trade of im2col convolutions.

Under a compiled step the kernels receive a persistent ``scratch`` dict:
the GEMM outputs and the zero-padded adjoint inputs are then kept across
replays instead of being reallocated every batch — same operations, same
bits, no steady-state allocations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .base import ConvBackend, conv_out_length, scratch_buffer

__all__ = ["Im2colBackend"]


def _patch_view(xp: np.ndarray, k: int, dilation: int, stride: int,
                t: int) -> np.ndarray:
    """Zero-copy ``(N, C_in, K, T_out)`` sliding-window view of ``xp``."""
    n, c_in, _ = xp.shape
    t_out = conv_out_length(t, stride)
    s_n, s_c, s_t = xp.strides
    return as_strided(
        xp,
        shape=(n, c_in, k, t_out),
        strides=(s_n, s_c, s_t * dilation, s_t * stride),
        writeable=False,
    )


def _patch_view_stacked(xp: np.ndarray, k: int, dilation: int, stride: int,
                        t: int) -> np.ndarray:
    """Zero-copy ``(M, N, C_in, K, T_out)`` window view of a stacked input."""
    m, n, c_in, _ = xp.shape
    t_out = conv_out_length(t, stride)
    s_m, s_n, s_c, s_t = xp.strides
    return as_strided(
        xp,
        shape=(m, n, c_in, k, t_out),
        strides=(s_m, s_n, s_c, s_t * dilation, s_t * stride),
        writeable=False,
    )


class Im2colBackend(ConvBackend):
    """Single-GEMM kernels via an ``as_strided`` im2col lowering."""

    name = "im2col"

    def forward(self, xp: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, t: int,
                scratch: Optional[dict] = None) -> np.ndarray:
        n, c_in, _ = xp.shape
        c_out, _, k = w.shape
        patches = _patch_view(xp, k, dilation, stride, t)
        t_out = patches.shape[-1]
        # (C_out, C_in*K) @ (N, C_in*K, T_out) -> (N, C_out, T_out)
        wmat = w.reshape(c_out, c_in * k)
        pmat = patches.reshape(n, c_in * k, t_out)
        dtype = np.result_type(wmat, pmat)
        out, _ = scratch_buffer(scratch, "out", (n, c_out, t_out), dtype)
        if out is None:
            return np.matmul(wmat, pmat)
        return np.matmul(wmat, pmat, out=out)

    def forward_step(self, window: np.ndarray, w: np.ndarray,
                     scratch: Optional[dict] = None) -> np.ndarray:
        n, c_in, k = window.shape
        c_out = w.shape[0]
        # The one-tick analogue of the forward lowering: the gathered
        # window *is* the single im2col column, so the tick is one GEMV
        # per stream — (C_out, C_in*K) @ (N, C_in*K, 1).
        wmat = w.reshape(c_out, c_in * k)
        cmat = window.reshape(n, c_in * k, 1)
        dtype = np.result_type(wmat, cmat)
        out, _ = scratch_buffer(scratch, "step_out", (n, c_out, 1), dtype)
        if out is None:
            return np.matmul(wmat, cmat)
        return np.matmul(wmat, cmat, out=out)

    def grad_input(self, grad: np.ndarray, w: np.ndarray,
                   xp_shape: Tuple[int, int, int],
                   dilation: int, stride: int, t: int,
                   scratch: Optional[dict] = None) -> np.ndarray:
        n, c_in, length = xp_shape
        c_out, _, k = w.shape
        pad = (k - 1) * dilation
        # The adjoint of a correlation is a *convolution*: every padded
        # input position p accumulates Σ_{o,i} w[o,c,i]·ĝ[n,o,p - i·d],
        # where ĝ is the stride-upsampled output gradient.  Substituting
        # i → K-1-i turns that into a correlation of the (both-sides
        # zero-padded) ĝ with the tap-flipped kernel — the exact same
        # patch-view + single-GEMM lowering as the forward pass, instead
        # of a K-pass overlapping col2im fold.
        dtype = np.result_type(w, grad)
        gpad, _ = scratch_buffer(scratch, "gpad", (n, c_out, t + 2 * pad),
                                 dtype, zero=True)
        if gpad is None:
            gpad = np.zeros((n, c_out, t + 2 * pad), dtype)
        gpad[:, :, pad: pad + t: stride] = grad
        patches = _patch_view(gpad, k, dilation, 1, length)
        wflip = w[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
        pmat = patches.reshape(n, c_out * k, length)
        gxp, _ = scratch_buffer(scratch, "gxp", tuple(xp_shape), dtype)
        if gxp is None:
            return np.matmul(wflip, pmat)
        return np.matmul(wflip, pmat, out=gxp)

    def grad_weight(self, grad: np.ndarray, xp: np.ndarray,
                    w_shape: Tuple[int, int, int],
                    dilation: int, stride: int, t: int,
                    scratch: Optional[dict] = None) -> np.ndarray:
        c_out, c_in, k = w_shape
        n = xp.shape[0]
        patches = _patch_view(xp, k, dilation, stride, t)
        t_out = patches.shape[-1]
        # gw[o,c,i] = Σ_{n,t} grad[n,o,t] * patches[n,c,i,t] as one GEMM:
        # the materialized (C_in*K, N*T_out) patch matrix times the
        # (N*T_out, C_out) gradient matrix — the operand layout einsum's
        # own matmul lowering picks, so the bits are einsum's, without
        # its per-call equation parsing.
        pmat = patches.transpose(1, 2, 0, 3).reshape(c_in * k, n * t_out)
        gmat = grad.transpose(0, 2, 1).reshape(n * t_out, c_out)
        if scratch is None:
            return np.matmul(pmat, gmat).reshape(c_in, k, c_out) \
                .transpose(2, 0, 1)
        dtype = np.result_type(grad, patches)
        prod, _ = scratch_buffer(scratch, "gw_cko", (c_in * k, c_out), dtype)
        gw, _ = scratch_buffer(scratch, "gw", tuple(w_shape), dtype)
        np.matmul(pmat, gmat, out=prod)
        np.copyto(gw, prod.reshape(c_in, k, c_out).transpose(2, 0, 1))
        return gw

    # -- stacked (leading model axis M) kernels: the same lowering, with
    # the model axis folded into numpy's batched-matmul loop, so M small
    # per-model GEMMs become one batched GEMM call ------------------------

    def forward_stacked(self, xp: np.ndarray, w: np.ndarray,
                        dilation: int, stride: int, t: int,
                        scratch: Optional[dict] = None) -> np.ndarray:
        m, n, c_in, _ = xp.shape
        c_out, k = w.shape[1], w.shape[3]
        patches = _patch_view_stacked(xp, k, dilation, stride, t)
        t_out = patches.shape[-1]
        # (M, 1, C_out, C_in*K) @ (M, N, C_in*K, T_out) -> (M, N, C_out, T_out)
        wmat = w.reshape(m, 1, c_out, c_in * k)
        pmat = patches.reshape(m, n, c_in * k, t_out)
        dtype = np.result_type(wmat, pmat)
        out, _ = scratch_buffer(scratch, "out", (m, n, c_out, t_out), dtype)
        if out is None:
            return np.matmul(wmat, pmat)
        return np.matmul(wmat, pmat, out=out)

    def grad_input_stacked(self, grad: np.ndarray, w: np.ndarray,
                           xp_shape: Tuple[int, int, int, int],
                           dilation: int, stride: int, t: int,
                           scratch: Optional[dict] = None) -> np.ndarray:
        m, n, c_in, length = xp_shape
        c_out, k = w.shape[1], w.shape[3]
        pad = (k - 1) * dilation
        # Same correlation-with-flipped-kernel trick as the per-model
        # adjoint, batched over M by matmul.
        dtype = np.result_type(w, grad)
        gpad, _ = scratch_buffer(scratch, "gpad", (m, n, c_out, t + 2 * pad),
                                 dtype, zero=True)
        if gpad is None:
            gpad = np.zeros((m, n, c_out, t + 2 * pad), dtype)
        gpad[:, :, :, pad: pad + t: stride] = grad
        patches = _patch_view_stacked(gpad, k, dilation, 1, length)
        wflip = (w[:, :, :, ::-1].transpose(0, 2, 1, 3)
                 .reshape(m, 1, c_in, c_out * k))
        pmat = patches.reshape(m, n, c_out * k, length)
        gxp, _ = scratch_buffer(scratch, "gxp", tuple(xp_shape), dtype)
        if gxp is None:
            return np.matmul(wflip, pmat)
        return np.matmul(wflip, pmat, out=gxp)

    def grad_weight_stacked(self, grad: np.ndarray, xp: np.ndarray,
                            w_shape: Tuple[int, int, int, int],
                            dilation: int, stride: int, t: int,
                            scratch: Optional[dict] = None) -> np.ndarray:
        m, c_out, c_in, k = w_shape
        n = xp.shape[1]
        patches = _patch_view_stacked(xp, k, dilation, stride, t)
        t_out = patches.shape[-1]
        # The per-model GEMM lowering of grad_weight, batched over M:
        # (M, C_in*K, N*T_out) @ (M, N*T_out, C_out).
        pmat = patches.transpose(0, 2, 3, 1, 4).reshape(m, c_in * k, n * t_out)
        gmat = grad.transpose(0, 1, 3, 2).reshape(m, n * t_out, c_out)
        if scratch is None:
            return np.matmul(pmat, gmat).reshape(m, c_in, k, c_out) \
                .transpose(0, 3, 1, 2)
        dtype = np.result_type(grad, patches)
        prod, _ = scratch_buffer(scratch, "gw_cko", (m, c_in * k, c_out), dtype)
        gw, _ = scratch_buffer(scratch, "gw", tuple(w_shape), dtype)
        np.matmul(pmat, gmat, out=prod)
        np.copyto(gw, prod.reshape(m, c_in, k, c_out).transpose(0, 3, 1, 2))
        return gw
