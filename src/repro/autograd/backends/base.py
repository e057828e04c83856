"""Backend interface for the causal dilated 1-D convolution kernels.

A :class:`ConvBackend` implements the three numerical kernels behind
:func:`repro.autograd.conv1d_causal` — forward, input-gradient and
weight-gradient — on plain numpy arrays.  The autograd op in
``ops_conv.py`` owns everything else (validation, causal padding, bias,
tape wiring), so a backend only has to answer "given the padded input,
what are the outputs / adjoints?".

All kernels receive the *left-padded* input ``xp`` of shape
``(N, C_in, T + (K-1)*dilation)`` together with the original temporal
length ``t``; the output length is ``ceil(t / stride)``.  Tap ``i`` of the
kernel reads ``xp[..., i*dilation + j*stride]`` for output position ``j``
(paper Eq. 1 in kernel order).

Backends must be numerically interchangeable: the differential harness in
``tests/test_backends_parity.py`` asserts every registered backend matches
the einsum reference on forward values and all gradients.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["ConvBackend", "conv_out_length", "scratch_buffer"]


def conv_out_length(t: int, stride: int) -> int:
    """Output length of the causal conv: ``ceil(t / stride)``."""
    return (t + stride - 1) // stride


class ConvBackend:
    """Abstract numerical kernel set for ``conv1d_causal``.

    Every kernel takes an optional ``scratch`` dict.  Eager dispatch passes
    None; the compiled-step executor passes a per-node dict that persists
    across replays, letting a backend keep its output / work buffers alive
    instead of reallocating them each batch (the returned array may then be
    the same buffer every call).  Results must be bit-identical with and
    without ``scratch`` — the graph-executor parity suite runs both paths.
    """

    #: Registry name; subclasses must override.
    name: str = "abstract"

    def forward(self, xp: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, t: int,
                scratch: Optional[dict] = None) -> np.ndarray:
        """Convolve the padded input with the kernel.

        Parameters
        ----------
        xp:
            Left-padded input ``(N, C_in, T + (K-1)*dilation)``.
        w:
            Kernel ``(C_out, C_in, K)``.
        dilation, stride:
            Temporal dilation / output stride.
        t:
            Unpadded temporal length ``T``.
        scratch:
            Optional persistent buffer dict (see class docstring).

        Returns
        -------
        ``(N, C_out, ceil(T / stride))`` output (no bias).  Must be an
        array the caller may mutate — the op adds the bias into it in
        place (a fresh allocation, or the caller's private scratch
        buffer).
        """
        raise NotImplementedError

    def grad_input(self, grad: np.ndarray, w: np.ndarray,
                   xp_shape: Tuple[int, int, int],
                   dilation: int, stride: int, t: int,
                   scratch: Optional[dict] = None) -> np.ndarray:
        """Adjoint w.r.t. the *padded* input; shape ``xp_shape``."""
        raise NotImplementedError

    def grad_weight(self, grad: np.ndarray, xp: np.ndarray,
                    w_shape: Tuple[int, int, int],
                    dilation: int, stride: int, t: int,
                    scratch: Optional[dict] = None) -> np.ndarray:
        """Adjoint w.r.t. the kernel; shape ``w_shape``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Streaming kernel (one output sample per call)
    # ------------------------------------------------------------------

    def forward_step(self, window: np.ndarray, w: np.ndarray,
                     scratch: Optional[dict] = None) -> np.ndarray:
        """Advance the convolution by one tick: ``(N, C_in, K) x
        (C_out, C_in, K) -> (N, C_out, 1)`` (no bias).

        ``window`` holds the ``K`` dilated taps the newest output sample
        reads — ``window[..., i] = x[t - (K-1-i)*dilation]`` — gathered by
        the streaming executor from its per-layer ring buffer, so one new
        sample costs O(K·C_in·C_out) MACs regardless of the receptive
        field.  The base implementation fuses the whole step into one
        ``(C_out, C_in*K) x (N, C_in*K, 1)`` GEMM: per-tick latency is
        call-overhead-bound at serving batch sizes, so one BLAS dispatch
        per layer (not one per tap) is what makes streaming beat
        re-windowing.  BLAS may sum the contraction in a different order
        than the full-window kernel of the same backend, so outputs agree
        to the last ulp rather than bitwise — the streaming parity suite
        pins the tolerance.
        """
        n = window.shape[0]
        c_out, c_in, k = w.shape
        wmat = w.reshape(c_out, c_in * k)
        cols = np.ascontiguousarray(window).reshape(n, c_in * k, 1)
        out, _ = scratch_buffer(scratch, "step_out", (n, c_out, 1),
                                np.result_type(w, window))
        if out is not None:
            return np.matmul(wmat, cols, out=out)
        return np.matmul(wmat, cols)

    # ------------------------------------------------------------------
    # Stacked-model kernels (vmap-style: a leading model axis M)
    #
    # The stacked DSE executor trains M clones of one network in lockstep
    # with per-model weights; every conv then sees a padded input
    # ``(M, N, C_in, L)`` and a kernel ``(M, C_out, C_in, K)``.  The base
    # implementations below loop the per-model kernels — always correct,
    # so externally registered backends work under stacking automatically —
    # while the built-in backends override them with genuinely batched
    # contractions (one big einsum / batched GEMM / batched FFT), which is
    # where the M-fold amortization of per-call overhead comes from.
    # ------------------------------------------------------------------

    def forward_stacked(self, xp: np.ndarray, w: np.ndarray,
                        dilation: int, stride: int, t: int,
                        scratch: Optional[dict] = None) -> np.ndarray:
        """Stacked forward: ``(M, N, C_in, L) x (M, C_out, C_in, K) ->
        (M, N, C_out, ceil(T / stride))`` (no bias).  Default: per-model
        loop over :meth:`forward`."""
        out = None
        for m in range(xp.shape[0]):
            y = self.forward(xp[m], w[m], dilation, stride, t)
            if out is None:
                out = np.empty((xp.shape[0],) + y.shape, y.dtype)
            out[m] = y
        return out

    def grad_input_stacked(self, grad: np.ndarray, w: np.ndarray,
                           xp_shape: Tuple[int, int, int, int],
                           dilation: int, stride: int, t: int,
                           scratch: Optional[dict] = None) -> np.ndarray:
        """Stacked adjoint w.r.t. the padded input; shape ``xp_shape``."""
        gxp = None
        for m in range(grad.shape[0]):
            g = self.grad_input(grad[m], w[m], tuple(xp_shape[1:]),
                                dilation, stride, t)
            if gxp is None:
                gxp = np.empty(tuple(xp_shape), g.dtype)
            gxp[m] = g
        return gxp

    def grad_weight_stacked(self, grad: np.ndarray, xp: np.ndarray,
                            w_shape: Tuple[int, int, int, int],
                            dilation: int, stride: int, t: int,
                            scratch: Optional[dict] = None) -> np.ndarray:
        """Stacked adjoint w.r.t. the kernels; shape ``w_shape``."""
        gw = None
        for m in range(grad.shape[0]):
            g = self.grad_weight(grad[m], xp[m], tuple(w_shape[1:]),
                                 dilation, stride, t)
            if gw is None:
                gw = np.empty(tuple(w_shape), g.dtype)
            gw[m] = g
        return gw

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def scratch_buffer(scratch: Optional[dict], key: str,
                   shape: Tuple[int, ...], dtype, zero: bool = False
                   ) -> Tuple[Optional[np.ndarray], bool]:
    """Fetch-or-create a persistent work buffer; ``(None, False)`` when no
    scratch dict is in play (eager call — the backend allocates fresh).

    Returns ``(buffer, created)``; with ``zero=True`` an existing buffer is
    zero-filled, matching a fresh ``np.zeros`` bit for bit.
    """
    if scratch is None:
        return None, False
    buf = scratch.get(key)
    if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
        scratch[key] = buf = (np.zeros if zero else np.empty)(shape, dtype)
        return buf, True
    if zero:
        buf.fill(0)
    return buf, False


_EINSUM_PATHS: dict = {}


def einsum_cached(subscripts: str, *operands: np.ndarray):
    """``np.einsum`` with the contraction path memoized per operand shape.

    ``optimize=True`` re-runs the path search on every call — measurable
    pure overhead once shapes are fixed, which for a training loop is
    always.  The search is deterministic, so caching the path per
    ``(subscripts, shapes)`` is bit-identical to ``optimize=True``.  Only
    the search is saved: ``np.einsum(..., optimize=path)`` still parses
    the equation and validates the path against the operands on every
    call, so a hot kernel with a fixed contraction is cheaper as an
    explicit GEMM.
    """
    key = (subscripts, tuple(op.shape for op in operands))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = _EINSUM_PATHS[key] = np.einsum_path(
            subscripts, *operands, optimize=True)[0]
    return np.einsum(subscripts, *operands, optimize=path)
