"""Differential test harness locking the conv backends together.

Every registered backend of :mod:`repro.autograd.backends` must agree with
the einsum reference on forward values *and* all gradients, over a grid of
dilations, strides and kernel sizes that includes ``C_in != C_out`` and a
temporal length not divisible by the stride.  The im2col fast path is also
validated independently against central finite differences via
:mod:`repro.autograd.gradcheck`, so the two backends can never be
"consistently wrong" together.
"""

import os

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    available_backends,
    check_gradients,
    conv1d_causal,
    current_backend,
    get_backend,
    set_backend,
    use_backend,
)

DILATIONS = (1, 2, 4, 8)
STRIDES = (1, 2, 3)
KERNELS = (1, 3, 9)

# C_in != C_out, and T=13 is not divisible by strides 2 or 3.
N, C_IN, C_OUT, T = 2, 3, 4, 13

GRID = [(d, s, k) for d in DILATIONS for s in STRIDES for k in KERNELS]

# Every non-reference backend is held to the reference automatically;
# registering a new backend adds it to the whole differential grid.
FAST_BACKENDS = [name for name in available_backends() if name != "einsum"]

# Comparison tolerance follows the substrate precision: under
# REPRO_DTYPE=float32 every backend computes in single precision, so
# last-ulp disagreements are ~1e-6 on O(10) values.
from repro.autograd import get_default_dtype

if np.dtype(get_default_dtype()) == np.float64:
    TOL = dict(atol=1e-12)
else:
    TOL = dict(atol=1e-4, rtol=1e-4)


def _inputs(kernel, requires_grad=False, seed=0):
    rng = np.random.default_rng(seed + 100 * kernel)
    x = Tensor(rng.standard_normal((N, C_IN, T)), requires_grad=requires_grad)
    w = Tensor(rng.standard_normal((C_OUT, C_IN, kernel)),
               requires_grad=requires_grad)
    b = Tensor(rng.standard_normal(C_OUT), requires_grad=requires_grad)
    return x, w, b


def _run(backend, dilation, stride, kernel):
    """Forward + backward under one backend; returns output and gradients."""
    x, w, b = _inputs(kernel, requires_grad=True)
    out = conv1d_causal(x, w, b, dilation=dilation, stride=stride,
                        backend=backend)
    out.sum().backward()
    return out.data, x.grad, w.grad, b.grad


class TestForwardParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("dilation,stride,kernel", GRID)
    def test_matches_einsum(self, backend, dilation, stride, kernel):
        x, w, b = _inputs(kernel)
        ref = conv1d_causal(x, w, b, dilation=dilation, stride=stride,
                            backend="einsum")
        fast = conv1d_causal(x, w, b, dilation=dilation, stride=stride,
                             backend=backend)
        assert ref.shape == fast.shape
        assert np.allclose(ref.data, fast.data, **TOL)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_no_bias(self, backend):
        x, w, _ = _inputs(3)
        ref = conv1d_causal(x, w, dilation=2, backend="einsum")
        fast = conv1d_causal(x, w, dilation=2, backend=backend)
        assert np.allclose(ref.data, fast.data, **TOL)

    def test_all_registered_backends_agree(self):
        """Future backends are automatically held to the same contract."""
        x, w, b = _inputs(9)
        reference = conv1d_causal(x, w, b, dilation=4, stride=2,
                                  backend="einsum").data
        for name in available_backends():
            out = conv1d_causal(x, w, b, dilation=4, stride=2, backend=name)
            assert np.allclose(out.data, reference, **TOL), name


class TestGradientParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("dilation,stride,kernel", GRID)
    def test_all_gradients_match(self, backend, dilation, stride, kernel):
        _, gx_ref, gw_ref, gb_ref = _run("einsum", dilation, stride, kernel)
        _, gx, gw, gb = _run(backend, dilation, stride, kernel)
        assert np.allclose(gx, gx_ref, **TOL)
        assert np.allclose(gw, gw_ref, **TOL)
        assert np.allclose(gb, gb_ref, **TOL)

    @pytest.mark.parametrize("backend", ["im2col", "fft"])
    @pytest.mark.parametrize("dilation,stride,kernel",
                             [(1, 1, 1), (2, 1, 3), (4, 2, 3), (8, 3, 9),
                              (1, 3, 9), (2, 2, 9)])
    def test_fast_path_gradcheck(self, backend, dilation, stride, kernel):
        """The fast paths against finite differences, not just the reference."""
        x, w, b = _inputs(kernel, requires_grad=True, seed=7)
        check_gradients(
            lambda x, w, b: conv1d_causal(x, w, b, dilation=dilation,
                                          stride=stride, backend=backend),
            [x, w, b])


class TestStackedKernelParity:
    """The stacked (leading model axis) kernels against M per-model calls.

    Auto-discovers every registered backend, like the unstacked harness: a
    newly registered backend is covered by its inherited base-class loop
    until it provides batched kernels, and by this grid either way.
    """

    M = 3
    STACK_GRID = [(1, 1, 3), (2, 1, 9), (4, 2, 3), (2, 3, 9), (1, 2, 1)]

    def _stacked_inputs(self, kernel, requires_grad=False, seed=0):
        rng = np.random.default_rng(seed + 17 * kernel)
        x = Tensor(rng.standard_normal((self.M, N, C_IN, T)),
                   requires_grad=requires_grad)
        w = Tensor(rng.standard_normal((self.M, C_OUT, C_IN, kernel)),
                   requires_grad=requires_grad)
        b = Tensor(rng.standard_normal((self.M, C_OUT)),
                   requires_grad=requires_grad)
        return x, w, b

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("dilation,stride,kernel", STACK_GRID)
    def test_stacked_matches_per_model(self, backend, dilation, stride,
                                       kernel):
        from repro.autograd import conv1d_causal_stacked
        x, w, b = self._stacked_inputs(kernel, requires_grad=True)
        out = conv1d_causal_stacked(x, w, b, dilation=dilation, stride=stride,
                                    backend=backend)
        rng = np.random.default_rng(99)
        upstream = rng.standard_normal(out.shape)
        out.backward(upstream)
        for m in range(self.M):
            xm = Tensor(x.data[m], requires_grad=True)
            wm = Tensor(w.data[m], requires_grad=True)
            bm = Tensor(b.data[m], requires_grad=True)
            ref = conv1d_causal(xm, wm, bm, dilation=dilation, stride=stride,
                                backend="einsum")
            ref.backward(upstream[m])
            assert np.allclose(out.data[m], ref.data, **TOL), (backend, m)
            assert np.allclose(x.grad[m], xm.grad, **TOL), (backend, m)
            assert np.allclose(w.grad[m], wm.grad, **TOL), (backend, m)
            assert np.allclose(b.grad[m], bm.grad, **TOL), (backend, m)

    def test_base_class_loop_covers_unbatched_backends(self):
        """A backend that never heard of stacking still works: the
        ConvBackend base supplies per-model loop kernels."""
        from repro.autograd import conv1d_causal_stacked, register_backend
        from repro.autograd.backends import _REGISTRY, ConvBackend, EinsumBackend

        class MinimalBackend(ConvBackend):
            name = "minimal-test"
            _ref = EinsumBackend()

            def forward(self, xp, w, dilation, stride, t, scratch=None):
                return self._ref.forward(xp, w, dilation, stride, t)

            def grad_input(self, grad, w, xp_shape, dilation, stride, t,
                           scratch=None):
                return self._ref.grad_input(grad, w, xp_shape, dilation,
                                            stride, t)

            def grad_weight(self, grad, xp, w_shape, dilation, stride, t,
                            scratch=None):
                return self._ref.grad_weight(grad, xp, w_shape, dilation,
                                             stride, t)

        register_backend(MinimalBackend())
        try:
            x, w, b = self._stacked_inputs(3, requires_grad=True)
            out = conv1d_causal_stacked(x, w, b, dilation=2,
                                        backend="minimal-test")
            out.sum().backward()
            ref = conv1d_causal_stacked(
                Tensor(x.data, requires_grad=True),
                Tensor(w.data, requires_grad=True),
                Tensor(b.data, requires_grad=True), dilation=2,
                backend="einsum")
            assert np.allclose(out.data, ref.data, **TOL)
        finally:
            _REGISTRY.pop("minimal-test", None)

    def test_stacked_validates_shapes(self):
        from repro.autograd import conv1d_causal_stacked
        x, w, _ = self._stacked_inputs(3)
        with pytest.raises(ValueError, match="expected input"):
            conv1d_causal_stacked(Tensor(np.zeros((2, 3, 5))), w)
        with pytest.raises(ValueError, match="stack"):
            conv1d_causal_stacked(
                x, Tensor(np.zeros((self.M + 1, C_OUT, C_IN, 3))))


class TestBackendSelection:
    def test_default_honours_environment(self):
        # CI runs the suite twice: bare (einsum default) and with
        # REPRO_CONV_BACKEND=im2col steering every untagged conv call.
        expected = os.environ.get("REPRO_CONV_BACKEND") or "einsum"
        assert current_backend() == expected
        assert get_backend().name == expected

    def test_set_backend_round_trip(self):
        previous = current_backend()
        set_backend("im2col")
        try:
            assert current_backend() == "im2col"
            assert get_backend().name == "im2col"
        finally:
            set_backend(previous)

    def test_use_backend_restores_on_exit(self):
        previous = current_backend()
        with use_backend("im2col") as backend:
            assert backend.name == "im2col"
            assert current_backend() == "im2col"
        assert current_backend() == previous

    def test_use_backend_restores_on_error(self):
        previous = current_backend()
        with pytest.raises(RuntimeError):
            with use_backend("im2col"):
                raise RuntimeError("boom")
        assert current_backend() == previous

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown conv backend"):
            conv1d_causal(Tensor(np.zeros((1, 1, 4))),
                          Tensor(np.zeros((1, 1, 2))), backend="cudnn")
        with pytest.raises(ValueError):
            set_backend("not-a-backend")

    def test_bogus_env_var_does_not_crash_import(self):
        """A typo'd REPRO_CONV_BACKEND must fail at first use with a clear
        error, not at `import repro` (which would break even --help)."""
        import subprocess
        import sys
        script = (
            "import repro\n"
            "from repro.autograd import conv1d_causal, Tensor\n"
            "import numpy as np\n"
            "try:\n"
            "    conv1d_causal(Tensor(np.zeros((1, 1, 4))),\n"
            "                  Tensor(np.zeros((1, 1, 2))))\n"
            "except ValueError as exc:\n"
            "    assert 'im2coll' in str(exc), exc\n"
            "    print('LAZY-OK')\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "REPRO_CONV_BACKEND": "im2coll",
                 "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                            "..", "src")})
        assert proc.returncode == 0, proc.stderr
        assert "LAZY-OK" in proc.stdout

    def test_global_default_steers_untagged_calls(self):
        x, w, b = _inputs(3)
        ref = conv1d_causal(x, w, b, dilation=2).data
        with use_backend("im2col"):
            fast = conv1d_causal(x, w, b, dilation=2).data
        assert np.allclose(ref, fast, atol=1e-12)

    def test_backward_uses_forward_backend(self):
        """The tape captures the backend resolved at forward time."""
        x, w, b = _inputs(3, requires_grad=True)
        with use_backend("im2col"):
            out = conv1d_causal(x, w, b, dilation=2)
        # Default has switched back to einsum; backward must still succeed
        # and match the einsum-end-to-end gradients.
        out.sum().backward()
        _, gx_ref, gw_ref, gb_ref = _run("einsum", 2, 1, 3)
        assert np.allclose(x.grad, gx_ref, atol=1e-12)
        assert np.allclose(w.grad, gw_ref, atol=1e-12)
        assert np.allclose(b.grad, gb_ref, atol=1e-12)


class TestLegacyBackendSignature:
    def test_scratchless_backend_survives_compiled_replay(self):
        """Backends written against the pre-scratch kernel interface must
        keep working under the compiled step (they just allocate fresh
        buffers like eager dispatch does)."""
        from repro.autograd import register_backend
        from repro.autograd.backends import _REGISTRY, EinsumBackend
        from repro.autograd.graph import CompileConfig
        from repro.core.trainer import make_training_step
        from repro.nn import CausalConv1d, GlobalAvgPool1d, Linear, Sequential
        from repro.nn.losses import mse_loss

        class LegacyBackend(EinsumBackend):
            name = "legacy-test"

            def forward(self, xp, w, dilation, stride, t):
                return super().forward(xp, w, dilation, stride, t)

            def grad_input(self, grad, w, xp_shape, dilation, stride, t):
                return super().grad_input(grad, w, xp_shape, dilation,
                                          stride, t)

            def grad_weight(self, grad, xp, w_shape, dilation, stride, t):
                return super().grad_weight(grad, xp, w_shape, dilation,
                                           stride, t)

        register_backend(LegacyBackend())
        try:
            rng = np.random.default_rng(0)
            model = Sequential(
                CausalConv1d(2, 3, kernel_size=3, rng=rng,
                             backend="legacy-test"),
                GlobalAvgPool1d(), Linear(3, 1, rng=rng))
            step = make_training_step(
                model, mse_loss, compile_config=CompileConfig(
                    compile_step=True, graph_opt="default"))
            x, y = rng.standard_normal((2, 2, 12)), rng.standard_normal((2, 1))
            first = step(x, y)    # trace (eager kernels, no scratch)
            second = step(x, y)   # replay goes through the scratch path
            assert step.fallback_reason is None
            # No parameter updates between calls: replay == trace exactly.
            assert first == second
        finally:
            _REGISTRY.pop("legacy-test", None)


class TestLayerIntegration:
    def test_causal_conv_layer_backend_parity(self):
        from repro.nn import CausalConv1d
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, C_IN, T))
        outs = {}
        for name in available_backends():
            layer = CausalConv1d(C_IN, C_OUT, 5, dilation=2, stride=2,
                                 rng=np.random.default_rng(11), backend=name)
            assert layer.backend == name
            outs[name] = layer(Tensor(x)).data
        for name in available_backends():
            assert np.allclose(outs["einsum"], outs[name], **TOL), name

    def test_pit_conv_layer_backend_parity(self):
        from repro.core import PITConv1d
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, C_IN, T))
        outs = {}
        for name in ("einsum", "im2col"):
            layer = PITConv1d(C_IN, C_OUT, rf_max=9,
                              rng=np.random.default_rng(13), backend=name)
            outs[name] = layer(Tensor(x)).data
        assert np.allclose(outs["einsum"], outs["im2col"], atol=1e-12)

    def test_export_propagates_backend(self):
        from repro.core import PITConv1d
        from repro.core.export import export_conv
        layer = PITConv1d(2, 2, rf_max=5, rng=np.random.default_rng(0),
                          backend="im2col")
        assert export_conv(layer).backend == "im2col"
