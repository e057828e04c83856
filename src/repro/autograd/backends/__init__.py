"""Pluggable numerical backends for the causal dilated convolution.

The hot path of every network in this reproduction is
:func:`repro.autograd.conv1d_causal`; this package lets its numerical
kernels be swapped without touching the autograd tape:

* ``"einsum"`` — the per-tap einsum reference implementation (default);
* ``"im2col"`` — a single-GEMM ``as_strided`` lowering (the fast path).

Selection, in decreasing precedence:

1. the ``backend=`` argument of ``conv1d_causal`` (and of the conv
   layers / ``PITConv1d``, which forward it);
2. the process-wide default set by :func:`set_backend` or the
   :func:`use_backend` context manager;
3. the ``REPRO_CONV_BACKEND`` environment variable, read once at import;
4. ``"einsum"``.

All backends are numerically interchangeable — the differential harness
``tests/test_backends_parity.py`` locks every registered backend to the
reference on forward values and all gradients.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, Iterator, List, Optional

from .base import ConvBackend, conv_out_length
from .einsum_backend import EinsumBackend
from .im2col_backend import Im2colBackend

__all__ = [
    "ConvBackend",
    "EinsumBackend",
    "Im2colBackend",
    "conv_out_length",
    "available_backends",
    "register_backend",
    "get_backend",
    "set_backend",
    "current_backend",
    "use_backend",
]

DEFAULT_BACKEND = "einsum"
ENV_VAR = "REPRO_CONV_BACKEND"

_REGISTRY: Dict[str, ConvBackend] = {}


def register_backend(backend: ConvBackend) -> ConvBackend:
    """Add a backend instance to the registry (keyed by ``backend.name``)."""
    if not backend.name or backend.name == "abstract":
        raise ValueError("backend must define a concrete .name")
    _REGISTRY[backend.name] = backend
    return backend


register_backend(EinsumBackend())
register_backend(Im2colBackend())


def available_backends() -> List[str]:
    """Names of all registered conv backends."""
    return sorted(_REGISTRY)


def _resolve_name(name: str) -> str:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown conv backend {name!r}; available: {available_backends()}")
    return name


# A mistyped REPRO_CONV_BACKEND is deliberately NOT validated here: this
# module is imported by `import repro`, and failing at import time would
# crash even `repro.cli --help`.  The name is checked on first use
# (get_backend), where the error can surface with context.
_ACTIVE = os.environ.get(ENV_VAR) or DEFAULT_BACKEND

# Per-thread override (set by use_backend), consulted before the process
# default.  Thread-local for the same reason no_grad is: concurrent
# trainings — e.g. parallel DSE grid points — must be able to scope a
# backend without mutating what other threads resolve mid-graph.
_TLS = threading.local()


def set_backend(name: str) -> None:
    """Set the process-wide default conv backend."""
    global _ACTIVE
    _ACTIVE = _resolve_name(name)


def current_backend() -> str:
    """Name of the active conv backend: the calling thread's
    :func:`use_backend` override if one is in effect, else the process
    default.

    The process default may be an unvalidated ``REPRO_CONV_BACKEND``
    value until the first conv call or :func:`set_backend` checks it.
    """
    return getattr(_TLS, "override", None) or _ACTIVE


def get_backend(name: Optional[str] = None) -> ConvBackend:
    """Resolve a backend instance: explicit ``name`` or the active default."""
    return _REGISTRY[_resolve_name(name if name is not None else current_backend())]


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[ConvBackend]:
    """Scope the default backend for the calling thread (restored on exit).

    Other threads are unaffected, so concurrent trainings can each pin
    their own backend.
    """
    name = _resolve_name(name)
    previous = getattr(_TLS, "override", None)
    _TLS.override = name
    try:
        yield _REGISTRY[name]
    finally:
        _TLS.override = previous
