"""Graph-capture executor: trace a training step once, replay it flat.

Eager autograd rebuilds the op graph in Python for every batch.  For the
static networks of this reproduction (TCNs, PIT supernets, unrolled RNNs)
that graph is identical batch after batch, so this subsystem records it
once, optimizes it, and replays it as generated code:

* :class:`GraphCapture` — thread-local tracer observing every
  :func:`repro.autograd.apply_op` dispatch during one eager step;
* :mod:`~repro.autograd.graph.ir` — the frozen program: topo-ordered nodes
  carrying op kind, static attrs (including the conv backend handle
  resolved at trace time) and input/output buffer slots;
* :mod:`~repro.autograd.graph.passes` — the optimization pipeline run on
  every captured program: constant folding, dead-node elimination,
  contiguous-chain op fusion and liveness-planned buffer reuse, all
  bit-identical to the unoptimized replay;
* :mod:`~repro.autograd.graph.codegen` — source lowering: each optimized
  program becomes one specialized generated Python function, served from
  a process-wide code cache;
* :class:`CompiledStep` — the replay executor: per-shape program cache,
  preallocated gradient buffers and forward arena, bit-identical results,
  automatic eager fallback for anything value-dependent or unlowerable.

The subsystem also captures the *loop around* the step:
:class:`CompiledEpoch` closes a compiled batch body, the optimizer's
update kernels and the clip kernel into a :class:`LoopNode`, replaying a
whole training epoch (or PIT phase) as one generated function with a real
``for`` loop.

Entry point for training code: a :class:`CompileConfig` passed as
``compile_config=`` to any trainer / search layer.  Compiled training
with loop capture is on by default; ``CompileConfig(compile_step=False)``
or ``REPRO_COMPILE_STEP=0`` opts out to eager, the reference tier and the
last fallback rung.
"""

from .capture import GraphCapture, capture
from .executor import CompiledStep, EagerStep
from .codegen import LoweringError, codegen_cache_stats, recorded_sources
from .config import ENV_COMPILE, CompileConfig, compile_step_default
from .ir import (GraphCaptureError, GraphProgram, LoopNode, build_program,
                 epoch_program)
from .loop import CompiledEpoch
from .passes import OptStats, loop_carried_safety, optimize_program

__all__ = [
    "GraphCapture",
    "GraphCaptureError",
    "GraphProgram",
    "LoopNode",
    "CompiledStep",
    "CompiledEpoch",
    "CompileConfig",
    "EagerStep",
    "LoweringError",
    "build_program",
    "epoch_program",
    "capture",
    "compile_step_default",
    "codegen_cache_stats",
    "recorded_sources",
    "optimize_program",
    "loop_carried_safety",
    "OptStats",
    "ENV_COMPILE",
]
