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
  bit-identical to the unoptimized replay (``REPRO_GRAPH_OPT=none`` turns
  it off);
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

Entry points for training code: a :class:`CompileConfig` passed as
``compile_config=`` to any trainer / search layer, the ``--compile`` /
``--graph-opt`` / ``--loop-capture`` CLI flags, or the
``REPRO_COMPILE_STEP`` / ``REPRO_GRAPH_OPT`` / ``REPRO_LOOP_CAPTURE``
environment defaults.
"""

from .capture import GraphCapture, capture
from .executor import ENV_COMPILE, CompiledStep, EagerStep, compile_step_default
from .codegen import LoweringError, codegen_cache_stats, recorded_sources
from .config import ENV_LOOP_CAPTURE, CompileConfig, loop_capture_default
from .ir import (GraphCaptureError, GraphProgram, LoopNode, build_program,
                 epoch_program)
from .loop import CompiledEpoch
from .passes import (
    ENV_GRAPH_OPT,
    OPT_LEVELS,
    OptStats,
    graph_opt_default,
    loop_carried_safety,
    optimize_program,
    resolve_graph_opt,
)

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
    "graph_opt_default",
    "resolve_graph_opt",
    "loop_capture_default",
    "loop_carried_safety",
    "OptStats",
    "ENV_COMPILE",
    "ENV_GRAPH_OPT",
    "ENV_LOOP_CAPTURE",
    "OPT_LEVELS",
]
