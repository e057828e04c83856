"""Replay executor: run a captured training step without building a graph.

:class:`CompiledStep` wraps a step function ``step_fn(x, y) -> (loss, ...)``
(tensors in, tensors out).  The first call per input shape *traces*: the
step runs eagerly under a :class:`GraphCapture` — producing real losses and
gradients — and is frozen into a :class:`GraphProgram`.  The program is then
rewritten by the optimization pass pipeline (:mod:`.passes`: constant
folding, dead-node elimination, op fusion, liveness-planned buffer reuse)
unless ``optimize="none"``, and lowered to one specialized generated
Python function (:mod:`.codegen`).  Every later call with that shape
*replays* that function on slot-local numpy buffers, with

* no ``Tensor`` objects, no parent tuples, no per-op bookkeeping;
* no topological sort — the backward schedule was precomputed from the same
  topo order the eager engine uses;
* preallocated gradient buffers and a shared forward buffer *arena*
  (liveness-disjoint intermediates reuse one buffer; safe ops write over a
  dying input in place), so steady-state replay performs no arena
  allocations — :attr:`CompiledStep.alloc_stats` proves it.

Because replay invokes the *same* kernels in the *same* order on the same
values as eager execution would — fused regions run their member kernels
inline, folded constants were produced by those very kernels at trace
time — results (losses, every parameter gradient, entire training
trajectories) are bit-identical to eager mode; the executor, pass and
codegen parity suites under ``tests/`` lock this.

Shape changes (e.g. a short final batch) transparently re-trace: programs
are cached per ``(x.shape, y.shape, default dtype)``, so each distinct
signature pays one eager step and replays thereafter — and the re-trace
reuses the compiled code object from the process-wide codegen cache,
which also serves same-architecture steps across DSE points.  Captures
that fail — legacy closure ops, value-dependent control flow announced via
``mark_capture_unsafe`` — and programs that fail to lower poison the step
permanently and it runs eagerly, which is always correct; see
:attr:`CompiledStep.fallback_reason` and :attr:`CompiledStep.exec_fallbacks`.

A ``CompiledStep`` is single-threaded (per-replay scratch lives in the
program nodes); concurrent trainers — e.g. parallel DSE workers — each
compile their own step.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor, get_default_dtype, no_grad
from .capture import capture
from .ir import GraphCaptureError, GraphProgram, build_program
from .passes import OPT_LEVELS, FusedOp, OptStats, optimize_program

__all__ = [
    "CompiledStep",
    "EagerStep",
]


def _scalarize(array: np.ndarray) -> Union[float, np.ndarray]:
    return float(array) if array.size == 1 else np.array(array, copy=True)


class EagerStep:
    """Uniform step interface over plain eager execution.

    ``step(x, y)`` builds input tensors, runs the step function, calls
    ``backward()`` on its first output (leaving ``.grad`` populated), and
    returns the outputs as floats/arrays — the exact contract of
    :class:`CompiledStep`, so trainers can hold either interchangeably.
    With ``backward=False`` the step runs under ``no_grad`` and only
    evaluates (validation).
    """

    def __init__(self, step_fn: Callable, backward: bool = True):
        self.step_fn = step_fn
        self.backward = backward

    def __call__(self, x, y) -> Tuple:
        with nullcontext() if self.backward else no_grad():
            outs = self.step_fn(Tensor(x), Tensor(y))
        outs = outs if isinstance(outs, tuple) else (outs,)
        if self.backward:
            outs[0].backward()
        return tuple(_scalarize(o.data) for o in outs)


# Forward-plan entry kinds (first tuple element): the call shape the
# lowering emits for each node.
_K_FWD, _K_OUT, _K_SCRATCH, _K_INPLACE, _K_FUSED = range(5)


class _ProgramRunner:
    """One :class:`GraphProgram`, lowered to a generated replay function.

    Construction flattens the program into plain-tuple *plans* and
    allocates all per-replay scratch once — gradient buffers, the forward
    buffer arena, op scratch dicts.  When the program carries a memory plan
    (optimizer on), ``fwd_out``-capable ops write into liveness-shared
    arena buffers or, for planner-approved in-place ops, straight over a
    dying input.  :func:`.codegen.lower_program` then emits the plans as
    one specialized function bound to those very buffers, and ``run`` *is*
    that function: replay dispatches straight into it, no wrapper frame.
    Lowering errors propagate; :class:`CompiledStep` turns them into its
    eager fallback.
    """

    def __init__(self, program: GraphProgram):
        self.program = program
        # Gradient buffers: one per slot that receives gradients, allocated
        # once from the traced shapes and reused for every replay.
        meta = program.slot_meta
        self.grad_bufs = {slot: np.empty(*meta[slot])
                          for slot in program.grad_slots}
        plan = program.mem_plan
        self.arena = ([np.empty(shape, dtype) for shape, dtype in plan.buffers]
                      if plan is not None else [])

        fwd_plan = []
        for idx, node in enumerate(program.schedule):
            op = node.op
            if type(op) is FusedOp:
                fwd_plan.append((_K_FUSED, None, None, node.in_slots,
                                 node.out_slot, node, None))
            elif plan is not None and idx in plan.inplace:
                fwd_plan.append((_K_INPLACE, op.fwd_out, node.attrs,
                                 node.in_slots, node.out_slot, node,
                                 plan.inplace[idx]))
            elif op.fwd_out is not None:
                if plan is not None and idx in plan.out_buffer:
                    buf = self.arena[plan.out_buffer[idx]]
                else:
                    buf = np.empty(*meta[node.out_slot])
                fwd_plan.append((_K_OUT, op.fwd_out, node.attrs,
                                 node.in_slots, node.out_slot, node, buf))
            elif op.fwd_scratch is not None:
                fwd_plan.append((_K_SCRATCH, op.fwd_scratch, node.attrs,
                                 node.in_slots, node.out_slot, node, {}))
            else:
                fwd_plan.append((_K_FWD, op.fwd, node.attrs,
                                 node.in_slots, node.out_slot, node, None))
        self._fwd_plan = fwd_plan
        # Steps whose op has a scratch-aware backward get a persistent
        # work-buffer dict (conv adjoints, reduction broadcasts).  A fused
        # step has no kernel of its own: lowering unrolls its bwd_plan.
        self._bwd_plan = []
        for step in program.backward_steps:
            node = step.node
            op = node.op
            fn = None if type(op) is FusedOp else op.bwd_scratch or op.bwd
            self._bwd_plan.append(
                (fn, node.attrs, node.in_slots, node.out_slot, node,
                 step.needs, step.acc,
                 {} if op.bwd_scratch is not None else None))
        self._out_plan = [(slot, int(np.prod(meta[slot][0], dtype=np.int64)) == 1)
                          for slot in program.output_slots]
        # Looked up as a module attribute at call time, so a wrapper
        # installed on ``codegen.lower_program`` sees every lowering.
        from . import codegen
        self.run, self.source = codegen.lower_program(self)

    # ------------------------------------------------------------------
    def persistent_buffers(self) -> int:
        """Count of long-lived replay buffers (arena, grads, op scratch).

        Re-counted on demand; a steady-state replay must not grow it —
        ``CompiledStep.alloc_stats`` exposes the delta between calls.
        The fused chains' copy buffers are preallocated by the lowering,
        which reports their count as ``_n_lowered_bufs``.
        """
        count = len(self.arena) + len(self.grad_bufs) + self._n_lowered_bufs
        for kind, _fn, _attrs, _ins, _out, node, extra in self._fwd_plan:
            if kind == _K_OUT:
                count += 1
            elif kind == _K_SCRATCH:   # plain op scratch (e.g. conv xp)
                count += len(extra)
            elif kind == _K_FUSED:
                op = node.op
                for skind, _f, _a, _g, sextra in op._fwd_plan:
                    if skind == FusedOp._F_OUT:
                        count += 1
                    elif skind == FusedOp._F_SCRATCH:
                        count += len(sextra)
                for entry in op.bwd_plan:
                    if entry[-1] is not None:
                        count += len(entry[-1])
        for *_rest, scratch in self._bwd_plan:
            if scratch is not None:
                count += len(scratch)
        return count


class CompiledStep:
    """Trace a training step once per input shape, then replay it.

    Parameters
    ----------
    step_fn:
        ``step_fn(x, y) -> Tensor | tuple`` building loss (first output)
        from input tensors.  It must construct its graph from module
        parameters, inline constants and the given inputs only; anything
        value-dependent must call
        :func:`repro.autograd.mark_capture_unsafe`, which turns this step
        into a permanent (correct) eager fallback.
    optimize:
        Graph-optimization level applied to each traced program:
        ``"default"`` (fold/DCE/fuse + memory planning — bit-identical,
        faster) or ``"none"`` (replay the trace verbatim, the reference
        the passes' own tests compare against).
    backward:
        False captures a *forward-only* step (validation): traced and
        replayed under ``no_grad``, with no backward schedule and no
        gradient writes — the same capture, passes and lowering.

    Calls return the step outputs as floats (scalars) / arrays, with
    parameter ``.grad`` populated — the same contract as
    :class:`EagerStep`.
    """

    def __init__(self, step_fn: Callable, optimize: str = "default",
                 backward: bool = True):
        if optimize not in OPT_LEVELS:
            raise ValueError(f"unknown graph optimization level "
                             f"{optimize!r}; choose from {OPT_LEVELS}")
        self.step_fn = step_fn
        self.backward = backward
        self.optimize = optimize
        self._runners: Dict[Tuple, _ProgramRunner] = {}
        self._opt_stats: Dict[Tuple, OptStats] = {}
        self._buffer_mark: Optional[int] = None
        self._eager = EagerStep(step_fn, backward)  # fallback, built once
        self.fallback_reason: Optional[str] = None
        # Per-program lowering failures: key -> why that program did not
        # lower (the step then runs eagerly, see fallback_reason).
        self.exec_fallbacks: Dict[Tuple, str] = {}

    # ------------------------------------------------------------------
    @property
    def compiled_shapes(self) -> Tuple[Tuple, ...]:
        """Input-shape keys with a compiled program (introspection/tests)."""
        return tuple(self._runners)

    @property
    def opt_stats(self) -> Dict[Tuple, Dict[str, int]]:
        """Per-shape pass-pipeline statistics (folded/removed/fused/...)."""
        return {key: stats.as_dict() for key, stats in self._opt_stats.items()}

    @property
    def alloc_stats(self) -> Dict[str, int]:
        """Replay allocation accounting across all compiled shapes.

        ``persistent_buffers`` counts every long-lived buffer (gradient
        buffers, the forward arena, fused/conv scratch);
        ``steady_state_growth`` is the change since the previous
        ``alloc_stats`` read — after a warm-up replay per shape it must be
        zero, which is the "replay allocates nothing" guarantee the perf
        smoke asserts.
        """
        stats = {
            "programs": len(self._runners),
            "arena_buffers": 0,
            "arena_bytes": 0,
            "grad_buffers": 0,
            "inplace_ops": 0,
            "persistent_buffers": 0,
        }
        for key, runner in self._runners.items():
            plan = runner.program.mem_plan
            if plan is not None:
                stats["arena_buffers"] += len(plan.buffers)
                stats["arena_bytes"] += plan.arena_bytes
                stats["inplace_ops"] += len(plan.inplace)
            stats["grad_buffers"] += len(runner.grad_bufs)
            stats["persistent_buffers"] += runner.persistent_buffers()
        previous = self._buffer_mark
        self._buffer_mark = stats["persistent_buffers"]
        stats["steady_state_growth"] = (0 if previous is None
                                        else stats["persistent_buffers"] - previous)
        return stats

    def dump_source(self) -> Dict[Tuple, str]:
        """Generated source per compiled program.

        Keys match :attr:`compiled_shapes`.  The text is the exact code the
        step replays — diffable across runs, greppable for dispatch
        regressions, pasteable into a repro script.
        """
        return {key: runner.source for key, runner in self._runners.items()}

    def diagnostics(self) -> Dict[str, object]:
        """One JSON-able report of what compilation did (CLI ``--verbose``).

        Bundles the optimization level, the eager fallback and per-program
        lowering failures, the pass-pipeline statistics, the allocation
        accounting (note: reading it re-arms the steady-state marker, like
        :attr:`alloc_stats`), and the process-wide codegen cache counters.
        """
        from .codegen import codegen_cache_stats
        return {
            "optimize": self.optimize,
            "fallback_reason": self.fallback_reason,
            "exec_fallbacks": {str(key): reason
                               for key, reason in self.exec_fallbacks.items()},
            "opt_stats": {str(key): stats
                          for key, stats in self.opt_stats.items()},
            "alloc_stats": self.alloc_stats,
            "codegen_cache": codegen_cache_stats(),
        }

    def __call__(self, x, y) -> Tuple:
        if self.fallback_reason is not None:
            return self._eager(x, y)
        x = np.asarray(x)
        y = np.asarray(y)
        # Programs are cached per (shapes, dtype): a short final batch
        # re-traces once per shape, and a set_default_dtype() flip re-traces
        # instead of silently replaying at the stale trace dtype.  The conv
        # backend is deliberately *not* in the key — a program keeps its
        # trace-time kernels (locked by the executor parity suite).  Re-trace
        # cost is amortized further by the codegen source cache, which
        # reuses compiled code objects across shapes, dtypes and
        # same-architecture steps (DSE points) within the process.
        runner = self._runners.get((x.shape, y.shape, get_default_dtype()))
        if runner is not None:
            return runner.run((x, y))
        return self._trace(x, y)

    # ------------------------------------------------------------------
    def _trace(self, x: np.ndarray, y: np.ndarray) -> Tuple:
        """Run one step eagerly under capture; freeze it if possible.

        The traced execution is itself a valid step (real loss, real
        gradients), so tracing never wastes a batch — and a failed capture
        simply leaves its eager results as the step's results.  The frozen
        program is optimized and lowered before its first replay; a
        program that fails to lower sends the step to its eager rung, the
        reason recorded per key in :attr:`exec_fallbacks` — never raised
        to the training loop.
        """
        with capture() as tracer:
            tx, ty = Tensor(x), Tensor(y)
            tracer.add_input(tx)
            tracer.add_input(ty)
            with nullcontext() if self.backward else no_grad():
                outs = self.step_fn(tx, ty)
            outs = outs if isinstance(outs, tuple) else (outs,)
            if self.backward:
                outs[0].backward()
        values = tuple(_scalarize(o.data) for o in outs)
        if tracer.failure is not None:
            self.fallback_reason = tracer.failure
            return values
        try:
            program = build_program(tracer, outs[0], outs)
        except GraphCaptureError as exc:
            self.fallback_reason = str(exc)
            return values
        key = (x.shape, y.shape, get_default_dtype())
        self._opt_stats[key] = optimize_program(program, self.optimize)
        try:
            self._runners[key] = _ProgramRunner(program)
        except Exception as exc:  # lowering must never break training
            reason = f"{type(exc).__name__}: {exc}"
            self.exec_fallbacks[key] = reason
            self.fallback_reason = f"program failed to lower: {reason}"
        return values
