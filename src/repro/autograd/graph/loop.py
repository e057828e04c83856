"""Whole-loop capture: replay a full training epoch as one program.

:class:`CompiledStep` removes per-batch graph construction but still
returns to Python between batches — optimizer stepping, gradient clipping
and loss accounting run eagerly around every replay, capping its wins at
per-batch dispatch.  :class:`CompiledEpoch` closes that loop: it records
the step's compiled batch body, the optimizer's update kernels
(:meth:`~repro.optim.optimizers.Optimizer.capture_updates`) and the clip
kernel into a :class:`~repro.autograd.graph.ir.LoopNode` over the epoch's
preloaded batch arrays, wraps it as a single-node epoch
:class:`~repro.autograd.graph.ir.GraphProgram`, and replays the whole
epoch through one call: one generated function whose body is a real
``for`` loop (:func:`repro.autograd.graph.codegen.lower_epoch`).

State crosses iterations as data: parameter storage, Adam moments, the
0-d step counters, BN running stats and the stacked trainer's ``active``
mask are loop-carried arrays mutated in place, exactly as the eager path
mutates them — so a replayed epoch is bit-identical to driving the same
step per batch, which is itself bit-identical to eager execution.

**First-epoch replay.**  No epoch runs eagerly end to end.  The first
epoch of a batch signature *drives* only the batch that traces the body
(one eager optimizer step), builds the loop runner at once and replays the
rest of that same epoch through it.  A ragged tail whose epilogue is not
traced yet is driven last, which traces it; the next epoch's runner then
carries the epilogue.  State is shared by reference, so switching from the
driven step to the loop mid-epoch changes no bit, and the epoch's loss
total continues from the driven batch's partial sum in eager order.
:attr:`CompiledEpoch.driven_epochs` counts the epochs that traced (or fell
back); :attr:`CompiledEpoch.replayed_epochs` those that ran entirely
through a loop runner.

**Fallback ladder** (never worse than the level below):

1. *loop* — every condition met: compiled step, shape-uniform batches
   (one ragged tail allowed — it gets its own shape-specialized epilogue
   body), a capture-aware optimizer, loop-carried-safe memory plans.
2. *step* — any loop-level failure (:attr:`CompiledEpoch.
   loop_fallback_reason`) degrades to driving the compiled step per
   batch, and a signature whose epoch program fails to lower drives per
   step too (:attr:`CompiledEpoch.exec_fallbacks`).  Loop problems never
   poison the step.
3. *eager* — only a failure inside the step itself (a capture failure
   such as ``mark_capture_unsafe`` or foreign graph tensors, or a step
   program that fails to lower) reaches eager, via
   ``CompiledStep.fallback_reason``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor import get_default_dtype
from . import codegen
from .executor import CompiledStep
from .ir import GraphProgram, LoopNode, epoch_program
from .passes import loop_carried_safety

__all__ = ["CompiledEpoch"]


class _LoopRunner:
    """One :class:`LoopNode`, lowered to a generated epoch function.

    :func:`.codegen.lower_epoch` emits the epoch loop as a real ``for``
    loop: the body replay once per batch pair, then the post-batch updates
    — clip kernel over the grad-leaf gradients (read fresh each batch:
    replay may *adopt* a new gradient array) and the optimizer's update
    kernels in eager ``step()`` order — adding each batch's task loss to
    the running total.  Hyperparameters are hoisted once per call, so
    between-epoch scheduler ``set_lr`` calls stay visible.  Lowering
    errors propagate; :class:`CompiledEpoch` drives that signature per
    step instead.
    """

    def __init__(self, loop: LoopNode, program: GraphProgram,
                 body_runner, tail_runner, specs, clip_params,
                 grad_clip: Optional[float], clip_kernel,
                 vector_m: Optional[int], acc_index: int):
        self.loop = loop
        self.program = program
        self.body_runner = body_runner
        self.tail_runner = tail_runner
        self.specs = specs
        self.clip_params = clip_params
        self.grad_clip = grad_clip
        self.clip_kernel = clip_kernel
        self.vector_m = vector_m
        self.acc_index = acc_index
        # The generated ``run(bodies, tail)`` takes its starting total
        # through this one-slot list bound in its closure.
        self._start: list = []
        self._run, self.source = codegen.lower_epoch(self)

    def run(self, bodies: Sequence[Tuple], tail: Optional[Tuple], total):
        """Replay ``bodies`` (and ``tail``) adding each batch's task loss
        to ``total`` (0.0, ``np.zeros(M)``, or the partial sum of batches
        driven earlier in the same epoch); returns the new total."""
        self._start.append(total)
        return self._run(bodies, tail)


class CompiledEpoch:
    """Drive a training phase's epochs, replaying each as one loop program.

    Parameters
    ----------
    step:
        The phase's batch runner (:class:`CompiledStep` or
        :class:`~repro.autograd.graph.executor.EagerStep`) with the usual
        ``step(x, y) -> (loss, task, ...)`` contract.
    optimizer:
        The phase's optimizer.  Loop replay requires
        ``optimizer.capture_updates`` (duck-typed so this module never
        imports :mod:`repro.optim`); anything else drives per step.
    grad_clip / clip_fn / clip_kernel:
        Max gradient norm (None disables clipping), the eager clip callable
        ``clip_fn(params, max_norm)`` used while driving, and the
        array-level kernel ``clip_kernel(grads, max_norm)`` recorded into
        the loop (:func:`repro.optim.kernels.clip_grads` or its stacked
        variant).
    vector_m:
        None for scalar task losses; the stack width M when the step's
        task output is a per-model vector (stacked trainer) — accumulation
        then matches the eager ``np.zeros(M)`` + ``+=`` exactly.

    An epoch program that fails to lower drives its signature per step
    (one rung down), the reason recorded in :attr:`exec_fallbacks`.

    ``run_batches(batches)`` returns the epoch's mean task loss, exactly
    like the eager per-batch loop it replaces.  The first epoch per batch
    signature drives only its tracing batch (and an untraced ragged tail)
    through the step and replays everything else; later epochs replay
    entirely.
    """

    def __init__(self, step, optimizer, grad_clip: Optional[float] = None,
                 clip_fn: Optional[Callable] = None,
                 clip_kernel: Optional[Callable] = None,
                 vector_m: Optional[int] = None,
                 acc_index: int = 1):
        self.step = step
        self.optimizer = optimizer
        self.grad_clip = grad_clip
        self.clip_fn = clip_fn
        self.clip_kernel = clip_kernel
        self.vector_m = vector_m
        self.acc_index = acc_index
        self.loop_fallback_reason: Optional[str] = None
        self._disabled = False
        self.exec_fallbacks: Dict[Tuple, str] = {}
        self._runners: Dict[Tuple, _LoopRunner] = {}
        self.replayed_epochs = 0
        self.driven_epochs = 0

    # ------------------------------------------------------------------
    @property
    def loop_nodes(self) -> Dict[Tuple, LoopNode]:
        """Built loop nodes per (body, tail) signature (introspection)."""
        return {key: runner.loop for key, runner in self._runners.items()}

    @property
    def epoch_programs(self) -> Dict[Tuple, GraphProgram]:
        """The single-node epoch programs actually replayed."""
        return {key: runner.program for key, runner in self._runners.items()}

    def dump_source(self) -> Dict[Tuple, str]:
        """Generated epoch source per signature."""
        return {key: runner.source for key, runner in self._runners.items()}

    def diagnostics(self) -> Dict[str, object]:
        """JSON-able report of what whole-loop capture did (picklable)."""
        return {
            "replayed_epochs": self.replayed_epochs,
            "driven_epochs": self.driven_epochs,
            "loop_fallback_reason": self.loop_fallback_reason,
            "exec_fallbacks": {str(key): reason
                               for key, reason in self.exec_fallbacks.items()},
            "loops": {str(key): repr(node)
                      for key, node in self.loop_nodes.items()},
        }

    # ------------------------------------------------------------------
    def run_epoch(self, loader):
        """One epoch over a loader; materializes the batch list first.

        ``list(loader)`` consumes exactly one loader iteration, so the
        shuffling RNG stream is identical to the eager ``for x, y in
        loader`` loop.
        """
        return self.run_batches(list(loader))

    def run_batches(self, batches: List[Tuple]):
        if not batches:
            raise ValueError("training loader produced no batches")
        total = 0.0 if self.vector_m is None else np.zeros(self.vector_m)
        signature = self._signature(batches)
        if signature is None:
            self.driven_epochs += 1
            return self._drive(batches, total) / len(batches)
        body_key, tail_key = signature
        bodies = batches[:-1] if tail_key else batches
        tail = batches[-1] if tail_key else None
        traced = self.step._runners
        driven = body_key not in traced
        if driven:
            # The first batch traces the body (one eager step); the loop
            # takes over from the second.
            total = self._drive(bodies[:1], total)
            bodies = bodies[1:]
        late_tail = None
        if tail is not None and tail_key not in traced:
            # Driven after the loop, which traces the epilogue; this
            # epoch's runner carries no tail.
            driven = True
            late_tail, tail = tail, None
        if bodies or tail is not None:
            runner = self._runner(body_key,
                                  tail_key if tail is not None else None,
                                  keep=late_tail is None)
            if runner is None:
                driven = True
                rest = bodies + ([tail] if tail is not None else [])
                total = self._drive(rest, total)
            else:
                # One zero_grad per replay, not per batch: replay
                # republishes every grad-leaf gradient before anything
                # reads it, and clearing here keeps optimizer params
                # outside the program at grad=None — the exact membership
                # the eager per-batch zero_grad produces.
                self.optimizer.zero_grad()
                total = runner.run(bodies, tail, total)
        if late_tail is not None:
            total = self._drive([late_tail], total)
        if driven:
            self.driven_epochs += 1
        else:
            self.replayed_epochs += 1
        return total / len(batches)

    # ------------------------------------------------------------------
    def _drive(self, batches: List[Tuple], total):
        """The per-step ladder rung: replica of the eager batch loop.

        Adds each batch's task loss to ``total`` and returns it, so a
        driven prefix and a replayed remainder sum in eager order.
        """
        step = self.step
        optimizer = self.optimizer
        grad_clip = self.grad_clip
        clip_fn = self.clip_fn
        acc = self.acc_index
        scalar = self.vector_m is None
        for x, y in batches:
            optimizer.zero_grad()
            outs = step(x, y)
            if grad_clip is not None:
                clip_fn(optimizer.params, grad_clip)
            optimizer.step()
            total += outs[acc] if scalar else np.asarray(outs[acc])
        return total

    # ------------------------------------------------------------------
    def _reject(self, reason: str, permanent: bool) -> None:
        self.loop_fallback_reason = reason
        if permanent:
            self._disabled = True

    def _loop_ready(self) -> bool:
        """False (rejecting for good) when this phase can never loop."""
        if self._disabled:
            return False
        step = self.step
        if not isinstance(step, CompiledStep):
            self._reject("step is not compiled", permanent=True)
            return False
        if step.fallback_reason is not None:
            # The step itself cannot capture (e.g. mark_capture_unsafe):
            # rung 3 is the step's own business; the loop layer just
            # stops trying.
            self._reject(f"step fell back to eager: {step.fallback_reason}",
                         permanent=True)
            return False
        if getattr(self.optimizer, "capture_updates", None) is None:
            self._reject(
                f"optimizer {type(self.optimizer).__name__} has no "
                "capture_updates", permanent=True)
            return False
        if self.grad_clip is not None and self.clip_kernel is None:
            self._reject("grad clipping requested without a clip kernel",
                         permanent=True)
            return False
        return True

    def _signature(self, batches: List[Tuple]):
        """``(body_key, tail_key)`` step-cache keys of this epoch, or None.

        None means "drive this whole epoch per step" — either permanently
        (:attr:`loop_fallback_reason`, ladder rung 2) or because the
        interior batches do not share one shape.
        """
        if not self._loop_ready():
            return None
        dtype = get_default_dtype()
        shapes = [(np.asarray(x).shape, np.asarray(y).shape)
                  for x, y in batches]
        body_shape = shapes[0]
        if any(s != body_shape for s in shapes[:-1]):
            self._reject("interior batches are not shape-uniform",
                         permanent=False)
            return None
        has_tail = len(batches) > 1 and shapes[-1] != body_shape
        return body_shape + (dtype,), (shapes[-1] + (dtype,)
                                       if has_tail else None)

    def _runner(self, body_key, tail_key, keep: bool):
        """The loop runner for a traced signature, built on first use.

        ``keep=False`` builds a stand-in that is not cached: the tail-less
        runner replaying a first epoch whose ragged tail is still untraced.
        None drives the epoch per step: the loop cannot capture, or this
        signature's epoch program failed to lower (never retried).
        """
        key = (body_key, tail_key)
        runner = self._runners.get(key)
        if runner is None and key not in self.exec_fallbacks \
                and self._loop_ready():
            runner = self._build_runner(key, body_key, tail_key)
            if runner is not None and keep:
                self._runners[key] = runner
        return runner

    def _build_runner(self, key, body_key, tail_key) -> Optional[_LoopRunner]:
        step = self.step
        body_runner = step._runners[body_key]
        tail_runner = step._runners[tail_key] if tail_key else None
        body_prog = body_runner.program
        tail_prog = tail_runner.program if tail_runner is not None else None

        for prog, name in ((body_prog, "body"), (tail_prog, "epilogue")):
            if prog is None:
                continue
            reason = loop_carried_safety(prog)
            if reason is not None:
                self._reject(f"{name} program: {reason}", permanent=True)
                return None
        leaf_ids = {id(t) for _, t in body_prog.grad_leaves}
        if tail_prog is not None and \
                {id(t) for _, t in tail_prog.grad_leaves} != leaf_ids:
            self._reject("epilogue grad leaves differ from body grad leaves",
                         permanent=True)
            return None

        specs = self.optimizer.capture_updates(leaf_ids)
        # Loop-carried state can be repacked: the update set is fixed for
        # the whole phase, so the optimizer may coalesce same-group params
        # into flat buffers — one update kernel call per group per batch.
        flatten = getattr(self.optimizer, "flatten_updates", None)
        if flatten is not None:
            specs = flatten(specs)
        clip_params = [p for p in self.optimizer.params if id(p) in leaf_ids]

        carried: Dict[str, List[np.ndarray]] = {
            "params": [s.param.data for s in specs],
            "opt_state": [a for s in specs for a in s.state
                          if a is not None],
            "leaves": [t.data for slot, t in body_prog.leaves
                       if id(t) not in leaf_ids],
        }
        loop = LoopNode(body=body_prog, epilogue=tail_prog, updates=specs,
                        carried=carried)
        program = epoch_program(loop, body_prog.dtype)

        try:
            return _LoopRunner(loop, program, body_runner, tail_runner, specs,
                               clip_params, self.grad_clip, self.clip_kernel,
                               self.vector_m, self.acc_index)
        except Exception as exc:  # lowering must never break training
            self.exec_fallbacks[key] = f"{type(exc).__name__}: {exc}"
            return None
