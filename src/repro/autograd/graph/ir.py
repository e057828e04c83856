"""Static IR of one captured training step.

A captured program is a *flat schedule*, not a pointer graph: tensors become
integer **slots**, ops become :class:`OpNode` entries in execution order, and
the backward pass becomes a precomputed list of :class:`BackwardStep` entries
derived from the same topological sort the eager engine uses — so a replay
performs exactly the eager computation, minus all Python graph construction.

Slots fall into three classes:

* **leaves** — tensors the step did not create: parameters, inline constants
  (mask coefficient vectors, frozen masks, scalar literals).  They are bound
  *by tensor reference* and re-read on every replay, so in-place parameter
  updates by the optimizer are always visible.
* **inputs** — the step's batch arrays, rebound on every call.
* **op outputs** — one slot per recorded node, recomputed each replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class OpNode:
    """One recorded op dispatch: kind + static attrs + slot wiring.

    ``ctx`` holds the *latest replay's* forward byproduct (e.g. a conv's
    padded input) for consumption by the matching backward step; it is
    overwritten on every run, which is why a program runner is not
    thread-safe (each thread compiles its own step).
    """

    __slots__ = ("op", "in_slots", "out_slot", "attrs", "ctx")

    def __init__(self, op, in_slots: Tuple[int, ...], out_slot: int, attrs: Dict):
        self.op = op
        self.in_slots = in_slots
        self.out_slot = out_slot
        self.attrs = attrs
        self.ctx = None

    def __repr__(self) -> str:
        return f"OpNode({self.op.name}, in={self.in_slots}, out={self.out_slot})"


class BackwardStep:
    """One entry of the backward schedule.

    ``acc[i]`` describes where the gradient for parent ``i`` goes: None for
    parents that need no gradient, else ``(slot, first, sole)`` where
    ``first`` marks the overall first contribution into that slot (an
    overwrite; later contributions accumulate) — the same zero-then-add
    order the eager engine produces — and ``sole`` marks slots with exactly
    one contribution in the whole schedule, letting the runner *adopt* a
    fresh kernel-owned gradient array instead of copying it into the slot
    buffer.
    """

    __slots__ = ("node", "needs", "acc")

    def __init__(self, node: OpNode, needs: Tuple[bool, ...],
                 acc: Tuple[Optional[Tuple[int, bool, bool]], ...]):
        self.node = node
        self.needs = needs
        self.acc = acc


class GraphCaptureError(RuntimeError):
    """A traced step cannot be turned into a replayable program."""


class LoopNode:
    """A symbolic loop over a captured subgraph (the Dr.Jit recorded-loop idea).

    ``body`` is the :class:`GraphProgram` of one training batch; the loop
    replays it once per ``(x, y)`` pair of an epoch.  ``epilogue`` is an
    optional second program shape-specialized for a ragged final batch, so
    a short tail replays compiled instead of falling back to eager.

    State crosses iterations as **data**, never as Python objects:

    * ``carried`` maps a role name (``"params"``, ``"adam_m"``,
      ``"adam_v"``, ``"step_t"``, ``"bn_stats"``, ``"active"``,
      ``"early_stop"``) to the list of numpy arrays carried across
      iterations.  Body leaves alias these arrays directly — the program's
      leaf slots double as the loop-carried slots, re-read each iteration.
    * ``updates`` lists the post-batch optimizer writes
      (:class:`~repro.optim.kernels.UpdateKernelSpec`) plus an optional
      gradient-clip entry; they mutate carried arrays in place between
      body replays.
    * ``trip`` describes the data-driven trip condition: the loop runs
      over however many batch pairs the caller binds at run time (plus the
      epilogue pair, when present) — the count is an input, not a constant
      baked into the program.
    """

    __slots__ = ("body", "epilogue", "updates", "carried", "trip")

    def __init__(self, body: "GraphProgram", epilogue: Optional["GraphProgram"],
                 updates: List, carried: Dict[str, List[np.ndarray]],
                 trip: str = "epoch-batches"):
        self.body = body
        self.epilogue = epilogue
        self.updates = updates
        self.carried = carried
        self.trip = trip

    def __repr__(self) -> str:
        n_carried = sum(len(v) for v in self.carried.values())
        return (f"LoopNode(trip={self.trip!r}, updates={len(self.updates)}, "
                f"carried={n_carried}, epilogue={self.epilogue is not None})")


def epoch_program(loop: "LoopNode", dtype) -> "GraphProgram":
    """Wrap a :class:`LoopNode` as a single-node :class:`GraphProgram`.

    The resulting program's schedule is exactly ``[loop]``: one whole
    training epoch (or PIT phase) as one replayable program.  It has no
    slots of its own — all state lives in the loop's carried arrays and
    the bodies' leaves.
    """
    return GraphProgram(
        n_slots=0, schedule=[loop], backward_steps=[], leaves=[],
        input_slots=[], output_slots=[], root_slot=-1, grad_leaves=[],
        slot_meta={}, grad_slots=set(), dtype=dtype)


class GraphProgram:
    """The finalized IR of one (forward + backward) training step."""

    __slots__ = ("n_slots", "schedule", "backward_steps", "leaves",
                 "input_slots", "output_slots", "root_slot", "grad_leaves",
                 "slot_meta", "grad_slots", "dtype", "mem_plan")

    def __init__(self, n_slots: int, schedule: List, backward_steps: List[BackwardStep],
                 leaves: List[Tuple[int, object]], input_slots: List[int],
                 output_slots: List[int], root_slot: int,
                 grad_leaves: List[Tuple[int, object]],
                 slot_meta: Dict[int, Tuple[Tuple[int, ...], np.dtype]],
                 grad_slots, dtype):
        self.n_slots = n_slots
        self.schedule = schedule              # OpNode (epoch: LoopNode), in order
        self.backward_steps = backward_steps  # reverse-topo order
        self.leaves = leaves                  # (slot, Tensor) — re-read each replay
        self.input_slots = input_slots
        self.output_slots = output_slots
        self.root_slot = root_slot
        self.grad_leaves = grad_leaves        # (slot, Tensor) — .grad targets
        self.slot_meta = slot_meta            # slot -> (shape, dtype), every slot
        self.grad_slots = grad_slots          # slots receiving gradient buffers
        self.dtype = dtype                    # default dtype at capture time
        self.mem_plan = None                  # set by the optimizer passes

    def __repr__(self) -> str:
        ops = sum(1 for n in self.schedule if isinstance(n, OpNode))
        return (f"GraphProgram(ops={ops}, "
                f"backward_steps={len(self.backward_steps)}, "
                f"leaves={len(self.leaves)})")


def build_program(tracer, loss, outputs) -> GraphProgram:
    """Freeze a :class:`GraphCapture` into a :class:`GraphProgram`.

    ``loss`` is the differentiated output (the backward root); ``outputs``
    are all tensors the step returns.  Raises :class:`GraphCaptureError`
    when the trace is not self-contained (e.g. the step consumed a graph
    tensor built before the capture started).
    """
    from ..tensor import _topo_sort, get_default_dtype

    slot_of = tracer.slot_of
    tensors = tracer.tensors

    node_by_slot = {node.out_slot: node for node in tracer.records}

    leaves: List[Tuple[int, object]] = []
    for slot, t in enumerate(tensors):
        if slot in node_by_slot:
            continue
        if t._op is not None or t._backward is not None:
            raise GraphCaptureError(
                "the step consumed a graph tensor created outside the "
                "capture; compiled steps must build their graph from "
                "leaves and batch inputs only")
        leaves.append((slot, t))

    root_slot = slot_of.get(id(loss))
    if root_slot is None or root_slot not in node_by_slot:
        raise GraphCaptureError("the loss tensor was not produced by a recorded op")

    # Backward schedule: same topological order as eager backward, same
    # per-parent accumulation order — gradient sums are bit-identical.  A
    # loss that requires no grad (a forward-only capture under no_grad)
    # yields an empty schedule and no gradient slots.
    touched = {root_slot} if loss.requires_grad else set()
    contributions: Dict[int, int] = {}
    raw_steps = []
    for t in reversed(_topo_sort(loss)):
        if t._op is None:
            continue  # leaves carry no backward of their own
        slot = slot_of.get(id(t))
        if slot is None:
            raise GraphCaptureError("a graph node is missing from the capture")
        if slot not in touched:
            continue
        node = node_by_slot[slot]
        needs = tuple(p.requires_grad for p in t._parents)
        targets: List[Optional[Tuple[int, bool]]] = []
        for parent, need in zip(t._parents, needs):
            if not need:
                targets.append(None)
                continue
            pslot = slot_of.get(id(parent))
            if pslot is None:
                raise GraphCaptureError("a graph parent is missing from the capture")
            targets.append((pslot, pslot not in touched))
            touched.add(pslot)
            contributions[pslot] = contributions.get(pslot, 0) + 1
        raw_steps.append((node, needs, targets))
    steps = [
        BackwardStep(node, needs, tuple(
            None if target is None
            else (target[0], target[1], contributions[target[0]] == 1)
            for target in targets))
        for node, needs, targets in raw_steps]

    output_slots = []
    for out in outputs:
        slot = slot_of.get(id(out))
        if slot is None:
            raise GraphCaptureError("a step output was not recorded by the capture")
        output_slots.append(slot)

    grad_leaves = [(slot, t) for slot, t in leaves
                   if t.requires_grad and slot in touched]
    # Shapes/dtypes of every slot: the memory planner sizes forward buffers
    # from these; ``touched`` (separately) names the slots that need
    # gradient buffers.
    slot_meta = {slot: (t.data.shape, t.data.dtype)
                 for slot, t in enumerate(tensors)}

    return GraphProgram(
        n_slots=len(tensors),
        schedule=list(tracer.records),
        backward_steps=steps,
        leaves=leaves,
        input_slots=list(tracer.input_slots),
        output_slots=output_slots,
        root_slot=root_slot,
        grad_leaves=grad_leaves,
        slot_meta=slot_meta,
        grad_slots=set(touched),
        dtype=get_default_dtype(),
    )
