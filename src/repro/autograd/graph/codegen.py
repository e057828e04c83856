"""Source lowering: one generated function per program.

Every optimized :class:`~repro.autograd.graph.ir.GraphProgram` replays as
**straight-line Python source**, compiled once — the way Myia lowers its
tapeless adjoint.  The executor's step runner
(:class:`~repro.autograd.graph.executor._ProgramRunner`) flattens a
program into plan tuples and preallocates its buffers; this module emits
those plans as one specialized function, which *is* the runner's replay.

In the generated function

* slots become local variables (``v17``), so there is no slot table;
* op kernels become closure-bound callables (``k3``) called directly — no
  dict dispatch, no per-node attribute lookups, no kind compare;
* fused chains, arena buffers, scratch dicts and gradient buffers are
  preallocated objects bound into the closure (``b3`` / ``s3`` / ``G12``),
  so the zero-steady-state-allocation guarantee of the memory planner is
  preserved bit for bit;
* the precomputed backward schedule is unrolled in source order, each
  gradient route one call of a routing helper that carries the
  adopt-or-copy discipline (``_ad`` / ``_cp`` / ``_ac``); and
* stateful ops (dropout draws, BatchNorm's running-statistics update) are
  ordinary kernel calls, so they fire exactly where the schedule recorded
  them.

**Compact emission.**  ``compile()`` cost grows with the text, so the
text is kept small: the closure is one tuple unpacked in a single line
(each distinct kernel, attrs dict or needs tuple bound once, however many
ops share it), an op is one call line with its dtype guard (``_as``)
beside it, a value an op writes into an out-buffer or over a dying input
is read through that name rather than copied to a new local, a gradient
route is one line, and the body is indented by two spaces
(``tests/test_graph_codegen.py`` holds the TEMPONet seed's three PIT step
programs to a size budget).

Because the source invokes the *same* kernels, in the *same* order, with
the same dtype coercions and the same gradient-accumulation routing as
eager autograd, results are bit-identical to eager execution
(``tests/test_graph_codegen.py`` and the executor parity suites lock it).

**Artifact reuse.**  The emitted source depends only on program *structure*
(op kinds, slot wiring, accumulation routes) — every value-like thing
(shapes, dtypes, weights, attrs, buffers) is bound through the closure.  Two
structurally identical programs therefore emit identical source, and a
process-wide code cache keyed by that source text means a per-shape re-trace
(short final batch), a dtype flip, or the next same-architecture DSE point
inside a worker compiles **once** and reuses the code object
(:func:`codegen_cache_stats` counts the hits).

Lowering never risks correctness: any failure to emit, compile or bind
raises :class:`LoweringError` (or anything else), and the caller drops one
rung — :class:`~repro.autograd.graph.executor.CompiledStep` to eager,
:class:`~repro.autograd.graph.loop.CompiledEpoch` to per-step driving —
recording the reason in its ``exec_fallbacks``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from .executor import _K_FUSED, _K_INPLACE, _K_OUT, _K_SCRATCH
from .ir import GraphProgram
from .passes import FusedOp

__all__ = [
    "LoweringError",
    "lower_program",
    "lower_epoch",
    "codegen_cache_stats",
    "clear_code_cache",
    "recorded_sources",
]


class LoweringError(RuntimeError):
    """An optimized program could not be lowered to generated source."""


# Process-wide compiled-code cache.  Keyed by the generated source text —
# which *is* the program's structural signature (shapes/dtypes/backends and
# all other values live in the closure, never in the text) — so per-shape
# re-traces and same-architecture DSE points within a worker compile once.
_CODE_CACHE: Dict[str, object] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0

# Recently generated sources, for post-hoc inspection from code that never
# held the CompiledStep (CLI --dump-graph-source after a training run).
_RECORDED_LIMIT = 64
_RECORDED: "OrderedDict[str, str]" = OrderedDict()
_RECORDED_COUNT = 0


def codegen_cache_stats() -> Dict[str, int]:
    """Process-wide code-cache accounting: entries / hits / misses.

    A hit means a program reused an already-compiled code object — the
    expected steady state for per-shape re-traces and for every DSE grid
    point after the first within a worker.
    """
    return {"entries": len(_CODE_CACHE), "hits": _CACHE_HITS,
            "misses": _CACHE_MISSES}


def clear_code_cache() -> None:
    """Drop cached code objects and counters (test isolation)."""
    global _CACHE_HITS, _CACHE_MISSES, _RECORDED_COUNT
    _CODE_CACHE.clear()
    _RECORDED.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
    _RECORDED_COUNT = 0


def recorded_sources() -> Dict[str, str]:
    """Label → source of recently lowered programs in this process.

    Labels carry a monotonic index, the program summary and its input
    shapes.  Bounded to the most recent programs; meant for diagnostics
    (``cli train --dump-graph-source``), not as an API contract.
    """
    return dict(_RECORDED)


def _record_source(program: GraphProgram, source: str) -> None:
    global _RECORDED_COUNT
    shapes = tuple(program.slot_meta[s][0] for s in program.input_slots)
    label = f"{_RECORDED_COUNT:03d} {program!r} inputs={shapes}"
    _RECORDED_COUNT += 1
    _RECORDED[label] = source
    while len(_RECORDED) > _RECORDED_LIMIT:
        _RECORDED.popitem(last=False)


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

# Gradient routing helpers, bound into every step closure.  Each is one
# route of the runner's adopt-or-copy discipline as a call, so a route
# costs one short line of generated text.

def _adopt(t, cur, gsrc, buf):
    """First and sole contribution: adopt a fresh kernel-owned array,
    else normalize it into ``buf``; ``None`` keeps ``cur``."""
    if t is None:
        return cur
    if t.base is None and t is not gsrc and t.dtype == buf.dtype:
        return t
    return np.add(t, 0.0, out=buf)


def _copy(t, cur, buf):
    """First of several contributions: ``0.0 + t`` into ``buf``."""
    return cur if t is None else np.add(t, 0.0, out=buf)


def _accumulate(t, g):
    """A later contribution: accumulate in place."""
    if t is not None:
        g += t
    return g


def _dealias(t, a, b, buf):
    """A fused external gradient that aliases the chain's gradient
    source or the previous external gradient is copied into ``buf``."""
    if t is not None and (t is a or t is b):
        np.copyto(buf, t)
        return buf
    return t


class _Closure:
    """The closure environment of one generated function.

    Every value-like object gets a short name; objects bound twice share
    one name (identity, or an explicit value ``key`` for immutable
    tuples), so the text stays small and still encodes structure only.
    """

    def __init__(self):
        self.names: List[str] = []
        self.values: List[object] = []
        self._taken = set()
        self._shared: Dict[object, str] = {}
        self._counts: Dict[str, int] = {}

    def fixed(self, name: str, value) -> str:
        if name in self._taken:
            raise LoweringError(f"closure name collision: {name}")
        self._taken.add(name)
        self.names.append(name)
        self.values.append(value)
        return name

    def ref(self, prefix: str, value, key=None) -> str:
        key = ("id", id(value)) if key is None else key
        name = self._shared.get(key)
        if name is None:
            n = self._counts.get(prefix, 0)
            self._counts[prefix] = n + 1
            name = self._shared[key] = self.fixed(f"{prefix}{n}", value)
        return name

    def count(self, prefix: str) -> int:
        """How many distinct values were bound under ``prefix``."""
        return self._counts.get(prefix, 0)

    def source(self, signature: str, body: List[str]) -> str:
        """``_factory(C)`` unpacking the closure tuple ``C`` into cells
        and returning the generated function."""
        return "\n".join(
            ["def _factory(C):", " " + ", ".join(self.names) + ", = C",
             f" def {signature}:"]
            + ["  " + line for line in body] + [" return run", ""])


def _emit_fused_forward(i: int, op: FusedOp, ext, out_slot: int, dtype,
                        env: _Closure, val: Dict[int, str],
                        interior: Dict[Tuple[int, int], str], emit) -> None:
    """Unroll one fused chain's forward into the body.

    The member kernels run in recorded order, each result coerced to the
    program dtype as eager dispatch would, with the gather indices
    resolved into argument lists at lowering time and interior values
    named in ``interior`` (locals, or the out-buffer itself) for the
    unrolled backward to read.
    """
    def arg(k: int) -> str:
        return val[ext[k]] if k >= 0 else interior[(i, ~k)]

    last = len(op._fwd_plan) - 1
    for j, (skind, sfn, sattrs, gather, sextra) in enumerate(op._fwd_plan):
        call = (f"{env.ref('k', sfn)}([{', '.join(map(arg, gather))}], "
                f"{env.ref('a', sattrs)}")
        if skind == FusedOp._F_OUT:
            buf = env.ref("b", sextra)
            emit(f"c{i}_{j} = {call}, {buf})")
            interior[(i, j)] = buf
        elif skind in (FusedOp._F_FWD, FusedOp._F_SCRATCH):
            if skind == FusedOp._F_SCRATCH:
                call += f", {env.ref('s', sextra)}"
            emit(f"o, c{i}_{j} = {call}); u{i}_{j} = _as(o, _dt)")
            interior[(i, j)] = f"u{i}_{j}"
        else:
            raise LoweringError(f"unknown fused forward kind {skind}")
    val[out_slot] = interior[(i, last)]
    # The fused node's own dtype coercion is a no-op except when the chain
    # ends in a preallocated out-buffer of a non-program dtype.
    lkind, _lfn, _lattrs, _lgather, lextra = op._fwd_plan[last]
    if lkind == FusedOp._F_OUT and lextra.dtype != dtype:
        emit(f"v{out_slot} = _as({val[out_slot]}, _dt)")
        val[out_slot] = f"v{out_slot}"


def _emit_fused_backward(i: int, op: FusedOp, ext, gsrc: str, acc,
                         slot_meta, env: _Closure, val: Dict[int, str],
                         interior: Dict[Tuple[int, int], str], route_grad,
                         emit) -> None:
    """Unroll one fused chain's backward into the body.

    The member backward kernels replay in their original backward-schedule
    order (``FusedOp.bwd_plan``) with every plan constant folded into the
    text: interior grads become locals (``h{i}_{p}``, unbound reading as
    ``None``) normalized by the same adopt-or-copy discipline as slot
    gradients into preallocated closure arrays, and each external gradient
    is routed into its slot immediately, in the order the unfused
    accumulation loop would have processed it.
    """
    def arg(k: int) -> str:
        return val[ext[k]] if k >= 0 else interior[(i, ~k)]

    last = len(op.sub) - 1
    bound = set()
    fidx = 0
    for m, (pos, sfn, sattrs, gather, sneeds, int_routes, ext_routes,
            sscratch) in enumerate(op.bwd_plan):
        gname = gsrc if pos == last else (
            f"h{i}_{pos}" if pos in bound else "None")
        call = (f"{env.ref('k', sfn)}({gname}, "
                f"[{', '.join(map(arg, gather))}], {interior[(i, pos)]}, "
                f"c{i}_{pos}, {env.ref('a', sattrs)}, "
                f"{env.ref('n', sneeds, key=('n', sneeds))}")
        if sscratch is not None:
            call += f", {env.ref('z', sscratch)}"
        emit(f"r = {call})")
        # Interior gradients: adopt-or-copy with the first/sole flags and
        # copy buffers resolved at lowering time.
        for gidx, target, first, sole, rdtype, rshape in int_routes:
            hname = f"h{i}_{target}"
            if not first:
                emit(f"{hname} = _ac(r[{gidx}], "
                     f"{hname if target in bound else 'None'})")
                continue
            ib = env.ref("I", np.empty(rshape, rdtype))
            if sole:
                emit(f"{hname} = _ad(r[{gidx}], None, {gname}, {ib})")
            else:
                emit(f"{hname} = _cp(r[{gidx}], None, {ib})")
            bound.add(target)
        # External gradients: de-alias (never hand one array to two
        # accumulation targets, nor the sub-step's own gradient source —
        # a slot may adopt it, and an alias such as add's (g, g)
        # passthrough would let one slot scribble over another), then
        # route into the slot straight away.
        single = len(ext_routes) == 1
        if not single and ext_routes:
            emit("p = None")
        for gidx in ext_routes:
            target = acc[fidx]
            fidx += 1
            k = gather[gidx]
            if k < 0:
                raise LoweringError(
                    f"external grad route {m}/{gidx} reads interior slot")
            shape, sdtype = slot_meta[ext[k]]
            xb = env.ref("X", np.empty(shape, sdtype))
            emit(f"t = _xa(r[{gidx}], {gname}, "
                 f"{gname if single else 'p'}, {xb})")
            if not single:
                emit("if t is not None: p = t")
            route_grad(target, "t", gsrc)
    if fidx != len(acc):
        raise LoweringError(
            f"fused backward routed {fidx} external grads, expected "
            f"{len(acc)}")


def _step_helpers(env: _Closure, dtype) -> None:
    """Fixed helpers every step function reads: bound as closure cells
    so the generated body needs no globals and no builtins."""
    env.fixed("_as", np.asarray)
    env.fixed("_float", float)
    env.fixed("_nparray", np.array)
    env.fixed("_dt", dtype)
    env.fixed("_ad", _adopt)
    env.fixed("_cp", _copy)
    env.fixed("_ac", _accumulate)
    env.fixed("_xa", _dealias)


def _emit(runner) -> Tuple[str, Tuple, int]:
    """Lower one runner's plans into (source, closure tuple, buffer count).

    The source defines ``_factory(C)`` which unpacks the closure tuple
    ``C`` into cells and returns the specialized ``run(inputs)``.
    Everything value-like goes through ``C``; the text encodes structure
    only.  The buffer count is the number of preallocated fused-chain
    copy buffers (see ``_ProgramRunner.persistent_buffers``).

    Value names: slot ``s`` is ``v{s}`` when the body computes it, or the
    closure name of the out-buffer an op writes it into; forward-op
    contexts are ``c{i}``; slot gradients are ``g{s}`` (their persistent
    buffers are closure names ``G…``).  The dtype guard mirrors the ``Tensor()`` coercion of eager
    dispatch: ``np.asarray`` returns a program-dtype array itself.
    """
    program = runner.program
    env = _Closure()
    _step_helpers(env, program.dtype)
    body: List[str] = []
    emit = body.append
    val: Dict[int, str] = {}

    # -- leaves: re-read by tensor reference every call (the optimizer
    # swaps / mutates parameter storage between steps).  The step inputs
    # are rebound below, so their leaf entries are skipped.
    inputs = set(program.input_slots)
    for slot, t in program.leaves:
        if slot not in inputs:
            emit(f"v{slot} = {env.ref('L', t)}.data")
            val[slot] = f"v{slot}"

    # -- batch inputs: rebound per call, coerced to the trace dtype.
    for j, slot in enumerate(program.input_slots):
        emit(f"v{slot} = inputs[{j}]")
        emit(f"if v{slot}.dtype != _dt: v{slot} = v{slot}.astype(_dt)")
        val[slot] = f"v{slot}"

    # -- forward sweep, in recorded order.  Each fused
    # chain is unrolled into the body from its FusedOp plans, with
    # interior values shared straight into the unrolled backward — no ctx
    # tuples are ever built for a fused node.
    ctx_name: Dict[int, str] = {}
    fused_chain: Dict[int, int] = {}      # id(node) -> fwd plan index
    interior: Dict[Tuple[int, int], str] = {}
    for i, (kind, fn, attrs, in_slots, out_slot, node, extra) \
            in enumerate(runner._fwd_plan):
        if kind == _K_FUSED:
            _emit_fused_forward(i, node.op, in_slots, out_slot,
                                program.dtype, env, val, interior, emit)
            fused_chain[id(node)] = i
            continue
        ctx_name[id(node)] = f"c{i}"
        ins = ", ".join(val[s] for s in in_slots)
        call = f"{env.ref('k', fn)}([{ins}], {env.ref('a', attrs)}"
        if kind == _K_OUT:
            buf = env.ref("b", extra)
            emit(f"c{i} = {call}, {buf})")
            val[out_slot] = buf
        elif kind == _K_INPLACE:
            # Planner-approved: overwrite the dying input in place.
            buf = val[in_slots[extra]]
            emit(f"c{i} = {call}, {buf})")
            val[out_slot] = buf
        else:
            if kind == _K_SCRATCH:
                call += f", {env.ref('s', extra)}"
            emit(f"o, c{i} = {call}); v{out_slot} = _as(o, _dt)")
            val[out_slot] = f"v{out_slot}"

    # -- backward sweep: unrolled precomputed schedule.  A slot's gradient
    # local is first bound by its first route (or, if read before any
    # route, to its persistent buffer) — the runner's grad_bufs
    # binding, as a local.
    bound = set()

    def buf(slot: int) -> str:
        return env.ref("G", runner.grad_bufs[slot], key=("G", slot))

    def grad(slot: int) -> str:
        if slot not in bound:
            emit(f"g{slot} = {buf(slot)}")
            bound.add(slot)
        return f"g{slot}"

    if runner._bwd_plan:
        emit(f"{grad(program.root_slot)}.fill(1.0)")

    def route_grad(target, expr: str, gsrc: str) -> None:
        """Route one gradient with the runner's adopt-or-copy discipline,
        the first/sole flags folded into the choice of helper."""
        slot, first, sole = target
        if not first:
            emit(f"g{slot} = _ac({expr}, {grad(slot)})")
            return
        g = buf(slot)
        if sole:
            emit(f"g{slot} = _ad({expr}, {g}, {gsrc}, {g})")
        else:
            emit(f"g{slot} = _cp({expr}, {g}, {g})")
        bound.add(slot)

    for i, (bwd, attrs, in_slots, out_slot, node, needs, acc, scratch) \
            in enumerate(runner._bwd_plan):
        gsrc = grad(out_slot)
        if type(node.op) is FusedOp:
            fi = fused_chain.get(id(node))
            if fi is None:
                raise LoweringError(
                    f"fused backward step {i} has no inlined forward "
                    f"(node {node!r})")
            _emit_fused_backward(fi, node.op, in_slots, gsrc, acc,
                                 program.slot_meta, env, val, interior,
                                 route_grad, emit)
            continue
        ctx = ctx_name.get(id(node))
        if ctx is None:
            raise LoweringError(
                f"backward step {i} has no forward ctx (node {node!r})")
        ins = ", ".join(val[s] for s in in_slots)
        call = (f"{env.ref('k', bwd)}({gsrc}, [{ins}], {val[out_slot]}, "
                f"{ctx}, {env.ref('a', attrs)}, "
                f"{env.ref('n', needs, key=('n', needs))}")
        if scratch is not None:
            call += f", {env.ref('z', scratch)}"
        emit(f"r = {call})")
        for k, target in enumerate(acc):
            if target is not None:
                route_grad(target, f"r[{k}]", gsrc)

    # -- publish leaf gradients.
    for slot, t in program.grad_leaves:
        emit(f"{env.ref('L', t)}.grad = {grad(slot)}")

    # -- outputs: same scalarization as eager (EagerStep).
    outs = ", ".join(
        f"_float({val[slot]})" if scalar
        else f"_nparray({val[slot]}, copy=True)"
        for slot, scalar in runner._out_plan)
    emit(f"return ({outs},)" if len(runner._out_plan) == 1
         else f"return ({outs})")
    return (env.source("run(inputs)", body), tuple(env.values),
            env.count("I") + env.count("X"))


def _load(source: str, closure: Tuple, filename: str):
    """Compile ``source`` (or reuse the cached code object) and bind it."""
    global _CACHE_HITS, _CACHE_MISSES
    code = _CODE_CACHE.get(source)
    if code is None:
        _CACHE_MISSES += 1
        code = compile(source, filename, "exec")
        _CODE_CACHE[source] = code
    else:
        _CACHE_HITS += 1
    namespace: Dict[str, object] = {"__builtins__": {}}
    exec(code, namespace)
    return namespace["_factory"](closure)


def lower_program(runner):
    """Compile a runner's plans into a specialized ``run(inputs)`` callable.

    Returns ``(run, source)``.  The code object is served from the
    process-wide cache when an identically structured program was lowered
    before; only the closure binding (``_factory(C)``) runs per program.
    """
    source, closure, nbufs = _emit(runner)
    run = _load(source, closure, "<repro-graph-codegen>")
    # The inlined fused chains own preallocated copy buffers in the
    # closure; expose their count so ``persistent_buffers`` /
    # ``alloc_stats`` account for them.
    runner._n_lowered_bufs = nbufs
    _record_source(runner.program, source)
    return run, source


# ----------------------------------------------------------------------
# Epoch lowering: a LoopNode as a real `for` loop in generated source
# ----------------------------------------------------------------------

def _emit_epoch(runner) -> Tuple[str, Tuple]:
    """Lower one epoch loop runner into (source text, closure tuple).

    The generated function is the whole-epoch hot path: a real ``for``
    loop over the batch pairs calling the (already lowered) body function,
    with the clip kernel and every optimizer update kernel emitted inline
    after it — no trainer Python between batches.  It adds each batch's
    task loss to the starting total the runner hands over in the
    one-slot list ``_start`` and returns the sum.  As with
    per-step lowering, the text encodes structure only (spec count, state
    arity, group wiring, clip membership, tail presence); params, kernels,
    state arrays and the body callables all bind through the closure, so
    structurally identical phases share one code object.
    """
    env = _Closure()
    env.fixed("_start", runner._start)
    env.fixed("_body", runner.body_runner.run)
    has_tail = runner.tail_runner is not None
    if has_tail:
        env.fixed("_tail", runner.tail_runner.run)

    # Hyperparameter groups, deduplicated by identity: hoisted once per
    # call so between-epoch scheduler set_lr calls stay visible.
    prologue: List[str] = []
    groups: Dict[int, str] = {}
    for spec in runner.specs:
        if id(spec.group) not in groups:
            h = groups[id(spec.group)] = f"h{len(groups)}"
            prologue.append(f"{h} = {env.ref('y', spec.hyper)}("
                            f"{env.ref('G', spec.group)})")

    # The per-batch update block, emitted twice (loop body + tail).
    updates: List[str] = []
    if runner.grad_clip is not None:
        grads = ", ".join(f"{env.ref('c', p)}.grad"
                          for p in runner.clip_params)
        updates.append(f"{env.fixed('_clip', runner.clip_kernel)}("
                       f"[{grads}], {env.fixed('_mn', runner.grad_clip)})")
    for spec in runner.specs:
        p = env.ref("p", spec.param)
        if hasattr(spec.param, "resync"):
            # Flat-packed param: re-adopt any member storage rebound
            # between epochs before replaying against the pack.
            prologue.append(f"{p}.resync()")
        state = "".join(f"{env.ref('s', a)}, " for a in spec.state)
        updates.append(f"{env.ref('k', spec.kernel)}({p}.data, {p}.grad, "
                       f"{state}*{groups[id(spec.group)]})")

    acc = runner.acc_index
    if runner.vector_m is None:
        accumulate = f"total += o[{acc}]"
    else:
        env.fixed("_as", np.asarray)
        accumulate = f"total += _as(o[{acc}])"

    body = ["total = _start.pop()"] + prologue + ["for pair in bodies:",
                                                  " o = _body(pair)"]
    body += [" " + line for line in updates] + [" " + accumulate]
    if has_tail:
        body += ["o = _tail(tail)"] + updates + [accumulate]
    body.append("return total")
    return env.source("run(bodies, tail)", body), tuple(env.values)


def lower_epoch(runner):
    """Compile an epoch loop runner into a ``run(bodies, tail)`` callable.

    Returns ``(run, source)``; the code object is served from the same
    process-wide cache as per-step programs (the epoch text is its own
    structural signature).
    """
    source, closure = _emit_epoch(runner)
    run = _load(source, closure, "<repro-graph-codegen-epoch>")
    _record_source(runner.program, source)
    return run, source
