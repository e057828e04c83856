"""Perf smoke: whole-loop (epoch) capture vs per-step codegen replay.

Marked ``perf`` and skipped in the tier-1 run; enable with::

    REPRO_RUN_PERF=1 PYTHONPATH=src python -m pytest tests/test_perf_loop_capture.py -q -s

Times one training epoch executed two ways over identical batch lists:
as a per-step codegen replay driven from Python (the PR-7 fast path —
zero_grad / step replay / clip / ``Adam.step()`` per batch), and as one
:class:`CompiledEpoch` loop program (this PR — one generated function per
epoch, optimizer update kernels inside the loop, flat-packed optimizer
state).  Both modes run back-to-back within every round, in alternating
order, and the reported speedup is the median of per-round time ratios —
CPU load spikes and frequency drift hit both legs of a round alike, so
neither can masquerade as (or mask) a capture speedup.  Min-of-reps
absolute times are recorded alongside.  The headline row is deliberately
dispatch-bound —
small batches, short sequences, float32 + im2col — because that is the
regime whole-loop capture targets: per-batch Python dispatch comparable
to the arithmetic itself.

Records ``BENCH_loop_capture.json`` in the repository root, asserts the
epoch-level replay beats per-step codegen by ``TARGET_SPEEDUP`` on the
headline row, and asserts both modes produce bit-identical parameters.
"""

import copy
import json
import os
import time

import numpy as np
import pytest

from repro.autograd import get_default_dtype, set_default_dtype, use_backend
from repro.autograd.graph import CompileConfig
from repro.core.trainer import make_epoch_runner, make_training_step
from repro.nn import BatchNorm1d, CausalConv1d, ReLU, Sequential, mse_loss
from repro.optim import Adam

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(not os.environ.get("REPRO_RUN_PERF"),
                       reason="perf smoke test; set REPRO_RUN_PERF=1 to run"),
]

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..",
                           "BENCH_loop_capture.json")

# (dtype, backend, batch, batches-per-epoch).  Headline config first: it
# runs before sustained load heats the machine into thermal throttling.
PERF_CONFIGS = [
    ("float32", "im2col", 4, 32),
    ("float32", "im2col", 16, 16),
    ("float64", "einsum", 16, 16),
]
PERF_ASSERT_CONFIG = ("float32", "im2col", 4, 32)
TARGET_SPEEDUP = 1.1     # epoch replay vs per-step codegen, headline row
REPS = 25
WARMUP = 3
SEQ_LEN = 64


def _model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        CausalConv1d(4, 8, kernel_size=3, rng=rng), BatchNorm1d(8), ReLU(),
        CausalConv1d(8, 8, kernel_size=3, dilation=2, rng=rng), ReLU(),
        CausalConv1d(8, 1, 1, rng=rng))


def _batches(batch, count, seed=0):
    rng = np.random.default_rng(seed)
    dtype = get_default_dtype()
    return [(rng.standard_normal((batch, 4, SEQ_LEN)).astype(dtype),
             rng.standard_normal((batch, 1, SEQ_LEN)).astype(dtype))
            for _ in range(count)]


def _make_leg(mode, seed_model):
    """One (model, optimizer, per-epoch callable) leg; mode: step | loop."""
    model = copy.deepcopy(seed_model)
    optimizer = Adam(model.parameters(), lr=1e-3)
    cfg = CompileConfig(compile_step=True, graph_opt="default",
                        loop_capture=(mode == "loop"))
    step = make_training_step(model, mse_loss, compile_config=cfg)
    epoch = make_epoch_runner(step, optimizer, None, cfg)

    if epoch is not None:
        def run_epoch(batches):
            return epoch.run_batches(list(batches))
    else:
        def run_epoch(batches):
            total = 0.0
            for x, y in batches:
                optimizer.zero_grad()
                outs = step(x, y)
                optimizer.step()
                total += outs[1]
            return total / len(batches)
    return model, run_epoch, epoch


def test_epoch_capture_speedup():
    rows = []
    prev_dtype = get_default_dtype()
    try:
        for dtype, backend, batch, count in PERF_CONFIGS:
            set_default_dtype(dtype)
            with use_backend(backend):
                seed_model = _model()
                batches = _batches(batch, count)

                # Bit-parity first: 3 epochs from identical seeds must end
                # on identical parameters — a speedup that changes the
                # science is a bug, not a feature.
                m_step, run_step, _ = _make_leg("step", seed_model)
                m_loop, run_loop, epoch = _make_leg("loop", seed_model)
                for _ in range(3):
                    a = run_step(batches)
                    b = run_loop(batches)
                    assert np.array_equal(a, b), (dtype, backend, batch)
                s1, s2 = m_step.state_dict(), m_loop.state_dict()
                for key in s1:
                    assert np.array_equal(s1[key], s2[key]), key
                assert epoch.loop_fallback_reason is None
                assert epoch.replayed_epochs >= 1

                # Interleaved timing over one epoch of work.  Both legs run
                # back-to-back within each round (order alternating), and
                # the headline statistic is the *median of per-round
                # ratios*: a load spike or frequency step hits the two
                # adjacent epochs alike, where a min-of-reps comparison
                # would let it land on one leg only.
                best = {"step": float("inf"), "loop": float("inf")}
                order = [("step", run_step), ("loop", run_loop)]
                ratios = []
                for rep in range(REPS + WARMUP):
                    times = {}
                    for mode, run in (order if rep % 2 else reversed(order)):
                        start = time.perf_counter()
                        run(batches)
                        times[mode] = time.perf_counter() - start
                    if rep >= WARMUP:
                        for mode, seconds in times.items():
                            best[mode] = min(best[mode], seconds)
                        ratios.append(times["step"] / times["loop"])
                ratios.sort()

                rows.append({
                    "dtype": dtype, "backend": backend, "batch": batch,
                    "batches_per_epoch": count,
                    "per_step_epoch_seconds": best["step"],
                    "loop_epoch_seconds": best["loop"],
                    "speedup": ratios[len(ratios) // 2],
                    "min_ratio_speedup": best["step"] / best["loop"],
                    "bit_identical": True,
                })
    finally:
        set_default_dtype(prev_dtype)

    payload = {
        "model": "3xCausalConv(4->8->8->1, k3/k3d2) + BN, T=64",
        "reps": REPS,
        "timing": "median of per-round epoch-time ratios, legs adjacent "
                  "and order-alternated; min-of-reps absolutes alongside",
        "comparison": "CompiledEpoch (source) vs per-step codegen drive",
        "rows": rows,
    }
    with open(os.path.abspath(RESULT_PATH), "w") as handle:
        json.dump(payload, handle, indent=2)

    for row in rows:
        print(f"\n{row['dtype']}/{row['backend']} batch={row['batch']} "
              f"x{row['batches_per_epoch']}: step={row['per_step_epoch_seconds']*1e3:.2f} ms "
              f"loop={row['loop_epoch_seconds']*1e3:.2f} ms "
              f"({row['speedup']:.2f}x)")

    headline = next(row for row in rows
                    if (row["dtype"], row["backend"], row["batch"],
                        row["batches_per_epoch"]) == PERF_ASSERT_CONFIG)
    assert headline["speedup"] >= TARGET_SPEEDUP, (
        f"whole-loop capture speedup regressed on the dispatch-bound row: "
        f"{headline['speedup']:.2f}x < {TARGET_SPEEDUP}x")
