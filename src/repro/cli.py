"""Command-line interface for the PIT reproduction.

Subcommands::

    python -m repro.cli info   --benchmark ppg
    python -m repro.cli train  --benchmark ppg --dilations 2 2 1 4 4 8 8
    python -m repro.cli search --benchmark ppg --lam 0.02 --width 0.25
    python -m repro.cli sweep  --benchmark music --lambdas 0 1e-3 1e-2
    python -m repro.cli deploy --benchmark ppg --dilations 2 2 1 4 4 8 8
    python -m repro.cli serve  --benchmark ppg --dilations 2 2 1 4 4 8 8 --port 7707

* ``info``   — seed statistics: parameters, search-space size, layer budgets;
* ``train``  — plain (no-NAS) training of a fixed-dilation network, the
  Fig. 5 reference flow;
* ``search`` — one full PIT run (Algorithm 1); optionally saves a checkpoint;
* ``sweep``  — the λ design-space exploration (Fig. 4 workflow); ``--hw``
  additionally deploys every trained grid point (int8 fake-quantization +
  GAP8 estimate) and annotates it with latency/energy/quantized-loss
  metrics, printing the 3-D (params, latency, loss) Pareto front;
* ``deploy`` — the full deployment flow on a fixed-dilation network
  (optionally loaded from a checkpoint): int8 quantization, quantized
  accuracy, GAP8 latency/energy — rendered as a paper-style Table III row;
* ``serve``  — multi-tenant streaming inference server: converts the
  network to O(K)-per-tick ring-buffer execution and serves concurrent
  sample streams over TCP (see README "Streaming inference serving").

Every command accepts ``--benchmark {music, ppg}`` selecting the
ResTCN/Nottingham or TEMPONet/PPG-Dalia pairing, ``--width`` to scale the
experiment (1.0 = paper width), and ``--conv-backend`` to pick the
convolution kernels (``einsum`` reference or ``im2col`` GEMM fast path;
also settable via the ``REPRO_CONV_BACKEND`` environment variable).

The training commands (``train``, ``search``, ``sweep``) accept
``--compile``, which traces each training step once and replays it through
the graph-capture executor (see README "Compiled training step"); the
``REPRO_COMPILE_STEP=1`` environment variable is the equivalent default.
``--graph-opt {default,none}`` picks the optimization level the executor
applies to each traced program (constant folding, dead-node elimination,
op fusion, buffer-arena planning — bit-identical results either way;
``REPRO_GRAPH_OPT`` is the environment equivalent).  Compiled steps
replay as specialized generated code (see README "Codegen executor").
``--loop-capture`` (implies ``--compile``;
``REPRO_LOOP_CAPTURE`` is the environment equivalent) replays each whole
training epoch as one loop program — optimizer update kernels, gradient
clipping and loss accounting inside, flat-packed optimizer state —
degrading to per-step replay whenever a loop-level condition fails (see
README "Whole-loop capture").  ``--dump-graph-source PATH`` writes the
generated programs out for inspection and ``--verbose`` prints the
compile diagnostics (pass statistics, allocation accounting, codegen
cache hits, loop replay counts and fallbacks).

``sweep`` additionally exposes the DSE engine knobs: ``--workers`` /
``--executor`` parallelize the grid, ``--stack N`` trains up to N
same-warmup grid points as one weight-stacked model (vmap-style batched
execution; ``REPRO_DSE_STACK`` is the environment equivalent), and
``--cache`` memoizes completed (λ, warmup) points — including ``--hw``
deployment metrics (cache format v2) — to a JSON file so interrupted
sweeps resume where they left off.  Stack width, like ``--compile``,
never enters cache keys: stacked and sequential sweeps share entries.

The training commands also accept ``--checkpoint-dir PATH`` and
``--checkpoint-every N`` (environment equivalents ``REPRO_CKPT_DIR`` /
``REPRO_CKPT_EVERY``): mid-run trainer checkpoints snapshot the complete
training state at epoch boundaries, so a run killed by a crash, timeout
or preemption can continue from its last finished epoch with bit-exact
results (see README "Checkpointing & resume").  ``train`` and ``search``
opt into continuing from an existing checkpoint with ``--resume`` (a
fresh invocation otherwise starts over and rewrites the file); ``sweep``
always resumes in-flight grid points, mirroring how ``--cache`` always
skips finished ones.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _loaders(benchmark: str, seed: int, batch: Optional[int] = None):
    from .data import (
        DataLoader,
        NottinghamConfig,
        PPGDaliaConfig,
        make_nottingham,
        make_ppg_dalia,
        train_val_test_split,
    )
    if benchmark == "music":
        dataset = make_nottingham(NottinghamConfig(num_tunes=24, seq_len=48),
                                  seed=seed)
        batch = batch or 4
    else:
        dataset = make_ppg_dalia(PPGDaliaConfig(num_subjects=3,
                                                seconds_per_subject=60),
                                 seed=seed)
        batch = batch or 16
    train, val, test = train_val_test_split(
        dataset, rng=np.random.default_rng(seed))
    return (DataLoader(train, batch, shuffle=True,
                       rng=np.random.default_rng(seed + 1)),
            DataLoader(val, batch), DataLoader(test, batch))


def _seed_model(benchmark: str, width: float, seed: int):
    from .models import restcn_seed, temponet_seed
    if benchmark == "music":
        return restcn_seed(width_mult=width, seed=seed)
    return temponet_seed(width_mult=width, seed=seed)


def _loss(benchmark: str):
    from .nn import mae_loss, polyphonic_nll
    return polyphonic_nll if benchmark == "music" else mae_loss


def _input_shape(benchmark: str):
    return (1, 88, 128) if benchmark == "music" else (1, 4, 256)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    from .core import layer_choices, parameter_range, pit_layers, search_space_size
    model = _seed_model(args.benchmark, args.width, args.seed)
    layers = pit_layers(model)
    print(f"benchmark      : {args.benchmark}")
    print(f"seed parameters: {model.count_parameters()}")
    print(f"searchable convs: {len(layers)}")
    for i, layer in enumerate(layers):
        print(f"  conv{i}: rf_max={layer.rf_max:>3d} "
              f"choices={layer_choices(layer)}")
    print(f"search space   : {search_space_size(model)} configurations")
    ranges = parameter_range(model)
    print(f"parameter range: {ranges['min_params']} .. {ranges['max_params']}")
    return 0


def _fixed_model(benchmark: str, dilations, width: float, seed: int):
    from .models import restcn_fixed, temponet_fixed
    if benchmark == "music":
        return restcn_fixed(dilations, width_mult=width, seed=seed)
    return temponet_fixed(dilations, width_mult=width, seed=seed)


def _checkpoint_args(args: argparse.Namespace) -> dict:
    """The mid-run checkpoint knobs of this invocation as trainer kwargs.

    Absent flags defer to the ``REPRO_CKPT_*`` environment, so a cluster
    job can set the directory once for every command it launches.
    """
    from .core.checkpoint import checkpoint_dir_default
    directory = getattr(args, "checkpoint_dir", None)
    if directory is None:
        directory = checkpoint_dir_default()
    out = dict(checkpoint_dir=directory,
               checkpoint_every=getattr(args, "checkpoint_every", None))
    if hasattr(args, "resume"):
        out["checkpoint_resume"] = bool(args.resume)
    return out


def _compile_config(args: argparse.Namespace):
    """The graph-execution knobs of this invocation as one CompileConfig.

    store_true flags map to True-or-None (None lets the matching REPRO_*
    environment variable decide, same as before the flag existed).
    """
    from .autograd.graph import CompileConfig
    return CompileConfig(
        compile_step=True if getattr(args, "compile", False) else None,
        graph_opt=getattr(args, "graph_opt", None),
        loop_capture=True if getattr(args, "loop_capture", False) else None)


def _dump_graph_source(args: argparse.Namespace) -> None:
    """Write every generated program of this run to --dump-graph-source."""
    path = getattr(args, "dump_graph_source", None)
    if not path:
        return
    from .autograd.graph import recorded_sources
    sources = recorded_sources()
    with open(path, "w") as handle:
        if not sources:
            handle.write("# no graph programs were lowered to source in "
                         "this run (use --compile)\n")
        for label, source in sources.items():
            handle.write(f"# === program {label} ===\n{source}\n\n")
    print(f"graph source: {path} ({len(sources)} program(s))")


def _print_compile_stats(stats, phase: Optional[str] = None) -> None:
    """Render one CompiledStep.diagnostics() dict (cli --verbose)."""
    prefix = f"[compile{':' + phase if phase else ''}]"
    if stats is None:
        print(f"{prefix} step ran eagerly (pass --compile or set "
              "REPRO_COMPILE_STEP=1)")
        return
    if stats.get("fallback_reason"):
        print(f"{prefix} eager fallback: {stats['fallback_reason']}")
        return
    print(f"{prefix} graph_opt={stats['optimize']}")
    for key, opt in stats.get("opt_stats", {}).items():
        rendered = " ".join(f"{name}={value}" for name, value in opt.items())
        print(f"{prefix}   opt {key}: {rendered}")
    alloc = stats.get("alloc_stats", {})
    if alloc:
        rendered = " ".join(f"{name}={value}"
                            for name, value in alloc.items())
        print(f"{prefix}   alloc: {rendered}")
    cache = stats.get("codegen_cache", {})
    if cache:
        print(f"{prefix}   codegen cache: entries={cache.get('entries', 0)} "
              f"hits={cache.get('hits', 0)} misses={cache.get('misses', 0)}")
    loop = stats.get("loop")
    if loop:
        print(f"{prefix}   loop: replayed={loop.get('replayed_epochs', 0)} "
              f"driven={loop.get('driven_epochs', 0)}")
        reason = loop.get("loop_fallback_reason")
        if reason:
            print(f"{prefix}   loop fallback: {reason}")
        for key, fell in loop.get("exec_fallbacks", {}).items():
            print(f"{prefix}   loop program {key}: lowering failed, "
                  f"driven per step: {fell}")


def cmd_train(args: argparse.Namespace) -> int:
    from .core import train_plain
    train_loader, val_loader, test_loader = _loaders(args.benchmark, args.seed)
    dilations = tuple(args.dilations) if args.dilations else None
    model = _fixed_model(args.benchmark, dilations, args.width, args.seed)
    result = train_plain(model, _loss(args.benchmark), train_loader, val_loader,
                         epochs=args.epochs, lr=args.lr,
                         patience=args.patience,
                         compile_config=_compile_config(args),
                         **_checkpoint_args(args))
    from .core import evaluate
    test_loss = evaluate(model, _loss(args.benchmark), test_loader)
    print(f"network   : {args.benchmark} dilations={dilations or 'all-1'}")
    print(f"params    : {model.count_parameters()}")
    print(f"epochs    : {result.epochs}")
    if result.resumed_epochs:
        print(f"resumed   : {result.resumed_epochs} epoch(s) from checkpoint")
    print(f"val loss  : {result.best_val:.4f}")
    print(f"test loss : {test_loss:.4f}")
    print(f"time      : {result.seconds:.1f} s")
    if args.verbose:
        _print_compile_stats(result.compile_stats)
    _dump_graph_source(args)
    if args.save:
        from .nn.serialization import save_model
        save_model(model, args.save, metadata={
            "benchmark": args.benchmark,
            "dilations": list(dilations) if dilations else None,
            "val_loss": result.best_val})
        print(f"checkpoint: {args.save}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from .core import PITTrainer, export_network
    train_loader, val_loader, _ = _loaders(args.benchmark, args.seed)
    model = _seed_model(args.benchmark, args.width, args.seed)
    trainer = PITTrainer(
        model, _loss(args.benchmark), lam=args.lam, gamma_lr=args.gamma_lr,
        warmup_epochs=args.warmup, max_prune_epochs=args.epochs,
        prune_patience=args.patience, finetune_epochs=args.finetune,
        finetune_patience=args.patience, verbose=not args.quiet,
        compile_config=_compile_config(args), checkpoint_tag="search",
        **_checkpoint_args(args))
    result = trainer.fit(train_loader, val_loader)
    print(f"dilations : {result.dilations}")
    if result.resumed_epochs:
        print(f"resumed   : {result.resumed_epochs} epoch(s) from checkpoint")
    print(f"val loss  : {result.best_val:.4f}")
    print(f"params    : {result.effective_params}")
    print(f"time      : {result.total_seconds:.1f} s")
    if args.verbose:
        for phase in ("warmup", "prune", "finetune"):
            _print_compile_stats(result.compile_stats.get(phase), phase=phase)
    _dump_graph_source(args)
    if args.save:
        from .nn.serialization import save_model
        save_model(model, args.save, metadata={
            "benchmark": args.benchmark, "lam": args.lam,
            "dilations": list(result.dilations),
            "val_loss": result.best_val})
        print(f"checkpoint: {args.save}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .evaluation import run_dse
    train_loader, val_loader, test_loader = _loaders(args.benchmark, args.seed)

    # functools.partial of a module-level function (not a closure) so the
    # factory survives pickling under --executor process.
    factory = functools.partial(_seed_model, args.benchmark, args.width,
                                args.seed)

    evaluators = []
    if args.hw:
        from .hw import gap8_evaluator
        # Validation data calibrates the activation ranges; held-out test
        # data measures the int8 accuracy column.
        evaluators.append(gap8_evaluator(
            _loss(args.benchmark), val_loader, test_loader,
            _input_shape(args.benchmark), bits=args.bits))

    result = run_dse(factory, _loss(args.benchmark), train_loader, val_loader,
                     lambdas=args.lambdas, warmups=tuple(args.warmups),
                     trainer_kwargs=dict(gamma_lr=args.gamma_lr,
                                         max_prune_epochs=args.epochs,
                                         prune_patience=args.patience,
                                         finetune_epochs=args.finetune,
                                         finetune_patience=args.patience),
                     verbose=not args.quiet, workers=args.workers,
                     executor=args.executor, cache_path=args.cache,
                     cache_tag=f"{args.benchmark}|width={args.width}"
                               f"|seed={args.seed}",
                     compile_config=_compile_config(args),
                     stack=args.stack,
                     point_evaluators=evaluators,
                     retries=args.retries,
                     point_timeout=args.point_timeout,
                     checkpoint_dir=getattr(args, "checkpoint_dir", None),
                     checkpoint_every=getattr(args, "checkpoint_every", None))
    header = f"{'lambda':>10s} {'warmup':>6s} {'params':>8s} {'loss':>9s}"
    if args.hw:
        header += f" {'int8 loss':>9s} {'lat ms':>8s} {'mJ':>7s}"
    print(header + "  dilations")
    for p in sorted(result.ok_points, key=lambda q: q.params):
        line = (f"{p.lam:>10g} {p.warmup_epochs:>6d} {p.params:>8d} "
                f"{p.loss:>9.4f}")
        if args.hw:
            nan = float("nan")
            line += (f" {p.metrics.get('quantized_loss', nan):>9.4f} "
                     f"{p.metrics.get('latency_ms', nan):>8.1f} "
                     f"{p.metrics.get('energy_mj', nan):>7.2f}")
        print(line + f"  {p.dilations}")
    failed = result.failed_points
    if failed:
        from .evaluation import format_failures
        print(f"\n{len(failed)} grid point(s) FAILED:")
        print(format_failures(failed))
    _dump_graph_source(args)
    front = result.pareto()
    print(f"pareto front: {[(p.params, round(p.loss, 4)) for p in front]}")
    if args.hw:
        front3 = result.pareto(objectives=("params", "latency_ms", "loss"))
        print("hw pareto front (params, latency_ms, loss): "
              f"{[(p.params, round(p.metrics['latency_ms'], 1), round(p.loss, 4)) for p in front3]}")
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    from .hw import deploy, format_table_iii
    dilations = tuple(args.dilations) if args.dilations else None
    network = _fixed_model(args.benchmark, dilations, args.width, args.seed)
    if args.load:
        from .nn.serialization import load_model
        metadata = load_model(network, args.load) or {}
        print(f"loaded    : {args.load} "
              f"(val loss {metadata.get('val_loss', 'n/a')})")
    _, val_loader, test_loader = _loaders(args.benchmark, args.seed)
    report = deploy(network, _loss(args.benchmark), val_loader, test_loader,
                    _input_shape(args.benchmark),
                    name=f"{args.benchmark}-w{args.width:g}",
                    quantize=not args.no_quantize, bits=args.bits)
    print(f"network  : {args.benchmark} dilations={dilations or 'all-1'}")
    print(f"params   : {network.count_parameters()}")
    print(f"estimate : {report.gap8.summary()}")
    print(format_table_iii([report]))
    if args.layers:
        print(f"{'layer':<28s} {'kind':<10s} {'MACs':>10s} {'kcycles':>9s}")
        for layer in report.gap8.layers:
            print(f"{layer.name:<28s} {layer.kind:<10s} {layer.macs:>10d} "
                  f"{layer.cycles / 1e3:>9.1f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    dilations = tuple(args.dilations) if args.dilations else None
    network = _fixed_model(args.benchmark, dilations, args.width, args.seed)
    if args.load:
        from .nn.serialization import load_model
        metadata = load_model(network, args.load) or {}
        print(f"loaded    : {args.load} "
              f"(val loss {metadata.get('val_loss', 'n/a')})")
    if args.quantize:
        from .hw import quantize_network
        _, val_loader, _ = _loaders(args.benchmark, args.seed)
        network = quantize_network(network, val_loader, bits=args.bits)
        print(f"quantized : int{args.bits} "
              "(activation ranges calibrated on validation data)")
    from .serving import serve
    try:
        asyncio.run(serve(network, host=args.host, port=args.port,
                          capacity=args.capacity,
                          queue_size=args.queue_size,
                          max_sessions=args.max_sessions,
                          client_timeout=args.client_timeout))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PIT (DAC 2021) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    from .autograd import available_backends

    def common(p):
        p.add_argument("--benchmark", choices=("music", "ppg"), default="ppg")
        p.add_argument("--width", type=float, default=0.25,
                       help="width multiplier (1.0 = paper scale)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--conv-backend", choices=available_backends(),
                       default=None,
                       help="convolution kernel backend (default: "
                            "REPRO_CONV_BACKEND or 'einsum')")

    p_info = sub.add_parser("info", help="seed and search-space statistics")
    common(p_info)
    p_info.set_defaults(func=cmd_info)

    def training(p):
        p.add_argument("--gamma-lr", type=float, default=0.03)
        p.add_argument("--warmup", type=int, default=2)
        p.add_argument("--epochs", type=int, default=6,
                       help="max pruning epochs")
        p.add_argument("--finetune", type=int, default=4)
        p.add_argument("--patience", type=int, default=4)
        compile_flag(p)

    def checkpoint_flags(p, resumable=False):
        p.add_argument("--checkpoint-dir", type=str, default=None,
                       dest="checkpoint_dir", metavar="PATH",
                       help="write mid-run trainer checkpoints (complete "
                            "training state at every epoch boundary) into "
                            "this directory, so a killed run can continue "
                            "bit-exactly (default: REPRO_CKPT_DIR; unset = "
                            "no checkpointing)")
        p.add_argument("--checkpoint-every", type=int, default=None,
                       dest="checkpoint_every", metavar="N",
                       help="snapshot every Nth epoch boundary (default: "
                            "REPRO_CKPT_EVERY or 1)")
        if resumable:
            p.add_argument("--resume", action="store_true",
                           help="continue from the checkpoint in "
                                "--checkpoint-dir instead of starting "
                                "over; results are bit-identical to the "
                                "uninterrupted run")

    def compile_flag(p):
        p.add_argument("--compile", action="store_true",
                       help="trace the training step once and replay it "
                            "through the graph executor (default: "
                            "REPRO_COMPILE_STEP)")
        p.add_argument("--graph-opt", choices=("default", "none"),
                       default=None, dest="graph_opt",
                       help="optimization level for compiled steps: "
                            "'default' runs the pass pipeline (fold/DCE/"
                            "fusion/memory planning), 'none' replays the "
                            "trace verbatim; results are bit-identical "
                            "(default: REPRO_GRAPH_OPT)")
        p.add_argument("--loop-capture", action="store_true",
                       dest="loop_capture",
                       help="capture the whole training loop: replay each "
                            "epoch (and each PIT phase) as one loop "
                            "program over the compiled step body, "
                            "optimizer update kernels included; implies "
                            "--compile, degrades to per-step replay when "
                            "the loop cannot capture; results are "
                            "bit-identical (default: REPRO_LOOP_CAPTURE)")
        p.add_argument("--dump-graph-source", type=str, default=None,
                       dest="dump_graph_source", metavar="PATH",
                       help="after the run, write every program the "
                            "compiled step generated to PATH (inspectable/"
                            "diffable Python)")
        p.add_argument("--verbose", action="store_true",
                       help="print compile diagnostics after training: "
                            "pass statistics, allocation accounting, "
                            "codegen cache hits, fallbacks")

    p_train = sub.add_parser(
        "train", help="plain (no-NAS) training of a fixed-dilation network")
    common(p_train)
    compile_flag(p_train)
    p_train.add_argument("--dilations", type=int, nargs="+", default=None,
                         help="per-layer dilations (default: all 1)")
    p_train.add_argument("--epochs", type=int, default=6)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--patience", type=int, default=4)
    p_train.add_argument("--save", type=str, default=None,
                         help="write an npz checkpoint here")
    checkpoint_flags(p_train, resumable=True)
    p_train.set_defaults(func=cmd_train)

    p_search = sub.add_parser("search", help="run one PIT search")
    common(p_search)
    training(p_search)
    p_search.add_argument("--lam", type=float, default=0.02)
    p_search.add_argument("--save", type=str, default=None,
                          help="write an npz checkpoint here")
    checkpoint_flags(p_search, resumable=True)
    p_search.set_defaults(func=cmd_search)

    p_sweep = sub.add_parser("sweep", help="λ design-space exploration")
    common(p_sweep)
    training(p_sweep)
    p_sweep.add_argument("--lambdas", type=float, nargs="+",
                         default=[0.0, 0.02, 0.2])
    p_sweep.add_argument("--warmups", type=int, nargs="+", default=[2])
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="DSE worker pool size (0/1 = serial; default: "
                              "REPRO_DSE_WORKERS or 0)")
    p_sweep.add_argument("--executor", choices=("thread", "process"),
                         default=None,
                         help="worker pool flavour for parallel sweeps "
                              "(default: REPRO_DSE_EXECUTOR or thread)")
    p_sweep.add_argument("--cache", type=str, default=None,
                         help="JSON results cache; completed (lambda, warmup) "
                              "points are skipped on re-runs")
    p_sweep.add_argument("--stack", type=int, default=None,
                         help="stacked-model execution: train up to N "
                              "same-warmup grid points as one weight-stacked "
                              "model (1 = sequential; default: "
                              "REPRO_DSE_STACK or 1).  A speed knob like "
                              "--compile: results match sequential within "
                              "fp tolerance and cache entries are shared")
    p_sweep.add_argument("--hw", action="store_true",
                         help="hardware-in-the-loop: after each grid point "
                              "trains, export + int8-quantize it and "
                              "annotate the point with GAP8 latency/energy/"
                              "quantized-loss metrics")
    p_sweep.add_argument("--bits", type=int, default=8,
                         help="quantization bit width for --hw")
    p_sweep.add_argument("--retries", type=int, default=0,
                         help="retry a failing grid point up to N times with "
                              "exponential backoff before marking it failed "
                              "(diverged points are never retried)")
    p_sweep.add_argument("--point-timeout", type=float, default=None,
                         help="per-point training budget in seconds; a chunk "
                              "that exceeds it is cancelled and its points "
                              "marked failed (default: no timeout)")
    # Sweeps always resume in-flight points from their checkpoints (like
    # --cache always skips finished ones), so no --resume flag here.
    checkpoint_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_deploy = sub.add_parser(
        "deploy", help="full deployment flow of a fixed network: int8 "
                       "quantization + GAP8 cost (a Table III row)")
    common(p_deploy)
    p_deploy.add_argument("--dilations", type=int, nargs="+", default=None)
    p_deploy.add_argument("--load", type=str, default=None,
                          help="npz checkpoint from `train --save` to load "
                               "into the network; --dilations/--width must "
                               "match it.  (`search --save` checkpoints "
                               "hold the searchable supernet and do not "
                               "fit — retrain the found dilations with "
                               "`train --dilations ... --save` first)")
    p_deploy.add_argument("--bits", type=int, default=8,
                          help="quantization bit width")
    p_deploy.add_argument("--no-quantize", action="store_true",
                          help="skip int8 fake-quantization (float estimate)")
    p_deploy.add_argument("--layers", action="store_true",
                          help="print the per-layer breakdown")
    p_deploy.set_defaults(func=cmd_deploy)

    p_serve = sub.add_parser(
        "serve", help="multi-tenant streaming inference server (ring-buffer "
                      "O(K)-per-tick execution over TCP)")
    common(p_serve)
    p_serve.add_argument("--dilations", type=int, nargs="+", default=None)
    p_serve.add_argument("--load", type=str, default=None,
                         help="npz checkpoint from `train --save` to load "
                              "into the network before serving")
    p_serve.add_argument("--quantize", action="store_true",
                         help="serve the int8 fake-quantized network "
                              "(activation ranges calibrated on the "
                              "benchmark's validation split)")
    p_serve.add_argument("--bits", type=int, default=8,
                         help="quantization bit width for --quantize")
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = pick a free one, printed on "
                              "startup)")
    p_serve.add_argument("--capacity", type=int, default=8,
                         help="batch rows = maximum concurrent clients")
    p_serve.add_argument("--queue-size", type=int, default=64,
                         help="per-client sample buffer (backpressure bound)")
    p_serve.add_argument("--max-sessions", type=int, default=None,
                         help="stop after this many sessions have detached "
                              "(default: serve forever)")
    p_serve.add_argument("--client-timeout", type=float, default=None,
                         help="disconnect a client whose socket stays idle "
                              "for this many seconds, freeing its pool slot "
                              "(an idle active client stalls the barrier "
                              "for every co-tenant; default: wait forever)")
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "conv_backend", None):
        from .autograd import set_backend
        from .autograd.backends import ENV_VAR
        set_backend(args.conv_backend)
        # Also export the choice so worker *processes* (spawn start method
        # re-imports the backends module) inherit it, not just this process.
        os.environ[ENV_VAR] = args.conv_backend
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
