"""Command-line interface: ``python -m repro <command>`` (or ``fcma``).

Commands
--------
``generate``  write a synthetic dataset to a .npz file
``scenarios`` ground-truth accuracy matrix: sweep design x SNR x SF x
              subjects, score voxel selection against planted truth
``run``       voxel selection on any executor, with per-stage timings
``select``    run FCMA voxel selection on a dataset file
``offline``   nested leave-one-subject-out analysis
``online``    single-subject voxel selection + classifier summary
``report``    the paper's Table-1 style instrumentation report
``simulate``  cluster scaling simulation (Tables 3-4 / Fig. 8 style)
``trace``     inspect or convert a span trace written by ``run --trace``
``top``       live dashboard over the snapshot stream a ``run --live
              --live-events`` (or ``rtfmri --live-events``) is writing
``perf``      the performance observatory: render predicted-vs-measured
              and roofline reports from a trace, and gate model
              calibration against the paper's numbers
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _add_pipeline_opts(p: argparse.ArgumentParser, variant: str) -> None:
    """The pipeline choice every run-style command shares."""
    from .exec.registry import VARIANTS

    p.add_argument("--variant", choices=VARIANTS, default=variant,
                   help="pipeline: baseline (the oracle), optimized (the "
                        "tiled engine; optimized-batched is the same "
                        "pipeline) or its sparse-batched CSR materialization")
    p.add_argument("--task-voxels", type=int, default=120)
    p.add_argument("--threshold", type=float, default=None,
                   help="sparse-batched: keep normalized correlations "
                        "with |value| >= THRESHOLD")
    p.add_argument("--top-k", type=int, default=None,
                   help="sparse-batched: keep the K strongest "
                        "correlations per (voxel, epoch) row")


def _positive_int(text: str) -> int:
    """A worker count (``--workers``, ``--hosts``): at least 1, else
    argparse exits 2."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _pipeline_config(args: argparse.Namespace, **extra: object):
    """The :class:`FCMAConfig` those options describe."""
    from .core import FCMAConfig

    return FCMAConfig(variant=args.variant, task_voxels=args.task_voxels,
                      threshold=args.threshold, top_k=args.top_k, **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcma",
        description="Full Correlation Matrix Analysis (Wang et al., SC'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset (.npz)")
    gen.add_argument("output", help="output .npz path")
    gen.add_argument("--preset",
                     choices=["quickstart", "face-scene", "attention",
                              "sparse-100k"],
                     default="quickstart")
    gen.add_argument("--voxels", type=int, default=None,
                     help="override voxel count")
    gen.add_argument("--subjects", type=int, default=None,
                     help="override subject count")
    gen.add_argument("--epochs-per-subject", type=int, default=None,
                     help="override epochs per subject")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--design", choices=["block", "event", "jittered"],
                     default=None,
                     help="generate a ground-truth scenario dataset from "
                          "this task design instead of a --preset")
    gen.add_argument("--snr", type=float, default=None,
                     help="--design only: target SNR = SD_signal/SD_noise "
                          "(<= 0 disables noise)")
    gen.add_argument("--sf", type=float, default=None,
                     help="--design only: TMFC scaling factor "
                          "SF = SD_oscill/SD_coact (<= 0 disables "
                          "co-activations)")

    scn = sub.add_parser(
        "scenarios",
        help="run the ground-truth accuracy matrix and score selection "
             "against the planted informative set",
    )
    scn.add_argument("--matrix", choices=["smoke", "default"],
                     default="default",
                     help="preset grid: smoke = block design at the SNR "
                          "extremes; default = every design across the "
                          "SNR ladder")
    scn.add_argument("--design", action="append",
                     choices=["block", "event", "jittered"], default=None,
                     help="restrict to these designs (repeatable)")
    scn.add_argument("--snr", type=float, nargs="+", default=None,
                     help="override the SNR grid")
    scn.add_argument("--sf", type=float, nargs="+", default=None,
                     help="override the scaling-factor grid")
    scn.add_argument("--subjects", type=int, nargs="+", default=None,
                     help="override the subject-count grid")
    scn.add_argument("--voxels", type=int, default=None,
                     help="override the voxel count")
    scn.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    scn.add_argument("--executor",
                     choices=["serial", "master-worker"],
                     default="serial",
                     help="executor running voxel selection (both produce "
                          "identical selections)")
    scn.add_argument("--workers", type=_positive_int, default=2,
                     help="master-worker rank count")
    scn.add_argument("--min-auc", type=float, default=None,
                     help="fail (exit 1) when the best ROC-AUC across "
                          "the matrix is below this floor")
    scn.add_argument("--json", action="store_true",
                     help="emit the matrix report as JSON")

    run = sub.add_parser(
        "run",
        help="voxel selection on a chosen executor, timings via RunContext",
    )
    run.add_argument("dataset", help="input .npz dataset")
    run.add_argument("--executor", choices=["serial", "master-worker"],
                     default="serial",
                     help="execution backend (both produce identical results)")
    run.add_argument("--workers", type=_positive_int, default=None,
                     help="master-worker rank count (default 2)")
    run.add_argument("--transport", choices=["thread", "tcp"],
                     default="thread",
                     help="master-worker rank fabric: in-process threads "
                          "or real processes over length-prefixed TCP")
    run.add_argument("--partition", choices=["rows", "tiles"],
                     default="rows",
                     help="master-worker work decomposition: 1-D row "
                          "panels or 2-D correlation tiles with "
                          "comm/compute overlap")
    run.add_argument("--listen", default=None, metavar="HOST:PORT",
                     help="tcp transport: address to listen on "
                          "(default 127.0.0.1:0 = any free port)")
    run.add_argument("--hosts", type=_positive_int, default=None, metavar="N",
                     help="tcp transport: wait for N externally started "
                          "workers ('fcma worker --connect HOST:PORT' on "
                          "each host) instead of spawning local processes")
    run.add_argument("--comm-timeout", type=float, default=None,
                     help="communicator timeout in seconds (default: "
                          "FCMA_COMM_TIMEOUT or 120)")
    _add_pipeline_opts(run, "optimized")
    run.add_argument("--top", type=int, default=20, help="voxels to report")
    run.add_argument("--json", action="store_true",
                     help="emit the run report (per-stage timings, task "
                          "stream, top voxels) as JSON")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write the run's span trace to PATH")
    run.add_argument("--trace-format", choices=["jsonl", "chrome"],
                     default="jsonl",
                     help="trace file format: JSON-lines span records or "
                          "a Chrome trace_event file for chrome://tracing")
    _add_live_args(run)

    wrk = sub.add_parser(
        "worker",
        help="join a listening 'fcma run --transport tcp' master as one "
             "TCP worker rank",
    )
    wrk.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="address the master is listening on")
    wrk.add_argument("--timeout", type=float, default=None,
                     help="communicator timeout in seconds (default: "
                          "FCMA_COMM_TIMEOUT or 120)")

    sel = sub.add_parser("select", help="run voxel selection on a dataset")
    sel.add_argument("dataset", help="input .npz dataset")
    sel.add_argument("--top", type=int, default=20, help="voxels to report")
    _add_pipeline_opts(sel, "optimized")
    sel.add_argument("--workers", type=_positive_int, default=1,
                     help="master-worker thread ranks (1 = serial)")
    sel.add_argument("--output", default=None,
                     help="optional CSV of all voxel scores")

    off = sub.add_parser("offline", help="nested LOSO analysis")
    off.add_argument("dataset")
    off.add_argument("--top", type=int, default=20)
    off.add_argument("--task-voxels", type=int, default=120)

    onl = sub.add_parser("online", help="single-subject voxel selection")
    onl.add_argument("dataset")
    onl.add_argument("--subject", type=int, default=0)
    onl.add_argument("--top", type=int, default=20)
    onl.add_argument("--folds", type=int, default=4)

    rt = sub.add_parser(
        "rtfmri", help="closed-loop streaming session (train, then "
                       "per-epoch feedback)"
    )
    rt.add_argument("dataset", help="input .npz dataset (replayed as a scan)")
    rt.add_argument("--subject", type=int, default=0)
    rt.add_argument("--training-epochs", type=int, default=8,
                    help="completed epochs accumulated before training")
    rt.add_argument("--top-k", type=int, default=20,
                    help="voxels selected for the feedback classifier")
    rt.add_argument("--folds", type=int, default=4,
                    help="within-subject CV folds for voxel selection")
    rt.add_argument("--retrain-every", type=int, default=None,
                    help="adaptive mode: refresh the decoder after every "
                         "N feedback epochs (warm-started SMO)")
    rt.add_argument("--window-epochs", type=int, default=None,
                    help="sliding window: retrain on only the most recent N "
                         "completed epochs (default: keep everything)")
    rt.add_argument("--latency-budget-ms", type=float, default=None,
                    help="fail (exit 1) when the p99 per-TR step latency "
                         "exceeds this many milliseconds")
    rt.add_argument("--json", action="store_true",
                    help="emit the session report as JSON")
    _add_live_args(rt)

    rep = sub.add_parser("report", help="instrumentation report (Table 1)")
    rep.add_argument("--dataset", choices=["face-scene", "attention"],
                     default="face-scene")
    rep.add_argument("--machine", choices=["phi", "xeon", "knl"], default="phi")
    rep.add_argument("--task-voxels", type=int, default=120)

    rep2 = sub.add_parser(
        "reproduce", help="regenerate a paper table/figure by id"
    )
    rep2.add_argument(
        "experiment", nargs="?", default=None,
        help="e.g. table1, table3, fig8; omit to list all",
    )

    sim = sub.add_parser("simulate", help="cluster scaling simulation")
    sim.add_argument("--dataset", choices=["face-scene", "attention"],
                     default="face-scene")
    sim.add_argument("--mode", choices=["offline", "online"], default="offline")
    sim.add_argument("--nodes", type=int, nargs="+",
                     default=[1, 8, 16, 32, 64, 96])
    sim.add_argument("--task-voxels", type=int, default=None,
                     help="defaults to the paper's 120/60 per dataset")
    sim.add_argument("--trace", default=None, metavar="PATH",
                     help="write the simulated schedule of the largest "
                          "node count as a span trace (jsonl)")

    trc = sub.add_parser(
        "trace", help="inspect or convert a span trace (run --trace)"
    )
    trc.add_argument("trace_file", help="JSON-lines trace written by "
                                        "'fcma run --trace'")
    trc.add_argument("--view", choices=["tree", "table", "chrome"],
                     default="tree",
                     help="tree: indented span hierarchy; table: per-stage "
                          "metric totals; chrome: trace_event JSON")
    trc.add_argument("--max-depth", type=int, default=None,
                     help="tree view: clip spans deeper than this")
    trc.add_argument("--output", default=None, metavar="PATH",
                     help="write the view here instead of stdout")

    top = sub.add_parser(
        "top",
        help="live dashboard over a snapshot stream "
             "(run --live --live-events PATH)",
    )
    top.add_argument("events", help="JSON-lines snapshot stream written by "
                                    "'fcma run --live --live-events'")
    top.add_argument("--follow", action="store_true",
                     help="keep refreshing until the run publishes its "
                          "final snapshot")
    top.add_argument("--refresh", type=float, default=1.0, metavar="SECONDS",
                     help="--follow: redraw interval (default 1.0)")

    perf = sub.add_parser(
        "perf", help="performance observatory (reports, calibration)"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    prep = perf_sub.add_parser(
        "report",
        help="predicted-vs-measured + roofline report from a trace file",
    )
    prep.add_argument("trace_file",
                      help="JSON-lines trace written by 'fcma run "
                           "--trace'; enriched on the fly if needed")
    prep.add_argument("--machine", choices=["phi", "xeon", "knl"],
                      default="xeon")

    perf_sub.add_parser(
        "calibrate",
        help="check every claim of every 'fcma reproduce' id against "
             "its band; exits 1 on drift",
    )
    return parser


def _add_live_args(p: argparse.ArgumentParser) -> None:
    """The live telemetry plane's flags (``run`` and ``rtfmri``)."""
    p.add_argument("--live", action="store_true",
                   help="publish in-flight progress/ETA snapshots while "
                        "the run executes (implied by --live-events / "
                        "--prom-file)")
    p.add_argument("--live-events", default=None, metavar="PATH",
                   help="stream repro.live/v1 snapshots to PATH as JSON "
                        "lines ('fcma top PATH --follow' watches it)")
    p.add_argument("--prom-file", default=None, metavar="PATH",
                   help="atomically rewrite PATH with the latest snapshot "
                        "in Prometheus text format (node_exporter "
                        "textfile-collector style)")
    p.add_argument("--live-interval", type=float, default=0.5,
                   metavar="SECONDS",
                   help="snapshot publish interval (default 0.5)")


def _spec_for(name: str):
    from .data import ATTENTION, FACE_SCENE

    return FACE_SCENE if name == "face-scene" else ATTENTION


def _machine_for(name: str):
    from .hw import E5_2670, KNL_7250, PHI_5110P

    return {"phi": PHI_5110P, "xeon": E5_2670, "knl": KNL_7250}[name]


def _cmd_generate_design(args: argparse.Namespace) -> int:
    """The ``--design`` path: a ground-truth scenario dataset."""
    from .data import (
        DESIGN_PRESETS,
        GroundTruthConfig,
        design_ground_truth,
        generate_design_dataset,
        save_dataset,
    )

    design = DESIGN_PRESETS[args.design]()
    if args.epochs_per_subject is not None:
        per_condition, rem = divmod(
            args.epochs_per_subject, design.n_conditions
        )
        if rem or per_condition < 1:
            print(
                f"error: --epochs-per-subject must be a positive "
                f"multiple of {design.n_conditions} (the design's "
                f"condition count)",
                file=sys.stderr,
            )
            return 2
        design = design.scaled(epochs_per_condition=per_condition)
    cfg = GroundTruthConfig(design=design, name=f"scenario-{args.design}")
    overrides: dict[str, object] = {}
    if args.voxels is not None:
        overrides["n_voxels"] = args.voxels
    if args.subjects is not None:
        overrides["n_subjects"] = args.subjects
    if args.seed is not None:
        overrides["seed"] = args.seed
    conn_overrides: dict[str, object] = {}
    if args.snr is not None:
        conn_overrides["snr"] = args.snr
    if args.sf is not None:
        conn_overrides["sf"] = args.sf
    if conn_overrides:
        overrides["connectivity"] = cfg.connectivity.scaled(**conn_overrides)
    if overrides:
        cfg = cfg.scaled(**overrides)
    dataset = generate_design_dataset(cfg)
    path = save_dataset(dataset, args.output)
    truth = design_ground_truth(cfg)
    print(f"wrote {dataset} -> {path}")
    print(f"design: {args.design} (snr={cfg.connectivity.snr:g}, "
          f"sf={cfg.connectivity.sf:g}, {truth.size} planted voxels)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data import (
        attention_scaled,
        face_scene_scaled,
        generate_dataset,
        quickstart_config,
        save_dataset,
        sparse_100k_config,
    )

    if args.design is not None:
        return _cmd_generate_design(args)
    if args.snr is not None or args.sf is not None:
        print("error: --snr/--sf require --design", file=sys.stderr)
        return 2
    if args.preset == "quickstart":
        cfg = quickstart_config()
    elif args.preset == "face-scene":
        cfg = face_scene_scaled()
    elif args.preset == "sparse-100k":
        cfg = sparse_100k_config()
    else:
        cfg = attention_scaled()
    overrides = {}
    if args.voxels is not None:
        overrides["n_voxels"] = args.voxels
        overrides["n_informative"] = max(8, args.voxels // 25)
    if args.subjects is not None:
        overrides["n_subjects"] = args.subjects
    if args.epochs_per_subject is not None:
        overrides["epochs_per_subject"] = args.epochs_per_subject
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = cfg.scaled(**overrides)
    dataset = generate_dataset(cfg)
    path = save_dataset(dataset, args.output)
    print(f"wrote {dataset} -> {path}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .eval import (
        default_matrix,
        format_accuracy_table,
        max_roc_auc,
        run_matrix,
        smoke_matrix,
    )

    matrix = smoke_matrix() if args.matrix == "smoke" else default_matrix()
    overrides: dict[str, object] = {}
    if args.design:
        overrides["designs"] = tuple(dict.fromkeys(args.design))
    if args.snr:
        overrides["snrs"] = tuple(args.snr)
    if args.sf:
        overrides["sfs"] = tuple(args.sf)
    if args.subjects:
        overrides["subjects"] = tuple(args.subjects)
    if args.voxels is not None:
        overrides["n_voxels"] = args.voxels
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        matrix = matrix.scaled(**overrides)

    def _progress(result) -> None:
        if not args.json:
            print(f"  {result.scenario.key}: "
                  f"auc={result.score.roc_auc:.3f} "
                  f"({result.wall_seconds:.1f} s)", file=sys.stderr)

    results = run_matrix(
        matrix,
        executor=args.executor,
        n_workers=args.workers,
        progress=_progress,
    )
    best = max_roc_auc(results)
    below_floor = args.min_auc is not None and best < args.min_auc

    if args.json:
        report: dict[str, object] = {
            "matrix": {
                "designs": list(matrix.designs),
                "snrs": list(matrix.snrs),
                "sfs": list(matrix.sfs),
                "subjects": list(matrix.subjects),
                "n_voxels": matrix.n_voxels,
                "seed": matrix.seed,
            },
            "executor": args.executor,
            "n_scenarios": len(results),
            "scenarios": [
                {
                    "key": r.scenario.key,
                    "roc_auc": r.score.roc_auc,
                    "average_precision": r.score.average_precision,
                    "top_k_hit_rate": r.score.top_k_hit_rate,
                    "wall_seconds": r.wall_seconds,
                }
                for r in results
            ],
            "max_roc_auc": best,
        }
        if args.min_auc is not None:
            report["min_auc"] = args.min_auc
            report["passed"] = not below_floor
        print(json.dumps(report, indent=2))
    else:
        print(format_accuracy_table(results))
        print(f"best ROC-AUC {best:.3f} across {len(results)} scenario(s) "
              f"on executor '{args.executor}'")
        if args.min_auc is not None:
            verdict = "BELOW" if below_floor else "meets"
            print(f"accuracy floor: best ROC-AUC {best:.3f} {verdict} "
                  f"{args.min_auc:.3f}")
    return 1 if below_floor else 0


def _write_trace(spans, path: str, fmt: str) -> int:
    """Write a span list to ``path`` in the requested format.

    The write goes through a sibling temp file + ``os.replace`` so a
    reader (or a crash) never observes a half-written file — the same
    path may hold the crash-durable incremental trace of the run that
    just finished, and this rewrite must not tear it.
    """
    from .obs import to_chrome_trace, write_jsonl

    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        if fmt == "chrome":
            with open(tmp, "w") as fh:
                json.dump(to_chrome_trace(spans), fh, indent=2)
            n_spans = len(spans)
        else:
            n_spans = write_jsonl(spans, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return n_spans


class _LivePlane:
    """CLI-side assembly of the live telemetry plane (``--live``).

    Owns the :class:`~repro.obs.live.LiveRuntime`, the sink stack
    (in-memory ring always; JSON-lines / Prometheus when asked for),
    and the periodic publisher.  ``start``/``stop`` bracket the run:
    the runtime folds the spans the run's tracer closes in between, and
    ``stop`` returns the final snapshot for the run report.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.enabled = bool(args.live or args.live_events or args.prom_file)
        self.final: dict | None = None
        self.runtime = None
        self._publisher = None
        self._tracer = None
        if not self.enabled:
            return
        from .obs.live import (
            JsonlSink,
            LiveRuntime,
            PrometheusFileSink,
            RingSink,
            SnapshotPublisher,
        )

        self.runtime = LiveRuntime()
        self.ring = RingSink()
        sinks = [self.ring]
        if args.live_events:
            sinks.append(JsonlSink(args.live_events))
        if args.prom_file:
            sinks.append(PrometheusFileSink(args.prom_file))
        self._publisher = SnapshotPublisher(
            self.runtime, sinks, interval=args.live_interval
        )

    def start(self, tracer) -> None:
        if not self.enabled:
            return
        self._tracer = tracer
        self.runtime.attach_tracer(tracer)
        self._publisher.start()

    def stop(self) -> dict | None:
        if not self.enabled or self._publisher is None:
            return None
        self.final = self._publisher.stop()
        self._publisher = None
        self.runtime.detach_tracer(self._tracer)
        return self.final

    def summary_line(self) -> str | None:
        """One text-mode line describing what the plane observed."""
        if self.final is None:
            return None
        progress = self.final.get("progress", {})
        done = progress.get("done", 0)
        total = progress.get("total", 0)
        fraction = progress.get("fraction")
        pct = f"{fraction:.0%}" if fraction is not None else "n/a"
        return (f"live: {self.final.get('seq', 0) + 1} snapshots, "
                f"progress {done:g}/{total:g} ({pct})")


def _cmd_run(args: argparse.Namespace) -> int:
    from .data import load_dataset
    from .exec import RunContext, make_executor

    dataset = load_dataset(args.dataset)
    config = _pipeline_config(args, comm_timeout=args.comm_timeout)
    ctx = RunContext(config)
    mw_opts: dict[str, object] = {}
    if args.executor != "master-worker":
        # The serial executor has no ranks: a rank option would be
        # silently ignored.
        given = [
            flag
            for flag, set_ in (
                ("--workers", args.workers is not None),
                ("--transport", args.transport != "thread"),
                ("--partition", args.partition != "rows"),
                ("--listen", args.listen is not None),
                ("--hosts", args.hosts is not None),
            )
            if set_
        ]
        if given:
            print(
                f"error: {'/'.join(given)} require --executor master-worker",
                file=sys.stderr,
            )
            return 2
    if args.partition == "tiles" and config.resolved_emitter() != "dense":
        print(
            f"error: --partition tiles distributes the dense engine only; "
            f"--variant {config.variant} needs --partition rows",
            file=sys.stderr,
        )
        return 2
    if args.executor == "master-worker":
        mw_opts["transport"] = args.transport
        mw_opts["partition"] = args.partition
        if args.listen is not None:
            from .parallel.tcp_worker import parse_endpoint

            host, port = parse_endpoint(args.listen)
            mw_opts["host"] = host
            mw_opts["port"] = port
        if args.hosts is not None:
            if args.listen is None or mw_opts.get("port", 0) == 0:
                print(
                    "error: --hosts needs --listen HOST:PORT with an "
                    "explicit port so workers know where to connect",
                    file=sys.stderr,
                )
                return 2
            # External workers join via 'fcma worker --connect'.
            mw_opts["spawn"] = False
            args.workers = args.hosts
            print(
                f"waiting for {args.hosts} worker(s) on {args.listen} "
                f"('fcma worker --connect {args.listen}')",
                file=sys.stderr,
            )
    executor = make_executor(args.executor, n_workers=args.workers, **mw_opts)

    # Crash durability: while the run is in flight every closing span
    # is appended (and flushed) straight to the trace path, so a killed
    # process still leaves a readable prefix.  On success the standard
    # counted-header rewrite below replaces it atomically.
    inc_writer = None
    if args.trace and args.trace_format == "jsonl":
        from .obs import IncrementalJsonlWriter

        inc_writer = IncrementalJsonlWriter(args.trace)
        ctx.tracer.add_listener(inc_writer.on_span_close)

    live = _LivePlane(args)
    live.start(ctx.tracer)
    try:
        scores = executor.run(dataset, ctx)
    finally:
        live.stop()
        if inc_writer is not None:
            ctx.tracer.remove_listener(inc_writer.on_span_close)
            inc_writer.close()
    top = scores.top(args.top)

    trace_info = None
    if args.trace:
        # Attach model predictions (pc.* counters, predicted_seconds,
        # predicted_gflops) to the kernel spans before they leave the
        # process; the trace file then carries measured-vs-predicted.
        from .obs.perf import enrich_spans

        spans = ctx.tracer.spans()
        enrich_spans(spans)
        n_spans = _write_trace(spans, args.trace, args.trace_format)
        trace_info = {
            "path": args.trace,
            "format": args.trace_format,
            "n_spans": n_spans,
        }
    if args.json:
        report = ctx.timing_report()
        report["dataset"] = str(dataset)
        report["variant"] = config.variant
        report["emitter"] = config.resolved_emitter()
        report["top"] = [
            {"voxel": int(v), "accuracy": float(a)}
            for v, a in zip(top.voxels, top.accuracies)
        ]
        if trace_info is not None:
            report["trace"] = trace_info
        if live.final is not None:
            report["live"] = live.final
        print(json.dumps(report, indent=2))
        return 0

    print(f"dataset: {dataset}")
    print(f"executor: {ctx.metadata['executor']} "
          f"({ctx.metadata['n_tasks']} tasks, "
          f"{ctx.metadata['measured_elapsed_s']:.3f} s elapsed)")
    print("per-stage wall time:")
    for stage, stats in ctx.stages.items():
        print(f"  {stage:24s} {stats.seconds:8.3f} s  ({stats.calls} calls)")
    print(f"top {len(top)} voxels by cross-validated accuracy:")
    for voxel, acc in zip(top.voxels, top.accuracies):
        print(f"  voxel {voxel:6d}  accuracy {acc:.3f}")
    if trace_info is not None:
        print(f"trace: {trace_info['n_spans']} spans "
              f"({trace_info['format']}) -> {trace_info['path']}")
    live_line = live.summary_line()
    if live_line is not None:
        print(live_line)
        if args.live_events:
            print(f"live events: {args.live_events} "
                  f"('fcma top {args.live_events}' to view)")
        if args.prom_file:
            print(f"prometheus exposition: {args.prom_file}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from .data import load_dataset
    from .exec import RunContext, make_executor

    dataset = load_dataset(args.dataset)
    config = _pipeline_config(args)
    executor = make_executor(
        "master-worker" if args.workers > 1 else "serial", n_workers=args.workers
    )
    scores = executor.run(dataset, RunContext(config))
    top = scores.top(args.top)
    print(f"dataset: {dataset}")
    print(f"top {len(top)} voxels by cross-validated accuracy:")
    for voxel, acc in zip(top.voxels, top.accuracies):
        print(f"  voxel {voxel:6d}  accuracy {acc:.3f}")
    if args.output:
        ordered = scores.sorted_by_accuracy()
        with open(args.output, "w") as fh:
            fh.write("voxel,accuracy\n")
            for voxel, acc in zip(ordered.voxels, ordered.accuracies):
                fh.write(f"{voxel},{acc:.6f}\n")
        print(f"wrote all {len(scores)} scores to {args.output}")
    return 0


def _cmd_offline(args: argparse.Namespace) -> int:
    from .analysis import run_offline_analysis
    from .core import FCMAConfig
    from .data import load_dataset

    dataset = load_dataset(args.dataset)
    config = FCMAConfig(task_voxels=args.task_voxels)
    result = run_offline_analysis(dataset, config, top_k=args.top)
    print(f"nested LOSO over {len(result.folds)} subjects:")
    for fold in result.folds:
        print(f"  held-out subject {fold.held_out_subject}: "
              f"test accuracy {fold.test_accuracy:.3f}")
    print(f"mean held-out accuracy: {result.mean_test_accuracy:.3f}")
    counts = result.selection_counts(dataset.n_voxels)
    stable = int((counts >= len(result.folds) - 1).sum())
    print(f"voxels selected in >= {len(result.folds) - 1} folds: {stable}")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from .analysis import run_online_analysis
    from .core import FCMAConfig
    from .data import load_dataset

    dataset = load_dataset(args.dataset)
    config = FCMAConfig(online_folds=args.folds)
    result = run_online_analysis(
        dataset, subject=args.subject, config=config, top_k=args.top
    )
    print(f"subject {args.subject}: selected {len(result.selected)} voxels")
    print(f"  mean selection accuracy: {result.selected.accuracies.mean():.3f}")
    print(f"  classifier training accuracy: {result.training_accuracy:.3f}")
    print(f"  voxels: {result.selected.voxels.tolist()}")
    return 0


def _cmd_rtfmri(args: argparse.Namespace) -> int:
    from .core import FCMAConfig
    from .data import load_dataset
    from .rtfmri import ClosedLoopSession, ScannerSimulator

    dataset = load_dataset(args.dataset)
    config = FCMAConfig(online_folds=args.folds)
    scanner = ScannerSimulator(dataset, subject=args.subject)
    session = ClosedLoopSession(
        scanner,
        config,
        training_epochs=args.training_epochs,
        top_k=args.top_k,
        retrain_every=args.retrain_every,
        window_epochs=args.window_epochs,
    )
    live = _LivePlane(args)
    if live.enabled and args.latency_budget_ms is not None:
        live.runtime.set_gauge(
            "rtfmri_latency_budget_s", args.latency_budget_ms / 1e3
        )
    # Training and retrain runs record their plans and tasks, and the
    # feedback loop its steps, on the session's tracer: the plane folds it.
    live.start(session.context.tracer)
    try:
        result = session.run()
    finally:
        live.stop()
    stats = result.streaming
    p99_ms = stats.p99_step_latency_s * 1e3

    over_budget = (
        args.latency_budget_ms is not None
        and p99_ms > args.latency_budget_ms
    )
    if args.json:
        report = {
            "dataset": str(dataset),
            "subject": args.subject,
            "feedback_events": len(result.events),
            "feedback_accuracy": result.feedback_accuracy,
            "training_latency_s": result.training_latency_s,
            "max_feedback_latency_s": result.max_feedback_latency_s,
            "retrain_count": session.retrain_count,
            "streaming": {
                "trs_streamed": stats.trs_streamed,
                "epochs_completed": stats.epochs_completed,
                "warm_started_retrains": stats.warm_started_retrains,
                "median_step_ms": stats.median_step_latency_s * 1e3,
                "p99_step_ms": p99_ms,
                "max_step_ms": stats.max_step_latency_s * 1e3,
            },
        }
        if args.latency_budget_ms is not None:
            report["latency_budget_ms"] = args.latency_budget_ms
            report["within_budget"] = not over_budget
        if live.final is not None:
            report["live"] = live.final
        print(json.dumps(report, indent=2))
    else:
        print(f"dataset: {dataset}")
        print(f"feedback: {len(result.events)} events, "
              f"accuracy {result.feedback_accuracy:.3f}")
        print(f"training: {result.training_latency_s:.3f} s"
              + (f", {session.retrain_count} retrains "
                 f"({stats.warm_started_retrains} warm-started)"
                 if session.retrain_count else ""))
        print(f"streaming: {stats.trs_streamed} TRs, "
              f"{stats.epochs_completed} epochs completed")
        print(f"step latency: median "
              f"{stats.median_step_latency_s * 1e3:.3f} ms, "
              f"p99 {p99_ms:.3f} ms, "
              f"max {stats.max_step_latency_s * 1e3:.3f} ms")
        if args.latency_budget_ms is not None:
            verdict = "OVER" if over_budget else "within"
            print(f"latency budget: p99 {p99_ms:.3f} ms {verdict} "
                  f"{args.latency_budget_ms:.3f} ms")
        live_line = live.summary_line()
        if live_line is not None:
            print(live_line)
    return 1 if over_budget else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.experiments import render_claims, speedup, table1

    spec = _spec_for(args.dataset)
    hw = _machine_for(args.machine)
    print(f"machine: {hw}")
    print(render_claims(
        table1(spec, hw, args.task_voxels),
        title=f"Baseline instrumentation ({spec.name}, "
              f"{args.task_voxels}-voxel task)",
    ))
    print(f"\noptimized-over-baseline speedup (per voxel): "
          f"{speedup(spec, hw):.2f}x")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .bench import list_experiments, run_experiment

    if args.experiment is None:
        print("experiments:", ", ".join(list_experiments()))
        return 0
    try:
        print(run_experiment(args.experiment))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .bench.experiments import paper_workload
    from .cluster import ClusterConfig, simulate

    workload = paper_workload(args.mode, args.dataset, args.task_voxels)
    t_task = workload.folds[0].tasks[0].compute_seconds
    print(f"{args.mode} workload on {args.dataset}: "
          f"{workload.n_tasks} tasks x {t_task * 1e3:.1f} ms")
    base = None
    for n in args.nodes:
        res = simulate(workload, ClusterConfig(n_workers=n))
        if base is None:
            base = res.elapsed_seconds
        print(f"  {n:4d} coprocessors: {res.elapsed_seconds:10.2f} s  "
              f"(speedup {base / res.elapsed_seconds:6.1f}x, "
              f"utilization {res.utilization:.0%})")
    if args.trace:
        from .cluster import simulate_records
        from .obs import spans_from_simulation, write_jsonl

        n = max(args.nodes)
        schedule = simulate_records(workload, ClusterConfig(n_workers=n))
        n_spans = write_jsonl(spans_from_simulation(*schedule), args.trace)
        print(f"trace: {n_spans} spans ({n}-worker schedule) "
              f"-> {args.trace}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        format_metrics_table,
        metrics_table,
        read_jsonl,
        render_tree,
        to_chrome_trace,
    )

    try:
        spans = read_jsonl(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if args.view == "chrome":
        text = json.dumps(to_chrome_trace(spans), indent=2)
    elif args.view == "table":
        text = format_metrics_table(metrics_table(spans))
    else:
        text = render_tree(spans, max_depth=args.max_depth)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.view} view of {len(spans)} spans "
              f"to {args.output}")
    else:
        print(text)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .obs.live import read_latest_snapshot, render_snapshot

    if not args.follow:
        snapshot = read_latest_snapshot(args.events)
        if snapshot is None:
            print(f"top: no snapshots in {args.events}", file=sys.stderr)
            return 1
        print(render_snapshot(snapshot))
        return 0

    last_seq = None
    while True:
        snapshot = read_latest_snapshot(args.events)
        if snapshot is not None and snapshot.get("seq") != last_seq:
            last_seq = snapshot.get("seq")
            # ANSI clear + home keeps the dashboard in place on a
            # terminal; redirected output degrades to appended frames.
            if sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(render_snapshot(snapshot))
        if snapshot is not None and snapshot.get("final"):
            return 0
        time.sleep(args.refresh)


def _cmd_perf_report(args: argparse.Namespace) -> int:
    from .obs import read_jsonl
    from .obs.perf import enrich_spans, format_perf_report

    try:
        spans = read_jsonl(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    hw = _machine_for(args.machine)
    enrich_spans(spans, hw=hw)  # no-op on already-enriched traces
    print(format_perf_report(spans, hw))
    return 0


def _cmd_perf_calibrate(args: argparse.Namespace) -> int:
    from .bench import run_gate

    return run_gate()


def _cmd_perf(args: argparse.Namespace) -> int:
    return {
        "report": _cmd_perf_report,
        "calibrate": _cmd_perf_calibrate,
    }[args.perf_command](args)


def _cmd_worker(args: argparse.Namespace) -> int:
    from .parallel.tcp_worker import main as worker_main

    argv = ["--connect", args.connect]
    if args.timeout is not None:
        argv += ["--timeout", str(args.timeout)]
    return worker_main(argv)


_COMMANDS = {
    "generate": _cmd_generate,
    "scenarios": _cmd_scenarios,
    "run": _cmd_run,
    "worker": _cmd_worker,
    "select": _cmd_select,
    "offline": _cmd_offline,
    "online": _cmd_online,
    "rtfmri": _cmd_rtfmri,
    "report": _cmd_report,
    "reproduce": _cmd_reproduce,
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "perf": _cmd_perf,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error. Detach
        # stdout so the interpreter's exit-time flush doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
