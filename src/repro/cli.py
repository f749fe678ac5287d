"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``    — one simulation (workload x balancer) with a summary report;
  ``--record DIR`` turns on the flight recorder and writes the run's
  artifacts (time series, trace, metrics, Perfetto spans) to DIR,
- ``report`` — render a recorded run directory into a Markdown/HTML report,
- ``sweep``  — a workload x balancer grid on the parallel experiment
  engine; ``--record DIR`` aggregates observability across the pool,
- ``trace``  — run with decision tracing and export/summarize the JSONL
  (sliceable with ``--etype`` / ``--epoch-range`` / ``--decision``),
- ``explain`` — walk a recorded trace's decision-provenance DAG: why each
  migration happened (IF inputs → role → subtree → commit/abort) and why
  quiet epochs stayed quiet,
- ``diff``   — align two recorded traces and report their first semantic
  divergence with both causal chains and the input deltas,
- ``chaos``  — run a declarative fault scenario (bundled or a TOML/JSON
  file) against a balancer and print/score its robustness report,
- ``serve``  — run the simulation as a long-running service with a live
  HTTP telemetry plane (``/metrics``, ``/status``, ``/events`` stream)
  and epoch-boundary config mutation via ``POST /config``,
- ``top``    — terminal dashboard polling a running ``repro serve``,
- ``figure`` — regenerate one of the paper's tables/figures (or ``all``),
- ``lint``   — run the repo's AST invariant linter (determinism, layering,
  trace schema, float equality; see ``docs/STATIC_ANALYSIS.md``),
- ``list``   — available workloads, balancers and figure ids.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro.experiments import figures as F
from repro.experiments.config import BENCH_SIM_CONFIG, ExperimentConfig
from repro.experiments.report import render_kv, render_trace_summary
from repro.experiments.runner import run_experiment, run_traced
from repro.obs.events import EVENT_TYPES

__all__ = ["main", "build_parser"]

WORKLOAD_NAMES = ("cnn", "nlp", "web", "zipf", "mdtest", "mixed")
BALANCER_NAMES = ("vanilla", "greedyspill", "dirhash", "nop", "mantle",
                  "lunule", "lunule-light")

FIGURES = {
    "table1": lambda scale, seed: F.table1_workloads(scale, seed),
    "fig2": lambda scale, seed: F.fig2_request_distribution(scale, seed),
    "fig3": lambda scale, seed: F.fig3_per_mds_throughput(scale, seed),
    "fig4": lambda scale, seed: F.fig4_migrated_inodes(scale, seed),
    "fig6": lambda scale, seed: F.fig6_imbalance_factor(scale, seed),
    "fig7": lambda scale, seed: F.fig7_throughput(scale, seed),
    "fig8": lambda scale, seed: F.fig8_end_to_end(scale, seed),
    "fig9": lambda scale, seed: F.fig9_mixed_if(scale, seed),
    "fig10": lambda scale, seed: F.fig10_mixed_throughput(scale, seed),
    "fig11": lambda scale, seed: F.fig11_jct_cdf(scale, seed),
    "fig12a": lambda scale, seed: F.fig12a_cluster_expansion(scale, seed),
    "fig12b": lambda scale, seed: F.fig12b_client_growth(scale, seed),
    "fig13a": lambda scale, seed: F.fig13a_scalability(scale, seed),
    "fig13b": lambda scale, seed: F.fig13b_dirhash_throughput(scale, seed),
    "fig14": lambda scale, seed: F.fig14_dirhash_distribution(scale, seed),
}


def _positive_int(text: str) -> int:
    """argparse type for a count: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a capacity or scale: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Lunule (SC '21) on a simulated CephFS "
                    "MDS cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload under one balancer")
    run_p.add_argument("--workload", "-w", choices=WORKLOAD_NAMES, default="zipf")
    run_p.add_argument("--balancer", "-b", choices=BALANCER_NAMES, default="lunule")
    run_p.add_argument("--clients", "-c", type=_positive_int, default=20)
    run_p.add_argument("--mds", "-m", type=_positive_int, default=5)
    run_p.add_argument("--capacity", type=_positive_float, default=100.0,
                       help="metadata ops per tick per MDS")
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument("--scale", type=_positive_float, default=1.0,
                       help="dataset/op-count multiplier")
    run_p.add_argument("--engine", choices=("scalar", "columnar"),
                       default=None,
                       help="serve-path engine (default: the config default, "
                            "columnar; scalar is the reference path)")
    run_p.add_argument("--data-path", action="store_true",
                       help="enable the OSD data path (end-to-end runs)")
    run_p.add_argument("--record", metavar="DIR",
                       help="enable the flight recorder and write the run's "
                            "artifacts (time series, trace, metrics, Perfetto "
                            "spans) to DIR")
    run_p.add_argument("--clock", choices=("logical", "wall"), default="logical",
                       help="span clock for --record (logical = byte-stable)")
    run_p.add_argument("--profile", action="store_true",
                       help="with --record: characterize the workload each "
                            "epoch (heat/load skew, hotspot share, churn, "
                            "op mix) as wl.* time-series columns and "
                            "workload.* gauges")

    rep_p = sub.add_parser(
        "report",
        help="render a recorded run directory (repro run --record DIR) into "
             "a Markdown report")
    rep_p.add_argument("dir", metavar="DIR",
                       help="artifact directory written by repro run --record")
    rep_p.add_argument("--html", action="store_true",
                       help="also write a self-contained report.html")

    sw_p = sub.add_parser(
        "sweep",
        help="run a workload x balancer grid on the parallel experiment engine")
    sw_p.add_argument("--workloads", "-w", nargs="+", choices=WORKLOAD_NAMES,
                      default=["cnn", "nlp", "web", "zipf", "mdtest"])
    sw_p.add_argument("--balancers", "-b", nargs="+", choices=BALANCER_NAMES,
                      default=["vanilla", "lunule"])
    sw_p.add_argument("--clients", "-c", type=_positive_int, default=20)
    sw_p.add_argument("--seed", type=int, default=7)
    sw_p.add_argument("--scale", type=_positive_float, default=1.0,
                      help="dataset/op-count multiplier")
    sw_p.add_argument("--workers", "-j", type=_positive_int, default=None,
                      help="worker processes (default: CPU count)")
    sw_p.add_argument("--record", metavar="DIR",
                      help="record every run and write the deterministically "
                           "aggregated observability (merged metrics, "
                           "per-run time series, combined Perfetto trace) "
                           "to DIR")

    tr_p = sub.add_parser(
        "trace",
        help="run one simulation with decision tracing; dump/summarize JSONL")
    tr_p.add_argument("--workload", "-w", choices=WORKLOAD_NAMES, default="zipf")
    tr_p.add_argument("--balancer", "-b", choices=BALANCER_NAMES, default="lunule")
    tr_p.add_argument("--clients", "-c", type=_positive_int, default=20)
    tr_p.add_argument("--mds", "-m", type=_positive_int, default=5)
    tr_p.add_argument("--capacity", type=_positive_float, default=100.0,
                      help="metadata ops per tick per MDS")
    tr_p.add_argument("--seed", type=int, default=7)
    tr_p.add_argument("--scale", type=_positive_float, default=1.0,
                      help="dataset/op-count multiplier")
    tr_p.add_argument("--engine", choices=("scalar", "columnar"),
                      default=None,
                      help="serve-path engine; traces must match between "
                           "the two (see repro diff)")
    tr_p.add_argument("--out", "-o", metavar="FILE",
                      help="write the decision trace as JSONL to FILE")
    tr_p.add_argument("--ring", type=_positive_int, metavar="N",
                      help="keep only the most recent N events (O(1) memory)")
    tr_p.add_argument("--from", dest="from_file", metavar="FILE",
                      help="summarize an existing JSONL trace instead of running")
    tr_p.add_argument("--etype", action="append", choices=sorted(EVENT_TYPES),
                      metavar="TYPE",
                      help="keep only events of this type (repeatable; one of: "
                           + ", ".join(sorted(EVENT_TYPES)) + ")")
    tr_p.add_argument("--epoch-range", metavar="LO:HI",
                      help="keep only events in this inclusive epoch range "
                           "(e.g. 2:5; open ends allowed: ':5', '2:', '3')")
    tr_p.add_argument("--decision", type=int, metavar="ID",
                      help="keep only this decision's causal chain (its "
                           "ancestors and descendants in the provenance DAG)")

    ex_p = sub.add_parser(
        "explain",
        help="why (and why not) a recorded run migrated: per-epoch causal "
             "chains from the decision-provenance DAG")
    ex_p.add_argument("run", metavar="RUN",
                      help="a run directory written by `repro run --record` "
                           "or a decision-trace .jsonl file")
    ex_p.add_argument("--epoch", type=int, metavar="E",
                      help="narrow the report to one epoch")
    sel = ex_p.add_mutually_exclusive_group()
    sel.add_argument("--rank", type=int, metavar="R",
                     help="only migrations touching this MDS rank")
    sel.add_argument("--subtree", metavar="S",
                     help="only migrations of this unit (a dir id like '7' "
                          "or a dirfrag like 'frag:3:1:0')")
    ex_p.add_argument("--outcomes", action="store_true",
                      help="judge each committed migration with the "
                           "cost/benefit ledger (paid_off / neutral / "
                           "wasted / ping_pong) and summarize the verdicts")
    ex_p.add_argument("--format", choices=("text", "json"), default="text")

    df_p = sub.add_parser(
        "diff",
        help="first semantic divergence between two recorded runs "
             "(exit 0: identical decisions, 1: divergent)")
    df_p.add_argument("run_a", metavar="RUN_A",
                      help="run directory or trace .jsonl (baseline)")
    df_p.add_argument("run_b", metavar="RUN_B",
                      help="run directory or trace .jsonl (comparison)")
    df_p.add_argument("--format", choices=("text", "json"), default="text")

    ch_p = sub.add_parser(
        "chaos",
        help="run a fault scenario (bundled name or TOML/JSON file) and "
             "score the balancer's recovery")
    ch_p.add_argument("scenario", metavar="SCENARIO", nargs="?",
                      help="scenario file path, or a bundled scenario name "
                           "(see --list)")
    ch_p.add_argument("--list", action="store_true", dest="list_scenarios",
                      help="list bundled scenarios and exit")
    ch_p.add_argument("--seed", type=int, default=0,
                      help="seeds the run and the schedule's stochastic "
                           "events (one integer pins everything)")
    ch_p.add_argument("--balancer", "-b", choices=BALANCER_NAMES,
                      default="lunule")
    ch_p.add_argument("--workload", "-w", choices=WORKLOAD_NAMES,
                      default="mdtest")
    ch_p.add_argument("--clients", "-c", type=_positive_int, default=8)
    ch_p.add_argument("--mds", "-m", type=_positive_int, default=None,
                      help="cluster size (default: the chaos bench config's)")
    ch_p.add_argument("--engine", choices=("scalar", "columnar"),
                      default=None,
                      help="serve-path engine for the disturbed run")
    ch_p.add_argument("--scale", type=_positive_float, default=0.15,
                      help="dataset/op-count multiplier")
    ch_p.add_argument("--out", "-o", metavar="FILE",
                      help="write the JSON robustness report to FILE")
    ch_p.add_argument("--trace", metavar="FILE",
                      help="write the decision trace as JSONL to FILE")
    ch_p.add_argument("--record", metavar="DIR",
                      help="write the full artifact directory (plus "
                           "chaos.json) to DIR")
    ch_p.add_argument("--format", choices=("text", "json"), default="text")

    srv_p = sub.add_parser(
        "serve",
        help="run the simulation as a service with a live HTTP telemetry "
             "plane (metrics scrape, status, event stream, live config)")
    srv_p.add_argument("--workload", "-w", choices=WORKLOAD_NAMES, default="zipf")
    srv_p.add_argument("--balancer", "-b", choices=BALANCER_NAMES, default="lunule")
    srv_p.add_argument("--clients", "-c", type=_positive_int, default=20)
    srv_p.add_argument("--mds", "-m", type=_positive_int, default=5)
    srv_p.add_argument("--capacity", type=_positive_float, default=100.0,
                       help="metadata ops per tick per MDS")
    srv_p.add_argument("--seed", type=int, default=7)
    srv_p.add_argument("--scale", type=_positive_float, default=1.0,
                       help="dataset/op-count multiplier")
    srv_p.add_argument("--engine", choices=("scalar", "columnar"), default=None)
    srv_p.add_argument("--data-path", action="store_true",
                       help="enable the OSD data path")
    srv_p.add_argument("--chaos", metavar="SCENARIO",
                       help="bind a chaos scenario (bundled name or file) "
                            "into the live service")
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=0,
                       help="control-plane port (0 = ephemeral)")
    srv_p.add_argument("--port-file", metavar="FILE",
                       help="write the bound port to FILE once listening "
                            "(CI handshake for --port 0)")
    srv_p.add_argument("--rate", type=float, default=None,
                       help="throttle to at most this many ticks/second "
                            "(default: unthrottled)")
    srv_p.add_argument("--tick-slice", type=int, default=64,
                       help="ticks simulated per scheduler slice")
    srv_p.add_argument("--paused", action="store_true",
                       help="start paused (resume via POST /resume)")
    srv_p.add_argument("--record", metavar="DIR",
                       help="flush the run's artifact directory to DIR on "
                            "shutdown")
    srv_p.add_argument("--clock", choices=("logical", "wall"),
                       default="logical",
                       help="span clock for the flight recorder")

    top_p = sub.add_parser(
        "top",
        help="terminal dashboard over a running repro serve (polls /status)")
    top_p.add_argument("url", metavar="URL",
                       help="service base URL (http://HOST:PORT, HOST:PORT "
                            "or a bare port on localhost)")
    top_p.add_argument("--interval", type=float, default=1.0,
                       help="seconds between repaints")
    top_p.add_argument("--once", action="store_true",
                       help="print a single frame and exit (no screen clear)")

    fig_p = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig_p.add_argument("id", choices=sorted(FIGURES) + ["all"])
    fig_p.add_argument("--scale", type=_positive_float, default=1.0)
    fig_p.add_argument("--seed", type=int, default=7)

    lint_p = sub.add_parser(
        "lint",
        help="run the AST invariant linter over the tree (exit 1 on findings)")
    lint_p.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                        help="files or directories to lint (default: src)")
    lint_p.add_argument("--format", choices=("text", "json", "github"),
                        default="text",
                        help="report format (json is the CI artifact form; "
                             "github emits Actions annotation commands)")
    lint_p.add_argument("--rule", action="append", metavar="RULE_ID",
                        help="run only this rule id (repeatable; unknown ids "
                             "are an error — see --list-rules)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="list registered rule ids and exit")
    lint_p.add_argument("--baseline", choices=("write", "check"),
                        help="write: accept current findings into the "
                             "baseline file; check: fail only on findings "
                             "beyond the committed baseline (the ratchet)")
    lint_p.add_argument("--baseline-file", default="lint-baseline.json",
                        metavar="PATH",
                        help="baseline location (default: "
                             "lint-baseline.json)")
    lint_p.add_argument("--fix-suppressions", action="store_true",
                        help="delete inline '# repro-lint: disable=' "
                             "comments that match no finding, then re-lint")

    ovh_p = sub.add_parser("overhead",
                           help="control-plane overhead accounting (paper §3.4)")
    ovh_p.add_argument("--mds", "-m", type=_positive_int, default=5)
    ovh_p.add_argument("--seed", type=int, default=7)

    sub.add_parser("list", help="list workloads, balancers and figure ids")
    return parser


def _cmd_run(args, out) -> int:
    sim_cfg = BENCH_SIM_CONFIG.with_(n_mds=args.mds, mds_capacity=args.capacity)
    if args.engine:
        sim_cfg = sim_cfg.with_(engine=args.engine)
    if args.record:
        sim_cfg = sim_cfg.with_(record=True, record_clock=args.clock,
                                workload_profile=args.profile)
    cfg = ExperimentConfig(workload=args.workload, balancer=args.balancer,
                           n_clients=args.clients, seed=args.seed,
                           scale=args.scale, data_path=args.data_path,
                           sim=sim_cfg)
    if args.record:
        from repro.experiments.recording import write_run_artifacts

        res, sim = run_traced(cfg)
        paths = write_run_artifacts(
            args.record, sim, res,
            extra_meta={"seed": args.seed, "n_clients": args.clients,
                        "scale": args.scale})
    else:
        res = run_experiment(cfg)
    jct = res.job_completion_times()
    pairs = [
        ("workload", res.workload),
        ("balancer", res.balancer),
        ("MDSs", args.mds),
        ("clients", args.clients),
        ("finished at (ticks)", res.finished_tick),
        ("mean imbalance factor", res.mean_if(skip=2)),
        ("peak aggregate IOPS", res.peak_iops()),
        ("mean op latency (ticks)", res.mean_latency(skip=2)),
        ("migrated inodes", res.migrated_series[-1] if res.migrated_series else 0),
        ("committed / aborted exports", f"{res.committed_tasks} / {res.aborted_tasks}"),
        ("forward hops", res.total_forwards),
        ("mean JCT (ticks)", float(jct.mean()) if jct.size else float("nan")),
        ("metadata-op ratio", res.meta_ratio()),
    ]
    print(render_kv("Simulation summary", pairs), file=out)
    if args.record:
        print(f"  recorded {len(paths)} artifacts in {args.record} "
              f"(render with: repro report {args.record})", file=out)
    return 0


def _cmd_report(args, out) -> int:
    import pathlib

    from repro.experiments.recording import load_run_artifacts
    from repro.obs.report import render_html, render_run_report

    try:
        loaded = load_run_artifacts(args.dir)
    except (FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    markdown = render_run_report(
        loaded["meta"], timeseries=loaded["timeseries"],
        events=loaded["events"], metrics=loaded["metrics"],
        span_events=loaded["span_events"], chaos=loaded.get("chaos"))
    run_dir = pathlib.Path(args.dir)
    md_path = run_dir / "report.md"
    md_path.write_text(markdown, encoding="utf-8", newline="\n")
    written = [str(md_path)]
    if args.html:
        meta = loaded["meta"]
        title = (f"repro run report — {meta.get('workload', '?')} x "
                 f"{meta.get('balancer', '?')}")
        html_path = run_dir / "report.html"
        html_path.write_text(render_html(markdown, title=title),
                             encoding="utf-8", newline="\n")
        written.append(str(html_path))
    print(markdown, file=out)
    print(f"  wrote {', '.join(written)}", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    import os
    import time

    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.report import render_table
    from repro.experiments.runner import run_matrix

    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    base = ExperimentConfig(n_clients=args.clients, seed=args.seed,
                            scale=args.scale)
    engine = ExperimentEngine(workers=workers)
    start = time.perf_counter()
    if args.record:
        matrix, agg_paths = _sweep_recorded(args, base, engine)
    else:
        matrix = run_matrix(list(args.workloads), list(args.balancers), base,
                            engine=engine)
    elapsed = time.perf_counter() - start
    rows = []
    for (w, b), res in matrix.items():
        sustained = sum(res.served_per_mds) / max(1, res.finished_tick)
        rows.append([w, b, res.mean_if(skip=2), sustained,
                     float(res.finished_tick),
                     res.migrated_series[-1] if res.migrated_series else 0])
    print(render_table(
        ["workload", "balancer", "mean IF", "sustained IOPS", "runtime",
         "migrated"],
        rows,
        title=f"Sweep — {len(rows)} runs, {workers} worker(s), seed {args.seed}"),
        file=out)
    print(f"  wall-clock {elapsed:.2f}s; engine cache: {engine.misses} run, "
          f"{engine.hits} reused", file=out)
    if args.record:
        print(f"  recorded aggregate observability in {args.record} "
              f"({', '.join(sorted(agg_paths))})", file=out)
    return 0


def _sweep_recorded(args, base, engine):
    """Run the sweep grid with the flight recorder on and write the
    deterministic cross-run aggregate into ``args.record``."""
    import json
    import pathlib
    from dataclasses import replace

    from repro.obs.prom import write_textfile

    cells = [(w, b) for w in args.workloads for b in args.balancers]
    cfgs = [replace(base, workload=w, balancer=b) for w, b in cells]
    labels = [f"{w}x{b}" for w, b in cells]
    results, aggregate = engine.run_with_obs(cfgs, labels=labels)
    matrix = dict(zip(cells, results))

    out_dir = pathlib.Path(args.record)
    out_dir.mkdir(parents=True, exist_ok=True)
    agg_path = out_dir / "aggregate.json"
    with open(agg_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(aggregate, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    spans_path = out_dir / "sweep.perfetto.json"
    with open(spans_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"traceEvents": aggregate["spans"],
                   "displayTimeUnit": "ms"},
                  fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    prom_path = out_dir / "metrics.prom"
    write_textfile(aggregate["metrics"], prom_path)
    return matrix, [p.name for p in (agg_path, spans_path, prom_path)]


def _parse_epoch_range(spec: str) -> tuple[int, int]:
    """``'2:5'`` -> (2, 5); open ends: ``':5'``, ``'2:'``; bare ``'3'``."""
    text = spec.strip()
    try:
        if ":" not in text:
            lo = hi = int(text)
        else:
            lo_s, _, hi_s = text.partition(":")
            lo = int(lo_s) if lo_s.strip() else 0
            hi = int(hi_s) if hi_s.strip() else sys.maxsize
    except ValueError:
        raise ValueError(
            f"bad --epoch-range {spec!r}: expected LO:HI, ':HI', 'LO:' or "
            f"a single epoch number") from None
    if lo > hi:
        raise ValueError(f"bad --epoch-range {spec!r}: {lo} > {hi}")
    return lo, hi


def _apply_trace_filters(events, args, epoch_range):
    """The ``repro trace`` slicing pipeline (type / epoch / decision chain).

    Raises ``ValueError`` when ``--decision`` names an id the trace never
    recorded.
    """
    from repro.obs.provenance import ProvenanceGraph
    from repro.obs.tracelog import filter_events

    decision_ids = None
    if args.decision is not None:
        graph = ProvenanceGraph(events)
        if args.decision not in graph:
            raise ValueError(
                f"decision {args.decision} is not in this trace "
                f"({len(graph)} decisions recorded)")
        decision_ids = graph.chain_ids(args.decision)
    return filter_events(events, etypes=args.etype, epoch_range=epoch_range,
                         decision_ids=decision_ids)


def _cmd_trace(args, out) -> int:
    from repro.obs.tracelog import read_jsonl, write_jsonl

    epoch_range = None
    if args.epoch_range is not None:
        try:
            epoch_range = _parse_epoch_range(args.epoch_range)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    filtering = (args.etype is not None or epoch_range is not None
                 or args.decision is not None)

    if args.from_file:
        try:
            events = list(read_jsonl(args.from_file))
        except OSError as exc:
            print(f"error: cannot read trace {args.from_file}: {exc}",
                  file=sys.stderr)
            return 2
        total = len(events)
        if filtering:
            try:
                events = _apply_trace_filters(events, args, epoch_range)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        print(render_trace_summary(events,
                                   title=f"Decision trace ({args.from_file})"),
              file=out)
        if filtering:
            print(f"  (filters kept {len(events)} of {total} events)", file=out)
        if args.out:
            write_jsonl(args.out, events)
            print(f"  wrote {len(events)} events to {args.out}", file=out)
        return 0

    sim_cfg = BENCH_SIM_CONFIG.with_(n_mds=args.mds, mds_capacity=args.capacity,
                                     trace_capacity=args.ring)
    if args.engine:
        sim_cfg = sim_cfg.with_(engine=args.engine)
    cfg = ExperimentConfig(workload=args.workload, balancer=args.balancer,
                           n_clients=args.clients, seed=args.seed,
                           scale=args.scale, sim=sim_cfg)
    res, sim = run_traced(cfg)
    events = list(sim.trace)
    if filtering:
        try:
            events = _apply_trace_filters(events, args, epoch_range)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    title = f"Decision trace ({res.workload} x {res.balancer}, seed {args.seed})"
    print(render_trace_summary(events, title=title), file=out)
    if sim.trace.dropped:
        print(f"  (ring buffer kept {len(sim.trace)} of "
              f"{sim.trace.emitted} events)", file=out)
    if filtering:
        print(f"  (filters kept {len(events)} of {len(sim.trace)} events)",
              file=out)
    if args.out:
        write_jsonl(args.out, events)
        print(f"  wrote {len(events)} events to {args.out}", file=out)
    return 0


def _load_trace_events(path: str) -> list:
    """Events from a run directory (``RUN/trace.jsonl``) or a .jsonl file."""
    import pathlib

    from repro.obs.tracelog import read_jsonl

    p = pathlib.Path(path)
    if p.is_dir():
        p = p / "trace.jsonl"
    if not p.is_file():
        raise FileNotFoundError(
            f"no decision trace at {p} (expected a run directory written by "
            f"`repro run --record` or a trace .jsonl file)")
    return list(read_jsonl(p))


def _cmd_explain(args, out) -> int:
    import json

    from repro.obs.provenance import explain, render_explain

    try:
        events = _load_trace_events(args.run)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = explain(events, epoch=args.epoch, rank=args.rank,
                     subtree=args.subtree, outcomes=args.outcomes)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        print(render_explain(report), file=out)
    return 0


def _cmd_diff(args, out) -> int:
    import json

    from repro.obs.diff import diff_traces, render_diff

    try:
        events_a = _load_trace_events(args.run_a)
        events_b = _load_trace_events(args.run_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = diff_traces(events_a, events_b)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        print(render_diff(report), file=out)
    # diff(1) semantics: 0 = same decisions, 1 = divergent, 2 = trouble
    return 1 if report["divergent"] else 0


def _cmd_chaos(args, out) -> int:
    import json

    from repro.chaos.schedule import ChaosError, bundled_scenarios
    from repro.experiments.chaos import run_chaos

    if args.list_scenarios:
        from repro.chaos.schedule import load_schedule

        for name, path in sorted(bundled_scenarios().items()):
            desc = load_schedule(path).description
            print(f"{name:12} {desc}", file=out)
        return 0
    if not args.scenario:
        print("error: SCENARIO is required (or use --list)", file=sys.stderr)
        return 2
    try:
        report, result, sim = run_chaos(
            args.scenario, seed=args.seed, balancer=args.balancer,
            workload=args.workload, n_clients=args.clients, n_mds=args.mds,
            scale=args.scale, engine=args.engine, record_dir=args.record)
    except (ChaosError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        sim.trace.dump_jsonl(args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        print(_render_chaos_report(report), file=out)
        extras = []
        if args.trace:
            extras.append(f"trace: {args.trace}")
        if args.out:
            extras.append(f"report: {args.out}")
        if args.record:
            extras.append(f"artifacts: {args.record}")
        if extras:
            print("  wrote " + ", ".join(extras), file=out)
    return 0


def _render_chaos_report(report: dict) -> str:
    from repro.experiments.report import render_kv

    scn, run, score = report["scenario"], report["run"], report["score"]
    mean_rec = score["mean_recovery_epochs"]
    pairs = [
        ("scenario", f"{scn['name']} (seed {scn['seed']})"),
        ("description", scn["description"]),
        ("workload x balancer", f"{run['workload']} x {run['balancer']}"),
        ("MDSs / clients", f"{run['n_mds']} / {run['n_clients']}"),
        ("epochs / finished tick", f"{run['epochs']} / {run['finished_tick']}"),
        ("faults injected / cleared",
         f"{report['faults_injected']} / {report['faults_cleared']}"),
        ("mean recovery (epochs)",
         "never" if mean_rec is None else f"{mean_rec:.2f}"),
        ("unrecovered faults", score["unrecovered_faults"]),
        ("aborted tasks (mds_failed)", score["aborted_tasks"]),
        ("aborted inodes (waste)", score["aborted_inodes"]),
        ("IF overshoot area", f"{score['if_overshoot_area']:.3f}"),
        ("mean IF", run["mean_if"]),
    ]
    lines = [render_kv("Chaos robustness", pairs)]
    if report["windows"]:
        lines.append("  fault windows:")
        for w in report["windows"]:
            extra = f" x{w['factor']}" if w["kind"] == "slow" else ""
            lines.append(f"    rank {w['rank']}: {w['kind']}{extra} "
                         f"epochs {w['start_epoch']}-{w['end_epoch']} "
                         f"({w['source']})")
    return "\n".join(lines)


def _cmd_serve(args, out) -> int:
    import asyncio
    import signal

    from repro.serve import ControlPlane, SimulatorService

    sim_cfg = BENCH_SIM_CONFIG.with_(
        n_mds=args.mds, mds_capacity=args.capacity,
        # the recorder feeds /timeseries, the perf gauges feed /status,
        # the workload profiler feeds the live skew/churn readouts —
        # none touches the decision trace, which stays byte-identical
        # to an unserved `repro run` of the same seed (golden-gated)
        record=True, record_clock=args.clock, perf_gauges=True,
        workload_profile=True)
    if args.engine:
        sim_cfg = sim_cfg.with_(engine=args.engine)
    chaos = None
    if args.chaos:
        from repro.chaos import ChaosController, load_schedule
        from repro.chaos.schedule import ChaosError
        from repro.experiments.chaos import resolve_scenario

        try:
            chaos = ChaosController(load_schedule(resolve_scenario(args.chaos)),
                                    seed=args.seed)
        except (ChaosError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    cfg = ExperimentConfig(workload=args.workload, balancer=args.balancer,
                           n_clients=args.clients, seed=args.seed,
                           scale=args.scale, data_path=args.data_path,
                           sim=sim_cfg)
    try:
        service = SimulatorService(cfg, chaos=chaos, rate=args.rate,
                                   tick_slice=args.tick_slice)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plane = ControlPlane(service, host=args.host, port=args.port)
    plane.start()
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{plane.port}\n")
    print(f"serving {args.workload} x {args.balancer} (seed {args.seed}) "
          f"on {plane.url}", file=out)
    print("  endpoints: GET /metrics /status /timeseries /events; "
          "POST /config /pause /resume /step /shutdown", file=out)
    if args.paused:
        service.start()
        service.pause()
    # SIGTERM winds down like POST /shutdown; SIGINT (KeyboardInterrupt)
    # takes the same graceful path through the except below
    try:
        signal.signal(signal.SIGTERM, lambda *_: service.request_stop())
    except ValueError:
        pass  # not the main thread (embedded use); POST /shutdown still works
    try:
        asyncio.run(service.drive())
    except KeyboardInterrupt:
        service.request_stop()
    finally:
        plane.stop()
    res = service.result
    print(f"  {service.state} at tick {service.sim.tick} "
          f"({len(res.if_series) if res is not None else 0} epochs, "
          f"{service.mutations_applied} config change(s) applied)", file=out)
    if args.record and res is not None:
        from repro.experiments.recording import write_run_artifacts

        paths = write_run_artifacts(
            args.record, service.sim, res,
            extra_meta={"seed": args.seed, "n_clients": args.clients,
                        "scale": args.scale, "mode": "serve",
                        "mutations_applied": service.mutations_applied})
        print(f"  recorded {len(paths)} artifacts in {args.record} "
              f"(render with: repro report {args.record})", file=out)
    return 0


def _cmd_top(args, out) -> int:
    from repro.serve import top

    url = args.url
    if url.isdigit():
        url = f"127.0.0.1:{url}"
    if "://" not in url:
        url = f"http://{url}"
    return top(url.rstrip("/"), interval=args.interval,
               iterations=1 if args.once else None, out=out)


def _cmd_figure(args, out) -> int:
    ids = sorted(FIGURES) if args.id == "all" else [args.id]
    for fid in ids:
        result = FIGURES[fid](args.scale, args.seed)
        print(result.text, file=out)
        print(file=out)
    return 0


def _cmd_list(out) -> int:
    print("workloads :", ", ".join(WORKLOAD_NAMES), file=out)
    print("balancers :", ", ".join(BALANCER_NAMES), file=out)
    print("figures   :", ", ".join(sorted(FIGURES)), file=out)
    from repro.chaos.schedule import bundled_scenarios

    print("scenarios :", ", ".join(sorted(bundled_scenarios())), file=out)
    print("extras    : overhead (paper §3.4 accounting), "
          "trace (decision-trace JSONL export), "
          "explain (decision-provenance chains), "
          "diff (first divergence between two runs), "
          "chaos (fault scenarios + robustness scoring), "
          "sweep (parallel workload x balancer grids), "
          "serve (live HTTP telemetry plane), "
          "top (terminal dashboard over a running serve), "
          "lint (AST invariant linter)", file=out)
    return 0


def _cmd_lint(args, out) -> int:
    from repro.lint import (
        all_rules,
        check_baseline,
        fix_suppressions,
        lint_paths,
        render_github,
        render_json,
        render_text,
        write_baseline,
    )
    from repro.lint.engine import LintResult

    if args.list_rules:
        for rid, rule in sorted(all_rules().items()):
            print(f"{rid:16} {rule.description}", file=out)
        return 0
    try:
        result = lint_paths(args.paths, rules=args.rule)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fix_suppressions and result.unused_suppressions:
        n = fix_suppressions(result.unused_suppressions)
        print(f"removed {n} stale suppression(s); re-linting", file=out)
        result = lint_paths(args.paths, rules=args.rule)
    if args.baseline == "write":
        n = write_baseline(result, args.baseline_file)
        print(f"wrote {n} baseline entr{'y' if n == 1 else 'ies'} "
              f"({len(result.findings)} finding(s)) to "
              f"{args.baseline_file}", file=out)
        return 0
    if args.baseline == "check":
        try:
            new, stale = check_baseline(result, args.baseline_file)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = LintResult(findings=new, checked=result.checked,
                            unused_suppressions=result.unused_suppressions)
        for key in stale:
            print(f"note: baseline entry no longer produced: "
                  f"{key[0]} [{key[1]}] — refresh with --baseline write",
                  file=out)
    render = {"json": render_json, "github": render_github}.get(
        args.format, render_text)
    print(render(result), end="", file=out)
    return result.exit_code


def _cmd_overhead(args, out) -> int:
    from repro.experiments.overhead import measure_overhead

    report = measure_overhead(args.mds, seed=args.seed)
    print(report.table(), file=out)
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "explain":
        return _cmd_explain(args, out)
    if args.command == "diff":
        return _cmd_diff(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "top":
        return _cmd_top(args, out)
    if args.command == "figure":
        return _cmd_figure(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    if args.command == "overhead":
        return _cmd_overhead(args, out)
    if args.command == "list":
        return _cmd_list(out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
