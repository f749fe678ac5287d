"""Run one benchmark instance and print its measurements as one JSON line.

``run.py`` starts this in a fresh interpreter per instance, so peak RSS
is the peak of one run and no state leaks between instances::

    python3 perfbench/worker.py --workload create_storm --seed 7 --trace 0

Timed regions: set-up (config to first tick, once per process, so it is
always a cold set-up) and the tick loop. Epoch boundaries come from a
``TraceLog`` listener on ``epoch_start`` events. After the loop the result
is validated and the decision trace hashed. A fixed reference pass
(:func:`reference_s`) is timed before set-up and after the loop, so
``run.py`` can scale host times by how fast the machine was.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time

from shapes import Instance
from layers import LOOP_SPANS, LayerTracer, span_stats

import numpy as np

from repro.experiments.validation import validate


#: timed passes per reference measurement (after one warm-up pass)
REF_PASSES = 5


def reference_s() -> float:
    """Median seconds of :data:`REF_PASSES` fixed passes of interpreter and
    array work.

    The pass runs no code of the program, so its time tracks only how fast
    the machine is at the moment; the simulator's mix of dict/list work
    and numpy passes over ~10^5-element arrays is what it imitates. The
    collector is off so the heap left by a run cannot bill a collection
    to the pass.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_pass()  # warm-up: first-touch allocation, cold caches
        return statistics.median(_reference_pass() for _ in range(REF_PASSES))
    finally:
        if enabled:
            gc.enable()


def _reference_pass() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    slots = [0] * 1024
    acc = 0
    for i in range(75_000):
        k = (i * 2654435761) & 4095
        table[k] = table.get(k, 0) + 1
        slots[i & 1023] += k
        acc += len(table) if i & 7 == 0 else 1
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 20, size=200_000)
    index = rng.integers(0, 200_000, size=200_000)
    for _ in range(20):
        acc += int(values[index].sum() & 1)
        np.cumsum(values, out=values)
        np.bitwise_and(values, 0xFFFFF, out=values)
    return time.perf_counter() - t0


def sim_metrics(result) -> dict[str, float]:
    """The paper's outcome metrics of one run (deterministic at a seed)."""
    jct = result.job_completion_times()
    return {
        "sim_iops": float(result.aggregate_iops().mean()),
        "sim_if_mean": result.mean_if(),
        "sim_migrated_inodes": float(result.migrated_series[-1]),
        "sim_jct_p50_ticks": float(statistics.median(jct)) if jct.size else 0.0,
        "sim_makespan_ticks": float(result.finished_tick),
    }


def layer_metrics(tracer: LayerTracer, inst: Instance, result,
                  loop_s: float) -> dict[str, float]:
    """Per-layer times (s), counts and ratios of one traced run."""
    st = span_stats(tracer.prof.events())
    sim = inst.sim

    def part(name: str, key: str = "self") -> float:
        return st.get(name, {}).get(key, 0) / 1e6

    def calls(name: str) -> int:
        return st.get(name, {}).get("calls", 0)

    loop_top = sum(part(n, "top") for n in LOOP_SPANS)
    serve_self = part("kernel.serve_tick")
    served = sum(result.served_per_mds)
    committed, aborted = result.committed_tasks, result.aborted_tasks
    ledger = st.get("obs.ledger.build", {}).get("durs", [])
    tail = max(1, len(ledger) // 10)
    return {
        "workloads.materialize_s": part("workloads.materialize"),
        "namespace.n_dirs": sim.tree.n_dirs,
        "cluster.sim_init_s": part("cluster.sim_init"),
        "kernel.serve_tick.self_s": serve_self,
        "kernel.serve_tick.calls": calls("kernel.serve_tick"),
        "kernel.serve.ops_per_s": served / serve_self if serve_self else 0.0,
        "kernel.authtable.refresh_s": part("kernel.authtable.refresh"),
        "kernel.authtable.rebuilds": tracer.counts.get("kernel.authtable.rebuilds", 0),
        "cluster.stats.end_epoch_s": part("cluster.stats.end_epoch"),
        "core.snapshot_view_s": part("core.snapshot_view"),
        "balancers.on_epoch.self_s": part("balancers.on_epoch"),
        "balancers.candidates_s": part("balancers.candidates"),
        "balancers.candidates.calls": calls("balancers.candidates"),
        "balancers.candidates.emitted":
            tracer.counts.get("balancers.candidates.emitted", 0),
        "cluster.apply_plan_s": part("cluster.apply_plan"),
        "namespace.merge_s": part("namespace.merge"),
        "namespace.subtree_roots": len(sim.authmap.subtree_roots()),
        "cluster.migrator.tick_s": part("cluster.migrator.tick"),
        "cluster.migration.committed": committed,
        "cluster.migration.aborted": aborted,
        "cluster.migration.commit_ratio":
            committed / (committed + aborted) if committed + aborted else 0.0,
        "cluster.migration.inodes": sim.migrator.migrated_inodes,
        "cluster.router.forwards": result.total_forwards,
        "obs.ledger.build_share": part("obs.ledger.build") / loop_s,
        "obs.ledger.calls": len(ledger),
        "obs.ledger.growth": (sum(ledger[-tail:]) / max(1, sum(ledger[:tail]))
                              if ledger else 0.0),
        "obs.recorder.sample_share": part("obs.recorder.sample") / loop_s,
        "obs.workload_profile_share": part("obs.workload_profile") / loop_s,
        "obs.trace.events": sim.trace.emitted,
        "serve.bus.publish_share": part("serve.bus.publish") / loop_s,
        "serve.bus.events": calls("serve.bus.publish"),
        "serve.events_dropped": sim.metrics.get_value("serve.events_dropped") or 0,
        "bench.unattributed_frac": max(0.0, 1.0 - loop_top / loop_s),
        # loop self times keyed by span, for the shares the docs record
        "_self_s": {name: part(name) for name in LOOP_SPANS if name in st},
        "_loop_s": loop_s,
    }


def run_instance(workload: str, seed: int, *, trace: bool = False,
                 perfetto: str | None = None, size: dict | None = None) -> dict:
    """Set up, run and check one instance; returns its measurements."""
    tracer = LayerTracer() if trace else None
    inst = Instance(workload, seed, **(size or {}))
    ref_s = [reference_s()]
    try:
        if tracer is not None:
            tracer.install_modules(inst.served)
        t0 = time.perf_counter()
        inst.setup(tracer.prof.span if tracer is not None else None)
        setup_s = time.perf_counter() - t0
        sim = inst.sim
        if tracer is not None:
            tracer.install_live(sim, inst.service)
        marks: list[float] = []

        def tap(event) -> None:
            if event.etype == "epoch_start":
                marks.append(time.perf_counter())

        sim.trace.add_listener(tap)
        t0 = time.perf_counter()
        result = inst.loop()
        t1 = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loop_s = t1 - t0
        bounds = [t0, *marks]
        out = {
            "workload": workload,
            "seed": seed,
            "loop_s": loop_s,
            "epoch_ms": [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])],
            "meta_ops": result.meta_ops,
            "peak_rss_mb": peak_rss_mb,
            "clients": len(sim.clients),
            "clients_done": len(result.completion_ticks),
            "problems": validate(sim, result).problems,
            "digest": hashlib.sha256(sim.trace.dumps().encode()).hexdigest(),
            "sim": sim_metrics(result),
        }
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, inst, result, loop_s)
            if perfetto:
                tracer.prof.dump_perfetto(perfetto)
    finally:
        if tracer is not None:
            tracer.restore()
    del inst, sim, result
    gc.collect()
    ref_s.append(reference_s())
    out["setup_s"] = setup_s
    out["ref_s"] = ref_s
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perfetto", default=None,
                    help="write the traced run's spans as Chrome trace JSON")
    args = ap.parse_args(argv)
    out = run_instance(args.workload, args.seed, trace=bool(args.trace),
                       perfetto=args.perfetto)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
