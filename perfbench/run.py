"""The repository benchmark: three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload create_storm --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload, defaults

A run covers ``n`` distinct workload instances derived from ``--seed``
(instance ``j`` uses workload seed ``seed + 1000 * j``); ``n`` follows from
``--seconds`` alone (``RUN_S_PER_INSTANCE``), so the same arguments always
simulate the same inputs. Each instance runs in its own
interpreter (``worker.py``). With ``--trace 0`` the end-to-end metrics
come from untraced instances; with ``--trace 1`` every instance runs
untraced and then traced, and the per-layer metrics come from the traced
runs, whose spans are also written as Chrome trace-event JSON (loadable in
Perfetto) under ``perfbench/out/``.

Every instance is checked: ``validate()`` must pass, every client must
finish, and traced and untraced decision traces (made under different
``PYTHONHASHSEED`` values) must hash the same. A violation fails all of
that instance's client jobs and makes the command exit 1. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

At the instance seeds recorded in ``baseline.json`` the trace hash is also
compared with the recorded one. A mismatch means the program now makes
different decisions, not that it is broken: it is reported on its own
``DECISIONS CHANGED`` lines and fails nothing. After an intended decision
change, re-record the hashes with ``--record-digests`` (see the README).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
BASELINE = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))

#: measured wall seconds of one instance (interpreter start, reference
#: passes, set-up, loop and checks) on the calibration machine: a run
#: covers round(seconds / RUN_S_PER_INSTANCE) distinct instances (at
#: least 3), so it takes about --seconds there
RUN_S_PER_INSTANCE = {"create_storm": 2.4, "megatree": 8.0, "served_mixed": 7.5}
#: seconds of worker.reference_s() on the calibration machine (2-vCPU
#: Xeon VM); host times are scaled by SPEED_REF_S / the pass's time in
#: the same process, so drift in machine speed cancels out of them
SPEED_REF_S = 0.055
#: a single instance that takes longer than this has failed
CHILD_TIMEOUT_S = 120
#: a run still starting instances this far in is a benchmark error (it
#: must end < 180 s); it exits 3 without a result rather than measure
#: fewer instances, which would change the sim_* means
RUN_BUDGET_S = 150

#: metric name -> unit, end to end and per layer, as BENCHMARK.json lists
#: them (worker.layer_metrics computes the per-layer ones)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def n_instances(workload: str, seconds: int, trace: bool) -> int:
    """Instances per run; a traced run runs each twice, so covers half."""
    n = max(3, round(seconds / RUN_S_PER_INSTANCE[workload]))
    return max(2, math.ceil(n / 2)) if trace else n


def spawn(workload: str, seed: int, *, trace: bool, hashseed: int) -> dict:
    """Run one instance in a fresh interpreter; ``{"error": ...}`` on failure."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--perfetto", str(OUT_DIR / f"{workload}-{seed}.trace.json")]
    # a different hash seed per process: decisions must not depend on it
    env = {**os.environ, "PYTHONHASHSEED": str(hashseed)}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def instance_problems(rec: dict) -> list[str]:
    """Why an instance's output is wrong (empty when it is right)."""
    if "error" in rec:
        return [rec["error"]]
    problems = list(rec["problems"])
    if rec["clients_done"] != rec["clients"]:
        problems.append(f"{rec['clients'] - rec['clients_done']} clients "
                        "did not finish")
    return problems


def recorded_digest(workload: str, seed: int) -> str | None:
    """The trace hash ``baseline.json`` records for an instance seed."""
    return BASELINE["digests"].get(workload, {}).get(str(seed))


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` over 100 cuts)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(rec: dict) -> float:
    """An instance's host-time scale: the calibration machine's reference
    time over the reference time measured around the instance."""
    return SPEED_REF_S / statistics.fmean(rec["ref_s"])


def e2e_metrics(recs: list[dict]) -> dict[str, float]:
    """End-to-end metrics over a run's good untraced instances."""
    epochs = [ms * speed(r) for r in recs for ms in r["epoch_ms"]]
    out = {
        "sim_ops_per_s": statistics.median(
            r["meta_ops"] / (r["loop_s"] * speed(r)) for r in recs),
        "epoch_ms_p50": quantile(epochs, 50),
        "epoch_ms_p90": quantile(epochs, 90),
        "setup_s": statistics.median(r["setup_s"] * speed(r) for r in recs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
    }
    for name in ("sim_iops", "sim_if_mean", "sim_migrated_inodes",
                 "sim_jct_p50_ticks", "sim_makespan_ticks"):
        out[name] = statistics.fmean(r["sim"][name] for r in recs)
    return out


def layer_metrics(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Per-layer metrics: means over the traced instances of a run."""
    traced = [t["layers"] for _, t in pairs]
    own = ("bench.trace_overhead_frac", "bench.ref_s")
    out = {name: statistics.fmean(layers[name] for layers in traced)
           for name in LAYER_UNITS if name not in own}
    out["bench.trace_overhead_frac"] = statistics.median(
        t["loop_s"] / u["loop_s"] for u, t in pairs) - 1.0
    out["bench.ref_s"] = statistics.fmean(
        statistics.fmean(t["ref_s"]) for _, t in pairs)
    return out


def self_shares(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Each span's self time as a share of the traced loop time."""
    loop = sum(t["layers"]["_loop_s"] for _, t in pairs)
    names = sorted({n for _, t in pairs for n in t["layers"]["_self_s"]})
    shares = {n: sum(t["layers"]["_self_s"].get(n, 0.0) for _, t in pairs) / loop
              for n in names}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


class BudgetExhausted(RuntimeError):
    """The run could not start all its instances within RUN_BUDGET_S."""


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run every instance of one workload; returns the result object.

    ``result["digests"]`` maps each good instance seed to its trace hash;
    ``result["changed"]`` lists the instance seeds whose hash differs from
    the recorded one.
    """
    from shapes import SHAPES, instance_seed

    started = time.perf_counter()
    attempted = failed = 0
    good: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    digests: dict[str, str] = {}
    changed: list[int] = []
    n = n_instances(workload, seconds, trace)
    for j in range(n):
        iseed = instance_seed(seed, j)
        if time.perf_counter() - started > RUN_BUDGET_S:
            raise BudgetExhausted(f"{workload}: {RUN_BUDGET_S} s spent after "
                                  f"{j} of {n} instances")
        recs = [spawn(workload, iseed, trace=False, hashseed=2 * j)]
        if trace:
            recs.append(spawn(workload, iseed, trace=True, hashseed=2 * j + 1))
        problems = [p for r in recs for p in instance_problems(r)]
        if len({r.get("digest") for r in recs}) != 1:
            problems.append("traced and untraced decision traces differ")
        clients = max(r.get("clients", SHAPES[workload]["clients"]) for r in recs)
        attempted += clients * len(recs)
        if problems:
            failed += clients * len(recs)
            for p in problems:
                print(f"FAIL {workload} seed {iseed}: {p}", file=sys.stderr)
            continue
        good.append(recs[0])
        if trace:
            pairs.append((recs[0], recs[1]))
        digest = recs[0]["digest"]
        digests[str(iseed)] = digest
        expected = recorded_digest(workload, iseed)
        if expected is not None and digest != expected:
            changed.append(iseed)
            print(f"DECISIONS CHANGED {workload} seed {iseed}: trace digest "
                  f"{digest[:12]} != recorded {expected[:12]}", file=sys.stderr)
        print(f"  {workload} seed {iseed}: digest {digest[:16]} "
              f"loop {recs[0]['loop_s']:.3f} s, host-time scale "
              f"{speed(recs[0]):.3f}", flush=True)
    if trace:
        metrics = layer_metrics(pairs) if pairs else {}
        units = LAYER_UNITS
    else:
        metrics = e2e_metrics(good) if good else {}
        units = E2E_UNITS
    result = {
        "correct": bool(good) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    if pairs:
        result["shares"] = self_shares(pairs)
    result["digests"] = digests
    result["changed"] = changed
    return result


def report(workload: str, result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    frac = result["failed"] / result["attempted"]
    print(f"{workload}: failed_frac {frac:.4f} "
          f"({result['failed']}/{result['attempted']} client jobs)")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for name, share in result.get("shares", {}).items():
        print(f"  share {name:28s} {share:8.4f}")
    if result["changed"]:
        print(f"  decisions changed at {len(result['changed'])} recorded "
              "seed(s); if intended, re-record with --record-digests")


def record_digests(results: dict[str, dict]) -> None:
    """Write the runs' trace hashes into ``baseline.json``."""
    for workload, result in results.items():
        BASELINE["digests"].setdefault(workload, {}).update(result["digests"])
    (HERE / "baseline.json").write_text(json.dumps(BASELINE, indent=2) + "\n",
                                        encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*RUN_S_PER_INSTANCE, "all"])
    ap.add_argument("--seed", type=int, default=BASELINE["default_seed"])
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's trace hashes in baseline.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not \
            (ROOT / "benchmarks" / "bench_core_speed.py").is_file():
        print(f"error: {ROOT} is not a repro checkout (src/repro and "
              "benchmarks/bench_core_speed.py are needed)", file=sys.stderr)
        return 2
    names = list(RUN_S_PER_INSTANCE) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except BudgetExhausted as exc:
            print(f"benchmark error: run time budget exhausted: {exc}",
                  file=sys.stderr)
            return 3
        report(name, results[name])
    if args.record_digests:
        record_digests(results)
    if len(names) == 1:
        r = results[names[0]]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
