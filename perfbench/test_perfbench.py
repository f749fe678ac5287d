"""The benchmark's own checks, on shrunken versions of each workload.

Run with ``python3 -m pytest perfbench``. Three equivalences keep the
benchmark's numbers honest: the scalar and columnar engines make the same
decisions, the served run makes the batch run's decisions, and the traced
run's wrappers change no decision. The harness tests check how ``run.py``
judges instance records: a changed decision trace is reported, not failed.
"""

from __future__ import annotations

import json

import pytest
from shapes import SHAPES, Instance  # first: puts src/ on sys.path
from layers import LayerTracer
from worker import run_instance
import run

import repro.core.balancer as core_balancer
import repro.serve.service as service_mod
from repro.obs.spans import totals_from_events
from repro.obs.workload import WorkloadProfile
from repro.workloads.mixed import MixedWorkload

#: small sizes with the same shape; megatree stays above the sparse
#: candidate threshold (65,536 dirs)
SMALL = {
    "create_storm": {"clients": 8, "creates": 4000, "n_mds": 4},
    "megatree": {"clients": 16, "creates": 400, "cold_dirs": 70_000,
                 "n_mds": 8},
    "served_mixed": {"clients": 8, "scale": 0.25},
}
SEED = 3


def trace_bytes(workload: str, **kw) -> str:
    inst = Instance(workload, SEED, **{**SMALL[workload], **kw})
    inst.setup()
    result = inst.loop()
    assert len(result.completion_ticks) == len(inst.sim.clients)
    return inst.sim.trace.dumps()


def test_small_sizes_cover_every_workload():
    assert set(SMALL) == set(SHAPES)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_scalar_and_columnar_traces_identical(workload):
    columnar = trace_bytes(workload, engine="columnar")
    assert columnar
    assert trace_bytes(workload, engine="scalar") == columnar


def test_served_mixed_matches_batch_run():
    served = trace_bytes("served_mixed")
    assert served
    assert trace_bytes("served_mixed", served=False) == served


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_leaves_trace_unchanged(workload, tmp_path):
    plain = run_instance(workload, SEED, size=SMALL[workload])
    out = tmp_path / "spans.json"
    traced = run_instance(workload, SEED, size=SMALL[workload], trace=True,
                          perfetto=str(out))
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["digest"] == plain["digest"]
    assert traced["sim"] == plain["sim"]
    layers = traced["layers"]
    assert layers["kernel.serve_tick.calls"] > 0
    assert layers["balancers.candidates.calls"] > 0
    assert 0.0 <= layers["bench.unattributed_frac"] < 1.0
    # the export is a Chrome trace-event file with properly paired spans
    doc = json.loads(out.read_text(encoding="utf-8"))
    totals = totals_from_events(doc["traceEvents"])
    assert totals["kernel.serve_tick"]["count"] == layers["kernel.serve_tick.calls"]


def test_tracer_restore_undoes_every_patch():
    before = (core_balancer.candidates_for, service_mod.build_ledger,
              vars(WorkloadProfile)["compute"], vars(MixedWorkload)["materialize"])
    inst = Instance("served_mixed", SEED, **SMALL["served_mixed"])
    tracer = LayerTracer()
    tracer.install_modules(served=True)
    inst.setup(tracer.prof.span)
    tracer.install_live(inst.sim, inst.service)
    assert core_balancer.candidates_for is not before[0]
    tracer.restore()
    after = (core_balancer.candidates_for, service_mod.build_ledger,
             vars(WorkloadProfile)["compute"], vars(MixedWorkload)["materialize"])
    assert after == before
    for obj in (inst.sim, inst.sim.engine, inst.sim.stats, inst.service.bus):
        assert not any(callable(v) and hasattr(v, "__wrapped__")
                       for v in vars(obj).values())


def fake_record(seed: int, digest: str, **kw) -> dict:
    return {"workload": "create_storm", "seed": seed, "loop_s": 1.0,
            "epoch_ms": [10.0, 12.0, 11.0], "meta_ops": 1000,
            "peak_rss_mb": 50.0, "clients": 4, "clients_done": 4,
            "problems": [], "digest": digest, "setup_s": 0.01,
            "ref_s": [run.SPEED_REF_S, run.SPEED_REF_S],
            "sim": {"sim_iops": 5.0, "sim_if_mean": 0.2,
                    "sim_migrated_inodes": 7.0, "sim_jct_p50_ticks": 9.0,
                    "sim_makespan_ticks": 12.0}, **kw}


def test_changed_decisions_are_reported_not_failed(monkeypatch):
    monkeypatch.setitem(run.BASELINE["digests"], "create_storm",
                        {"1": "a" * 64, "1001": "b" * 64})
    monkeypatch.setattr(run, "spawn",
                        lambda _w, seed, **_k: fake_record(seed, "a" * 64))
    result = run.run_workload("create_storm", 1, 3, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["changed"] == [1001]
    assert result["digests"]["1"] == "a" * 64
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_unfinished_clients_fail_the_instance(monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda _w, seed, **_k: fake_record(
        seed, "a" * 64, clients_done=3 if seed == 1 else 4))
    result = run.run_workload("create_storm", 1, 3, trace=False)
    assert not result["correct"]
    assert result["failed"] == 4
    assert result["attempted"] == 4 * run.n_instances("create_storm", 3, False)
