"""The live telemetry plane: service lifecycle, event bus, HTTP, top.

The central contract under test is determinism: a :class:`SimulatorService`
driving the simulator incrementally (sync or async, throttled or not)
must reproduce the batch ``run_traced`` decision trace *byte for byte*
when no mutations are queued. Everything else — the bounded event bus,
the stdlib control plane, runtime mutation at epoch boundaries, the
``repro top`` renderer — layers on top of that guarantee.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster.simulator import SimConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_simulator, run_traced
from repro.obs.events import OUTCOME_VERDICTS
from repro.obs.outcomes import build_ledger
from repro.obs.prom import parse_openmetrics
from repro.obs.provenance import explain, render_explain
from repro.obs.report import render_run_report
from repro.serve import (
    OPENMETRICS_CONTENT_TYPE,
    ControlPlane,
    EventBus,
    MutationError,
    SimulatorService,
    render_top,
)

#: small but complete: the trigger fires, migrations commit, several epochs
SERVE_SIM = SimConfig(n_mds=3, mds_capacity=60.0, epoch_len=5,
                      max_ticks=3000, migration_rate=50, seed=0)


def serve_cfg(workload: str = "mdtest", **sim_overrides) -> ExperimentConfig:
    return ExperimentConfig(workload=workload, balancer="lunule", n_clients=8,
                            seed=7, scale=0.15,
                            sim=SERVE_SIM.with_(**sim_overrides))


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


def _post(url: str, doc: dict | None = None):
    body = json.dumps(doc or {}).encode()
    req = urllib.request.Request(url, data=body, method="POST",
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


# --------------------------------------------------------------- determinism
class TestServeDeterminism:
    @pytest.mark.parametrize("record", [False, True])
    def test_sync_service_trace_matches_batch(self, record):
        _, batch = run_traced(serve_cfg(record=record))
        svc = SimulatorService(serve_cfg(record=record))
        svc.run_to_completion()
        assert svc.state == "done"
        assert svc.sim.trace.dumps() == batch.trace.dumps()

    def test_async_drive_trace_matches_batch(self):
        # the actual `repro serve` path: asyncio driver, sliced ticks
        _, batch = run_traced(serve_cfg())
        svc = SimulatorService(serve_cfg(), tick_slice=17)
        svc.start()
        asyncio.run(svc.drive())
        assert svc.state == "done"
        assert svc.sim.trace.dumps() == batch.trace.dumps()

    def test_perf_gauges_do_not_touch_the_trace(self):
        _, batch = run_traced(serve_cfg())
        svc = SimulatorService(serve_cfg(perf_gauges=True))
        svc.run_to_completion()
        assert svc.sim.trace.dumps() == batch.trace.dumps()
        eps = svc.sim.metrics.get_value("sim.epochs_per_second")
        ops = svc.sim.metrics.get_value("serve.ops_per_second")
        assert eps is not None and eps > 0
        assert ops is not None and ops > 0

    def test_batch_run_has_no_perf_gauges_by_default(self):
        _, sim = run_traced(serve_cfg())
        assert sim.metrics.get_value("sim.epochs_per_second") is None


# ----------------------------------------------------- incremental simulator
class TestIncrementalSimulator:
    def test_step_tick_protocol_equals_run(self):
        a = build_simulator(serve_cfg())
        b = build_simulator(serve_cfg())
        a.run()
        b.start()
        while b.step_tick():
            pass
        b.finish()
        assert b.trace.dumps() == a.trace.dumps()
        assert b.tick == a.tick and b.epoch == a.epoch

    def test_step_tick_false_after_completion(self):
        sim = build_simulator(serve_cfg())
        sim.start()
        while sim.step_tick():
            pass
        assert sim.step_tick() is False

    def test_set_epoch_len_rebases_boundary(self):
        sim = build_simulator(serve_cfg())
        sim.start()
        for _ in range(5):  # exactly one epoch at epoch_len=5
            sim.step_tick()
        assert sim.epoch == 1
        sim.set_epoch_len(3)
        assert sim.config.epoch_len == 3
        before = sim.epoch
        for _ in range(3):
            sim.step_tick()
        assert sim.epoch == before + 1

    def test_set_epoch_len_rejects_nonpositive(self):
        sim = build_simulator(serve_cfg())
        with pytest.raises(ValueError):
            sim.set_epoch_len(0)


# ------------------------------------------------------------------ eventbus
class TestEventBus:
    def test_fanout_and_unsubscribe(self):
        bus = EventBus(capacity=8)
        a, b = bus.subscribe(), bus.subscribe()
        assert bus.subscribers == 2
        bus.publish("x")
        assert a.get(timeout=1) == "x"
        assert b.get(timeout=1) == "x"
        b.close()
        assert bus.subscribers == 1
        bus.publish("y")
        assert a.get(timeout=1) == "y"
        assert b.qsize() == 0

    def test_slow_consumer_drops_never_blocks(self):
        class Counter:
            n = 0

            def inc(self, v: float = 1.0) -> None:
                self.n += v

        counter = Counter()
        bus = EventBus(capacity=4, drop_counter=counter)
        sub = bus.subscribe()
        for i in range(10):
            bus.publish(i)
        assert bus.published == 10
        assert sub.dropped == 6
        assert bus.dropped == 6
        assert counter.n == 6
        # the retained prefix is the oldest events, in order
        assert [sub.get(timeout=1) for _ in range(4)] == [0, 1, 2, 3]

    def test_publish_without_subscribers_is_free(self):
        bus = EventBus(capacity=2)
        bus.publish("ignored")
        assert bus.dropped == 0


# ----------------------------------------------------------------- mutations
class TestMutations:
    def test_mutations_apply_at_epoch_boundary(self):
        svc = SimulatorService(serve_cfg())
        svc.start()
        queued = svc.queue_mutations({"if_threshold": 0.5, "epoch_len": 7})
        assert queued == 2
        svc.run_to_completion()
        assert svc.mutations_applied == 2
        assert svc.sim.balancer.initiator_config.if_threshold == 0.5
        assert svc.sim.config.epoch_len == 7
        changed = svc.sim.trace.events("config_changed")
        assert [e.key for e in changed] == ["if_threshold", "epoch_len"]
        # applied at the first boundary after queueing, with fresh dids
        assert all(e.tick == changed[0].tick for e in changed)
        assert changed[0].did >= 0 and changed[1].did == changed[0].did + 1
        assert svc.sim.metrics.get_value("serve.config_changes") == 2

    def test_balancer_swap_changes_decisions(self):
        svc = SimulatorService(serve_cfg())
        svc.start()
        svc.queue_mutations({"balancer": "nop"})
        svc.run_to_completion()
        assert type(svc.sim.balancer).__name__ == "NopBalancer"
        changed = svc.sim.trace.events("config_changed")
        assert changed and changed[0].value == "nop"

    def test_explain_surfaces_config_changes(self):
        svc = SimulatorService(serve_cfg())
        svc.start()
        svc.queue_mutations({"if_threshold": 0.9})
        svc.run_to_completion()
        report = explain(svc.sim.trace.events())
        buckets = [b for b in report["epochs"] if b["config"]]
        assert len(buckets) == 1
        (entry,) = buckets[0]["config"]
        assert entry["key"] == "if_threshold" and entry["value"] == "0.9"
        text = render_explain(report)
        assert "config_changed" in text and "if_threshold" in text

    def test_bad_mutations_rejected_before_queueing(self):
        svc = SimulatorService(serve_cfg())
        with pytest.raises(MutationError, match="settable"):
            svc.queue_mutations({"not_a_knob": 1})
        with pytest.raises(MutationError):
            svc.queue_mutations({"epoch_len": -3})
        with pytest.raises(MutationError):
            svc.queue_mutations({"if_threshold": "nan-ish-garbage"})
        with pytest.raises(MutationError):
            svc.queue_mutations({"balancer": "definitely-not-registered"})
        with pytest.raises(MutationError):
            svc.queue_mutations({})
        # values their consumers would reject at the boundary (killing a
        # running service) or misparse: checked at queue time instead
        for bad in ({"regression_window": 0}, {"regression_window": -3},
                    {"urgency_smoothness": 2.0},
                    {"urgency_smoothness": float("nan")},
                    {"use_urgency": "false"}, {"epoch_len": 3.9},
                    {"epoch_len": True}, {"if_threshold": float("inf")}):
            with pytest.raises(MutationError):
                svc.queue_mutations(bad)
        assert not svc._pending

    def test_valid_values_queue_coerced(self):
        svc = SimulatorService(serve_cfg())
        svc.queue_mutations({"use_urgency": False, "regression_window": 3.0,
                             "epoch_len": 4, "urgency_smoothness": 1})
        assert svc._pending == [("use_urgency", False),
                                ("regression_window", 3), ("epoch_len", 4),
                                ("urgency_smoothness", 1.0)]

    def test_initiator_knobs_need_an_initiator(self):
        svc = SimulatorService(ExperimentConfig(
            workload="mdtest", balancer="nop", n_clients=8, seed=7,
            scale=0.15, sim=SERVE_SIM))
        with pytest.raises(MutationError, match="initiator"):
            svc.queue_mutations({"if_threshold": 0.5})


# -------------------------------------------------------------- control plane
class TestControlPlane:
    @pytest.fixture()
    def plane(self):
        svc = SimulatorService(serve_cfg(record=True), tick_slice=16)
        plane = ControlPlane(svc, port=0)
        plane.start()
        yield svc, plane
        plane.stop()

    def test_status_metrics_timeseries_and_404(self, plane):
        svc, plane = plane
        svc.start()
        svc.pause()
        code, ctype, body = _get(plane.url + "/status")
        assert code == 200 and "application/json" in ctype
        doc = json.loads(body)
        assert doc["state"] == "paused"
        assert doc["n_mds"] == 3 and len(doc["loads"]) == 3

        code, ctype, body = _get(plane.url + "/metrics")
        assert code == 200 and ctype == OPENMETRICS_CONTENT_TYPE
        families = parse_openmetrics(body.decode())
        # registered at construction, present from tick 0 onward
        assert "trace_events_dropped" in families
        assert "serve_events_dropped" in families

        code, _, body = _get(plane.url + "/timeseries")
        assert code == 200
        ts = json.loads(body)
        assert set(ts) >= {"columns", "rows", "appended"}

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(plane.url + "/nope")
        with err.value:
            assert err.value.code == 404

    def test_lifecycle_step_and_config_over_http(self, plane):
        svc, plane = plane
        svc.start()
        svc.pause()
        tick0 = svc.sim.tick
        code, doc = _post(plane.url + "/step", {"ticks": 4})
        assert code == 200
        # grant is consumed by the driver; emulate one slice inline
        with svc.lock:
            svc._advance(svc._step_budget)
            svc._step_budget = 0
        assert svc.sim.tick == tick0 + 4

        code, doc = _post(plane.url + "/config", {"if_threshold": 0.42})
        assert code == 202 and doc["queued"] == 1

        with pytest.raises(urllib.error.HTTPError) as err:
            _post(plane.url + "/config", {"bogus": 1})
        with err.value:
            assert err.value.code == 400
            assert "settable" in json.loads(err.value.read())["error"]

        code, doc = _post(plane.url + "/resume")
        assert code == 200 and svc.state == "running"
        code, doc = _post(plane.url + "/pause")
        assert code == 200 and svc.state == "paused"
        code, doc = _post(plane.url + "/shutdown")
        assert code == 200 and doc["stopping"] is True
        assert svc._stop_requested

    def test_metrics_scrape_roundtrip_under_concurrent_ticking(self):
        # satellite: live /metrics must stay parseable by the repo's own
        # OpenMetrics parser while the simulation is mutating the registry.
        # Unthrottled, this run ends in ~20 ms, which can be before the
        # first scrape; at 400 ticks/s it lasts ~0.1 s, and the lock is
        # free between slices.
        svc = SimulatorService(serve_cfg(perf_gauges=True), tick_slice=8,
                               rate=400.0)
        plane = ControlPlane(svc, port=0)
        plane.start()
        svc.start()
        driver = threading.Thread(
            target=lambda: asyncio.run(svc.drive()), daemon=True)
        driver.start()
        try:
            scrapes = 0
            while not svc.finished and scrapes < 50:
                _, ctype, body = _get(plane.url + "/metrics")
                assert ctype == OPENMETRICS_CONTENT_TYPE
                families = parse_openmetrics(body.decode())
                # a scrape holds the service lock, so the first epoch
                # boundary sets sim.epochs and mds.load together: a scrape
                # can land before both, never between them
                if "sim_epochs" in families:
                    assert "mds_load" in families
                scrapes += 1
            assert scrapes > 0
            driver.join(timeout=30)
            assert svc.finished
            # final scrape round-trips the live registry faithfully
            _, _, body = _get(plane.url + "/metrics")
            families = parse_openmetrics(body.decode())
            assert "sim_epochs" in families and "mds_load" in families
            (sample,) = families["sim_ops_served"]["samples"]
            assert sample[2] == pytest.approx(
                svc.sim.metrics.get_value("sim.ops_served"))
            (sample,) = families["sim_epochs_per_second"]["samples"]
            assert sample[2] == pytest.approx(
                svc.sim.metrics.get_value("sim.epochs_per_second"))
        finally:
            svc.request_stop()
            plane.stop()

    def test_event_stream_delivers_config_changed(self):
        svc = SimulatorService(serve_cfg(), tick_slice=4, rate=400)
        plane = ControlPlane(svc, port=0)
        plane.start()
        svc.start()
        driver = threading.Thread(
            target=lambda: asyncio.run(svc.drive()), daemon=True)
        try:
            lines: list[dict] = []

            def consume():
                with urllib.request.urlopen(plane.url + "/events",
                                            timeout=30) as resp:
                    for raw in resp:
                        if raw.strip():
                            lines.append(json.loads(raw))

            reader = threading.Thread(target=consume, daemon=True)
            reader.start()
            driver.start()
            _post(plane.url + "/config", {"if_threshold": 0.33})
            driver.join(timeout=60)
            reader.join(timeout=30)
            assert svc.finished
            etypes = {line["e"] for line in lines}
            assert "config_changed" in etypes
            assert "epoch_start" in etypes
        finally:
            svc.request_stop()
            plane.stop()


# ----------------------------------------------------------------- dashboard
class TestDashboard:
    def _status(self) -> dict:
        svc = SimulatorService(serve_cfg(record=True, perf_gauges=True))
        svc.run_to_completion()
        return svc.status()

    def test_render_top_snapshot(self):
        status = self._status()
        screen = render_top(status)
        assert "mdtest" in screen and "lunule" in screen
        assert "mds.0" in screen and "mds.2" in screen
        assert f"tick {status['tick']}" in screen
        assert "IF" in screen

    def test_render_top_warns_on_drops(self):
        status = self._status()
        status["bus"]["dropped"] = 9
        status["trace"]["dropped"] = 2
        screen = render_top(status)
        assert "trace ring dropped 2" in screen
        assert "event bus dropped 9" in screen

    def test_render_top_marks_failed_mds(self):
        status = self._status()
        status["failed"] = [1]
        screen = render_top(status)
        line = next(ln for ln in screen.splitlines() if "mds.1" in ln)
        assert "DOWN" in line


class TestLedgerPlane:
    """The live cost/benefit ledger and workload line on /status + top."""

    def _status(self) -> dict:
        svc = SimulatorService(
            serve_cfg(record=True, perf_gauges=True, workload_profile=True))
        svc.run_to_completion()
        return svc.status()

    def test_status_carries_the_ledger(self):
        status = self._status()
        outcomes = status["outcomes"]
        assert outcomes is not None
        assert set(outcomes) >= {"verdicts", "judged", "efficiency",
                                 "moved_inodes", "aborted_inodes",
                                 "migrations_in", "migrations_out"}
        assert set(outcomes["verdicts"]) == {"paid_off", "neutral",
                                             "wasted", "ping_pong"}
        assert outcomes["judged"] == sum(outcomes["verdicts"].values())
        assert outcomes["judged"] > 0  # the serve scenario migrates
        n_mds = len(status["loads"])
        assert len(outcomes["migrations_in"]) == n_mds
        assert sum(outcomes["migrations_in"]) == sum(
            outcomes["migrations_out"]) == outcomes["judged"]

    def test_status_carries_the_workload_profile(self):
        profile = self._status()["workload_profile"]
        assert profile is not None
        assert 0.0 <= profile["heat_gini"] <= 1.0
        assert profile["op_mix"] in ("idle", "create_heavy", "scan_heavy",
                                     "read_heavy", "mixed")

    def test_render_top_shows_ledger_and_workload(self):
        status = self._status()
        screen = render_top(status)
        judged = status["outcomes"]["judged"]
        assert f"ledger {judged} judged:" in screen
        assert "paid_off=" in screen and "ping_pong=" in screen
        assert "workload " in screen and "heat gini" in screen
        mds0 = next(ln for ln in screen.splitlines() if "mds.0" in ln)
        assert " in " in mds0 and " out " in mds0

    def test_ledger_gauges_reach_the_metrics_registry(self):
        svc = SimulatorService(serve_cfg(record=True, workload_profile=True))
        svc.run_to_completion()
        m = svc.sim.metrics
        judged = sum(
            m.get_value("outcome.migrations", verdict=v) or 0.0
            for v in ("paid_off", "neutral", "wasted", "ping_pong"))
        assert judged == svc.status()["outcomes"]["judged"]
        assert m.get_value("outcome.aborted_inodes") is not None

    @staticmethod
    def assert_ledger_matches_batch(svc: SimulatorService) -> None:
        """/status outcomes and outcome.* gauges == the batch ledger."""
        sim = svc.sim
        events = sim.trace.events()
        ledger = build_ledger(events)
        counts, totals = ledger.verdict_counts(), ledger.totals()
        commits = [e for e in events if e.etype == "migration_committed"]
        ranks = range(len(sim.mdss))
        assert svc.status()["outcomes"] == {
            "verdicts": {v: counts.get(v, 0) for v in sorted(OUTCOME_VERDICTS)},
            "judged": len(ledger),
            "efficiency": totals["efficiency"],
            "moved_inodes": int(totals["moved_inodes"]),
            "aborted_inodes": int(totals["aborted_inodes"]),
            "migrations_in": [sum(c.dst == r for c in commits) for r in ranks],
            "migrations_out": [sum(c.src == r for c in commits) for r in ranks],
        }
        m = sim.metrics
        for verdict in OUTCOME_VERDICTS:
            assert m.get_value("outcome.migrations",
                               verdict=verdict) == counts.get(verdict, 0)
        assert m.get_value("outcome.benefit_efficiency") == totals["efficiency"]
        assert m.get_value("outcome.aborted_inodes") == totals["aborted_inodes"]

    def drive_checking_every_boundary(self, svc: SimulatorService) -> int:
        """Run to completion tick by tick, checking the ledger at every
        epoch boundary and after the run; returns the boundaries seen."""
        svc.start()
        boundaries = 0
        with svc.lock:
            alive = True
            while alive:
                epoch = svc.sim.epoch
                alive = svc._advance(1)
                if svc.sim.epoch != epoch:
                    self.assert_ledger_matches_batch(svc)
                    boundaries += 1
        svc.run_to_completion()
        self.assert_ledger_matches_batch(svc)
        return boundaries

    def test_served_ledger_equals_batch_at_every_boundary(self):
        svc = SimulatorService(serve_cfg("mixed"))
        assert self.drive_checking_every_boundary(svc) > 20
        assert svc.sim.trace.dropped == 0
        assert set(svc.status()["outcomes"]["verdicts"].values()) != {0}

    def test_ring_trace_that_evicts_early_boundaries(self):
        """Regression: a tick's epoch is fixed only by the first boundary
        at or after it. Once the ring has evicted the early epoch_start
        events, ticks before the first retained boundary belong to it;
        attributing them when they are fed diverges from the batch
        ledger of the retained trace."""
        svc = SimulatorService(serve_cfg("mixed", trace_capacity=96))
        self.drive_checking_every_boundary(svc)
        trace = svc.sim.trace
        assert trace.dropped > 0
        first = trace.events("epoch_start")[0]
        assert first.epoch > 0  # epoch 0's boundary was evicted
        assert svc.status()["outcomes"]["judged"] > 0

    def test_ledger_off_without_profiling_still_populates(self):
        # the ledger reads the trace, so it works with profiling off too
        svc = SimulatorService(serve_cfg(record=True))
        svc.run_to_completion()
        status = svc.status()
        assert status["outcomes"] is not None
        assert status["workload_profile"] is None


# ------------------------------------------------------------ report banner
class TestReportWarnings:
    def _report(self, metrics: dict, timeseries: dict | None = None) -> str:
        return render_run_report({}, timeseries=timeseries or {},
                                 events=[], metrics=metrics,
                                 span_events=[], chaos=None)

    @staticmethod
    def _counter(value: float) -> dict:
        return {"kind": "counter", "help": "",
                "series": [{"labels": {}, "value": value}]}

    def test_clean_run_has_no_banner(self):
        report = self._report({"trace.events_dropped": self._counter(0.0)})
        assert "Warning" not in report

    def test_banner_lists_each_loss_channel(self):
        report = self._report(
            {"trace.events_dropped": self._counter(5.0),
             "serve.events_dropped": self._counter(3.0)},
            timeseries={"columns": [], "rows": [[0.0]], "appended": 4})
        assert "observability data was dropped" in report
        assert "decision-trace ring dropped 5" in report
        assert "evicted 3 of 4" in report
        assert "event bus dropped 3" in report
        # the banner leads the report, before any metric section
        assert report.index("Warning") < report.index("## Counters")

    def test_throughput_section_renders_perf_gauges(self):
        metrics = {
            "sim.epochs_per_second": {
                "kind": "gauge", "help": "",
                "series": [{"labels": {}, "value": 12.5}]},
            "serve.ops_per_second": {
                "kind": "gauge", "help": "",
                "series": [{"labels": {}, "value": 1000.0}]},
        }
        report = self._report(metrics)
        assert "## Throughput" in report
        assert "epochs / second" in report and "12.5" in report
        assert "served ops / second" in report

    def test_no_throughput_section_without_gauges(self):
        assert "## Throughput" not in self._report({})
