"""Trace + metrics emission from real simulator runs (integration)."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    EpochStart,
    IfComputed,
    MdsFailed,
    MigrationPlanned,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracelog import TraceLog, filter_events, read_jsonl


class TestSimulatorEmission:
    def test_every_epoch_is_traced(self, make_sim):
        sim = make_sim("lunule")
        res = sim.run()
        starts = sim.trace.events("epoch_start")
        assert len(starts) == len(res.epoch_ticks)
        assert [e.epoch for e in starts] == list(range(len(starts)))
        assert [e.tick for e in starts] == res.epoch_ticks

    def test_reported_if_matches_result_series(self, make_sim):
        sim = make_sim("lunule")
        res = sim.run()
        traced = [e.value for e in sim.trace.events("if_computed")
                  if e.source == "simulator"]
        assert traced == res.if_series

    def test_lunule_pipeline_emits_decision_events(self, make_sim):
        sim = make_sim("lunule")
        sim.run()
        counts = sim.trace.counts()
        # a skewed zipf workload under lunule triggers the full pipeline
        for etype in ("role_assigned", "subtree_selected",
                      "migration_planned", "migration_committed"):
            assert counts.get(etype, 0) > 0, f"no {etype} events traced"

    def test_nop_balancer_traces_epochs_only(self, make_sim):
        sim = make_sim("nop")
        sim.run()
        counts = sim.trace.counts()
        assert counts["epoch_start"] > 0
        assert "role_assigned" not in counts
        assert "migration_planned" not in counts

    def test_fail_and_recover_are_traced(self, make_sim):
        sim = make_sim("lunule", schedule=[(10, lambda s: s.fail_mds(1)),
                                           (60, lambda s: s.recover_mds(1))])
        sim.run()
        fails = sim.trace.events("mds_failed")
        recovers = sim.trace.events("mds_recovered")
        assert [(e.tick, e.rank) for e in fails] == [(10, 1)]
        assert [(e.tick, e.rank) for e in recovers] == [(60, 1)]
        assert sim.metrics.get_value("sim.mds_failures") == 1.0

    def test_all_traced_types_are_registered(self, make_sim):
        sim = make_sim("lunule", schedule=[(10, lambda s: s.fail_mds(1)),
                                           (60, lambda s: s.recover_mds(1))])
        sim.run()
        assert set(sim.trace.counts()) <= set(EVENT_TYPES)


class TestSimulatorMetrics:
    def test_core_series_present_after_run(self, make_sim):
        sim = make_sim("lunule")
        res = sim.run()
        m = sim.metrics
        assert m.get_value("sim.epochs") == len(res.epoch_ticks)
        assert m.get_value("sim.ops_served") == pytest.approx(
            sum(sum(row) * sim.config.epoch_len for row in res.per_mds_iops))
        assert m.get_value("sim.imbalance_factor") == pytest.approx(
            res.if_series[-1])
        assert m.get_value("migration.committed") == res.committed_tasks
        for rank in range(sim.n_mds):
            assert m.get_value("mds.load", rank=rank) is not None

    def test_forwards_counted(self, make_sim):
        sim = make_sim("lunule")
        res = sim.run()
        assert sim.metrics.get_value("router.forwards") == res.total_forwards

    def test_snapshot_serializes(self, make_sim):
        sim = make_sim("lunule")
        sim.run()
        assert isinstance(sim.metrics.to_json(), str)


class TestRingBufferMode:
    def test_capacity_bounds_memory(self, make_sim):
        sim = make_sim("lunule", trace_capacity=16)
        sim.run()
        assert len(sim.trace) == 16
        assert sim.trace.emitted > 16
        assert sim.trace.dropped == sim.trace.emitted - 16

    def test_ring_keeps_the_most_recent_events(self, make_sim):
        full = make_sim("lunule")
        full.run()
        ring = make_sim("lunule", trace_capacity=16)
        ring.run()
        assert ring.trace.events() == full.trace.events()[-16:]

    def test_evictions_feed_the_drop_counter(self):
        reg = MetricsRegistry()
        log = TraceLog(capacity=2, drop_counter=reg.counter("trace.events_dropped"))
        for tick in range(5):
            log.emit(EpochStart(epoch=tick, tick=tick))
        assert reg.get_value("trace.events_dropped") == 3.0
        assert log.dropped == 3

    def test_since_returns_the_events_after_a_mark(self):
        log = TraceLog(capacity=4)
        for tick in range(3):
            log.emit(EpochStart(epoch=tick, tick=tick))
        mark = log.emitted
        assert log.since(mark) == []
        log.emit(EpochStart(epoch=3, tick=3))
        log.emit(EpochStart(epoch=4, tick=4))
        assert [e.epoch for e in log.since(mark)] == [3, 4]
        assert [e.epoch for e in log.since(1)] == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            log.since(0)  # epoch 0 was evicted

    def test_unbounded_log_never_counts_drops(self):
        reg = MetricsRegistry()
        log = TraceLog(drop_counter=reg.counter("trace.events_dropped"))
        for tick in range(5):
            log.emit(EpochStart(epoch=tick, tick=tick))
        assert reg.get_value("trace.events_dropped") == 0.0

    def test_simulator_exposes_drops_as_a_metric(self, make_sim):
        sim = make_sim("lunule", trace_capacity=16)
        sim.run()
        assert sim.metrics.get_value("trace.events_dropped") == sim.trace.dropped
        # and the OpenMetrics exposition names it _total, counter-style
        from repro.obs.prom import render_openmetrics

        assert "trace_events_dropped_total" in render_openmetrics(sim.metrics)

    def test_full_log_exposes_zero_drops(self, make_sim):
        sim = make_sim("lunule")
        sim.run()
        assert sim.metrics.get_value("trace.events_dropped") == 0.0


class TestJsonlExport:
    def test_dump_and_read_round_trip(self, make_sim, tmp_path):
        sim = make_sim("lunule", schedule=[(10, lambda s: s.fail_mds(1)),
                                           (60, lambda s: s.recover_mds(1))])
        sim.run()
        path = tmp_path / "trace.jsonl"
        sim.trace.dump_jsonl(path)
        assert list(read_jsonl(path)) == sim.trace.events()

    def test_load_jsonl_rebuilds_the_log(self, make_sim, tmp_path):
        sim = make_sim("lunule")
        sim.run()
        path = tmp_path / "trace.jsonl"
        sim.trace.dump_jsonl(path)
        log = TraceLog.load_jsonl(path)
        assert log.dumps() == sim.trace.dumps()


class TestBalancerEmission:
    @pytest.mark.parametrize("balancer", ["vanilla", "greedyspill"])
    def test_baselines_emit_roles(self, make_sim, balancer):
        sim = make_sim(balancer)
        sim.run()
        roles = sim.trace.events("role_assigned")
        assert roles, f"{balancer} assigned no roles on a skewed workload"
        assert {e.role for e in roles} <= {"exporter", "importer"}

    def test_role_events_carry_the_epoch(self, make_sim):
        sim = make_sim("lunule")
        sim.run()
        epochs = {e.epoch for e in sim.trace.events("role_assigned")}
        traced = {e.epoch for e in sim.trace.events("epoch_start")}
        assert epochs <= traced


def test_trace_events_are_frozen(make_sim):
    sim = make_sim("lunule")
    sim.run()
    e = sim.trace.events("epoch_start")[0]
    assert isinstance(e, EpochStart)
    with pytest.raises(Exception):
        e.epoch = 99  # type: ignore[misc]


class TestFilterEvents:
    """Trace slicing behind ``repro trace --etype / --epoch-range``."""

    @staticmethod
    def sample_trace() -> list:
        return [
            EpochStart(epoch=0, tick=5),
            IfComputed(epoch=0, value=0.9, loads=(9.0, 1.0), source="simulator"),
            MigrationPlanned(tick=5, src=0, dst=1, unit=3, inodes=40, load=4.0),
            MigrationPlanned(tick=8, src=0, dst=1, unit=4, inodes=10, load=1.0),
            EpochStart(epoch=1, tick=10),
            IfComputed(epoch=1, value=0.2, loads=(5.0, 5.0), source="simulator"),
            MdsFailed(tick=12, rank=1),
        ]

    def test_etype_filter(self):
        kept = filter_events(self.sample_trace(), etypes=["epoch_start"])
        assert [e.epoch for e in kept] == [0, 1]

    def test_epoch_range_uses_the_event_epoch_when_present(self):
        kept = filter_events(self.sample_trace(), etypes=["if_computed"],
                             epoch_range=(1, 1))
        assert [e.value for e in kept] == [0.2]

    def test_tick_events_attributed_to_the_enclosing_epoch(self):
        # epoch 0 closes at tick 5: the plan at tick 5 belongs to epoch 0,
        # the one at tick 8 to epoch 1, the failure at tick 12 to epoch 2
        kept = filter_events(self.sample_trace(), epoch_range=(0, 0))
        assert [e.etype for e in kept] == \
            ["epoch_start", "if_computed", "migration_planned"]
        kept = filter_events(self.sample_trace(), epoch_range=(1, 1))
        assert [(e.etype, getattr(e, "unit", None)) for e in kept] == \
            [("migration_planned", 4), ("epoch_start", None),
             ("if_computed", None)]

    def test_events_past_the_last_boundary_belong_to_the_next_epoch(self):
        kept = filter_events(self.sample_trace(), epoch_range=(2, 99))
        assert [e.etype for e in kept] == ["mds_failed"]

    def test_attribution_survives_filtering_out_epoch_starts(self):
        kept = filter_events(self.sample_trace(), etypes=["migration_planned"],
                             epoch_range=(1, 1))
        assert [e.unit for e in kept] == [4]

    def test_no_boundaries_drops_tick_only_events(self):
        kept = filter_events([MdsFailed(tick=3, rank=0)], epoch_range=(0, 9))
        assert kept == []

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            filter_events(self.sample_trace(), epoch_range=(3, 1))

    def test_no_filters_is_identity(self):
        events = self.sample_trace()
        assert filter_events(events) == events

    def test_on_a_real_run_partitions_the_trace(self, make_sim):
        sim = make_sim("lunule")
        sim.run()
        events = sim.trace.events()
        n_epochs = len(sim.trace.events("epoch_start"))
        sliced = [filter_events(events, epoch_range=(k, k))
                  for k in range(n_epochs + 1)]
        assert sum(len(s) for s in sliced) == len(events)


def test_initiator_if_uses_same_loads_as_simulator(make_sim):
    """Per epoch, the initiator sees the loads the simulator reported."""
    sim = make_sim("lunule")
    sim.run()
    by_epoch: dict[int, dict[str, IfComputed]] = {}
    for e in sim.trace.events("if_computed"):
        by_epoch.setdefault(e.epoch, {})[e.source] = e
    paired = [pair for pair in by_epoch.values()
              if {"simulator", "initiator"} <= set(pair)]
    assert paired  # the trigger fired at least once
    for pair in paired:
        assert pair["initiator"].loads == pair["simulator"].loads
