"""The migration cost/benefit ledger: verdicts, waste, provenance."""

import bisect
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.simulator import SimConfig
from repro.experiments.chaos import run_chaos
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_traced
from repro.obs.events import (
    DecisionIds,
    EpochStart,
    IfComputed,
    MigrationAborted,
    MigrationCommitted,
    MigrationOutcome,
    MigrationPlanned,
    event_from_json,
    event_to_json,
)
from repro.obs.outcomes import (
    LedgerBuilder,
    OutcomeConfig,
    OutcomeEntry,
    OutcomeLedger,
    aborted_waste,
    build_ledger,
    emit_outcomes,
)
from repro.obs.provenance import ProvenanceGraph, explain, render_explain
from repro.obs.tracelog import TraceLog, filter_events

EPOCH_LEN = 5


def epochs(loads_by_epoch):
    """epoch_start + simulator if_computed per epoch, golden cadence."""
    out = []
    for k, loads in enumerate(loads_by_epoch):
        out.append(EpochStart(epoch=k, tick=(k + 1) * EPOCH_LEN))
        out.append(IfComputed(epoch=k, value=0.0, loads=tuple(loads),
                              source="simulator", did=1000 + k))
    return out


def migration(*, plan_tick, src, dst, unit, inodes, load, did):
    """A planned+committed pair (commit on the next tick)."""
    return [
        MigrationPlanned(tick=plan_tick, src=src, dst=dst, unit=unit,
                         inodes=inodes, load=load, did=did),
        MigrationCommitted(tick=plan_tick + 1, src=src, dst=dst, unit=unit,
                           inodes=inodes, did=did + 1, parent=did),
    ]


class TestVerdicts:
    def test_receiver_that_keeps_the_load_pays_off(self):
        # dst rank 1 idles at 10, then serves ~+15 for every epoch after
        # the epoch-2 commit — realized covers the planned 14.0 fully
        trace = epochs([(30, 10, 0)] * 3 + [(16, 25, 0)] * 6)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        ledger = build_ledger(trace)
        (entry,) = ledger.entries
        assert entry.verdict == "paid_off"
        assert entry.epoch == 2 and entry.observed_epochs == 5
        assert entry.ratio == pytest.approx(1.0)

    def test_subtree_that_goes_cold_is_wasted(self):
        # dst never picks up measurable load over its baseline
        trace = epochs([(30, 10, 0)] * 9)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        ledger = build_ledger(trace)
        (entry,) = ledger.entries
        assert entry.verdict == "wasted"
        assert entry.realized == 0.0

    def test_partial_benefit_is_neutral(self):
        # dst gains ~3 of the promised 14 per epoch: ratio ~0.2
        trace = epochs([(30, 10, 0)] * 3 + [(27, 13, 0)] * 6)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        ledger = build_ledger(trace)
        (entry,) = ledger.entries
        assert entry.verdict == "neutral"
        assert 0.1 <= entry.ratio < 0.5

    def test_no_observable_epochs_is_neutral(self):
        # the run ends at the commit epoch: nothing to judge against
        trace = epochs([(30, 10, 0)] * 3)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        ledger = build_ledger(trace)
        (entry,) = ledger.entries
        assert entry.verdict == "neutral"
        assert entry.observed_epochs == 0

    def test_reexport_off_the_receiver_is_ping_pong(self):
        # unit 7 lands on rank 1 at epoch 2, gets planned straight back
        # off rank 1 three epochs later — thrash, whatever the load says
        trace = epochs([(30, 10, 0)] * 3 + [(16, 25, 0)] * 6)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        trace.append(MigrationPlanned(tick=29, src=1, dst=2, unit=7,
                                      inodes=60, load=14.0, did=50))
        ledger = build_ledger(trace)
        entry = ledger.by_commit()[1]
        assert entry.verdict == "ping_pong"

    def test_reexport_outside_the_window_is_not_ping_pong(self):
        cfg = OutcomeConfig(pingpong_epochs=2)
        trace = epochs([(30, 10, 0)] * 3 + [(16, 25, 0)] * 20)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        # epoch 2 + W(2) = 4; the re-plan happens at epoch ~14
        trace.append(MigrationPlanned(tick=74, src=1, dst=2, unit=7,
                                      inodes=60, load=14.0, did=50))
        ledger = build_ledger(trace, config=cfg)
        entry = ledger.by_commit()[1]
        assert entry.verdict == "paid_off"

    def test_verdict_vocabulary_is_closed(self):
        with pytest.raises(ValueError, match="unknown outcome verdict"):
            MigrationOutcome(epoch=0, src=0, dst=1, unit=7, inodes=1,
                             planned_load=1.0, realized=0.0, expected=1.0,
                             verdict="great", observed_epochs=1)


class TestWasteAccounting:
    def trace_with_abort(self):
        trace = epochs([(30, 10, 10)] * 8)
        # same planning round (epoch 2): one commit, one mds_failed abort
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        trace.append(MigrationPlanned(tick=14, src=0, dst=2, unit=9,
                                      inodes=33, load=8.0, did=10))
        trace.append(MigrationAborted(tick=16, src=0, dst=2, unit=9,
                                      reason="mds_failed", did=11, parent=10))
        return trace

    def test_aborted_sibling_inodes_charge_the_rounds_commits(self):
        ledger = build_ledger(self.trace_with_abort())
        (entry,) = ledger.entries
        assert entry.waste == 33
        assert ledger.aborted_tasks == 1 and ledger.aborted_inodes == 33

    def test_waste_splits_equally_with_remainder_to_earliest(self):
        trace = epochs([(30, 10, 10)] * 8)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        trace += migration(plan_tick=14, src=0, dst=2, unit=8, inodes=40,
                           load=9.0, did=4)
        trace.append(MigrationPlanned(tick=14, src=0, dst=2, unit=9,
                                      inodes=33, load=8.0, did=10))
        trace.append(MigrationAborted(tick=16, src=0, dst=2, unit=9,
                                      reason="overlap", did=11, parent=10))
        ledger = build_ledger(trace)
        by_commit = ledger.by_commit()
        assert by_commit[1].waste == 17  # floor(33/2) + remainder 1
        assert by_commit[5].waste == 16

    def test_aborted_waste_matches_the_chaos_score_join(self):
        from repro.chaos.score import _aborted_waste

        trace = self.trace_with_abort()
        assert aborted_waste(trace, reason="mds_failed") == \
            _aborted_waste(trace)
        # reason=None counts every abort; the filtered slice is smaller
        trace.append(MigrationAborted(tick=17, src=0, dst=1, unit=12,
                                      reason="stale_auth", did=12))
        assert aborted_waste(trace) == (2, 33)
        assert aborted_waste(trace, reason="mds_failed") == (1, 33)

    def test_abort_with_evicted_plan_counts_zero_inodes(self):
        trace = epochs([(30, 10, 10)] * 3)
        trace.append(MigrationAborted(tick=16, src=0, dst=2, unit=9,
                                      reason="mds_failed", did=11, parent=10))
        assert aborted_waste(trace) == (1, 0)


class TestPartialLedger:
    def test_ring_evicted_plan_yields_a_neutral_partial_entry(self):
        # a ring trace that kept the commit but evicted its plan: the
        # entry must survive, flagged partial, judged neutral
        full = epochs([(30, 10, 0)] * 3 + [(16, 25, 0)] * 6)
        full += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                          load=14.0, did=0)
        evicted = [e for e in full if e.etype != "migration_planned"]
        ledger = build_ledger(evicted)
        (entry,) = ledger.entries
        assert entry.partial is True
        assert entry.verdict == "neutral"
        assert entry.plan_did == 0 and 0 not in {
            e.did for e in evicted if hasattr(e, "did")}

    def test_ticks_before_the_first_retained_boundary_take_its_epoch(self):
        # Regression: a ring window that lost epochs 0-1's boundaries but
        # kept epoch 2's plan (tick 11) and commit (tick 12). Both belong
        # to epoch 2, whose epoch_start (tick 15) is the first boundary at
        # or after them, although it is emitted after them; fixing their
        # epoch when they are fed would make it 0.
        bounds = epochs([(30, 10, 0)] * 3 + [(16, 25, 0)] * 6)
        trace = bounds[:4] + migration(plan_tick=11, src=0, dst=1, unit=7,
                                       inodes=60, load=14.0, did=0)
        window = (trace + bounds[4:])[4:]
        (entry,) = build_ledger(window).entries
        assert (entry.plan_epoch, entry.epoch) == (2, 2)
        assert entry.baseline == 10.0 and entry.observed_epochs == 5
        assert entry.verdict == "paid_off"
        builder = LedgerBuilder()
        for e in window:
            builder.feed([e])
        assert builder.ledger().entries == (entry,)


class TestEmitAndProvenance:
    def ledger_and_log(self):
        trace = epochs([(30, 10, 0)] * 3 + [(16, 25, 0)] * 6)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        ledger = build_ledger(trace)
        # allocator past the synthetic dids so outcome ids don't collide
        log = TraceLog(ids=DecisionIds(start=2000))
        for e in trace:
            log.emit(e)
        return trace, ledger, log

    def test_outcome_events_chain_commit_to_verdict(self):
        trace, ledger, log = self.ledger_and_log()
        n = emit_outcomes(log, ledger)
        assert n == 1
        graph = ProvenanceGraph(log.events())
        (outcome_did,) = graph.children[1]  # commit did 1 -> outcome
        node = graph.nodes[outcome_did]
        assert node.etype == "migration_outcome"
        assert node.verdict == "paid_off"
        # the full causal neighbourhood of the plan now ends in a verdict
        assert outcome_did in graph.chain_ids(0)

    def test_outcome_round_trips_with_non_default_fields(self):
        e = MigrationOutcome(epoch=3, src=0, dst=1, unit="frag:3:1:0",
                             inodes=60, planned_load=14.0, realized=7.0,
                             expected=70.0, verdict="wasted",
                             observed_epochs=5, did=9, parent=1,
                             waste=33, partial=True)
        s = event_to_json(e)
        assert '"waste":33' in s and '"partial":true' in s
        assert event_from_json(s) == e
        # defaults are omitted from the wire form entirely
        bare = MigrationOutcome(epoch=3, src=0, dst=1, unit=7, inodes=60,
                                planned_load=14.0, realized=7.0,
                                expected=70.0, verdict="wasted",
                                observed_epochs=5, did=9, parent=1)
        assert '"waste"' not in event_to_json(bare)
        assert '"partial"' not in event_to_json(bare)

    def test_filter_events_slices_outcomes_by_type_and_epoch(self):
        trace, ledger, log = self.ledger_and_log()
        emit_outcomes(log, ledger)
        only = filter_events(log.events(), etypes=["migration_outcome"])
        assert [e.etype for e in only] == ["migration_outcome"]
        # migration_outcome carries the commit epoch: range-sliceable
        assert filter_events(log.events(), etypes=["migration_outcome"],
                             epoch_range=(2, 2)) == only
        assert filter_events(log.events(), etypes=["migration_outcome"],
                             epoch_range=(3, 9)) == []


class TestExplainOutcomes:
    def test_explain_attaches_verdicts_and_summary(self):
        trace = epochs([(30, 10, 0)] * 3 + [(16, 25, 0)] * 6)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        report = explain(trace, outcomes=True)
        (mig,) = [m for b in report["epochs"] for m in b["migrations"]]
        assert mig["verdict"] == "paid_off"
        assert mig["ratio"] == pytest.approx(1.0)
        assert report["summary"]["verdicts"] == {"paid_off": 1}
        text = render_explain(report)
        assert "verdict=paid_off" in text
        assert "verdicts: paid_off=1" in text

    def test_explain_without_outcomes_is_unchanged(self):
        trace = epochs([(30, 10, 0)] * 3)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        report = explain(trace)
        (mig,) = [m for b in report["epochs"] for m in b["migrations"]]
        assert "verdict" not in mig
        assert "verdicts" not in report["summary"]

    def test_every_committed_migration_in_a_real_run_gets_a_verdict(self):
        # the fig6-shaped acceptance scenario: mdtest under lunule at the
        # golden scale, every migration_committed judged
        cfg = ExperimentConfig(
            workload="mdtest", balancer="lunule", n_clients=8, seed=7,
            scale=0.15,
            sim=SimConfig(n_mds=3, mds_capacity=60.0, epoch_len=5,
                          max_ticks=3000, migration_rate=50, seed=0))
        _, sim = run_traced(cfg)
        events = sim.trace.events()
        commits = [e for e in events if e.etype == "migration_committed"]
        assert commits, "scenario must migrate for the test to mean anything"
        report = explain(events, outcomes=True)
        migs = [m for b in report["epochs"] for m in b["migrations"]
                if m["outcome"] == "committed"]
        assert len(migs) == len(commits)
        assert all("verdict" in m for m in migs)
        ledger = build_ledger(events)
        assert len(ledger) == len(commits)
        assert ledger.to_dict()["schema"] == 1


class TestLedgerDocument:
    def test_to_dict_schema(self):
        trace = epochs([(30, 10, 0)] * 9)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        doc = build_ledger(trace).to_dict()
        assert doc["schema"] == 1
        assert set(doc) == {"schema", "config", "entries", "verdicts",
                            "totals"}
        assert doc["config"] == {"benefit_epochs": 5, "pingpong_epochs": 10,
                                 "paid_off_ratio": 0.5, "neutral_ratio": 0.1}
        (entry,) = doc["entries"]
        assert entry["did"] == 1 and entry["verdict"] in (
            "paid_off", "neutral", "wasted", "ping_pong")
        assert doc["totals"]["migrations"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OutcomeConfig(benefit_epochs=0)
        with pytest.raises(ValueError):
            OutcomeConfig(neutral_ratio=0.9, paid_off_ratio=0.5)

    def test_timeseries_columns_override_trace_loads(self):
        # trace loads say the receiver never moved; the recorded columns
        # say it did — the columns win
        trace = epochs([(30, 10, 0)] * 9)
        trace += migration(plan_tick=14, src=0, dst=1, unit=7, inodes=60,
                           load=14.0, did=0)
        columns = {
            "epoch": list(range(9)),
            "load.0": [30.0] * 3 + [16.0] * 6,
            "load.1": [10.0] * 3 + [25.0] * 6,
            "load.2": [0.0] * 9,
        }
        assert build_ledger(trace).entries[0].verdict == "wasted"
        assert build_ledger(
            trace, timeseries=columns).entries[0].verdict == "paid_off"


# ------------------------------------------------------- incremental builder
@functools.cache
def real_trace(name: str) -> tuple:
    """Small real runs: every verdict (mixed x lunule), ping-pong thrash
    (mixed x vanilla) and fault-aborted migrations (chaos ``flap``)."""
    if name == "flap":
        _, _, sim = run_chaos("flap", seed=1)
    else:
        workload, balancer = name.split("-")
        _, sim = run_traced(ExperimentConfig(
            workload=workload, balancer=balancer, n_clients=8, seed=7,
            scale=0.2,
            sim=SimConfig(n_mds=3, mds_capacity=60.0, epoch_len=5,
                          max_ticks=3000, migration_rate=50, seed=0)))
    return tuple(sim.trace.events())


def whole_trace_ledger(events, cfg):
    """Test oracle: the ledger joined from scratch over the whole trace.

    Every join is recomputed per call (tick attribution over all
    boundaries, ping-pong by scanning every later plan), with none of
    :class:`LedgerBuilder`'s indices or frozen entries; loads come from
    ``if_computed`` events.
    """
    bounds = [(e.tick, e.epoch) for e in events if e.etype == "epoch_start"]
    ticks = [t for t, _ in bounds]

    def epoch_of(tick):
        if not ticks:
            return 0
        i = bisect.bisect_left(ticks, tick)
        return bounds[i][1] if i < len(ticks) else bounds[-1][1] + 1

    history = {e.epoch: list(e.loads) for e in events
               if e.etype == "if_computed" and e.source == "simulator"}
    plans = {e.did: e for e in events if e.etype == "migration_planned"}
    commits = sorted((e for e in events if e.etype == "migration_committed"),
                     key=lambda e: e.did)
    aborts = [e for e in events if e.etype == "migration_aborted"]
    plan_epoch = {c.did: epoch_of(plans[c.parent].tick if c.parent in plans
                                  else c.tick) for c in commits}
    waste = {}
    for a in aborts:
        if a.parent in plans:
            k = epoch_of(plans[a.parent].tick)
            waste[k] = waste.get(k, 0) + plans[a.parent].inodes
    rounds = {}
    for c in commits:
        rounds.setdefault(plan_epoch[c.did], []).append(c.did)
    share = {}
    for k, dids in rounds.items():
        q, rem = divmod(waste.get(k, 0), len(dids))
        share.update({did: q + (rem if i == 0 else 0)
                      for i, did in enumerate(dids)})

    entries = []
    for c in commits:
        plan = plans.get(c.parent)
        epoch, pk = epoch_of(c.tick), plan_epoch[c.did]
        load = plan.load if plan is not None else 0.0
        dst_loads = {k: v[c.dst] for k, v in history.items() if c.dst < len(v)}
        base = [dst_loads[k] for k in range(max(0, pk - cfg.benefit_epochs), pk)
                if k in dst_loads]
        baseline = sum(base) / len(base) if base else dst_loads.get(pk) or 0.0
        realized, observed = 0.0, 0
        for k in range(epoch + 1, epoch + 1 + cfg.benefit_epochs):
            if k in dst_loads:
                observed += 1
                gain = max(0.0, dst_loads[k] - baseline)
                realized += min(load, gain) if load > 0.0 else gain
        expected = load * observed
        ratio = realized / expected if expected > 0.0 else 0.0
        if any(p.did > c.did and p.unit == c.unit and p.src == c.dst
               and epoch_of(p.tick) <= epoch + cfg.pingpong_epochs
               for p in plans.values()):
            verdict = "ping_pong"
        elif plan is None or observed == 0 or expected <= 0.0:
            verdict = "neutral"
        elif ratio >= cfg.paid_off_ratio:
            verdict = "paid_off"
        else:
            verdict = "neutral" if ratio >= cfg.neutral_ratio else "wasted"
        entries.append(OutcomeEntry(
            did=c.did, plan_did=c.parent, epoch=epoch, plan_epoch=pk,
            src=c.src, dst=c.dst, unit=c.unit, inodes=c.inodes,
            waste=share[c.did], planned_load=load, baseline=baseline,
            realized=realized, expected=expected, observed_epochs=observed,
            verdict=verdict, partial=plan is None))
    return OutcomeLedger(
        entries=tuple(entries), config=cfg, aborted_tasks=len(aborts),
        aborted_inodes=sum(plans[a.parent].inodes for a in aborts
                           if a.parent in plans))


class TestLedgerBuilder:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_chunked_feed_matches_batch_at_every_cut(self, data):
        events = real_trace(data.draw(
            st.sampled_from(["mixed-lunule", "mixed-vanilla", "flap"])))
        cfg = OutcomeConfig(benefit_epochs=data.draw(st.integers(1, 6)),
                            pingpong_epochs=data.draw(st.integers(1, 12)))
        # a window that starts mid-trace is what a ring buffer retains
        start = data.draw(st.just(0) | st.integers(0, len(events)))
        cuts = sorted(data.draw(st.lists(st.integers(start, len(events)),
                                         max_size=10)))
        builder = LedgerBuilder(config=cfg)
        pos = start
        for cut in [*cuts, len(events)]:
            builder.feed(events[pos:cut])
            pos = cut
            batch = build_ledger(events[start:cut], config=cfg)
            assert batch.to_dict() == whole_trace_ledger(
                events[start:cut], cfg).to_dict()
            assert builder.ledger().to_dict() == batch.to_dict()
            assert len(builder) == len(batch)
            assert builder.verdict_counts() == batch.verdict_counts()
            assert builder.totals() == batch.totals()

    def test_real_traces_cover_every_verdict_and_aborts(self):
        # the generated test above means little unless its inputs do
        verdicts = set()
        for name in ("mixed-lunule", "mixed-vanilla", "flap"):
            verdicts |= set(build_ledger(real_trace(name)).verdict_counts())
        assert verdicts == {"paid_off", "neutral", "wasted", "ping_pong"}
        flap = build_ledger(real_trace("flap"))
        assert flap.aborted_tasks > 0
        # the chaos score prices aborts with the ledger's own join
        assert (flap.aborted_tasks, flap.aborted_inodes) == aborted_waste(
            real_trace("flap"))
