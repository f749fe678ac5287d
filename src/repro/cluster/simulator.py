"""Closed-loop, tick-based simulation of a CephFS MDS cluster.

One tick is one simulated second; an *epoch* (paper default: 10 s) is the
balancing interval. Within a tick, clients are drained round-robin against
per-MDS capacity credits, giving processor-sharing queueing behaviour: an
MDS hosting all the hot subtrees saturates at its capacity while its peers
sit idle — the load-imbalance phenomenon the paper studies.

Balancers are pure policies: once per epoch the simulator builds an
immutable :class:`~repro.core.view.ClusterView` snapshot (see
:meth:`Simulator.snapshot_view`) and hands it to the balancer's
``setup``/``on_epoch``; the returned
:class:`~repro.core.plan.EpochPlan` is replayed in action order by
:meth:`Simulator.apply_plan` — trace events onto the trace, dirfrag
splits and pins onto the authority map, exports into the
:class:`~repro.cluster.migration.Migrator`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.cluster.mds import MDS
from repro.cluster.migration import Migrator
from repro.cluster.osd import OsdPool
from repro.cluster.results import SimResult
from repro.cluster.router import Router
from repro.cluster.stats import AccessStats
from repro.core.if_model import imbalance_factor, urgency
from repro.core.plan import EmitEvent, EpochPlan, ExportUnit, PinSubtree, SplitDir
from repro.core.view import ClusterView, build_cluster_view
from repro.kernel.engine import ENGINES, ScalarEngine
from repro.namespace.subtree import AuthorityMap
from repro.obs.events import (
    DecisionIds,
    EpochStart,
    IfComputed,
    MdsFailed,
    MdsRecovered,
    NO_DECISION,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NULL_SPANS
from repro.obs.tracelog import TraceLog
from repro.obs.workload import WorkloadProfile
from repro.workloads.base import Client, WorkloadInstance

__all__ = ["SimConfig", "Simulator"]


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the simulated cluster (paper defaults where it gives them)."""

    n_mds: int = 5
    #: max metadata ops per tick per MDS (the paper's per-MDS capacity C)
    mds_capacity: float = 200.0
    #: optional per-rank capacities for heterogeneous clusters (length must
    #: match n_mds; the paper assumes homogeneity and calls heterogeneity
    #: orthogonal — this is the extension hook for it)
    mds_capacities: tuple[float, ...] | None = None
    #: ticks per balancing epoch (paper: 10 seconds)
    epoch_len: int = 10
    max_ticks: int = 50_000
    #: inodes transferred per tick per active export
    migration_rate: int = 50
    #: capacity fraction lost while involved in a migration
    migration_penalty: float = 0.1
    #: fixed two-phase-commit overhead per export task, in ticks
    migration_latency: int = 2
    #: simultaneous export tasks per exporter MDS
    migration_concurrency: int = 2
    #: smoothness knob S of the urgency logistic (paper: 0.2)
    urgency_smoothness: float = 0.2
    data_path: bool = False
    n_osds: int = 6
    #: bytes per tick per OSD for the data path
    osd_bandwidth: float = 4e6
    #: per-client outstanding-bytes window before the client stalls on data.
    #: Data reads pipeline behind metadata ops (clients prefetch); a client
    #: only blocks once it is this many bytes ahead of the OSD pool.
    data_window: float = 2e6
    #: capacity charged to each MDS that relays a forwarded request
    forward_charge: float = 1.0
    #: client dentry-lease TTL in ticks (0 disables cache expiry). CephFS
    #: trims client caches, so path resolution is re-paid periodically.
    client_lease_ttl: int = 120
    heat_decay: float = 0.8
    recurrence_window: int = 3
    pattern_windows: int = 3
    sibling_probability: float = 0.5
    serve_quantum: int = 8
    #: serve-path implementation (``repro.kernel``): "columnar" (the
    #: default: the reference loop plus the create-storm turbo tick) or
    #: "scalar" (the reference loop alone). Both produce byte-identical
    #: decision traces — the scalar engine is kept for differential
    #: testing (see docs/PERFORMANCE.md).
    engine: str = "columnar"
    seed: int = 0
    stop_when_done: bool = True
    #: decision-trace ring-buffer capacity; ``None`` keeps the whole run
    #: (tracing is epoch-granular, so even long runs stay small), an int
    #: bounds memory to the most recent N events for always-on deployments
    trace_capacity: int | None = None
    #: flight recorder: per-epoch time-series sampling + phase spans
    #: (see ``repro.obs.recorder``); off by default, ~0% cost when off
    record: bool = False
    #: span timestamp source — "logical" is byte-stable across runs (what
    #: golden snapshots and cross-worker aggregation need), "wall" gives
    #: real phase times in µs for benchmarks
    record_clock: str = "logical"
    #: time-series ring capacity in epochs (``None`` keeps every epoch)
    record_capacity: int | None = None
    #: wall-clock throughput gauges (``sim_epochs_per_second``,
    #: ``serve_ops_per_second``), refreshed at every epoch boundary. Off by
    #: default: the gauges read ``time.perf_counter`` and land in the
    #: registry snapshot, so byte-stable artifacts must not carry them.
    #: ``repro serve`` turns them on for the live ``/status`` plane.
    perf_gauges: bool = False
    #: per-epoch workload characterization (``repro.obs.workload``): heat
    #: and load skew, hotspot share, client churn and op-mix class as
    #: ``wl.*`` time-series columns and ``workload.*`` gauges. Off by
    #: default — the extra columns would change recorded artifacts, and
    #: golden snapshots must stay byte-identical. Never affects decisions.
    workload_profile: bool = False

    def with_(self, **kwargs) -> SimConfig:
        """Copy with overrides (convenience for sweeps)."""
        return replace(self, **kwargs)


@dataclass(order=True)
class _ScheduledEvent:
    tick: int
    order: int
    fn: Callable[[Simulator], None] = field(compare=False)


class Simulator:
    """Runs one workload instance under one balancer."""

    def __init__(self, instance: WorkloadInstance, balancer, config: SimConfig,
                 schedule: list[tuple[int, Callable[[Simulator], None]]] | None = None,
                 chaos=None) -> None:
        if config.n_mds <= 0:
            raise ValueError("need at least one MDS")
        if config.serve_quantum < 1:
            # a turn of no ops survives without serving, so no tick ends
            raise ValueError("serve_quantum must be at least 1")
        self.config = config
        self.instance = instance
        self.tree = instance.tree
        self.authmap = AuthorityMap(self.tree, initial_mds=0)
        self.stats = AccessStats(
            self.tree,
            heat_decay=config.heat_decay,
            recurrence_window=config.recurrence_window,
            pattern_windows=config.pattern_windows,
            sibling_probability=config.sibling_probability,
            seed=config.seed,
        )
        caps = config.mds_capacities
        if caps is not None and len(caps) != config.n_mds:
            raise ValueError("mds_capacities length must equal n_mds")
        self.mdss: list[MDS] = [
            MDS(r, caps[r] if caps is not None else config.mds_capacity)
            for r in range(config.n_mds)
        ]
        #: always-on observability: every component below feeds these two
        self.metrics = MetricsRegistry()
        #: run-wide decision-id sequence, shared between the trace log
        #: (mechanism-side events) and every epoch view/plan (policy-side
        #: events) so provenance ids stay monotone in trace order
        self.decision_ids = DecisionIds()
        self.trace = TraceLog(
            capacity=config.trace_capacity,
            drop_counter=self.metrics.counter("trace.events_dropped"),
            ids=self.decision_ids)
        #: the reporting ``if_computed`` did of the current epoch — policies
        #: parent their decisions under it via the view
        self._last_if_id = NO_DECISION
        #: opt-in flight recorder (per-epoch time series + phase spans)
        self.recorder: FlightRecorder | None = (
            FlightRecorder(clock=config.record_clock,
                           capacity=config.record_capacity)
            if config.record else None
        )
        #: where the phases' spans go: the recorder's profiler, or a no-op
        self._spans = (self.recorder.spans if self.recorder is not None
                       else NULL_SPANS)
        self.router = Router(self.authmap, config.forward_charge,
                             lease_ttl=config.client_lease_ttl,
                             metrics=self.metrics)
        self.migrator = Migrator(self.authmap, rate=config.migration_rate,
                                 penalty=config.migration_penalty,
                                 commit_latency=config.migration_latency,
                                 concurrency=config.migration_concurrency,
                                 trace=self.trace, metrics=self.metrics,
                                 clock=lambda: self.tick)
        self.osd: OsdPool | None = (
            OsdPool(config.n_osds, config.osd_bandwidth) if config.data_path else None
        )
        self.clients: list[Client] = list(instance.clients)
        self._by_cid = {c.cid: c for c in self.clients}
        self._data_busy: set[int] = set()
        #: optional chaos controller (duck-typed: anything with ``bind``).
        #: ``bind`` validates the fault schedule against this cluster and
        #: returns ordinary ``(tick, fn)`` entries that merge into the
        #: event schedule — the simulator stays ignorant of the chaos
        #: layer's types, preserving the layer DAG.
        entries = list(schedule or [])
        if chaos is not None:
            entries.extend(chaos.bind(self))
        self.chaos = chaos
        self._schedule = sorted(
            _ScheduledEvent(t, i, fn) for i, (t, fn) in enumerate(entries)
        )
        self._schedule_pos = 0
        self.tick = 0
        self.epoch = 0
        #: the tick the current epoch opened at / will close at. Tracked as
        #: absolute ticks (not ``tick % epoch_len``) so ``epoch_len`` can be
        #: re-tuned at an epoch boundary mid-run (``set_epoch_len``) without
        #: the modulo arithmetic tearing; for a constant ``epoch_len`` both
        #: formulations visit exactly the same boundary ticks.
        self._epoch_begin_tick = 0
        self._epoch_end_tick = config.epoch_len
        #: latched by :meth:`step_tick` once the run is over, so late calls
        #: (a service driver racing shutdown) cannot restart a stopped run
        self._halted = False
        self._perf_t0 = time.perf_counter()
        #: ticks clients spent ready-but-unserved this epoch (queueing delay)
        self._wait_ticks_epoch = 0
        self._served_epoch_total = 0
        #: client-population watermarks for the churn rate of the workload
        #: profiler (arrivals + departures per epoch over active clients)
        self._clients_started_prev = 0
        self._clients_done_prev = 0
        #: most recent epoch's characterization (``workload_profile`` only)
        self.last_workload_profile: WorkloadProfile | None = None
        self.balancer = balancer
        engine_cls = ENGINES.get(config.engine)
        if engine_cls is None:
            raise ValueError(f"unknown engine {config.engine!r} "
                             "(expected 'columnar' or 'scalar')")
        self.engine: ScalarEngine = engine_cls(
            clients=self.clients, mdss=self.mdss, router=self.router,
            tree=self.tree, stats=self.stats, osd=self.osd,
            data_busy=self._data_busy,
            serve_quantum=config.serve_quantum,
            forward_charge=config.forward_charge,
            data_window=config.data_window)

        self.result = SimResult(
            workload=instance.name,
            balancer=getattr(balancer, "name", type(balancer).__name__),
            epoch_len=config.epoch_len,
        )

    # ------------------------------------------------------------- dynamics
    @property
    def n_mds(self) -> int:
        return len(self.mdss)

    def add_mds(self, count: int = 1, capacity: float | None = None) -> None:
        """Cluster expansion (paper Fig. 12a).

        New ranks default to the capacity their rank would have had at
        construction: the per-rank entry of ``config.mds_capacities`` when
        one exists, else the homogeneous ``config.mds_capacity``. Pass
        ``capacity`` to add a rank of any other size (heterogeneous
        growth).
        """
        caps = self.config.mds_capacities
        for _ in range(count):
            rank = len(self.mdss)
            if capacity is not None:
                cap = capacity
            elif caps is not None and rank < len(caps):
                cap = caps[rank]
            else:
                cap = self.config.mds_capacity
            self.mdss.append(MDS(rank, cap))

    def add_clients(self, clients: list[Client]) -> None:
        """Client growth (paper Fig. 12b). New clients start at once."""
        for c in clients:
            if c.cid in self._by_cid:
                raise ValueError(f"duplicate client id {c.cid}")
            c.ready_at = max(c.ready_at, self.tick)
            self.clients.append(c)
            self._by_cid[c.cid] = c

    def fail_mds(self, rank: int, *, cause: int = NO_DECISION) -> None:
        """Failure injection: the rank stops serving (clients queue on it).

        In CephFS a standby daemon eventually replays the journal and takes
        over the failed rank; model that with a later :meth:`recover_mds`.
        Subtree authority is rank-based, so it survives the failover.
        ``cause`` is an optional decision id (the ``fault_injected`` event
        under chaos injection) threaded onto the resulting aborts.
        """
        if not 0 <= rank < len(self.mdss):
            raise ValueError(f"no MDS with rank {rank}")
        self.mdss[rank].failed = True
        self.trace.emit(MdsFailed(tick=self.tick, rank=rank))
        self.metrics.counter("sim.mds_failures").inc()
        # Abort exports touching the failed rank: CephFS rolls back a
        # half-done import on session reset and the replayed exporter does
        # not resume pre-failure plans, so letting these tasks finish later
        # would hand one subtree to two ranks' accounting.
        self.migrator.abort_rank(rank, cause=cause)

    def recover_mds(self, rank: int) -> None:
        """A standby took over ``rank``; it serves again from the next tick."""
        if not 0 <= rank < len(self.mdss):
            raise ValueError(f"no MDS with rank {rank}")
        self.mdss[rank].failed = False
        self.trace.emit(MdsRecovered(tick=self.tick, rank=rank))

    def set_epoch_len(self, epoch_len: int) -> None:
        """Re-tune the balancing interval mid-run (live reconfiguration).

        Safe only between epochs: call it right after an epoch closed
        (``repro serve`` applies queued mutations exactly there), so the
        epoch in progress is never shortened below the ticks it already
        served. Load normalization (``served / epoch_len``) picks up the
        new length from the next epoch on.
        """
        if epoch_len <= 0:
            raise ValueError("epoch_len must be positive")
        self.config = self.config.with_(epoch_len=epoch_len)
        self._epoch_end_tick = self._epoch_begin_tick + epoch_len

    # ------------------------------------------------- policy/mechanism seam
    def snapshot_view(self) -> ClusterView:
        """The immutable epoch snapshot handed to the balancer."""
        return build_cluster_view(
            epoch=self.epoch,
            mdss=self.mdss,
            stats=self.stats,
            authmap=self.authmap,
            migrator=self.migrator,
            default_capacity=self.config.mds_capacity,
            metrics=self.metrics,
            decision_ids=self.decision_ids,
            if_decision_id=self._last_if_id,
        )

    def apply_plan(self, plan: EpochPlan | None) -> None:
        """Replay a policy's plan onto the live cluster, in action order.

        Order preservation is what keeps decision traces identical to a
        policy acting directly: an export's ``MigrationPlanned`` event (the
        migrator emits it on submission) lands exactly where the policy
        placed the export between its trace events.

        Every rank an action names is checked before any action replays,
        so a plan that exports to, or pins at, a rank the cluster does not
        have raises ``ValueError`` and leaves the cluster untouched.
        """
        if plan is None:
            return
        n_mds = self.n_mds
        for action in plan.actions:
            if isinstance(action, ExportUnit):
                ranks: tuple[int, ...] = (action.src, action.dst)
            elif isinstance(action, PinSubtree):
                ranks = (action.rank,)
            else:
                continue
            if not all(0 <= r < n_mds for r in ranks):
                raise ValueError(f"plan action {action!r} names a rank "
                                 f"outside 0..{n_mds - 1}")
        for action in plan.actions:
            if isinstance(action, EmitEvent):
                self.trace.emit(action.event)
            elif isinstance(action, SplitDir):
                self.authmap.split_dir(action.dir_id, action.bits)
            elif isinstance(action, PinSubtree):
                self.authmap.set_subtree_auth(action.dir_id, action.rank)
            elif isinstance(action, ExportUnit):
                self.migrator.submit_export(action.src, action.dst,
                                            action.unit, action.load,
                                            decision_id=action.did,
                                            parent_id=action.parent)
            else:
                raise TypeError(f"unknown plan action {action!r}")

    # ------------------------------------------------------------------ run
    def run(self) -> SimResult:
        """Batch mode: setup, tick to completion, finalize."""
        self.start()
        while self.step_tick():
            pass
        return self.finish()

    def start(self) -> None:
        """Apply the balancer's one-time setup plan (span ``setup``).

        First third of the incremental protocol ``start`` →
        ``step_tick``\\* → ``finish`` that :meth:`run` composes and that
        `repro serve` drives tick-by-tick (pausing, single-stepping and
        mutating config between ticks). The split changes no behaviour:
        :meth:`run` executes the exact statement sequence the former
        monolithic loop did.
        """
        with self._spans.span("setup"):
            self.apply_plan(self.balancer.setup(self.snapshot_view()))
        self._perf_t0 = time.perf_counter()

    def step_tick(self) -> bool:
        """Advance the simulation by one tick.

        Returns ``False`` once the run is over — tick budget exhausted, or
        every client done at an epoch boundary under ``stop_when_done`` —
        after which further calls are no-ops. The caller owns the loop;
        :meth:`finish` produces the result.
        """
        cfg = self.config
        if self._halted or self.tick >= cfg.max_ticks:
            self._halted = True
            return False
        spans = self._spans
        self._fire_schedule(self.tick)
        self._begin_tick()
        if self.tick == self._epoch_begin_tick:
            spans.begin("epoch")
        with spans.span("serve"):
            self._wait_ticks_epoch += self.engine.serve_tick(self.tick)
        if self.osd is not None:
            now = self.tick
            self.osd.tick()
            window = self.config.data_window
            for cid in list(self._data_busy):
                left = self.osd.outstanding(cid)
                c = self._by_cid[cid]
                if c.done:
                    if left <= 0.0:
                        self._data_busy.discard(cid)
                        c.done_at = now  # completion includes the drain
                elif left <= window:
                    self._data_busy.discard(cid)
        down = {m.rank for m in self.mdss if m.failed}
        with spans.span("migration"):
            self.migrator.tick(down)
        self.tick += 1
        if self.tick == self._epoch_end_tick:
            self._end_epoch()
            spans.end("epoch")
            if cfg.stop_when_done and self._all_done():
                self._halted = True
                return False
        if self.tick >= cfg.max_ticks:
            self._halted = True
            return False
        return True

    def finish(self) -> SimResult:
        """Close the run: flush the recorder, assemble the result."""
        return self._finalize()

    def _all_done(self) -> bool:
        if self._schedule_pos < len(self._schedule):
            return False
        if self._data_busy:
            return False
        return all(c.done for c in self.clients)

    def _fire_schedule(self, now: int) -> None:
        while (self._schedule_pos < len(self._schedule)
               and self._schedule[self._schedule_pos].tick <= now):
            self._schedule[self._schedule_pos].fn(self)
            self._schedule_pos += 1

    def _begin_tick(self) -> None:
        busy = self.migrator.busy_ranks()
        penalty = self.migrator.penalty
        for m in self.mdss:
            m.migration_penalty = penalty if m.rank in busy else 0.0
            m.refill()

    # ---------------------------------------------------------------- epochs
    def _end_epoch(self) -> None:
        cfg = self.config
        served = [m.served_epoch for m in self.mdss]
        loads = [m.end_epoch(cfg.epoch_len) for m in self.mdss]
        self.stats.end_epoch()

        r = self.result
        r.epoch_ticks.append(self.tick)
        r.per_mds_iops.append(loads)
        capacity = max(m.capacity for m in self.mdss)
        if_value = imbalance_factor(loads, capacity, cfg.urgency_smoothness)
        r.if_series.append(if_value)
        r.migrated_series.append(self.migrator.migrated_inodes)
        r.forwards_series.append(self.router.total_forwards)
        # Mean metadata-op latency in ticks: one service tick plus the
        # queueing delay amortized over the epoch's served ops.
        ops = sum(served)
        r.latency_series.append(
            1.0 + (self._wait_ticks_epoch / ops if ops else 0.0)
        )
        self._wait_ticks_epoch = 0

        # Decision trace + metrics: the epoch boundary and the reporting IF
        # (the balancer below adds its own trigger/role/selection events).
        self.trace.emit(EpochStart(epoch=self.epoch, tick=self.tick))
        self._last_if_id = self.trace.next_decision_id()
        self.trace.emit(IfComputed(epoch=self.epoch, value=if_value,
                                   loads=tuple(loads), source="simulator",
                                   did=self._last_if_id))
        m = self.metrics
        m.counter("sim.epochs").inc()
        m.counter("sim.ops_served").inc(ops)
        m.gauge("sim.imbalance_factor").set(if_value)
        for rank, load in enumerate(loads):
            m.gauge("mds.load", rank=rank).set(load)
        if cfg.perf_gauges:
            elapsed = time.perf_counter() - self._perf_t0
            if elapsed > 0.0:
                m.gauge("sim.epochs_per_second").set((self.epoch + 1) / elapsed)
                m.gauge("serve.ops_per_second").set(
                    sum(mds.served_total for mds in self.mdss) / elapsed)
        if cfg.workload_profile:
            # Post-decision-trace characterization of the closing epoch.
            # Reads the same loads/heat the balancer saw but writes only
            # gauges, ``wl.*`` columns and ``last_workload_profile`` —
            # never the trace, so decisions stay byte-identical.
            heat_values, n_dirs = self.stats.live_heat()
            started = sum(1 for c in self.clients if c.ready_at <= self.tick)
            done = sum(1 for c in self.clients if c.done_at is not None)
            profile = WorkloadProfile.compute(
                epoch=self.epoch, loads=loads, heat_values=heat_values,
                n_dirs=n_dirs, mix=self.stats.last_epoch_mix,
                clients_started=started - self._clients_started_prev,
                clients_done=done - self._clients_done_prev,
                active_clients=started - done)
            self._clients_started_prev = started
            self._clients_done_prev = done
            self.last_workload_profile = profile
            profile.to_gauges(m)

        spans = self._spans
        with spans.span("snapshot_view"):
            view = self.snapshot_view()
        with spans.span("plan"):
            plan = self.balancer.on_epoch(view)
        with spans.span("apply_plan"):
            self.apply_plan(plan)
        if self.recorder is not None:
            self._record_epoch(self.recorder, if_value, loads, ops)
        # Housekeeping CephFS also performs: merge subtree roots and frag
        # maps that migrations have made redundant, so the authority map
        # (and resolution cost) stays proportional to real fragmentation.
        # Directories with in-flight frag exports keep their splits.
        self.authmap.merge_redundant_roots()
        self.authmap.merge_uniform_frags(exclude=self.migrator.pending_frag_dirs())
        self.epoch += 1
        self._epoch_begin_tick = self.tick
        self._epoch_end_tick = self.tick + self.config.epoch_len

    def _record_epoch(self, rec: FlightRecorder, if_value: float,
                      loads: list[float], ops: int) -> None:
        """One flight-recorder sample: the epoch's row in the time series.

        Queue depths are read *after* the plan applied, so the row shows
        the migration backlog this epoch's decisions actually created.
        """
        cfg = self.config
        capacity = max(m.capacity for m in self.mdss)
        queue_depths = [self.migrator.queue_depth(m.rank) for m in self.mdss]
        record: dict[str, float | int] = {
            "epoch": self.epoch,
            "tick": self.tick,
            "if": if_value,
            "urgency": urgency(max(loads), capacity, cfg.urgency_smoothness),
            "ops": ops,
            "latency": self.result.latency_series[-1],
            "migrated": self.migrator.migrated_inodes,
            "forwards": self.router.total_forwards,
            "queue": sum(queue_depths),
        }
        for rank, load in enumerate(loads):
            record[f"load.{rank}"] = load
        for rank, depth in enumerate(queue_depths):
            record[f"queue.{rank}"] = depth
        profile = self.last_workload_profile
        if cfg.workload_profile and profile is not None \
                and profile.epoch == self.epoch:
            record.update(profile.to_record())
        rec.sample(record, registry=self.metrics)

    # -------------------------------------------------------------- finalize
    def _finalize(self) -> SimResult:
        if self.recorder is not None:
            self.recorder.finalize()
        r = self.result
        r.completion_ticks = {
            c.cid: c.done_at for c in self.clients if c.done_at is not None
        }
        r.served_per_mds = [m.served_total for m in self.mdss]
        r.inode_distribution = self.authmap.inode_distribution(len(self.mdss))
        r.meta_ops = sum(c.meta_ops for c in self.clients)
        r.data_ops = sum(c.data_ops for c in self.clients)
        r.committed_tasks = self.migrator.committed_tasks
        r.aborted_tasks = self.migrator.aborted_tasks
        r.total_forwards = self.router.total_forwards
        r.finished_tick = self.tick
        return r
