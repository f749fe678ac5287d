"""The migration cost/benefit ledger: did each migration pay for itself?

Lunule claims to be *judicious* — it migrates only when migration is worth
the disruption — and this module is the audit. It joins the decision
trace's provenance DAG with the per-epoch load history (the simulator's
own ``if_computed`` events, or recorded ``load.<rank>`` time-series
columns) and charges every ``migration_committed`` a **cost** (inodes
moved, plus its share of the round's aborted-sibling waste) against a
**realized benefit** (load the receiver actually picked up over the next
K epochs, relative to its pre-decision baseline, capped at what the plan
promised). Each entry gets one verdict from ``OUTCOME_VERDICTS``:

- ``paid_off`` — realized benefit covered ≥ 50% of the planned heat;
- ``neutral`` — partial benefit (≥ 10%), or the ledger could not observe
  enough epochs / inputs to judge fairly;
- ``wasted`` — the migrated subtree went cold on arrival (< 10%);
- ``ping_pong`` — the same unit was re-planned **off the receiver**
  within W epochs, the classic thrash Lunule's §2.3 warns about. Detected
  across the whole run and takes precedence over the ratio verdicts.

Everything is **post-hoc**: ledgers are built from a finished (or
in-flight, via the serve plane) trace and never feed back into
decisions, so golden traces stay byte-identical with the ledger enabled.
:class:`LedgerBuilder` is the one judging path: :func:`build_ledger`
feeds it a whole trace at once, and ``repro serve`` feeds it each
epoch's new events, judging again only the commits whose windows are
still open. :func:`aborted_waste` is the planned-inode join of the abort
totals, kept for the chaos robustness score's ``reason`` filter.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain

from repro.obs.events import (
    NO_DECISION,
    EpochStart,
    IfComputed,
    MigrationAborted,
    MigrationCommitted,
    MigrationOutcome,
    MigrationPlanned,
    TraceEvent,
)
from repro.obs.tracelog import TraceSink

__all__ = [
    "LedgerBuilder",
    "OutcomeConfig",
    "OutcomeEntry",
    "OutcomeLedger",
    "aborted_waste",
    "build_ledger",
    "emit_outcomes",
]


@dataclass(frozen=True)
class OutcomeConfig:
    """Ledger knobs: the K/W windows and the verdict ratio cutoffs."""

    #: K — epochs after the commit over which benefit is accumulated
    benefit_epochs: int = 5
    #: W — a re-export of the unit off its receiver within this many
    #: epochs of the commit is a ping-pong
    pingpong_epochs: int = 10
    #: realized/expected at or above this is ``paid_off``
    paid_off_ratio: float = 0.5
    #: ... at or above this (but below paid_off) is ``neutral``
    neutral_ratio: float = 0.1

    def __post_init__(self) -> None:
        if self.benefit_epochs < 1 or self.pingpong_epochs < 1:
            raise ValueError("outcome windows must be >= 1 epoch")
        if not 0.0 <= self.neutral_ratio <= self.paid_off_ratio:
            raise ValueError("need 0 <= neutral_ratio <= paid_off_ratio")


@dataclass(frozen=True)
class OutcomeEntry:
    """One committed migration's audited cost/benefit record."""

    did: int            #: the ``migration_committed`` decision id
    plan_did: int       #: its ``migration_planned`` parent (may be evicted)
    epoch: int          #: commit epoch (tick-attributed)
    plan_epoch: int     #: planning epoch — the round waste is shared within
    src: int
    dst: int
    unit: int | str
    inodes: int         #: direct cost: inodes physically moved
    waste: int          #: shared cost: this entry's aborted-sibling inodes
    planned_load: float  #: heat the plan promised the receiver
    baseline: float     #: receiver load baseline before the decision
    realized: float     #: benefit actually observed over the window
    expected: float     #: planned_load x epochs observed
    observed_epochs: int
    verdict: str
    partial: bool       #: plan evicted from a ring trace — inputs incomplete

    @property
    def ratio(self) -> float:
        """Realized over expected benefit (0 when nothing was observable)."""
        return self.realized / self.expected if self.expected > 0.0 else 0.0

    def to_dict(self) -> dict:
        return {
            "did": self.did,
            "plan_did": self.plan_did,
            "epoch": self.epoch,
            "plan_epoch": self.plan_epoch,
            "src": self.src,
            "dst": self.dst,
            "unit": self.unit,
            "inodes": self.inodes,
            "waste": self.waste,
            "planned_load": self.planned_load,
            "baseline": self.baseline,
            "realized": self.realized,
            "expected": self.expected,
            "ratio": self.ratio,
            "observed_epochs": self.observed_epochs,
            "verdict": self.verdict,
            "partial": self.partial,
        }


@dataclass(frozen=True)
class OutcomeLedger:
    """Every committed migration of one run, judged."""

    entries: tuple[OutcomeEntry, ...]
    config: OutcomeConfig = field(default_factory=OutcomeConfig)
    #: aborted tasks/inodes the run wasted regardless of attribution
    aborted_tasks: int = 0
    aborted_inodes: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def by_commit(self) -> dict[int, OutcomeEntry]:
        """Entry per judged ``migration_committed`` decision id."""
        return {e.did: e for e in self.entries}

    def verdict_counts(self) -> dict[str, int]:
        """Entries per verdict, sorted by verdict name."""
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.verdict] = out.get(e.verdict, 0) + 1
        return dict(sorted(out.items()))

    def totals(self) -> dict[str, float]:
        """Run-level economics: total cost, benefit, and efficiency."""
        return _totals(
            len(self.entries), sum(e.inodes for e in self.entries),
            sum(e.realized for e in self.entries),
            sum(e.expected for e in self.entries),
            self.aborted_tasks, self.aborted_inodes)

    def to_dict(self) -> dict:
        """JSON-ready ledger document (``schema`` 1 — the obs-smoke contract)."""
        return {
            "schema": 1,
            "config": {
                "benefit_epochs": self.config.benefit_epochs,
                "pingpong_epochs": self.config.pingpong_epochs,
                "paid_off_ratio": self.config.paid_off_ratio,
                "neutral_ratio": self.config.neutral_ratio,
            },
            "entries": [e.to_dict() for e in self.entries],
            "verdicts": self.verdict_counts(),
            "totals": self.totals(),
        }


def _totals(migrations: int, moved: int, realized: float, expected: float,
            aborted_tasks: int, aborted_inodes: int) -> dict[str, float]:
    return {
        "migrations": float(migrations),
        "moved_inodes": float(moved),
        "aborted_inodes": float(aborted_inodes),
        "aborted_tasks": float(aborted_tasks),
        "realized": realized,
        "expected": expected,
        "efficiency": realized / expected if expected > 0.0 else 0.0,
    }


# ----------------------------------------------------------------- building
def _timeseries_loads(
    timeseries: Mapping[str, Sequence[float | int | None]] | None,
) -> dict[int, list[float]] | None:
    """Per-epoch per-rank load vectors from recorded time-series columns.

    Recorded ``epoch``/``load.<rank>`` columns hold exact end-of-epoch
    values and, when present, are the ledger's whole load history. None
    means they are absent: the ledger then reads the simulator's own
    ``if_computed`` events, which carry the same per-rank load tuple — so
    a bare decision trace is self-sufficient.
    """
    if timeseries is None:
        return None
    epochs = timeseries.get("epoch")
    ranks = sorted(
        (name for name in timeseries if name.startswith("load.")),
        key=lambda name: int(name.split(".", 1)[1]))
    if epochs is None or not ranks:
        return None
    cols = [timeseries[name] for name in ranks]
    history: dict[int, list[float]] = {}
    for i, epoch_cell in enumerate(epochs):
        if epoch_cell is None:
            continue
        history[int(epoch_cell)] = [
            float(c[i]) if i < len(c) and c[i] is not None else 0.0
            for c in cols]
    return history


def aborted_waste(events: Iterable[TraceEvent],
                  reason: str | None = None) -> tuple[int, int]:
    """Aborted migration (tasks, planned inodes), optionally by reason.

    The planned-inode join of the ledger's abort totals, as a one-shot
    function for the chaos robustness score, which needs the ``reason``
    filter: each ``migration_aborted`` is charged the ``inodes`` its
    ``migration_planned`` parent promised to move (0 when the plan was
    evicted from a ring trace). ``reason=None`` counts every abort and
    equals the ledger's ``(aborted_tasks, aborted_inodes)``;
    ``reason="mds_failed"`` is the chaos score's fault-inflicted slice.
    """
    events = list(events)
    planned_inodes = {e.did: e.inodes for e in events  # type: ignore[attr-defined]
                      if e.etype == "migration_planned"}
    tasks = 0
    inodes = 0
    for e in events:
        if e.etype != "migration_aborted":
            continue
        if reason is not None and getattr(e, "reason", None) != reason:
            continue
        tasks += 1
        inodes += planned_inodes.get(getattr(e, "parent", NO_DECISION), 0)
    return tasks, inodes


class LedgerBuilder:
    """The outcome ledger of a growing trace, kept current as it grows.

    :meth:`feed` takes trace events in emission order, in chunks of any
    size. After every chunk, :meth:`ledger` equals :func:`build_ledger`
    over all events fed so far, and ``len()``, :meth:`verdict_counts` and
    :meth:`totals` equal that ledger's. The joins a whole-trace build
    would redo are indices kept as events arrive: plans by decision id
    and by ``(src, unit)`` for the ping-pong check, the epoch boundaries,
    per-epoch loads, abort totals, and the commits per rank
    (:attr:`migrations_in`, :attr:`migrations_out`).

    An entry is **final** once the last closed epoch (the newest
    ``epoch_start``) is past ``commit_epoch + max(K, W)``: its baseline,
    benefit and ping-pong windows have closed, and no event emitted later
    can fall into them. Final entries are judged once and fold into
    running tallies, so a read costs O(new events + commits whose windows
    are still open), not a rebuild. Two things are never fixed early. A
    tick's epoch is that of the first boundary at or after it, so a tick
    past the last boundary stays provisional until one arrives. And the
    planning-round waste shares are joined only by :meth:`ledger`: a
    round is keyed by its plans' epoch, which may still be provisional
    when an abort or commit arrives, and a late abort or commit can
    reshape a round long after its plan. The tallies do not use them.
    """

    def __init__(
        self,
        *,
        timeseries: Mapping[str, Sequence[float | int | None]] | None = None,
        config: OutcomeConfig | None = None,
    ) -> None:
        self.config = config if config is not None else OutcomeConfig()
        self._horizon = max(self.config.benefit_epochs,
                            self.config.pingpong_epochs)
        history = _timeseries_loads(timeseries)
        self._loads_from_trace = history is None
        self._history: dict[int, list[float]] = history or {}
        #: ``epoch_start`` ticks and epochs, in emission (= tick) order
        self._boundary_ticks: list[int] = []
        self._boundary_epochs: list[int] = []
        self._plans: dict[int, MigrationPlanned] = {}
        #: (src, unit) -> [(plan did, plan tick)]: who planned a unit off a rank
        self._replans: dict[tuple[int, int | str], list[tuple[int, int]]] = {}
        #: commits whose windows are still open, in decision-id order, and
        #: their judgments as of the last chunk (None: not judged yet)
        self._open: list[MigrationCommitted] = []
        self._open_entries: list[OutcomeEntry] | None = None
        #: final entries (a decision-id prefix) and their tallies; benefit
        #: is kept as values, not running sums, because ``sum`` compensates
        #: float rounding on Python >= 3.12 and the tallies must equal
        #: :meth:`OutcomeLedger.totals` bit for bit
        self._final: list[OutcomeEntry] = []
        self._final_verdicts: dict[str, int] = {}
        self._final_moved = 0
        self._final_realized: list[float] = []
        self._final_expected: list[float] = []
        #: every abort's plan did, for the round-waste join
        self._abort_parents: list[int] = []
        self.aborted_tasks = 0
        self.aborted_inodes = 0
        #: committed migrations per receiving / exporting rank
        self.migrations_in: dict[int, int] = {}
        self.migrations_out: dict[int, int] = {}

    # --------------------------------------------------------------- feeding
    def feed(self, events: Iterable[TraceEvent]) -> None:
        """Index the next events (emission order); freeze what became final."""
        aborts: list[int] = []
        for e in events:
            if isinstance(e, IfComputed):
                if self._loads_from_trace and e.source == "simulator":
                    self._history[int(e.epoch)] = [float(x) for x in e.loads]
            elif isinstance(e, EpochStart):
                self._boundary_ticks.append(e.tick)
                self._boundary_epochs.append(e.epoch)
            elif isinstance(e, MigrationPlanned):
                self._plans[e.did] = e
                self._replans.setdefault((int(e.src), e.unit), []).append(
                    (e.did, int(e.tick)))
            elif isinstance(e, MigrationCommitted):
                bisect.insort(self._open, e, key=lambda c: c.did)
                self.migrations_out[e.src] = self.migrations_out.get(e.src, 0) + 1
                self.migrations_in[e.dst] = self.migrations_in.get(e.dst, 0) + 1
            elif isinstance(e, MigrationAborted):
                aborts.append(e.parent)
        # joined after the whole chunk is indexed, so within one chunk (a
        # whole-trace build) a plan may follow its abort
        for parent in aborts:
            plan = self._plans.get(parent)
            if plan is not None:
                self.aborted_inodes += plan.inodes
        self.aborted_tasks += len(aborts)
        self._abort_parents += aborts
        self._open_entries = None
        self._freeze()

    def _freeze(self) -> None:
        """Judge, once and for all, the open commits whose windows closed."""
        if not self._boundary_epochs:
            return
        last = self._boundary_epochs[-1]
        n = 0
        for c in self._open:
            if self._epoch_of(int(c.tick)) + self._horizon >= last:
                break  # the final entries stay a decision-id prefix
            entry = self._judge(c)
            self._final.append(entry)
            self._final_verdicts[entry.verdict] = (
                self._final_verdicts.get(entry.verdict, 0) + 1)
            self._final_moved += entry.inodes
            self._final_realized.append(entry.realized)
            self._final_expected.append(entry.expected)
            n += 1
        del self._open[:n]

    # --------------------------------------------------------------- judging
    def _epoch_of(self, tick: int) -> int:
        """Tick → epoch, by the same boundary rule as ``filter_events``.

        The epoch whose ``epoch_start`` is the first at or after the tick;
        a tick past the last boundary belongs to the unclosed next epoch,
        and with no boundary at all every tick is epoch 0.
        """
        ticks = self._boundary_ticks
        if not ticks:
            return 0
        i = bisect.bisect_left(ticks, tick)
        epochs = self._boundary_epochs
        return epochs[i] if i < len(ticks) else epochs[-1] + 1

    def _judge(self, c: MigrationCommitted) -> OutcomeEntry:
        """One commit's entry on what has been fed (``waste`` left 0)."""
        cfg = self.config
        history = self._history
        plan = self._plans.get(c.parent)
        partial = plan is None
        commit_epoch = self._epoch_of(int(c.tick))
        plan_epoch = self._epoch_of(
            int(plan.tick if plan is not None else c.tick))
        planned_load = float(plan.load) if plan is not None else 0.0
        dst = int(c.dst)

        def dst_load(k: int) -> float | None:
            loads = history.get(k)
            if loads is None or dst >= len(loads):
                return None
            return loads[dst]

        base_samples = [v for k in range(max(0, plan_epoch - cfg.benefit_epochs),
                                         plan_epoch)
                        if (v := dst_load(k)) is not None]
        if base_samples:
            baseline = sum(base_samples) / len(base_samples)
        else:
            baseline = dst_load(plan_epoch) or 0.0

        realized = 0.0
        observed = 0
        for k in range(commit_epoch + 1, commit_epoch + 1 + cfg.benefit_epochs):
            v = dst_load(k)
            if v is None:
                continue
            observed += 1
            gain = max(0.0, v - baseline)
            realized += min(planned_load, gain) if planned_load > 0.0 else gain

        expected = planned_load * observed
        ratio = realized / expected if expected > 0.0 else 0.0

        # Ping-pong: the same unit planned *off this receiver* by a later
        # decision within W epochs of the commit — whatever became of that
        # later plan, the benefit window was cut short by a reversal.
        limit = commit_epoch + cfg.pingpong_epochs
        pingpong = any(did > c.did and self._epoch_of(tick) <= limit
                       for did, tick in self._replans.get((dst, c.unit), ()))

        if pingpong:
            verdict = "ping_pong"
        elif partial or observed == 0 or expected <= 0.0:
            verdict = "neutral"
        elif ratio >= cfg.paid_off_ratio:
            verdict = "paid_off"
        elif ratio >= cfg.neutral_ratio:
            verdict = "neutral"
        else:
            verdict = "wasted"

        return OutcomeEntry(
            did=int(c.did),
            plan_did=int(c.parent),
            epoch=commit_epoch,
            plan_epoch=plan_epoch,
            src=int(c.src),
            dst=dst,
            unit=c.unit,
            inodes=int(c.inodes),
            waste=0,
            planned_load=planned_load,
            baseline=baseline,
            realized=realized,
            expected=expected,
            observed_epochs=observed,
            verdict=verdict,
            partial=partial,
        )

    def _judged_open(self) -> list[OutcomeEntry]:
        if self._open_entries is None:
            self._open_entries = [self._judge(c) for c in self._open]
        return self._open_entries

    def _waste_shares(self, entries: Sequence[OutcomeEntry]) -> dict[int, int]:
        """Each entry's share of its planning round's aborted inodes.

        Aborted planned inodes are grouped by the *planning* epoch and
        shared equally across that round's commits (remainder to the
        earliest commit by decision id). A round with no commits keeps
        its waste in the run totals but attributes it to nobody.
        """
        waste: dict[int, int] = {}
        for parent in self._abort_parents:
            plan = self._plans.get(parent)
            if plan is not None:
                k = self._epoch_of(plan.tick)
                waste[k] = waste.get(k, 0) + plan.inodes
        rounds: dict[int, list[int]] = {}
        for e in entries:
            rounds.setdefault(e.plan_epoch, []).append(e.did)
        shares: dict[int, int] = {}
        for k, dids in rounds.items():
            share, rem = divmod(waste.get(k, 0), len(dids))
            for i, did in enumerate(dids):
                shares[did] = share + (rem if i == 0 else 0)
        return shares

    # --------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._final) + len(self._open)

    def verdict_counts(self) -> dict[str, int]:
        """Entries per verdict, sorted by verdict name."""
        out = dict(self._final_verdicts)
        for e in self._judged_open():
            out[e.verdict] = out.get(e.verdict, 0) + 1
        return dict(sorted(out.items()))

    def totals(self) -> dict[str, float]:
        """Run-level economics, as :meth:`OutcomeLedger.totals`."""
        opened = self._judged_open()
        return _totals(
            len(self._final) + len(opened),
            self._final_moved + sum(e.inodes for e in opened),
            sum(chain(self._final_realized, (e.realized for e in opened))),
            sum(chain(self._final_expected, (e.expected for e in opened))),
            self.aborted_tasks, self.aborted_inodes)

    def ledger(self) -> OutcomeLedger:
        """Every commit fed so far, judged, with round waste joined."""
        entries = self._final + self._judged_open()
        shares = self._waste_shares(entries)
        return OutcomeLedger(
            entries=tuple(replace(e, waste=shares[e.did]) if shares[e.did]
                          else e for e in entries),
            config=self.config, aborted_tasks=self.aborted_tasks,
            aborted_inodes=self.aborted_inodes)


def build_ledger(
    events: Iterable[TraceEvent],
    *,
    timeseries: Mapping[str, Sequence[float | int | None]] | None = None,
    config: OutcomeConfig | None = None,
) -> OutcomeLedger:
    """Judge every ``migration_committed`` in a trace.

    Pure post-hoc analysis: reads the trace (and, when given, a
    time-series snapshot's ``epoch``/``load.<rank>`` columns for exact
    load history), writes nothing back. Commits whose plan was ring-
    evicted are judged ``neutral`` with ``partial=True`` rather than
    dropped — always-on traces must stay auditable. The trace is one
    :class:`LedgerBuilder` chunk, so a batch build and a live one share
    a single judging path.
    """
    builder = LedgerBuilder(timeseries=timeseries, config=config)
    builder.feed(events)
    return builder.ledger()


def emit_outcomes(sink: TraceSink, ledger: OutcomeLedger) -> int:
    """Append the ledger to a trace as ``migration_outcome`` events.

    Post-hoc annotation of a *copy* of the run's trace (never the golden
    stream): each event's ``parent`` is the judged ``migration_committed``
    decision, chaining commit → outcome in the provenance DAG. Returns
    the number of events emitted.
    """
    for entry in ledger.entries:
        did = sink.next_decision_id()
        sink.emit(MigrationOutcome(
            epoch=entry.epoch,
            src=entry.src,
            dst=entry.dst,
            unit=entry.unit,
            inodes=entry.inodes,
            planned_load=entry.planned_load,
            realized=entry.realized,
            expected=entry.expected,
            verdict=entry.verdict,
            observed_epochs=entry.observed_epochs,
            did=did,
            parent=entry.did,
            waste=entry.waste,
            partial=entry.partial,
        ))
    return len(ledger.entries)
