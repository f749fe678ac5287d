"""Observability: metrics, decision tracing, and the flight recorder.

Two always-on primitives every :class:`repro.cluster.Simulator` carries:

- :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  histograms (labelled, snapshot-able to dict/JSON) fed by the simulator,
  the migrator, the router and the balancers;
- :class:`~repro.obs.tracelog.TraceLog` — an ordered log of the typed
  decision events in :mod:`repro.obs.events` (epoch boundaries, IF
  computations, role assignments, subtree selections, migration
  plan/commit/abort, failure injection), exportable as canonical JSONL.

And the opt-in flight recorder (``SimConfig(record=True)``):

- :class:`~repro.obs.timeseries.TimeSeriesStore` — columnar per-epoch
  samples (per-MDS load, IF, urgency, queue depth, migrated inodes),
  snapshot-able to CSV/JSONL;
- :class:`~repro.obs.spans.SpanProfiler` — hierarchical phase spans with
  Chrome/Perfetto trace-event export (logical or wall clock);
- :mod:`~repro.obs.prom` — OpenMetrics text exposition of any registry
  snapshot, plus a self-check parser;
- :mod:`~repro.obs.report` — self-contained Markdown/HTML run reports
  (``repro report``);
- :mod:`~repro.obs.aggregate` — deterministic cross-worker merging for
  the process-pool experiment engine.

Decision provenance rides on the trace: :mod:`~repro.obs.provenance`
rebuilds the causal DAG the ``did``/``parent`` links encode (``repro
explain``), and :mod:`~repro.obs.diff` aligns two traces and reports
their first semantic divergence (``repro diff``).

Judiciousness auditing rides on both: :mod:`~repro.obs.outcomes` joins
the DAG with per-epoch load history into a migration cost/benefit ledger
(verdicts ``paid_off``/``neutral``/``wasted``/``ping_pong``), and
:mod:`~repro.obs.workload` characterizes each epoch's workload shape
(Gini/entropy skew, hotspot share, churn, op-mix class) as time-series
columns and ``workload.*`` gauges.

This package never imports the simulator (enforced by
``tests/test_architecture.py``). See ``docs/OBSERVABILITY.md`` for the
schemas and CLI usage.
"""

from repro.obs.events import (
    EVENT_TYPES,
    NO_DECISION,
    OP_MIX_CLASSES,
    OUTCOME_VERDICTS,
    SKIP_REASONS,
    AbortReason,
    DecisionIds,
    EpochSkipped,
    EpochStart,
    IfComputed,
    MdsFailed,
    MdsRecovered,
    MigrationAborted,
    MigrationCommitted,
    MigrationOutcome,
    MigrationPlanned,
    RoleAssigned,
    SubtreeSelected,
    TraceEvent,
    WorkloadProfiled,
    decode_unit,
    encode_unit,
    event_from_dict,
    event_from_json,
    event_to_dict,
    event_to_json,
)
from repro.obs.aggregate import merge_metrics_snapshots
from repro.obs.diff import diff_traces, render_diff, signature
from repro.obs.outcomes import (
    LedgerBuilder,
    OutcomeConfig,
    OutcomeEntry,
    OutcomeLedger,
    aborted_waste,
    build_ledger,
    emit_outcomes,
)
from repro.obs.provenance import (
    Chain,
    ProvenanceGraph,
    explain,
    format_event,
    render_explain,
)
from repro.obs.workload import (
    TOPK_DEFAULT,
    WorkloadProfile,
    classify_op_mix,
    emit_profiles,
    gini,
    normalized_entropy,
    profiles_from_timeseries,
    topk_share,
)
from repro.obs.prom import parse_openmetrics, render_openmetrics, write_textfile
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from repro.obs.report import render_html, render_run_report
from repro.obs.spans import SpanProfiler, merge_span_events, totals_from_events
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracelog import TraceLog, filter_events, read_jsonl, write_jsonl

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "histogram_quantile",
    "TraceLog",
    "read_jsonl",
    "write_jsonl",
    "filter_events",
    "FlightRecorder",
    "TimeSeriesStore",
    "SpanProfiler",
    "merge_span_events",
    "totals_from_events",
    "merge_metrics_snapshots",
    "render_openmetrics",
    "parse_openmetrics",
    "write_textfile",
    "render_run_report",
    "render_html",
    "TraceEvent",
    "EpochStart",
    "IfComputed",
    "EpochSkipped",
    "RoleAssigned",
    "SubtreeSelected",
    "MigrationPlanned",
    "MigrationCommitted",
    "MigrationAborted",
    "MdsFailed",
    "MdsRecovered",
    "EVENT_TYPES",
    "AbortReason",
    "SKIP_REASONS",
    "DecisionIds",
    "NO_DECISION",
    "encode_unit",
    "decode_unit",
    "event_to_dict",
    "event_from_dict",
    "event_to_json",
    "event_from_json",
    "ProvenanceGraph",
    "Chain",
    "explain",
    "render_explain",
    "format_event",
    "diff_traces",
    "render_diff",
    "signature",
    "MigrationOutcome",
    "WorkloadProfiled",
    "OUTCOME_VERDICTS",
    "OP_MIX_CLASSES",
    "OutcomeConfig",
    "OutcomeEntry",
    "OutcomeLedger",
    "LedgerBuilder",
    "build_ledger",
    "aborted_waste",
    "emit_outcomes",
    "WorkloadProfile",
    "TOPK_DEFAULT",
    "gini",
    "normalized_entropy",
    "topk_share",
    "classify_op_mix",
    "profiles_from_timeseries",
    "emit_profiles",
]
