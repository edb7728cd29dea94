"""Observability: request tracing, metrics, I/O attribution, slow log.

The diagnostic substrate of the serving stack (``docs/observability.md``):

* :mod:`repro.obs.tap` — context-local :class:`IOTap` attribution,
  incremented by the stores adjacent to the shared counters, so
  per-request/per-batch I/O totals are exact slices of
  :class:`~repro.iomodel.counters.IOCounters` (attributed, never
  re-counted).
* :mod:`repro.obs.trace` — :class:`Trace`/:class:`Span` with head
  sampling and an always-trace-if-slow rule, exported in Chrome
  trace-event format for Perfetto.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of labeled
  counters/gauges/histograms with Prometheus-text exposition.
* :mod:`repro.obs.slowlog` — bounded :class:`SlowQueryLog` ring.
* :mod:`repro.obs.cachestats` — ghost-LRU
  :class:`ReuseDistanceTracker`: miss-ratio-vs-budget curves and
  working-set estimates.
* :mod:`repro.obs.health` — cache-neutral tree-quality analytics
  (:class:`TreeQuality`) and the :func:`degradation_score` against the
  pack-time baseline that arms the self-maintenance trigger.
* :mod:`repro.obs.status` — one :class:`IndexStatus` per open index
  (files, health, page stores), read by ``repro status`` and by the
  service's :meth:`~repro.service.AsyncQueryService.status`, and the
  one family table the service's metrics are exported through.

Everything is opt-in: with no tracer/tap/registry installed, the hooks
cost one ``ContextVar.get`` (or one ``None`` check) per event.
"""

from repro.obs.cachestats import (
    CacheCurvePoint,
    ReuseDistanceTracker,
    default_budgets,
)
from repro.obs.health import (
    LevelQuality,
    TreeQuality,
    degradation_score,
    index_quality,
    tree_quality,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.slowlog import SlowQueryLog, SlowQueryRecord
from repro.obs.tap import IOTap, active_tap, install_tap, scoped_tap
from repro.obs.status import (
    FileStatus,
    IndexStatus,
    ServiceStatus,
    StoreStatus,
    read_status,
)
from repro.obs.trace import (
    Span,
    Trace,
    Tracer,
    TraceWriter,
    activate_trace,
    check_span_nesting,
    current_trace,
    load_trace_events,
)

__all__ = [
    "CacheCurvePoint",
    "ReuseDistanceTracker",
    "default_budgets",
    "LevelQuality",
    "TreeQuality",
    "degradation_score",
    "index_quality",
    "tree_quality",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "SlowQueryLog",
    "SlowQueryRecord",
    "FileStatus",
    "IndexStatus",
    "ServiceStatus",
    "StoreStatus",
    "read_status",
    "IOTap",
    "active_tap",
    "install_tap",
    "scoped_tap",
    "Span",
    "Trace",
    "Tracer",
    "TraceWriter",
    "activate_trace",
    "check_span_nesting",
    "current_trace",
    "load_trace_events",
]
