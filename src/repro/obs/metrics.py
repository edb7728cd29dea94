"""Metrics registry with labeled series and Prometheus-text exposition.

One :class:`MetricsRegistry` holds every metric the stack exports:
**counters** (monotone totals — requests, rejections, attributed I/O),
**gauges** (point-in-time values — queue depth, cache fill, shard
balance), and **histograms** (the existing
:class:`~repro.service.stats.LatencyHistogram`, unchanged — the
registry wraps it, it does not reimplement bucketing).  Each metric is
a *family* (name + help + label names) with one child per label-value
tuple, so per-index / per-shard / per-kind / per-lane series share a
family the way Prometheus expects:

``repro_request_latency_seconds{kind="knn",quantile="0.99"}``.

Exposition is the Prometheus text format, version 0.0.4: counters and
gauges as plain samples, histograms as summaries (``quantile`` labels
from the geometric histogram plus exact ``_sum``/``_count``).  The
dump is a pure function of registry state — the serving hot path never
formats anything; :class:`~repro.service.service.AsyncQueryService`
copies its :class:`~repro.service.stats.ServiceStats` into the
registry on a periodic snapshot task, and :meth:`MetricsRegistry.dump`
just renders it to a file.

Everything here is stdlib; creation is locked, single increments are
plain (the GIL makes ``+=`` on one child racy only across threads that
share a child — our writers are the event loop and the snapshot task,
which serialize).
"""

from __future__ import annotations

import re
import threading
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    # The storage layers import repro.obs (for the tap hooks) and the
    # service layer imports the storage layers; importing the service's
    # stats module here at runtime would close that loop.
    from repro.service.stats import LatencyHistogram

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
]

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: Quantiles a histogram family exposes (Prometheus summary style).
_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _escape(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set_total(self, total: float) -> None:
        """Jump to an externally maintained running total.

        The snapshot path: :class:`~repro.service.stats.ServiceStats`
        already keeps the totals, so the registry mirrors them instead
        of double-counting.  Totals must not regress.
        """
        if total < self.value:
            raise ValueError(
                f"counter total regressed: {total} < {self.value}"
            )
        self.value = total


class Gauge:
    """A value that can go anywhere (depth, fill, balance, rate)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramMetric:
    """A labeled series backed by a :class:`LatencyHistogram`."""

    __slots__ = ("hist",)

    def __init__(self) -> None:
        from repro.service.stats import LatencyHistogram

        self.hist = LatencyHistogram()

    def observe(self, value_s: float) -> None:
        self.hist.observe(value_s)

    def set_from(self, source: "LatencyHistogram") -> None:
        """Replace contents with a copy of ``source`` (snapshot
        semantics: the live histogram keeps accumulating elsewhere)."""
        from repro.service.stats import LatencyHistogram

        fresh = LatencyHistogram()
        fresh.merge(source)
        self.hist = fresh


class _Family:
    """One metric name: help text, type, and one child per label tuple."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        child_type,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self._child_type = child_type
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, *values: object) -> object:
        """The child for one label-value tuple (created on demand)."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._child_type())
        return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Every exported metric family, renderable as Prometheus text.

    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_requests_total", "Requests", ("kind",)
    ... ).labels("knn").inc()
    >>> "repro_requests_total" in registry.render_prometheus()
    True
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Iterable[str],
        child_type,
    ) -> _Family:
        if not _NAME.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not _LABEL.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(
                    name, help_text, kind, names, child_type
                )
                return family
        if family.kind != kind or family.labelnames != names:
            raise ValueError(
                f"metric {name!r} re-registered with different "
                f"type/labels ({family.kind}{family.labelnames} vs "
                f"{kind}{names})"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> _Family:
        return self._family(name, help_text, "counter", labelnames, Counter)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> _Family:
        return self._family(name, help_text, "gauge", labelnames, Gauge)

    def histogram(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> _Family:
        return self._family(
            name, help_text, "summary", labelnames, HistogramMetric
        )

    # -- exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values, child in family.children():
                labels = _render_labels(family.labelnames, values)
                if isinstance(child, (Counter, Gauge)):
                    lines.append(f"{name}{labels} {_format(child.value)}")
                    continue
                hist = child.hist  # type: ignore[union-attr]
                for q in _QUANTILES:
                    quantile = _render_labels(
                        family.labelnames, values, f'quantile="{q}"'
                    )
                    lines.append(
                        f"{name}{quantile} "
                        f"{_format(hist.percentile(q * 100))}"
                    )
                lines.append(f"{name}_sum{labels} {_format(hist.total)}")
                lines.append(f"{name}_count{labels} {hist.count}")
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        """Write :meth:`render_prometheus` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render_prometheus())


def _format(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
