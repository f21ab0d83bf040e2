"""The metrics registry: counters, gauges, bounded histograms.

Metrics are the *aggregate* window on the same hook points the tracer
sees: a counter per fault kind, a gauge per queue depth, a histogram of
simulated request latencies.  Three rules keep the registry safe in a
deterministic pipeline:

* **Bounded.**  Histograms have *fixed* bucket edges chosen at first
  observation (or passed explicitly) — no dynamic resizing, so memory
  is O(series), never O(samples).
* **Canonical.**  Exports sort by metric name then label set, so two
  identical runs produce byte-identical dumps.
* **Scrapeable.**  Components with a uniform ``snapshot() -> dict``
  (``TransportStats``, ``AdmissionQueue``, ``VerdictCache``) are folded
  into gauges by :meth:`MetricsRegistry.scrape` — one shape, one code
  path, instead of per-component adapters.

Two export formats: JSONL (one metric series per line) and a
Prometheus-style text dump, both written via
:func:`~repro.durable.atomic_write`.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Any

from repro.durable import atomic_write

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_SECONDS_EDGES"]

#: default bucket edges for simulated-seconds histograms: spans the
#: cache-hit cost (10ms) up to the per-app crawl budget (30 min)
DEFAULT_SECONDS_EDGES: tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    # Hook sites pass zero or one label almost always; skip the
    # genexp+sort on those hot shapes (kwargs keys are already str).
    if not labels:
        return ()
    if len(labels) == 1:
        [(k, v)] = labels.items()
        return ((k, str(v)),)
    if len(labels) == 2:
        (k1, v1), (k2, v2) = labels.items()
        if k1 <= k2:
            return ((k1, str(v1)), (k2, str(v2)))
        return ((k2, str(v2)), (k1, str(v1)))
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """A fixed-bucket histogram (cumulative on export, Prometheus-style)."""

    __slots__ = ("edges", "counts", "total", "count")

    def __init__(self, edges: tuple[float, ...]) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"bucket edges must be strictly increasing: {edges}")
        self.edges = tuple(float(e) for e in edges)
        #: per-bucket counts; one extra bucket for +Inf
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left finds the first edge >= value — exactly the
        # ``value <= edge`` bucket; past the last edge it returns
        # len(edges), the +Inf bucket.
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (``le`` semantics), +Inf last."""
        out, running = [], 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by (name, labels)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, tuple], float] = {}
        self._gauges: dict[tuple[str, tuple], float] = {}
        self._histograms: dict[tuple[str, tuple], Histogram] = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels: str) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: str) -> None:
        with self._lock:
            self._gauges[(name, _label_key(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: tuple[float, ...] | None = None,
        **labels: str,
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(
                    edges if edges is not None else DEFAULT_SECONDS_EDGES
                )
        histogram.observe(value)

    def scrape(self, prefix: str, snapshot: dict[str, Any]) -> None:
        """Fold a uniform ``snapshot()`` dict into ``<prefix>_*`` gauges.

        Numbers become gauges, ``{str: number}`` sub-dicts become one
        labelled gauge per entry (label ``key``), and lists/sets are
        collapsed to their length — so every component with the uniform
        snapshot shape is scrapeable without a bespoke adapter.
        """
        for field, value in snapshot.items():
            name = f"{prefix}_{field}"
            if isinstance(value, bool):
                self.gauge(name, float(value))
            elif isinstance(value, (int, float)):
                self.gauge(name, float(value))
            elif isinstance(value, dict):
                for label, entry in value.items():
                    if isinstance(entry, (int, float)):
                        self.gauge(name, float(entry), key=str(label))
            elif isinstance(value, (list, tuple, set, frozenset)):
                self.gauge(name, float(len(value)))

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0.0)

    def gauge_value(self, name: str, **labels: str) -> float | None:
        with self._lock:
            return self._gauges.get((name, _label_key(labels)))

    def histogram_of(self, name: str, **labels: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get((name, _label_key(labels)))

    # -- export ------------------------------------------------------------

    def _series(self) -> list[dict[str, Any]]:
        with self._lock:
            rows: list[dict[str, Any]] = []
            for (name, labels), value in self._counters.items():
                rows.append(
                    {"type": "counter", "name": name,
                     "labels": dict(labels), "value": value}
                )
            for (name, labels), value in self._gauges.items():
                rows.append(
                    {"type": "gauge", "name": name,
                     "labels": dict(labels), "value": value}
                )
            for (name, labels), histogram in self._histograms.items():
                rows.append(
                    {"type": "histogram", "name": name,
                     "labels": dict(labels), **histogram.to_jsonable()}
                )
        rows.sort(key=lambda r: (r["name"], r["type"], sorted(r["labels"].items())))
        return rows

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in self._series()
        )

    def to_prometheus(self) -> str:
        """A Prometheus-text-format-style dump (for humans and scrapers)."""
        lines: list[str] = []
        for row in self._series():
            labels = row["labels"]
            body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
            suffix = "{" + body + "}" if body else ""
            if row["type"] == "histogram":
                cumulative = 0
                for edge, count in zip(
                    list(row["edges"]) + [math.inf], row["counts"]
                ):
                    cumulative += count
                    le = "+Inf" if edge == math.inf else f"{edge:g}"
                    edge_body = (body + "," if body else "") + f'le="{le}"'
                    lines.append(
                        f"{row['name']}_bucket{{{edge_body}}} {cumulative}"
                    )
                lines.append(f"{row['name']}_sum{suffix} {row['sum']:g}")
                lines.append(f"{row['name']}_count{suffix} {row['count']}")
            else:
                lines.append(f"{row['name']}{suffix} {row['value']:g}")
        return "".join(line + "\n" for line in lines)

    def export(self, jsonl_path=None, prometheus_path=None) -> list:
        """Atomically write the requested dump formats; returns the paths."""
        written = []
        if jsonl_path is not None:
            written.append(atomic_write(jsonl_path, self.to_jsonl()))
        if prometheus_path is not None:
            written.append(atomic_write(prometheus_path, self.to_prometheus()))
        return written
