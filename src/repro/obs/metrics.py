"""Process-wide metrics registry: counters and histograms.

The engine's many ad-hoc counters (structure-cache hits, prediction-cache
hits, per-instance predict counts) historically lived in scattered dicts
and instance attributes that nothing could aggregate or report. This
module gives them one home: a thread-safe registry of named instruments
that any layer can create cheaply, a :meth:`MetricsRegistry.snapshot`
that serialises the whole state to plain JSON, and a
:meth:`MetricsRegistry.reset` for tests and benchmark harnesses.

Instruments are deliberately minimal:

* :class:`Counter` — a monotonically increasing count (cache hits,
  plans evaluated, scheduler events);
* :class:`Histogram` — a bounded-reservoir distribution with
  count/sum/min/max plus p50/p90/p99 quantiles at snapshot time
  (replay latencies, retime throughput, batch sizes).

Instruments live forever once created (get-or-create by name), so hot
paths hold direct references and pay one lock acquire + integer add per
event — cheap enough to leave the *counters* always on. Span tracing
and histogram observations on the replay hot paths are additionally
gated behind the global enable switch in :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from typing import Any

#: Observations retained per histogram for quantile estimation. Old
#: observations are dropped FIFO; count/sum/min/max remain exact over
#: the full stream.
HISTOGRAM_RESERVOIR = 4096

#: Quantiles reported in snapshots (name -> fraction).
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class Counter:
    """A named, thread-safe, monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the counter (tests and benchmark harnesses)."""
        with self._lock:
            self._value = 0


class Histogram:
    """A named distribution with exact totals and reservoir quantiles.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    quantiles are computed at snapshot time from the most recent
    :data:`HISTOGRAM_RESERVOIR` observations (nearest-rank on the sorted
    reservoir), which is exact until the reservoir overflows.
    """

    __slots__ = ("name", "_lock", "_count", "_sum", "_min", "_max",
                 "_reservoir")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._reservoir: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._reservoir.append(value)
            if len(self._reservoir) > HISTOGRAM_RESERVOIR:
                del self._reservoir[0]

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._count

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile over the current reservoir (0 if empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("quantile fraction must be in [0, 1]")
        with self._lock:
            ordered = sorted(self._reservoir)
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        """Snapshot payload: exact totals plus reservoir quantiles."""
        with self._lock:
            count = self._count
            total = self._sum
            lo, hi = self._min, self._max
            ordered = sorted(self._reservoir)
        if count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, **{name: 0.0 for name, _ in QUANTILES}}
        payload = {"count": count, "sum": total, "min": lo, "max": hi,
                   "mean": total / count}
        for name, fraction in QUANTILES:
            rank = min(len(ordered) - 1, int(fraction * len(ordered)))
            payload[name] = ordered[rank]
        return payload

    def reset(self) -> None:
        """Drop every observation."""
        with self._lock:
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")
            self._reservoir.clear()


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted paths (``graph.structure_cache.hits``); the first
    segment is the owning subsystem and doubles as the snapshot's
    grouping key. A name is bound to one instrument type for the life of
    the process — asking for an existing name as a different type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._instrument(name, self._counters, Counter)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        return self._instrument(name, self._histograms, Histogram)

    def _instrument(self, name: str, table: dict, factory):
        if not name:
            raise ValueError("instrument name must be non-empty")
        with self._lock:
            instrument = table.get(name)
            if instrument is None:
                for other in (self._counters, self._histograms):
                    if other is not table and name in other:
                        raise ValueError(
                            f"metric {name!r} already registered as a "
                            f"different instrument type")
                instrument = table[name] = factory(name)
            return instrument

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every instrument's current state."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {name: counters[name].value
                         for name in sorted(counters)},
            "histograms": {name: histograms[name].summary()
                           for name in sorted(histograms)},
        }

    def reset(self) -> None:
        """Zero every instrument (registrations are kept, so references
        held by hot paths stay valid)."""
        with self._lock:
            instruments = (list(self._counters.values())
                           + list(self._histograms.values()))
        for instrument in instruments:
            instrument.reset()


def hit_rates(counters: dict[str, int]) -> dict[str, float]:
    """Derive ``<scope>.hit_rate`` entries from ``.hits``/``.misses`` pairs.

    Used by snapshot reporting (``repro stats``): any counter pair
    ``X.hits`` / ``X.misses`` with at least one lookup yields
    ``X.hit_rate = hits / (hits + misses)``.
    """
    rates: dict[str, float] = {}
    for name, hits in counters.items():
        if not name.endswith(".hits"):
            continue
        scope = name[: -len(".hits")]
        misses = counters.get(f"{scope}.misses")
        if misses is None:
            continue
        total = hits + misses
        if total > 0:
            rates[f"{scope}.hit_rate"] = hits / total
    return rates
