"""repro.obs — unified observability for the prediction/DSE stack.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry`
(:data:`metrics`) and one :class:`~repro.obs.tracer.SpanTracer`
(:data:`tracer`), behind a global enable switch:

* ``REPRO_OBS=1`` in the environment, or :func:`enable` at runtime;
* disabled by default — a disabled :func:`span` returns a shared no-op
  context manager and :func:`observe` returns immediately, so
  instrumented hot paths stay within the committed perf baselines
  (enforced by ``benchmarks/bench_sim_speed.py``).

Cache hit/miss/eviction *counters* are always on — they pre-date this
module as bare ints and cost the same — via direct
:meth:`~repro.obs.metrics.MetricsRegistry.counter` references held by
the caches themselves. Everything time-based (spans, histograms) is
gated.

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("replay", tasks=structure.num_tasks):
        result = simulate_retimed(structure, durations)
    obs.observe("sim.replay_s", elapsed)
    print(obs.format_snapshot(obs.snapshot()))

Snapshots serialise to JSON (``repro dse --metrics`` writes one;
``repro stats`` pretty-prints it, deriving cache hit rates from
``*.hits``/``*.misses`` counter pairs).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.errors import ConfigError
from repro.obs.context import bind_trace, current_trace_id, new_trace_id
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, hit_rates
from repro.obs.tracer import ENGINE_PID, NULL_SPAN, Span, SpanTracer

__all__ = [
    "Counter", "Histogram", "MetricsRegistry", "Span",
    "SpanTracer", "ENGINE_PID", "metrics", "tracer",
    "enable", "disable", "enabled", "span", "count", "observe",
    "snapshot", "reset", "save_snapshot", "load_snapshot",
    "format_snapshot", "default_snapshot_path", "hit_rates",
    "bind_trace", "current_trace_id", "new_trace_id",
]

#: Environment variable that enables observability at import time.
ENV_SWITCH = "REPRO_OBS"

#: Environment variable overriding the default snapshot file location.
ENV_SNAPSHOT = "REPRO_OBS_SNAPSHOT"

_DEFAULT_SNAPSHOT = "repro_obs_snapshot.json"

#: The process-wide metrics registry.
metrics = MetricsRegistry()

#: The process-wide span tracer. Its bounded ring reports evictions on
#: the ``obs.spans.dropped`` counter, so a long-lived daemon with
#: tracing enabled shows *that* it is dropping history, not just
#: silently forgetting it.
tracer = SpanTracer()
tracer.on_drop = metrics.counter("obs.spans.dropped").increment

_enabled = os.environ.get(ENV_SWITCH, "").strip().lower() not in (
    "", "0", "false", "off")


def enable() -> None:
    """Turn span tracing and histogram recording on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn span tracing and histogram recording off."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether time-based instrumentation is currently recording."""
    return _enabled


def span(name: str, category: str = "engine", **tags: Any):
    """Context manager recording the enclosed block as a tracer span.

    When observability is disabled this returns a shared no-op context
    manager: one function call, no allocation, no clock read.
    """
    if not _enabled:
        return NULL_SPAN
    return tracer.span(name, category, **tags)


def count(name: str, amount: int = 1) -> None:
    """Increment the registry counter ``name`` (always on)."""
    metrics.counter(name).increment(amount)


def observe(name: str, value: float) -> None:
    """Record ``value`` in the registry histogram ``name`` (gated)."""
    if _enabled:
        metrics.histogram(name).observe(value)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def snapshot() -> dict[str, Any]:
    """JSON-ready snapshot of every instrument, plus derived hit rates
    and the span count."""
    snap = metrics.snapshot()
    snap["derived"] = {"hit_rates": hit_rates(snap["counters"])}
    snap["spans_recorded"] = len(tracer.spans)
    snap["enabled"] = _enabled
    return snap


def reset() -> None:
    """Zero every metric and drop recorded spans (enable state kept)."""
    metrics.reset()
    tracer.reset()


def default_snapshot_path() -> Path:
    """Where CLI commands persist/load snapshots by default
    (``REPRO_OBS_SNAPSHOT`` overrides)."""
    return Path(os.environ.get(ENV_SNAPSHOT, _DEFAULT_SNAPSHOT))


def save_snapshot(path: str | Path | None = None) -> Path:
    """Write the snapshot as JSON (parent dirs created); returns its path."""
    path = Path(path) if path is not None else default_snapshot_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot(), indent=1) + "\n",
                    encoding="utf-8")
    return path


def load_snapshot(path: str | Path | None = None) -> dict[str, Any]:
    """Read back a snapshot written by :func:`save_snapshot`.

    Raises:
        FileNotFoundError: No file at ``path``.
        ConfigError: The file cannot be read, or does not hold a JSON
            object.
    """
    path = Path(path) if path is not None else default_snapshot_path()
    try:
        snap = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(
            f"metrics snapshot {path} cannot be read as JSON: {exc}") from exc
    if not isinstance(snap, dict):
        raise ConfigError(f"metrics snapshot {path} is not a JSON object")
    return snap


def format_snapshot(snap: dict[str, Any]) -> str:
    """Human-readable rendering of a snapshot (``repro stats``)."""
    lines: list[str] = []
    counters = snap.get("counters", {})
    histograms = snap.get("histograms", {})
    rates = snap.get("derived", {}).get("hit_rates")
    if rates is None:
        rates = hit_rates(counters)

    if counters:
        lines.append("counters")
        for name in sorted(counters):
            lines.append(f"  {name:<42} {counters[name]}")
    if rates:
        lines.append("hit rates")
        for name in sorted(rates):
            lines.append(f"  {name:<42} {100.0 * rates[name]:.1f}%")
    if histograms:
        lines.append("histograms (p50 / p90 / p99)")
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name:<42} n={h['count']:<6} mean={h['mean']:.6g} "
                f"p50={h['p50']:.6g} p90={h['p90']:.6g} "
                f"p99={h['p99']:.6g}")
    if not lines:
        lines.append("no metrics recorded")
    if "spans_recorded" in snap:
        lines.append(f"spans recorded : {snap['spans_recorded']}")
    return "\n".join(lines)
