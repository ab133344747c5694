"""Persistent prediction cache for design-space sweeps.

A full Figure-10-style sweep evaluates thousands of (t, d, p, m) plans,
and re-running it — after an interrupt, a changed GPU budget, or a
follow-up study over an overlapping space — recomputes every point from
scratch. Related simulators (Echo, arXiv:2412.12487; Charon,
arXiv:2605.17164) memoize per-config predictions for exactly this
reason.

:class:`PredictionCache` maps a canonical fingerprint of
``(model, plan, system, granularity)`` — everything that determines a
prediction — to the resulting :class:`~repro.dse.explorer.DesignPoint`.
It round-trips through strict JSON so caches survive on disk, can be
shipped between machines, and double as sweep checkpoints (``repro dse
--cache`` saves the file every 512 newly evaluated plans and at the
end, so an interrupted sweep resumes instead of recomputing).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Mapping

from repro import obs
from repro.config.model import ModelConfig
from repro.config.parallelism import ParallelismConfig, TrainingConfig
from repro.config.system import SystemConfig
from repro.dse.explorer import DesignPoint
from repro.errors import ConfigError
from repro.graph.builder import Granularity

# Process-wide aggregates across every PredictionCache instance, so
# `repro stats` reports one prediction-cache hit rate no matter how many
# caches a sweep constructed. Per-instance hits/misses stay on the
# instances themselves (tests and `repro dse`'s summary rely on them).
_AGG_HITS = obs.metrics.counter("dse.prediction_cache.hits")
_AGG_MISSES = obs.metrics.counter("dse.prediction_cache.misses")

#: Bump when the prediction payload or fingerprint recipe changes, so
#: stale caches are rejected instead of silently misread.
#:
#: Deliberately NOT bumped for the interleaving release: ``v=1`` /
#: default-ZeRO fingerprints are byte-identical by design so existing
#: sweep caches keep resolving. Caveat: the same release also *fixed*
#: the memory model for two corner cases (sequence-parallel plans no
#: longer replicate the stage-0 embedding output; ``p > 1`` plans are
#: additionally checked at the LM-head stage), so entries for such
#: plans written by older releases carry the pre-fix feasibility —
#: delete the cache file to re-evaluate them.
CACHE_FORMAT_VERSION = 1

#: JSON types a cache file may hold for each dataclass annotation of a
#: design point or its plan (enums are stored by value).
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float),
               "str": (str,), "PipelineSchedule": (str,),
               "RecomputeMode": (str,)}


def _field_types(cls) -> dict[str, tuple[type, ...]]:
    return {field.name: _JSON_TYPES.get(field.type, ())
            for field in dataclasses.fields(cls)}


# An infeasible point stores its infinite iteration time as null.
_POINT_TYPES = {**_field_types(DesignPoint), "plan": (dict,),
                "iteration_time": (int, float, type(None))}
_PLAN_TYPES = _field_types(ParallelismConfig)


def _check_fields(what: str, payload: Any,
                  types: Mapping[str, tuple[type, ...]]) -> None:
    """Raise ConfigError unless ``payload`` is an object whose fields
    are all in ``types`` and hold one of their JSON types (a JSON
    boolean is not a number)."""
    if not isinstance(payload, Mapping):
        raise ConfigError(f"{what} is not an object")
    for name, value in payload.items():
        allowed = types.get(name)
        if allowed is None:
            raise ConfigError(f"{what} has an unknown field {name!r}")
        if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed):
            raise ConfigError(f"{what} field {name!r} must be "
                              f"{' or '.join(t.__name__ for t in allowed)}, "
                              f"got {type(value).__name__}")


def fingerprint(model: ModelConfig, plan: ParallelismConfig,
                training: TrainingConfig | None, system: SystemConfig,
                granularity: Granularity, *, zero_stage: int = 1,
                workload=None) -> str:
    """Canonical cache key for one prediction.

    The key hashes the *complete* simulation input — model, plan,
    training recipe (the global batch drives micro-batch scheduling and
    memory feasibility), system (GPU spec by registry name, interconnect
    parameters), graph granularity, and the memory model's ZeRO stage —
    via sorted-key JSON, so logically equal configurations produce
    identical keys regardless of construction order. The default ZeRO
    stage (1) is omitted from the payload, so caches written before the
    stage was configurable stay valid.

    Serving sweeps pass an :class:`~repro.workload.InferenceWorkload`
    as ``workload`` (and may pass ``training=None``): the workload's
    serialised form replaces the training recipe in the payload.
    Training predictions never add a ``workload`` key, so every
    pre-workload-abstraction cache key remains byte-identical.
    """
    payload = {
        "model": model.to_dict(),
        "plan": plan.to_dict(),
        "system": system.to_dict(),
        "granularity": granularity.value,
    }
    if training is not None:
        payload["training"] = training.to_dict()
    if workload is not None:
        payload["workload"] = workload.to_dict()
    if training is None and workload is None:
        raise ConfigError("fingerprint needs a training recipe or workload")
    if zero_stage != 1:
        payload["zero_stage"] = zero_stage
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class PredictionCache:
    """In-memory map of prediction fingerprints to design points.

    Safe for concurrent use: the `repro serve` daemon shares one
    instance across handler threads, so lookups, stores and the
    hit/miss counters are guarded by an internal lock (uncontended
    single-threaded use pays one acquire per call).

    Attributes:
        hits: Number of :meth:`get` calls answered from the cache.
        misses: Number of :meth:`get` calls that found nothing.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, Any]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> DesignPoint | None:
        """The cached point for ``key``, counting a hit or a miss (both
        on this instance and on the ``dse.prediction_cache.*`` registry
        aggregates)."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                _AGG_MISSES.increment()
                return None
            self.hits += 1
            _AGG_HITS.increment()
        return DesignPoint.from_dict(payload)

    def put(self, key: str, point: DesignPoint) -> None:
        """Store ``point`` under ``key`` (overwrites silently)."""
        payload = point.to_dict()
        with self._lock:
            self._entries[key] = payload

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters for logs and tests."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (entries sorted for stable diffs)."""
        with self._lock:
            return {
                "version": CACHE_FORMAT_VERSION,
                "entries": {key: self._entries[key]
                            for key in sorted(self._entries)},
            }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PredictionCache":
        """Rebuild a cache from :meth:`to_dict` output.

        Every entry is checked here, once, so :meth:`get` can trust the
        stored payloads.

        Raises:
            ConfigError: On any malformed payload: not an object, an
                unsupported version, no entries map, or an entry with a
                missing, unknown or wrongly typed field.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError("prediction cache payload is not an object")
        version = payload.get("version")
        if type(version) is not int or version != CACHE_FORMAT_VERSION:
            raise ConfigError(
                f"prediction cache version {version!r} is not supported "
                f"(expected {CACHE_FORMAT_VERSION})")
        entries = payload.get("entries")
        if not isinstance(entries, Mapping):
            raise ConfigError("prediction cache payload has no entries map")
        cache = cls()
        for key, entry in entries.items():
            what = f"prediction cache entry {key!r}"
            _check_fields(what, entry, _POINT_TYPES)
            _check_fields(f"{what} plan", entry.get("plan"), _PLAN_TYPES)
            DesignPoint.from_dict(entry)  # missing fields, bad values
            cache._entries[key] = dict(entry)
        return cache

    def save(self, path: str | Path) -> None:
        """Write the cache to a JSON file (parent dirs created).

        The write is atomic (temp file + rename in the target
        directory): a sweep saves its cache as it goes so an
        interrupted sweep can resume, so an interrupt landing mid-write
        must not corrupt the file.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(dir=target.parent,
                                             prefix=f".{target.name}.")
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(self.to_dict(), stream, indent=1)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except FileNotFoundError:
                pass
            raise

    @classmethod
    def load(cls, path: str | Path) -> "PredictionCache":
        """Read a cache from a JSON file.

        Raises:
            FileNotFoundError: No file at ``path``.
            ConfigError: The file cannot be read (a directory, say), or
                holds malformed JSON or a malformed payload (see
                :meth:`from_dict`).
        """
        try:
            payload = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise ConfigError(
                f"prediction cache {path} cannot be read: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigError(
                f"prediction cache {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
