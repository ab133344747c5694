"""Result tables and the perf-store harness shared by all benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
emits its rows both to stdout (run pytest with ``-s`` to watch) and to
``benchmarks/results/<name>.txt`` so results survive the run. Absolute
numbers come from our analytical A100 substrate, so the *shape* — who
wins, by roughly what factor, where crossovers fall — is the comparison
target, not digit-for-digit equality (see EXPERIMENTS.md).

The gated benches keep their perf trajectories in committed
``benchmarks/results/BENCH_<benchmark>.json`` stores, all in one layout
(``schemas/bench_store.schema.json``)::

    {"schema": 3, "benchmark": "<benchmark>",
     "trajectories": {"<name>": {"gated_metrics": [...],
                                 "entries": [{"quick": ..., ...}, ...]}}}

``entries[0]`` of a trajectory is the committed baseline its gates
compare against. A bench declares each :class:`Trajectory` with its
:class:`Bound` s; a test reads the baseline, checks the bounds, and
records the run only when they hold. The bounds live only in the bench
modules, never in the stores.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro import obs

RESULTS_DIR = Path(__file__).parent / "results"

#: Layout version of every ``BENCH_*.json`` store.
BENCH_SCHEMA = 3
#: Entries kept per trajectory; truncation always keeps ``entries[0]``.
TRAJECTORY_LIMIT = 50


def quick_mode() -> bool:
    """Whether ``REPRO_BENCH_QUICK`` asks for quick mode (fewer rounds,
    smaller sweeps, as the CI lanes run). Unset, or one of
    ``REPRO_OBS``'s off-values (``""``, ``0``, ``false``, ``off``), is
    off."""
    value = os.environ.get("REPRO_BENCH_QUICK", "")
    return value.strip().lower() not in ("", "0", "false", "off")


QUICK = quick_mode()


def timed(thunk: Callable[[], object]) -> float:
    """Wall seconds of one call."""
    tick = time.perf_counter()
    thunk()
    return time.perf_counter() - tick


def load_store(path: Path) -> dict:
    """The perf store at ``path`` (an empty one when the file does not
    exist). Fails when the file holds another layout version, so an old
    store is migrated, never overwritten with its baselines dropped."""
    if not path.exists():
        return {"schema": BENCH_SCHEMA,
                "benchmark": path.stem.removeprefix("BENCH_"),
                "trajectories": {}}
    store = json.loads(path.read_text())
    if store.get("schema") != BENCH_SCHEMA:
        pytest.fail(f"{path.name} is store schema {store.get('schema')!r} "
                    f"but this harness reads schema {BENCH_SCHEMA}: "
                    "migrate the store before running its benches")
    return store


def save_store(path: Path, store: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(store, indent=1) + "\n")


@dataclass(frozen=True)
class Bound:
    """One gate on a measured metric.

    With ``floor`` it is an absolute floor: ``value >= floor``. With
    ``headroom`` it compares with the committed baseline's
    ``b = entries[0][metric]``: ``value <= b * headroom`` when lower is
    better, ``value >= b / headroom`` when higher is better. An
    ``obs_off_only`` bound applies only while :mod:`repro.obs` is
    disabled.
    """

    metric: str
    better: str = "higher"
    floor: float | None = None
    headroom: float | None = None
    obs_off_only: bool = False

    def __post_init__(self) -> None:
        if (self.floor is None) == (self.headroom is None):
            raise ValueError(f"bound on {self.metric!r} needs exactly one "
                             "of floor and headroom")
        if self.better not in ("lower", "higher") or (
                self.floor is not None and self.better == "lower"):
            raise ValueError(f"bound on {self.metric!r}: better is 'lower' "
                             "or 'higher', and a floor's is 'higher'")

    def failure(self, value: float, baseline: dict) -> str | None:
        """Why ``value`` breaks this bound; ``None`` when it holds or
        does not apply."""
        if self.obs_off_only and obs.enabled():
            return None
        if self.floor is not None:
            if value >= self.floor:
                return None
            return f"{self.metric} {value:.4g} is below its floor {self.floor}"
        base = baseline[self.metric]
        if self.better == "lower":
            limit = base * self.headroom
            if value <= limit:
                return None
            return (f"{self.metric} {value:.4g} exceeds {self.headroom}x its "
                    f"committed baseline {base} (limit {limit:.4g})")
        limit = base / self.headroom
        if value >= limit:
            return None
        return (f"{self.metric} {value:.4g} is more than {self.headroom}x "
                f"below its committed baseline {base} (limit {limit:.4g})")


@dataclass(frozen=True)
class Trajectory:
    """One gated trajectory of the perf store at ``store``."""

    store: Path
    name: str
    bounds: tuple[Bound, ...]

    @property
    def gated_metrics(self) -> list[str]:
        """The metrics the bounds check; every entry must hold them."""
        return sorted({bound.metric for bound in self.bounds})

    def _section(self, store: dict) -> dict:
        section = store["trajectories"].get(self.name)
        if not section or not section["entries"]:
            pytest.fail(f"{self.store.name} holds no committed baseline for "
                        f"{self.name!r}: record a baseline run and commit "
                        "the store before gating against it")
        if section["gated_metrics"] != self.gated_metrics:
            pytest.fail(f"{self.store.name} names {section['gated_metrics']} "
                        f"as {self.name!r}'s gated metrics but its bench "
                        f"gates {self.gated_metrics}")
        return section

    def baseline(self) -> dict:
        """The committed baseline, ``entries[0]``. Fails when it is
        missing, because a gate that silently skips (or baselines
        against the run it is checking) checks nothing."""
        return self._section(load_store(self.store))["entries"][0]

    def check(self, baseline: dict, **measured: float) -> None:
        """Fail naming every bound the measured values break."""
        failures = [failure for bound in self.bounds
                    if (failure := bound.failure(measured[bound.metric],
                                                 baseline)) is not None]
        if failures:
            pytest.fail(f"{self.name} gate: " + "; ".join(failures))

    def record(self, entry: dict) -> None:
        """Append a passing run's entry and save the store, keeping
        ``entries[0]`` when truncating to ``TRAJECTORY_LIMIT``. Refuses
        an entry that lacks ``quick`` or a gated metric."""
        missing = [key for key in ("quick", *self.gated_metrics)
                   if key not in entry]
        if missing:
            pytest.fail(f"{self.name} entry lacks {missing}")
        store = load_store(self.store)
        section = self._section(store)
        tail = section["entries"][1:] + [entry]
        section["entries"] = (section["entries"][:1]
                              + tail[-(TRAJECTORY_LIMIT - 1):])
        save_store(self.store, store)


def emit_table(name: str, title: str, rows: list[dict], *,
               notes: str = "") -> None:
    """Print a result table and persist it under benchmarks/results/."""
    lines = [f"== {title} =="]
    if rows:
        headers = list(rows[0].keys())
        lines.append(" | ".join(headers))
        lines.append("-+-".join("-" * len(h) for h in headers))
        for row in rows:
            lines.append(" | ".join(_fmt(row.get(h)) for h in headers))
    if notes:
        lines.append(notes)
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
