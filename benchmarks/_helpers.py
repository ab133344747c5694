"""Result-table emission shared by all benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
emits its rows both to stdout (run pytest with ``-s`` to watch) and to
``benchmarks/results/<name>.txt`` so results survive the run. Absolute
numbers come from our analytical A100 substrate, so the *shape* — who
wins, by roughly what factor, where crossovers fall — is the comparison
target, not digit-for-digit equality (see EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def committed_baseline(entries: list[dict], store: Path,
                       gate: str) -> dict:
    """``entries[0]`` of a committed perf store, the baseline a gate
    compares against; fails the gate when it is missing, because a gate
    that silently skips (or baselines against the run it is checking)
    checks nothing."""
    if not entries:
        pytest.fail(f"{store.name} holds no committed baseline for "
                    f"{gate!r}: record a baseline run and commit the "
                    "store before gating against it")
    return entries[0]


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
