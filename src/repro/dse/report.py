"""DSE result export: CSV / markdown tables for downstream tooling.

A full Figure-10-style sweep yields hundreds of design points; this
module renders them for spreadsheets, notebooks, and docs without
pulling plotting dependencies into the core library.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.cost.pricing import DEFAULT_PRICING, PricingModel
from repro.dse.explorer import DesignPoint, DSEResult
from repro.errors import ConfigError

CSV_COLUMNS = ("tensor", "data", "pipeline", "micro_batch", "num_gpus",
               "feasible", "iteration_time_s", "utilization_pct",
               "memory_gib", "cost_per_iteration_usd", "infeasible_reason")


def _has_interleaving(points) -> bool:
    """Whether any plan uses virtual pipelining (adds a ``v`` column;
    plain sweeps keep the exact pre-interleaving table layout)."""
    return any(point.plan.virtual_stages > 1 for point in points)


def _point_row(point: DesignPoint, pricing: PricingModel) -> dict:
    plan = point.plan
    return {
        "tensor": plan.tensor,
        "data": plan.data,
        "pipeline": plan.pipeline,
        "micro_batch": plan.micro_batch_size,
        "virtual_stages": plan.virtual_stages,
        "num_gpus": point.num_gpus,
        "feasible": point.feasible,
        "iteration_time_s": (f"{point.iteration_time:.6f}"
                             if point.feasible else ""),
        "utilization_pct": (f"{100 * point.utilization:.3f}"
                            if point.feasible else ""),
        "memory_gib": f"{point.memory_gib:.2f}" if point.feasible else "",
        "cost_per_iteration_usd": (
            f"{point.cost_per_iteration(pricing):.4f}"
            if point.feasible else ""),
        "infeasible_reason": point.infeasible_reason,
    }


def to_csv(result: DSEResult, *, include_infeasible: bool = False,
           pricing: PricingModel = DEFAULT_PRICING) -> str:
    """Render a DSE result as CSV text."""
    points = (result.points if include_infeasible
              else result.feasible_points)
    columns = CSV_COLUMNS
    if _has_interleaving(points):
        columns = columns[:4] + ("virtual_stages",) + columns[4:]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns,
                            extrasaction="ignore")
    writer.writeheader()
    for point in points:
        writer.writerow(_point_row(point, pricing))
    return buffer.getvalue()


def save_csv(result: DSEResult, path: str | Path, *,
             include_infeasible: bool = False,
             pricing: PricingModel = DEFAULT_PRICING) -> None:
    """Write :func:`to_csv` output to a file (parent dirs created)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(to_csv(result,
                                 include_infeasible=include_infeasible,
                                 pricing=pricing))


def to_markdown(result: DSEResult, *, top: int = 10,
                sort_by: str = "cost",
                pricing: PricingModel = DEFAULT_PRICING) -> str:
    """Markdown table of the best ``top`` feasible points.

    ``sort_by`` is ``"cost"`` (cost per iteration) or ``"time"``
    (iteration time).
    """
    if sort_by == "cost":
        key = lambda p: p.cost_per_iteration(pricing)  # noqa: E731
    elif sort_by == "time":
        key = lambda p: p.iteration_time  # noqa: E731
    else:
        raise ConfigError(f"unknown sort key {sort_by!r}")
    points = sorted(result.feasible_points, key=key)[:top]
    interleaved = _has_interleaving(points)
    if interleaved:
        lines = ["| (t, d, p) | m | v | GPUs | iter (s) | util % | $/iter |",
                 "|---|---|---|---|---|---|---|"]
    else:
        lines = ["| (t, d, p) | m | GPUs | iter (s) | util % | $/iter |",
                 "|---|---|---|---|---|---|"]
    for point in points:
        plan = point.plan
        v_cell = f"| {plan.virtual_stages} " if interleaved else ""
        lines.append(
            f"| {plan.way} | {plan.micro_batch_size} {v_cell}"
            f"| {point.num_gpus} "
            f"| {point.iteration_time:.2f} "
            f"| {100 * point.utilization:.1f} "
            f"| {point.cost_per_iteration(pricing):.2f} |")
    return "\n".join(lines)


SERVING_CSV_COLUMNS = ("tensor", "data", "pipeline", "micro_batch",
                       "num_gpus", "feasible", "ttft_s", "tpot_s",
                       "tokens_per_s", "memory_gib",
                       "cost_per_million_tokens_usd", "infeasible_reason")


def _serving_row(point: DesignPoint, pricing: PricingModel) -> dict:
    plan = point.plan
    return {
        "tensor": plan.tensor,
        "data": plan.data,
        "pipeline": plan.pipeline,
        "micro_batch": plan.micro_batch_size,
        "num_gpus": point.num_gpus,
        "feasible": point.feasible,
        "ttft_s": f"{point.ttft_s:.6f}" if point.feasible else "",
        "tpot_s": f"{point.tpot_s:.6f}" if point.feasible else "",
        "tokens_per_s": (f"{point.tokens_per_s:.1f}"
                         if point.feasible else ""),
        "memory_gib": f"{point.memory_gib:.2f}" if point.feasible else "",
        "cost_per_million_tokens_usd": (
            f"{point.cost_per_million_tokens(pricing):.4f}"
            if point.feasible else ""),
        "infeasible_reason": point.infeasible_reason,
    }


def to_serving_csv(result: DSEResult, *, include_infeasible: bool = False,
                   pricing: PricingModel = DEFAULT_PRICING) -> str:
    """Render a serving-sweep DSE result as CSV text."""
    points = (result.points if include_infeasible
              else result.feasible_points)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SERVING_CSV_COLUMNS,
                            extrasaction="ignore")
    writer.writeheader()
    for point in points:
        writer.writerow(_serving_row(point, pricing))
    return buffer.getvalue()


def save_serving_csv(result: DSEResult, path: str | Path, *,
                     include_infeasible: bool = False,
                     pricing: PricingModel = DEFAULT_PRICING) -> None:
    """Write :func:`to_serving_csv` output to a file (dirs created)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(to_serving_csv(
        result, include_infeasible=include_infeasible, pricing=pricing))


def to_serving_markdown(result: DSEResult, *, top: int = 10,
                        sort_by: str = "cost",
                        pricing: PricingModel = DEFAULT_PRICING) -> str:
    """Markdown table of the best ``top`` feasible serving points.

    ``sort_by`` is ``"cost"`` (cost per million output tokens),
    ``"throughput"`` (tokens/s, descending), or ``"latency"`` (time per
    output token).
    """
    if sort_by == "cost":
        key = lambda p: p.cost_per_million_tokens(pricing)  # noqa: E731
    elif sort_by == "throughput":
        key = lambda p: -p.tokens_per_s  # noqa: E731
    elif sort_by == "latency":
        key = lambda p: p.tpot_s  # noqa: E731
    else:
        raise ConfigError(f"unknown sort key {sort_by!r}")
    points = sorted((p for p in result.feasible_points
                     if p.workload == "inference"), key=key)[:top]
    lines = ["| (t, d, p) | m | GPUs | TTFT (ms) | TPOT (ms) "
             "| tok/s | $/Mtok |",
             "|---|---|---|---|---|---|---|"]
    for point in points:
        plan = point.plan
        lines.append(
            f"| {plan.way} | {plan.micro_batch_size} "
            f"| {point.num_gpus} "
            f"| {1e3 * point.ttft_s:.2f} "
            f"| {1e3 * point.tpot_s:.3f} "
            f"| {point.tokens_per_s:.0f} "
            f"| {point.cost_per_million_tokens(pricing):.3f} |")
    return "\n".join(lines)


def load_csv(path: str | Path) -> list[dict]:
    """Read back a saved DSE CSV (returns raw string-valued rows)."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))
