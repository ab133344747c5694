#!/usr/bin/env python
"""Validate CI artifacts against the checked-in JSON schemas.

Usage::

    PYTHONPATH=src python benchmarks/validate_artifacts.py FILE [FILE ...]

Each file is matched to a schema by shape — a ``traceEvents`` key means
a Chrome trace (``schemas/chrome_trace.schema.json``); a
``benchmark: service_throughput`` marker means the serving-tier store
(``schemas/bench_service_throughput.schema.json``); a
``benchmark: serve_telemetry`` marker means the telemetry-overhead
store (``schemas/bench_serve_telemetry.schema.json``); a
``benchmark: inference_dse`` marker means the serving-DSE store
(``schemas/bench_inference_dse.schema.json``); a
``schema``/``benchmarks`` pair means the perf-trajectory store
(``schemas/bench_sim_speed.schema.json``) — and validated with
:mod:`repro.obs.schema`. Exits non-zero on the first invalid file, so
the CI bench lane fails when an export or the trajectory store drifts
from its published format.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.schema import SchemaError, validate  # noqa: E402

SCHEMA_DIR = REPO_ROOT / "schemas"


def schema_for(payload: object) -> Path:
    """The schema file matching a payload's shape."""
    if isinstance(payload, dict):
        if "traceEvents" in payload:
            return SCHEMA_DIR / "chrome_trace.schema.json"
        if payload.get("benchmark") == "service_throughput":
            return SCHEMA_DIR / "bench_service_throughput.schema.json"
        if payload.get("benchmark") == "serve_telemetry":
            return SCHEMA_DIR / "bench_serve_telemetry.schema.json"
        if payload.get("benchmark") == "inference_dse":
            return SCHEMA_DIR / "bench_inference_dse.schema.json"
        if "schema" in payload and "benchmarks" in payload:
            return SCHEMA_DIR / "bench_sim_speed.schema.json"
    raise SchemaError("payload matches no known artifact shape "
                      "(expected a Chrome trace or a BENCH store)")


def validate_file(path: Path) -> str:
    """Validate one artifact; returns the schema name it matched."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    schema_path = schema_for(payload)
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    validate(payload, schema)
    return schema_path.name


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for name in argv:
        path = Path(name)
        try:
            schema_name = validate_file(path)
        except (OSError, json.JSONDecodeError, SchemaError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            return 1
        print(f"ok   {path} ({schema_name})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
