"""Tests for the in-repo schema validator and the checked-in schemas.

The validator (``repro.obs.schema``) implements only the draft-07
subset the artifact schemas use; these tests pin both halves — the
validator's semantics, and that the committed artifacts actually
conform to their published schemas (the same check CI runs via
``benchmarks/validate_artifacts.py``).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.schema import SchemaError, validate

REPO_ROOT = Path(__file__).parent.parent
SCHEMA_DIR = REPO_ROOT / "schemas"
RESULTS = REPO_ROOT / "benchmarks" / "results"
BENCH_STORE = RESULTS / "BENCH_sim_speed.json"
#: Every committed perf store: the baselines CI's bench gates read.
COMMITTED_STORES = [RESULTS / f"BENCH_{name}.json" for name in (
    "inference_dse", "serve_telemetry", "service_throughput", "sim_speed")]


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


class TestValidator:
    def test_type_mismatch(self):
        with pytest.raises(SchemaError, match="string"):
            validate(3, {"type": "string"})

    def test_type_list_accepts_any_member(self):
        validate(3, {"type": ["string", "integer"]})
        with pytest.raises(SchemaError):
            validate(None, {"type": ["string", "integer"]})

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})
        with pytest.raises(SchemaError):
            validate(True, {"type": "number"})
        validate(True, {"type": "boolean"})

    def test_required_and_additional_properties(self):
        schema = {"type": "object", "required": ["a"],
                  "additionalProperties": False,
                  "properties": {"a": {"type": "integer"}}}
        validate({"a": 1}, schema)
        with pytest.raises(SchemaError, match="missing required"):
            validate({}, schema)
        with pytest.raises(SchemaError, match="unexpected key"):
            validate({"a": 1, "b": 2}, schema)

    def test_additional_properties_schema(self):
        schema = {"type": "object",
                  "additionalProperties": {"type": "number"}}
        validate({"x": 1.5}, schema)
        with pytest.raises(SchemaError):
            validate({"x": "nope"}, schema)

    def test_enum_minimum_min_items(self):
        with pytest.raises(SchemaError, match="not in"):
            validate(3, {"enum": [1, 2]})
        with pytest.raises(SchemaError, match="below minimum"):
            validate(0.5, {"type": "number", "minimum": 1})
        with pytest.raises(SchemaError, match="minItems"):
            validate([], {"type": "array", "minItems": 1})

    def test_items_validated_with_path(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        validate([1, 2], schema)
        with pytest.raises(SchemaError, match=r"\$\[1\]"):
            validate([1, "x"], schema)

    def test_unsupported_keyword_rejected_loudly(self):
        with pytest.raises(SchemaError, match="unsupported keywords"):
            validate({}, {"patternProperties": {}})

    def test_error_names_nested_path(self):
        schema = {"type": "object",
                  "properties": {"a": {"type": "object",
                                       "properties": {
                                           "b": {"type": "string"}}}}}
        with pytest.raises(SchemaError, match=r"\$\.a\.b"):
            validate({"a": {"b": 3}}, schema)


class TestCommittedArtifacts:
    def test_bench_store_matches_schema(self):
        payload = json.loads(BENCH_STORE.read_text(encoding="utf-8"))
        validate(payload, load_schema("bench_sim_speed.schema.json"))

    def test_bench_schema_rejects_wrong_version(self):
        payload = json.loads(BENCH_STORE.read_text(encoding="utf-8"))
        payload["schema"] = 3
        with pytest.raises(SchemaError):
            validate(payload, load_schema("bench_sim_speed.schema.json"))

    def test_trace_schema_rejects_unknown_phase(self):
        payload = {"traceEvents": [
            {"name": "s", "ph": "B", "pid": 1, "tid": 0}]}
        with pytest.raises(SchemaError):
            validate(payload, load_schema("chrome_trace.schema.json"))


class TestValidateArtifactsScript:
    @pytest.fixture
    def tool(self):
        path = REPO_ROOT / "benchmarks" / "validate_artifacts.py"
        spec = importlib.util.spec_from_file_location(
            "validate_artifacts", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_dispatches_by_payload_shape(self, tool):
        assert tool.schema_for({"traceEvents": []}).name \
            == "chrome_trace.schema.json"
        assert tool.schema_for({"schema": 2, "benchmarks": {}}).name \
            == "bench_sim_speed.schema.json"
        with pytest.raises(SchemaError):
            tool.schema_for({"unrelated": 1})

    @pytest.mark.parametrize("store", COMMITTED_STORES,
                             ids=[path.stem for path in COMMITTED_STORES])
    def test_main_accepts_committed_store(self, tool, capsys, store):
        assert tool.main([str(store)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_main_fails_on_invalid_file(self, tool, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert tool.main([str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_main_without_args_prints_usage(self, tool, capsys):
        assert tool.main([]) == 2
