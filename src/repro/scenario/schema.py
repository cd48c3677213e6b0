"""The shared BENCH report schema and a dependency-free validator.

Every ``results/BENCH_*.json`` archive must satisfy
``bench_schema.json`` (shipped beside this module).  The tier-1 suite
validates the whole archive directory with it, so the container cannot
depend on the ``jsonschema`` package being installed: ``_check``
implements the small subset of JSON Schema the document uses
(type / const / required / properties / additionalProperties /
items).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, List

__all__ = ["SchemaError", "bench_schema", "validate_report"]

_SCHEMA_PATH = Path(__file__).with_name("bench_schema.json")

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ValueError):
    """A document failed schema validation."""


_SCHEMA_CACHE: dict = {}


def bench_schema() -> dict:
    # Cached: the validator walks it on every report, including once per
    # archived BENCH file in the tier-1 suite.  Callers must not mutate.
    if not _SCHEMA_CACHE:
        _SCHEMA_CACHE.update(json.loads(_SCHEMA_PATH.read_text()))
    return _SCHEMA_CACHE


def _type_ok(value: Any, name: str) -> bool:
    py = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, py)


def _check(value: Any, schema: dict, path: str, errors: List[str]) -> None:
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, "
                      f"got {value!r}")
        return
    if "type" in schema and not _type_ok(value, schema["type"]):
        errors.append(f"{path}: expected {schema['type']}, got "
                      f"{type(value).__name__}")
        return
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, sub_schema in props.items():
            if key in value:
                _check(value[key], sub_schema, f"{path}.{key}", errors)
        if schema.get("additionalProperties") is False:
            extra = sorted(set(value) - set(props))
            if extra:
                errors.append(f"{path}: unexpected key(s) {extra}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{i}]", errors)


def validate_report(doc: Any, schema: dict = None) -> List[str]:
    """Validate a BENCH report; returns the (possibly empty) error list."""
    errors: List[str] = []
    _check(doc, schema if schema is not None else bench_schema(),
           "$", errors)
    return errors


def assert_valid_report(doc: Any, label: str = "report") -> None:
    errors = validate_report(doc)
    if errors:
        raise SchemaError(f"{label} violates bench_schema.json:\n  "
                          + "\n  ".join(errors))
