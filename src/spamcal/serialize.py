"""JSON/CSV helpers shared by the file formats.

All JSON written by this package is deterministic: sorted keys, fixed
indentation, and floats emitted by Python's shortest round-trip repr (the
serialized value re-reads to the identical double).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ValidationError


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def parse(convert, value, name: str):
    """convert(value), such as int or float, with a ValidationError naming
    the field when the value does not convert."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} has a non-numeric value {value!r:.60}") from None


def as_object(value, name: str) -> dict:
    """value itself when it is a JSON object, else a ValidationError naming
    the field."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{name} must be a JSON object, got {type(value).__name__} {value!r:.60}"
        )
    return value


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
