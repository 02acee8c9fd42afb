"""JSON/CSV helpers shared by the file formats, and the one schema reader
of every input file.

All JSON written by this package is deterministic: sorted keys, fixed
indentation, and floats emitted by Python's shortest round-trip repr (the
serialized value re-reads to the identical double).

The reader raises ValidationError (CLI exit 2) for each input rule:
:func:`load_json` for a missing, unreadable or malformed file;
:func:`as_object` for a value that is not a JSON object, a missing required
key, or an ``order`` tag other than "msb-first"; :func:`number` for a value
that is not a finite JSON number (a bool is not one); :func:`integer` for a
value that is not a JSON integer at or above its lower bound (``n >= 1``);
:func:`array` for a numeric array with a non-finite entry, an integer
beyond the float range, or of the wrong shape; and :func:`qubits` for an
"i,j" key without the right count of qubit indices.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ValidationError


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def dump_csv(rows, path=None) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def load_json(path):
    # text, not bytes: holding both the bytes and the decoded text of a
    # large matrix file raises the peak memory of a load
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # also bad UTF-8 or an over-long integer
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def as_object(value, name: str, required=()) -> dict:
    """value itself when it is a JSON object holding the required keys, else
    a ValidationError naming the field. A required "order" must be
    "msb-first"."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{name} must be a JSON object, got {type(value).__name__} {value!r:.60}"
        )
    for key in required:
        if key not in value:
            raise ValidationError(f"{name} missing key {key!r}")
    if "order" in required and value["order"] != "msb-first":
        raise ValidationError(f"unsupported bit order {value['order']!r:.60}")
    return value


def number(value, name: str) -> float:
    """value as a float when it is a finite JSON number."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{name} has a non-finite or non-numeric value {value!r:.60}")
    return float(value)


def integer(value, name: str, low: int = 1) -> int:
    """value when it is a JSON integer of at least low."""
    number(value, name)
    if type(value) is not int or value < low:
        raise ValidationError(f"{name} must be an integer of at least {low}, got {value!r}")
    return value


def array(value, name: str, shape=None) -> np.ndarray:
    """value as a float array with finite entries, of the given shape if
    one is given."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} has a non-numeric value {value!r:.60}") from None
    except OverflowError:  # an integer literal beyond the float range
        raise ValidationError(f"{name} has a value too large for a float") from None
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has a non-finite value")
    return a


def qubits(key: str, parts: int, name: str) -> tuple:
    """The qubit indices of an "i,j"-style key that must hold parts of them."""
    try:
        index = tuple(int(x) for x in key.split(","))
    except ValueError:
        index = ()
    if len(index) != parts:
        raise ValidationError(f"{name} key {key!r} needs {parts} qubit indices")
    return index


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
