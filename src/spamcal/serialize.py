"""JSON/CSV helpers shared by the file formats, and the one schema reader
of every input file.

All JSON written by this package is deterministic: sorted keys, fixed
indentation, and floats emitted by Python's shortest round-trip repr (the
serialized value re-reads to the identical double).

Two writers give one text, as two parsers (below) give one value.
:func:`float_list_json` is the one writer of float arrays and holds the
size gate: below :data:`LARGE_JSON_BYTES` of possible text it returns
``json.dumps``, whose C encoder runs when no indent is set; above it, in
practice a dense matrix from n = 9 up, it takes the digits from
``pydantic_core.to_json``, which formats the million floats of an n = 10
matrix in 0.11 s. pydantic-core writes the shortest round-trip digits, as
repr does, and spells them the same way but in two cases, both rewritten:
values in [1e-5, 1e-4) come out positional (``0.000025614156986229296``
for ``2.5614156986229296e-05``), and a one-digit negative exponent comes
out unpadded (``e-6`` for ``e-06``). :func:`dump_json` fills its text in
for each float array among an object's values, and the matrix CSV cuts its
rows from it. Smaller outputs never import pydantic-core. :func:`write_text`
writes every output file, and an unwritable path is a ValidationError.

The reader raises ValidationError (CLI exit 2) for each input rule:
:func:`load_json` for a missing, unreadable or malformed file;
:func:`as_object` for a value that is not a JSON object, a missing required
key, or an ``order`` tag other than "msb-first"; :func:`number` for a value
that is not a finite JSON number (a bool is not one); :func:`integer` for a
value that is not a JSON integer at or above its lower bound (``n >= 1``);
:func:`array` for a numeric array with a non-finite entry, an entry that
is not a JSON number (a string, bool or null, which ``np.asarray`` would
read as a float), an integer beyond the float range, or of the wrong
shape; and :func:`qubits` for an "i,j" key without the right count of
qubit indices.

Two parsers read input files and feed the same checks. A file smaller than
:data:`LARGE_JSON_BYTES` goes through ``json.loads``. A larger one, in
practice a dense matrix JSON from n = 9 up (``correct --matrix``,
``compare``), goes through ``pydantic_core.from_json``, the jiter parser,
imported on first use: it reads the 28.6 MB n = 10 matrix in about 0.25 s,
where ``json.loads`` spends 0.6 s in its correctly rounded ``strtod``.
LARGE_JSON_BYTES is the break-even: the import costs 65-95 ms and about
10 MB (it pulls in asyncio, ssl and decimal), and jiter saves about 15 ms
per MB.

A whole-file parse holds the file's bytes, a Python float per entry and
their list at once. So a matrix file of at least LARGE_JSON_BYTES in the
layout :func:`dump_json` writes, which every matrix this package writes
from n = 9 up has, is streamed instead (:func:`stream_matrix_json`, through
``TransitionMatrix.from_json``): the same jiter parses it PIECE_BYTES at a
time into one float64 array allocated from the n of its tail, which is
then checked as any other. In a fresh process (2-vCPU x86-64, CPython
3.11) a load at n = 10, 11 and 12 peaks 13, 38 and 146 MB above its start
and takes 0.20, 0.80 and 3.1 s; the whole-file parse peaks 76, 302 and
1210 MB and takes 0.27, 1.07 and 4.9 s. Any other layout, and a streamed
file that breaks a rule (a piece that does not parse or holds a
non-number, an entry count other than 4^n, or a tail whose n needs more
entries than the file's size can hold, checked before allocating), goes
down the whole-file parse, so every float is bitwise the same and every
error keeps its message.

Both parsers give equal values of equal types, floats bit for bit (NaN,
-0.0, subnormals and 1e400 included), and both reject an integer of more
than 4300 digits. They differ on two inputs that no file written by this
package holds: jiter rejects an unpaired surrogate escape such as
``"\\ud800"``, and a number whose integer part, sign included, has more than
4300 characters (``json.loads`` reads a negative 4300-digit integer, or
such a float). In a large file either is malformed JSON (exit 2), as is
nesting deeper than 200 levels (jiter) or about 1000 (``json.loads``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .errors import ValidationError


def write_text(text: str, path) -> str:
    """text, also written to path when one is given: an output path that
    cannot be written is a ValidationError."""
    if path is not None:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    return text


def dump_json(obj, path=None) -> str:
    """obj, a dict, as JSON text with sorted keys, two-space indents and a
    final newline. A non-empty float array among its values is written as a
    flat list of its entries."""
    arrays = {key: a for key, a in obj.items() if isinstance(a, np.ndarray)}
    text = json.dumps({**obj, **dict.fromkeys(arrays, [])}, indent=2, sort_keys=True)
    for key, a in arrays.items():
        # fill the empty list json.dumps wrote in its place, at its indent
        slot = f"\n  {json.dumps(key)}: ["
        items = float_list_json(a.ravel(), ",\n    ")[1:-1]
        text = text.replace(slot + "]", f"{slot}\n    {items}\n  ]", 1)
    return write_text(text + "\n", path)


def dump_csv(rows, path=None) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return write_text(buf.getvalue(), path)


# Measured break-even of the two parsers (2-vCPU x86-64, CPython 3.11,
# pydantic-core 2.46): importing pydantic_core costs 65-95 ms, and jiter
# parses about 15 ms per MB faster than json.loads, so it pays from 4-6 MB.
LARGE_JSON_BYTES = 4 << 20


def float_list_json(values: np.ndarray, sep: str = ", ") -> str:
    """``json.dumps(values.tolist(), separators=(sep, ": "))``, byte for
    byte, for a float array of any shape but 0-d. When the text can reach
    LARGE_JSON_BYTES the digits come from ``pydantic_core.to_json``, with
    its two spellings unlike repr rewritten.
    """
    # no float's repr is longer than 24 characters (-2.2250738585072014e-308),
    # so a dense matrix passes the readers' gate from n = 9 up; the writer's
    # own break-even is lower (the import against about 2 us saved a float)
    if 24 * values.size < LARGE_JSON_BYTES:
        return json.dumps(values.tolist(), separators=(sep, ": "))
    from pydantic_core import to_json

    # values in [1e-5, 1e-4), which pydantic-core writes positionally, go
    # to it as their repr, a string whose quotes are then dropped
    mid = (np.abs(values) >= 1e-5) & (np.abs(values) < 1e-4)
    cells = values.astype(object)
    cells[mid] = [float.__repr__(x) for x in values[mid].tolist()]
    text = np.frombuffer(to_json(cells.tolist(), inf_nan_mode="constants"), np.uint8)
    del cells  # frees a Python float per entry before the copies below
    if mid.any():
        text = text[text != ord('"')]
    # pad a one-digit negative exponent, e-6 to e-9, to two digits, in
    # numpy: str.replace or regex passes take 0.3-1.4 s at n = 10, this 0.1 s
    minus = np.flatnonzero(text == ord("-"))
    after = text[minus + 2]
    short = minus[(text[minus - 1] == ord("e")) & ((after < ord("0")) | (after > ord("9")))]
    text = np.insert(text, short + 1, ord("0")).tobytes().decode()
    return text if sep == "," else text.replace(",", sep)


def load_json(path):
    try:
        if os.stat(path).st_size < LARGE_JSON_BYTES:
            # text: json.loads of bytes holds them and their decoded copy
            return json.loads(Path(path).read_text(encoding="utf-8"))
        from pydantic_core import from_json

        # bytes: jiter checks the UTF-8 as it parses, with no decoded copy
        return from_json(Path(path).read_bytes(), allow_inf_nan=True)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    # ValueError: bad UTF-8, bad syntax or an over-long integer;
    # RecursionError: json.loads on a file nested about 1000 levels deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


# the layout dump_json writes for a matrix, and the piece size in which
# stream_matrix_json reads the entries between its head and its tail
MATRIX_HEAD = b'{\n  "data": ['
MATRIX_TAIL = re.compile(rb'\n  \],\n  "n": ([1-9][0-9]{0,2}),\n  "order": "msb-first"\n\}\n\Z')
PIECE_BYTES = 1 << 20


def stream_matrix_json(path) -> dict | None:
    """The matrix JSON at path as {"n", "order", "data"}, its data one float
    array, when the file has at least LARGE_JSON_BYTES in the layout
    dump_json writes; None for any other file, which load_json then reads.

    The entries are parsed PIECE_BYTES at a time, each piece cut after its
    last comma, into one array allocated from the n of the tail, so neither
    the whole file nor a list of all its entries exists. Every JSON value
    but a number spells one of the bytes ``" [ { l r`` (NaN and Infinity
    spell none), so a piece without them parses to numbers or not at all.
    A piece that holds one or does not parse, an entry count other than
    4^n, and a tail whose n needs more entries than the file can hold each
    give None, so every error keeps the message of the whole-file parse.
    """
    try:
        size = os.stat(path).st_size
        if size < LARGE_JSON_BYTES:
            return None
        with open(path, "rb") as f:
            if f.read(len(MATRIX_HEAD)) != MATRIX_HEAD:
                return None
            f.seek(max(size - 64, len(MATRIX_HEAD)))
            tail = f.read()
            match = MATRIX_TAIL.search(tail)
            if match is None:
                return None
            n = int(match[1])
            end = size - len(tail) + match.start()  # the entries' last byte + 1
            # each entry takes a byte and each but the last its comma
            if 2 * (1 << 2 * n) - 1 > end - len(MATRIX_HEAD):
                return None
            from pydantic_core import from_json

            data = np.empty(1 << 2 * n)
            done, buf = 0, bytearray(b"[")
            f.seek(len(MATRIX_HEAD))
            for start in range(len(MATRIX_HEAD), end, PIECE_BYTES):
                buf += f.read(min(PIECE_BYTES, end - start))
                if any(buf.find(c, 1) >= 0 for c in b'"[{lr'):
                    return None
                cut = buf.rfind(b",") if start + PIECE_BYTES < end else len(buf)
                if cut < 0:  # no whole entry yet
                    continue
                rest = buf[cut + 1:]
                buf[cut:] = b"]"
                values = np.asarray(from_json(buf, allow_inf_nan=True), dtype=float)
                buf[1:] = rest
                if not values.size or done + values.size > data.size:
                    return None
                data[done:done + values.size] = values
                done += values.size
    except (OSError, ValueError, OverflowError):
        # unreadable, malformed or out of the float range: the whole-file
        # parse names it
        return None
    if done != data.size:
        return None
    return {"n": n, "order": "msb-first", "data": data}


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
    """value as a float array with finite entries, each a JSON number
    unless value is already an array, of the given shape if one is given."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} has a non-numeric value {value!r:.60}") from None
    except OverflowError:  # an integer literal beyond the float range
        raise ValidationError(f"{name} has a value too large for a float") from None
    if not isinstance(value, np.ndarray):
        # np.asarray reads "0.5" as 0.5 and true as 1.0; its success bounds
        # the nesting this walks by numpy's dimension limit
        _numbers_only(value, name)
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has a non-finite value")
    return a


def _numbers_only(value, name: str):
    """A ValidationError naming the first leaf of value, a list nested in
    lists, that is not a JSON number: a string, bool or null."""
    if type(value) is not list:
        if type(value) not in (int, float):
            raise ValidationError(f"{name} has a non-numeric value {value!r:.60}")
    elif not set(map(type, value)) <= {int, float}:
        for v in value:
            _numbers_only(v, name)


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
    """Hex SHA-256 of a file, read in 1 MiB chunks rather than whole."""
    h = hashlib.sha256()
    chunk = bytearray(1 << 20)
    view = memoryview(chunk)
    with open(path, "rb") as f:
        while size := f.readinto(chunk):
            h.update(view[:size])
    return h.hexdigest()
