"""JSON/CSV helpers shared by the file formats, and the one schema reader
of every input file.

All JSON written by this package is deterministic: sorted keys, fixed
indentation, and floats emitted by Python's shortest round-trip repr (the
serialized value re-reads to the identical double).

Two writers give one text. :func:`float_list_json` is the one writer of
float arrays and holds the size gate: below :data:`LARGE_JSON_BYTES` of
possible text it returns ``json.dumps``, whose C encoder runs when no
indent is set; above it, in practice a dense matrix from n = 9 up, it
takes the digits from ``pydantic_core.to_json``, which formats the million
floats of an n = 10 matrix in 0.11 s. pydantic-core writes the shortest
round-trip digits, as repr does, and spells them the same way but in two
cases, both rewritten: values in [1e-5, 1e-4) come out positional
(``0.000025614156986229296`` for ``2.5614156986229296e-05``), and a
one-digit negative exponent comes out unpadded (``e-6`` for ``e-06``).
:func:`dump_matrix_json` joins its text between the head and the tail of
the dense matrix layout, and the matrix CSV cuts its rows from it; every
other object goes through :func:`dump_json`. Smaller outputs never import
pydantic-core. Every output file is staged (:func:`stage`): a regular file
is written to a temporary file beside it, and :func:`commit` renames it
into place, so a write cut short leaves the previous file as it was;
:func:`write_text` does both for one file, and the CLI stages a command's
files before it commits any. An unwritable path is a ValidationError.

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

:func:`load_json` parses every input file whole with ``json.loads``. A
whole-file parse holds the file's text, a Python float per entry and their
list at once. So a matrix file of at least LARGE_JSON_BYTES in the layout
:func:`dump_matrix_json` writes, which every matrix this package writes
from n = 9 up has, is streamed instead (:func:`stream_matrix_json`,
through ``TransitionMatrix.from_json``): ``pydantic_core.from_json``, the
jiter parser, imported on first use, parses it PIECE_BYTES at a time into
one float64 array allocated from the n of its tail, which is then checked
as any other. In a fresh process (2-vCPU x86-64, CPython 3.11) a load at
n = 10, 11 and 12 peaks 13, 38 and 146 MB above its start and takes 0.20,
0.80 and 3.1 s. Read whole by ``json.loads``, the n = 10 file takes
0.5-0.8 s, and the resident set peaks 67 MB above its start against 19 MB
streamed. Any other layout, and a streamed file that breaks a rule (a
piece that does not parse or holds a non-number, an entry count other than
4^n, or a tail whose n needs more entries than the file's size can hold,
checked before allocating), goes down the whole-file parse, so every float
is bitwise the same and every error keeps its message.

That fallback needs the two parsers to agree on numbers, the only values a
piece holds: both read every JSON number to the same float, bit for bit
(NaN, -0.0, subnormals and 1e400 included), and both reject an integer of
more than 4300 digits. jiter alone rejects a number whose integer part,
sign included, has more than 4300 characters; the whole-file parse then
reads it.
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
    """text, also written to path when one is given (:func:`stage`, then
    :func:`commit`)."""
    if path is not None:
        commit([stage(text, path)])
    return text


def stage(text: str, path) -> tuple:
    """Write text for path without touching it yet. A new or regular file, a
    symlink's target included, is written whole to a temporary file beside
    it, with the permission bits of the file it will replace or, if new, the
    umask's; anything else, such as ``/dev/null``, is written in place.
    Returns (temporary file or None, path) for :func:`commit`. A path that
    cannot be written is a ValidationError and leaves no temporary file."""
    target = os.path.realpath(path)
    regular = os.path.isfile(target) or not os.path.exists(target)
    tmp = f"{target}.{os.urandom(8).hex()}.tmp" if regular else None
    try:
        try:
            with open(tmp or target, "x" if tmp else "w") as f:
                f.write(text)
            if tmp and os.path.exists(target):
                os.chmod(tmp, os.stat(target).st_mode & 0o7777)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        discard([(tmp, path)])
        raise
    return tmp, path


def commit(staged) -> None:
    """Rename each staged temporary file into place, in order; a rename that
    fails is a ValidationError, and the files not yet renamed are removed."""
    try:
        for tmp, path in staged:
            if tmp:
                os.replace(tmp, os.path.realpath(path))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        discard(staged)


def discard(staged) -> None:
    """Remove the staged temporary files that are still there."""
    for tmp, _path in staged:
        if tmp and os.path.lexists(tmp):
            os.remove(tmp)


def dump_json(obj, path=None) -> str:
    """obj as JSON text with sorted keys, two-space indents and a final
    newline."""
    return write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def dump_csv(rows, path=None) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return write_text(buf.getvalue(), path)


# The size from which float_list_json takes its digits from pydantic-core
# and stream_matrix_json streams a dense matrix file: importing
# pydantic_core costs 65-95 ms and about 10 MB (2-vCPU x86-64, CPython
# 3.11, pydantic-core 2.46), which the parse of a dense matrix repays from
# n = 9 up.
LARGE_JSON_BYTES = 4 << 20


def float_list_json(values: np.ndarray, sep: str) -> str:
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
        # text: json.loads of bytes holds them and their decoded copy
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    # ValueError: bad UTF-8, bad syntax or an over-long integer;
    # RecursionError: a file nested about 1000 levels deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


# The dense matrix layout, the text json.dumps(..., indent=2,
# sort_keys=True) gives {"n", "order", "data"} plus a final newline:
# dump_matrix_json writes it, and stream_matrix_json matches the same head
# and tail, the tail's n a register size of up to three digits.
MATRIX_HEAD = '{\n  "data": [\n    '
MATRIX_SEP = ",\n    "
MATRIX_TAIL = '\n  ],\n  "n": %d,\n  "order": "msb-first"\n}\n'
TAIL_PATTERN = re.compile(re.escape(MATRIX_TAIL).replace("%d", r"([1-9]\d{0,2})").encode() + rb"\Z")
# the piece size in which stream_matrix_json reads the entries
PIECE_BYTES = 1 << 20


def dump_matrix_json(n: int, data: np.ndarray, path=None) -> str:
    """The dense matrix JSON of n and its data, read row-major: the text
    dump_json writes for {"n": n, "order": "msb-first", "data": its
    entries}."""
    items = float_list_json(data.ravel(), MATRIX_SEP)[1:-1]
    return write_text("".join([MATRIX_HEAD, items, MATRIX_TAIL % n]), path)


def stream_matrix_json(path) -> dict | None:
    """The matrix JSON at path as {"n", "order", "data"}, its data one float
    array, when the file has at least LARGE_JSON_BYTES in the layout
    dump_matrix_json writes; None for any other file, which load_json then
    reads.

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
            if f.read(len(MATRIX_HEAD)) != MATRIX_HEAD.encode():
                return None
            f.seek(max(size - 64, len(MATRIX_HEAD)))
            tail = f.read()
            match = TAIL_PATTERN.search(tail)
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
    # NaN carries through min and max, and an infinity is one of them, so
    # no bool array of a's size is made
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
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
