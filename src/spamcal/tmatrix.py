"""Dense 2^n x 2^n transition matrices and their file formats.

Columns index prepared states, rows index measured outcomes; both axes use
the MSB-first basis-state index of :mod:`spamcal.bits`.

JSON schema: {"n": int, "order": "msb-first", "data": row-major list}.
CSV: a header row of prepared-state labels, then one row per outcome.
Both write each float in Python's repr, the CSV cutting its rows from the
JSON text of :func:`spamcal.serialize.float_list_json`, with no
``csv.writer``. From n = 9 up, where the text can reach
``serialize.LARGE_JSON_BYTES``, that text comes from pydantic-core, byte
for byte the same. At n = 10 (2-vCPU x86-64, CPython 3.11) that writes the
28.6 MB JSON in 0.6-1.0 s instead of 2.4-3.3 s, and the CSV in 0.7-1.0 s
instead of 2.3-3.1 s (1.6-1.8 s through ``csv.writer``).

:meth:`TransitionMatrix.from_json`, the reader of ``correct --matrix`` and
``compare``, streams a JSON in that layout from
``serialize.LARGE_JSON_BYTES`` up into one preallocated array
(:func:`spamcal.serialize.stream_matrix_json`), and reads any other file
whole; either way :meth:`TransitionMatrix.from_dict` checks the result. A
load at n = 12 (a 460 MB file) peaks 146 MB above its start, for a
128 MB array, instead of 1.2 GB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import bitstring
from .errors import ValidationError
from .serialize import (
    array, as_object, dump_json, float_list_json, integer, load_json, stream_matrix_json, write_text,
)


@dataclass
class TransitionMatrix:
    n: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        dim = 1 << self.n
        if self.data.shape != (dim, dim):
            raise ValidationError(
                f"expected shape {(dim, dim)} for n={self.n}, got {self.data.shape}"
            )

    @classmethod
    def identity(cls, n: int) -> "TransitionMatrix":
        return cls(n, np.eye(1 << n))

    @property
    def dim(self) -> int:
        return 1 << self.n

    def to_json(self, path=None) -> str:
        return dump_json({"n": self.n, "order": "msb-first", "data": self.data}, path)

    @classmethod
    def from_json(cls, path) -> "TransitionMatrix":
        obj = stream_matrix_json(path)
        return cls.from_dict(load_json(path) if obj is None else obj)

    @classmethod
    def from_dict(cls, obj) -> "TransitionMatrix":
        obj = as_object(obj, "matrix JSON", ("n", "order", "data"))
        n = integer(obj["n"], "n")
        data = array(obj["data"], "data")
        # n is matched to the entries held before 4^n is built
        if n != (data.size.bit_length() - 1) // 2 or data.size != 1 << 2 * n:
            raise ValidationError(f"matrix JSON has {data.size} entries, expected 4^{n}")
        return cls(n, data.reshape(1 << n, 1 << n))

    def to_csv(self, path=None) -> str:
        labels = [bitstring(c, self.n) for c in range(self.dim)]
        # the JSON rows, their floats respelled as repr's nan and inf
        text = float_list_json(self.data, ",")
        if not np.isfinite(self.data).all():
            text = text.replace("NaN", "nan").replace("Infinity", "inf")
        lines = zip(["outcome", *labels], [",".join(labels), *text[2:-2].split("],[")])
        return write_text("".join(f"{label},{row}\n" for label, row in lines), path)
