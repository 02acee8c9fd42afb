"""Dense 2^n x 2^n transition matrices and their file formats.

Columns index prepared states, rows index measured outcomes; both axes use
the MSB-first bitstring order of :mod:`spamcal.bits`.

JSON schema: {"n": int, "order": "msb-first", "data": row-major list}.
CSV: a header row of prepared-state labels, then one row per outcome.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bits import BitString
from .errors import ValidationError
from .serialize import as_object, dump_json, load_json, parse


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
        return dump_json(
            {"n": self.n, "order": "msb-first", "data": self.data.ravel().tolist()},
            path,
        )

    @classmethod
    def from_json(cls, path) -> "TransitionMatrix":
        obj = load_json(path)
        return cls.from_dict(obj)

    @classmethod
    def from_dict(cls, obj) -> "TransitionMatrix":
        obj = as_object(obj, "matrix JSON")
        for key in ("n", "order", "data"):
            if key not in obj:
                raise ValidationError(f"matrix JSON missing key {key!r}")
        if obj["order"] != "msb-first":
            raise ValidationError(f"unsupported bit order {obj['order']!r}")
        n = parse(int, obj["n"], "n")
        dim = 1 << n
        data = parse(lambda v: np.asarray(v, dtype=float), obj["data"], "data")
        if data.size != dim * dim:
            raise ValidationError(
                f"matrix JSON has {data.size} entries, expected {dim * dim}"
            )
        return cls(n, data.reshape(dim, dim))

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        labels = [str(BitString.from_index(c, self.n)) for c in range(self.dim)]
        writer.writerow(["outcome"] + labels)
        for r in range(self.dim):
            writer.writerow(
                [str(BitString.from_index(r, self.n))]
                + [repr(v) for v in self.data[r].tolist()]
            )
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text
