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
from .serialize import dump_json, load_json, parse


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

    def column(self, xprime: BitString) -> np.ndarray:
        return self.data[:, xprime.index]

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

    @classmethod
    def from_csv(cls, path) -> "TransitionMatrix":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ValidationError(f"empty CSV file {path}")
        n = len(rows[0][1])
        dim = 1 << n
        if len(rows) != dim + 1:
            raise ValidationError(f"expected {dim} data rows, got {len(rows) - 1}")
        data = np.empty((dim, dim))
        for r, row in enumerate(rows[1:]):
            data[BitString.from_str(row[0]).index] = [float(v) for v in row[1:]]
        # header gives the column order
        perm = [BitString.from_str(lbl).index for lbl in rows[0][1:]]
        out = np.empty_like(data)
        out[:, perm] = data
        return cls(n, out)
