"""Sources of outcome distributions for prepared register states.

Three kinds: exact evaluation of a :class:`~spamcal.model.NoiseModel`,
seeded finite-shot sampling of it, and replay of a recorded counts dataset.

Sampling is reproducible across platforms: each query draws from a PCG64
generator seeded by (seed, prepared-state index, query ordinal) and converts
uniforms to outcomes by inverse CDF over the 2^n outcome vector. The
sampler identifier recorded in outputs is ``pcg64-inverse-cdf-v1``.

Counts-dataset JSON schema:
{"n": int, "order": "msb-first",
 "records": [{"prepared": "0101", "shots": 32768, "counts": {"0101": 31000}}]}
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import BitString, check_width
from .errors import MissingDataError, ValidationError
from .model import ORACLE_LIMIT_DEFAULT, NoiseModel
from .serialize import as_object, dump_json, load_json, parse
from .tmatrix import TransitionMatrix

SAMPLER_ID = "pcg64-inverse-cdf-v1"
DEFAULT_SHOTS = 32768


@dataclass(frozen=True)
class Counts:
    """Integer histogram of measured outcomes for one prepared state."""

    prepared: BitString
    histogram: dict
    shots: int

    def __post_init__(self):
        if self.shots <= 0:
            raise ValidationError(f"shots must be positive, got {self.shots}")
        total = sum(self.histogram.values())
        if total != self.shots:
            raise ValidationError(
                f"histogram sums to {total}, declared shots {self.shots}"
            )
        if any(v < 0 for v in self.histogram.values()):
            raise ValidationError("negative count in histogram")
        n = self.prepared.n
        wrong = [s for s in self.histogram if len(s) != n]
        if wrong:
            raise ValidationError(
                f"outcome {wrong[0]!r} has {len(wrong[0])} bits, prepared state has {n}"
            )

    def vector(self) -> np.ndarray:
        n = self.prepared.n
        v = np.zeros(1 << n)
        for s, c in self.histogram.items():
            v[BitString.from_str(s).index] = c
        return v

    def distribution(self) -> np.ndarray:
        return self.vector() / self.shots


def _sample_histogram(p: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial draw by inverse CDF over the outcome vector."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = rng.random(shots)
    idx = np.searchsorted(cdf, u, side="right")
    return np.bincount(idx, minlength=p.size)


class _ModelBackend:
    """Common sampling machinery for model-driven backends.

    Repeated queries for the same prepared state advance a per-state query
    ordinal, so the full call sequence is reproducible; distinct prepared
    states may be sampled in any order without changing results.
    """

    def __init__(self, model: NoiseModel, seed: int = 0):
        self.model = model
        self.n = model.n
        self.seed = seed
        self._ordinals: dict[int, int] = {}

    def _draw(self, xprime: BitString, shots: int) -> Counts:
        if shots <= 0:
            raise ValidationError(f"shots must be positive, got {shots}")
        column = self.model.column(xprime)  # checked before the ordinal moves
        ordinal = self._ordinals.get(xprime.index, 0)
        self._ordinals[xprime.index] = ordinal + 1
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, xprime.index, ordinal]))
        )
        hist = _sample_histogram(column, shots, rng)
        histogram = {
            str(BitString.from_index(i, self.n)): int(c)
            for i, c in enumerate(hist)
            if c > 0
        }
        return Counts(prepared=xprime, histogram=histogram, shots=shots)


class ExactBackend(_ModelBackend):
    """Answers every prepared state with the model's exact distribution.

    Counts queries still work (a seeded multinomial draw of the exact
    column), so datasets can be recorded from an exact backend too.
    """

    kind = "exact"

    def distribution(self, xprime: BitString) -> np.ndarray:
        return self.model.column(xprime)

    def counts(self, xprime: BitString, shots: int = DEFAULT_SHOTS) -> Counts:
        return self._draw(xprime, shots)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n}


class SampledBackend(_ModelBackend):
    """Finite-shot sampling of a model, deterministic under a single seed."""

    kind = "sampled"

    def __init__(self, model: NoiseModel, shots: int = DEFAULT_SHOTS, seed: int = 0):
        if shots <= 0:
            raise ValidationError(f"shots must be positive, got {shots}")
        super().__init__(model, seed)
        self.shots = shots

    def counts(self, xprime: BitString, shots: int | None = None) -> Counts:
        return self._draw(xprime, self.shots if shots is None else shots)

    def distribution(self, xprime: BitString) -> np.ndarray:
        return self.counts(xprime).distribution()

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "shots": self.shots,
            "seed": self.seed,
            "sampler": SAMPLER_ID,
        }


@dataclass
class Dataset:
    """A set of recorded counts, one record per prepared state."""

    n: int
    records: dict = field(default_factory=dict)  # index -> Counts

    def add(self, counts: Counts):
        if counts.prepared.n != self.n:
            raise ValidationError(
                f"record for n={counts.prepared.n} in an n={self.n} dataset"
            )
        if counts.prepared.index in self.records:
            raise ValidationError(f"duplicate prepared state {counts.prepared}")
        self.records[counts.prepared.index] = counts

    def to_json(self, path=None) -> str:
        recs = []
        for idx in sorted(self.records):
            c = self.records[idx]
            recs.append(
                {
                    "prepared": str(c.prepared),
                    "shots": c.shots,
                    "counts": dict(sorted(c.histogram.items())),
                }
            )
        return dump_json({"n": self.n, "order": "msb-first", "records": recs}, path)

    @classmethod
    def from_dict(cls, obj) -> "Dataset":
        obj = as_object(obj, "dataset JSON")
        for key in ("n", "order", "records"):
            if key not in obj:
                raise ValidationError(f"dataset JSON missing key {key!r}")
        if obj["order"] != "msb-first":
            raise ValidationError(f"unsupported bit order {obj['order']!r}")
        ds = cls(n=parse(int, obj["n"], "n"))
        if not isinstance(obj["records"], list):
            raise ValidationError("dataset records must be a JSON list")
        for r, rec in enumerate(obj["records"]):
            try:
                rec = as_object(rec, "record")
                counts = Counts(
                    prepared=BitString.from_str(rec["prepared"]),
                    histogram={
                        k: parse(int, v, f"count of {k}")
                        for k, v in as_object(rec["counts"], "counts").items()
                    },
                    shots=parse(int, rec["shots"], "shots"),
                )
                ds.add(counts)
            except (KeyError, ValidationError) as exc:
                raise ValidationError(f"bad dataset record {r}: {exc}") from None
        return ds

    @classmethod
    def from_json(cls, path) -> "Dataset":
        return cls.from_dict(load_json(path))


class ReplayBackend:
    """Serves only the prepared states present in its dataset."""

    kind = "replay"

    def __init__(self, dataset: Dataset, source: str | None = None):
        self.dataset = dataset
        self.n = dataset.n
        self.source = source

    def counts(self, xprime: BitString, shots: int | None = None) -> Counts:
        # shots is ignored; the stored record fixes it
        check_width(xprime, self.n)
        try:
            return self.dataset.records[xprime.index]
        except KeyError:
            raise MissingDataError(str(xprime)) from None

    def distribution(self, xprime: BitString) -> np.ndarray:
        return self.counts(xprime).distribution()

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "states": len(self.dataset.records)}
        if self.source:
            d["source"] = self.source
        return d


def ingest_dataset(path) -> ReplayBackend:
    """Load a counts-dataset JSON file into a replay backend."""
    return ReplayBackend(Dataset.from_json(path), source=str(path))


def record_dataset(backend, prepared_states, shots: int) -> Dataset:
    """Query a backend for each prepared state and collect the counts."""
    ds = Dataset(n=backend.n)
    for xprime in prepared_states:
        ds.add(backend.counts(xprime, shots))
    return ds


def save_distribution(dist: np.ndarray, n: int, path=None) -> str:
    """Distribution JSON: {"n": int, "probs": {"bitstring": real}}."""
    probs = {
        str(BitString.from_index(i, n)): float(v)
        for i, v in enumerate(np.asarray(dist, dtype=float))
        if v != 0.0
    }
    return dump_json({"n": n, "probs": probs}, path)


def load_distribution(path) -> tuple[np.ndarray, int]:
    obj = as_object(load_json(path), "distribution JSON")
    for key in ("n", "probs"):
        if key not in obj:
            raise ValidationError(f"distribution JSON missing key {key!r}")
    n = parse(int, obj["n"], "n")
    v = np.zeros(1 << n)
    for s, p in as_object(obj["probs"], "probs").items():
        x = BitString.from_str(s)
        check_width(x, n)
        v[x.index] = parse(float, p, f"probability of {s}")
    return v, n


def measure_full_matrix(backend, limit: int = ORACLE_LIMIT_DEFAULT) -> TransitionMatrix:
    """Exhaustively measure all 2^n columns from any backend."""
    n = backend.n
    if n > limit:
        raise ValidationError(
            f"full measurement of n={n} needs 2^n={1 << n} circuits; "
            f"the oracle limit is {limit}"
        )
    dim = 1 << n
    t = np.empty((dim, dim))
    missing = []
    for c in range(dim):
        xprime = BitString.from_index(c, n)
        try:
            t[:, c] = backend.distribution(xprime)
        except MissingDataError:
            missing.append(str(xprime))
    if missing:
        raise MissingDataError(missing)
    return TransitionMatrix(n, t)
