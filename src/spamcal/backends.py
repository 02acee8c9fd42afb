"""Sources of outcome distributions for prepared register states.

Three kinds: exact evaluation of a :class:`~spamcal.model.NoiseModel`,
seeded finite-shot sampling of it, and replay of a recorded counts dataset.
Each answers ``distribution(x)`` and ``counts(x, shots)`` for a prepared
state given by its integer index (see :mod:`spamcal.bits`), and the block
query ``distributions(states)``, the (2^n, len(states)) array whose column
c is the distribution of ``states[c]``; outcome histograms are keyed by
outcome index too. The model backends share one ``counts``, of their own
shots by default. A block query that raises changes nothing: the model
backends evaluate the whole block with one checked model call before any
draw, and replay, which looks states up one by one, names every state of
the block it lacks in one MissingDataError. :func:`collect` is the one loop
that queries a backend for distributions: it asks once per distinct state,
through the block query only, and reports every state a replay dataset
lacks in one MissingDataError.

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

from .assembly import BLOCK
from .bits import bitstring, parse_bitstring
from .errors import MissingDataError, ValidationError
from .model import ORACLE_LIMIT_DEFAULT, NoiseModel
from .serialize import as_object, dump_json, integer, load_json, number
from .tmatrix import TransitionMatrix

SAMPLER_ID = "pcg64-inverse-cdf-v1"
DEFAULT_SHOTS = 32768


@dataclass(frozen=True)
class Counts:
    """Integer histogram of measured outcomes for one prepared state of an
    n-qubit register, keyed by outcome index."""

    n: int
    prepared: int
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
        wrong = [x for x in (self.prepared, *self.histogram) if not 0 <= x < 1 << self.n]
        if wrong:
            raise ValidationError(
                f"state {wrong[0]} is out of range: the register has {self.n} qubits"
            )

    def vector(self) -> np.ndarray:
        v = np.zeros(1 << self.n)
        for x, c in self.histogram.items():
            v[x] = c
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


class _Backend:
    """The one-state query of every backend: a one-state block query."""

    def distribution(self, xprime: int) -> np.ndarray:
        return self.distributions([xprime])[:, 0]


class _ModelBackend(_Backend):
    """Common sampling machinery for model-driven backends.

    Repeated queries for the same prepared state advance a per-state query
    ordinal, so the full call sequence is reproducible; distinct prepared
    states may be sampled in any order without changing results.
    """

    def __init__(self, model: NoiseModel, seed: int = 0):
        # every draw seeds a SeedSequence with it, which takes no negatives
        if seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {seed}")
        self.model = model
        self.n = model.n
        self.seed = seed
        self._ordinals: dict[int, int] = {}

    def _draw(self, states, shots: int) -> np.ndarray:
        """(2^n, states) sampled histograms, one column per state, each from
        its own (seed, state, ordinal) generator."""
        if shots <= 0:
            raise ValidationError(f"shots must be positive, got {shots}")
        # the whole block is checked before any ordinal moves
        columns = self.model._columns(states)
        hists = np.empty(columns.shape, dtype=np.int64)
        for c, (xprime, column) in enumerate(zip(states, columns.T)):
            ordinal = self._ordinals.get(xprime, 0)
            self._ordinals[xprime] = ordinal + 1
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([self.seed, xprime, ordinal]))
            )
            hists[:, c] = _sample_histogram(column, shots, rng)
        return hists

    def counts(self, xprime: int, shots: int | None = None) -> Counts:
        shots = self.shots if shots is None else shots
        hist = self._draw([xprime], shots)[:, 0]
        histogram = {int(x): int(hist[x]) for x in np.flatnonzero(hist)}
        return Counts(self.n, xprime, histogram, shots)


class ExactBackend(_ModelBackend):
    """Answers every prepared state with the model's exact distribution.

    Counts queries still work (a seeded multinomial draw of the exact
    column), so datasets can be recorded from an exact backend too.
    """

    kind = "exact"
    shots = DEFAULT_SHOTS  # of a counts query only; not in the descriptor

    def distributions(self, states) -> np.ndarray:
        return self.model._columns(states)

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

    def distributions(self, states) -> np.ndarray:
        return self._draw(states, self.shots) / self.shots

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
    records: dict = field(default_factory=dict)  # prepared index -> Counts

    def add(self, counts: Counts):
        if counts.n != self.n:
            raise ValidationError(f"record for n={counts.n} in an n={self.n} dataset")
        if counts.prepared in self.records:
            raise ValidationError(
                f"duplicate prepared state {bitstring(counts.prepared, self.n)}"
            )
        self.records[counts.prepared] = counts

    def to_json(self, path=None) -> str:
        recs = [
            {
                "prepared": bitstring(x, self.n),
                "shots": c.shots,
                "counts": {bitstring(o, self.n): v for o, v in sorted(c.histogram.items())},
            }
            for x, c in sorted(self.records.items())
        ]
        return dump_json({"n": self.n, "order": "msb-first", "records": recs}, path)

    @classmethod
    def from_dict(cls, obj) -> "Dataset":
        obj = as_object(obj, "dataset JSON", ("n", "order", "records"))
        n = integer(obj["n"], "n")
        ds = cls(n)
        if not isinstance(obj["records"], list):
            raise ValidationError("dataset records must be a JSON list")
        for r, rec in enumerate(obj["records"]):
            try:
                rec = as_object(rec, "record", ("prepared", "shots", "counts"))
                prepared = parse_bitstring(rec["prepared"], n)
                histogram = {
                    parse_bitstring(s, n): integer(v, f"count of {s}", 0)
                    for s, v in as_object(rec["counts"], "counts").items()
                }
                ds.add(Counts(n, prepared, histogram, integer(rec["shots"], "shots")))
            except ValidationError as exc:
                raise ValidationError(f"bad dataset record {r}: {exc}") from None
        return ds

    @classmethod
    def from_json(cls, path) -> "Dataset":
        return cls.from_dict(load_json(path))


class ReplayBackend(_Backend):
    """Serves only the prepared states present in its dataset."""

    kind = "replay"

    def __init__(self, dataset: Dataset, source: str | None = None):
        self.dataset = dataset
        self.n = dataset.n
        self.source = source

    def counts(self, xprime: int, shots: int | None = None) -> Counts:
        # shots is ignored; the stored record fixes it
        if not 0 <= xprime < 1 << self.n:
            raise ValidationError(
                f"prepared state {xprime} is out of range: the register has {self.n} qubits"
            )
        try:
            return self.dataset.records[xprime]
        except KeyError:
            raise MissingDataError([xprime], self.n) from None

    def distributions(self, states) -> np.ndarray:
        found, missing = [], []
        for xprime in states:
            try:
                found.append(self.counts(xprime).distribution())
            except MissingDataError as exc:
                missing.extend(exc.missing)
        if missing:
            raise MissingDataError(missing, self.n)
        return np.stack(found, axis=1) if found else np.empty((1 << self.n, 0))

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "states": len(self.dataset.records)}
        if self.source:
            d["source"] = self.source
        return d


def ingest_dataset(path) -> ReplayBackend:
    """Load a counts-dataset JSON file into a replay backend."""
    return ReplayBackend(Dataset.from_json(path), source=str(path))


def collect(backend, preps):
    """Yield (state, distribution) for each distinct prepared state, in
    increasing order, asking the backend's block query for BLOCK states at a
    time. A state the backend lacks is skipped: the block it was in is asked
    again without the states its MissingDataError named, and after the last
    state one MissingDataError names every skipped state."""
    states = sorted(set(preps))
    missing = []
    for start in range(0, len(states), BLOCK):
        chunk = states[start:start + BLOCK]
        try:
            block = backend.distributions(chunk)
        except MissingDataError as exc:
            missing.extend(exc.missing)
            named = set(exc.missing)
            chunk = [x for x in chunk if x not in named]
            if not chunk:
                continue
            block = backend.distributions(chunk)
        # one contiguous row per distribution
        yield from zip(chunk, np.ascontiguousarray(block.T))
    if missing:
        raise MissingDataError(missing, backend.n)


def record_dataset(backend, prepared_states, shots: int) -> Dataset:
    """Query a backend for each prepared state and collect the counts."""
    ds = Dataset(n=backend.n)
    for xprime in prepared_states:
        ds.add(backend.counts(xprime, shots))
    return ds


def save_distribution(dist: np.ndarray, n: int, path=None) -> str:
    """Distribution JSON: {"n": int, "probs": {"bitstring": real}}."""
    dist = np.asarray(dist, dtype=float)
    probs = {bitstring(int(x), n): float(dist[x]) for x in np.flatnonzero(dist)}
    return dump_json({"n": n, "probs": probs}, path)


def load_distribution(path, n: int | None = None) -> tuple[np.ndarray, int]:
    """The distribution vector and register size in a distribution file;
    given n, a file for another register size is rejected before its 2^n
    vector is built."""
    obj = as_object(load_json(path), "distribution JSON", ("n", "probs"))
    size = integer(obj["n"], "n")
    if n is not None and size != n:
        raise ValidationError(f"distribution n={size} does not match matrix n={n}")
    v = np.zeros(1 << size)
    for s, p in as_object(obj["probs"], "probs").items():
        v[parse_bitstring(s, size)] = number(p, f"probability of {s}")
    return v, size


def measure_full_matrix(backend, limit: int = ORACLE_LIMIT_DEFAULT) -> TransitionMatrix:
    """Exhaustively measure all 2^n columns from any backend."""
    n = backend.n
    if n > limit:
        raise ValidationError(
            f"full measurement of n={n} needs 2^n={1 << n} circuits; "
            f"the oracle limit is {limit}"
        )
    t = np.empty((1 << n, 1 << n))
    for c, dist in collect(backend, range(1 << n)):
        t[:, c] = dist
    return TransitionMatrix(n, t)
