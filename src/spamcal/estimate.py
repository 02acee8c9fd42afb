"""Scalable transition-matrix estimation from filtered calibration data.

The protocol measures, per qubit, P(i reads 0) at every preparation
supported on the qubit's mask (the qubit and its neighborhood,
:func:`spamcal.geometry.chebyshev_mask`; far spectators 0), and, per pair,
c = P(i, j read 00) - P(i reads 0) P(j reads 0) at every preparation
supported on the union of the two masks; the other three indicator
covariances are -c, -c and +c. Identical prepared states are measured once
and shared; :func:`estimate_transition_matrix` is the one entry point that
measures, through :func:`spamcal.backends.collect`. It collects the first
step's preparations before it builds the n(n-1)/2 pair masks, so a replay
dataset that lacks them fails at once, naming only those states. The full
matrix is then assembled classically: a product of per-qubit means plus an
additive pairwise covariance correction, each mean/covariance looked up at
the filtered version of the column's prepared state. Both parts go through
:func:`spamcal.assembly.kron_columns`, the kernel the noise model builds
its own columns with: the read-0 probabilities give the product term and
each pair's c is the coefficient of a term on that pair. The kernel builds
all n(n-1)/2 pair terms in one sweep over the qubits. Each read-0
marginal of a (filtered state, qubit) is summed once and shared by the
qubit's mean field and every pair table that reads it.

Each table is an array whose row r belongs to the r-th filtered state of
its mask in :func:`spamcal.bits.submasks` order, so a column c reads row
``searchsorted(submasks(mask), c & mask)``.

CalibrationTables JSON: keys "i|bits" hold P(i reads 0) and "i,j|bits" hold
c, one float per filtered state; metadata records k, the backend
descriptor, and the deduplicated circuit count. Loading checks that the
single masks name the qubits 1..n, that each pair has 1 <= i < j <= n (a
pair may be absent), that every mask holds its own qubits, and that every
filtered state has its entry, in [0, 1] for P(i reads 0), [-1/4, 1/4] for c.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .assembly import kron_columns
from .backends import collect
from .bits import bitstring, parse_bitstring, qubit_mask, submasks
from .characterize import correlator_report, prob_joint_zero, prob_zero
from .errors import ValidationError
from .geometry import RegisterGeometry, chebyshev_mask, check_register
from .serialize import as_object, dump_json, integer, load_json, number, qubits
from .tmatrix import TransitionMatrix

# The two kernel calls of the estimator, under their own names so that a
# profile can tell kernel time from table lookups.
mean_column = pair_column = kron_columns

# a read-0 probability summed from an exact distribution can round past 1
RANGE_SLACK = 1e-12


def circuit_budget(n: int, k: int) -> tuple[int, int]:
    """Upper bounds on distinct circuits for the two measurement steps."""
    if n < 1:
        raise ValidationError(f"register size must be positive, got {n}")
    if k < 0:
        raise ValidationError(f"neighborhood size must be nonnegative, got {k}")
    return 2 * n * 2**k, 2 * n**2 * 4**k


@dataclass
class CalibrationTables:
    """Filtered mean fields and pair covariances for one neighborhood size.

    mean_fields: i -> (rows,) array, [r] = P(qubit i reads 0)
    pair_fluct:  (i, j) -> (rows,) array, [r] = P(i, j read 00)
                 - P(i reads 0) P(j reads 0), i < j
    Row r is the r-th filtered state of the qubit's or pair's mask, in
    submasks order. The JSON form keeps one entry per (table, filtered
    state), as described in the module docstring; ``from_json`` raises
    ValidationError naming the first mask or entry that breaks its rules.
    """

    n: int
    k: int
    single_masks: dict  # i -> chebyshev_mask(geometry, i, k)
    pair_masks: dict  # (i, j) -> single_masks[i] | single_masks[j]
    mean_fields: dict = field(default_factory=dict)
    pair_fluct: dict = field(default_factory=dict)
    circuits_used: int = 0
    metadata: dict = field(default_factory=dict)

    def to_json(self, path=None) -> str:
        def entries(tables, masks, qubits):
            return {
                key: v
                for q, mask in masks.items()
                for key, v in zip(_keys(qubits(q), mask, self.n), tables[q].tolist())
            }

        n = self.n
        obj = {
            "n": n,
            "k": self.k,
            "order": "msb-first",
            "single_masks": {str(i): bitstring(m, n) for i, m in self.single_masks.items()},
            "pair_masks": {
                f"{i},{j}": bitstring(m, n) for (i, j), m in self.pair_masks.items()
            },
            "mean_fields": entries(self.mean_fields, self.single_masks, lambda i: (i,)),
            "pair_fluct": entries(self.pair_fluct, self.pair_masks, tuple),
            "circuits_used": self.circuits_used,
            "metadata": self.metadata,
        }
        return dump_json(obj, path)

    @classmethod
    def from_json(cls, path) -> "CalibrationTables":
        required = ("n", "k", "single_masks", "pair_masks", "mean_fields", "pair_fluct")
        obj = as_object(load_json(path), "tables JSON", required)
        for key in required[2:]:
            as_object(obj[key], key)
        n = integer(obj["n"], "n")

        def masks(name, parts):
            out = {}
            for key, m in obj[name].items():
                q = qubits(key, parts, "tables")
                if q != tuple(sorted(set(q))):
                    raise ValidationError(f"{name} key {key!r} needs i < j")
                mask = parse_bitstring(m, n)
                for i in q:  # qubit_mask rejects an index outside 1..n
                    if not mask & qubit_mask(i, n):
                        raise ValidationError(f"{name}[{key!r}] lacks qubit {i}")
                out[q if parts > 1 else q[0]] = mask
            return out

        def table(entries, qubits, mask, low, high):
            who = f"qubit {qubits[0]}" if len(qubits) == 1 else f"qubits {qubits}"
            vals = []
            for key in _keys(qubits, mask, n):
                if key not in entries:
                    state = key.rsplit("|", 1)[1]
                    raise ValidationError(
                        f"no table entry for {who}, filtered state {state}"
                    )
                vals.append(number(entries[key], f"table entry {key!r}"))
                if not low - RANGE_SLACK <= vals[-1] <= high + RANGE_SLACK:
                    raise ValidationError(f"table entry {key!r} lies outside [{low}, {high}]")
            return np.array(vals)

        tables = cls(
            n=n,
            k=integer(obj["k"], "k", 0),
            single_masks=masks("single_masks", 1),
            pair_masks=masks("pair_masks", 2),
            circuits_used=integer(obj.get("circuits_used", 0), "circuits_used", 0),
            metadata=obj.get("metadata", {}),
        )
        if sorted(tables.single_masks) != list(range(1, n + 1)):
            raise ValidationError(f"single_masks must name each of the qubits 1..{n}")
        for i, mask in tables.single_masks.items():
            tables.mean_fields[i] = table(obj["mean_fields"], (i,), mask, 0, 1)
        for ij, mask in tables.pair_masks.items():
            tables.pair_fluct[ij] = table(obj["pair_fluct"], ij, mask, -0.25, 0.25)
        return tables


def _keys(qubits: tuple, mask: int, n: int) -> list:
    """JSON keys of one table in its row order, one per filtered state."""
    who = ",".join(map(str, qubits))
    return [f"{who}|{bitstring(s, n)}" for s in submasks(mask)]


def _preps(masks) -> set:
    """Every filtered state of every mask."""
    return {s for mask in masks.values() for s in submasks(mask)}


def _rows(mask: int, cols: np.ndarray) -> np.ndarray:
    """Table row of every column: the index of its filtered state."""
    return np.searchsorted(submasks(mask), cols & mask)


def _read0(tables: CalibrationTables, cols: np.ndarray) -> np.ndarray:
    """(cols, n) P(qubit reads 0) at every column's filtered state."""
    return np.stack(
        [
            tables.mean_fields[i][_rows(tables.single_masks[i], cols)]
            for i in range(1, tables.n + 1)
        ],
        axis=1,
    )


def assemble_t_mean(tables: CalibrationTables) -> TransitionMatrix:
    """Product-of-means matrix from the filtered mean fields."""
    cols = np.arange(1 << tables.n)
    t = mean_column(_read0(tables, cols), [((), np.ones(cols.size))])
    return TransitionMatrix(tables.n, t)


def assemble_t_pair(tables: CalibrationTables) -> TransitionMatrix:
    """Additive pairwise-covariance correction; columns sum to ~0."""
    n = tables.n
    cols = np.arange(1 << n)
    terms = [
        ((i - 1, j - 1), tables.pair_fluct[(i, j)][_rows(mask, cols)])
        for (i, j), mask in sorted(tables.pair_masks.items())
    ]
    return TransitionMatrix(n, pair_column(_read0(tables, cols), terms))


def estimate_transition_matrix(
    backend, geometry: RegisterGeometry, k: int
) -> tuple[TransitionMatrix, CalibrationTables]:
    """Run both measurement steps (sharing preparations), fill the tables
    and assemble the estimated matrix as mean product plus pair correction."""
    check_register(backend, geometry)
    n = geometry.n
    single = {i: chebyshev_mask(geometry, i, k) for i in range(1, n + 1)}
    step1 = _preps(single)
    dists = dict(collect(backend, step1))
    pair = {
        (i, j): single[i] | single[j]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    dists.update(collect(backend, _preps(pair) - step1))
    tables = CalibrationTables(n, k, single, pair)
    # one 1-D marginal sum per (filtered state, qubit), shared by the qubit's
    # table and every pair table that reads it: a row sum over stacked
    # distributions adds in another order and moves the last bits
    zero = functools.cache(lambda s, i: prob_zero(dists[s], i, n))
    for i, mask in single.items():
        tables.mean_fields[i] = np.array([zero(s, i) for s in submasks(mask)])
    for (i, j), mask in pair.items():
        states = submasks(mask)
        pi = np.array([zero(s, i) for s in states])
        pj = np.array([zero(s, j) for s in states])
        joint = np.array([prob_joint_zero(dists[s], i, j, n) for s in states])
        tables.pair_fluct[(i, j)] = joint - pi * pj
    tables.circuits_used = len(dists)
    bound1, bound2 = circuit_budget(n, k)
    tables.metadata = {
        "backend": backend.descriptor(),
        "step1_preparations": len(step1),
        "budget": {"step1": bound1, "step2": bound2},
    }
    t_est = assemble_t_mean(tables)
    t_est.data += assemble_t_pair(tables).data
    return t_est, tables


def choose_neighborhood_size(
    backend, geometry: RegisterGeometry, threshold: float = 1e-3
) -> int:
    """Smallest admissible k whose neighborhoods hold every shift correlator
    at or above the threshold.

    A shift A[i, j] reaches Chebyshev distance d(i, j) and a joint shift
    B[i, j, l] reaches min(d(i, l), d(j, l)); with ``reach`` the largest
    reach of any such correlator (0 if none), k = (2 * reach + 1)**D - 1 on
    a D-dimensional lattice.
    """
    check_register(backend, geometry)
    report = correlator_report(backend)
    d = geometry.chebyshev
    above = np.argwhere(np.abs(report.single_shift) >= threshold) + 1
    reaches = [d(int(i), int(j)) for i, j in above]
    reaches += [
        min(d(i, l), d(j, l))
        for (i, j, l), v in report.joint_shift.items()
        if abs(v) >= threshold
    ]
    return (2 * max(reaches, default=0) + 1) ** geometry.dimension - 1
