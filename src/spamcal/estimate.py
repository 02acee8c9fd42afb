"""Scalable transition-matrix estimation from filtered calibration data.

The protocol measures, per qubit, the read-0/read-1 probabilities at every
preparation supported on the qubit's neighborhood (far spectators 0), and,
per pair, the covariance of the two read-0 indicators at every preparation
supported on the union of the two neighborhoods. Identical prepared
bitstrings are measured once and shared; :func:`estimate_transition_matrix`
is the one entry point that measures. The full matrix is then assembled
classically: a product of per-qubit means plus an additive pairwise
covariance correction, each mean/covariance looked up at the filtered
version of the column's prepared state. Both parts go through
:func:`spamcal.assembly.kron_columns`, the kernel the noise model builds
its own columns with: the means are the product term and each pair's
covariance table is a term on that pair.

Each table is an array whose row r belongs to the r-th filtered state of
its mask in :func:`spamcal.bits.submasks` order, so a column c reads row
``searchsorted(submasks(mask), c & mask)``.

CalibrationTables JSON: mean-field keys "i|b|bits", pair keys
"i,j|bi bj|bits", one float per key; metadata records k, the backend
descriptor, and the deduplicated circuit count. Loading checks that every
filtered state of every mask has its entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assembly import kron_columns
from .bits import BitString, submasks, support_mask
from .characterize import correlator_report, prob_joint_zero, prob_zero
from .errors import MissingDataError, ValidationError
from .geometry import RegisterGeometry, all_neighborhoods
from .serialize import as_object, dump_json, load_json, parse
from .tmatrix import TransitionMatrix

# The two kernel calls of the estimator, under their own names so that a
# profile can tell kernel time from table lookups.
mean_column = pair_column = kron_columns


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

    mean_fields: i -> (rows, 2) array, [r, b] = P(qubit i reads b)
    pair_fluct:  (i, j) -> (rows, 2, 2) array, [r, bi, bj] = covariance of
                 the indicators "i reads bi" and "j reads bj", i < j
    Row r is the r-th filtered state of the qubit's or pair's mask, in
    submasks order. The JSON form keeps one entry per (table, outcome bits,
    filtered state), as described in the module docstring; ``from_json``
    raises ValidationError naming the first entry it lacks.
    """

    n: int
    k: int
    single_masks: dict  # i -> int mask over {i} | N_i
    pair_masks: dict  # (i, j) -> int mask over {i, j} | N_i | N_j
    mean_fields: dict = field(default_factory=dict)
    pair_fluct: dict = field(default_factory=dict)
    circuits_used: int = 0
    metadata: dict = field(default_factory=dict)

    def to_json(self, path=None) -> str:
        def entries(tables, masks, qubits):
            return {
                key: v
                for q, mask in masks.items()
                for key, v in zip(
                    _keys(qubits(q), mask, self.n), tables[q].ravel().tolist()
                )
            }

        def bstr(idx):
            return str(BitString.from_index(idx, self.n))

        obj = {
            "n": self.n,
            "k": self.k,
            "order": "msb-first",
            "single_masks": {str(i): bstr(m) for i, m in self.single_masks.items()},
            "pair_masks": {
                f"{i},{j}": bstr(m) for (i, j), m in self.pair_masks.items()
            },
            "mean_fields": entries(self.mean_fields, self.single_masks, lambda i: (i,)),
            "pair_fluct": entries(self.pair_fluct, self.pair_masks, tuple),
            "circuits_used": self.circuits_used,
            "metadata": self.metadata,
        }
        return dump_json(obj, path)

    @classmethod
    def from_json(cls, path) -> "CalibrationTables":
        obj = as_object(load_json(path), "tables JSON")
        required = ("n", "k", "single_masks", "pair_masks", "mean_fields", "pair_fluct")
        for key in required:
            if key not in obj:
                raise ValidationError(f"tables JSON missing key {key!r}")
        for key in required[2:]:
            as_object(obj[key], key)
        n = parse(int, obj["n"], "n")

        def bidx(s):
            return BitString.from_str(s).index

        def pair(key):
            return tuple(int(x) for x in key.split(","))

        def table(entries, qubits, mask):
            who = f"qubit {qubits[0]}" if len(qubits) == 1 else f"qubits {qubits}"
            vals = []
            for key in _keys(qubits, mask, n):
                if key not in entries:
                    state = key.rsplit("|", 1)[1]
                    raise ValidationError(
                        f"no table entry for {who}, filtered state {state}"
                    )
                vals.append(parse(float, entries[key], f"table entry {key!r}"))
            return np.array(vals).reshape((-1,) + (2,) * len(qubits))

        tables = cls(
            n=n,
            k=parse(int, obj["k"], "k"),
            single_masks={
                parse(int, i, "single mask key"): bidx(m)
                for i, m in obj["single_masks"].items()
            },
            pair_masks={
                parse(pair, key, "pair mask key"): bidx(m)
                for key, m in obj["pair_masks"].items()
            },
            circuits_used=parse(int, obj.get("circuits_used", 0), "circuits_used"),
            metadata=obj.get("metadata", {}),
        )
        for i, mask in tables.single_masks.items():
            tables.mean_fields[i] = table(obj["mean_fields"], (i,), mask)
        for ij, mask in tables.pair_masks.items():
            tables.pair_fluct[ij] = table(obj["pair_fluct"], ij, mask)
        return tables


def _keys(qubits: tuple, mask: int, n: int) -> list:
    """JSON keys of one table in its array order: filtered state, then the
    outcome bits of the qubits."""
    who = ",".join(map(str, qubits))
    return [
        f"{who}|{' '.join(map(str, bits))}|{BitString.from_index(s, n)}"
        for s in submasks(mask)
        for bits in itertools.product((0, 1), repeat=len(qubits))
    ]


def _masks(geometry: RegisterGeometry, k: int):
    n = geometry.n
    nbhds = all_neighborhoods(geometry, k)
    single = {
        i: support_mask({i} | set(nbhds[i].members), n) for i in range(1, n + 1)
    }
    pair = {
        (i, j): single[i] | single[j]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return single, pair


def _collect(backend, prep_indices, n: int) -> dict:
    dists = {}
    missing = []
    for idx in sorted(prep_indices):
        try:
            dists[idx] = backend.distribution(BitString.from_index(idx, n))
        except MissingDataError as exc:
            missing.extend(exc.missing)
    if missing:
        raise MissingDataError(missing)
    return dists


def _rows(mask: int, cols: np.ndarray) -> np.ndarray:
    """Table row of every column: the index of its filtered state."""
    return np.searchsorted(submasks(mask), cols & mask)


def _means(tables: CalibrationTables, cols: np.ndarray) -> np.ndarray:
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
    t = mean_column(_means(tables, cols), [((), np.ones(cols.size))])
    return TransitionMatrix(tables.n, t)


def assemble_t_pair(tables: CalibrationTables) -> TransitionMatrix:
    """Additive pairwise-covariance correction; columns sum to ~0."""
    n = tables.n
    cols = np.arange(1 << n)
    terms = [
        ((i - 1, j - 1), tables.pair_fluct[(i, j)][_rows(mask, cols)])
        for (i, j), mask in sorted(tables.pair_masks.items())
    ]
    return TransitionMatrix(n, pair_column(_means(tables, cols), terms))


def estimate_transition_matrix(
    backend, geometry: RegisterGeometry, k: int
) -> tuple[TransitionMatrix, CalibrationTables]:
    """Run both measurement steps (sharing preparations), fill the tables
    and assemble the estimated matrix as mean product plus pair correction."""
    n = geometry.n
    single, pair = _masks(geometry, k)
    tables = CalibrationTables(n, k, single, pair)
    preps = set()
    for mask in single.values():
        preps.update(submasks(mask))
    step1 = len(preps)
    for mask in pair.values():
        preps.update(submasks(mask))
    dists = _collect(backend, preps, n)
    # one 1-D marginal sum per filtered state: a row sum over stacked
    # distributions adds in another order and moves the last bits
    for i, mask in single.items():
        p0 = np.array([prob_zero(dists[s], i, n) for s in submasks(mask)])
        tables.mean_fields[i] = np.stack([p0, 1.0 - p0], axis=-1)
    for (i, j), mask in pair.items():
        rows = [dists[s] for s in submasks(mask)]
        pi = np.array([prob_zero(d, i, n) for d in rows])
        pj = np.array([prob_zero(d, j, n) for d in rows])
        joint = np.array([prob_joint_zero(d, i, j, n) for d in rows])
        # covariance of the four indicator combinations from the same
        # measured distribution
        tables.pair_fluct[(i, j)] = np.stack(
            [
                joint - pi * pj,
                (pi - joint) - pi * (1.0 - pj),
                (pj - joint) - (1.0 - pi) * pj,
                (1.0 - pi - pj + joint) - (1.0 - pi) * (1.0 - pj),
            ],
            axis=-1,
        ).reshape(-1, 2, 2)
    tables.circuits_used = len(dists)
    bound1, bound2 = circuit_budget(n, k)
    tables.metadata = {
        "backend": backend.descriptor(),
        "step1_preparations": step1,
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
