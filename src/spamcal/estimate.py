"""Scalable transition-matrix estimation from filtered calibration data.

The protocol measures, per qubit, the read-0/read-1 probabilities at every
preparation supported on the qubit's neighborhood (far spectators 0), and,
per pair, the covariance of the two read-0 indicators at every preparation
supported on the union of the two neighborhoods. Identical prepared
bitstrings are measured once and shared. The full matrix is then assembled
classically: a product of per-qubit means plus an additive pairwise
covariance correction, each mean/covariance looked up at the filtered
version of the column's prepared state. Both parts go through
:func:`spamcal.assembly.kron_columns`, the kernel the noise model builds
its own columns with: the means are the product term and each pair's
covariance table is a term on that pair.

CalibrationTables JSON: mean-field keys "i|b|bits", pair keys
"i,j|bi bj|bits"; metadata records k, the backend descriptor, and the
deduplicated circuit count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assembly import kron_columns
from .bits import BitString, submasks, support_mask
from .characterize import prob_joint_zero, prob_zero
from .errors import MissingDataError, ValidationError
from .geometry import RegisterGeometry, all_neighborhoods, full_size
from .serialize import dump_json, load_json
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

    mean_fields: (i, b, filtered_index) -> P(qubit i reads b)
    pair_fluct:  (i, j, bi, bj, filtered_index) -> covariance, i < j
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
            "mean_fields": {
                f"{i}|{b}|{bstr(s)}": v
                for (i, b, s), v in sorted(self.mean_fields.items())
            },
            "pair_fluct": {
                f"{i},{j}|{bi} {bj}|{bstr(s)}": v
                for (i, j, bi, bj, s), v in sorted(self.pair_fluct.items())
            },
            "circuits_used": self.circuits_used,
            "metadata": self.metadata,
        }
        return dump_json(obj, path)

    @classmethod
    def from_json(cls, path) -> "CalibrationTables":
        obj = load_json(path)
        n = int(obj["n"])

        def bidx(s):
            return BitString.from_str(s).index

        tables = cls(
            n=n,
            k=int(obj["k"]),
            single_masks={int(i): bidx(m) for i, m in obj["single_masks"].items()},
            pair_masks={
                tuple(int(x) for x in key.split(",")): bidx(m)
                for key, m in obj["pair_masks"].items()
            },
            circuits_used=int(obj.get("circuits_used", 0)),
            metadata=obj.get("metadata", {}),
        )
        for key, v in obj["mean_fields"].items():
            i, b, s = key.split("|")
            tables.mean_fields[(int(i), int(b), bidx(s))] = float(v)
        for key, v in obj["pair_fluct"].items():
            ij, bb, s = key.split("|")
            i, j = (int(x) for x in ij.split(","))
            bi, bj = (int(x) for x in bb.split())
            tables.pair_fluct[(i, j, bi, bj, bidx(s))] = float(v)
        return tables


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


def _fill_means(tables: CalibrationTables, dists: dict):
    n = tables.n
    for i, mask in tables.single_masks.items():
        for s in submasks(mask):
            p0 = prob_zero(dists[s], i, n)
            tables.mean_fields[(i, 0, s)] = p0
            tables.mean_fields[(i, 1, s)] = 1.0 - p0


def _fill_pairs(tables: CalibrationTables, dists: dict):
    n = tables.n
    for (i, j), mask in tables.pair_masks.items():
        for s in submasks(mask):
            dist = dists[s]
            pi = prob_zero(dist, i, n)
            pj = prob_zero(dist, j, n)
            joint = prob_joint_zero(dist, i, j, n)
            # covariance of the four indicator combinations from the same
            # measured distribution
            tables.pair_fluct[(i, j, 0, 0, s)] = joint - pi * pj
            tables.pair_fluct[(i, j, 0, 1, s)] = (pi - joint) - pi * (1.0 - pj)
            tables.pair_fluct[(i, j, 1, 0, s)] = (pj - joint) - (1.0 - pi) * pj
            tables.pair_fluct[(i, j, 1, 1, s)] = (
                1.0 - pi - pj + joint
            ) - (1.0 - pi) * (1.0 - pj)


def measure_mean_fields(backend, geometry: RegisterGeometry, k: int) -> CalibrationTables:
    """Step 1: per-qubit filtered mean fields (pair table left empty)."""
    single, pair = _masks(geometry, k)
    tables = CalibrationTables(geometry.n, k, single, pair)
    preps = set()
    for mask in single.values():
        preps.update(submasks(mask))
    dists = _collect(backend, preps, geometry.n)
    _fill_means(tables, dists)
    tables.circuits_used = len(dists)
    tables.metadata = {"backend": backend.descriptor(), "step": "mean-fields"}
    return tables


def measure_pair_fluctuations(backend, geometry: RegisterGeometry, k: int) -> CalibrationTables:
    """Step 2: per-pair filtered covariances (mean table left empty)."""
    single, pair = _masks(geometry, k)
    tables = CalibrationTables(geometry.n, k, single, pair)
    preps = set()
    for mask in pair.values():
        preps.update(submasks(mask))
    dists = _collect(backend, preps, geometry.n)
    _fill_pairs(tables, dists)
    tables.circuits_used = len(dists)
    tables.metadata = {"backend": backend.descriptor(), "step": "pair-fluctuations"}
    return tables


def _gather(table: dict, qubits: tuple, mask: int, cols: np.ndarray, n: int):
    """table[qubits + outcome bits + (c & mask,)] for every column c, shaped
    (cols,) + (2,) * len(qubits): one lookup per filtered state."""
    states = np.array(submasks(mask))
    outcomes = list(itertools.product((0, 1), repeat=len(qubits)))
    try:
        vals = np.array(
            [[table[qubits + o + (s,)] for o in outcomes] for s in states.tolist()]
        )
    except KeyError as exc:
        who = f"qubit {qubits[0]}" if len(qubits) == 1 else f"qubits {qubits}"
        raise ValidationError(
            f"no table entry for {who}, filtered state "
            f"{BitString.from_index(exc.args[0][-1], n)}"
        ) from None
    vals = vals.reshape((len(states),) + (2,) * len(qubits))
    return vals[np.searchsorted(states, cols & mask)]


def _means(tables: CalibrationTables, cols: np.ndarray) -> np.ndarray:
    n = tables.n
    return np.stack(
        [
            _gather(tables.mean_fields, (i,), tables.single_masks[i], cols, n)
            for i in range(1, n + 1)
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
        ((i - 1, j - 1), _gather(tables.pair_fluct, (i, j), mask, cols, n))
        for (i, j), mask in sorted(tables.pair_masks.items())
    ]
    return TransitionMatrix(n, pair_column(_means(tables, cols), terms))


def estimate_transition_matrix(
    backend, geometry: RegisterGeometry, k: int
) -> tuple[TransitionMatrix, CalibrationTables]:
    """Run both measurement steps (sharing preparations) and assemble the
    estimated matrix as mean product plus pair correction."""
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
    _fill_means(tables, dists)
    _fill_pairs(tables, dists)
    tables.circuits_used = len(dists)
    bound1, bound2 = circuit_budget(n, k)
    tables.metadata = {
        "backend": backend.descriptor(),
        "step1_preparations": step1,
        "budget": {"step1": bound1, "step2": bound2},
    }
    t_mean = assemble_t_mean(tables)
    t_pair = assemble_t_pair(tables)
    t_est = TransitionMatrix(n, t_mean.data + t_pair.data)
    return t_est, tables


def choose_neighborhood_size(
    backend, geometry: RegisterGeometry, threshold: float = 1e-3
) -> int:
    """Smallest admissible k whose out-of-neighborhood shift correlators all
    fall below the threshold."""
    from .characterize import correlator_report

    report = correlator_report(backend)
    n = geometry.n
    kmax = full_size(geometry)
    k = 0
    while True:
        nbhds = all_neighborhoods(geometry, k)
        ok = True
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j or j in nbhds[i].members:
                    continue
                if abs(report.single_shift[i - 1, j - 1]) >= threshold:
                    ok = False
        for (i, j, l), v in report.joint_shift.items():
            if l in nbhds[i].members or l in nbhds[j].members:
                continue
            if abs(v) >= threshold:
                ok = False
        if ok or k >= kmax:
            return k
        k = _next_size(k, geometry.dimension)


def _next_size(k: int, dimension: int) -> int:
    l = 0
    while (2 * l + 1) ** dimension - 1 <= k:
        l += 1
    return (2 * l + 1) ** dimension - 1
