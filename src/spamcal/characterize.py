"""Register characterization from measured distributions.

This is the one module that reads backends (:mod:`spamcal.backends` holds
the sources only). :func:`collect` asks a backend for distinct increasing
prepared states a block at a time and yields each block as the backend
built it, one distribution per column; :func:`measure_full_matrix` copies
each block into its columns of T, and :func:`zero_marginals` lays each
block out as rows, once, since :func:`block_zero` sums rows. No other code
transposes a collected block.

Covers single-qubit transition matrices (uniform- and neighborhood-averaged
spectator families), the tensor-product approximation, the total SPAM
error of a measured matrix, and the three pairwise correlators: spectator
shift A[i, j], joint shift B[i, j, l] and readout covariance C[i, j](x').
Each measuring function reads its read-0 marginals from one
:func:`zero_marginals` call. A backend that answers marginal queries (an
exact backend of a model enumerated at construction, n <= 12) answers each
query in closed form from the model's tables, and no distribution is
drawn. Any other backend is read from one collection, which asks for each
distinct preparation once and sums each distinct (mask, preparation)
marginal once: :func:`single_qubit_matrices` measures every qubit's matrix
at once, and :func:`correlator_report` every correlator; read single
values from its ``single_shift``, ``joint_shift`` and ``covariance``
fields. The estimator reads its tables through the same call.
T_prod is assembled by :meth:`CalibrationTables.columns`, as every dense
T is.

Every marginal is one sum over the outcomes that a mask selects: the
outcomes x with ``x & mask == 0`` are those in which every qubit of the
mask reads 0 (:func:`prob_zero`, :func:`prob_joint_zero` for one
distribution; :func:`block_zero` for a block of them, one gather and one
row sum per mask, which gives bitwise the same sums). The averaged
family's spectators are the submasks of the qubit's
:func:`spamcal.geometry.chebyshev_mask` without the qubit itself.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .assembly import CalibrationTables, sweep_width
from .bits import bitstring, qubit_mask, submasks
from .errors import MissingDataError, ValidationError
from .geometry import RegisterGeometry, chebyshev_mask, check_register
from .model import ORACLE_LIMIT_DEFAULT
from .norms import MatrixNorm, norm_distance
from .serialize import dump_csv, dump_json
from .tmatrix import TransitionMatrix


@functools.lru_cache(maxsize=1024)
def _zero_outcomes(n: int, mask: int) -> np.ndarray:
    """Increasing indices of the outcomes in which every qubit of the mask
    reads 0; built once per (n, mask) and read-only, since every caller
    shares it."""
    index = np.flatnonzero((np.arange(1 << n) & mask) == 0)
    index.flags.writeable = False
    return index


def prob_zero(dist: np.ndarray, i: int, n: int) -> float:
    """P(qubit i reads 0) under an outcome distribution."""
    return float(dist[_zero_outcomes(n, qubit_mask(i, n))].sum())


def prob_joint_zero(dist: np.ndarray, i: int, j: int, n: int) -> float:
    """P(qubits i and j both read 0)."""
    return float(dist[_zero_outcomes(n, qubit_mask(i, n) | qubit_mask(j, n))].sum())


def block_zero(rows: np.ndarray, mask: int, n: int, sel: np.ndarray) -> np.ndarray:
    """P(every qubit of the mask reads 0) under each distribution of the
    rows ``sel`` (an index array) of a C-contiguous (states, 2^n) block of
    rows: one gather into a C-contiguous array and one sum along its rows,
    each bitwise the 1-D sum of :func:`prob_zero`. A row sum over
    ``rows[:, idx]``, which numpy lays out column by column, adds in
    another order. Reading every row costs less than indexing the selected
    ones while they are more than half of the block."""
    idx = _zero_outcomes(n, mask)
    if 2 * len(sel) > len(rows):
        return np.take(rows, idx, axis=1).sum(axis=1)[sel]
    return np.take(rows, (sel * rows.shape[1])[:, None] + idx).sum(axis=1)


def collect(backend, states):
    """Yield (start, chunk, block) for each run of ``sweep_width(n)``
    consecutive states of the given distinct prepared states, which come in
    increasing order: chunk is ``states[start:start + sweep_width(n)]`` and
    block the (2^n, len(chunk)) array of one ``backend.distributions``
    query, as the backend built it, one distribution per column. Nothing is
    sorted, deduplicated or transposed here. A block whose query raises
    MissingDataError yields nothing and is not asked again; after the last
    block one MissingDataError names every state the backend lacked."""
    width = sweep_width(backend.n)
    missing = []
    for start in range(0, len(states), width):
        chunk = states[start:start + width]
        try:
            block = backend.distributions(chunk)
        except MissingDataError as exc:
            missing.extend(exc.missing)
            continue
        yield start, chunk, block
    if missing:
        raise MissingDataError(missing, backend.n)


def zero_marginals(backend, queries) -> list[np.ndarray]:
    """For each (mask, states) query, P(every qubit of the mask reads 0) at
    each of its states, in the query's order; masks and states may repeat.

    A backend with a ``zero_marginal(mask, states)`` query answers each
    query from it (the exact backend up to n = 12, in closed form from the
    model's tables), and no collection is made. Otherwise one collection
    asks for each distinct state once, each block is laid out as rows once,
    and each distinct (mask, state) is summed once by :func:`block_zero`.
    The collection's blocks are consecutive runs of the sorted distinct
    states, so the rows a mask reads in a block are a slice of its array of
    needed states."""
    answer = getattr(backend, "zero_marginal", None)
    if answer is not None:
        return [answer(mask, states) for mask, states in queries]
    n = backend.n
    queries = [(mask, np.asarray(states, dtype=None if len(states) else int))
               for mask, states in queries]
    distinct = np.unique(np.concatenate([np.empty(0, int)] + [s for _, s in queries]))
    at = [np.searchsorted(distinct, s) for _, s in queries]
    need = {mask: np.zeros(distinct.size, bool) for mask, _ in queries}
    for (mask, _), pos in zip(queries, at):
        need[mask][pos] = True
    zero = {mask: np.empty(distinct.size) for mask in need}
    for start, states, block in collect(backend, distinct.tolist()):
        rows = np.ascontiguousarray(block.T)
        for mask, needed in need.items():
            sel = np.flatnonzero(needed[start:start + len(states)])
            if sel.size:
                zero[mask][start + sel] = block_zero(rows, mask, n, sel)
    return [zero[mask][pos] for (mask, _), pos in zip(queries, at)]


# -- single-qubit transition matrices --------------------------------------


@dataclass(frozen=True)
class Uniform:
    """All spectators prepared in the same value b."""

    b: int

    def __post_init__(self):
        if self.b not in (0, 1):
            raise ValidationError(f"uniform spectator value must be 0/1, got {self.b}")


@dataclass(frozen=True)
class Average:
    """Averaged over all preparations of the k nearest spectators."""

    k: int


def single_qubit_matrices(backend, family,
                          geometry: RegisterGeometry | None = None) -> np.ndarray:
    """The (n, 2, 2) transition matrices of qubits 1..n, from one collection.

    Uniform family: qubit i's spectators all prepared in b, so the n + 1
    distinct states are the all-b state and its n single flips. Average
    family: qubit i's marginal is averaged over every preparation of the
    other qubits of ``chebyshev_mask(geometry, i, k)``, far spectators
    prepared in 0; the geometry must have the backend's register size.
    Every distinct prepared state is asked for once, and each qubit's
    read-0 marginal at it is summed once (:func:`zero_marginals`).
    """
    n = backend.n
    flips = {i: qubit_mask(i, n) for i in range(1, n + 1)}
    if isinstance(family, Uniform):
        ones = (1 << n) - 1 if family.b else 0
        spectators = {i: [ones & ~q] for i, q in flips.items()}
    elif isinstance(family, Average):
        if geometry is None:
            raise ValidationError("the average family needs the register geometry")
        check_register(backend, geometry)
        spectators = {
            i: submasks(chebyshev_mask(geometry, i, family.k) & ~q) for i, q in flips.items()
        }
    else:
        raise ValidationError(f"unknown single-qubit family {family!r}")
    queries = [(flips[i], [s | bit for s in specs])
               for i, specs in spectators.items() for bit in (0, flips[i])]
    zero = iter(zero_marginals(backend, queries))
    mats = np.empty((n, 2, 2))
    for i, specs in spectators.items():
        for prep_bit in (0, 1):
            p0 = 0.0
            for v in next(zero).tolist():
                p0 += v
            p0 /= len(specs)
            mats[i - 1, :, prep_bit] = (p0, 1.0 - p0)
    return mats


def t_prod(matrices) -> TransitionMatrix:
    """Tensor product of the (n, 2, 2) single-qubit matrices of qubits
    1..n: the local form in which qubit i's read-0 row reads only its own
    prepared bit."""
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim != 3 or matrices.shape[1:] != (2, 2) or not len(matrices):
        raise ValidationError(
            f"need an (n, 2, 2) array of single-qubit matrices, got shape {matrices.shape}"
        )
    n = len(matrices)
    masks = {i: qubit_mask(i, n) for i in range(1, n + 1)}
    tables = CalibrationTables(n, None, masks, {}, {i: matrices[i - 1, 0] for i in masks}, {})
    return TransitionMatrix(n, tables.columns(np.arange(1 << n)))


def measure_full_matrix(backend, limit: int = ORACLE_LIMIT_DEFAULT) -> TransitionMatrix:
    """Exhaustively measure all 2^n columns from any backend, each block
    copied once into its columns of T."""
    n = backend.n
    if n > limit:
        raise ValidationError(
            f"full measurement of n={n} needs 2^n={1 << n} circuits; "
            f"the oracle limit is {limit}"
        )
    t = np.empty((1 << n, 1 << n))
    for start, states, block in collect(backend, range(1 << n)):
        t[:, start:start + len(states)] = block
    return TransitionMatrix(n, t)


def total_spam_error(t_meas: TransitionMatrix, norm: MatrixNorm) -> float:
    """Distance of a measured transition matrix from the identity."""
    return norm_distance(t_meas.data, np.eye(t_meas.dim), norm)


# -- correlators -----------------------------------------------------------


@dataclass(eq=False)
class CorrelatorReport:
    """All pairwise correlators of a register, plus the circuit count.

    single_shift[i-1, j-1]: drop of P(qubit i reads 0) when prepared
        spectator j is flipped, starting from the all-zeros preparation
    joint_shift[(i, j, l)]: drop of P(qubits i and j both read 0) when
        prepared spectator l is flipped, i < j, l not in {i, j}
    covariance[(i, j, xprime)]: covariance of the read-0 indicators of
        i < j at one prepared state (an index; a bitstring in the JSON)
    """

    n: int
    single_shift: np.ndarray  # n x n, diagonal zero
    joint_shift: dict  # (i, j, l) -> float
    covariance: dict  # (i, j, xprime) -> float
    circuits_used: int = 0

    def to_json(self, path=None) -> str:
        return dump_json(
            {
                "A": self.single_shift.tolist(),
                "B": [
                    {"i": i, "j": j, "l": l, "value": v}
                    for (i, j, l), v in sorted(self.joint_shift.items())
                ],
                "C": [
                    {"i": i, "j": j, "xprime": bitstring(x, self.n), "value": v}
                    for (i, j, x), v in sorted(self.covariance.items())
                ],
                "circuits_used": self.circuits_used,
            },
            path,
        )

    def single_shift_csv(self, path=None) -> str:
        """Heat-map-ready CSV of the spectator-shift matrix."""
        rows = [[i] + row for i, row in enumerate(self.single_shift.tolist(), 1)]
        return dump_csv([["i\\j"] + [str(j) for j in range(1, self.n + 1)]] + rows, path)


def correlator_report(backend, xprime: int = 0) -> CorrelatorReport:
    """Measure every pairwise correlator.

    The shift correlators share the n+1 preparations {0..0} plus the n
    single-flips; covariances are measured at one prepared state (all-zeros
    by default). Each distinct preparation is fetched once, and each of its
    n read-0 and n(n-1)/2 joint read-0 marginals is read once
    (:func:`zero_marginals`).
    """
    n = backend.n
    flip = {l: qubit_mask(l, n) for l in range(1, n + 1)}
    pairs = list(itertools.combinations(flip, 2))
    preps = [0, xprime, *flip.values()]
    read = zero_marginals(backend, [(flip[i], preps) for i in flip]
                          + [(flip[i] | flip[j], preps) for i, j in pairs])
    zero = {i: dict(zip(preps, v.tolist())) for i, v in zip(flip, read)}
    joint = {ij: dict(zip(preps, v.tolist())) for ij, v in zip(pairs, read[n:])}
    a = np.zeros((n, n))
    for i, l in itertools.permutations(flip, 2):
        a[i - 1, l - 1] = zero[i][0] - zero[i][flip[l]]
    b = {
        (i, j, l): v[0] - v[flip[l]]
        for (i, j), v in joint.items() for l in flip if l not in (i, j)
    }
    c = {(i, j, xprime): v[xprime] - zero[i][xprime] * zero[j][xprime]
         for (i, j), v in joint.items()}
    return CorrelatorReport(n, a, b, c, circuits_used=len(set(preps)))
