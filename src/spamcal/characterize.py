"""Register characterization from measured distributions.

Covers single-qubit transition matrices (uniform- and neighborhood-averaged
spectator families), the tensor-product approximation, the total SPAM error
of a measured matrix, and the three pairwise correlators: spectator shift
A[i, j], joint shift B[i, j, l] and readout covariance C[i, j](x'). T_prod
is assembled by :meth:`CalibrationTables.columns`, as every dense T is. The
correlators are measured only by :func:`correlator_report`, which shares
one set of preparations among all of them and reads each one's marginals
once; read single values from its ``single_shift``, ``joint_shift`` and
``covariance`` fields.

Every marginal is one sum over the outcomes that a mask selects: the
outcomes x with ``x & mask == 0`` are those in which every qubit of the
mask reads 0 (:func:`prob_zero`, :func:`prob_joint_zero`). The averaged
family's spectators are the submasks of the qubit's
:func:`spamcal.geometry.chebyshev_mask` without the qubit itself.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .assembly import CalibrationTables
from .backends import collect
from .bits import bitstring, qubit_mask, submasks
from .errors import ValidationError
from .geometry import RegisterGeometry, chebyshev_mask, check_register
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


# -- single-qubit transition matrices --------------------------------------


@dataclass(frozen=True)
class Uniform:
    """All spectators prepared in the same value b."""

    b: int

    def __post_init__(self):
        if self.b not in (0, 1):
            raise ValidationError(f"uniform spectator value must be 0/1, got {self.b}")

    def label(self) -> str:
        return f"uniform({self.b})"


@dataclass(frozen=True)
class Average:
    """Averaged over all preparations of the k nearest spectators."""

    k: int

    def label(self) -> str:
        return f"average(k={self.k})"


@dataclass
class SingleQubitT:
    qubit: int
    family: object
    matrix: np.ndarray


def measure_single_qubit_T(backend, i: int, family,
                           geometry: RegisterGeometry | None = None) -> SingleQubitT:
    """Measure the 2x2 transition matrix of qubit i.

    Uniform family: spectators all prepared in b; two circuits. Average
    family: the marginal is averaged over every preparation of the other
    qubits of ``chebyshev_mask(geometry, i, k)``, far spectators prepared
    in 0; the geometry must have the backend's register size.
    """
    n = backend.n
    qubit = qubit_mask(i, n)
    if isinstance(family, Uniform):
        spectators = [((1 << n) - 1 if family.b else 0) & ~qubit]
    elif isinstance(family, Average):
        if geometry is None:
            raise ValidationError("the average family needs the register geometry")
        check_register(backend, geometry)
        spectators = submasks(chebyshev_mask(geometry, i, family.k) & ~qubit)
    else:
        raise ValidationError(f"unknown single-qubit family {family!r}")
    dists = dict(collect(backend, [s | bit for bit in (0, qubit) for s in spectators]))
    mat = np.empty((2, 2))
    for prep_bit, bit in enumerate((0, qubit)):
        p0 = 0.0
        for s in spectators:
            p0 += prob_zero(dists[s | bit], i, n)
        p0 /= len(spectators)
        mat[:, prep_bit] = (p0, 1.0 - p0)
    return SingleQubitT(qubit=i, family=family, matrix=mat)


def t_prod(singles: list[SingleQubitT]) -> TransitionMatrix:
    """Tensor product of per-qubit matrices, in qubit order 1..n: the local
    form in which qubit i's read-0 row reads only its own prepared bit."""
    if not singles:
        raise ValidationError("need at least one single-qubit matrix")
    families = {s.family.label() for s in singles}
    if len(families) != 1:
        raise ValidationError(f"mixed single-qubit families: {sorted(families)}")
    n = len(singles)
    if [s.qubit for s in singles] != list(range(1, n + 1)):
        raise ValidationError("need one matrix per qubit, ordered 1..n")
    masks = {s.qubit: qubit_mask(s.qubit, n) for s in singles}
    tables = CalibrationTables(n, None, masks, {}, {s.qubit: s.matrix[0] for s in singles})
    return TransitionMatrix(n, tables.columns(np.arange(1 << n)))


def total_spam_error(t_meas: TransitionMatrix, norm: MatrixNorm) -> float:
    """Distance of a measured transition matrix from the identity."""
    return norm_distance(t_meas.data, np.eye(t_meas.dim), norm)


# -- correlators -----------------------------------------------------------


@dataclass
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


def _reads(dist: np.ndarray, n: int) -> tuple:
    """P(i reads 0) of every qubit and P(i, j read 00) of every pair i < j."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return (
        {i: prob_zero(dist, i, n) for i in range(1, n + 1)},
        {(i, j): prob_joint_zero(dist, i, j, n) for i, j in pairs},
    )


def correlator_report(backend, xprime: int = 0) -> CorrelatorReport:
    """Measure every pairwise correlator.

    The shift correlators share the n+1 preparations {0..0} plus the n
    single-flips; covariances are measured at one prepared state (all-zeros
    by default). Each distinct preparation is fetched and its marginals read once.
    """
    n = backend.n
    flip = {l: qubit_mask(l, n) for l in range(1, n + 1)}
    reads = {x: _reads(d, n) for x, d in collect(backend, [0, xprime, *flip.values()])}
    zero, joint = reads[0]
    a = np.zeros((n, n))
    for i, l in itertools.permutations(range(1, n + 1), 2):
        a[i - 1, l - 1] = zero[i] - reads[flip[l]][0][i]
    b = {
        (i, j, l): v - reads[flip[l]][1][i, j]
        for (i, j), v in joint.items() for l in flip if l not in (i, j)
    }
    zero, joint = reads[xprime]
    c = {(i, j, xprime): v - zero[i] * zero[j] for (i, j), v in joint.items()}
    return CorrelatorReport(n, a, b, c, circuits_used=len(reads))
