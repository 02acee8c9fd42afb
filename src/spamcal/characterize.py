"""Register characterization from measured distributions.

Covers single-qubit transition matrices (uniform- and neighborhood-averaged
spectator families), the tensor-product approximation, the total SPAM error
of a measured matrix, and the three pairwise correlators: spectator shift
A[i, j], joint shift B[i, j, l] and readout covariance C[i, j](x'). The
correlators are measured only by :func:`correlator_report`, which shares
one set of preparations among all of them; read single values from its
``single_shift``, ``joint_shift`` and ``covariance`` fields.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bits import BitString, check_width, qubit_mask, submasks, support_mask
from .errors import ValidationError
from .geometry import RegisterGeometry, moore_neighborhood
from .norms import MatrixNorm, norm_distance
from .serialize import dump_json
from .tmatrix import TransitionMatrix


def _outcome_bits(n: int, i: int) -> np.ndarray:
    """Bit of qubit i for every outcome index, as a 0/1 array."""
    return (np.arange(1 << n) >> (n - i)) & 1


def prob_zero(dist: np.ndarray, i: int, n: int) -> float:
    """P(qubit i reads 0) under an outcome distribution."""
    return float(dist[_outcome_bits(n, i) == 0].sum())


def prob_joint_zero(dist: np.ndarray, i: int, j: int, n: int) -> float:
    """P(qubits i and j both read 0)."""
    mask = (_outcome_bits(n, i) == 0) & (_outcome_bits(n, j) == 0)
    return float(dist[mask].sum())


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
    family: the marginal is averaged over every preparation of the (possibly
    boundary-truncated) neighborhood, far spectators prepared in 0.
    """
    n = backend.n
    mat = np.empty((2, 2))
    if isinstance(family, Uniform):
        background = (1 << n) - 1 if family.b else 0
        for prep_bit in (0, 1):
            idx = (background & ~qubit_mask(i, n)) | (
                qubit_mask(i, n) if prep_bit else 0
            )
            dist = backend.distribution(BitString.from_index(idx, n))
            p0 = prob_zero(dist, i, n)
            mat[:, prep_bit] = (p0, 1.0 - p0)
    elif isinstance(family, Average):
        if geometry is None:
            raise ValidationError("the average family needs the register geometry")
        nbhd = moore_neighborhood(geometry, i, family.k)
        spect_mask = support_mask(sorted(nbhd.members), n)
        preps = submasks(spect_mask)
        for prep_bit in (0, 1):
            bit = qubit_mask(i, n) if prep_bit else 0
            p0 = 0.0
            for s in preps:
                dist = backend.distribution(BitString.from_index(s | bit, n))
                p0 += prob_zero(dist, i, n)
            p0 /= len(preps)
            mat[:, prep_bit] = (p0, 1.0 - p0)
    else:
        raise ValidationError(f"unknown single-qubit family {family!r}")
    return SingleQubitT(qubit=i, family=family, matrix=mat)


def t_prod(singles: list[SingleQubitT]) -> TransitionMatrix:
    """Kronecker product of per-qubit matrices, in qubit order 1..n."""
    if not singles:
        raise ValidationError("need at least one single-qubit matrix")
    families = {s.family.label() for s in singles}
    if len(families) != 1:
        raise ValidationError(f"mixed single-qubit families: {sorted(families)}")
    if [s.qubit for s in singles] != list(range(1, len(singles) + 1)):
        raise ValidationError("need one matrix per qubit, ordered 1..n")
    t = np.ones((1, 1))
    for s in singles:
        t = np.kron(t, s.matrix)
    return TransitionMatrix(len(singles), t)


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
    covariance[(i, j, str(xprime))]: covariance of the read-0 indicators of
        i < j at one prepared state
    """

    n: int
    single_shift: np.ndarray  # n x n, diagonal zero
    joint_shift: dict  # (i, j, l) -> float
    covariance: dict  # (i, j, str(xprime)) -> float
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
                    {"i": i, "j": j, "xprime": s, "value": v}
                    for (i, j, s), v in sorted(self.covariance.items())
                ],
                "circuits_used": self.circuits_used,
            },
            path,
        )

    def single_shift_csv(self, path=None) -> str:
        """Heat-map-ready CSV of the spectator-shift matrix."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["i\\j"] + [str(j) for j in range(1, self.n + 1)])
        for i in range(1, self.n + 1):
            writer.writerow([str(i)] + [repr(v) for v in self.single_shift[i - 1]])
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text


def correlator_report(backend, xprime: BitString | None = None) -> CorrelatorReport:
    """Measure every pairwise correlator.

    The shift correlators share the n+1 preparations {0..0} plus the n
    single-flips; covariances are measured at one prepared state (all-zeros
    by default). Distributions are fetched once per distinct preparation.
    """
    n = backend.n
    if xprime is None:
        xprime = BitString.from_index(0, n)
    check_width(xprime, n)
    preps = {0} | {qubit_mask(j, n) for j in range(1, n + 1)} | {xprime.index}
    dists = {
        idx: backend.distribution(BitString.from_index(idx, n)) for idx in sorted(preps)
    }
    base = dists[0]
    a = np.zeros((n, n))
    b = {}
    for i in range(1, n + 1):
        p0_base = prob_zero(base, i, n)
        for j in range(1, n + 1):
            if i == j:
                continue
            a[i - 1, j - 1] = p0_base - prob_zero(dists[qubit_mask(j, n)], i, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            joint_base = prob_joint_zero(base, i, j, n)
            for l in range(1, n + 1):
                if l in (i, j):
                    continue
                b[(i, j, l)] = joint_base - prob_joint_zero(
                    dists[qubit_mask(l, n)], i, j, n
                )
    c = {}
    dist_x = dists[xprime.index]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c[(i, j, str(xprime))] = prob_joint_zero(dist_x, i, j, n) - prob_zero(
                dist_x, i, n
            ) * prob_zero(dist_x, j, n)
    return CorrelatorReport(
        n=n,
        single_shift=a,
        joint_shift=b,
        covariance=c,
        circuits_used=len(dists),
    )
