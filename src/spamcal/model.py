"""Generative model of correlated readout noise, used as ground truth.

Each prepared register state x' produces an exact outcome distribution

    p(x|x') = prod_i m_i(x_i|x')
            + sum_{i<j} (-1)^(x_i+x_j) c_ij(x') prod_{l != i,j} m_l(x_l|x')
            + sum_{i<j<k} (-1)^(x_i+x_j+x_k) g_ijk prod_{l not in ijk} m_l(x_l|x')

where m_i(0|x') = base_i(0|x'_i) - sum_j shift[i][j] * x'_j is the
probability that qubit i reads 0, and c_ij(x') = cov[i][j](x'_i, x'_j)
+ sum_l spectator_cov[i][j][l] * x'_l is a signed pair covariance. The
signed pair and triple terms each sum to zero over outcomes, so every
column is automatically normalized. Each m_i(0|x') reads only the prepared
bits of qubit i and its shift sources, and each c_ij(x') only those of i, j
and their spectators, so the model is its own calibration tables
(:attr:`NoiseModel.tables`, a :class:`spamcal.assembly.CalibrationTables`
with one row per filtered state; each triple's rows are the constant
g_ijk), built and checked at construction: each entry's indices and
declared range, and each row within the bounds of a tables file, which it
meets as a marginal of its column. Columns come from those tables through
the lookup and the kernel the estimator assembles with, in one sweep over
the qubits, so a column costs O(n * 2^n) whatever the number of pairs.
:func:`spamcal.norms.check_column_stochastic` checks every batch of them:
all at construction when n <= ORACLE_LIMIT_DEFAULT, otherwise block by
block as a backend draws them.

The shift sign is chosen so that shift[i][j] equals the drop of qubit i's
P(read 0) when prepared spectator j is flipped to 1, i.e. exactly the
spectator-shift correlator measured by :mod:`spamcal.characterize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import BLOCK, CalibrationTables, check_table
from .bits import support_mask
from .errors import ValidationError
from .geometry import RegisterGeometry
from .norms import check_column_stochastic
from .serialize import array, as_object, dump_json, integer, load_json, number, qubits
from .tmatrix import TransitionMatrix

ORACLE_LIMIT_DEFAULT = 12


@dataclass
class NoiseModel:
    """Per-qubit readout matrices plus sparse correlated terms.

    shifts:         {(i, j): float}   spectator shift of qubit i from qubit j
    pair_cov:       {(i, j): 2x2 array over prepared bits (x'_i, x'_j)}
    spectator_cov:  {(i, j, l): float} linear spectator term of c_ij
    triples:        {(i, j, k): float} constant signed triple weight
    shift_range:    Chebyshev range bound declared for shifts
    cov_range:      Chebyshev range bound declared for spectator_cov
    tables:         the model in local form, built and checked at construction
    """

    geometry: RegisterGeometry
    base: np.ndarray
    shifts: dict = field(default_factory=dict)
    pair_cov: dict = field(default_factory=dict)
    spectator_cov: dict = field(default_factory=dict)
    triples: dict = field(default_factory=dict)
    shift_range: int = 0
    cov_range: int = 0

    def __post_init__(self):
        n = self.geometry.n
        self.base = np.asarray(self.base, dtype=float)
        if self.base.shape != (n, 2, 2):
            raise ValidationError(
                f"expected {n} single-qubit 2x2 matrices, got shape {self.base.shape}"
            )
        for i in range(n):
            check_column_stochastic(self.base[i], tol=1e-9)
        self.pair_cov = {
            k: np.asarray(v, dtype=float).reshape(2, 2)
            for k, v in self.pair_cov.items()
        }
        self.tables = self._tabulate()
        if n <= ORACLE_LIMIT_DEFAULT:
            cols = np.arange(1 << n)
            for start in range(0, cols.size, BLOCK):
                self._columns(cols[start:start + BLOCK])

    @property
    def n(self) -> int:
        return self.geometry.n

    def _tabulate(self) -> CalibrationTables:
        """The model in local form, each entry checked as it is read: its
        indices, then its range unless it is 0.0 and reads no bit, then the
        rows it fills. Qubit i's mask is i and its shift sources, a pair's is
        the pair and its spectators, and a triple's is its qubits."""
        n, geometry = self.n, self.geometry
        sources = {i: {i: 0.0} for i in range(1, n + 1)}  # shift of i by each source
        for (i, j), v in self.shifts.items():
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValidationError(f"bad shift index pair {(i, j)}")
            if v == 0.0:
                continue
            if geometry.chebyshev(i, j) > self.shift_range:
                raise ValidationError(
                    f"shift[{i},{j}]={v} exceeds declared range {self.shift_range}"
                )
            sources[i][j] = v
        spectators = {ij: {} for ij in self.pair_cov}
        for (i, j, l), v in self.spectator_cov.items():
            if not (1 <= i < j <= n) or l in (i, j) or not 1 <= l <= n:
                raise ValidationError(f"bad spectator_cov index {(i, j, l)}")
            if v == 0.0:
                continue
            if min(geometry.chebyshev(i, l), geometry.chebyshev(j, l)) > self.cov_range:
                raise ValidationError(
                    f"spectator_cov[{i},{j},{l}]={v} exceeds declared range {self.cov_range}"
                )
            spectators.setdefault((i, j), {})[l] = v
        what = "model gives negative probability: table entry"
        single, means = {}, {}
        for i, qs in sources.items():
            bits = _filtered_bits(qs, n)
            single[i] = support_mask(qs, n)
            shift = np.zeros(n)
            for j, v in qs.items():
                shift[j - 1] = v
            # summed over all n qubits, as for a whole prepared state: the
            # order of the sum fixes the last bits of T
            p0 = self.base[i - 1, 0, bits[:, i - 1]] - (bits * shift).sum(-1)
            means[i] = check_table(p0, (i,), single[i], n, 0, 1, what)
        masks, coefs = {}, {}
        for (i, j), spec in spectators.items():
            if not 1 <= i < j <= n:  # a spectator_cov key is checked above
                raise ValidationError(f"pair_cov keys need i < j, got {(i, j)}")
            qs = (i, j, *spec)
            bits = _filtered_bits(qs, n)
            c = np.zeros(len(bits))
            if (i, j) in self.pair_cov:
                c += self.pair_cov[(i, j)][bits[:, i - 1], bits[:, j - 1]]
            for l, v in spec.items():
                c += v * bits[:, l - 1]
            masks[(i, j)] = support_mask(qs, n)
            coefs[(i, j)] = check_table(c, (i, j), masks[(i, j)], n, -0.25, 0.25, what)
        for (i, j, k), g in self.triples.items():
            if not 1 <= i < j < k <= n:
                raise ValidationError(f"triple keys need i < j < k, got {(i, j, k)}")
            if not np.isfinite(g):
                raise ValidationError(f"triples[{i},{j},{k}] has a non-finite value {g}")
            masks[(i, j, k)], coefs[(i, j, k)] = support_mask((i, j, k), n), np.full(8, g)
        return CalibrationTables(n, None, single, masks, means, coefs)

    def _columns(self, cols) -> np.ndarray:
        """T[:, cols], each column checked to be a probability distribution."""
        return check_column_stochastic(self.tables.columns(cols), 1e-12, cols)

    def column(self, xprime: int) -> np.ndarray:
        """The exact outcome distribution for one prepared state."""
        return self._columns([xprime])[:, 0]

    def full_matrix(self, limit: int = ORACLE_LIMIT_DEFAULT) -> TransitionMatrix:
        """Exhaustive transition matrix over all 2^n prepared states."""
        if self.n > limit:
            raise ValidationError(
                f"full enumeration of n={self.n} needs O(4^n) work; "
                f"the oracle limit is {limit}"
            )
        return TransitionMatrix(self.n, self._columns(np.arange(1 << self.n)))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dimension": self.geometry.dimension,
            "positions": [list(p) for p in self.geometry.positions],
            "base": self.base.tolist(),
            "shifts": {f"{i},{j}": v for (i, j), v in sorted(self.shifts.items())},
            "shift_range": self.shift_range,
            "pair_cov": {
                f"{i},{j}": v.tolist() for (i, j), v in sorted(self.pair_cov.items())
            },
            "spectator_cov": {
                f"{i},{j},{l}": v
                for (i, j, l), v in sorted(self.spectator_cov.items())
            },
            "cov_range": self.cov_range,
            "triples": {
                f"{i},{j},{k}": v for (i, j, k), v in sorted(self.triples.items())
            },
        }

    def to_json(self, path=None) -> str:
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, obj) -> "NoiseModel":
        obj = as_object(obj, "model JSON", ("n", "dimension", "positions", "base"))
        n, dimension = integer(obj["n"], "n"), integer(obj["dimension"], "dimension")
        array(obj["positions"], "positions", (n, dimension))

        def values(name, parts, shape=None):
            return {
                qubits(s, parts, "model"): number(v, f"{name}[{s}]")
                if shape is None
                else array(v, f"{name}[{s}]", shape)
                for s, v in as_object(obj.get(name, {}), name).items()
            }

        return cls(
            geometry=RegisterGeometry(n, dimension, tuple(map(tuple, obj["positions"]))),
            base=array(obj["base"], "base"),
            shifts=values("shifts", 2),
            pair_cov=values("pair_cov", 2, (2, 2)),
            spectator_cov=values("spectator_cov", 3),
            triples=values("triples", 3),
            shift_range=integer(obj.get("shift_range", 0), "shift_range", 0),
            cov_range=integer(obj.get("cov_range", 0), "cov_range", 0),
        )

    @classmethod
    def from_json(cls, path) -> "NoiseModel":
        return cls.from_dict(load_json(path))


def _filtered_bits(qs, n: int) -> np.ndarray:
    """(rows, n) prepared bits of every filtered state of the qubits qs,
    in submasks order; 0 off qs."""
    qs = sorted(qs)
    bits = np.zeros((1 << len(qs), n), dtype=int)
    bits[:, [q - 1 for q in qs]] = np.indices((2,) * len(qs)).reshape(len(qs), -1).T
    return bits


# -- presets ---------------------------------------------------------------

_C4_BASE = [
    [[0.996, 0.099], [0.004, 0.901]],  # Q14
    [[0.940, 0.125], [0.060, 0.875]],  # Q13
    [[0.986, 0.051], [0.014, 0.949]],  # Q12
    [[0.999, 0.063], [0.001, 0.937]],  # Q11
]

_C8_BASE = [
    [[0.998, 0.097], [0.002, 0.903]],  # Q14
    [[0.940, 0.130], [0.060, 0.870]],  # Q13
    [[0.988, 0.054], [0.012, 0.946]],  # Q12
    [[0.999, 0.061], [0.001, 0.939]],  # Q11
    [[0.970, 0.060], [0.030, 0.940]],  # Q10
    [[0.987, 0.080], [0.013, 0.920]],  # Q9
    [[0.692, 0.329], [0.308, 0.671]],  # Q8
    [[0.997, 0.131], [0.003, 0.869]],  # Q7
]


def identity_model(n: int) -> NoiseModel:
    base = np.tile(np.eye(2), (n, 1, 1))
    return NoiseModel(RegisterGeometry.chain(n), base)


def melbourne_c4() -> NoiseModel:
    """4-qubit chain with measured single-qubit matrices, the large
    nonlocal spectator shift of the last qubit, and a small pair covariance."""
    cov = 2.0e-4 * np.ones((2, 2))
    return NoiseModel(
        RegisterGeometry.chain(4),
        np.asarray(_C4_BASE),
        shifts={(4, 1): 0.047},
        shift_range=3,
        pair_cov={(2, 3): cov},
    )


def melbourne_c4_product() -> NoiseModel:
    """The uncorrelated version of :func:`melbourne_c4`."""
    return NoiseModel(RegisterGeometry.chain(4), np.asarray(_C4_BASE))


def melbourne_c8() -> NoiseModel:
    cov = 1.9e-4 * np.ones((2, 2))
    return NoiseModel(
        RegisterGeometry.chain(8),
        np.asarray(_C8_BASE),
        shifts={(4, 1): 0.049},
        shift_range=3,
        pair_cov={(3, 5): cov},
    )


PRESETS = {
    "melbourne-c4": melbourne_c4,
    "melbourne-c4-product": melbourne_c4_product,
    "melbourne-c8": melbourne_c8,
}
