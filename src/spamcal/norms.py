"""Matrix error measures for multiqubit transition matrices.

Two norms are used throughout: a Frobenius norm scaled by sqrt(dim), which
makes errors comparable across register sizes, and the elementwise max norm,
which exposes the single largest error. :func:`check_column_stochastic` is
the one check that the columns of a matrix are probability distributions.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .bits import bitstring
from .errors import ValidationError


class MatrixNorm(enum.Enum):
    SCALED_FROBENIUS = "scaled-frobenius"
    MAX = "max"


def norm_distance(a, b, norm: MatrixNorm) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    if norm is MatrixNorm.SCALED_FROBENIUS:
        return float(np.linalg.norm(d, "fro") / math.sqrt(a.shape[0]))
    if norm is MatrixNorm.MAX:
        return float(np.max(np.abs(d)))
    raise ValidationError(f"unknown norm {norm!r}")


def asymptotic_frobenius_error(n: int, eps: float) -> tuple[float, float]:
    """Small-error limit of ||tau^(x n) - I|| for the symmetric 2x2 tau.

    Returns (frobenius, scaled) = (sqrt(n(n+1)) 2^(n/2) eps, sqrt(n(n+1)) eps).
    Valid for n > 1.
    """
    if n <= 1:
        raise ValidationError(f"closed form requires n > 1, got {n}")
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    root = math.sqrt(n * (n + 1))
    return root * 2.0 ** (n / 2.0) * eps, root * eps


def symmetric_single_qubit(eps: float) -> np.ndarray:
    """The symmetric 2x2 transition matrix with flip probability eps."""
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


def check_column_stochastic(t, tol: float = 1e-6, cols=None) -> np.ndarray:
    """t when no entry is below -tol and every column sums to 1 within tol;
    otherwise a ValidationError naming the first failure by its outcome and
    its prepared state, cols[c] for column c (c by default)."""
    t = np.asarray(t, dtype=float)
    cols = np.arange(t.shape[1]) if cols is None else np.asarray(cols)
    n = (t.shape[0] - 1).bit_length()  # outcome bits
    if t.size and not t.min() >= -tol:
        x, c = np.unravel_index(np.argmin(t), t.shape)
        raise ValidationError(
            f"negative probability p({bitstring(x, n)}|{bitstring(cols[c], n)}) = {t[x, c]}"
        )
    sums = t.sum(axis=0)
    bad = ~(np.abs(sums - 1.0) <= tol)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValidationError(f"column {bitstring(cols[c], n)} sums to {sums[c]}, expected 1")
    return t


def single_qubit_spam_error(t2) -> float:
    """Average of the two misassignment probabilities of a 2x2 matrix."""
    t2 = np.asarray(t2, dtype=float)
    if t2.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {t2.shape}")
    check_column_stochastic(t2)
    return float((t2[0, 1] + t2[1, 0]) / 2.0)
