"""SPAM mitigation: apply a calibration matrix to measured distributions.

Two modes: constrained least squares over the probability simplex
(projected gradient with Barzilai-Borwein steps, sort-based projection),
and naive direct inversion, which is kept to demonstrate that it can
produce negative probabilities and fail on near-singular matrices.
The constrained solver touches T only through the products ``T @ x`` and
``T.T @ r``, and bounds its step by 1/(||T||_1 ||T||_inf). The bound and the
first product T x_0 come from one pass over T in row blocks, so a correction
makes no 2^n × 2^n temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import BLOCK
from .errors import ConvergenceError, NumericalError, ValidationError
from .norms import MatrixNorm, norm_distance
from .serialize import dump_csv
from .tmatrix import TransitionMatrix

RCOND_THRESHOLD = 1e-12
KKT_TOL_DEFAULT = 1e-9
MAX_ITER_DEFAULT = 100_000


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p : p >= 0, sum p = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass
class CorrectionResult:
    p_corr: np.ndarray
    residual: float
    method: str
    iterations: int = 0
    negative_mass_removed: float = 0.0


def _as_matrix(t) -> np.ndarray:
    if isinstance(t, TransitionMatrix):
        return t.data
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {t.shape}")
    return t


def _as_problem(t, p_raw) -> tuple[np.ndarray, np.ndarray]:
    """T as a square array and p_raw as a finite vector of matching size."""
    t = _as_matrix(t)
    p_raw = np.asarray(p_raw, dtype=float)
    if p_raw.shape != (t.shape[0],):
        raise ValidationError(
            f"distribution of size {p_raw.size} does not match matrix dim {t.shape[0]}"
        )
    if not np.isfinite(p_raw).all():
        raise ValidationError("input distribution has a NaN or infinite entry")
    return t, p_raw


def _norm_bound_and_product(t: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """||T||_1 ||T||_inf and T @ x from one pass over T in row blocks.

    |T| is formed BLOCK rows at a time in one reused buffer whose row 0
    carries the column sums so far. Reducing that buffer along axis 0 adds
    the rows in the order np.abs(t).sum(axis=0) does, so the bound is
    bitwise that of the whole-matrix formula. np.maximum keeps a NaN row
    sum, which Python's max could drop. Each block's product with x is taken
    while the block is still in cache.
    """
    dim = t.shape[0]
    buf = np.zeros((min(BLOCK, dim) + 1, dim))
    col_sums = np.empty(dim)
    row_max = np.float64(0.0)
    tx = np.empty(dim)
    for start in range(0, dim, BLOCK):
        blk = t[start : start + BLOCK]
        rows = blk.shape[0]
        abs_blk = buf[1 : rows + 1]
        np.abs(blk, out=abs_blk)
        row_max = np.maximum(row_max, abs_blk.sum(axis=1).max())
        np.add.reduce(buf[: rows + 1], axis=0, out=col_sums)
        buf[0] = col_sums
        np.matmul(blk, x, out=tx[start : start + rows])
    return float(col_sums.max() * row_max), tx


def correct_constrained(
    t,
    p_raw: np.ndarray,
    tol: float = KKT_TOL_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
) -> CorrectionResult:
    """Minimize ||T p - p_raw||^2 over the probability simplex.

    Each iteration takes the gradient 2 T^T (T x - p_raw) from two
    matrix-vector products; no Gram matrix is formed. The step is
    Barzilai-Borwein, falling back to 1/(||T||_1 ||T||_inf), the largest
    column sum of |T| times its largest row sum. That bound and the first
    product T x_0 come from one pass over T in row blocks, which makes no
    dim x dim temporary.

    Deterministic; converged when the projected-gradient fixed-point
    residual drops below tol. Raises ConvergenceError (carrying the best
    iterate) if the iteration cap is hit.
    """
    t, p_raw = _as_problem(t, p_raw)
    if abs(p_raw.sum() - 1.0) > 1e-6:
        raise ValidationError(f"input distribution sums to {p_raw.sum()}, expected 1")
    if not tol >= 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol}")

    x = project_simplex(p_raw.copy())
    # ||T^T T||_2 = ||T||_2^2 <= ||T||_1 ||T||_inf, so this step is never
    # larger than 1/||T^T T||_2
    bound, r = _norm_bound_and_product(t, x)
    # a NaN or infinite entry of T makes the bound NaN or infinite, so this
    # is the finiteness check on T without another pass over it
    if not np.isfinite(bound):
        raise ValidationError(
            f"matrix has a NaN or infinite entry, or its norm overflows ({bound})"
        )
    step = lipschitz_step = 1.0 / max(bound, 1e-30)
    r -= p_raw
    g = 2.0 * (t.T @ r)
    for it in range(1, max_iter + 1):
        kkt = np.max(np.abs(x - project_simplex(x - g)))
        if kkt <= tol:
            return CorrectionResult(
                p_corr=x,
                residual=float(np.linalg.norm(r)),
                method="constrained_ls",
                iterations=it - 1,
            )
        x_new = project_simplex(x - step * g)
        r = t @ x_new - p_raw
        g_new = 2.0 * (t.T @ r)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        # Barzilai-Borwein step; fall back to the Lipschitz step when the
        # curvature estimate degenerates
        step = float(s @ s) / sy if sy > 1e-30 else lipschitz_step
        x, g = x_new, g_new
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (KKT residual "
        f"{np.max(np.abs(x - project_simplex(x - g)))})",
        best=x,
        residual=float(np.linalg.norm(r)),
        iterations=max_iter,
    )


def correct_direct_inverse(t, p_raw: np.ndarray) -> CorrectionResult:
    """Apply the matrix inverse without constraints.

    Reports the total negative mass of the result; refuses near-singular
    matrices with a typed error carrying the reciprocal condition estimate.
    """
    t, p_raw = _as_problem(t, p_raw)
    if not np.isfinite(t).all():
        raise ValidationError("matrix has a NaN or infinite entry")
    sv = np.linalg.svd(t, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if rcond < RCOND_THRESHOLD:
        raise NumericalError(
            f"matrix is numerically singular (reciprocal condition {rcond:.3e})",
            rcond=rcond,
        )
    p = np.linalg.solve(t, p_raw)
    return CorrectionResult(
        p_corr=p,
        residual=float(np.linalg.norm(t @ p - p_raw)),
        method="direct_inverse",
        negative_mass_removed=float(-p[p < 0].sum()),
    )


# -- matrix comparison reports ---------------------------------------------


@dataclass
class ComparisonReport:
    reference: str
    rows: list  # (name, scaled_frobenius, max)

    def to_csv(self, path=None) -> str:
        rows = [[name, repr(d), repr(m)] for name, d, m in self.rows]
        return dump_csv([["candidate", "scaled_frobenius", "max"]] + rows, path)

    def to_text(self) -> str:
        width = max([len("candidate")] + [len(r[0]) for r in self.rows])
        lines = [
            f"{'candidate':<{width}}  scaled Frobenius  max norm",
            "-" * (width + 30),
        ]
        for name, d, m in self.rows:
            lines.append(f"{name:<{width}}  {d:<16.6g}  {m:.6g}")
        return "\n".join(lines) + "\n"


def compare_matrices(candidates: dict, reference) -> ComparisonReport:
    """Distance of each named candidate to the reference, in both norms."""
    ref = _as_matrix(reference)
    rows = []
    for name, cand in candidates.items():
        c = _as_matrix(cand)
        if c.shape != ref.shape:
            raise ValidationError(
                f"candidate {name!r} has shape {c.shape}, reference {ref.shape}"
            )
        rows.append(
            (
                name,
                norm_distance(c, ref, MatrixNorm.SCALED_FROBENIUS),
                norm_distance(c, ref, MatrixNorm.MAX),
            )
        )
    return ComparisonReport(reference="reference", rows=rows)
