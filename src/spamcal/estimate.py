"""Scalable transition-matrix estimation from filtered calibration data.

The protocol measures, per qubit, P(i reads 0) at every preparation
supported on the qubit's mask (the qubit and its neighborhood,
:func:`spamcal.geometry.chebyshev_mask`; far spectators 0), and, per pair,
c = P(i, j read 00) - P(i reads 0) P(j reads 0) at every preparation
supported on the union of the two masks; the other three indicator
covariances are -c, -c and +c. Identical prepared states are measured once
and shared; :func:`estimate_transition_matrix` is the one entry point that
measures, and it reads every marginal of both steps from one
:func:`spamcal.characterize.zero_marginals` call, so a replay dataset that
lacks any preparation fails once, naming every missing state. On an exact
backend up to n = 12 that call reads the model's tables in closed form, so
each mean field is the model's own P(reads 0) at the filtered state, a
pair the model lacks reads exactly 0, and no column is drawn. It checks
``k`` against :func:`circuit_budget` before it builds any mask. ``_fill``
turns those marginals into finished mean-field and pair tables, and the
:class:`CalibrationTables` are built from them whole, read-only from then
on.

The full matrix is then assembled classically, in one call that the noise
model also makes for its own columns: :meth:`CalibrationTables.columns`,
one pass of :func:`~spamcal.assembly.kron_columns` over every column. The
tables, their lookup and their JSON form live in :mod:`spamcal.assembly`.
The read-0 probabilities, looked up at the filtered version of the
column's prepared state, give the product of means, and each pair's c is
the coefficient of a signed term on that pair. :func:`assemble_t_mean` and
:func:`assemble_t_pair` split the same matrix into the product of means
and the additive pair correction, whose columns sum to 0; their sum is the
estimate up to rounding.
"""

from __future__ import annotations

import numpy as np

from .assembly import CalibrationTables, _read0, _states, _terms, kron_columns
from .bits import qubit_mask, submasks
from .characterize import correlator_report, zero_marginals
# the one-state marginals, importable here under the names a profile wraps;
# the estimator reads its marginals through zero_marginals
from .characterize import prob_joint_zero, prob_zero  # noqa: F401
from .errors import ValidationError
from .geometry import RegisterGeometry, chebyshev_mask, check_register
from .tmatrix import TransitionMatrix

# The kernel calls of the T_mean / T_pair decomposition, under their own
# names so that a profile can tell kernel time from table lookups.
mean_column = pair_column = kron_columns


def circuit_budget(n: int, k: int) -> tuple[int, int]:
    """Upper bounds on distinct circuits for the two measurement steps.

    k is admissible only while the second bound 2n^2 4^k = n^2 2^(2k+1)
    stays below 2^63, which is checked from bit lengths before the bound is
    built: k <= 28 at n = 4 and k <= 24 at n = 100."""
    if n < 1:
        raise ValidationError(f"register size must be positive, got {n}")
    if k < 0:
        raise ValidationError(f"neighborhood size must be nonnegative, got {k}")
    if (n * n).bit_length() + 2 * k + 1 > 63:
        most = (62 - (n * n).bit_length()) // 2
        raise ValidationError(
            f"neighborhood size k is too large for n={n}: the budget 2n^2 4^k must "
            f"stay below 2^63, " + (f"so k <= {most}" if most >= 0 else "which no k allows")
        )
    return 2 * n * 2**k, 2 * n**2 * 4**k


def _preps(masks) -> set:
    """Every filtered state of every mask."""
    return {s for mask in masks.values() for s in submasks(mask)}


def assemble_t_mean(tables: CalibrationTables) -> TransitionMatrix:
    """Product-of-means matrix from the filtered mean fields."""
    cols = np.arange(1 << tables.n)
    t = mean_column(_read0(tables, cols), [((), np.ones(cols.size))])
    return TransitionMatrix(tables.n, t)


def assemble_t_pair(tables: CalibrationTables) -> TransitionMatrix:
    """Additive pairwise-covariance correction; columns sum to ~0."""
    cols = np.arange(1 << tables.n)
    t = pair_column(_read0(tables, cols), _terms(tables, cols))
    return TransitionMatrix(tables.n, t)


def _fill(backend, single: dict, pair: dict) -> tuple[dict, dict]:
    """The mean-field and pair tables of these masks, from one
    :func:`zero_marginals` call: each table reads its qubits' read-0
    marginals at its mask's filtered states, and a pair table also reads
    the joint one."""
    n = backend.n
    flips = {i: qubit_mask(i, n) for i in single}
    queries = [(flips[i], _states(m)) for i, m in single.items()]
    for (i, j), m in pair.items():
        queries += [(q, _states(m)) for q in (flips[i], flips[j], flips[i] | flips[j])]
    zero = iter(zero_marginals(backend, queries))
    mean_fields = {i: next(zero) for i in single}
    pair_fluct = {}
    for ij in pair:
        pi, pj, joint = next(zero), next(zero), next(zero)
        pair_fluct[ij] = joint - pi * pj
    return mean_fields, pair_fluct


def estimate_transition_matrix(
    backend, geometry: RegisterGeometry, k: int
) -> tuple[TransitionMatrix, CalibrationTables]:
    """Run both measurement steps (sharing preparations), build the tables
    from them whole and assemble the estimated matrix from the tables in one
    kernel call."""
    check_register(backend, geometry)
    n = geometry.n
    bound1, bound2 = circuit_budget(n, k)
    single = {i: chebyshev_mask(geometry, i, k) for i in range(1, n + 1)}
    pair = {
        (i, j): single[i] | single[j]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    step1 = _preps(single)
    tables = CalibrationTables(
        n, k, single, pair, *_fill(backend, single, pair),
        circuits_used=len(step1 | _preps(pair)),
        metadata={
            "backend": backend.descriptor(),
            "step1_preparations": len(step1),
            "budget": {"step1": bound1, "step2": bound2},
        },
    )
    return TransitionMatrix(n, tables.columns(np.arange(1 << n))), tables


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
