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
the filtered version of the column's prepared state. The tables, their
lookup and their JSON form live in :mod:`spamcal.assembly`, beside
:func:`~spamcal.assembly.kron_columns`, the kernel both parts go through:
the read-0 probabilities give the product term and each pair's c is the
coefficient of a term on that pair. The noise model reaches its own columns
through the same tables and kernel. The kernel builds all n(n-1)/2 pair
terms in one sweep over the qubits. Each read-0 marginal of a (filtered
state, qubit) is summed once and shared by the qubit's mean field and every
pair table that reads it.
"""

from __future__ import annotations

import functools

import numpy as np

from .assembly import CalibrationTables, _read0, _terms, kron_columns
from .backends import collect
from .bits import submasks
from .characterize import correlator_report, prob_joint_zero, prob_zero
from .errors import ValidationError
from .geometry import RegisterGeometry, chebyshev_mask, check_register
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
