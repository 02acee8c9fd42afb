import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spamcal.backends import ExactBackend, SampledBackend
from spamcal.correct import (
    KKT_TOL_DEFAULT,
    _norm_bound_and_product,
    compare_matrices,
    correct_constrained,
    correct_direct_inverse,
    project_simplex,
)
from spamcal.errors import ConvergenceError, NumericalError, ValidationError
from spamcal.estimate import estimate_transition_matrix
from spamcal.model import melbourne_c4, melbourne_c8
from spamcal.norms import symmetric_single_qubit


def bisect_simplex_projection(v, tol=1e-13):
    """Reference projection via bisection on the shift parameter."""
    lo = np.min(v) - 1.0
    hi = np.max(v)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


@given(st.integers(0, 30), st.integers(2, 32))
def test_projection_matches_bisection_oracle(seed, size):
    v = np.random.default_rng(seed).normal(0, 2, size)
    got = project_simplex(v)
    ref = bisect_simplex_projection(v)
    assert np.max(np.abs(got - ref)) < 1e-9
    assert got.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.min(got) >= 0.0


def test_projection_fixed_point_and_equivariance():
    p = np.array([0.3, 0.5, 0.2])
    np.testing.assert_allclose(project_simplex(p), p, atol=1e-14)
    v = np.array([2.0, -1.0, 0.25, 0.5])
    perm = np.array([2, 0, 3, 1])
    np.testing.assert_allclose(
        project_simplex(v)[perm], project_simplex(v[perm]), atol=1e-14
    )


def test_round_trip_recovers_true_distribution():
    m = melbourne_c4()
    t = m.full_matrix()
    x = 0b0110
    p_true = np.zeros(16)
    p_true[x] = 1.0
    p_raw = ExactBackend(m).distribution(x)
    res = correct_constrained(t, p_raw)
    assert np.max(np.abs(res.p_corr - p_true)) < 1e-7
    assert res.residual < 1e-7
    assert res.method == "constrained_ls"


def test_constrained_output_is_a_distribution_under_noise():
    m = melbourne_c4()
    t = m.full_matrix()
    p_raw = SampledBackend(m, shots=4096, seed=5).distribution(0b1010)
    res = correct_constrained(t, p_raw)
    assert res.p_corr.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.min(res.p_corr) >= 0.0


def test_constrained_never_beaten_by_projected_inverse():
    # the constrained optimum has residual <= any simplex point, in
    # particular the projected direct inverse
    m = melbourne_c4()
    t = m.full_matrix()
    for seed in range(5):
        p_raw = SampledBackend(m, shots=2048, seed=seed).distribution(0b0011)
        res = correct_constrained(t, p_raw)
        proj = project_simplex(correct_direct_inverse(t, p_raw).p_corr)
        assert res.residual <= np.linalg.norm(t.data @ proj - p_raw) + 1e-9


def gram_svd_correct(t, p_raw, tol=KKT_TOL_DEFAULT, max_iter=10_000):
    """Reference solver: the projected-gradient loop on the Gram matrix,
    with the step bound 1/||T^T T||_2 from an SVD."""
    gram = t.T @ t
    tb = t.T @ p_raw
    x = project_simplex(p_raw.copy())
    g = 2.0 * (gram @ x - tb)
    step = lipschitz_step = 1.0 / max(np.linalg.norm(gram, 2), 1e-30)
    for it in range(1, max_iter + 1):
        if np.max(np.abs(x - project_simplex(x - g))) <= tol:
            return x, it - 1
        x_new = project_simplex(x - step * g)
        g_new = 2.0 * (gram @ x_new - tb)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-30 else lipschitz_step
        x, g = x_new, g_new
    raise AssertionError("reference solver did not converge")


def kkt_residual(t, p_raw, x):
    """Fixed-point residual of projected gradient, from the bisection projection."""
    g = 2.0 * (t.T @ t @ x - t.T @ p_raw)
    return np.max(np.abs(x - bisect_simplex_projection(x - g)))


@pytest.fixture(scope="module", params=["exact", "estimated-k2"])
def c8_matrix(request):
    m = melbourne_c8()
    if request.param == "exact":
        return m.full_matrix().data
    # shot noise leaves small negative entries, so |T| enters the step bound
    backend = SampledBackend(m, 32768, seed=1)
    t, _tables = estimate_transition_matrix(backend, m.geometry, 2)
    assert t.data.min() < 0
    return t.data


@pytest.mark.parametrize(
    "seed, prepared",
    [(0, 0b00000000), (1, 0b10110010), (2, 0b11111111), (3, 0b01010101)],
)
def test_matvec_solver_matches_gram_svd_reference(c8_matrix, seed, prepared):
    t = c8_matrix
    p_raw = SampledBackend(melbourne_c8(), shots=4096, seed=seed).distribution(prepared)
    ref, ref_iterations = gram_svd_correct(t, p_raw)
    res = correct_constrained(t, p_raw)
    assert res.p_corr.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.min(res.p_corr) >= 0.0
    assert kkt_residual(t, p_raw, res.p_corr) <= KKT_TOL_DEFAULT
    assert np.max(np.abs(res.p_corr - ref)) <= 1e-8
    assert res.iterations <= ref_iterations + 2


def test_iteration_cap_raises_with_best_iterate():
    t = melbourne_c4().full_matrix()
    p_raw = SampledBackend(melbourne_c4(), shots=2048, seed=3).distribution(0b0110)
    assert correct_constrained(t, p_raw).iterations > 1
    with pytest.raises(ConvergenceError) as exc:
        correct_constrained(t, p_raw, max_iter=1)
    best = exc.value.best
    assert best.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.min(best) >= 0.0
    assert exc.value.iterations == 1
    assert np.isfinite(exc.value.residual)


def test_direct_inverse_negative_mass():
    eps = 0.1
    t = symmetric_single_qubit(eps)
    res = correct_direct_inverse(t, np.array([1.0, 0.0]))
    np.testing.assert_allclose(res.p_corr, [1.125, -0.125], atol=1e-12)
    assert res.negative_mass_removed == pytest.approx(0.125)


def test_direct_inverse_refuses_singular():
    t = symmetric_single_qubit(0.5)  # rank one
    with pytest.raises(NumericalError) as exc:
        correct_direct_inverse(t, np.array([0.5, 0.5]))
    assert exc.value.rcond < 1e-12


def test_input_validation():
    t = np.eye(4)
    with pytest.raises(ValidationError, match="size"):
        correct_constrained(t, np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="sums"):
        correct_constrained(t, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValidationError, match="square"):
        correct_direct_inverse(np.ones((2, 3)), np.array([1.0, 0.0]))


def test_compare_matrices_report():
    ref = np.eye(2)
    cand = {"offset": np.eye(2) + 0.1, "same": np.eye(2)}
    rep = compare_matrices(cand, ref)
    by_name = {name: (d, m) for name, d, m in rep.rows}
    assert by_name["same"] == (0.0, 0.0)
    assert by_name["offset"][1] == pytest.approx(0.1)
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "candidate,scaled_frobenius,max"
    assert "offset" in rep.to_text()
    with pytest.raises(ValidationError, match="shape"):
        compare_matrices({"bad": np.eye(4)}, ref)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["matrix", "distribution"])
@pytest.mark.parametrize("solver", [correct_constrained, correct_direct_inverse])
def test_solvers_reject_non_finite_input(solver, where, value):
    m = melbourne_c4()
    t = m.full_matrix().data.copy()
    p_raw = ExactBackend(m).distribution(0b0110).copy()
    if where == "matrix":
        t[3, 5] = value
    else:
        p_raw[3] = value
    with pytest.raises(ValidationError, match="NaN or infinite entry"):
        solver(t, p_raw)


@settings(max_examples=60, deadline=None)
@given(
    side=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    low=st.integers(-300, 300),
    span=st.integers(0, 600),
)
@example(side=1, seed=0, low=0, span=0)
@example(side=63, seed=1, low=-300, span=600)
@example(side=64, seed=2, low=-1, span=2)
@example(side=65, seed=3, low=290, span=10)
@example(side=100, seed=4, low=-300, span=5)
@example(side=128, seed=5, low=-20, span=40)
@example(side=300, seed=6, low=-300, span=600)
def test_blocked_bound_is_bitwise_the_whole_matrix_formula(side, seed, low, span):
    rng = np.random.default_rng(seed)
    high = min(low + span, 300)
    magnitude = 10.0 ** rng.uniform(low, high, (side, side))
    t = np.where(rng.random((side, side)) < 0.3, -magnitude, magnitude)
    x = project_simplex(rng.normal(size=side))
    with np.errstate(over="ignore"):
        bound, tx = _norm_bound_and_product(t, x)
        expected = np.abs(t).sum(0).max() * np.abs(t).sum(1).max()
    assert bound == expected
    assert np.all(np.abs(tx - t @ x) <= 1e-15 * (np.abs(t) @ np.abs(x)))


def test_constrained_makes_no_dim_squared_temporary():
    # a product-noise T on 10 qubits: 1024 x 1024, 8 MiB of float64
    flip = np.array([[0.97, 0.05], [0.03, 0.95]])
    t = reduce(np.kron, [flip] * 10)
    p_raw = t[:, 0b1011001110].copy()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        res = correct_constrained(t, p_raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.p_corr[0b1011001110] == pytest.approx(1.0, abs=1e-6)
    assert peak - start < t.nbytes // 8


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", ["first", "last"])
@pytest.mark.parametrize("side", [128, 100], ids=["two-blocks", "partial-block"])
def test_constrained_rejects_non_finite_entry_in_any_row_block(side, row, value):
    t = np.full((side, side), 0.1 / side) + 0.9 * np.eye(side)
    t[0 if row == "first" else side - 1, side // 2] = value
    p_raw = np.full(side, 1.0 / side)
    with pytest.raises(ValidationError, match="NaN or infinite entry"):
        correct_constrained(t, p_raw)
