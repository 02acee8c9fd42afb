import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spamcal.errors import ValidationError
from spamcal.norms import (
    MatrixNorm,
    asymptotic_frobenius_error,
    check_column_stochastic,
    norm_distance,
    single_qubit_spam_error,
    symmetric_single_qubit,
)


def kron_power(m, n):
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, m)
    return out


def test_scaled_frobenius_example():
    a = np.array([[0.0, 0.1], [0.1, 0.0]])
    assert norm_distance(a, np.zeros((2, 2)), MatrixNorm.SCALED_FROBENIUS) == pytest.approx(0.1)


def test_identity_case():
    a = np.random.default_rng(0).random((4, 4))
    assert norm_distance(a, a, MatrixNorm.SCALED_FROBENIUS) == 0.0
    assert norm_distance(a, a, MatrixNorm.MAX) == 0.0


def test_dimension_mismatch():
    with pytest.raises(ValidationError):
        norm_distance(np.eye(2), np.eye(4), MatrixNorm.MAX)


def test_closed_form_vs_numeric_small_eps():
    eps, n = 1e-6, 4
    t = kron_power(symmetric_single_qubit(eps), n)
    frob = np.linalg.norm(t - np.eye(1 << n), "fro")
    expected, _ = asymptotic_frobenius_error(n, eps)
    assert frob == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_closed_form_tolerance_band(eps, n):
    # the finite-eps correction is O(eps), so 100*eps relative slack
    t = kron_power(symmetric_single_qubit(eps), n)
    frob = np.linalg.norm(t - np.eye(1 << n), "fro")
    expected, scaled = asymptotic_frobenius_error(n, eps)
    assert abs(frob - expected) / expected < 100 * eps
    assert scaled == pytest.approx(expected / 2 ** (n / 2))


def test_scaled_ratio_trends_to_linear():
    # sqrt(n(n+1))/n -> 1
    ratios = []
    for n in (2, 4, 8):
        _, scaled = asymptotic_frobenius_error(n, 1e-6)
        ratios.append(scaled / (n * 1e-6))
    assert ratios == pytest.approx([1.2247, 1.1180, 1.0607], abs=1e-4)


def test_closed_form_domain():
    with pytest.raises(ValidationError):
        asymptotic_frobenius_error(1, 1e-6)
    assert asymptotic_frobenius_error(4, 0.0) == (0.0, 0.0)


def test_spam_error_examples():
    assert single_qubit_spam_error(np.eye(2)) == 0.0
    q14 = [[0.996, 0.099], [0.004, 0.901]]
    assert single_qubit_spam_error(q14) == pytest.approx(0.0515)
    q8 = [[0.692, 0.329], [0.308, 0.671]]
    assert single_qubit_spam_error(q8) == pytest.approx(0.3185)


def test_spam_error_rejects_nonstochastic():
    with pytest.raises(ValidationError):
        single_qubit_spam_error([[0.9, 0.1], [0.2, 0.9]])


@given(st.integers(1, 4), st.integers(0, 3))
def test_norm_symmetry_and_positivity(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((1 << n, 1 << n))
    b = rng.random((1 << n, 1 << n))
    for norm in MatrixNorm:
        d_ab = norm_distance(a, b, norm)
        assert d_ab == norm_distance(b, a, norm)
        assert d_ab >= 0.0
        if not np.array_equal(a, b):
            assert d_ab > 0.0


@pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
def test_column_stochastic_rejects_nan(entry):
    t = symmetric_single_qubit(0.1)
    t[entry] = np.nan
    with pytest.raises(ValidationError):
        check_column_stochastic(t)


@pytest.mark.parametrize(
    "entry, value, cols, error",
    [
        ((1, 0), -0.2, None, r"negative probability p\(1\|0\) = -0.1"),
        ((0, 1), 0.1, None, r"column 1 sums to 1.1"),
        ((2, 1), -0.2, [4, 6], r"negative probability p\(010\|110\) = -0.075"),
        ((5, 0), 1e-3, [4, 6], r"column 100 sums to 1.001"),
    ],
)
def test_column_stochastic_names_the_first_failure(entry, value, cols, error):
    # a whole matrix, or a block of columns of an 8 x 8 one
    t = symmetric_single_qubit(0.1) if cols is None else np.full((8, 2), 0.125)
    t[entry] += value
    with pytest.raises(ValidationError, match=error):
        check_column_stochastic(t, 1e-12, cols)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: norm_distance(np.eye(2), np.eye(2), "max"), "unknown norm 'max'"),
        (lambda: asymptotic_frobenius_error(2, -0.1), "eps must be nonnegative"),
        (lambda: single_qubit_spam_error(np.eye(3)), "expected a 2x2 matrix, got shape (3, 3)"),
    ],
    ids=["unknown-norm", "negative-eps", "not-2x2"],
)
def test_an_invalid_argument_raises_its_message(make, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()
