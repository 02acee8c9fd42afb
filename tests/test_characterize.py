import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spamcal.backends import ExactBackend
from spamcal.characterize import (
    Average,
    Uniform,
    correlator_report,
    measure_single_qubit_T,
    prob_joint_zero,
    prob_zero,
    t_prod,
    total_spam_error,
)
from spamcal.errors import ValidationError
from spamcal.geometry import RegisterGeometry
from spamcal.norms import MatrixNorm
from spamcal.model import melbourne_c4, melbourne_c4_product

C4 = melbourne_c4()


def backend():
    return ExactBackend(C4)


def test_prob_zero_helpers():
    # outcome distribution concentrated on 10
    dist = np.array([0.0, 0.0, 1.0, 0.0])
    assert prob_zero(dist, 1, 2) == 0.0
    assert prob_zero(dist, 2, 2) == 1.0
    assert prob_joint_zero(dist, 1, 2, 2) == 0.0
    uniform = np.full(4, 0.25)
    assert prob_joint_zero(uniform, 1, 2, 2) == pytest.approx(0.25)


def reading_zero(n: int, *qubits) -> np.ndarray:
    """Outcomes in which every listed qubit reads 0, picked by the
    characters of their bitstrings."""
    return np.array(
        [x for x in range(1 << n) if all(format(x, f"0{n}b")[q - 1] == "0" for q in qubits)]
    )


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_marginals_are_sums_over_bitstring_selected_outcomes(n, seed, data):
    dist = np.random.default_rng(seed).dirichlet(np.ones(1 << n))
    i = data.draw(st.integers(1, n))
    assert prob_zero(dist, i, n) == dist[reading_zero(n, i)].sum()
    if n >= 2:
        j = data.draw(st.integers(1, n).filter(lambda v: v != i))
        assert prob_joint_zero(dist, i, j, n) == dist[reading_zero(n, i, j)].sum()


def test_uniform0_matches_base_matrices():
    b = backend()
    for i in range(1, 5):
        got = measure_single_qubit_T(b, i, Uniform(0)).matrix
        expected = C4.base[i - 1].copy()
        if i == 4:
            # qubit 1 stays 0 in this family, so no shift applies
            pass
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_uniform1_picks_up_spectator_shift():
    b = backend()
    got = measure_single_qubit_T(b, 4, Uniform(1)).matrix
    expected = C4.base[3].copy()
    expected[0] -= 0.047
    expected[1] += 0.047
    np.testing.assert_allclose(got, expected, atol=1e-14)
    # the row-0 difference between the two uniform families is the shift sum
    u0 = measure_single_qubit_T(b, 4, Uniform(0)).matrix
    np.testing.assert_allclose(u0[0] - got[0], 0.047, atol=1e-14)


def test_average_family_halves_the_shift():
    # averaging over all spectator preparations sees qubit 1 up half the time
    b = backend()
    got = measure_single_qubit_T(b, 4, Average(6), geometry=C4.geometry).matrix
    expected = C4.base[3].copy()
    expected[0] -= 0.047 / 2
    expected[1] += 0.047 / 2
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_average_k0_equals_uniform0():
    b = backend()
    a = measure_single_qubit_T(b, 2, Average(0), geometry=C4.geometry).matrix
    u = measure_single_qubit_T(b, 2, Uniform(0)).matrix
    np.testing.assert_allclose(a, u, atol=1e-14)


def test_average_needs_geometry():
    with pytest.raises(ValidationError, match="geometry"):
        measure_single_qubit_T(backend(), 2, Average(0))


@pytest.mark.parametrize("size", [3, 6])
def test_average_rejects_geometry_of_another_size(size):
    with pytest.raises(ValidationError, match=f"geometry has {size} qubits, backend has 4"):
        measure_single_qubit_T(backend(), 2, Average(2), RegisterGeometry.chain(size))


def test_tprod_of_product_model_is_exact():
    m = melbourne_c4_product()
    b = ExactBackend(m)
    singles = [measure_single_qubit_T(b, i, Uniform(0)) for i in range(1, 5)]
    t = t_prod(singles)
    np.testing.assert_allclose(t.data, m.full_matrix().data, atol=1e-13)


def test_tprod_rejects_mixed_or_misordered():
    b = backend()
    s1 = measure_single_qubit_T(b, 1, Uniform(0))
    s2u1 = measure_single_qubit_T(b, 2, Uniform(1))
    with pytest.raises(ValidationError, match="famil"):
        t_prod([s1, s2u1])
    s2 = measure_single_qubit_T(b, 2, Uniform(0))
    with pytest.raises(ValidationError, match="ordered"):
        t_prod([s2, s1])


def test_total_spam_error_identity_zero():
    from spamcal.tmatrix import TransitionMatrix

    t = TransitionMatrix.identity(3)
    assert total_spam_error(t, MatrixNorm.SCALED_FROBENIUS) == 0.0
    assert total_spam_error(t, MatrixNorm.MAX) == 0.0


def test_single_shift_matches_model_shift():
    a = correlator_report(backend()).single_shift
    assert a[3, 0] == pytest.approx(0.047, abs=1e-14)
    # no shift in the model for this direction
    assert a[0, 3] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diag(a) == 0.0)


def test_joint_shift_factorizes():
    # flipping l only moves qubit i's mean, so the joint drop is the
    # single-qubit drop times the partner's read-0 probability
    m2_zero = C4.base[1][0, 0]
    b = correlator_report(backend()).joint_shift
    assert b[(2, 4, 1)] == pytest.approx(0.047 * m2_zero, abs=1e-12)
    # one entry per pair i < j and spectator l outside it
    assert set(b) == {
        (i, j, l)
        for i in range(1, 5)
        for j in range(i + 1, 5)
        for l in range(1, 5)
        if l not in (i, j)
    }


def test_readout_covariance_matches_model():
    c = correlator_report(backend(), 0b0000).covariance
    assert c[(2, 3, 0b0000)] == pytest.approx(2.0e-4, abs=1e-13)
    assert c[(1, 4, 0b0000)] == pytest.approx(0.0, abs=1e-12)
    # one entry per pair, stored once with i < j
    assert set(c) == {(i, j, 0b0000) for i in range(1, 5) for j in range(i + 1, 5)}


# an index past the register or a negative one; the ids name each case
# by a bitstring of the wrong width
@pytest.mark.parametrize("xprime", [-1, 1 << 4], ids=["01", "00000"])
def test_correlator_report_rejects_state_of_wrong_width(xprime):
    with pytest.raises(ValidationError, match="has 4"):
        correlator_report(backend(), xprime)


def test_correlator_report_values_and_budget():
    b = backend()
    rep = correlator_report(b)
    assert rep.circuits_used == 5  # all-zeros plus the four single flips
    assert rep.single_shift[3, 0] == pytest.approx(0.047, abs=1e-14)
    mask = np.ones((4, 4), dtype=bool)
    mask[3, 0] = False
    assert np.max(np.abs(rep.single_shift[mask])) < 1e-12
    assert rep.joint_shift[(2, 4, 1)] == pytest.approx(
        0.047 * C4.base[1][0, 0], abs=1e-12
    )
    assert rep.covariance[(2, 3, 0b0000)] == pytest.approx(2.0e-4, abs=1e-13)


def test_correlator_report_custom_prep_adds_circuit():
    rep = correlator_report(backend(), 0b1111)
    assert rep.circuits_used == 6
    assert rep.covariance[(2, 3, 0b1111)] == pytest.approx(2.0e-4, abs=1e-13)


def test_report_serialization(tmp_path):
    rep = correlator_report(backend())
    obj = json.loads(rep.to_json())
    assert set(obj) == {"A", "B", "C", "circuits_used"}
    assert obj["A"][3][0] == pytest.approx(0.047)
    csv_text = rep.single_shift_csv(tmp_path / "a.csv")
    lines = csv_text.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("i\\j")
