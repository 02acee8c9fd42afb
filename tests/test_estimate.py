import numpy as np
import pytest

from spamcal.backends import ExactBackend
from spamcal.bits import BitString
from spamcal.characterize import Uniform, measure_single_qubit_T, t_prod
from spamcal.errors import ValidationError
from spamcal.estimate import (
    CalibrationTables,
    assemble_t_mean,
    assemble_t_pair,
    choose_neighborhood_size,
    circuit_budget,
    estimate_transition_matrix,
    measure_mean_fields,
)
from spamcal.geometry import RegisterGeometry
from spamcal.model import NoiseModel, melbourne_c4, melbourne_c4_product
from spamcal.norms import symmetric_single_qubit


def correlated_chain6():
    g = RegisterGeometry.chain(6)
    eps = [0.03, 0.05, 0.04, 0.06, 0.02, 0.05]
    base = np.array([symmetric_single_qubit(e) for e in eps])
    shifts = {(i, i + 1): 0.005 for i in range(1, 6)}
    shifts.update({(i + 1, i): 0.004 for i in range(1, 6)})
    cov = {(i, i + 1): 2e-4 * np.ones((2, 2)) for i in range(1, 6)}
    spect = {(1, 2, 3): 5e-5}
    return NoiseModel(
        g, base, shifts=shifts, shift_range=1, pair_cov=cov,
        spectator_cov=spect, cov_range=1,
    )


def test_circuit_budget_values():
    assert circuit_budget(4, 0) == (8, 32)
    assert circuit_budget(8, 6) == (1024, 524288)
    with pytest.raises(ValidationError):
        circuit_budget(0, 2)
    with pytest.raises(ValidationError):
        circuit_budget(4, -1)


def test_mean_field_preparations_k0():
    # with empty neighborhoods only the all-zeros and single-flip states occur
    m = melbourne_c4()
    tables = measure_mean_fields(ExactBackend(m), m.geometry, 0)
    assert tables.circuits_used == 5
    states = {s for (_i, _b, s) in tables.mean_fields}
    assert states == {0b0000, 0b1000, 0b0100, 0b0010, 0b0001}


def test_t_mean_equals_product_model():
    m = melbourne_c4_product()
    tables = measure_mean_fields(ExactBackend(m), m.geometry, 0)
    t_mean = assemble_t_mean(tables)
    np.testing.assert_allclose(t_mean.data, m.full_matrix().data, atol=1e-13)
    np.testing.assert_allclose(t_mean.data.sum(axis=0), 1.0, atol=1e-12)


def test_t_pair_two_qubit_closed_form():
    g = RegisterGeometry.chain(2)
    base = np.array([symmetric_single_qubit(0.05)] * 2)
    cov = np.array([[2e-4, 1e-4], [1.5e-4, 0.5e-4]])
    m = NoiseModel(g, base, pair_cov={(1, 2): cov}, cov_range=1)
    _t_est, tables = estimate_transition_matrix(ExactBackend(m), g, 2)
    t_pair = assemble_t_pair(tables).data
    for c in range(4):
        xp = BitString.from_index(c, 2)
        cval = cov[xp.bit(1), xp.bit(2)]
        for x in range(4):
            sign = (-1.0) ** (bin(x).count("1"))
            assert t_pair[x, c] == pytest.approx(sign * cval, abs=1e-13)
    np.testing.assert_allclose(t_pair.sum(axis=0), 0.0, atol=1e-12)


def test_estimate_matches_oracle_when_k_covers_ranges():
    m = correlated_chain6()
    t_est, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 2)
    t_true = m.full_matrix().data
    assert np.max(np.abs(t_est.data - t_true)) < 1e-12
    np.testing.assert_allclose(t_est.data.sum(axis=0), 1.0, atol=1e-11)


def test_melbourne_k6_exact_and_refinement_monotone():
    m = melbourne_c4()
    t_true = m.full_matrix().data
    errs = []
    for k in (0, 2, 4, 6):
        t_est, _ = estimate_transition_matrix(ExactBackend(m), m.geometry, k)
        errs.append(np.max(np.abs(t_est.data - t_true)))
    assert errs[-1] < 1e-12
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def test_dedup_and_budget():
    g = RegisterGeometry.chain(8)
    base = np.array([symmetric_single_qubit(0.05)] * 8)
    m = NoiseModel(g, base)
    t_est, tables = estimate_transition_matrix(ExactBackend(m), g, 2)
    b1, b2 = circuit_budget(8, 2)
    # shared preparations make the distinct count strictly smaller
    assert tables.circuits_used < b1 + b2
    step1 = tables.metadata["step1_preparations"]
    assert step1 <= b1
    assert tables.circuits_used < step1 + b2


def test_k0_reduces_to_tensor_product():
    m = melbourne_c4_product()
    b = ExactBackend(m)
    t_est, _ = estimate_transition_matrix(b, m.geometry, 0)
    singles = [measure_single_qubit_T(b, i, Uniform(0)) for i in range(1, 5)]
    np.testing.assert_allclose(t_est.data, t_prod(singles).data, atol=1e-12)


def test_mean_lookup_errors_name_the_hole():
    m = melbourne_c4()
    tables = measure_mean_fields(ExactBackend(m), m.geometry, 0)
    del tables.mean_fields[(2, 0, 0b0100)]
    with pytest.raises(ValidationError, match="qubit 2, filtered state 0100"):
        assemble_t_mean(tables)


def test_pair_lookup_errors_name_the_hole():
    m = melbourne_c4()
    _t, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 0)
    del tables.pair_fluct[(2, 3, 1, 0, 0b0110)]
    with pytest.raises(ValidationError, match=r"qubits \(2, 3\), filtered state 0110"):
        assemble_t_pair(tables)


def test_tables_json_round_trip(tmp_path):
    m = correlated_chain6()
    t_est, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 2)
    path = tmp_path / "tables.json"
    tables.to_json(path)
    t2 = CalibrationTables.from_json(path)
    assert t2.n == tables.n and t2.k == tables.k
    assert t2.single_masks == tables.single_masks
    assert t2.pair_masks == tables.pair_masks
    assert t2.mean_fields == tables.mean_fields
    assert t2.pair_fluct == tables.pair_fluct
    t_re = assemble_t_mean(t2).data + assemble_t_pair(t2).data
    np.testing.assert_allclose(t_re, t_est.data, atol=0)


def test_choose_neighborhood_size():
    m = melbourne_c4()
    b = ExactBackend(m)
    # the 0.047 shift spans distance 3, so three layers are needed
    assert choose_neighborhood_size(b, m.geometry, threshold=1e-3) == 6
    assert choose_neighborhood_size(b, m.geometry, threshold=0.1) == 0
    m2 = melbourne_c4_product()
    assert choose_neighborhood_size(ExactBackend(m2), m2.geometry) == 0
