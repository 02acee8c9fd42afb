import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spamcal.backends import ExactBackend
from spamcal.bits import BitString, submasks
from spamcal.characterize import (
    Uniform,
    correlator_report,
    measure_single_qubit_T,
    t_prod,
)
from spamcal.errors import ValidationError
from spamcal.estimate import (
    CalibrationTables,
    assemble_t_mean,
    assemble_t_pair,
    choose_neighborhood_size,
    circuit_budget,
    estimate_transition_matrix,
)
from spamcal.geometry import (
    RegisterGeometry,
    all_neighborhoods,
    full_size,
    layers_for_size,
)
from spamcal.model import NoiseModel, melbourne_c4, melbourne_c4_product
from spamcal.norms import symmetric_single_qubit

GOLDEN_TABLES = Path(__file__).parent / "data" / "melbourne_c4_k2_tables.json"


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
    _t, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 0)
    assert tables.metadata["step1_preparations"] == 5
    states = {s for mask in tables.single_masks.values() for s in submasks(mask)}
    assert states == {0b0000, 0b1000, 0b0100, 0b0010, 0b0001}
    for i, mask in tables.single_masks.items():
        assert tables.mean_fields[i].shape == (len(submasks(mask)), 2)


def test_t_mean_equals_product_model():
    m = melbourne_c4_product()
    _t, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 0)
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


def edited_tables_file(tmp_path, table, key, value=None):
    """melbourne_c4's k = 0 tables JSON with one entry of a table (or, when
    table is None, one top-level field) set to value, or deleted if None."""
    m = melbourne_c4()
    _t, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 0)
    obj = json.loads(tables.to_json())
    entries = obj[table] if table else obj
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(obj))
    return path


def test_mean_lookup_errors_name_the_hole(tmp_path):
    path = edited_tables_file(tmp_path, "mean_fields", "2|0|0100")
    with pytest.raises(ValidationError, match="qubit 2, filtered state 0100"):
        CalibrationTables.from_json(path)


def test_pair_lookup_errors_name_the_hole(tmp_path):
    path = edited_tables_file(tmp_path, "pair_fluct", "2,3|1 0|0110")
    with pytest.raises(ValidationError, match=r"qubits \(2, 3\), filtered state 0110"):
        CalibrationTables.from_json(path)


def test_tables_json_missing_table_rejected(tmp_path):
    path = edited_tables_file(tmp_path, None, "pair_fluct")
    with pytest.raises(ValidationError, match="missing key 'pair_fluct'"):
        CalibrationTables.from_json(path)


@pytest.mark.parametrize(
    "table, key, value",
    [
        ("mean_fields", "2|0|0100", "x"),
        ("pair_fluct", "2,3|1 0|0110", [1.0]),
        (None, "n", "four"),
        (None, "circuits_used", ""),
    ],
)
def test_tables_json_rejects_non_numeric_fields(tmp_path, table, key, value):
    path = edited_tables_file(tmp_path, table, key, value)
    with pytest.raises(ValidationError, match="non-numeric"):
        CalibrationTables.from_json(path)


@pytest.mark.parametrize("key", ["single_masks", "pair_masks", "mean_fields", "pair_fluct"])
@pytest.mark.parametrize("value", [[1.0], "1000", 3])
def test_tables_json_rejects_non_object_tables(tmp_path, key, value):
    path = edited_tables_file(tmp_path, None, key, value)
    with pytest.raises(ValidationError, match=f"{key} must be a JSON object"):
        CalibrationTables.from_json(path)


def test_tables_json_round_trip(tmp_path):
    m = correlated_chain6()
    t_est, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 2)
    path = tmp_path / "tables.json"
    tables.to_json(path)
    t2 = CalibrationTables.from_json(path)
    assert t2.n == tables.n and t2.k == tables.k
    assert t2.single_masks == tables.single_masks
    assert t2.pair_masks == tables.pair_masks
    assert t2.to_json() == tables.to_json()
    t_re = assemble_t_mean(t2).data + assemble_t_pair(t2).data
    np.testing.assert_allclose(t_re, t_est.data, atol=0)


def test_tables_json_matches_golden_file():
    # the key format and every value of the tables JSON are pinned
    m = melbourne_c4()
    _t, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 2)
    assert tables.to_json() == GOLDEN_TABLES.read_text()


def test_golden_tables_reassemble_the_estimate():
    # at k = 2 the 0.047 shift of qubit 4 from qubit 1 (distance 3) lies
    # outside the neighborhoods, so the estimate, not the exhaustive
    # oracle, is what the loaded tables must reproduce
    m = melbourne_c4()
    t_est, _tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 2)
    loaded = CalibrationTables.from_json(GOLDEN_TABLES)
    t_re = assemble_t_mean(loaded).data + assemble_t_pair(loaded).data
    assert np.max(np.abs(t_re - t_est.data)) <= 1e-12
    assert np.max(np.abs(t_re - m.full_matrix().data)) > 1e-3


def test_choose_neighborhood_size():
    m = melbourne_c4()
    b = ExactBackend(m)
    # the 0.047 shift spans distance 3, so three layers are needed
    assert choose_neighborhood_size(b, m.geometry, threshold=1e-3) == 6
    assert choose_neighborhood_size(b, m.geometry, threshold=0.1) == 0
    m2 = melbourne_c4_product()
    assert choose_neighborhood_size(ExactBackend(m2), m2.geometry) == 0


def loop_neighborhood_size(report, geometry, threshold):
    """Reference: try each admissible k in increasing order until every
    shift correlator at or above the threshold lies inside the
    neighborhoods."""
    n = geometry.n
    kmax = full_size(geometry)
    k = 0
    while True:
        nbhds = all_neighborhoods(geometry, k)
        ok = True
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j or j in nbhds[i].members:
                    continue
                if abs(report.single_shift[i - 1, j - 1]) >= threshold:
                    ok = False
        for (i, j, l), v in report.joint_shift.items():
            if l in nbhds[i].members or l in nbhds[j].members:
                continue
            if abs(v) >= threshold:
                ok = False
        if ok or k >= kmax:
            return k
        l = 0
        while (2 * l + 1) ** geometry.dimension - 1 <= k:
            l += 1
        k = (2 * l + 1) ** geometry.dimension - 1


GEOMETRIES = [RegisterGeometry.chain(n) for n in range(2, 8)] + [
    RegisterGeometry.grid(r, c) for r, c in ((2, 2), (2, 3), (3, 3))
]
SIGNED = st.sampled_from([-1.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GEOMETRIES),
    st.sampled_from([0.0, 1e-6, 1e-5, 5e-5, 2e-4, 1e-3, 1.0]),
    st.data(),
)
def test_choose_neighborhood_size_matches_loop(g, threshold, data):
    n = g.n
    qubit = st.integers(1, n)
    shifts = data.draw(
        st.dictionaries(
            st.tuples(qubit, qubit).filter(lambda t: t[0] != t[1]),
            st.builds(lambda s, v: s * v, SIGNED, st.sampled_from([1e-5, 1e-4, 2e-3])),
            max_size=5,
        )
    )
    spectator_cov = data.draw(
        st.dictionaries(
            st.tuples(qubit, qubit, qubit).filter(
                lambda t: t[0] < t[1] and t[2] not in t[:2]
            ),
            st.builds(lambda s, v: s * v, SIGNED, st.sampled_from([1e-6, 2e-5])),
            max_size=3,
        ) if n >= 3 else st.just({})
    )
    eps = data.draw(st.lists(st.floats(0.05, 0.1), min_size=n, max_size=n))
    try:
        m = NoiseModel(
            g,
            np.array([symmetric_single_qubit(e) for e in eps]),
            shifts=shifts,
            shift_range=n,
            spectator_cov=spectator_cov,
            cov_range=n,
        )
    except ValidationError:
        assume(False)
    b = ExactBackend(m)
    k = choose_neighborhood_size(b, g, threshold)
    assert k == loop_neighborhood_size(correlator_report(b), g, threshold)
    layers_for_size(k, g.dimension)  # admissible
    if threshold == 0.0:
        assert k == full_size(g)
    if threshold == 1.0:
        assert k == 0
