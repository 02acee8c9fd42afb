import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spamcal.assembly import _rows
from spamcal.backends import Dataset, ExactBackend, ReplayBackend, SampledBackend
from spamcal.bits import qubit_mask, submasks
from spamcal.characterize import (
    Uniform,
    correlator_report,
    measure_single_qubit_T,
    t_prod,
)
from spamcal.errors import MissingDataError, ValidationError
from spamcal.estimate import (
    CalibrationTables,
    assemble_t_mean,
    assemble_t_pair,
    choose_neighborhood_size,
    circuit_budget,
    estimate_transition_matrix,
)
from spamcal.geometry import RegisterGeometry, chebyshev_mask, layers_for_size
from spamcal.model import NoiseModel, melbourne_c4, melbourne_c4_product, melbourne_c8
from spamcal.norms import symmetric_single_qubit
from test_model import chain_model, grid3x3_spectator_model

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
        assert tables.mean_fields[i].shape == (len(submasks(mask)),)


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
        cval = cov[c >> 1, c & 1]
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


def c4_tables_json():
    m = melbourne_c4()
    _t, tables = estimate_transition_matrix(ExactBackend(m), m.geometry, 0)
    return json.loads(tables.to_json())


def write_tables(tmp_path, obj):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(obj))
    return path


def edited_tables_file(tmp_path, table, key, value=None):
    """melbourne_c4's k = 0 tables JSON with one entry of a table (or, when
    table is None, one top-level field) set to value, or deleted if None."""
    obj = c4_tables_json()
    entries = obj[table] if table else obj
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    return write_tables(tmp_path, obj)


def test_mean_lookup_errors_name_the_hole(tmp_path):
    path = edited_tables_file(tmp_path, "mean_fields", "2|0100")
    with pytest.raises(ValidationError, match="qubit 2, filtered state 0100"):
        CalibrationTables.from_json(path)


def test_pair_lookup_errors_name_the_hole(tmp_path):
    path = edited_tables_file(tmp_path, "pair_fluct", "2,3|0110")
    with pytest.raises(ValidationError, match=r"qubits \(2, 3\), filtered state 0110"):
        CalibrationTables.from_json(path)


def test_old_four_entry_tables_name_the_first_missing_entry(tmp_path):
    # the earlier format kept P(i reads b) for b = 0, 1 and the covariances
    # of all four outcome pairs, under keys "i|b|bits" and "i,j|bi bj|bits"
    obj = c4_tables_json()
    old = {"mean_fields": {}, "pair_fluct": {}}
    for key, p in obj["mean_fields"].items():
        who, state = key.split("|")
        old["mean_fields"].update({f"{who}|0|{state}": p, f"{who}|1|{state}": 1 - p})
    for key, c in obj["pair_fluct"].items():
        who, state = key.split("|")
        for bits, v in (("0 0", c), ("0 1", -c), ("1 0", -c), ("1 1", c)):
            old["pair_fluct"][f"{who}|{bits}|{state}"] = v
    path = write_tables(tmp_path, dict(obj, **old))
    with pytest.raises(ValidationError, match="no table entry for qubit 1, filtered state 0000"):
        CalibrationTables.from_json(path)


@pytest.mark.parametrize("qubit", ["1", "3", "4"])
def test_tables_json_rejects_single_masks_short_of_a_qubit(tmp_path, qubit):
    path = edited_tables_file(tmp_path, "single_masks", qubit)
    with pytest.raises(ValidationError, match="single_masks must name each of the qubits 1..4"):
        CalibrationTables.from_json(path)


def traced_load_error(path) -> tuple:
    """The ValidationError of loading a tables file and the traced peak
    allocation of the load."""
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            CalibrationTables.from_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(err.value), peak


def test_tables_json_rejects_masks_wider_than_the_entries_before_listing_them(tmp_path):
    # every mask names the whole register, so each table asks for 2^16 rows
    n = 16
    obj = {
        "n": n, "k": 0, "single_masks": {str(i): "1" * n for i in range(1, n + 1)},
        "pair_masks": {}, "mean_fields": {"1|" + "0" * n: 0.9}, "pair_fluct": {},
    }
    message, peak = traced_load_error(write_tables(tmp_path, obj))
    assert message == "qubit 1 needs 2^16 entries, the file holds 1"
    assert peak < 1 << 20


def test_tables_json_rejects_a_huge_register_without_masks_in_little_memory(tmp_path):
    obj = {"n": 10**6, "k": 0, "single_masks": {}, "pair_masks": {},
           "mean_fields": {}, "pair_fluct": {}}
    message, peak = traced_load_error(write_tables(tmp_path, obj))
    assert message == "single_masks must name each of the qubits 1..1000000"
    assert peak < 1 << 20


def test_tables_json_rejects_a_mask_without_its_qubit(tmp_path):
    path = edited_tables_file(tmp_path, "single_masks", "1", "0000")
    with pytest.raises(ValidationError, match=r"single_masks\['1'\] lacks qubit 1"):
        CalibrationTables.from_json(path)


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("2,3", "3,2", "pair_masks key '3,2' needs i < j"),
        ("3,4", "4,5", "qubit index 5 out of range 1..4"),
        ("2,3", "0,2", "qubit index 0 out of range 1..4"),
    ],
)
def test_tables_json_rejects_a_pair_outside_the_register_order(tmp_path, old, new, match):
    # the pair's mask and entries move with it, so only its key is wrong
    obj = c4_tables_json()
    obj["pair_masks"][new] = obj["pair_masks"].pop(old)
    obj["pair_fluct"] = {
        key.replace(f"{old}|", f"{new}|"): v for key, v in obj["pair_fluct"].items()
    }
    with pytest.raises(ValidationError, match=match):
        CalibrationTables.from_json(write_tables(tmp_path, obj))


@pytest.mark.parametrize("mask, lacking", [("0100", 3), ("0010", 2), ("0000", 2)])
def test_tables_json_rejects_a_pair_mask_without_its_qubits(tmp_path, mask, lacking):
    path = edited_tables_file(tmp_path, "pair_masks", "2,3", mask)
    with pytest.raises(ValidationError, match=rf"pair_masks\['2,3'\] lacks qubit {lacking}"):
        CalibrationTables.from_json(path)


@pytest.mark.parametrize("value", [-0.01, 1.01, 2.0])
def test_tables_json_rejects_a_read0_outside_the_unit_interval(tmp_path, value):
    path = edited_tables_file(tmp_path, "mean_fields", "2|0100", value)
    with pytest.raises(ValidationError, match=r"'2\|0100' lies outside \[0, 1\]"):
        CalibrationTables.from_json(path)


@pytest.mark.parametrize("value", [-0.26, 0.26, 1.0])
def test_tables_json_rejects_a_covariance_beyond_a_quarter(tmp_path, value):
    path = edited_tables_file(tmp_path, "pair_fluct", "2,3|0110", value)
    with pytest.raises(ValidationError, match=r"'2,3\|0110' lies outside \[-0.25, 0.25\]"):
        CalibrationTables.from_json(path)


def test_tables_json_keeps_read0_rounded_past_one(tmp_path):
    # qubits 1, 2 and 4 always read 0 when prepared in 0, and at k = 2 one
    # read-0 sum over the exact distribution comes out 1 + 2^-52
    def single(p0, p1):
        return [[p0, p1], [1 - p0, 1 - p1]]

    g = RegisterGeometry.chain(4)
    base = np.array([single(1.0, 0.1)] * 2 + [single(0.8, 0.2), single(1.0, 0.1)])
    t_est, tables = estimate_transition_matrix(ExactBackend(NoiseModel(g, base)), g, 2)
    assert max(a.max() for a in tables.mean_fields.values()) > 1.0
    path = tmp_path / "tables.json"
    tables.to_json(path)
    loaded = CalibrationTables.from_json(path)
    assert np.array_equal(loaded.columns(np.arange(16)), t_est.data)


def test_tables_json_missing_table_rejected(tmp_path):
    path = edited_tables_file(tmp_path, None, "pair_fluct")
    with pytest.raises(ValidationError, match="missing key 'pair_fluct'"):
        CalibrationTables.from_json(path)


@pytest.mark.parametrize(
    "table, key, value",
    [
        ("mean_fields", "2|0100", "x"),
        ("pair_fluct", "2,3|0110", [1.0]),
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
    t_re = t2.columns(np.arange(1 << t2.n))
    np.testing.assert_allclose(t_re, t_est.data, rtol=0, atol=0)


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
    t_re = loaded.columns(np.arange(16))
    assert np.array_equal(t_re, t_est.data)
    assert np.max(np.abs(t_re - m.full_matrix().data)) > 1e-3


def test_choose_neighborhood_size():
    m = melbourne_c4()
    b = ExactBackend(m)
    # the 0.047 shift spans distance 3, so three layers are needed
    assert choose_neighborhood_size(b, m.geometry, threshold=1e-3) == 6
    assert choose_neighborhood_size(b, m.geometry, threshold=0.1) == 0
    m2 = melbourne_c4_product()
    assert choose_neighborhood_size(ExactBackend(m2), m2.geometry) == 0


def masks_at(geometry, k):
    return [chebyshev_mask(geometry, i, k) for i in range(1, geometry.n + 1)]


def covers_register(geometry, k):
    """Whether every mask at k holds the whole register."""
    return all(m == (1 << geometry.n) - 1 for m in masks_at(geometry, k))


def loop_neighborhood_size(report, geometry, threshold):
    """Reference: try each admissible k in increasing order until every
    shift correlator at or above the threshold lies inside the masks, or
    every mask covers the register."""
    n = geometry.n
    k = 0
    while True:
        masks = dict(enumerate(masks_at(geometry, k), 1))

        def inside(i, j):
            return bool(masks[i] & qubit_mask(j, n))

        ok = True
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j or inside(i, j):
                    continue
                if abs(report.single_shift[i - 1, j - 1]) >= threshold:
                    ok = False
        for (i, j, l), v in report.joint_shift.items():
            if inside(i, l) or inside(j, l):
                continue
            if abs(v) >= threshold:
                ok = False
        if ok or covers_register(geometry, k):
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
    layers = layers_for_size(k, g.dimension)  # admissible
    if threshold == 0.0:
        # the smallest admissible k that covers the register
        assert covers_register(g, k)
        assert layers >= 1
        assert not covers_register(g, (2 * layers - 1) ** g.dimension - 1)
    if threshold == 1.0:
        assert k == 0


def test_register_size_mismatch_names_both_sizes():
    backend = ExactBackend(melbourne_c4())
    geometry = RegisterGeometry.chain(8)
    with pytest.raises(ValidationError, match="geometry has 8 qubits, backend has 4"):
        choose_neighborhood_size(backend, geometry)
    with pytest.raises(ValidationError, match="geometry has 8 qubits, backend has 4"):
        estimate_transition_matrix(backend, geometry, 0)


def test_tables_json_rejects_non_finite_entry(tmp_path):
    path = edited_tables_file(tmp_path, "mean_fields", "2|0100", float("nan"))
    with pytest.raises(ValidationError, match="non-finite"):
        CalibrationTables.from_json(path)


def test_replay_without_records_names_only_step_one_states():
    # the first step's preparations are collected before any pair mask is
    # built: at k = 0 they are all-zeros and the six single flips
    backend = ReplayBackend(Dataset(n=6))
    with pytest.raises(MissingDataError) as info:
        estimate_transition_matrix(backend, RegisterGeometry.chain(6), 0)
    assert info.value.missing == [0] + [1 << b for b in range(6)]


def nests(inner: int, outer: int) -> bool:
    return inner & ~outer == 0


# model and a k whose masks cover every shift source and spectator
TABLE_ORACLE_CASES = {
    "melbourne-c4": (melbourne_c4, 6),
    "melbourne-c8": (melbourne_c8, 6),
    "correlated_chain6": (correlated_chain6, 2),
    "grid3x3": (grid3x3_spectator_model, 8),
}


@pytest.mark.parametrize("name", TABLE_ORACLE_CASES)
def test_table_oracle_every_estimated_entry_is_the_models(name):
    # an exact estimate's tables equal the model's own tables at every
    # filtered state, compared in O(table rows) with no 2^n object
    make, k = TABLE_ORACLE_CASES[name]
    model = make()
    _t, est = estimate_transition_matrix(ExactBackend(model), model.geometry, k)
    truth = model.tables
    worst = 0.0
    for got, masks, want, want_masks in (
        (est.mean_fields, est.single_masks, truth.mean_fields, truth.single_masks),
        (est.pair_fluct, est.pair_masks, truth.pair_fluct, truth.pair_masks),
    ):
        for q, mask in masks.items():
            states = np.array(submasks(mask))
            if q in want_masks:
                assert nests(want_masks[q], mask)
                expected = want[q][_rows(want_masks[q], states)]
            else:  # a pair the model leaves uncorrelated
                expected = np.zeros(states.size)
            worst = max(worst, np.abs(got[q] - expected).max())
    assert worst <= 1e-15


def test_table_oracle_masks_do_not_nest_below_the_shift_range():
    # melbourne-c8's shift of qubit 4 from qubit 1 lies outside k = 2
    model = melbourne_c8()
    _t, est = estimate_transition_matrix(ExactBackend(model), model.geometry, 2)
    assert not nests(model.tables.single_masks[4], est.single_masks[4])


@pytest.mark.parametrize("kind", ["exact", "sampled"])
@pytest.mark.parametrize("name", TABLE_ORACLE_CASES)
def test_estimate_is_one_columns_call_on_its_own_tables(name, kind):
    make, k = TABLE_ORACLE_CASES[name]
    model = make()
    if kind == "exact":
        backend = ExactBackend(model)
    else:
        backend = SampledBackend(model, shots=4096, seed=1)
    t_est, tables = estimate_transition_matrix(backend, model.geometry, k)
    assert np.array_equal(t_est.data, tables.columns(np.arange(t_est.dim)))
    # the T_mean + T_pair decomposition is the same matrix up to rounding
    t_sum = assemble_t_mean(tables).data + assemble_t_pair(tables).data
    assert np.max(np.abs(t_sum - t_est.data)) <= 1e-15


def test_estimate_holds_one_dense_matrix():
    # T is 32 MiB at n = 11; a mean matrix plus a pair matrix would be two
    model = chain_model(11)
    backend = ExactBackend(model)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        t_est, _tables = estimate_transition_matrix(backend, model.geometry, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * t_est.data.nbytes


@pytest.mark.parametrize("state", [-1, 1 << 4])
def test_loaded_tables_reject_a_prepared_state_out_of_range(state):
    tables = CalibrationTables.from_json(GOLDEN_TABLES)
    assert tables.n == 4
    with pytest.raises(ValidationError, match=f"prepared state {state} is out of range"):
        tables.columns([0, state])
