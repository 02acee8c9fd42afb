import hashlib
import importlib.util
import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spamcal import assembly
from spamcal.assembly import CalibrationTables, kron_columns, sweep_width
from spamcal.backends import ExactBackend
from spamcal.bits import qubit_mask, submasks
from spamcal.errors import ValidationError
from spamcal.estimate import estimate_transition_matrix
from spamcal.geometry import RegisterGeometry
from spamcal.model import NoiseModel, melbourne_c8
from test_acceptance import correlated_chain6
from test_model import chain_model, grid3x3_spectator_model, random_model

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def per_term_kron_columns(read0, terms):
    """Reference kernel: builds each term's product of means from scratch and
    adds it, times the term's coefficient and (-1)^(sum of the outcome bits),
    into one slice of a zeroed block accumulator per outcome of the term's
    qubits, term by term, all columns at once."""
    cols, n = read0.shape
    p = read0.T
    m = np.stack([p, 1.0 - p], axis=1)  # (n, 2, cols)
    acc = np.zeros((2,) * n + (cols,))
    for qubits, coefficient in terms:
        v = np.ones((1, cols))
        for l in range(n):
            if l not in qubits:
                v = (v[:, None, :] * m[l]).reshape(-1, cols)
        v = v.reshape((2,) * (n - len(qubits)) + (cols,)) * coefficient
        for bits in itertools.product((0, 1), repeat=len(qubits)):
            slot = [slice(None)] * n
            for q, b in zip(qubits, bits):
                slot[q] = b
            acc[tuple(slot)] += v if sum(bits) % 2 == 0 else -v
    return acc.reshape(-1, cols)


def random_inputs(rng, n, cols=1):
    read0 = rng.uniform(0.7, 1.0, (cols, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covs = rng.uniform(-3e-4, 3e-4, (cols, len(pairs)))
    return read0, pairs, covs


def mean_term(cols):
    return [((), np.ones(cols))]


def pair_terms(pairs, covs):
    return [(pair, covs[:, p]) for p, pair in enumerate(pairs)]


def brute_term_column(read0, qubits, coefficient):
    """One term of one column: coefficient * (-1)^(sum of the term's outcome
    bits) * the product of the other qubits' means, outcome by outcome."""
    n = read0.shape[0]
    out = np.empty(1 << n)
    for x in range(1 << n):
        bits = [(x >> (n - 1 - l)) & 1 for l in range(n)]
        term = coefficient * (-1.0) ** sum(bits[q] for q in qubits)
        for l in range(n):
            if l not in qubits:
                term *= read0[l] if bits[l] == 0 else 1.0 - read0[l]
        out[x] = term
    return out


def brute_pair_column(read0, pairs, covs):
    return sum(brute_term_column(read0, pair, covs[p]) for p, pair in enumerate(pairs))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 4, 7])
def test_kernels_match_bruteforce(seed, n):
    rng = np.random.default_rng(seed)
    cols = 3
    read0, pairs, covs = random_inputs(rng, n, cols)
    t_mean = kron_columns(read0, mean_term(cols))
    t_pair = kron_columns(read0, pair_terms(pairs, covs))
    for c in range(cols):
        np.testing.assert_allclose(
            t_mean[:, c], brute_term_column(read0[c], (), 1.0), atol=1e-14
        )
        np.testing.assert_allclose(
            t_pair[:, c], brute_pair_column(read0[c], pairs, covs[c]), atol=1e-14
        )


@pytest.mark.parametrize("triple", [(0, 1, 2), (0, 2, 4), (2, 3, 4)])
def test_triple_term_matches_bruteforce(triple):
    rng = np.random.default_rng(7)
    n, cols = 5, 2
    read0, _, _ = random_inputs(rng, n, cols)
    coefficient = rng.uniform(-1e-4, 1e-4, cols)
    t = kron_columns(read0, [(triple, coefficient)])
    for c in range(cols):
        np.testing.assert_allclose(
            t[:, c], brute_term_column(read0[c], triple, coefficient[c]), atol=1e-15
        )


def test_blocks_do_not_change_columns():
    # more columns than one sweep: each column equals its own one-column call
    rng = np.random.default_rng(3)
    width = sweep_width(4)
    cols = width + 5
    read0, pairs, covs = random_inputs(rng, 4, cols)
    terms = mean_term(cols) + pair_terms(pairs, covs)
    t = kron_columns(read0, terms)
    for c in itertools.chain(range(3), range(width - 1, cols)):
        one = [(q, a[c:c + 1]) for q, a in terms]
        np.testing.assert_array_equal(t[:, c], kron_columns(read0[c:c + 1], one)[:, 0])


def test_mean_column_normalized():
    rng = np.random.default_rng(0)
    read0, _, _ = random_inputs(rng, 5)
    assert kron_columns(read0, mean_term(1)).sum() == pytest.approx(1.0, abs=1e-12)


def test_pair_column_sums_to_zero():
    rng = np.random.default_rng(1)
    read0, pairs, covs = random_inputs(rng, 5)
    assert abs(kron_columns(read0, pair_terms(pairs, covs)).sum()) < 1e-14


@st.composite
def kernel_inputs(draw, low=-1e-3, high=1e-3):
    """read0 in [0, 1], with exact 0s and 1s among it, and terms on n <= 9
    qubits with coefficients in [low, high], some constant over the columns
    as the model's triples are, for column counts on both sides of the
    sweep width.
    The terms, in a drawn order: any of the n(n-1)/2 pairs, often all of
    them; triples of an earlier qubit and a drawn pair, which share their
    remaining qubits with that pair's other triples and with every pair on
    their last qubit; terms on 0 to 3 drawn qubits, with the first and the
    last qubit on their own or together among them; and repeats."""
    n = draw(st.integers(1, 9))
    w = sweep_width(n)
    cols = draw(st.sampled_from([1, 2, w - 1, w, w + 1, 2 * w + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    read0 = rng.uniform(0.0, 1.0, (cols, n))
    read0[rng.random((cols, n)) < 0.1] = rng.integers(0, 2)
    pairs = list(itertools.combinations(range(n), 2))
    if pairs and not draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    tails = [p for p in pairs if p[0] > 0]
    triples = []
    for _ in range(draw(st.integers(0, 3)) if tails else 0):
        tail = draw(st.sampled_from(tails))
        triples.append((draw(st.integers(0, tail[0] - 1)),) + tail)
    edges = [(0,), (n - 1,), (0, n - 1)] if n > 1 else [(0,)]
    others = draw(st.lists(st.sampled_from(edges), max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(0, min(3, n)))
        others.append(tuple(sorted(draw(st.permutations(range(n)))[:size])))
    qubit_sets = pairs + triples + others
    qubit_sets += draw(st.lists(st.sampled_from(qubit_sets), max_size=3)) if qubit_sets else []
    terms = []
    for qubits in draw(st.permutations(qubit_sets)):
        if draw(st.booleans()):
            coefficient = np.full(cols, rng.uniform(low, high))
        else:
            coefficient = rng.uniform(low, high, cols)
        terms.append((qubits, coefficient))
    return read0, terms


@settings(max_examples=80, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_per_term_reference(inputs):
    # the sweep adds the terms in another order, so only the rounding moves
    read0, terms = inputs
    np.testing.assert_allclose(
        kron_columns(read0, terms), per_term_kron_columns(read0, terms), rtol=0, atol=1e-15
    )


@settings(max_examples=40, deadline=None)
@given(kernel_inputs())
def test_each_column_is_bitwise_equal_to_its_one_column_call(inputs):
    read0, terms = inputs
    t = kron_columns(read0, terms)
    for c in range(read0.shape[0]):
        one = [(q, a[c:c + 1]) for q, a in terms]
        assert np.array_equal(t[:, c], kron_columns(read0[c:c + 1], one)[:, 0])


@settings(max_examples=60, deadline=None)
@given(kernel_inputs(low=-1.0, high=1.0))
def test_every_column_sums_to_one_whatever_the_coefficients(inputs):
    # each signed term sums to zero over the outcomes, so no choice of pair
    # or triple coefficients can move a column sum off the mean product's 1,
    # which four independent weights per pair could
    read0, terms = inputs
    terms = [(q, a) for q, a in terms if q]
    t = kron_columns(read0, [((), np.ones(read0.shape[0]))] + terms)
    np.testing.assert_allclose(t.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_table_lookup_lists_each_mask_once(monkeypatch):
    tables = melbourne_c8().tables
    cols = np.arange(1 << tables.n)
    calls = []

    def counted(mask):
        calls.append(mask)
        return submasks(mask)

    monkeypatch.setattr(assembly, "submasks", counted)
    assembly._states.cache_clear()
    first = tables.columns(cols)
    listed = len(calls)
    assert listed > 0
    assert np.array_equal(tables.columns(cols), first)
    assert len(calls) == listed
    # the shared row order is read-only
    assert not assembly._states(tables.single_masks[1]).flags.writeable


def all_pairs_tables(n):
    """Tables with every pair, each qubit's and pair's mask its own bits."""
    rng = np.random.default_rng(n)
    single = {i: qubit_mask(i, n) for i in range(1, n + 1)}
    pairs = {q: single[q[0]] | single[q[1]] for q in itertools.combinations(single, 2)}
    return CalibrationTables(
        n, 0, single, pairs,
        {i: rng.uniform(0.9, 1.0, 2) for i in single},
        {q: rng.uniform(-1e-4, 1e-4, 4) for q in pairs},
    )


def test_an_all_pairs_block_peaks_below_four_dense_blocks():
    # the partials open at once stay within a few dense temporaries of one
    # sweep's width: 3.3 blocks of 256 columns here, where one partial per
    # term prefix would take about 5.3
    n = 10
    width = sweep_width(n)
    tables, cols = all_pairs_tables(n), np.arange(width)
    tables.columns(cols)  # the plan and the row orders are cached from here on
    tracemalloc.start()
    try:
        out = tables.columns(cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * (1 << n) * width * out.itemsize


def chain_estimate_tables():
    """The estimator's tables on an 8-qubit chain at k = 2: all 28 pairs."""
    m = chain_model(8)
    return estimate_transition_matrix(ExactBackend(m), m.geometry, 2)[1]


# the estimator's all-pairs tables, and model tables with triples (grid3x3,
# random-n6) and without (melbourne_c8)
SWEEP_TABLES = {
    "chain8-k2-estimate": chain_estimate_tables,
    "grid3x3-spectators": lambda: grid3x3_spectator_model().tables,
    "melbourne_c8": lambda: melbourne_c8().tables,
    "random-n6-triples": lambda: random_model(0, 6, with_triples=True).tables,
}


@pytest.mark.parametrize("name", SWEEP_TABLES)
def test_columns_are_bitwise_equal_at_every_sweep_width(monkeypatch, name):
    tables = SWEEP_TABLES[name]()
    cols = np.arange(1 << tables.n)
    want = tables.columns(cols)
    for width in (1, 3, 64, 256, sweep_width(tables.n)):
        monkeypatch.setattr(assembly, "sweep_width", lambda n, width=width: width)
        assert np.array_equal(tables.columns(cols), want), width


def test_the_sweep_width_keeps_a_partial_within_2_to_the_19_entries():
    assert [sweep_width(n) for n in range(1, 17)] == [256] * 11 + [128, 64, 32, 16, 8]
    assert sweep_width(19) == 1 and sweep_width(40) == 1


def test_the_plan_is_built_once_per_term_structure():
    tables = all_pairs_tables(6)
    assembly._plan.cache_clear()
    for start in range(0, 1 << 6, 16):
        tables.columns(np.arange(start, start + 16))
    info = assembly._plan.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def benchmark_chain_model():
    """The chain10-exact workload's model at the benchmark's default seed."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # where its dataclass looks itself up
    spec.loader.exec_module(inputs)
    obj = inputs.make_model(inputs.WORKLOADS["chain10-exact"], np.random.default_rng([1, 0x5EED]))
    return NoiseModel.from_dict(json.loads(json.dumps(obj)))


# SHA-256 of T's float64 bytes for models in which no two terms reach the
# same remaining qubit set: every term keeps a lazy prefix partial, so each
# entry is its products taken in qubit order and added in term order
UNSHARED_MODEL_T = {
    "melbourne_c8": (melbourne_c8, "49c746c4c82f15154a4106c253b84dce77f7f952bd1280d5f039dc4735ce33f4"),
    "chain10-exact": (
        benchmark_chain_model, "206932e806cc1e1d382686d22b62d3950a1578ce6fb4082226b4f17e6c058b6b"
    ),
}


@pytest.mark.parametrize("name", UNSHARED_MODEL_T)
def test_models_without_shared_partials_keep_their_bits(name):
    make, pinned = UNSHARED_MODEL_T[name]
    m = make()
    plan = assembly._plan(m.n, tuple(q for q, _a in assembly._terms(m.tables, np.arange(1))))
    assert not any(step.fresh for step in plan)
    assert hashlib.sha256(m.full_matrix().data.tobytes()).hexdigest() == pinned


def test_tables_with_a_triple_term_are_not_written(tmp_path):
    # the tables file holds pairs only; a model's tables hold its triples too
    tables = correlated_chain6(triples={(2, 3, 4): 5e-3}, base_eps=[0.2] * 6).tables
    path = tmp_path / "tables.json"
    message = r"^tables JSON holds pairs only, not the term \(2, 3, 4\)$"
    with pytest.raises(ValidationError, match=message):
        tables.to_json(path)
    assert not path.exists()
    pairs = correlated_chain6(base_eps=[0.2] * 6).tables
    written = json.loads(pairs.to_json(path))
    assert list(written["pair_masks"]) == ["1,2", "2,3", "3,4", "4,5", "5,6"]


def chain100_tables():
    """A 100-qubit chain model's tables: nearest-neighbour shifts and pair
    covariances, so the masks of qubits 1 and 2 reach past bit 63."""
    n = 100
    base = np.array([[[0.97, 0.05], [0.03, 0.95]]] * n)
    shifts = {(i, i + 1): 0.002 for i in range(1, n)}
    shifts.update({(i + 1, i): 0.002 for i in range(1, n)})
    cov = {(i, i + 1): 5e-5 * np.ones((2, 2)) for i in range(1, n)}
    model = NoiseModel(
        RegisterGeometry.chain(n), base, shifts=shifts, shift_range=1, pair_cov=cov, cov_range=1
    )
    return model.tables


def reference_row(mask: int, state: int) -> int:
    return submasks(mask).index(state & mask)


# below, at and past bit 63 and int64, and the register's last state
STATES_PAST_INT64 = [0, 5, 2**62, 2**63 - 1, 2**63, 2**99, 2**100 - 1]


@pytest.mark.parametrize("state", STATES_PAST_INT64)
def test_tables_are_read_at_every_state_of_100_qubits(state):
    tables = chain100_tables()
    means, coefs = tables.mean_fields, tables.pair_fluct
    m1 = means[1][reference_row(tables.single_masks[1], state)]
    m2 = means[2][reference_row(tables.single_masks[2], state)]
    c12 = coefs[(1, 2)][reference_row(tables.pair_masks[(1, 2)], state)]
    assert tables.zero_marginal(qubit_mask(1, 100), [state]).tolist() == [m1]
    assert tables.zero_marginal(qubit_mask(1, 100) | qubit_mask(2, 100), [state]).tolist() == [
        m1 * m2 + c12
    ]


@pytest.mark.parametrize(
    "states", [[s] for s in STATES_PAST_INT64] + [STATES_PAST_INT64], ids=str
)
def test_read0_and_terms_past_int64_match_a_python_reference(states):
    # each state alone too: all below 2^63, they once made an int64 array
    tables = chain100_tables()
    cols = assembly._prepared(states, 100)
    read0 = assembly._read0(tables, cols)
    assert read0.tolist() == [
        [tables.mean_fields[i][reference_row(tables.single_masks[i], s)] for i in range(1, 101)]
        for s in states
    ]
    terms = assembly._terms(tables, cols)
    assert [q for q, _a in terms] == [(i, i + 1) for i in range(99)]
    for (i, j), a in terms:
        mask = tables.pair_masks[(i + 1, j + 1)]
        assert a.tolist() == [tables.pair_fluct[(i + 1, j + 1)][reference_row(mask, s)] for s in states]


@pytest.mark.parametrize("state", [-1, 2**100])
def test_a_state_outside_100_qubits_raises_the_columns_message(state):
    tables = chain100_tables()
    message = rf"^prepared state {state} is out of range: the register has 100 qubits$"
    with pytest.raises(ValidationError, match=message):
        tables.zero_marginal(qubit_mask(1, 100), [0, state])
    with pytest.raises(ValidationError, match=message):
        tables.columns([state])
