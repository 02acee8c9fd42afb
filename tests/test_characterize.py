import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spamcal import characterize
from spamcal.assembly import sweep_width
from spamcal.backends import ExactBackend, ReplayBackend, SampledBackend, record_dataset
from spamcal.bits import qubit_mask, submasks
from spamcal.characterize import (
    Average,
    CorrelatorReport,
    Uniform,
    block_zero,
    collect,
    correlator_report,
    prob_joint_zero,
    prob_zero,
    single_qubit_matrices,
    t_prod,
    total_spam_error,
    zero_marginals,
)
from spamcal.errors import MissingDataError, ValidationError
from spamcal.estimate import estimate_transition_matrix
from spamcal.geometry import RegisterGeometry, chebyshev_mask
from spamcal.norms import MatrixNorm
from spamcal.model import melbourne_c4, melbourne_c4_product, melbourne_c8
from test_acceptance import correlated_chain6
from test_model import chain_model, grid3x3_spectator_model, invalid_chain13, random_model

C4 = melbourne_c4()
REGISTERS = {"melbourne-c4": melbourne_c4, "melbourne-c8": melbourne_c8}
BACKENDS = {"exact": ExactBackend, "sampled": lambda m: SampledBackend(m, 4096, seed=7)}


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
    # qubit 1 stays 0 in this family, so no shift applies
    got = single_qubit_matrices(backend(), Uniform(0))
    np.testing.assert_allclose(got, C4.base, atol=1e-14)


def test_uniform1_picks_up_spectator_shift():
    b = backend()
    got = single_qubit_matrices(b, Uniform(1))[3]
    expected = C4.base[3].copy()
    expected[0] -= 0.047
    expected[1] += 0.047
    np.testing.assert_allclose(got, expected, atol=1e-14)
    # the row-0 difference between the two uniform families is the shift sum
    u0 = single_qubit_matrices(b, Uniform(0))[3]
    np.testing.assert_allclose(u0[0] - got[0], 0.047, atol=1e-14)


def test_average_family_halves_the_shift():
    # averaging over all spectator preparations sees qubit 1 up half the time
    got = single_qubit_matrices(backend(), Average(6), geometry=C4.geometry)[3]
    expected = C4.base[3].copy()
    expected[0] -= 0.047 / 2
    expected[1] += 0.047 / 2
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_average_k0_equals_uniform0():
    b = backend()
    a = single_qubit_matrices(b, Average(0), geometry=C4.geometry)
    u = single_qubit_matrices(b, Uniform(0))
    np.testing.assert_allclose(a, u, atol=1e-14)


def test_average_needs_geometry():
    with pytest.raises(ValidationError, match="geometry"):
        single_qubit_matrices(backend(), Average(0))


@pytest.mark.parametrize("size", [3, 6])
def test_average_rejects_geometry_of_another_size(size):
    with pytest.raises(ValidationError, match=f"geometry has {size} qubits, backend has 4"):
        single_qubit_matrices(backend(), Average(2), RegisterGeometry.chain(size))


class Dense:
    """A model's exact distributions through the block query alone: it has
    n, distributions and descriptor and answers no marginal query, so every
    marginal reader collects its blocks and sums their rows, as for any
    backend of dense distributions. Records every state it is asked for."""

    def __init__(self, model):
        self.exact = ExactBackend(model)
        self.n = model.n
        self.asked = []

    def distributions(self, states):
        self.asked.extend(states)
        return self.exact.distributions(states)

    def descriptor(self):
        return self.exact.descriptor()


# the backends whose marginals are sums over collected blocks
DENSE_BACKENDS = {"dense": Dense, "sampled": BACKENDS["sampled"]}


@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("register", REGISTERS)
def test_uniform_family_asks_for_n_plus_one_states_once(register, b):
    m = REGISTERS[register]()
    counting = Dense(m)
    single_qubit_matrices(counting, Uniform(b))
    ones = (1 << m.n) - 1 if b else 0
    # the all-b state and its n single flips, each asked for once
    assert counting.asked == sorted({ones} | {ones ^ qubit_mask(i, m.n) for i in range(1, m.n + 1)})


def test_average_family_asks_for_each_distinct_state_once():
    # melbourne-c8 at k = 6: every filtered state of qubit 4's window 1..7
    # or qubit 5's window 2..8, 128 + 128 - 64 = 192 (a collection per
    # qubit asked for 480)
    m = melbourne_c8()
    counting = Dense(m)
    single_qubit_matrices(counting, Average(6), m.geometry)
    assert len(counting.asked) == len(set(counting.asked)) == 192


def per_state_single_qubit_matrices(backend, family, geometry=None) -> np.ndarray:
    """Every qubit's matrix from prob_zero over one one-state query per
    distinct prepared state, qubit by qubit and spectator by spectator: the
    reference the block-by-block collection must match bit for bit."""
    n = backend.n
    dists = {}
    mats = np.empty((n, 2, 2))
    for i in range(1, n + 1):
        q = qubit_mask(i, n)
        if isinstance(family, Uniform):
            specs = [((1 << n) - 1 if family.b else 0) & ~q]
        else:
            specs = submasks(chebyshev_mask(geometry, i, family.k) & ~q)
        for prep_bit, bit in enumerate((0, q)):
            p0 = 0.0
            for s in specs:
                if s | bit not in dists:
                    dists[s | bit] = backend.distributions([s | bit])[:, 0]
                p0 += prob_zero(dists[s | bit], i, n)
            p0 /= len(specs)
            mats[i - 1, :, prep_bit] = (p0, 1.0 - p0)
    return mats


@pytest.mark.parametrize("register", REGISTERS)
@pytest.mark.parametrize("kind", DENSE_BACKENDS)
@pytest.mark.parametrize(
    "family",
    [Uniform(0), Uniform(1), Average(2), Average(6)],
    ids=["uniform(0)", "uniform(1)", "average(k=2)", "average(k=6)"],
)
def test_single_qubit_matrices_equal_the_per_state_sums(register, kind, family):
    m = REGISTERS[register]()
    got = single_qubit_matrices(DENSE_BACKENDS[kind](m), family, m.geometry)
    want = per_state_single_qubit_matrices(DENSE_BACKENDS[kind](m), family, m.geometry)
    assert np.array_equal(got, want)


# -- one marginal reader ---------------------------------------------------


def one_state_zero(dist: np.ndarray, qubits: tuple, n: int) -> float:
    """P(every listed qubit reads 0) under one distribution: prob_zero for
    one qubit, prob_joint_zero for two, a bitstring-selected sum past that."""
    if len(qubits) == 1:
        return prob_zero(dist, *qubits, n)
    if len(qubits) == 2:
        return prob_joint_zero(dist, *qubits, n)
    return float(dist[reading_zero(n, *qubits)].sum())


def mask_of(qubits: tuple, n: int) -> int:
    return sum(qubit_mask(q, n) for q in qubits)


def marginal_queries(n: int) -> list:
    """(qubits, states) queries: a mask asked twice, duplicate and unsorted
    states within one query, an empty query and a three-qubit mask."""
    top = (1 << n) - 1
    return [
        ((1,), [5, 0, 5, 3, top]),
        ((2, n), [top, 1, 2, 1]),
        ((1,), [top, 6]),
        ((3,), []),
        ((1, 2, 3), list(range(top, -1, -3))),
    ]


def per_state_marginals(backend, queries) -> list:
    """Every query read state by state from one one-state query per distinct
    state: the reference zero_marginals must match bit for bit."""
    n = backend.n
    distinct = sorted({x for _, s in queries for x in s})
    dists = {x: backend.distributions([x])[:, 0] for x in distinct}
    return [np.array([one_state_zero(dists[x], q, n) for x in s]) for q, s in queries]


MARGINAL_BACKENDS = {
    **DENSE_BACKENDS,
    "replay": lambda m: ReplayBackend(
        record_dataset(SampledBackend(m, seed=9), range(1 << m.n), 4096)
    ),
}


@pytest.mark.parametrize("register", REGISTERS)
@pytest.mark.parametrize("kind", MARGINAL_BACKENDS)
def test_zero_marginals_equal_the_per_state_sums(register, kind):
    m = REGISTERS[register]()
    queries = marginal_queries(m.n)
    want = per_state_marginals(MARGINAL_BACKENDS[kind](m), queries)
    # one array per query, in the query's order, each state where it stands
    for order in (slice(None), slice(None, None, -1)):
        asked = [(mask_of(q, m.n), s) for q, s in queries[order]]
        got = zero_marginals(MARGINAL_BACKENDS[kind](m), asked)
        assert len(got) == len(queries)
        for g, w in zip(got, want[order]):
            assert np.array_equal(g, w)

def test_zero_marginals_of_no_queries_or_no_states_ask_for_nothing():
    counting = Dense(C4)
    assert zero_marginals(counting, []) == []
    (empty,) = zero_marginals(counting, [(qubit_mask(1, 4), [])])
    assert empty.shape == (0,) and empty.dtype == float
    assert counting.asked == []


def test_zero_marginals_ask_for_each_distinct_state_once_across_blocks():
    # n = 10: 256-state blocks, and the queries' 668 distinct states span three
    m = chain_model(10)
    queries = [
        ((1,), list(range(0, 1000, 2))),
        ((2,), list(range(999, -1, -3))),
        ((1, 2), [5, 5, 600, 0]),
        ((1,), [1023]),
    ]
    counting = Dense(m)
    got = zero_marginals(counting, [(mask_of(q, 10), s) for q, s in queries])
    distinct = sorted({x for _, s in queries for x in s})
    assert len(distinct) > 2 * sweep_width(10)
    assert counting.asked == distinct
    for g, w in zip(got, per_state_marginals(ExactBackend(m), queries)):
        assert np.array_equal(g, w)


# models whose marginals the exact backend reads from their tables; the
# chain's triples lie on (1, 2, 3), (2, 3, 4) and (4, 5, 6)
CLOSED_FORM_MODELS = {
    **REGISTERS,
    "chain10": lambda: chain_model(10),
    "grid3x3": grid3x3_spectator_model,
    "correlated_chain6-triples": lambda: correlated_chain6(
        triples={(1, 2, 3): 1e-5, (2, 3, 4): -2e-5, (4, 5, 6): 1.5e-5}
    ),
}


@pytest.mark.parametrize("name", CLOSED_FORM_MODELS)
def test_closed_form_marginals_equal_the_per_state_sums_within_1e_15(name):
    m = CLOSED_FORM_MODELS[name]()
    queries = marginal_queries(m.n) + [((2, 3, 4), [0, (1 << m.n) - 1, 0b0110 << (m.n - 4)])]
    want = per_state_marginals(Dense(m), queries)
    exact = ExactBackend(m)
    asked = [(mask_of(q, m.n), s) for q, s in queries]
    for got in (zero_marginals(exact, asked),
                [m.tables.zero_marginal(mask, s) for mask, s in asked]):
        assert len(got) == len(queries)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == float
            assert np.abs(g - w).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("state", [-1, 1 << 4, 1 << 5])
def test_closed_form_marginals_reject_a_state_as_the_dense_path_does(state):
    queries = [(qubit_mask(1, 4), [0, state]), (mask_of((2, 3), 4), [state])]
    with pytest.raises(ValidationError) as dense:
        zero_marginals(Dense(C4), queries)
    with pytest.raises(ValidationError) as exact:
        zero_marginals(ExactBackend(C4), queries)
    assert str(exact.value) == str(dense.value) == (
        f"prepared state {state} is out of range: the register has 4 qubits"
    )


class Recording(ExactBackend):
    """An exact backend that records every state its block query is asked for."""

    def __init__(self, model):
        super().__init__(model)
        self.asked = []

    def distributions(self, states):
        self.asked.extend(states)
        return super().distributions(states)


MARGINAL_READERS = {
    "estimate": lambda b, m: estimate_transition_matrix(b, m.geometry, 2),
    "uniform(1)": lambda b, m: single_qubit_matrices(b, Uniform(1)),
    "average(k=2)": lambda b, m: single_qubit_matrices(b, Average(2), m.geometry),
    "correlators": lambda b, m: correlator_report(b, 0b0101),
}


@pytest.mark.parametrize("reader", MARGINAL_READERS)
@pytest.mark.parametrize("make", [melbourne_c4, lambda: chain_model(12)], ids=["n4", "n12"])
def test_the_exact_backend_draws_no_column_for_a_marginal_up_to_n_12(make, reader):
    m = make()
    recording = Recording(m)
    MARGINAL_READERS[reader](recording, m)
    assert recording.asked == []


def test_the_exact_backend_draws_checked_columns_for_marginals_at_n_13():
    m = random_model(2, n=13, with_triples=True)
    recording = Recording(m)
    single_qubit_matrices(recording, Uniform(0))
    correlator_report(recording)
    flips = [qubit_mask(i, 13) for i in range(1, 14)]
    assert recording.asked == sorted([0, *flips]) * 2
    # the drawn columns are checked, so an invalid model is rejected
    invalid = Recording(invalid_chain13())
    with pytest.raises(ValidationError, match="negative probability"):
        estimate_transition_matrix(invalid, invalid.model.geometry, 0)
    assert invalid.asked


def count_summed_rows(monkeypatch) -> Counter:
    """Rows summed per mask by every block_zero call from now on."""
    summed = Counter()

    def counted(rows, mask, n, sel):
        summed[mask] += len(sel)
        return block_zero(rows, mask, n, sel)

    monkeypatch.setattr(characterize, "block_zero", counted)
    return summed


@pytest.mark.parametrize(
    "make, k", [(melbourne_c8, 2), (lambda: chain_model(10), 2)], ids=["melbourne-c8", "chain10"]
)
def test_the_estimate_sums_each_distinct_marginal_once(monkeypatch, make, k):
    m = make()
    n = m.n
    summed = count_summed_rows(monkeypatch)
    _t, tables = estimate_transition_matrix(Dense(m), m.geometry, k)
    reads = {}  # mask -> every state a table reads its read-0 marginal at
    for i, mask in tables.single_masks.items():
        reads.setdefault(qubit_mask(i, n), set()).update(submasks(mask))
    for (i, j), mask in tables.pair_masks.items():
        for q in (qubit_mask(i, n), qubit_mask(j, n), mask_of((i, j), n)):
            reads.setdefault(q, set()).update(submasks(mask))
    assert summed == {q: len(states) for q, states in reads.items()}
    assert sum(summed.values()) < sum(
        len(submasks(mask)) for mask in tables.single_masks.values()
    ) + 3 * sum(len(submasks(mask)) for mask in tables.pair_masks.values())


@pytest.mark.parametrize(
    "make, k", [(melbourne_c8, 6), (lambda: chain_model(10), 2)], ids=["melbourne-c8", "chain10"]
)
def test_the_averaged_family_sums_each_distinct_marginal_once(monkeypatch, make, k):
    m = make()
    summed = count_summed_rows(monkeypatch)
    single_qubit_matrices(Dense(m), Average(k), m.geometry)
    # each qubit reads every preparation of its window once: every
    # spectator preparation with the qubit in 0 and in 1
    assert summed == {
        qubit_mask(i, m.n): len(submasks(chebyshev_mask(m.geometry, i, k)))
        for i in range(1, m.n + 1)
    }


def test_tprod_of_product_model_is_exact():
    m = melbourne_c4_product()
    t = t_prod(single_qubit_matrices(ExactBackend(m), Uniform(0)))
    np.testing.assert_allclose(t.data, m.full_matrix().data, atol=1e-13)


def kron_t_prod(matrices) -> np.ndarray:
    """T_prod as a Kronecker product of the per-qubit matrices, qubit 1
    outermost: the reference the local-form assembly must match."""
    t = np.ones((1, 1))
    for mat in matrices:
        t = np.kron(t, mat)
    return t


@pytest.mark.parametrize("register", REGISTERS)
@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize(
    "family",
    [Uniform(0), Uniform(1), Average(2), Average(6)],
    ids=["uniform(0)", "uniform(1)", "average(k=2)", "average(k=6)"],
)
def test_tprod_bitwise_equals_the_kronecker_product(register, kind, family):
    m = REGISTERS[register]()
    matrices = single_qubit_matrices(BACKENDS[kind](m), family, m.geometry)
    assert np.array_equal(t_prod(matrices).data, kron_t_prod(matrices))


def test_tprod_leaves_the_callers_matrices_writable():
    # its tables freeze rows of the caller's array, which stays writable
    matrices = single_qubit_matrices(ExactBackend(melbourne_c4_product()), Uniform(0))
    t = t_prod(matrices)
    assert matrices.flags.writeable
    matrices[0] = np.eye(2)
    assert not np.array_equal(t.data, kron_t_prod(matrices))


@pytest.mark.parametrize("shape", [(0, 2, 2), (4, 2), (4, 2, 3), (4, 3, 2), (1, 4, 2, 2)])
def test_tprod_rejects_an_array_that_is_not_n_by_2_by_2(shape):
    with pytest.raises(ValidationError, match=r"\(n, 2, 2\)"):
        t_prod(np.full(shape, 0.5))


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


def loop_correlator_report(backend, xprime: int = 0) -> CorrelatorReport:
    """The correlators read marginal by marginal, in three loops: the
    reference the one-read-per-state report must match byte for byte."""
    n = backend.n
    preps = [0, xprime] + [qubit_mask(j, n) for j in range(1, n + 1)]
    blocks = collect(backend, sorted(set(preps)))
    dists = {x: d for _start, states, block in blocks for x, d in zip(states, block.T)}
    base = dists[0]
    a = np.zeros((n, n))
    b = {}
    for i in range(1, n + 1):
        p0_base = prob_zero(base, i, n)
        for j in range(1, n + 1):
            if i != j:
                a[i - 1, j - 1] = p0_base - prob_zero(dists[qubit_mask(j, n)], i, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            joint_base = prob_joint_zero(base, i, j, n)
            for l in range(1, n + 1):
                if l not in (i, j):
                    b[(i, j, l)] = joint_base - prob_joint_zero(
                        dists[qubit_mask(l, n)], i, j, n
                    )
    c = {}
    dist_x = dists[xprime]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c[(i, j, xprime)] = prob_joint_zero(dist_x, i, j, n) - prob_zero(
                dist_x, i, n
            ) * prob_zero(dist_x, j, n)
    return CorrelatorReport(n, a, b, c, circuits_used=len(dists))


@pytest.mark.parametrize("register", REGISTERS)
@pytest.mark.parametrize("kind", DENSE_BACKENDS)
@pytest.mark.parametrize("xprime", [0b0000, 0b0101, 0b1111], ids=["0", "0101", "1111"])
def test_correlator_report_is_byte_equal_to_the_loop_reference(register, kind, xprime):
    m = REGISTERS[register]()
    got = correlator_report(DENSE_BACKENDS[kind](m), xprime)
    want = loop_correlator_report(DENSE_BACKENDS[kind](m), xprime)
    assert got.to_json() == want.to_json()
    assert got.single_shift_csv() == want.single_shift_csv()


@pytest.mark.parametrize("xprime, states", [(0b0000, 5), (0b0101, 6)])
def test_correlator_report_reads_each_prepared_state_once(monkeypatch, xprime, states):
    summed = count_summed_rows(monkeypatch)
    assert correlator_report(Dense(C4), xprime).circuits_used == states
    # n read-0 values and n(n-1)/2 joint read-0 values per distinct state
    masks = [qubit_mask(i, 4) for i in range(1, 5)]
    masks += [mask_of((i, j), 4) for i in range(1, 5) for j in range(i + 1, 5)]
    assert summed == {q: states for q in masks}


# a replay dataset of melbourne-c4 without these prepared states
LACKING = [0b0000, 0b0010, 0b0101, 0b1011, 0b1111]


@pytest.mark.parametrize(
    "measure",
    [
        lambda b: single_qubit_matrices(b, Uniform(0)),
        lambda b: single_qubit_matrices(b, Uniform(1)),
        lambda b: single_qubit_matrices(b, Average(2), C4.geometry),
        lambda b: correlator_report(b, 0b0101),
    ],
    ids=["uniform(0)", "uniform(1)", "average(k=2)", "correlators"],
)
def test_a_replay_dataset_lacking_states_fails_once_naming_all(measure):
    counting = Dense(C4)
    measure(counting)
    lacking = sorted(set(counting.asked) & set(LACKING))
    assert len(lacking) >= 2
    kept = [x for x in range(16) if x not in LACKING]
    replay = ReplayBackend(record_dataset(SampledBackend(C4, seed=0), kept, 64))
    with pytest.raises(MissingDataError) as info:
        measure(replay)
    assert info.value.missing == lacking


def test_report_serialization(tmp_path):
    rep = correlator_report(backend())
    obj = json.loads(rep.to_json())
    assert set(obj) == {"A", "B", "C", "circuits_used"}
    assert obj["A"][3][0] == pytest.approx(0.047)
    csv_text = rep.single_shift_csv(tmp_path / "a.csv")
    lines = csv_text.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("i\\j")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Uniform(2), "uniform spectator value must be 0/1, got 2"),
        (lambda: single_qubit_matrices(backend(), "average"),
         "unknown single-qubit family 'average'"),
    ],
    ids=["uniform-2", "unknown-family"],
)
def test_an_invalid_family_raises_its_message(make, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()
