import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from spamcal.assembly import BLOCK, kron_columns
from spamcal.backends import ExactBackend
from spamcal.bits import support_mask
from spamcal.errors import ValidationError
from spamcal.geometry import RegisterGeometry
from spamcal.model import (
    PRESETS,
    NoiseModel,
    identity_model,
    melbourne_c4,
    melbourne_c4_product,
    melbourne_c8,
)
from spamcal.norms import symmetric_single_qubit
from test_acceptance import correlated_chain6


def brute_column(model, xprime):
    """Reference evaluation of the generative formula, outcome by outcome."""
    n = model.n
    xp = [(xprime >> (n - i)) & 1 for i in range(1, n + 1)]

    def mean0(i):
        m = model.base[i - 1][0, xp[i - 1]]
        for (a, b), v in model.shifts.items():
            if a == i and xp[b - 1] == 1:
                m -= v
        return m

    def mean(i, bit):
        return mean0(i) if bit == 0 else 1.0 - mean0(i)

    def cval(i, j):
        c = model.pair_cov.get((i, j))
        c = 0.0 if c is None else c[xp[i - 1], xp[j - 1]]
        for (a, b, l), v in model.spectator_cov.items():
            if (a, b) == (i, j) and xp[l - 1] == 1:
                c += v
        return c

    out = []
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        for i in range(1, n + 1):
            p *= mean(i, bits[i - 1])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                c = cval(i, j)
                if c:
                    term = (-1.0) ** (bits[i - 1] + bits[j - 1]) * c
                    for l in range(1, n + 1):
                        if l not in (i, j):
                            term *= mean(l, bits[l - 1])
                    p += term
        for (i, j, k), g in model.triples.items():
            term = (-1.0) ** (bits[i - 1] + bits[j - 1] + bits[k - 1]) * g
            for l in range(1, n + 1):
                if l not in (i, j, k):
                    term *= mean(l, bits[l - 1])
            p += term
        out.append(p)
    return np.array(out)


def random_model(seed, n=4, with_triples=False):
    rng = np.random.default_rng(seed)
    g = RegisterGeometry.chain(n)
    base = np.array([symmetric_single_qubit(e) for e in rng.uniform(0.05, 0.15, n)])
    shifts = {
        (i, i + 1): rng.uniform(0, 0.01) for i in range(1, n)
    }
    cov = {(i, i + 1): rng.uniform(-2e-4, 2e-4, (2, 2)) for i in range(1, n)}
    triples = {(1, 2, 3): 1e-5} if with_triples else {}
    return NoiseModel(
        g, base, shifts=shifts, shift_range=1, pair_cov=cov, cov_range=1,
        triples=triples,
    )


def test_identity_model_delta_columns():
    m = identity_model(3)
    for c in range(8):
        col = m.column(c)
        expected = np.zeros(8)
        expected[c] = 1.0
        np.testing.assert_allclose(col, expected, atol=1e-15)
    np.testing.assert_allclose(m.full_matrix().data, np.eye(8), atol=1e-15)


def test_product_model_equals_kron():
    m = melbourne_c4_product()
    t = m.full_matrix().data
    kron = np.ones((1, 1))
    for i in range(4):
        kron = np.kron(kron, m.base[i])
    np.testing.assert_allclose(t, kron, atol=1e-14)


def test_pair_term_two_qubit():
    g = RegisterGeometry.chain(2)
    base = np.tile(np.eye(2), (2, 1, 1)) * 0.98 + 0.01
    cov = {(1, 2): 1e-4 * np.ones((2, 2))}
    m = NoiseModel(g, base, pair_cov=cov)
    x = 0b00
    col = m.column(x)
    m_prod = NoiseModel(g, base).column(x)
    assert col.sum() == pytest.approx(1.0, abs=1e-12)
    # the pair weight adds to the aligned outcome
    assert col[0] - m_prod[0] == pytest.approx(1e-4)
    np.testing.assert_allclose(col, brute_column(m, x), atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_columns_match_bruteforce(seed):
    m = random_model(seed, with_triples=(seed % 2 == 0))
    for c in range(1 << m.n):
        np.testing.assert_allclose(m.column(c), brute_column(m, c), atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_columns_normalized(seed):
    m = random_model(seed)
    t = m.full_matrix().data
    np.testing.assert_allclose(t.sum(axis=0), 1.0, atol=1e-12)


def test_pair_terms_sum_to_zero():
    # correlation corrections never change a column sum
    m = random_model(3)
    m_uncorr = NoiseModel(m.geometry, m.base, shifts=m.shifts, shift_range=1)
    for c in range(1 << m.n):
        diff = m.column(c) - m_uncorr.column(c)
        assert abs(diff.sum()) < 1e-13


def test_negative_probability_rejected():
    g = RegisterGeometry.chain(2)
    base = np.array([symmetric_single_qubit(0.02)] * 2)
    with pytest.raises(ValidationError, match="negative probability"):
        NoiseModel(g, base, shifts={(1, 2): 0.9}, shift_range=1)


def invalid_chain13():
    """Within every table bound, so accepted at construction (n > 12 is not
    enumerated), but P(qubits 1, 2 read 00) = 0.02 * 0.99 - 0.05 < 0 once
    qubit 1 is prepared 1 and qubit 2 is prepared 0."""
    base = np.array([[[0.99, 0.02], [0.01, 0.98]]] * 13)
    return NoiseModel(
        RegisterGeometry.chain(13), base, pair_cov={(1, 2): [[0, 0], [-0.05, 0]]}
    )


def test_invalid_model_rejected_when_drawn_beyond_oracle_limit():
    backend = ExactBackend(invalid_chain13())
    assert backend.distribution(0).min() >= 0.0
    assert backend.distribution(1 << 11).min() >= 0.0
    with pytest.raises(ValidationError, match="negative probability"):
        backend.distribution(1 << 12)


def bounded_chain(n, **terms):
    base = np.array([symmetric_single_qubit(0.05)] * n)
    return NoiseModel(RegisterGeometry.chain(n), base, shift_range=1, cov_range=1, **terms)


@pytest.mark.parametrize("n", [4, 13, 40])
@pytest.mark.parametrize(
    "terms, error",
    [
        ({"shifts": {(2, 1): -0.06}}, r"'2\|10\d*' lies outside \[0, 1\]: 1.01"),
        ({"shifts": {(2, 3): 2.0}}, r"'2\|001\d*' lies outside \[0, 1\]: -1.05"),
        ({"pair_cov": {(1, 2): [[0.3, 0], [0, 0]]}}, r"'1,2\|00\d*' lies outside \[-0.25, 0.25\]"),
        (
            {"pair_cov": {(2, 3): np.zeros((2, 2))}, "spectator_cov": {(2, 3, 1): -0.26}},
            r"'2,3\|100\d*' lies outside \[-0.25, 0.25\]: -0.26",
        ),
        ({"spectator_cov": {(2, 3, 4): np.nan}}, r"'2,3\|000\d*' lies outside .*: nan"),
        ({"triples": {(1, 2, 3): np.nan}}, r"triples\[1,2,3\] has a non-finite value nan"),
    ],
    ids=["mean-above-1", "mean-below-0", "pair-above", "pair-below", "nan-spectator", "nan-triple"],
)
def test_table_bounds_rejected_at_construction_at_every_n(n, terms, error):
    with pytest.raises(ValidationError, match=error):
        bounded_chain(n, **terms)


@pytest.mark.parametrize(
    "terms, error",
    [
        ({"shifts": {(1, 1): 0.01}}, r"bad shift index pair \(1, 1\)"),
        ({"shifts": {(0, 2): 0.01}}, r"bad shift index pair \(0, 2\)"),
        ({"shifts": {(4, 5): 0.01}}, r"bad shift index pair \(4, 5\)"),
        ({"pair_cov": {(2, 1): np.zeros((2, 2))}}, r"pair_cov keys need i < j, got \(2, 1\)"),
        ({"pair_cov": {(3, 5): np.zeros((2, 2))}}, r"pair_cov keys need i < j, got \(3, 5\)"),
        ({"spectator_cov": {(1, 2, 2): 1e-5}}, r"bad spectator_cov index \(1, 2, 2\)"),
        ({"spectator_cov": {(2, 1, 3): 1e-5}}, r"bad spectator_cov index \(2, 1, 3\)"),
        ({"spectator_cov": {(1, 2, 5): 1e-5}}, r"bad spectator_cov index \(1, 2, 5\)"),
        ({"triples": {(1, 3, 2): 1e-5}}, r"triple keys need i < j < k, got \(1, 3, 2\)"),
        ({"triples": {(2, 3, 5): 1e-5}}, r"triple keys need i < j < k, got \(2, 3, 5\)"),
        ({"shifts": {(1, 3): 1e-3}}, r"shift\[1,3\]=0.001 exceeds declared range 1"),
        (
            {"spectator_cov": {(1, 2, 4): 1e-5}},
            r"spectator_cov\[1,2,4\]=1e-05 exceeds declared range 1",
        ),
        # the index rule holds for 0.0 entries too, the range rule does not
        ({"shifts": {(4, 5): 0.0}}, r"bad shift index pair \(4, 5\)"),
        ({"spectator_cov": {(1, 2, 2): 0.0}}, r"bad spectator_cov index \(1, 2, 2\)"),
        ({"shifts": {(1, 4): 0.0}, "spectator_cov": {(1, 2, 4): 0.0}}, None),
    ],
)
def test_each_entry_rule_names_the_entry(terms, error):
    if error is None:
        m = bounded_chain(4, **terms)
        assert np.array_equal(m.full_matrix().data, bounded_chain(4).full_matrix().data)
        return
    with pytest.raises(ValidationError, match=error):
        bounded_chain(4, **terms)


def test_out_of_range_shift_rejected():
    g = RegisterGeometry.chain(4)
    base = np.array([symmetric_single_qubit(0.05)] * 4)
    with pytest.raises(ValidationError, match="range"):
        NoiseModel(g, base, shifts={(4, 1): 0.01}, shift_range=1)


def test_oracle_limit():
    m = identity_model(4)
    with pytest.raises(ValidationError, match="oracle limit"):
        m.full_matrix(limit=3)


def test_json_round_trip(tmp_path):
    m = melbourne_c8()
    path = tmp_path / "model.json"
    m.to_json(path)
    m2 = NoiseModel.from_json(path)
    np.testing.assert_array_equal(m.base, m2.base)
    assert m.shifts == m2.shifts
    assert set(m.pair_cov) == set(m2.pair_cov)
    for key in m.pair_cov:
        np.testing.assert_array_equal(m.pair_cov[key], m2.pair_cov[key])
    np.testing.assert_allclose(
        m.full_matrix().data, m2.full_matrix().data, atol=0
    )


def test_presets_validate():
    for m, n in ((melbourne_c4(), 4), (melbourne_c4_product(), 4), (melbourne_c8(), 8)):
        assert m.n == n
        t = m.full_matrix().data
        assert np.min(t) >= -1e-12


def test_nan_in_base_rejected():
    base = np.stack([symmetric_single_qubit(0.05)] * 3)
    base[1, 0, 1] = np.nan
    with pytest.raises(ValidationError, match="nan"):
        NoiseModel(RegisterGeometry.chain(3), base)


def test_nan_shift_rejected():
    base = np.stack([symmetric_single_qubit(0.05)] * 3)
    with pytest.raises(ValidationError, match="nan"):
        NoiseModel(RegisterGeometry.chain(3), base, shifts={(1, 2): np.nan}, shift_range=1)


def reference_columns(model, cols):
    """T[:, cols] from per-column terms, as the model built them before it
    kept its own tables: every qubit's mean summed over the bits of all n
    prepared qubits, then pairs, then triples, each in sorted order."""
    n = model.n
    cols = np.asarray(cols)
    bits = (cols[:, None] >> np.arange(n - 1, -1, -1)) & 1  # (cols, n)
    shift = np.zeros((n, n))
    for (i, j), v in model.shifts.items():
        shift[i - 1, j - 1] = v
    read0 = model.base[np.arange(n), 0, bits] - (bits[:, None, :] * shift).sum(-1)
    terms = [((), np.ones(len(cols)))]
    pairs = set(model.pair_cov) | {(i, j) for (i, j, _l) in model.spectator_cov}
    for (i, j) in sorted(pairs):
        c = np.zeros(len(cols))
        if (i, j) in model.pair_cov:
            c += model.pair_cov[(i, j)][bits[:, i - 1], bits[:, j - 1]]
        for (a, b, l), v in model.spectator_cov.items():
            if (a, b) == (i, j):
                c += v * bits[:, l - 1]
        terms.append(((i - 1, j - 1), c))
    for (i, j, k), g in sorted(model.triples.items()):
        terms.append(((i - 1, j - 1, k - 1), np.full(len(cols), g)))
    return kron_columns(read0, terms)


def grid3x3_spectator_model():
    """A 3x3 grid with shifts from every Chebyshev neighbour (3 to 8 shift
    sources per qubit), nearest-neighbour covariances with spectators, and
    two triples."""
    g = RegisterGeometry.grid(3, 3)
    rng = np.random.default_rng(11)
    e0, e1 = rng.uniform(0.02, 0.05, 9), rng.uniform(0.04, 0.09, 9)
    base = np.array([[[1 - a, b], [a, 1 - b]] for a, b in zip(e0, e1)])
    near = [
        (i, j) for i in range(1, 10) for j in range(1, 10)
        if i != j and g.chebyshev(i, j) == 1
    ]
    shifts = {ij: float(v) for ij, v in zip(near, rng.uniform(-1e-3, 5e-3, len(near)))}
    pairs = [(i, j) for i, j in near if i < j]
    cov = {ij: rng.uniform(0.0, 2e-4, (2, 2)) for ij in pairs}
    spectators = {(1, 2, 5): 3e-5, (4, 5, 8): -2e-5, (5, 6, 2): 4e-5, (5, 6, 9): 1e-5}
    return NoiseModel(
        g, base, shifts=shifts, shift_range=1, pair_cov=cov,
        spectator_cov=spectators, cov_range=1,
        triples={(1, 2, 5): 1e-5, (4, 5, 6): -1e-5},
    )


def chain_model(n):
    """A chain with shifts from both neighbours, neighbour covariances and
    one spectator covariance; valid as drawn at n <= 10."""
    rng = np.random.default_rng(n)
    base = np.array([symmetric_single_qubit(e) for e in rng.uniform(0.03, 0.06, n)])
    shifts = {(i, i + 1): 0.005 for i in range(1, n)}
    shifts.update({(i + 1, i): 0.004 for i in range(1, n)})
    cov = {(i, i + 1): 5e-5 * np.ones((2, 2)) for i in range(1, n)}
    return NoiseModel(
        RegisterGeometry.chain(n), base, shifts=shifts, shift_range=1, pair_cov=cov,
        spectator_cov={(2, 3, 4): 2e-5}, cov_range=1,
    )


REFERENCE_MODELS = {
    **{f"random{seed}": lambda seed=seed: random_model(seed) for seed in range(2)},
    **{
        f"random{seed}-n6-triples": lambda seed=seed: random_model(seed, 6, True)
        for seed in range(2)
    },
    "correlated_chain6": correlated_chain6,
    "correlated_chain6-triples": lambda: correlated_chain6(
        triples={(1, 2, 3): 1e-5, (2, 3, 4): -2e-5, (4, 5, 6): 1.5e-5}
    ),
    "grid3x3-spectators": grid3x3_spectator_model,
    "chain10": lambda: chain_model(10),
    **PRESETS,
}


@pytest.mark.parametrize("name", REFERENCE_MODELS)
def test_columns_bitwise_equal_the_per_column_term_builder(name):
    m = REFERENCE_MODELS[name]()
    cols = np.arange(1 << m.n)
    assert np.array_equal(m.full_matrix().data, reference_columns(m, cols))


def test_a_drawn_block_beyond_the_oracle_limit_equals_the_term_builder():
    m = random_model(2, n=13, with_triples=True)
    cols = np.arange(0, 1 << 13, 128)
    assert cols.size == BLOCK
    assert np.array_equal(ExactBackend(m).distributions(cols), reference_columns(m, cols))


def test_model_tables_hold_every_term_with_its_mask():
    m = grid3x3_spectator_model()
    tables = m.tables
    assert tables.k is None
    assert tables.single_masks[5] == (1 << 9) - 1  # the centre reads all eight
    assert tables.pair_masks[(5, 6)] == support_mask((2, 5, 6, 9), 9)
    assert tables.pair_masks[(4, 5, 6)] == support_mask((4, 5, 6), 9)
    np.testing.assert_array_equal(tables.pair_fluct[(4, 5, 6)], np.full(8, -1e-5))
    # a term the model does not have is absent, not a table of zeros
    assert (1, 9) not in tables.pair_masks


@pytest.mark.parametrize("n, rows", [(40, 472), (100, 1192)])
def test_tables_at_scale_hold_one_row_per_filtered_state(n, rows):
    m = chain_model(n)
    tracemalloc.start()
    try:
        tables = m.tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [
        (len(table[q]), masks[q])
        for table, masks in (
            (tables.mean_fields, tables.single_masks),
            (tables.pair_fluct, tables.pair_masks),
        )
        for q in masks
    ]
    assert all(size == 2 ** bin(mask).count("1") for size, mask in sizes)
    assert sum(size for size, _mask in sizes) == rows
    # the masks name qubits beyond bit 63, and nothing of size 2^n is built
    assert tables.single_masks[1].bit_length() == n
    assert peak < 1 << 20


def with_zero_entries(m: NoiseModel) -> NoiseModel:
    """The model plus 0.0 entries: shifts of qubit 1 from every qubit, and
    spectator covariances of (2, 3) from every other qubit and of (1, 3), a
    pair with no other term, from qubit 2. Entries the model has win."""
    n = m.n
    shifts = {(1, j): 0.0 for j in range(2, n + 1)}
    spectators = {(2, 3, l): 0.0 for l in range(1, n + 1) if l not in (2, 3)}
    spectators[(1, 3, 2)] = 0.0
    return dataclasses.replace(
        m, shifts=shifts | m.shifts, spectator_cov=spectators | m.spectator_cov
    )


@pytest.mark.parametrize("n", [4, 10])
def test_zero_entries_leave_the_tables_and_t_unchanged(n):
    m, z = chain_model(n), with_zero_entries(chain_model(n))
    assert z.tables.single_masks == m.tables.single_masks
    assert z.tables.pair_masks == m.tables.pair_masks
    assert np.array_equal(z.full_matrix().data, m.full_matrix().data)


def test_zero_entries_do_not_widen_the_tables_at_scale():
    m = chain_model(40)
    tracemalloc.start()
    try:
        tables = with_zero_entries(m).tables  # built by the construction traced
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert tables.single_masks[1] == support_mask((1, 2), 40)
    assert sum(map(len, tables.mean_fields.values())) + sum(
        map(len, tables.pair_fluct.values())
    ) == 472


def test_construction_at_scale_holds_no_n_by_n_array():
    identity_model(3000)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        identity_model(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n x n float array alone is 68.7 MiB
    assert peak < 16 << 20
