import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spamcal import assembly
from spamcal.assembly import BLOCK, kron_columns
from spamcal.bits import submasks
from spamcal.model import melbourne_c8


def per_term_kron_columns(read0, terms):
    """Reference kernel: builds each term's product of means from scratch and
    adds it, times the term's coefficient and (-1)^(sum of the outcome bits),
    into one slice of a zeroed block accumulator per outcome of the term's
    qubits, term by term."""
    cols, n = read0.shape
    out = np.empty((1 << n, cols))
    for start in range(0, cols, BLOCK):
        blk = slice(start, start + BLOCK)
        p = read0[blk].T
        m = np.stack([p, 1.0 - p], axis=1)  # (n, 2, block)
        block = m.shape[-1]
        acc = np.zeros((2,) * n + (block,))
        for qubits, coefficient in terms:
            v = np.ones((1, block))
            for l in range(n):
                if l not in qubits:
                    v = (v[:, None, :] * m[l]).reshape(-1, block)
            v = v.reshape((2,) * (n - len(qubits)) + (block,)) * coefficient[blk]
            for bits in itertools.product((0, 1), repeat=len(qubits)):
                slot = [slice(None)] * n
                for q, b in zip(qubits, bits):
                    slot[q] = b
                acc[tuple(slot)] += v if sum(bits) % 2 == 0 else -v
        out[:, blk] = acc.reshape(-1, block)
    return out


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
    # more columns than one block: each column equals its own one-column call
    rng = np.random.default_rng(3)
    cols = BLOCK + 5
    read0, pairs, covs = random_inputs(rng, 4, cols)
    terms = mean_term(cols) + pair_terms(pairs, covs)
    t = kron_columns(read0, terms)
    for c in itertools.chain(range(3), range(BLOCK - 1, cols)):
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
    """read0 in [0, 1], with exact 0s and 1s among it, and terms on 0 to 3
    qubits of n <= 6 with coefficients in [low, high], some constant over
    the columns as the model's triples are, for column counts on both sides
    of BLOCK."""
    n = draw(st.integers(1, 6))
    cols = draw(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    read0 = rng.uniform(0.0, 1.0, (cols, n))
    read0[rng.random((cols, n)) < 0.1] = rng.integers(0, 2)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(0, min(3, n)))
        qubits = tuple(sorted(draw(st.permutations(range(n)))[:size]))
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
