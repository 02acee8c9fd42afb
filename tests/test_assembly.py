import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spamcal.assembly import BLOCK, kron_columns


def per_term_kron_columns(means, terms):
    """Reference kernel: the previous kron_columns, which builds each term's
    product of means from scratch and adds the terms in order into a zeroed
    block accumulator."""
    cols, n, _ = means.shape
    out = np.empty((1 << n, cols))
    for start in range(0, cols, BLOCK):
        blk = slice(start, start + BLOCK)
        m = np.ascontiguousarray(means[blk].transpose(1, 2, 0))  # (n, 2, block)
        block = m.shape[-1]
        acc = np.zeros((2,) * n + (block,))
        for qubits, weights in terms:
            v = np.ones((1, block))
            for l in range(n):
                if l not in qubits:
                    v = (v[:, None, :] * m[l]).reshape(-1, block)
            v = v.reshape((2,) * (n - len(qubits)) + (block,))
            w = np.ascontiguousarray(np.moveaxis(weights[blk], 0, -1))
            tmp = np.empty_like(v)
            # one slice of the accumulator per outcome of the term's qubits
            for bits in itertools.product((0, 1), repeat=len(qubits)):
                slot = [slice(None)] * n
                for q, b in zip(qubits, bits):
                    slot[q] = b
                np.multiply(v, w[bits], out=tmp)
                acc[tuple(slot)] += tmp
        out[:, blk] = acc.reshape(-1, block)
    return out


def random_inputs(rng, n, cols=1, signed=False):
    m0 = rng.uniform(0.7, 1.0, (cols, n))
    means = np.stack([m0, 1.0 - m0], axis=-1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if signed:
        # indicator-covariance structure: c * (-1)^(bi+bj)
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
        covs = rng.uniform(-3e-4, 3e-4, (cols, len(pairs)))[..., None, None] * sign
    else:
        covs = rng.uniform(-3e-4, 3e-4, (cols, len(pairs), 2, 2))
    return means, pairs, covs


def mean_term(cols):
    return [((), np.ones(cols))]


def pair_terms(pairs, covs):
    return [(pair, covs[:, p]) for p, pair in enumerate(pairs)]


def brute_mean_column(means):
    n = means.shape[0]
    out = np.empty(1 << n)
    for x in range(1 << n):
        p = 1.0
        for l in range(n):
            p *= means[l, (x >> (n - 1 - l)) & 1]
        out[x] = p
    return out


def brute_pair_column(means, pairs, covs):
    n = means.shape[0]
    out = np.zeros(1 << n)
    for x in range(1 << n):
        for p, (i, j) in enumerate(pairs):
            bi = (x >> (n - 1 - i)) & 1
            bj = (x >> (n - 1 - j)) & 1
            # covs is already indexed by the outcome bits, so no extra sign
            term = covs[p, bi, bj]
            for l in range(n):
                if l not in (i, j):
                    term *= means[l, (x >> (n - 1 - l)) & 1]
            out[x] += term
    return out


def brute_triple_column(means, triple, weight):
    n = means.shape[0]
    out = np.zeros(1 << n)
    for x in range(1 << n):
        bits = [(x >> (n - 1 - l)) & 1 for l in range(n)]
        term = weight[tuple(bits[q] for q in triple)]
        for l in range(n):
            if l not in triple:
                term *= means[l, bits[l]]
        out[x] = term
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 4, 7])
def test_kernels_match_bruteforce(seed, n):
    rng = np.random.default_rng(seed)
    cols = 3
    means, pairs, covs = random_inputs(rng, n, cols)
    t_mean = kron_columns(means, mean_term(cols))
    t_pair = kron_columns(means, pair_terms(pairs, covs))
    for c in range(cols):
        np.testing.assert_allclose(t_mean[:, c], brute_mean_column(means[c]), atol=1e-14)
        np.testing.assert_allclose(
            t_pair[:, c], brute_pair_column(means[c], pairs, covs[c]), atol=1e-14
        )


@pytest.mark.parametrize("triple", [(0, 1, 2), (0, 2, 4), (2, 3, 4)])
def test_triple_term_matches_bruteforce(triple):
    rng = np.random.default_rng(7)
    n, cols = 5, 2
    means, _, _ = random_inputs(rng, n, cols)
    weights = rng.uniform(-1e-4, 1e-4, (cols, 2, 2, 2))
    t = kron_columns(means, [(triple, weights)])
    for c in range(cols):
        np.testing.assert_allclose(
            t[:, c], brute_triple_column(means[c], triple, weights[c]), atol=1e-15
        )


def test_blocks_do_not_change_columns():
    # more columns than one block: each column equals its own one-column call
    rng = np.random.default_rng(3)
    cols = BLOCK + 5
    means, pairs, covs = random_inputs(rng, 4, cols)
    terms = mean_term(cols) + pair_terms(pairs, covs)
    t = kron_columns(means, terms)
    for c in itertools.chain(range(3), range(BLOCK - 1, cols)):
        one = [(q, w[c:c + 1]) for q, w in terms]
        np.testing.assert_array_equal(t[:, c], kron_columns(means[c:c + 1], one)[:, 0])


def test_mean_column_normalized():
    rng = np.random.default_rng(0)
    means, _, _ = random_inputs(rng, 5)
    assert kron_columns(means, mean_term(1)).sum() == pytest.approx(1.0, abs=1e-12)


def test_pair_column_sums_to_zero():
    rng = np.random.default_rng(1)
    means, pairs, covs = random_inputs(rng, 5, signed=True)
    assert abs(kron_columns(means, pair_terms(pairs, covs)).sum()) < 1e-14


@st.composite
def kernel_inputs(draw):
    """Means and terms on 0 to 3 qubits of n <= 6, some with weights
    broadcast from one (2,) * len(qubits) array as the model's triples are,
    for column counts on both sides of BLOCK."""
    n = draw(st.integers(1, 6))
    cols = draw(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m0 = rng.uniform(0.5, 1.0, (cols, n))
    means = np.stack([m0, 1.0 - m0], axis=-1)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(0, min(3, n)))
        qubits = tuple(sorted(draw(st.permutations(range(n)))[:size]))
        if draw(st.booleans()):
            shared = rng.uniform(-1e-3, 1e-3, (2,) * size)
            weights = np.broadcast_to(shared, (cols,) + shared.shape)
        else:
            weights = rng.uniform(-1e-3, 1e-3, (cols,) + (2,) * size)
        terms.append((qubits, weights))
    return means, terms


@settings(max_examples=80, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_per_term_reference(inputs):
    # the sweep adds the terms in another order, so only the rounding moves
    means, terms = inputs
    np.testing.assert_allclose(
        kron_columns(means, terms), per_term_kron_columns(means, terms), rtol=0, atol=1e-15
    )


@settings(max_examples=40, deadline=None)
@given(kernel_inputs())
def test_each_column_is_bitwise_equal_to_its_one_column_call(inputs):
    means, terms = inputs
    t = kron_columns(means, terms)
    for c in range(means.shape[0]):
        one = [(q, w[c:c + 1]) for q, w in terms]
        assert np.array_equal(t[:, c], kron_columns(means[c:c + 1], one)[:, 0])
