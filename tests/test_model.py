import itertools

import numpy as np
import pytest

from spamcal.backends import ExactBackend
from spamcal.errors import ValidationError
from spamcal.geometry import RegisterGeometry
from spamcal.model import (
    NoiseModel,
    identity_model,
    melbourne_c4,
    melbourne_c4_product,
    melbourne_c8,
)
from spamcal.norms import symmetric_single_qubit


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
    """Accepted at construction (n > 12 is not enumerated), but qubit 1
    reads 0 with probability 0.99 - 0.995 < 0 once qubit 2 is prepared 1."""
    base = np.array([[[0.99, 0.02], [0.01, 0.98]]] * 13)
    return NoiseModel(
        RegisterGeometry.chain(13), base, shifts={(1, 2): 0.995}, shift_range=1
    )


def test_invalid_model_rejected_when_drawn_beyond_oracle_limit():
    backend = ExactBackend(invalid_chain13())
    assert backend.distribution(0).min() >= 0.0
    with pytest.raises(ValidationError, match="negative probability"):
        backend.distribution(1 << 11)


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
