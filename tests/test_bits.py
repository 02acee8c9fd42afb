import functools

import pytest
from hypothesis import given, strategies as st

from spamcal.backends import ExactBackend
from spamcal.bits import BitString, qubit_mask, submasks
from spamcal.errors import ValidationError
from spamcal.estimate import estimate_transition_matrix
from spamcal.geometry import RegisterGeometry, moore_neighborhood
from spamcal.model import identity_model


def brute_filter_single(x: str, i: int, members: set) -> str:
    """Independent string-based reference for the single-qubit filter."""
    keep = {i} | members
    return "".join(c if (pos + 1) in keep else "0" for pos, c in enumerate(x))


def brute_filter_pair(x: str, i: int, j: int, mi: set, mj: set) -> str:
    keep = {i, j} | mi | mj
    return "".join(c if (pos + 1) in keep else "0" for pos, c in enumerate(x))


@functools.lru_cache(maxsize=None)
def recorded_masks(n: int, k: int):
    """The single and pair masks the estimator records for a chain."""
    model = identity_model(n)
    _t, tables = estimate_transition_matrix(ExactBackend(model), model.geometry, k)
    return tables.single_masks, tables.pair_masks


def masked(x: str, mask: int) -> str:
    """x with every bit outside the mask zeroed, as the estimator filters."""
    return str(BitString.from_index(BitString.from_str(x).index & mask, len(x)))


def test_index_round_trip_exhaustive():
    for n in (1, 3, 5):
        for idx in range(1 << n):
            b = BitString.from_index(idx, n)
            assert b.index == idx
            assert BitString.from_str(str(b)) == b


@given(st.integers(1, 12), st.data())
def test_index_round_trip_property(n, data):
    idx = data.draw(st.integers(0, (1 << n) - 1))
    assert BitString.from_index(idx, n).index == idx


@pytest.mark.parametrize("value", [5, None, "01a"])
def test_from_str_rejects_non_bitstrings(value):
    # JSON files can hold any type where a bitstring belongs
    with pytest.raises(ValidationError, match="not a bitstring"):
        BitString.from_str(value)


def test_msb_first_convention():
    # qubit 1 is the most significant bit
    assert str(BitString.from_index(8, 4)) == "1000"
    assert BitString.from_str("1000").bit(1) == 1
    assert qubit_mask(1, 4) == 8


def test_filter_single_examples():
    single, _pair = recorded_masks(4, 2)
    assert masked("1111", single[2]) == "1110"
    assert masked("0000", single[2]) == "0000"

    single8, _pair8 = recorded_masks(8, 2)
    nb4 = moore_neighborhood(RegisterGeometry.chain(8), 4, 2)
    got = masked("10101010", single8[4])
    assert got == brute_filter_single("10101010", 4, set(nb4.members))
    assert got == "00101000"


def test_filter_pair_examples():
    _single, pair = recorded_masks(4, 0)
    assert masked("1111", pair[(1, 4)]) == "1001"

    g8 = RegisterGeometry.chain(8)
    _single8, pair8 = recorded_masks(8, 2)
    nb2 = moore_neighborhood(g8, 2, 2)
    nb7 = moore_neighborhood(g8, 7, 2)
    got = masked("11111111", pair8[(2, 7)])
    assert got == brute_filter_pair(
        "11111111", 2, 7, set(nb2.members), set(nb7.members)
    )
    assert got == "11100111"
    assert masked("0" * 8, pair8[(2, 7)]) == "0" * 8


@given(st.integers(2, 8), st.integers(0, 2), st.data())
def test_filters_idempotent_and_match_oracle(n, layers, data):
    k = 2 * layers
    g = RegisterGeometry.chain(n)
    single, pair = recorded_masks(n, k)
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n).filter(lambda v: v != i))
    idx = data.draw(st.integers(0, (1 << n) - 1))
    x = str(BitString.from_index(idx, n))
    nbi = moore_neighborhood(g, i, k)
    nbj = moore_neighborhood(g, j, k)

    fx = masked(x, single[i])
    assert masked(fx, single[i]) == fx
    assert fx == brute_filter_single(x, i, set(nbi.members))

    mask = pair[(min(i, j), max(i, j))]
    fp = masked(x, mask)
    assert masked(fp, mask) == fp
    assert fp == brute_filter_pair(x, i, j, set(nbi.members), set(nbj.members))


def test_pair_filter_reduces_to_single_when_nested():
    # chain of 6 at k = 4: {1} | N_1 = {1, 2, 3} lies inside
    # {2} | N_2 = {1, 2, 3, 4}, so the pair filter keeps the same bits
    single, pair = recorded_masks(6, 4)
    assert pair[(1, 2)] == single[2]
    for idx in range(1 << 6):
        x = str(BitString.from_index(idx, 6))
        assert masked(x, pair[(1, 2)]) == masked(x, single[2])


def test_submasks():
    assert submasks(0b101) == [0b000, 0b001, 0b100, 0b101]
    assert submasks(0) == [0]
