import itertools
import json
import math

import numpy as np
import pytest

from spamcal.assembly import BLOCK
from spamcal.backends import (
    DEFAULT_SHOTS,
    Counts,
    Dataset,
    ExactBackend,
    ReplayBackend,
    SampledBackend,
    collect,
    ingest_dataset,
    load_distribution,
    measure_full_matrix,
    record_dataset,
    save_distribution,
)
from spamcal.bits import bitstring
from spamcal.errors import MissingDataError, ValidationError
from spamcal.geometry import RegisterGeometry
from spamcal.model import NoiseModel, identity_model, melbourne_c4, melbourne_c8
from spamcal.norms import symmetric_single_qubit
from test_model import invalid_chain13


def all_preps(n):
    return list(range(1 << n))


def test_counts_invariants():
    with pytest.raises(ValidationError):
        Counts(2, 0b01, {0b01: 5}, 6)
    c = Counts(2, 0b01, {0b01: 5, 0b11: 1}, 6)
    assert c.distribution().sum() == pytest.approx(1.0)


# an index that needs more bits than the register has, or a negative one;
# the ids name each case by a bitstring of the wrong width
@pytest.mark.parametrize("outcome", [1 << 2, -1], ids=["0110", "1"])
def test_counts_reject_outcome_of_wrong_width(outcome):
    with pytest.raises(ValidationError, match=f"state {outcome} is out of range"):
        Counts(2, 0b01, {outcome: 10}, 10)


# an index past the register or a negative one; the ids name each case
# by a bitstring of the wrong width
@pytest.mark.parametrize("kind", ["exact", "sampled", "replay"])
@pytest.mark.parametrize("xprime", [-1, 1 << 4], ids=["01", "00001"])
def test_prepared_state_of_wrong_width_rejected(kind, xprime):
    m = melbourne_c4()
    if kind == "replay":
        b = ReplayBackend(record_dataset(ExactBackend(m), all_preps(4), 64))
    else:
        b = {"exact": ExactBackend, "sampled": SampledBackend}[kind](m, seed=1)
    with pytest.raises(ValidationError, match=f"prepared state {xprime} is out of range"):
        b.distribution(xprime)
    with pytest.raises(ValidationError, match="the register has 4"):
        b.counts(xprime, 64)


def test_single_shot():
    b = SampledBackend(melbourne_c4(), seed=3)
    c = b.counts(0b0000, 1)
    assert sum(c.histogram.values()) == 1
    assert len(c.histogram) == 1


def test_identity_model_deterministic_counts():
    b = SampledBackend(identity_model(4), seed=1)
    c = b.counts(0b0101, 100)
    assert c.histogram == {0b0101: 100}


def test_seeded_determinism():
    x = 0b0010
    c1 = SampledBackend(melbourne_c4(), seed=42).counts(x, 1000)
    c2 = SampledBackend(melbourne_c4(), seed=42).counts(x, 1000)
    assert c1.histogram == c2.histogram
    c3 = SampledBackend(melbourne_c4(), seed=43).counts(x, 1000)
    assert c3.histogram != c1.histogram


@pytest.mark.parametrize("make", [ExactBackend, SampledBackend])
def test_negative_seed_rejected_at_construction(make):
    with pytest.raises(ValidationError, match="seed must be nonnegative, got -3"):
        make(melbourne_c4(), seed=-3)
    # seed 0 stays valid: the exact backend draws counts with it too
    assert sum(make(melbourne_c4(), seed=0).counts(0b0101, 8).histogram.values()) == 8


def test_query_order_independence_and_ordinal():
    m = melbourne_c4()
    a, b = SampledBackend(m, seed=5), SampledBackend(m, seed=5)
    x0, x1 = 0b0000, 0b1111
    ra = [a.counts(x0, 500), a.counts(x1, 500)]
    rb = [b.counts(x1, 500), b.counts(x0, 500)]
    assert ra[0].histogram == rb[1].histogram
    assert ra[1].histogram == rb[0].histogram
    # a second draw of the same state advances the ordinal
    assert a.counts(x0, 500).histogram != ra[0].histogram


def test_binomial_band():
    eps = 0.1
    g = RegisterGeometry.chain(1)
    m = NoiseModel(g, symmetric_single_qubit(eps)[None])
    b = SampledBackend(m, seed=0)
    shots = 10**6
    c = b.counts(0, shots)
    p1 = c.histogram.get(1, 0) / shots
    sigma = math.sqrt(eps * (1 - eps) / shots)
    assert abs(p1 - eps) < 5 * sigma


def test_exact_backend_counts_default_to_32768_shots():
    m = melbourne_c4()
    default = ExactBackend(m, seed=3).counts(0b0101)
    assert default.shots == DEFAULT_SHOTS == 32768
    # the same (seed, state, ordinal) draw whether the shots are named or not
    named = ExactBackend(m, seed=3).counts(0b0101, DEFAULT_SHOTS)
    assert named.histogram == default.histogram
    explicit = ExactBackend(m, seed=3).counts(0b0101, shots=100)
    assert explicit.shots == sum(explicit.histogram.values()) == 100
    # the shots of a counts query are not part of what the backend is
    assert ExactBackend(m).descriptor() == {"kind": "exact", "n": 4}


def test_exact_backend_counts_work():
    b = ExactBackend(melbourne_c4(), seed=9)
    c = b.counts(0b0000, 128)
    assert sum(c.histogram.values()) == 128


def test_dataset_round_trip(tmp_path):
    m = melbourne_c4()
    b = SampledBackend(m, seed=11)
    ds = record_dataset(b, all_preps(4), 2048)
    path = tmp_path / "ds.json"
    ds.to_json(path)
    rb = ingest_dataset(path)
    for x in all_preps(4):
        np.testing.assert_array_equal(
            rb.counts(x).vector(), ds.records[x].vector()
        )


def test_replay_missing_state_named(tmp_path):
    b = SampledBackend(melbourne_c4(), seed=2)
    preps = [x for x in all_preps(4) if x != 0b0110]
    ds = record_dataset(b, preps, 512)
    rb = ReplayBackend(ds)
    with pytest.raises(MissingDataError, match="0110"):
        measure_full_matrix(rb)


def test_replay_shots_ignored():
    b = SampledBackend(melbourne_c4(), seed=2)
    ds = record_dataset(b, all_preps(4), 512)
    rb = ReplayBackend(ds)
    c = rb.counts(0b0000, shots=99999)
    assert c.shots == 512


def test_dataset_schema_errors(tmp_path):
    good = {
        "n": 2,
        "order": "msb-first",
        "records": [{"prepared": "00", "shots": 4, "counts": {"00": 4}}],
    }
    bad_dup = dict(good, records=good["records"] * 2)
    bad_sum = dict(
        good, records=[{"prepared": "00", "shots": 5, "counts": {"00": 4}}]
    )
    p = tmp_path / "d.json"
    p.write_text(json.dumps(bad_dup))
    with pytest.raises(ValidationError, match="record 1"):
        ingest_dataset(p)
    p.write_text(json.dumps(bad_sum))
    with pytest.raises(ValidationError, match="record 0"):
        ingest_dataset(p)
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="malformed"):
        ingest_dataset(p)


def test_full_matrix_from_exact_equals_model():
    m = melbourne_c4()
    t = measure_full_matrix(ExactBackend(m))
    np.testing.assert_allclose(t.data, m.full_matrix().data, atol=0)


def test_shot_error_halves_with_quadrupled_shots():
    m = melbourne_c4()
    x = 0b0000
    col = m.column(x)
    med = {}
    for shots in (8192, 32768):
        errs = [
            np.max(np.abs(SampledBackend(m, shots=shots, seed=s).distribution(x) - col))
            for s in range(20)
        ]
        med[shots] = np.median(errs)
    assert 1.6 <= med[8192] / med[32768] <= 2.6


@pytest.mark.parametrize("outcome", ["01010", "1"])
def test_distribution_outcome_of_wrong_width_rejected(tmp_path, outcome):
    p = tmp_path / "dist.json"
    p.write_text(json.dumps({"n": 4, "probs": {outcome: 1.0}}))
    with pytest.raises(ValidationError, match=f"{outcome} has {len(outcome)} bits"):
        load_distribution(p)


def test_distribution_file_round_trip(tmp_path):
    v = np.array([0.25, 0.0, 0.5, 0.25])
    p = tmp_path / "dist.json"
    save_distribution(v, 2, p)
    v2, n = load_distribution(p)
    assert n == 2
    np.testing.assert_array_equal(v, v2)


def test_collect_asks_once_per_distinct_state_in_increasing_order():
    asked = []

    class Recording(ExactBackend):
        def distributions(self, states):
            asked.extend(states)
            return super().distributions(states)

    got = [x for x, _dist in collect(Recording(melbourne_c4()), [5, 3, 5, 0, 3])]
    assert got == asked == [0, 3, 5]


def test_collect_names_every_missing_state_after_the_last():
    ds = record_dataset(ExactBackend(melbourne_c4()), [1, 3], 64)
    gen = collect(ReplayBackend(ds), [0, 1, 2, 3])
    assert [x for x, _dist in itertools.islice(gen, 2)] == [1, 3]
    with pytest.raises(MissingDataError) as info:
        next(gen)
    assert info.value.missing == [0b0000, 0b0010]


def test_missing_data_message_stays_short_for_wide_registers():
    states = list(range(1501))
    exc = MissingDataError(states, 1500)
    message = str(exc)
    assert len(message) < 20_000
    assert message.startswith("missing 1501 prepared states, the first 8: ")
    assert bitstring(7, 1500) in message and bitstring(8, 1500) not in message
    assert exc.missing == states


@pytest.mark.parametrize("kind", [ExactBackend, SampledBackend])
def test_collect_blocks_equal_per_state_distributions(kind):
    # 256 states: four full blocks; every backend is fresh, so each state
    # is drawn at ordinal 0 on both sides
    m = melbourne_c8()
    states = range(1 << m.n)
    got = dict(collect(kind(m, seed=4), states))
    assert list(got) == list(states)
    for x in states:
        assert np.array_equal(got[x], kind(m, seed=4).distribution(x))


def test_mixed_block_and_per_state_queries_keep_counts_and_ordinals():
    m = melbourne_c4()
    mixed, single = SampledBackend(m, 512, seed=6), SampledBackend(m, 512, seed=6)
    got = [mixed.distributions([1, 2, 3]), mixed.counts(2).vector() / 512,
           mixed.distributions([2, 5]), mixed.distribution(2)[:, None]]
    want = [np.stack([single.distribution(x) for x in (1, 2, 3)], axis=1),
            single.counts(2).vector() / 512,
            np.stack([single.distribution(x) for x in (2, 5)], axis=1),
            single.distribution(2)[:, None]]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert mixed._ordinals == single._ordinals == {1: 1, 2: 4, 3: 1, 5: 1}


@pytest.mark.parametrize("kind", [ExactBackend, SampledBackend])
@pytest.mark.parametrize(
    "model, preps, error",
    [
        (melbourne_c4, [0, 3, 1 << 4, 7], "prepared state 16 is out of range"),
        (melbourne_c4, [-1, 0, 3], "prepared state -1 is out of range"),
        (invalid_chain13, [0, 1, 1 << 11, 1 << 12], "negative probability"),
    ],
    ids=["past-register", "negative", "invalid-n13"],
)
def test_bad_state_in_a_block_raises_and_moves_no_ordinal(kind, model, preps, error):
    backend = kind(model(), seed=2)
    with pytest.raises(ValidationError, match=error):
        list(collect(backend, preps))
    assert backend._ordinals == {}


def test_collect_names_missing_states_across_blocks():
    n = 8
    ds = record_dataset(ExactBackend(melbourne_c8()), range(0, 1 << n, 2), 64)
    assert (1 << n) > 3 * BLOCK
    gen = collect(ReplayBackend(ds), range(1 << n))
    assert [x for x, _dist in itertools.islice(gen, 1 << (n - 1))] == list(range(0, 1 << n, 2))
    with pytest.raises(MissingDataError) as info:
        next(gen)
    assert info.value.missing == list(range(1, 1 << n, 2))
