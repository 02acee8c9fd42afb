import json
import math

import numpy as np
import pytest

from spamcal.backends import (
    Counts,
    Dataset,
    ExactBackend,
    ReplayBackend,
    SampledBackend,
    ingest_dataset,
    load_distribution,
    measure_full_matrix,
    record_dataset,
    save_distribution,
)
from spamcal.bits import BitString
from spamcal.errors import MissingDataError, ValidationError
from spamcal.geometry import RegisterGeometry
from spamcal.model import NoiseModel, identity_model, melbourne_c4
from spamcal.norms import symmetric_single_qubit


def all_preps(n):
    return [BitString.from_index(i, n) for i in range(1 << n)]


def test_counts_invariants():
    x = BitString.from_str("01")
    with pytest.raises(ValidationError):
        Counts(prepared=x, histogram={"01": 5}, shots=6)
    c = Counts(prepared=x, histogram={"01": 5, "11": 1}, shots=6)
    assert c.distribution().sum() == pytest.approx(1.0)


@pytest.mark.parametrize("outcome", ["0110", "1"])
def test_counts_reject_outcome_of_wrong_width(outcome):
    with pytest.raises(ValidationError, match="bits"):
        Counts(prepared=BitString.from_str("01"), histogram={outcome: 10}, shots=10)


@pytest.mark.parametrize("kind", ["exact", "sampled", "replay"])
@pytest.mark.parametrize("xprime", ["01", "00001"])
def test_prepared_state_of_wrong_width_rejected(kind, xprime):
    m = melbourne_c4()
    if kind == "replay":
        b = ReplayBackend(record_dataset(ExactBackend(m), all_preps(4), 64))
    else:
        b = {"exact": ExactBackend, "sampled": SampledBackend}[kind](m, seed=1)
    x = BitString.from_str(xprime)
    with pytest.raises(ValidationError, match=f"{xprime} has {len(xprime)} bits"):
        b.distribution(x)
    with pytest.raises(ValidationError, match="the register has 4"):
        b.counts(x, 64)


def test_single_shot():
    b = SampledBackend(melbourne_c4(), seed=3)
    c = b.counts(BitString.from_str("0000"), 1)
    assert sum(c.histogram.values()) == 1
    assert len(c.histogram) == 1


def test_identity_model_deterministic_counts():
    b = SampledBackend(identity_model(4), seed=1)
    c = b.counts(BitString.from_str("0101"), 100)
    assert c.histogram == {"0101": 100}


def test_seeded_determinism():
    x = BitString.from_str("0010")
    c1 = SampledBackend(melbourne_c4(), seed=42).counts(x, 1000)
    c2 = SampledBackend(melbourne_c4(), seed=42).counts(x, 1000)
    assert c1.histogram == c2.histogram
    c3 = SampledBackend(melbourne_c4(), seed=43).counts(x, 1000)
    assert c3.histogram != c1.histogram


def test_query_order_independence_and_ordinal():
    m = melbourne_c4()
    a, b = SampledBackend(m, seed=5), SampledBackend(m, seed=5)
    x0, x1 = BitString.from_str("0000"), BitString.from_str("1111")
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
    c = b.counts(BitString.from_str("0"), shots)
    p1 = c.histogram.get("1", 0) / shots
    sigma = math.sqrt(eps * (1 - eps) / shots)
    assert abs(p1 - eps) < 5 * sigma


def test_exact_backend_counts_work():
    b = ExactBackend(melbourne_c4(), seed=9)
    c = b.counts(BitString.from_str("0000"), 128)
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
            rb.counts(x).vector(), ds.records[x.index].vector()
        )


def test_replay_missing_state_named(tmp_path):
    b = SampledBackend(melbourne_c4(), seed=2)
    preps = [x for x in all_preps(4) if str(x) != "0110"]
    ds = record_dataset(b, preps, 512)
    rb = ReplayBackend(ds)
    with pytest.raises(MissingDataError, match="0110"):
        measure_full_matrix(rb)


def test_replay_shots_ignored():
    b = SampledBackend(melbourne_c4(), seed=2)
    ds = record_dataset(b, all_preps(4), 512)
    rb = ReplayBackend(ds)
    c = rb.counts(BitString.from_str("0000"), shots=99999)
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
    x = BitString.from_str("0000")
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
