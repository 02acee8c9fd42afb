import json

import numpy as np
import pytest

from spamcal.backends import (
    SampledBackend,
    load_distribution,
    record_dataset,
    save_distribution,
)
from spamcal.bits import BitString
from spamcal.cli import main
from spamcal.model import melbourne_c4
from spamcal.serialize import load_json
from spamcal.tmatrix import TransitionMatrix
from test_model import invalid_chain13


def run(*argv):
    return main([str(a) for a in argv])


def test_budget_prints_bounds(capsys):
    assert run("budget", "8", "6") == 0
    assert capsys.readouterr().out.strip() == "1024, 524288"


def test_gen_model_and_calibrate_full(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run("gen-model", "--preset", "melbourne-c4", "--out", model) == 0
    out = tmp_path / "t.json"
    csv = tmp_path / "t.csv"
    assert (
        run("calibrate-full", "--model", model, "--out", out, "--csv", csv) == 0
    )
    t = TransitionMatrix.from_json(out)
    np.testing.assert_allclose(
        t.data, melbourne_c4().full_matrix().data, atol=1e-15
    )
    assert csv.read_text().startswith("outcome")
    manifest = load_json(str(out) + ".manifest.json")
    assert manifest["command"] == "calibrate-full"
    assert str(model) in manifest["input_hashes"]
    assert str(out) in manifest["output_hashes"]


def test_gen_model_identity(tmp_path):
    out = tmp_path / "id.json"
    assert run("gen-model", "--preset", "identity", "--n", "3", "--out", out) == 0
    obj = load_json(out)
    assert obj["n"] == 3


def test_estimate_command_and_rerun_identical(tmp_path):
    out = tmp_path / "est.json"
    tables = tmp_path / "tables.json"
    args = (
        "estimate", "--preset", "melbourne-c4", "--backend", "sampled",
        "--shots", "1024", "--seed", "7", "--k", "2",
        "--out", out, "--tables", tables,
    )
    assert run(*args) == 0
    first = out.read_bytes()
    first_tables = tables.read_bytes()
    assert run(*args) == 0
    assert out.read_bytes() == first
    assert tables.read_bytes() == first_tables
    manifest = load_json(str(out) + ".manifest.json")
    assert manifest["config"]["seed"] == 7
    assert "pcg64" in manifest["seed_derivation"]


def test_correlators_command(tmp_path):
    out = tmp_path / "corr.json"
    csv = tmp_path / "a.csv"
    assert (
        run("correlators", "--preset", "melbourne-c4", "--out", out, "--csv", csv)
        == 0
    )
    obj = load_json(out)
    assert obj["A"][3][0] == pytest.approx(0.047)
    assert obj["circuits_used"] == 5
    assert csv.exists()


def test_tprod_command(tmp_path):
    out = tmp_path / "tprod.json"
    assert run("tprod", "--preset", "melbourne-c4-product", "--out", out) == 0
    t = TransitionMatrix.from_json(out)
    assert t.n == 4


def test_compare_command(tmp_path, capsys):
    ref = tmp_path / "ref.json"
    cand = tmp_path / "cand.json"
    TransitionMatrix.identity(2).to_json(ref)
    TransitionMatrix(2, np.eye(4) * 0.96 + 0.01).to_json(cand)
    out = tmp_path / "cmp.csv"
    assert (
        run("compare", "--reference", ref, "--candidate", f"noisy={cand}",
            "--out", out)
        == 0
    )
    assert "noisy" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "candidate,scaled_frobenius,max"


def test_correct_round_trip(tmp_path):
    m = melbourne_c4()
    mat = tmp_path / "t.json"
    m.full_matrix().to_json(mat)
    raw = tmp_path / "raw.json"
    save_distribution(m.column(BitString.from_str("0101")), 4, raw)
    out = tmp_path / "corr.json"
    assert run("correct", "--matrix", mat, "--input", raw, "--out", out) == 0
    probs, n = load_distribution(out)
    assert n == 4
    assert probs[int("0101", 2)] == pytest.approx(1.0, abs=1e-6)


def test_correct_inverse_reports_negative_mass(tmp_path):
    mat = tmp_path / "t.json"
    TransitionMatrix(1, np.array([[0.9, 0.1], [0.1, 0.9]])).to_json(mat)
    raw = tmp_path / "raw.json"
    save_distribution(np.array([1.0, 0.0]), 1, raw)
    out = tmp_path / "corr.json"
    assert (
        run("correct", "--matrix", mat, "--input", raw, "--method", "inverse",
            "--out", out)
        == 0
    )
    manifest = load_json(str(out) + ".manifest.json")
    assert manifest["config"]["negative_mass_removed"] == pytest.approx(0.125)


def test_replay_manifest_golden(tmp_path):
    # record once, then estimation from the dataset alone reproduces the run
    ds = tmp_path / "ds.json"
    backend = SampledBackend(melbourne_c4(), shots=2048, seed=3)
    preps = [BitString.from_index(i, 4) for i in range(16)]
    record_dataset(backend, preps, 2048).to_json(ds)
    out1 = tmp_path / "est1.json"
    out2 = tmp_path / "est2.json"
    for out in (out1, out2):
        assert (
            run("estimate", "--backend", "replay", "--dataset", ds, "--k", "2",
                "--out", out)
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()
    m1 = load_json(str(out1) + ".manifest.json")
    m2 = load_json(str(out2) + ".manifest.json")
    assert m1["input_hashes"][str(ds)] == m2["input_hashes"][str(ds)]
    assert (
        m1["output_hashes"][str(out1)] == m2["output_hashes"][str(out2)]
    )


def test_exit_code_validation(tmp_path, capsys):
    # no model source
    assert run("calibrate-full", "--out", tmp_path / "x.json") == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_rejects_invalid_model_beyond_oracle_limit(tmp_path, capsys):
    model = tmp_path / "m13.json"
    invalid_chain13().to_json(model)
    code = run("estimate", "--model", model, "--k", "0", "--out", tmp_path / "x.json")
    assert code == 2
    assert "negative probability" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["shifts", "pair_cov", "spectator_cov", "triples"])
def test_model_key_with_wrong_index_count_rejected(tmp_path, capsys, field):
    obj = melbourne_c4().to_dict()
    value = [[1e-4, 1e-4], [1e-4, 1e-4]] if field == "pair_cov" else 1e-4
    key = "1,2" if field in ("spectator_cov", "triples") else "1,4,3"
    obj[field] = {key: value}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    assert run("estimate", "--model", model, "--k", "0", "--out", tmp_path / "x.json") == 2
    assert f"model key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n", "dimension", "positions", "base"])
def test_model_missing_required_key_exits_2(tmp_path, capsys, key):
    obj = melbourne_c4().to_dict()
    del obj[key]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    assert run("estimate", "--model", model, "--k", "0", "--out", tmp_path / "x.json") == 2
    assert f"missing key '{key}'" in capsys.readouterr().err


def test_exit_code_missing_replay(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    backend = SampledBackend(melbourne_c4(), shots=256, seed=0)
    preps = [BitString.from_index(i, 4) for i in range(4)]  # far from complete
    record_dataset(backend, preps, 256).to_json(ds)
    code = run(
        "estimate", "--backend", "replay", "--dataset", ds, "--k", "2",
        "--out", tmp_path / "x.json",
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_numerical(tmp_path, capsys):
    mat = tmp_path / "t.json"
    TransitionMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]])).to_json(mat)
    raw = tmp_path / "raw.json"
    save_distribution(np.array([0.5, 0.5]), 1, raw)
    code = run(
        "correct", "--matrix", mat, "--input", raw, "--method", "inverse",
        "--out", tmp_path / "x.json",
    )
    assert code == 4
    assert "singular" in capsys.readouterr().err


def write_valid_inputs(tmp_path):
    """A model, a matrix, a distribution and a dataset that all load."""
    m = melbourne_c4()
    files = {
        "model": m.to_dict(),
        "matrix": json.loads(m.full_matrix().to_json()),
        "distribution": json.loads(save_distribution(m.column(BitString.from_str("0101")), 4)),
        "dataset": json.loads(
            record_dataset(
                SampledBackend(m, shots=64, seed=0),
                [BitString.from_index(i, 4) for i in range(16)],
                64,
            ).to_json()
        ),
    }
    return files


def run_on_inputs(tmp_path, kind, files):
    """Write the input files and run the command that reads files[kind];
    return its exit code and the output path."""
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    if kind in ("matrix", "distribution"):
        argv = ["correct", "--matrix", paths["matrix"], "--input", paths["distribution"]]
    elif kind == "model":
        argv = ["estimate", "--model", paths["model"], "--k", "0"]
    else:
        argv = ["estimate", "--backend", "replay", "--dataset", paths["dataset"], "--k", "0"]
    return run(*argv, "--out", out), out


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("model", "n", "four"),
        ("model", "base", "abc"),
        ("matrix", "n", "four"),
        ("distribution", "probs", {"0101": "x"}),
        ("dataset", "n", "two"),
    ],
)
def test_non_numeric_field_exits_2(tmp_path, capsys, kind, field, value):
    files = write_valid_inputs(tmp_path)
    files[kind][field] = value
    code, out = run_on_inputs(tmp_path, kind, files)
    assert code == 2
    err = capsys.readouterr().err
    assert "non-numeric value" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, path, value",
    [
        (kind, (field,), value)
        for kind, field in [
            ("model", "shifts"),
            ("model", "pair_cov"),
            ("model", "spectator_cov"),
            ("model", "triples"),
            ("distribution", "probs"),
        ]
        for value in ([0.01], "abc", 3)
    ]
    + [
        ("dataset", ("records", 0, "counts"), [5]),
        ("dataset", ("records", 0), "0101"),
        ("dataset", ("records",), 3),
        ("model", (), [1, 2]),
        ("matrix", (), 5),
    ],
)
def test_malformed_structure_exits_2(tmp_path, capsys, kind, path, value):
    # path leads from the file's top level to the replaced value
    files = write_valid_inputs(tmp_path)
    if path:
        parent = files[kind]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        files[kind] = value
    code, out = run_on_inputs(tmp_path, kind, files)
    assert code == 2
    err = capsys.readouterr().err
    assert "must be a JSON" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("xprime", ["01", "000000"])
def test_correlators_xprime_of_wrong_width_exits_2(tmp_path, capsys, xprime):
    out = tmp_path / "c.json"
    code = run("correlators", "--preset", "melbourne-c4", "--xprime", xprime, "--out", out)
    assert code == 2
    assert "the register has 4" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_full_oracle_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = run("calibrate-full", "--preset", "melbourne-c4", "--oracle-limit", "3", "--out", out)
    assert code == 2
    assert "oracle limit" in capsys.readouterr().err
    assert not out.exists()
