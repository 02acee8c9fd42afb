import contextlib
import csv
import hashlib
import json
import resource
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from spamcal import cli, serialize, tmatrix
from spamcal.backends import (
    Counts,
    Dataset,
    SampledBackend,
    load_distribution,
    record_dataset,
    save_distribution,
)
from spamcal.cli import main
from spamcal.errors import (
    ConvergenceError,
    MissingDataError,
    NumericalError,
    SpamcalError,
    ValidationError,
)
from spamcal.estimate import CalibrationTables
from spamcal.model import melbourne_c4
from spamcal.serialize import load_json
from spamcal.tmatrix import TransitionMatrix
from test_model import invalid_chain13


def run(*argv):
    return main([str(a) for a in argv])


def test_budget_prints_bounds(capsys):
    assert run("budget", "8", "6") == 0
    assert capsys.readouterr().out.strip() == "1024, 524288"


@pytest.mark.parametrize(
    "argv",
    [("budget", "4", "10000"), ("estimate", "--preset", "melbourne-c4", "--k", "10000")],
    ids=["budget", "estimate"],
)
def test_a_huge_k_is_a_validation_error_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "t.json"
    if argv[0] == "estimate":
        argv += ("--out", out)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: neighborhood size k is too large for n=4")
    assert "k <= 28" in err
    assert list(tmp_path.iterdir()) == []


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


def test_compare_rejects_a_repeated_candidate_name(tmp_path, capsys):
    ref = tmp_path / "ref.json"
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    TransitionMatrix.identity(2).to_json(ref)
    TransitionMatrix(2, np.eye(4) * 0.96 + 0.01).to_json(first)
    TransitionMatrix(2, np.eye(4) * 0.92 + 0.02).to_json(second)
    out = tmp_path / "cmp.csv"
    assert (
        run("compare", "--reference", ref, "--candidate", f"a={first}",
            "--candidate", f"a={second}", "--out", out)
        == 2
    )
    assert "'a' given twice" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "cmp.csv.manifest.json").exists()

def test_correct_round_trip(tmp_path):
    m = melbourne_c4()
    mat = tmp_path / "t.json"
    m.full_matrix().to_json(mat)
    raw = tmp_path / "raw.json"
    save_distribution(m.column(0b0101), 4, raw)
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
    preps = range(16)
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


@pytest.mark.parametrize(
    "command",
    [("gen-model", "--spec"), ("estimate", "--k", "0", "--model")],
    ids=["gen-model", "estimate"],
)
def test_out_of_bounds_model_beyond_oracle_limit_exits_2(tmp_path, capsys, command):
    # P(qubit 1 reads 0) = 0.99 - 0.995 once qubit 2 is prepared 1
    obj = invalid_chain13().to_dict() | {"pair_cov": {}, "shifts": {"1,2": 0.995}, "shift_range": 1}
    model = tmp_path / "m13.json"
    model.write_text(json.dumps(obj))
    assert run(*command, model, "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert "negative probability: table entry '1|0100000000000' lies outside [0, 1]" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("key", [None, "4,x", "a,b"], ids=["count", "4,x", "a,b"])
@pytest.mark.parametrize("field", ["shifts", "pair_cov", "spectator_cov", "triples"])
def test_model_key_with_wrong_index_count_rejected(tmp_path, capsys, field, key):
    # a key that is not all integers holds no qubit indices at all
    obj = melbourne_c4().to_dict()
    value = [[1e-4, 1e-4], [1e-4, 1e-4]] if field == "pair_cov" else 1e-4
    parts = 3 if field in ("spectator_cov", "triples") else 2
    key = key or ("1,2" if parts == 3 else "1,4,3")
    obj[field] = {key: value}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    assert run("estimate", "--model", model, "--k", "0", "--out", tmp_path / "x.json") == 2
    assert f"model key '{key}' needs {parts} qubit indices" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n", "dimension", "positions", "base"])
def test_model_missing_required_key_exits_2(tmp_path, capsys, key):
    obj = melbourne_c4().to_dict()
    del obj[key]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    assert run("estimate", "--model", model, "--k", "0", "--out", tmp_path / "x.json") == 2
    assert f"missing key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("calibrate-full", "--backend", "replay"), "replay backend needs --dataset"),
        (("gen-model",), "need --preset or --spec"),
        (("compare", "--reference", "{ref}", "--candidate", "{ref}"),
         "candidate must be name=path, got '{ref}'"),
    ],
    ids=["replay-no-dataset", "gen-model-no-source", "candidate-no-name"],
)
def test_incomplete_arguments_exit_2_with_their_message(tmp_path, capsys, argv, message):
    ref = tmp_path / "ref.json"
    TransitionMatrix.identity(2).to_json(ref)
    out = tmp_path / "x.json"
    assert run(*[a.format(ref=ref) for a in argv], "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message.format(ref=ref)}\n"
    assert not out.exists()


def test_replay_calibrate_full_names_states_missing_from_two_blocks(tmp_path, capsys):
    # n = 10 is four blocks of 256 states; 3 and 700 lie in the first and third
    n, lacking = 10, (3, 700)
    ds = Dataset(n)
    for x in range(1 << n):
        if x not in lacking:
            ds.add(Counts(n, x, {x: 1}, 1))
    path = tmp_path / "ds.json"
    ds.to_json(path)
    out = tmp_path / "t.json"
    code = run("calibrate-full", "--backend", "replay", "--dataset", path, "--out", out)
    assert code == 3
    assert capsys.readouterr().err == "error: missing prepared state(s): 0000000011, 1010111100\n"
    assert not out.exists()


def test_exit_code_missing_replay(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    backend = SampledBackend(melbourne_c4(), shots=256, seed=0)
    preps = range(4)  # far from complete
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
        "distribution": json.loads(save_distribution(m.column(0b0101), 4)),
        "dataset": json.loads(
            record_dataset(
                SampledBackend(m, shots=64, seed=0),
                range(16),
                64,
            ).to_json()
        ),
    }
    return files


def run_on_inputs(tmp_path, kind, files, *options):
    """Write the input files (none for a file that is None) and run the
    command that reads files[kind] with the given options; return its exit
    code and the output path."""
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        if obj is not None:
            paths[name].write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    if kind in ("matrix", "distribution"):
        argv = ["correct", "--matrix", paths["matrix"], "--input", paths["distribution"]]
    elif kind == "model":
        argv = ["estimate", "--model", paths["model"], "--k", "0"]
    else:
        argv = ["estimate", "--backend", "replay", "--dataset", paths["dataset"], "--k", "0"]
    return run(*argv, *options, "--out", out), out


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


@pytest.mark.parametrize("command", ["estimate", "calibrate-full"])
@pytest.mark.parametrize("backend", ["exact", "sampled"])
def test_negative_seed_exits_2_before_any_write(tmp_path, capsys, command, backend):
    out = tmp_path / "t.json"
    k = ["--k", "0"] if command == "estimate" else []
    code = run(
        command, "--preset", "melbourne-c4", "--backend", backend, "--seed", "-1",
        *k, "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "seed must be nonnegative, got -1" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def set_path(obj, path, value):
    """Replace the value that path leads to from the top of obj."""
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


NAN = float("nan")


@pytest.mark.parametrize(
    "kind, path, value, message",
    [
        ("model", ("pair_cov", "2,3"), [1, 2, 3], "pair_cov[2,3] has shape (3,)"),
        ("model", ("base", 0, 0, 0), NAN, "base has a non-finite value"),
        ("model", ("base", 2, 1, 1), float("inf"), "base has a non-finite value"),
        ("model", ("shifts", "4,1"), NAN, "shifts[4,1] has a non-finite"),
        ("model", ("shifts", "4,1"), float("-inf"), "shifts[4,1] has a non-finite"),
        ("model", ("pair_cov", "2,3"), [[NAN, 0], [0, 0]], "pair_cov[2,3] has a non-finite"),
        ("model", ("spectator_cov",), {"1,2,3": NAN}, "spectator_cov[1,2,3] has a non-finite"),
        ("model", ("triples",), {"1,2,3": NAN}, "triples[1,2,3] has a non-finite"),
        ("model", ("triples",), {"1,2,3": float("inf")}, "triples[1,2,3] has a non-finite"),
        ("model", ("positions", 0, 0), 0.5, "non-integer coordinates"),
        ("matrix", ("n",), -1, "n must be an integer of at least 1"),
        ("matrix", ("n",), 0, "n must be an integer of at least 1"),
        ("matrix", ("n",), 20000, "has 256 entries, expected 4^20000"),
        ("matrix", ("data", 5), NAN, "data has a non-finite value"),
        ("distribution", ("n",), -1, "n must be an integer of at least 1"),
        ("distribution", ("n",), 40, "distribution n=40 does not match matrix n=4"),
        ("distribution", ("n",), 64, "distribution n=64 does not match matrix n=4"),
        ("distribution", ("probs", "0101"), NAN, "probability of 0101 has a non-finite"),
        ("distribution", ("probs", "0101"), True, "non-numeric value True"),
        ("dataset", ("records", 0, "counts", "0000"), 1.5, "count of 0000 must be an integer"),
    ]
    + [
        # an integer literal beyond the float range
        pytest.param(kind, path, 10**400, message, id=f"{kind}-{path[0]}-10**400")
        for kind, path, message in [
            ("matrix", ("data", 5), "data has a value too large for a float"),
            ("model", ("base", 0, 0, 0), "base has a value too large for a float"),
            ("model", ("positions", 0, 0), "positions has a value too large for a float"),
        ]
    ]
    + [
        # a JSON string, bool or null, which np.asarray would read as a float
        pytest.param(kind, path, value, f"{path[0]} has a non-numeric value {value!r}",
                     id=f"{kind}-{path[0]}-{json.dumps(value)}")
        for kind, path in [("matrix", ("data", 5)), ("model", ("base", 0, 1, 0))]
        for value in ["0.5", True, False, None]
    ],
)
def test_malformed_value_exits_2(tmp_path, capsys, kind, path, value, message):
    files = write_valid_inputs(tmp_path)
    files["model"]["cov_range"] = 1  # so a spectator term is in range
    set_path(files[kind], path, value)
    code, out = run_on_inputs(tmp_path, kind, files)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--matrix", "--input", "--model", "--dataset"])
def test_missing_input_file_exits_2(tmp_path, capsys, flag):
    files = write_valid_inputs(tmp_path)
    kind = {"--matrix": "matrix", "--input": "distribution"}.get(flag, flag[2:])
    files[kind] = None
    code, out = run_on_inputs(tmp_path, kind, files)
    assert code == 2
    assert f"cannot read {tmp_path / kind}.json" in capsys.readouterr().err
    assert not out.exists()


# the arguments before each command's second, optional output path
SECOND_OUTPUT = {
    "calibrate-full": ["--csv"],
    "estimate": ["--k", "2", "--tables"],
    "correlators": ["--csv"],
}


@pytest.mark.parametrize("command", ["gen-model", *SECOND_OUTPUT])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    unwritable = tmp_path / "missing" / "out"
    if command == "gen-model":
        outputs = ["--out", unwritable]
    else:
        outputs = ["--out", tmp_path / "t.json", *SECOND_OUTPUT[command], unwritable]
    assert run(command, "--preset", "melbourne-c4", *outputs) == 2
    err = capsys.readouterr().err
    assert f"cannot write {unwritable}: No such file or directory" in err
    assert "Traceback" not in err
    # the output written before the failing one is removed, and no manifest
    assert list(tmp_path.iterdir()) == []


def test_unwritable_manifest_removes_the_outputs(tmp_path, capsys):
    out, csv_path = tmp_path / "t.json", tmp_path / "t.csv"
    manifest = tmp_path / "t.json.manifest.json"
    manifest.mkdir()
    code = run("calibrate-full", "--preset", "melbourne-c4", "--out", out, "--csv", csv_path)
    assert code == 2
    assert f"cannot write {manifest}: Is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [manifest]


def test_unwritable_manifest_keeps_an_input_rewritten_in_place(tmp_path, capsys):
    model = tmp_path / "m.json"
    melbourne_c4().to_json(model)
    (tmp_path / "m.json.manifest.json").mkdir()
    assert run("gen-model", "--spec", model, "--out", model) == 2
    assert "cannot write" in capsys.readouterr().err
    assert model.read_bytes() == melbourne_c4().to_json().encode()


@contextlib.contextmanager
def file_size_limit(size):
    """Writes past size bytes fail with EFBIG (Python ignores SIGXFSZ)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


# the output (168 bytes) fits under the larger limit, its manifest does not
@pytest.mark.parametrize("limit, cut", [(100, "out.json"), (400, "out.json.manifest.json")])
def test_a_write_cut_short_leaves_no_output(tmp_path, capsys, limit, cut):
    m = melbourne_c4()
    mat, raw = tmp_path / "t.json", tmp_path / "raw.json"
    m.full_matrix().to_json(mat)
    save_distribution(m.column(0b0101), 4, raw)
    with file_size_limit(limit):
        code = run("correct", "--matrix", mat, "--input", raw, "--out", tmp_path / "out.json")
    assert code == 2
    assert f"cannot write {tmp_path / cut}: File too large" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [raw, mat]


# cut at the output or, with the output written, at its manifest
@pytest.mark.parametrize("limit, cut", [(100, "out.json"), (400, "out.json.manifest.json")])
def test_a_rerun_cut_short_keeps_the_previous_output(tmp_path, capsys, limit, cut):
    m = melbourne_c4()
    mat, raw, out = tmp_path / "t.json", tmp_path / "raw.json", tmp_path / "out.json"
    m.full_matrix().to_json(mat)
    save_distribution(m.column(0b0101), 4, raw)
    argv = ["correct", "--matrix", mat, "--input", raw, "--out", out]
    assert run(*argv) == 0
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    with file_size_limit(limit):
        assert run(*argv) == 2
    assert f"cannot write {tmp_path / cut}: File too large" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("second", ["t.json", "./t.json", "t.json.manifest.json"])
def test_two_outputs_at_one_path_exit_2_before_any_write(tmp_path, capsys, monkeypatch, second):
    monkeypatch.chdir(tmp_path)
    code = run("calibrate-full", "--preset", "melbourne-c4", "--out", "t.json", "--csv", second)
    assert code == 2
    assert f"error: two outputs at one path: {second}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def sha256_bytes(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["correct", "gen-model"])
def test_inputs_are_hashed_before_an_output_rewrites_them(tmp_path, command):
    m = melbourne_c4()
    if command == "correct":
        mat, path = tmp_path / "t.json", tmp_path / "raw.json"
        m.full_matrix().to_json(mat)
        save_distribution(m.column(0b0101), 4, path)
        argv = ["correct", "--matrix", mat, "--input", path]
    else:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_dict()))  # not the canonical bytes
        argv = ["gen-model", "--spec", path]
    before = sha256_bytes(path)
    assert run(*argv, "--out", path) == 0
    manifest = load_json(f"{path}.manifest.json")
    assert manifest["input_hashes"][str(path)] == before
    assert manifest["output_hashes"] == {str(path): sha256_bytes(path)}
    assert sha256_bytes(path) != before


@pytest.mark.parametrize(
    "error, code",
    [
        (SpamcalError("unclassified"), 2),
        (ValidationError("invalid"), 2),
        (MissingDataError([0b0101], 4), 3),
        (NumericalError("singular"), 4),
        (ConvergenceError("no convergence"), 4),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_every_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "correct_constrained", fail)
    got, out = run_on_inputs(tmp_path, "matrix", write_valid_inputs(tmp_path))
    assert got == code
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_correct_negative_tolerance_exits_2(tmp_path, capsys):
    files = write_valid_inputs(tmp_path)
    code, out = run_on_inputs(tmp_path, "matrix", files, "--tol", "-1")
    assert code == 2
    assert "tolerance must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_matrix_file_of_invalid_utf8_exits_2(tmp_path, capsys):
    files = write_valid_inputs(tmp_path)
    files["matrix"] = None
    (tmp_path / "matrix.json").write_bytes(b'{"n": 1, "order": "msb-first", "data": "\xff"}')
    code, out = run_on_inputs(tmp_path, "matrix", files)
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_replay_correlators_name_every_missing_state(tmp_path, capsys):
    lacking = {0b0000, 0b0001, 0b0100}
    ds = tmp_path / "ds.json"
    preps = [x for x in range(16) if x not in lacking]
    record_dataset(SampledBackend(melbourne_c4(), seed=0), preps, 64).to_json(ds)
    out = tmp_path / "c.json"
    code = run("correlators", "--backend", "replay", "--dataset", ds, "--out", out)
    assert code == 3
    err = capsys.readouterr().err
    assert "missing prepared state(s): 0000, 0001, 0100\n" in err
    assert not out.exists()



@pytest.mark.parametrize("spectators, lacking", [(0, "0000, 0010"), (1, "1011, 1111")])
def test_replay_tprod_names_every_missing_state(tmp_path, capsys, spectators, lacking):
    absent = {0b0000, 0b0010, 0b1011, 0b1111}
    ds = tmp_path / "ds.json"
    preps = [x for x in range(16) if x not in absent]
    record_dataset(SampledBackend(melbourne_c4(), seed=0), preps, 64).to_json(ds)
    out = tmp_path / "t.json"
    code = run("tprod", "--backend", "replay", "--dataset", ds,
               "--spectators", spectators, "--out", out)
    assert code == 3
    err = capsys.readouterr().err
    assert f"missing prepared state(s): {lacking}\n" in err
    assert not out.exists()


def test_correlators_csv_holds_plain_numbers(tmp_path):
    out, csv_path = tmp_path / "c.json", tmp_path / "c.csv"
    assert run("correlators", "--preset", "melbourne-c8", "--out", out, "--csv", csv_path) == 0
    header, *rows = csv.reader(csv_path.read_text().splitlines())
    assert header == ["i\\j"] + [str(j) for j in range(1, 9)]
    assert len(rows) == 8
    for row in rows:
        for cell in row:
            float(cell)


# valid JSON, nested deeper than the standard library parser recurses
DEEP = "[" * 1000 + "]" * 1000


def assert_malformed_input_exits_2(tmp_path, capsys, flag, text):
    files = write_valid_inputs(tmp_path)
    kind = {"--matrix": "matrix", "--input": "distribution"}.get(flag, flag[2:])
    files[kind] = None
    (tmp_path / f"{kind}.json").write_text(text)
    code, out = run_on_inputs(tmp_path, kind, files)
    assert code == 2
    err = capsys.readouterr().err
    assert f"malformed JSON in {tmp_path / kind}.json" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--matrix", "--input", "--model", "--dataset"])
def test_deeply_nested_input_exits_2(tmp_path, capsys, flag):
    assert_malformed_input_exits_2(tmp_path, capsys, flag, DEEP)


@pytest.mark.parametrize("flag", ["--matrix", "--dataset"])
def test_large_deeply_nested_input_exits_2(tmp_path, capsys, flag):
    # past the size from which a dense matrix layout is streamed: a file in
    # any other layout still takes the whole-file parse
    text = DEEP + " " * serialize.LARGE_JSON_BYTES
    assert_malformed_input_exits_2(tmp_path, capsys, flag, text)


def test_deeply_nested_tables_file_is_a_validation_error(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(DEEP)
    with pytest.raises(ValidationError, match="malformed JSON"):
        CalibrationTables.from_json(path)


@pytest.fixture(scope="module")
def large_matrix(tmp_path_factory):
    """A dense n = 9 matrix JSON of random doubles, above the size from
    which TransitionMatrix.from_json streams it, its text, and a
    distribution."""
    d = tmp_path_factory.mktemp("large")
    rng = np.random.default_rng(9)
    t = rng.random((512, 512))
    t /= t.sum(axis=0)
    text = TransitionMatrix(9, t).to_json(d / "matrix.json")
    save_distribution(t @ rng.dirichlet(np.ones(512)), 9, d / "dist.json")
    assert len(text) >= serialize.LARGE_JSON_BYTES
    return d, text


def test_large_matrix_loads_bitwise_equal_to_json_loads(tmp_path, monkeypatch, large_matrix):
    d, text = large_matrix
    expected = np.array(json.loads(text)["data"]).reshape(512, 512)
    with monkeypatch.context() as m:
        # a fall back to json.loads would fail here
        m.setattr(serialize, "json", SimpleNamespace(dumps=json.dumps))
        got = TransitionMatrix.from_json(d / "matrix.json").data
    assert got.tobytes() == expected.tobytes()
    # the corrected output is the same whether T was streamed or read whole
    outputs = []
    for limit in (serialize.LARGE_JSON_BYTES, 1 << 40):
        monkeypatch.setattr(serialize, "LARGE_JSON_BYTES", limit)
        outputs.append(tmp_path / f"out-{limit}.json")
        assert run("correct", "--matrix", d / "matrix.json", "--input", d / "dist.json",
                   "--out", outputs[-1]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def nan_entry(text):
    obj = json.loads(text)
    obj["data"][5] = NAN
    return json.dumps(obj).encode()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (nan_entry, "data has a non-finite value"),
        (lambda text: text.encode()[:-100], "malformed JSON"),
        (lambda text: text.replace('"msb-first"', '"msb-first\xff"').encode("latin-1"),
         "malformed JSON"),
        # json.loads reads a lone surrogate escape into the string
        (lambda text: text.replace('"msb-first"', '"\\ud800"').encode(),
         "unsupported bit order '\\ud800'"),
    ],
    ids=["nan", "truncated", "invalid-utf8", "unpaired-surrogate"],
)
def test_large_matrix_errors_exit_2(tmp_path, capsys, large_matrix, corrupt, message):
    d, text = large_matrix
    matrix, out = tmp_path / "matrix.json", tmp_path / "out.json"
    matrix.write_bytes(corrupt(text))
    assert matrix.stat().st_size >= serialize.LARGE_JSON_BYTES
    assert run("correct", "--matrix", matrix, "--input", d / "dist.json", "--out", out) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_streamed_and_whole_file_loads_give_the_same_outputs(tmp_path, monkeypatch, large_matrix):
    d, _text = large_matrix
    # a second matrix, written in another layout, which the stream leaves
    other = tmp_path / "other.json"
    other.write_text(json.dumps(load_json(d / "matrix.json")))
    outputs = []
    for streamed in (True, False):
        if not streamed:
            monkeypatch.setattr(tmatrix, "stream_matrix_json", lambda path: None)
        out = tmp_path / f"streamed-{streamed}"
        out.mkdir()
        assert run("correct", "--matrix", d / "matrix.json", "--input", d / "dist.json",
                   "--out", out / "p.json") == 0
        assert run("compare", "--reference", d / "matrix.json", "--candidate", f"b={other}",
                   "--out", out / "cmp.csv") == 0
        outputs.append([(out / name).read_bytes() for name in ("p.json", "cmp.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [13, 60])
def test_a_tail_claiming_more_entries_than_the_file_holds_exits_2(tmp_path, capsys,
                                                                  large_matrix, n):
    d, text = large_matrix
    matrix, out = tmp_path / "matrix.json", tmp_path / "out.json"
    matrix.write_text(text.replace('\n  "n": 9,', f'\n  "n": {n},'))
    tracemalloc.start()
    try:
        code = run("correct", "--matrix", matrix, "--input", d / "dist.json", "--out", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"matrix JSON has 262144 entries, expected 4^{n}" in capsys.readouterr().err
    # the whole-file parse of a 6 MB file, not an array of 4^13 doubles (512 MiB)
    assert peak < 64 << 20
    assert not out.exists()
