"""``serialize.load_json`` parses every file whole with ``json.loads``;
``serialize.stream_matrix_json`` reads a dense matrix file piece by piece
with ``pydantic_core.from_json`` (jiter) to the same entries, bit for bit,
so the two parsers must agree on every number. The two writers behind
``serialize.float_list_json`` write the same text: ``json.dumps`` for small
arrays, pydantic-core for those whose text can reach ``LARGE_JSON_BYTES``.
``serialize.write_text`` replaces a file whole or leaves it as it was."""

import csv
import decimal
import hashlib
import io
import json
import math
import operator
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
import numpy as np
import pydantic_core
from pydantic_core import from_json

import spamcal
from spamcal import serialize
from spamcal.backends import save_distribution
from spamcal.errors import ValidationError
from spamcal.model import melbourne_c4
from spamcal.tmatrix import TransitionMatrix


def same(a, b) -> bool:
    """a and b are equal values of equal types, floats bit for bit, and
    objects hold their keys in the same order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def float_token(x: float, fmt) -> str:
    if fmt is None or not math.isfinite(x):
        return json.dumps(x)  # shortest repr, or NaN / Infinity / -Infinity
    return fmt % x


@st.composite
def midpoint_tokens(draw) -> str:
    """The exact decimal halfway between a double and the next one up, or
    that point nudged far below its last digit: the hardest roundings."""
    x = draw(st.floats(min_value=0.0, max_value=1.7976931348623155e308))
    with decimal.localcontext() as ctx:
        ctx.prec = 3000
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
        nudge = draw(st.sampled_from([0, 1, -1]))
        mid += nudge * decimal.Decimal(10) ** (mid.adjusted() - 1000)
    sign = draw(st.sampled_from(["", "-"]))
    return sign + str(mid)


def integers_of(digits):
    """Integers of 1 to ``digits`` decimal digits."""
    return st.integers(1, digits).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))


SPECIAL = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1E-400", "-0.0", "-0", "0",
    "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "2.2250738585072011e-308", "2.2250738585072012e-308",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
    "9007199254740993", "9007199254740993.0", "18446744073709551616", "0.1",
]
# the whole double range, subnormals and -0.0 included, in four formats
floats = st.builds(
    float_token, st.floats(), st.sampled_from([None, "%.17g", "%.25e", "%.40f"])
)
decimals = st.from_regex(
    r"-?(0|[1-9][0-9]{0,40})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
)
# up to the 4300 characters, sign included, that both parsers read (see
# test_long_integer_part_is_malformed_only_to_jiter)
integers = st.one_of(
    st.integers(), integers_of(4300), integers_of(4299).map(operator.neg)
).map(str)
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
strings = st.builds(json.dumps, texts, ensure_ascii=st.booleans())
leaves = st.one_of(
    floats, decimals, integers, midpoint_tokens(), st.sampled_from(SPECIAL), strings,
    st.sampled_from(["true", "false", "null"]),
)
separators = st.sampled_from([",", ", ", ",\n  ", " ,\t"])


def containers(children):
    lists = st.builds(
        lambda items, sep: "[" + sep.join(items) + "]", st.lists(children, max_size=6), separators
    )
    members = st.lists(st.tuples(strings, children), max_size=6)
    objects = st.builds(
        lambda items, sep: "{" + sep.join(f"{k}: {v}" for k, v in items) + "}", members, separators
    )
    return lists | objects


documents = st.recursive(leaves, containers, max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_parsers_agree(text):
    assert same(json.loads(text), from_json(text.encode(), allow_inf_nan=True))


def toward_zero(x: float) -> list:
    return [x, math.nextafter(x, 0.0)]


# the bounds of repr's and pydantic-core's spellings, the smallest
# subnormal, both zeros, a float whose text holds "0.0000" past its start,
# and two values that naive rewrites get wrong: padding every "e-" to "e-0"
# writes e-044, and pydantic-core writes the last one positionally
WRITER_SPECIAL = [
    *toward_zero(1e-4), *toward_zero(1e-5), *toward_zero(1e-10), *toward_zero(1e16),
    5e-324, 0.0, -0.0, 10.00001, 9.81462212229977e-44, 2.5614156986229296e-05,
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.sampled_from(WRITER_SPECIAL)), min_size=1),
    st.sampled_from([", ", ",", ",\n    "]),
)
def test_writers_agree(values, sep):
    # NaN, Infinity and -Infinity come from st.floats()
    expected = json.dumps(values, separators=(sep, ": "))
    # the pydantic-core writer for every size; a function-scoped fixture
    # such as monkeypatch does not reset between Hypothesis examples
    with mock.patch.object(serialize, "LARGE_JSON_BYTES", 0):
        assert serialize.float_list_json(np.array(values), sep) == expected


@pytest.mark.parametrize("sep", [", ", ","])
def test_writers_agree_on_the_special_values(sep):
    values = WRITER_SPECIAL + [-x for x in WRITER_SPECIAL] + [math.nan, math.inf, -math.inf]
    rows = np.array(values[:-1]).reshape(-1, 3)
    with mock.patch.object(serialize, "LARGE_JSON_BYTES", 0):
        assert serialize.float_list_json(np.array(values), sep) == json.dumps(
            values, separators=(sep, ": ")
        )
        assert serialize.float_list_json(rows, sep) == json.dumps(
            rows.tolist(), separators=(sep, ": ")
        )


def assert_same_lines(got: str, expected: str):
    """got == expected, shown on failure as the first line that differs
    rather than as a diff of megabytes."""
    for number, (a, b) in enumerate(zip(got.split("\n"), expected.split("\n")), 1):
        assert a == b, f"line {number}"
    assert len(got) == len(expected)


def awkward_data(n: int, seed: int = 17) -> np.ndarray:
    """A 2^n x 2^n matrix, not a stochastic one, holding every spelling
    float_list_json rewrites, NaN and both infinities."""
    dim = 1 << n
    rng = np.random.default_rng(seed)
    data = 10.0 ** rng.uniform(-12, 0, (dim, dim)) * rng.choice([-1.0, 1.0], (dim, dim))
    data.ravel()[: 3 * len(WRITER_SPECIAL) : 3] = WRITER_SPECIAL
    data[-1, 1], data[-2, 0], data[-1, -1] = math.nan, math.inf, -math.inf
    return data


@pytest.fixture(scope="module", params=[3, 9], ids=["small", "large"])
def awkward_matrix(request):
    """The awkward matrix at n = 3, below the writers' size gate, and at
    n = 9, above it."""
    return TransitionMatrix(request.param, awkward_data(request.param))


def written_by_pydantic_core(write, *args):
    """The text write(*args) returns, and whether pydantic-core wrote it."""
    with mock.patch("pydantic_core.to_json", wraps=pydantic_core.to_json) as to_json:
        return write(*args), to_json.called


def test_large_matrix_json_matches_json_dumps(awkward_matrix):
    t = awkward_matrix
    text, large = written_by_pydantic_core(t.to_json)
    assert large == (t.n == 9)
    obj = {"n": t.n, "order": "msb-first", "data": t.data.ravel().tolist()}
    assert_same_lines(text, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def test_large_matrix_csv_matches_csv_writer(awkward_matrix, tmp_path):
    t = awkward_matrix
    labels = [format(c, f"0{t.n}b") for c in range(t.dim)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["outcome"] + labels)
    writer.writerows([label] + [repr(v) for v in row] for label, row in zip(labels, t.data.tolist()))
    text, large = written_by_pydantic_core(t.to_csv, tmp_path / "T.csv")
    assert large == (t.n == 9)
    assert_same_lines(text, buf.getvalue())
    assert (tmp_path / "T.csv").read_text() == buf.getvalue()


@pytest.mark.parametrize("size", [0, 5, 1 << 20, (3 << 20) + 7])
def test_sha256_file_streams_to_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert serialize.sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_same_compares_types_and_bits():
    assert same([1.0, {"a": float("nan")}], [1.0, {"a": float("nan")}])
    assert not same([1], [1.0])
    assert not same(0.0, -0.0)
    assert not same({"a": 1, "b": 2}, {"b": 2, "a": 1})


@pytest.mark.parametrize(
    "token, value",
    [("-" + "1" * 4300, -int("1" * 4300)), ("1" * 4301 + "e-4300", 1.1111111111111112)],
    ids=["negative-4300-digits", "float-4301-digit-integer-part"],
)
def test_long_integer_part_is_malformed_only_to_jiter(token, value):
    # jiter caps a number's integer part at 4300 characters, sign included;
    # json.loads caps only an integer's digits. No numeric field accepts
    # the first value, but the second is an ordinary float, which a matrix
    # piece holding it leaves to the whole-file parse.
    assert same(json.loads(token), value)
    with pytest.raises(ValueError, match="number out of range"):
        from_json(token.encode())


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
def test_integer_over_the_digit_limit_is_malformed_on_both_paths(tmp_path, large):
    path = tmp_path / "long.json"
    path.write_text("[" + "1" * 4301 + "]" + " " * (serialize.LARGE_JSON_BYTES if large else 0))
    with pytest.raises(ValidationError, match="malformed JSON"):
        serialize.load_json(path)


def run_python(script, *args):
    src = str(Path(spamcal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_small_files_do_not_import_the_parser(tmp_path):
    m = melbourne_c4()
    m.to_json(tmp_path / "model.json")
    save_distribution(m.column(0b0101), 4, tmp_path / "dist.json")
    large = tmp_path / "large.json"
    large.write_text("[" + " " * serialize.LARGE_JSON_BYTES + "1]")
    t = np.random.default_rng(9).random((512, 512))
    TransitionMatrix(9, t).to_json(tmp_path / "T9.json")
    run_python(
        "import sys\n"
        "from spamcal.backends import load_distribution\n"
        "from spamcal.model import NoiseModel\n"
        "from spamcal.serialize import load_json\n"
        "from spamcal.tmatrix import TransitionMatrix\n"
        "import spamcal.cli\n"
        "load_distribution(sys.argv[1])\n"
        "NoiseModel.from_json(sys.argv[2])\n"
        "assert load_json(sys.argv[3]) == [1]\n"
        "assert 'pydantic_core' not in sys.modules, 'a whole-file parse imported the parser'\n"
        "TransitionMatrix.from_json(sys.argv[4])\n"
        "assert 'pydantic_core' in sys.modules, 'an n = 9 T was not streamed'\n",
        tmp_path / "dist.json", tmp_path / "model.json", large, tmp_path / "T9.json",
    )


def test_small_files_do_not_import_the_writer(tmp_path):
    run_python(
        "import sys\n"
        "import spamcal.cli\n"
        "from spamcal.backends import save_distribution\n"
        "from spamcal.model import melbourne_c4\n"
        "from spamcal.tmatrix import TransitionMatrix\n"
        "m = melbourne_c4()\n"
        "m.to_json(sys.argv[1] + '/model.json')\n"
        "save_distribution(m.column(0b0101), 4, sys.argv[1] + '/dist.json')\n"
        "t = m.full_matrix()\n"
        "t.to_json(sys.argv[1] + '/T4.json')\n"
        "t.to_csv(sys.argv[1] + '/T4.csv')\n"
        "assert 'pydantic_core' not in sys.modules, 'small files imported the writer'\n"
        "TransitionMatrix.identity(9).to_json(sys.argv[1] + '/T9.json')\n"
        "assert 'pydantic_core' in sys.modules, 'an n = 9 T did not use the writer'\n",
        tmp_path,
    )


def whole_file_data(path) -> np.ndarray:
    """The entries of a matrix file as the whole-file parse reads them."""
    return np.asarray(serialize.load_json(path)["data"], dtype=float)


def test_streamed_matrix_is_bitwise_the_whole_file_parse(awkward_matrix, tmp_path):
    path = tmp_path / "T.json"
    awkward_matrix.to_json(path)
    obj = serialize.stream_matrix_json(path)
    if awkward_matrix.n == 3:  # below the size gate: the whole-file parse
        assert obj is None
        return
    assert obj["n"] == 9 and obj["order"] == "msb-first"
    assert obj["data"].tobytes() == whole_file_data(path).tobytes()


@pytest.mark.parametrize("piece", [1, 2, 3, 5, 8, 13, 21, 65537])
def test_streamed_matrix_stays_bitwise_for_any_piece_size(tmp_path, monkeypatch, piece):
    # the n = 3 awkward matrix, streamed by lowering the size gate, so that
    # pieces of 1 to 21 bytes cut every entry at every byte
    n = 3 if piece < 100 else 9
    data = awkward_data(n, seed=piece)
    path = tmp_path / "T.json"
    TransitionMatrix(n, data).to_json(path)
    monkeypatch.setattr(serialize, "LARGE_JSON_BYTES", 0)
    monkeypatch.setattr(serialize, "PIECE_BYTES", piece)
    obj = serialize.stream_matrix_json(path)
    assert obj["data"].tobytes() == whole_file_data(path).tobytes() == data.tobytes()


@pytest.fixture(scope="module")
def finite_matrix():
    """The n = 9 awkward matrix with its non-finite entries replaced, so
    that TransitionMatrix.from_json accepts it."""
    data = awkward_data(9)
    data[~np.isfinite(data)] = 0.5
    return TransitionMatrix(9, data)


def obj_of(t):
    return {"n": t.n, "order": "msb-first", "data": t.data.ravel().tolist()}


# the same matrix in layouts other than dump_matrix_json's, each of which a
# stream that trusted the head or the tail alone would misread
OTHER_LAYOUTS = {
    "compact": lambda obj: json.dumps(obj),
    "key-order": lambda obj: json.dumps(obj, indent=2),
    "extra-key-last": lambda obj: json.dumps({**obj, "zz": 1}, indent=2, sort_keys=True),
    # "m" holds a list, whose "]" the tail pattern reads as data's
    "extra-list-key": lambda obj: json.dumps({**obj, "m": [1]}, indent=2, sort_keys=True),
    "data-string-first": lambda obj: json.dumps(
        {"a": '"data": [', **obj}, indent=2, sort_keys=True
    ),
    "crlf": lambda obj: json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\r\n"),
}


@pytest.mark.parametrize("layout", OTHER_LAYOUTS)
def test_other_layouts_take_the_whole_file_parse(finite_matrix, tmp_path, layout):
    path = tmp_path / "T.json"
    path.write_text(OTHER_LAYOUTS[layout](obj_of(finite_matrix)))
    assert path.stat().st_size >= serialize.LARGE_JSON_BYTES
    assert serialize.stream_matrix_json(path) is None
    got = TransitionMatrix.from_json(path).data
    assert got.tobytes() == finite_matrix.data.tobytes()


def with_first_entry(text: str, token: str) -> str:
    """text with the first entry of its data replaced by token."""
    head, first, rest = text.split("\n    ", 2)
    return "\n    ".join([head, token + first[first.index(","):], rest])


def without_first_entry(text: str) -> str:
    """text with the first entry of its data removed."""
    head, _first, rest = text.split("\n    ", 2)
    return "\n    ".join([head, rest])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda text: with_first_entry(text, ""), "malformed JSON"),
        (lambda text: text.replace("\n  ],", ",\n  ],", 1), "malformed JSON"),
        (lambda text: with_first_entry(text, "[0.5]"), "data has a non-numeric value"),
        (lambda text: with_first_entry(text, '"0.5"'), "data has a non-numeric value '0.5'"),
        (lambda text: with_first_entry(text, "true"), "data has a non-numeric value True"),
        (lambda text: with_first_entry(text, "false"), "data has a non-numeric value False"),
        (lambda text: with_first_entry(text, "null"), "data has a non-numeric value None"),
        (lambda text: with_first_entry(text, "{}"), "data has a non-numeric value"),
        (lambda text: with_first_entry(text, "0.5}"), "malformed JSON"),
        (lambda text: with_first_entry(text, "1" + "0" * 4300), "malformed JSON"),
        (lambda text: with_first_entry(text, "0.5,\n    0.5"), "262145 entries, expected 4^9"),
        (without_first_entry, "262143 entries, expected 4^9"),
    ],
    ids=["empty", "trailing-comma", "list", "string", "true", "false", "null", "object",
         "brace", "long-integer", "extra-entry", "missing-entry"],
)
def test_a_piece_that_is_not_numbers_takes_the_whole_file_parse(
    finite_matrix, tmp_path, corrupt, message
):
    path = tmp_path / "T.json"
    path.write_text(corrupt(finite_matrix.to_json()))
    assert serialize.stream_matrix_json(path) is None
    with pytest.raises(ValidationError, match=re.escape(message)):
        TransitionMatrix.from_json(path)


def test_streamed_load_peaks_at_the_array_size(tmp_path):
    rng = np.random.default_rng(10)
    t = rng.random((1 << 10, 1 << 10))
    path = tmp_path / "T.json"
    TransitionMatrix(10, t / t.sum(axis=0)).to_json(path)
    tracemalloc.start()
    try:
        loaded = TransitionMatrix.from_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < loaded.data.nbytes + (4 << 20)


def test_finiteness_check_allocates_no_array_of_the_entries():
    a = np.ones(1 << 20)
    tracemalloc.start()
    try:
        serialize.array(a, "data")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_is_rejected(bad):
    a = np.ones(64)
    a[17] = bad
    with pytest.raises(ValidationError, match="data has a non-finite value"):
        serialize.array(a, "data")
    assert serialize.array(np.ones((0, 3)), "data").shape == (0, 3)


def test_write_text_replaces_a_file_and_keeps_its_permission_bits(tmp_path):
    target, link = tmp_path / "out.json", tmp_path / "link.json"
    target.write_text("old")
    target.chmod(0o600)
    link.symlink_to(target)
    serialize.write_text("new", link)
    assert link.is_symlink() and target.read_text() == "new"
    assert target.stat().st_mode & 0o777 == 0o600
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_write_text_gives_a_new_file_the_umask_bits(tmp_path):
    umask = os.umask(0o027)
    try:
        serialize.write_text("new", tmp_path / "new.json")
        (tmp_path / "open.json").write_text("new")
    finally:
        os.umask(umask)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"new.json": 0o640, "open.json": 0o640}


def test_write_text_writes_a_device_in_place(monkeypatch):
    # os.replace is stubbed, so that a fault cannot rename over the device
    replaced = []
    monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(dst))
    assert serialize.write_text("text", os.devnull) == "text"
    assert replaced == []


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old")

    def fail(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(ValidationError, match="cannot write .*: Permission denied"):
        serialize.write_text("new", target)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old"


def test_a_matrix_of_the_wrong_shape_raises_its_message():
    message = "expected shape (2, 2) for n=1, got (3, 3)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        TransitionMatrix(1, np.eye(3))
