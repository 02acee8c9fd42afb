"""Every input file with one field deleted or replaced is either read or
rejected with a typed error: through the CLI it exits 0, 2, 3 or 4, and
``CalibrationTables.from_json`` raises nothing but ValidationError."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from spamcal.backends import ExactBackend
from spamcal.errors import ValidationError
from spamcal.estimate import CalibrationTables, estimate_transition_matrix
from spamcal.model import melbourne_c4
from test_cli import run_on_inputs, set_path, write_valid_inputs

DELETE = object()
# n stays at most 64, so that no mutated file asks for a huge register;
# 10**400 is an integer literal beyond the float range
MUTATIONS = [DELETE, "abc", True, float("nan"), -1, 0, 64, 4.5, 10**400, [1.0], {"a": 1}]


def paths(obj, prefix=()):
    """The path to every value inside obj, the top level excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate(obj, data):
    """A copy of obj with one value deleted or replaced."""
    obj = copy.deepcopy(obj)
    # one depth first, so that the few top-level fields are drawn as often
    # as the many table or matrix entries
    depth = data.draw(st.sampled_from(sorted({len(p) for p in paths(obj)})))
    path = data.draw(
        st.sampled_from([p for p in paths(obj) if len(p) == depth]), label="path"
    )
    value = data.draw(st.sampled_from(MUTATIONS), label="value")
    if value is DELETE:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    else:
        set_path(obj, path, value)
    return obj


with tempfile.TemporaryDirectory() as _tmp:
    VALID = write_valid_inputs(Path(_tmp))
m = melbourne_c4()
TABLES = json.loads(estimate_transition_matrix(ExactBackend(m), m.geometry, 0)[1].to_json())


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(VALID)), data=st.data())
def test_mutated_input_file_exits_with_a_documented_code(kind, data):
    files = dict(VALID, **{kind: mutate(VALID[kind], data)})
    with tempfile.TemporaryDirectory() as tmp:
        code, _out = run_on_inputs(Path(tmp), kind, files)
    assert code in (0, 2, 3, 4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_tables_file_raises_only_validation_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tables.json"
        path.write_text(json.dumps(mutate(TABLES, data)))
        try:
            CalibrationTables.from_json(path)
        except ValidationError:
            pass
