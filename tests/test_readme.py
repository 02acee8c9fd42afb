import contextlib
import io
import re
import shlex
from pathlib import Path

from spamcal.backends import SampledBackend, save_distribution
from spamcal.cli import main
from spamcal.model import melbourne_c4

README = Path(__file__).parent.parent / "README.md"


def test_readme_example_runs_and_prints_what_it_says():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue().split() == ["16", "5"]


def test_readme_command_block_runs_line_by_line(tmp_path, monkeypatch, capsys):
    # the first fenced block under the heading, continuation lines joined
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README.read_text(), re.S)[1]
    lines = block.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    # raw.json is the user's measured distribution of the register
    model = melbourne_c4()
    save_distribution(SampledBackend(model, seed=2).distribution(0b0101), model.n, "raw.json")
    for line in lines:
        command, *argv = shlex.split(line)
        assert command == "spamcal"
        assert main(argv) == 0, (line, capsys.readouterr().err)
