import subprocess
import sys
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 8 code lines: a docstring, comment or blank line never counts, and a
# statement or a string that is not a docstring counts each of its lines
FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a comment after code


class A:
    """A class docstring."""

    x = 1
    # a comment line

    def f(self, y):
        """A function docstring."""
        text = """not a docstring,
        two lines"""
        return (y,
                text)
'''


def run(*paths) -> str:
    return subprocess.run(
        [sys.executable, str(SRC_LINES), *map(str, paths)],
        capture_output=True, text=True, check=True,
    ).stdout


def test_src_lines_counts_code_lines_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert run(path) == "8\n"
    assert run(path, path) == "16\n"


def test_src_lines_counts_the_package_by_default():
    assert int(run()) > 0
