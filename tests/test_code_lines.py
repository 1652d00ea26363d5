"""`tools/code_lines.py`: code lines leave out blank lines, comments and
docstrings, and keep multi-line strings that are part of code."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
def f(x):
    """One-line docstring."""
    message = """a string
    that is code"""
    return (x,
            message)


class C:
    "Docstring" "s concatenated"

    y = 1
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    out = subprocess.run([sys.executable, str(SCRIPT), str(path)],
                         capture_output=True, text=True, check=True).stdout
    # import, def, two string lines, return over two lines, class, y = 1
    assert out.splitlines() == [f"8 {path}", "8 total"]
