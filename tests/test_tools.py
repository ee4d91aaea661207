"""tools/code_lines.py counts the lines that hold code: no docstrings,
comments or blank lines."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line
    s = """a string value,
    not a docstring"""
    return (x,
            s)


class C:
    "One-line docstring."
    y = os.sep
'''


def _run(*args, cwd=ROOT):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), *args],
        capture_output=True, text=True, cwd=cwd, check=True,
    )
    return [line.split(None, 1) for line in run.stdout.splitlines()]


def test_counts_statements_and_skips_docstrings_comments_and_blanks(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    # import, def, the two-line assignment, the two-line return, class, y
    assert _run(str(sample)) == [["8", str(sample)], ["8", "total"]]


def test_default_is_every_module_under_src(tmp_path):
    rows = _run(cwd=tmp_path)
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py"))
    assert [path for _, path in rows[:-1]] == modules
    assert rows[-1] == [str(sum(int(count) for count, _ in rows[:-1])), "total"]
