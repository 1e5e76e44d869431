"""tools/codelines.py, the code-line counter: its count, its output and its usage."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

# 12 code lines: the import, the class line, size, the def line, the four
# lines of the multi-line call, the async def line, the two lines of a
# string that is no docstring, and the last return
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class Thing:
    """Class docstring."""

    size = 1

    def method(self):
        """Function docstring."""
        # a comment line
        return os.path.join(
            "a",
            "b",
        )


async def later():
    """Async function docstring."""
    text = """a string that is no docstring,
    over two lines"""
    return text
'''


def test_counts_code_lines_only():
    assert codelines.code_lines(FIXTURE) == 12


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\ny = (\n    2\n)\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 4\nb.py 12\ntotal 16\n"


@pytest.mark.parametrize("argv", [[], ["src", "tests"]])
def test_wrong_argument_count_exits_2(capsys, argv):
    assert codelines.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: python3 tools/codelines.py DIRECTORY")
