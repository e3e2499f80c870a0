"""``tools/code_lines.py``, the code-line count that the code budget tracks."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_code_lines", TOOL)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _source(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def test_docstrings_comments_and_blank_lines_are_not_counted(tool):
    source = _source('''
        """Module docstring,
        over two lines."""

        # a comment only
        import math


        class Point:
            """Class docstring."""

            x: float  # a trailing comment does not make a code line a comment


        def norm(p):
            """Function docstring,

            with a blank line inside.
            """
            # an indented comment
            return math.hypot(p.x, 0.0)


        async def wait():
            """Async function docstring."""
            return None
        ''')
    assert tool.code_lines(source) == 7  # import, class, x, def, return, async def, return


def test_continuation_lines_and_other_string_literals_are_counted(tool):
    source = _source('''
        TEMPLATE = """def f(x):
            return x
        """
        total = (1 +
                 2)


        def g():
            x = 1
            """A string statement after the first one is no docstring."""
            return [x,
                    x]
        ''')
    # TEMPLATE: 3 lines; total: 2; def, x = 1, the late string, return: 2 lines
    assert tool.code_lines(source) == 3 + 2 + 1 + 1 + 1 + 2


def test_main_prints_each_module_and_their_sum(tool, tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nA = 1\n\n# note\nB = 2\n', encoding="utf-8")
    (tmp_path / "b.py").write_text("def f():\n    return 3\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "2"], ["b.py", "2"], ["total", "4"]]


def test_the_package_total_is_the_sum_of_its_modules(tool, capsys):
    assert tool.main(["code_lines.py"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total" and len(rows) > 2
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
    assert [name for name, _ in rows[:-1]] == sorted(name for name, _ in rows[:-1])
