"""The README's library quick start runs and prints what its comments say."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "<README quick start>", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2]
            checked.append((value, ast.literal_eval(comment.split()[0])))
        else:
            exec(compile(ast.Module([stmt], []), "<README quick start>", "exec"), namespace)
    assert [expected for _, expected in checked] == [0.5, 0.5, 1.0, False]
    for value, expected in checked:
        if isinstance(expected, bool):
            assert value is expected
        else:
            assert value == pytest.approx(expected, abs=1e-6)
