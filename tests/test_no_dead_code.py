"""Every function, method and class defined in ``src/finspace`` is named
somewhere else in the program, its tests or its benchmark.

A name counts as used when it appears as a whole word in a Python file
under ``src/``, ``tests/`` or ``bench/`` on a line other than the
``def``/``class`` lines that define it.  Dunder methods are exempt: the
interpreter calls them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")


def definitions():
    """(name, source line) for every def and class in the package."""
    for path in sorted((ROOT / "src" / "finspace").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, lines[node.lineno - 1]


def test_every_definition_is_used():
    words = Counter()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(WORD.findall(path.read_text()))
    own = Counter()
    for name, line in definitions():
        own[name] += WORD.findall(line).count(name)
    unused = sorted(name for name in own if words[name] <= own[name])
    assert unused == []
