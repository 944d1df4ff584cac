"""Every function, method and class defined in ``src/finspace`` is used by
the program or is part of its public API.

A module-level function or class counts as used when it appears as a
whole word, on a line other than the ``def``/``class`` lines that define
it, in a Python file under ``src/`` (``__init__.py`` aside) or ``bench/``,
or when ``finspace.__all__`` lists it.  A name that only tests call is
dead: a brute-force check the tests compare against belongs in
``tests/reference.py``.  A method counts as used when a Python file under
``src/``, ``tests/`` or ``bench/`` names it so.  Dunder methods are
exempt: the interpreter calls them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import finspace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finspace"
WORD = re.compile(r"\w+")


def definitions():
    """(name, whether it is module-level, source line) for every def and
    class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, id(node) in top, lines[node.lineno - 1]


def words_in(paths):
    words = Counter()
    for path in paths:
        words.update(WORD.findall(path.read_text()))
    return words


def test_every_definition_is_used():
    program = words_in(
        [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
        + list((ROOT / "bench").rglob("*.py"))
    )
    tests = words_in((ROOT / "tests").rglob("*.py"))
    own = Counter()
    module_level = set()
    for name, top, line in definitions():
        own[name] += WORD.findall(line).count(name)
        if top:
            module_level.add(name)
    api = set(finspace.__all__)
    unused = sorted(
        name
        for name in own
        if (
            program[name] <= own[name] and name not in api
            if name in module_level
            else program[name] + tests[name] <= own[name]
        )
    )
    assert unused == []


def test_public_api_resolves():
    assert len(set(finspace.__all__)) == len(finspace.__all__)
    missing = [name for name in finspace.__all__ if not hasattr(finspace, name)]
    assert missing == []
    namespace = {}
    exec("from finspace import *", namespace)
    assert set(finspace.__all__) <= set(namespace)
