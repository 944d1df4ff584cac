"""Every function, method and class defined in ``src/finspace`` is used by
the program or is part of its public API.

A module-level function or class counts as used when it appears as a
whole word, on a line other than the ``def``/``class`` lines that define
it, in a Python file under ``src/`` (``__init__.py`` aside) or ``bench/``,
or when ``finspace.__all__`` lists it.  A name that only tests call is
dead: a brute-force check the tests compare against belongs in
``tests/reference.py``.

A method counts as used when some attribute access in a Python file under
``src/`` or ``bench/`` names it (``x.name``, read off the syntax tree, so
comments, strings and tests do not count), or when ``bench/tracing.py``'s
``LAYERS`` wraps it by its dotted path.  A module function read through
the benchmark's namespace of modules, ``fs.<module>.name``, is no use of
a method called ``name``.  A function nested in another
counts as used when the program names it outside its ``def``.  Dunder
methods are exempt: the interpreter calls them.  So is a method that
overrides one of a base class, which the base calls, and the methods in
``API_METHODS``, kept for library users although the program does not
call them.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import finspace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finspace"
WORD = re.compile(r"\w+")

# the replay of a verdict's certificate, which users and tests run
API_METHODS = {"HomotopyVerdict.replay"}


def definitions():
    """(name, kind, source line) for every def and class in the package;
    kind is 'module', 'method' (defined in a class body, then the name is
    ``Class.method`` and the class is given) or 'nested'."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        top = {id(node) for node in tree.body}
        module = importlib.import_module(f"finspace.{path.stem}")
        owner = {
            id(child): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if id(node) in top:
                    yield name, "module", lines[node.lineno - 1]
                elif id(node) in owner:
                    cls = getattr(module, owner[id(node)])
                    yield f"{cls.__name__}.{name}", "method", cls
                else:
                    yield name, "nested", None


def program_files():
    return [
        p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"
    ] + list((ROOT / "bench").rglob("*.py"))


def words_in(paths):
    words = Counter()
    for path in paths:
        words.update(WORD.findall(path.read_text()))
    return words


def module_function(node):
    """Is ``node`` a read like ``fs.<finspace module>.name``?"""
    owner = node.value
    return (
        isinstance(owner, ast.Attribute)
        and isinstance(owner.value, ast.Name)
        and owner.value.id == "fs"
        and (PACKAGE / f"{owner.attr}.py").exists()
    )


def names_in(paths):
    """Attribute names and plain names read or called in ``paths``."""
    attrs, names = Counter(), Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and not module_function(node):
                attrs[node.attr] += 1
            elif isinstance(node, ast.Name):
                names[node.id] += 1
    return attrs, names


def traced_methods():
    """The method names that ``bench/tracing.py``'s ``LAYERS`` wraps."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            layers = ast.literal_eval(node.value)
            return {path.split(".")[-1] for _, path in layers.values() if "." in path}
    raise AssertionError("bench/tracing.py defines no LAYERS")


def test_every_definition_is_used():
    files = program_files()
    program = words_in(files)
    attrs, names = names_in(files)
    traced = traced_methods()
    api = set(finspace.__all__)
    defs = list(definitions())
    own = Counter()
    for name, kind, line in defs:
        if kind == "module":
            own[name] += WORD.findall(line).count(name)
    unused = []
    for name, kind, cls in defs:
        if kind == "module":
            dead = program[name] <= own[name] and name not in api
        elif kind == "method":
            attr = name.split(".")[1]
            overrides = any(hasattr(base, attr) for base in cls.__mro__[1:])
            dead = not (
                attrs[attr] or attr in traced or overrides or name in API_METHODS
            )
        else:
            dead = not names[name] and not attrs[name]
        if dead:
            unused.append(name)
    assert sorted(unused) == []


def test_public_api_resolves():
    assert len(set(finspace.__all__)) == len(finspace.__all__)
    missing = [name for name in finspace.__all__ if not hasattr(finspace, name)]
    assert missing == []
    namespace = {}
    exec("from finspace import *", namespace)
    assert set(finspace.__all__) <= set(namespace)
