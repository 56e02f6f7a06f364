"""No module imports a name it never uses.

A stdlib stand-in for pyflakes' F401: every name an ``import`` binds in
``src/aggcheck/*.py`` or ``tests/*.py`` must be read somewhere in the same
file, unless the import's line carries ``# noqa: F401`` (a binding kept on
purpose, such as one a tracer patches). The package's ``__init__.py`` is
its public surface, so its imports are exports, not uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for folder in (ROOT / "src" / "aggcheck", ROOT / "tests")
         for path in sorted(folder.glob("*.py")) if path.name != "__init__.py"]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each import binding the file never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # the statement's first line, or the name's own in a parenthesised list
                if not any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno)):
                    bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_flags_an_unused_import_and_honours_noqa():
    source = ("from os import path, sep\n"
              "import json  # noqa: F401\n"
              "import collections.abc\n"
              "print(sep)\n")
    assert unused_imports(source) == [(1, "path"), (3, "collections")]
