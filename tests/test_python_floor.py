"""The package runs on the oldest Python that pyproject.toml names (3.10): a check of its source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ddrm").glob("*.py"))
# Names that exist only from Python 3.11: a module, a typing name and a code-object attribute.
NEWER_NAMES = {"tomllib", "Self", "co_qualname"}


def names(tree: ast.AST):
    """Every module, imported name, variable and attribute the tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_needs_nothing_newer_than_python_3_10(path):
    # feature_version refuses 3.11 syntax, `except*` among it.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    assert NEWER_NAMES.isdisjoint(names(tree)), sorted(NEWER_NAMES.intersection(names(tree)))


def test_the_check_sees_what_it_refuses():
    assert len(SOURCES) >= 10
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    sources = ["import tomllib", "from typing import Self", "import typing\ntyping.Self", "f.__code__.co_qualname"]
    for source in sources:
        assert not NEWER_NAMES.isdisjoint(names(ast.parse(source, feature_version=(3, 10)))), source
