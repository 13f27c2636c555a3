"""roleforge depends on the Python standard library alone."""

import ast
import sys

import pytest

from conftest import REPO

SOURCES = sorted((REPO / "src" / "roleforge").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_only_the_standard_library(path):
    outside = {name for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside


def test_the_package_sources_are_found():
    assert REPO / "src" / "roleforge" / "cli.py" in SOURCES
