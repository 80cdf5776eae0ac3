"""Every module of the package parses as Python 3.10, the oldest version that
pyproject.toml declares, whatever interpreter runs the suite, and only the
averaged model's module names its chunk layout."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "inhibopt").glob("*.py"))


def test_the_package_has_sources():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_syntax_newer_than_python_3_10_is_refused():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # exception groups: 3.11
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


# how the averaged model cuts its spans into chunks, and the chunk maps a propagator holds
CHUNK_LAYOUT = {"K_MAX", "_chunks", "_Chunks", "_Side", "chunks", "state_maps", "unit_maps"}


def _names(tree):
    """Every name a module binds, reads, imports or defines, and every attribute it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "averaged.py"],
                         ids=lambda p: p.name)
def test_only_the_averaged_module_names_the_chunk_layout(path):
    assert not CHUNK_LAYOUT & set(_names(ast.parse(path.read_text(), filename=str(path))))
