"""Every module of the package parses as Python 3.10, the oldest version that
pyproject.toml declares, whatever interpreter runs the suite."""

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
