"""Every module-level import in src/ is read somewhere in its module."""

import ast
from pathlib import Path

import pytest

import mmwave_scs

from conftest import perfbench_module

PACKAGE = Path(mmwave_scs.__file__).parent


def unread_imports(source: str) -> list:
    """The names that module-level imports of `source` bind and no code reads."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


def test_finds_an_unread_import():
    source = "import os\nfrom dataclasses import asdict, dataclass\nx = asdict(os.sep)\n"
    assert unread_imports(source) == ["dataclass"]


# __init__ imports to re-export.
@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}), ids=lambda path: path.stem
)
def test_every_import_is_read(path):
    # simulate may import a name only for perfbench's tracer, which wraps the
    # names of its LAYER_OF table in simulate by name.
    kept_for_tracer = perfbench_module("tracing").LAYER_OF if path.stem == "simulate" else {}
    unread = unread_imports(path.read_text())
    assert [name for name in unread if name not in kept_for_tracer] == []
