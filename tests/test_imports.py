"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "entgeo"

# Imported on purpose for other modules to read, never used where imported.
REEXPORTS = {("geometry.py", "mutual_information")}


def unused_imports(path: Path) -> list[str]:
    """Names imported at any level of path's module that nothing reads.

    A name counts as read when it appears as a bare name anywhere in the
    module (attribute chains start with one) or as a string in __all__.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported
            if name not in used and (path.name, name) not in REEXPORTS]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_reexports_are_still_imported():
    for filename, name in REEXPORTS:
        tree = ast.parse((SRC / filename).read_text(encoding="utf-8"))
        names = {a.asname or a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names}
        assert name in names


def test_catches_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from dataclasses import dataclass, field\n"
                      "import numpy as np\n\n"
                      "@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(module) == ["field", "np"]
