"""Every name a library module imports is used in that module, and every
public name has a reason to exist in README's table."""

import ast
import re
from pathlib import Path

import pytest

import entgeo

SRC = Path(__file__).resolve().parent.parent / "src" / "entgeo"
README = SRC.parent.parent / "README.md"

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


def reason_rows(text: str) -> list[tuple[str, str]]:
    """(name, reason) of each row of the table under README's "## Public names"."""
    section = text.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| (.*?) \|$", section, flags=re.MULTILINE)


def test_every_public_name_has_one_reason():
    rows = reason_rows(README.read_text(encoding="utf-8"))
    names = [name for name, _ in rows]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(entgeo.__all__)
    assert all(reason.strip() for _, reason in rows)


def test_reason_rows_are_read_from_the_table():
    text = ("# x\n\n## Public names\n\n| name | reason |\n| --- | --- |\n"
            "| `a` | claim 01 |\n| `b` |  |\n\n## CLI\n\n| `c` | not here |\n")
    assert reason_rows(text) == [("a", "claim 01"), ("b", "")]
