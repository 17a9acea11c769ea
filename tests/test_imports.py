"""Every imported name is used somewhere in its module.

An `ast` scan of src/ and tests/ standing in for a linter's unused-import
rule.  Names listed in a module's `__all__` count as used (re-exports).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    # an attribute chain a.b.c is rooted at the Name a
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_scanner_flags_only_unused_names():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "import a.b\nfrom m import x, y\n__all__ = ['y']\nnp.zeros(a.b.c)\n")
    assert unused_imports(src) == ["os (line 2)", "x (line 5)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
