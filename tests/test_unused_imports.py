"""Every module of the package uses every name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wildrows"
MODULES = sorted(f.name for f in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_name():
    assert unused_imports("import os\nfrom x import a, b as c\nc(os.sep)\n") == ["a"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
