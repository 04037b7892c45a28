"""Every module of the package uses every name it imports, and every name
the package defines at module level is used somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wildrows"
MODULES = sorted(f.name for f in PACKAGE.glob("*.py"))
# names Python itself or the packaging tools read: module attribute access
# and dir() (PEP 562), `import *`, the version string
PROTOCOL = {"__getattr__", "__dir__", "__all__", "__version__"}


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


def defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assigned names, to their statement."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node
    return names


def referenced(nodes) -> set[str]:
    """Names read in the given subtrees: bare names, attributes and the
    names of from-imports."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(a.name for a in node.names)
    return out


def exported(init: ast.Module) -> set[str]:
    """The public names of `__init__`'s name table, `_NAMES_BY_HOME`."""
    for node in init.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_NAMES_BY_HOME"]:
            return {name for names in ast.literal_eval(node.value).values() for name in names.split()}
    raise AssertionError("no _NAMES_BY_HOME in __init__")


def unused_definitions(sources: dict[str, str], outside: set[str]) -> list[str]:
    """module.name for each module-level definition of `sources` (module
    name to text) that no other statement of the package reads, that the
    name table does not export and that `outside` does not name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set(outside) | PROTOCOL
    if "__init__" in trees:
        used |= exported(trees["__init__"])
    unused = []
    for module, tree in trees.items():
        for name, statement in defined(tree).items():
            # a definition's own body does not count as a use of it
            elsewhere = [node for node in tree.body if node is not statement]
            others = [t for m, t in trees.items() if m != module]
            if name not in used and name not in referenced(elsewhere + others):
                unused.append(f"{module}.{name}")
    return unused


def bench_imports() -> set[str]:
    """The names the benchmark harness imports from the package."""
    names = set()
    for path in (ROOT / "wrbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wildrows"):
                names.update(a.name for a in node.names)
    return names


def test_definition_checker_flags_an_unused_name():
    sources = {
        "a": "def f():\n    return f()\n\ndef g():\n    pass\n\nX, Y = 1, 2\nZ = X\n",
        "b": "from .a import g\n\ndef h():\n    pass\n",
    }
    # f only calls itself, Y and Z are never read, h only by the outside set
    assert unused_definitions(sources, {"h"}) == ["a.f", "a.Y", "a.Z"]


def test_every_module_level_definition_is_used():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unused_definitions(sources, bench_imports()) == []
