"""The CLI keeps one boundary: subcommands only do work, `main` alone writes
errors and picks exit codes, and every instance file is read by `_read`.

Checked on the source of `cli.py` with `ast`, so no call is made.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "wildrows" / "cli.py"


def owners(source: str, match) -> set[str]:
    """Names of the top-level definitions holding a node that matches;
    "<module>" for a match in other top-level statements."""
    found = set()
    for stmt in ast.parse(source).body:
        if any(match(node) for node in ast.walk(stmt)):
            found.add(getattr(stmt, "name", "<module>"))
    return found


def uses_stderr(node) -> bool:
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr"


def returns_value(node) -> bool:
    return isinstance(node, ast.Return) and node.value is not None


def reads_text(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "read_text"


def subcommands(source: str) -> set[str]:
    return {stmt.name for stmt in ast.parse(source).body
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_cmd_")}


def test_checkers_flag_violations():
    source = (
        "import sys\n"
        "def _cmd_a(args):\n    print('x', file=sys.stderr)\n    return 3\n"
        "def _cmd_b(args):\n    return\n"
        "def main():\n    sys.stderr.write('x')\n    return 0\n"
        "TEXT = Path('f').read_text()\n"
    )
    assert owners(source, uses_stderr) == {"_cmd_a", "main"}
    assert owners(source, returns_value) & subcommands(source) == {"_cmd_a"}
    assert owners(source, reads_text) == {"<module>"}


def test_only_main_writes_to_stderr():
    assert owners(CLI.read_text(), uses_stderr) == {"main"}


def test_subcommands_return_nothing():
    source = CLI.read_text()
    assert len(subcommands(source)) == 6
    assert owners(source, returns_value) & subcommands(source) == set()


def test_only_read_reads_files():
    assert owners(CLI.read_text(), reads_text) == {"_read"}
