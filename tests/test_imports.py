"""Static check: every module uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("import os\nfrom csv import reader as r, writer\nwriter\n") == ["os", "r"]
    # Package __init__ modules import names to re-export them.
    modules = [
        path
        for folder in (ROOT / "src" / "reportsignal", ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert modules
    unused = {
        path.relative_to(ROOT).as_posix(): names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
