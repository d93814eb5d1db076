"""Every module reads each name it imports.

No linter runs on this project, so an `ast` scan stands in for the
unused-import rule: in the package (whose `__init__` re-exports are
exempt) and in the tests. `from __future__ import annotations` binds
nothing to read and is skipped.
"""

import ast
from pathlib import Path

import qutrit_toric

PACKAGE = Path(qutrit_toric.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(path: Path) -> list[str]:
    """'line:name' for every name path imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}:{name}" for name, line in sorted(imported.items()) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    assert len(paths) > 2
    offenders = {p.name: names for p in paths if (names := unused_imports(p))}
    assert offenders == {}
