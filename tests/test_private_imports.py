"""Modules of the package import only public names from one another."""

import ast
from pathlib import Path

import qutrit_toric

PACKAGE = Path(qutrit_toric.__file__).parent


def private_imports(path: Path) -> list[str]:
    """'module._name' for every underscore name that path imports from a package module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "qutrit_toric":
            continue
        found.extend(f"{module or '.'}.{alias.name}" for alias in node.names
                     if alias.name.startswith("_"))
    return found


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    offenders = {p.name: names for p in paths if (names := private_imports(p))}
    assert offenders == {}
