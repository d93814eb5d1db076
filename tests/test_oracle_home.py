"""Test oracles have one home, tests/oracles.py, and the package keeps no copy."""

import ast
from pathlib import Path

import qutrit_toric

PACKAGE = Path(qutrit_toric.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def defined_names(path: Path) -> set[str]:
    """Names a module binds at top level, plus the methods of its top-level classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = top_level_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return names


def test_no_package_module_defines_an_oracle():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    oracles = {name for name in top_level_names(tree) if not name.startswith("_")}
    assert {"DenseState", "final_tableau", "spam_mitigate", "estimate_operator",
            "snapshot_from_triple", "qubit_circuit_depth",
            "qubit_circuit_two_qubit_count"} <= oracles
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    offenders = {p.name: sorted(names) for p in paths
                 if (names := defined_names(p) & oracles)}
    assert offenders == {}
