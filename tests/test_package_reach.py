"""Everything the package defines is reached from the package, or says why not.

An `ast` scan over `src/`: each top-level function and class, each
non-dunder method of a top-level class, and each non-dunder name a
top-level assignment binds must be read by name (a `Name`
or an attribute) somewhere in the package outside its own definition,
or be exported in `__all__`, or be listed in KEPT with a one-line
reason. A name that only the tests reach then has to state why it stays
in the package, and a reason that names a benchmark file holds only while
that file reads the name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import qutrit_toric

PACKAGE = Path(qutrit_toric.__file__).parent

# name -> why the package keeps it though no other package code reads it
KEPT = {
    "ShotBatch.records": "benchmarks/probes.py compares batches with it until ROADMAP item 2",
    "StabilizerTableau.projector_triple": "benchmarks/probes.py times it until ROADMAP item 2",
    "StabilizerTableau.apply_weyl": "benchmarks/probes.py times it until ROADMAP item 2",
    "mitigated_plaquette_triple": "benchmarks/probes.py times it until ROADMAP item 2",
    "exact_outcome_distribution": "benchmarks/probes.py times it; the tests' enumeration oracle",
    "TopologicalQutritProtocol.logical_shift_loop": "library: the paper's logical shift",
}
REPO = Path(__file__).resolve().parents[1]


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) for top-level defs, class methods and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def names_read(node: ast.AST) -> Counter:
    """How often each name is read in node, as a `Name` or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached() -> dict[str, str]:
    """Qualified name -> 'module:line' of each definition the package never reads elsewhere."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((names_read(t) for t in trees.values()), Counter())
    return {qualified: f"{module}:{node.lineno}"
            for module, tree in trees.items() for qualified, name, node in definitions(tree)
            if everywhere[name] == names_read(node)[name]}


def test_every_package_definition_is_reached_or_kept_for_a_reason():
    exported = set(qutrit_toric.__all__)
    found = unreached()
    assert "TopologicalQutritProtocol.logical_shift_loop" in found  # the scan sees methods
    assert {name: where for name, where in found.items()
            if name not in exported and name not in KEPT} == {}


def test_scan_sees_module_constants():
    tree = ast.parse("A = 1\nB, C = 2, 3\n__all__ = ['A']\ndef f():\n    return A\n")
    assert [qualified for qualified, _, _ in definitions(tree)] == ["A", "B", "C", "f"]


def test_every_kept_name_is_defined_and_unreached():
    """A KEPT entry whose name is gone, or that the package now reads, is stale."""
    assert sorted(set(KEPT) - set(unreached())) == []


def test_every_benchmark_reason_names_a_file_that_reads_the_name():
    """A KEPT reason naming a benchmarks/ file is stale once that file stops reading the name."""
    stale = [(name, path) for name, reason in KEPT.items()
             for path in re.findall(r"benchmarks/\w+\.py", reason)
             if not names_read(ast.parse((REPO / path).read_text()))[name.rsplit(".", 1)[-1]]]
    assert stale == []
