"""Everything the package defines is reached from the package, or says why not.

An `ast` scan over `src/`: each top-level function and class, each
non-dunder method of a top-level class, and each non-dunder name a
top-level assignment binds must be read by name (a `Name`
or an attribute) somewhere in the package outside its own definition,
or be exported in `__all__`, or be listed in KEPT with a one-line
reason. A name that only the tests reach then has to state why it stays
in the package, and a reason that names a benchmark file holds only while
that file reads the name.

Parameters get the same scan: every parameter with a default, of a
top-level function or of a method (a constructor's through its class
name) of a top-level class, must be passed by some package call outside
its own definition, by keyword or by position, or be listed in KEPT as
`qualified(parameter)`. An option that only the tests pass then has to
state why it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import qutrit_toric

PACKAGE = Path(qutrit_toric.__file__).parent

# name -> why the package keeps it though no other package code reads it
KEPT = {
    "CondGate": "benchmarks/probes.py imports it until ROADMAP item 2",
    "ShotBatch.records": "benchmarks/probes.py compares batches with it until ROADMAP item 2",
    "StabilizerTableau.projector_triple": "benchmarks/probes.py times it until ROADMAP item 2",
    "mitigated_plaquette_triple": "benchmarks/probes.py times it until ROADMAP item 2",
    "exact_outcome_distribution": ("benchmarks/probes.py times it until ROADMAP item 2; "
                                   "the tests' enumeration oracle"),
    "TopologicalQutritProtocol.logical_shift_loop": "library: the paper's logical shift",
    "run_shots(parallelism)": "benchmarks/probes.py passes it until ROADMAP item 2",
    "main(argv)": "cli's console entry point passes no argv; tests pass one",
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


def defaulted_parameters(tree: ast.Module):
    """(qualified name, name calls use, parameter, position among the arguments a
    call passes or None if keyword-only, def node) per parameter with a default."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node.name, node.name, node, 0)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield from _defaulted(node.name, node.name, item, 1)
                elif not (item.name.startswith("__") and item.name.endswith("__")):
                    yield from _defaulted(f"{node.name}.{item.name}", item.name, item,
                                          0 if static else 1)


def _defaulted(qualified: str, name: str, node: ast.FunctionDef, skip: int):
    """skip: leading parameters a call does not pass (self or cls)."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield qualified, name, arg.arg, i - skip, node
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield qualified, name, arg.arg, None, node


def calls_to(node: ast.AST, name: str):
    """Calls in node of a `Name` or an attribute called name."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None)) == name:
                yield call


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether call passes param, by keyword, by position, or through * or **."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def unpassed() -> dict[str, str]:
    """'qualified(parameter)' -> 'module:line' of each defaulted parameter no package
    call outside its own definition passes."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    found = {}
    for module, tree in trees.items():
        for qualified, name, param, position, node in defaulted_parameters(tree):
            own = {id(call) for call in calls_to(node, name)}
            if not any(passes(call, param, position) for other in trees.values()
                       for call in calls_to(other, name) if id(call) not in own):
                found[f"{qualified}({param})"] = f"{module}:{node.lineno}"
    return found


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


def test_every_defaulted_parameter_is_passed_or_kept_for_a_reason():
    assert {name: where for name, where in unpassed().items() if name not in KEPT} == {}


def test_parameter_scan_sees_positions_keywords_and_constructors():
    tree = ast.parse("class K:\n    def __init__(self, a, b=1):\n        pass\n"
                     "    def m(self, c=2, *, e=3):\n        pass\n"
                     "    @staticmethod\n    def s(f=4):\n        pass\n"
                     "def g(h=5):\n    return g()\n"
                     "K(0, 1).m(e=0)\nK.s(0)\n")
    params = {(q, p): pos for q, _, p, pos, _ in defaulted_parameters(tree)}
    assert params == {("K", "b"): 1, ("K.m", "c"): 0, ("K.m", "e"): None, ("K.s", "f"): 0,
                      ("g", "h"): 0}
    passed = {(q, p) for q, name, p, pos, node in defaulted_parameters(tree)
              if any(passes(call, p, pos) for call in calls_to(tree, name))}
    assert passed == {("K", "b"), ("K.m", "e"), ("K.s", "f")}


def test_scan_sees_module_constants():
    tree = ast.parse("A = 1\nB, C = 2, 3\n__all__ = ['A']\ndef f():\n    return A\n")
    assert [qualified for qualified, _, _ in definitions(tree)] == ["A", "B", "C", "f"]


def test_every_kept_name_is_defined_and_unreached():
    """A KEPT entry whose name or parameter is gone, or that the package now reads
    or passes, is stale."""
    assert sorted(set(KEPT) - set(unreached()) - set(unpassed())) == []


def reads(tree: ast.Module, kept: str) -> bool:
    """Whether tree reads a KEPT name; for a KEPT parameter, whether it reads the
    function's name and passes some call a keyword of the parameter's name
    (a timing wrapper's call passes the function and its keywords together)."""
    name, _, param = kept.rstrip(")").partition("(")
    return bool(names_read(tree)[name.rsplit(".", 1)[-1]]) and (not param or any(
        kw.arg == param for call in ast.walk(tree) if isinstance(call, ast.Call)
        for kw in call.keywords))


def test_every_benchmark_reason_names_a_file_that_reads_the_name():
    """A KEPT reason naming a benchmarks/ file is stale once that file stops reading
    the name, or passing the parameter."""
    stale = [(name, path) for name, reason in KEPT.items()
             for path in re.findall(r"benchmarks/\w+\.py", reason)
             if not reads(ast.parse((REPO / path).read_text()), name)]
    assert stale == []


def test_reason_check_sees_a_parameter_passed_through_a_timing_wrapper():
    kept = "run_shots(parallelism)"
    assert reads(ast.parse("_timed(run_shots, c, 10, parallelism=2)"), kept)
    assert not reads(ast.parse("_timed(run_shots, c, 10)"), kept)
    assert not reads(ast.parse("f(parallelism=2)"), kept)
