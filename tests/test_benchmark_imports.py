"""Every name the benchmark imports from the package still resolves.

benchmarks/test_bench.py runs the probes with the tests here, but it
exercises only the imports its probes reach. An `ast` scan reads every
`from qutrit_toric... import name` and `import qutrit_toric...` in
benchmarks/*.py, those inside functions included, and resolves each
against the package, so a deletion that breaks any of them names the
file and line.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def package_imports(path: Path):
    """(line, module, name) per name path imports from the package; name is None
    for a plain `import qutrit_toric.x`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "qutrit_toric"):
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qutrit_toric":
                    yield node.lineno, alias.name, None


def resolves(module: str, name: str | None) -> bool:
    """Whether module imports and binds name, or has it as a submodule."""
    try:
        found = importlib.import_module(module)
        return name is None or hasattr(found, name) or bool(
            importlib.import_module(f"{module}.{name}"))
    except ImportError:
        return False


def test_every_benchmark_import_from_the_package_resolves():
    found = {(path.name, line, module, name) for path in sorted(BENCHMARKS.glob("*.py"))
             for line, module, name in package_imports(path)}
    assert {path for path, *_ in found} >= {"bench.py", "probes.py", "tracing.py"}
    assert sorted(f"{path}:{line}: {module}.{name}" for path, line, module, name in found
                  if not resolves(module, name)) == []


def test_resolution_tells_a_missing_name():
    assert resolves("qutrit_toric", "cli")  # a submodule
    assert resolves("qutrit_toric.circuit", "StabilizerTableau")  # a name it imports
    assert not resolves("qutrit_toric.circuit", "no_such_name")
    assert not resolves("qutrit_toric.no_such_module", None)
