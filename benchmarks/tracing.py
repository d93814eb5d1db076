"""Spans and counts at the program's layer boundaries, recorded from outside.

While a traced op runs, the tracer replaces the names that
``qutrit_toric.cli`` imports from each layer with wrappers that record a
span per call. It also wraps the defect builders that ``experiments``
imports, the experiment runners, the tableau the exact ``prepare`` path
builds, and, only while ``verify`` runs, the ``weyl``/``dense`` helpers
that ``verify`` imports at call time. Nothing in the package is edited:
every patch is undone when the op ends, so untraced ops in the same
process run the original code.

A span is ``[name, start, end, parent, op]``: ``name`` is
``<layer>.<function>``, times are ``time.perf_counter`` seconds,
``parent`` is the index of the enclosing span (-1 for none) and ``op``
is the id of the timed op it belongs to. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

# names qutrit_toric.cli imports, by layer
CLI_NAMES = {
    "lattice": ("build_lattice", "ground_state_circuit", "measure_all_circuit"),
    "circuit": ("run_shots",),
    "encoder": ("encode_circuit", "simulate_readout", "herald_filter",
                "decode_qubit_records", "verify_decomposition", "zz_budget"),
    "estimators": ("estimate_plaquette_projectors", "snapshot_from_tableau"),
    "analysis": ("energy_density", "fidelity_bounds"),
    "experiments": ("braid_scripts", "topo_layout_6x2", "topo_layout_6x4"),
    "serialize": ("circuit_to_json", "dumps", "frames_to_json", "result_document",
                  "script_to_json", "snapshot_to_json", "to_native_json"),
}
# names qutrit_toric.experiments imports, by layer
EXPERIMENTS_NAMES = {
    "defects": ("pf_defect_circuit", "cc_defect_circuit", "solve_weyl_op", "weyl_gates"),
    "lattice": ("ground_state_circuit",),
    "estimators": ("snapshot_from_tableau",),
    "weyl": ("conjugate_through",),
}


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.captured: dict = {}
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[self.op][key] += value

    def wrap(self, name, fn, after=None):
        """fn recording one span per call; name may be a callable of the args."""

        def traced(*args, **kwargs):
            idx = self.begin(name if isinstance(name, str) else name(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self, args, out)
            return out

        return functools.wraps(fn)(traced)


# counters taken from arguments and results at the boundary
def _after_run_shots(t, args, batch):
    t.count("circuit.shots", len(batch))


def _after_measure_all(t, args, circ):
    t.captured["basis"] = args[1]


def _after_readout(t, args, qrecs):
    t.count("encoder.readout_shots", len(qrecs))


def _after_herald(t, args, out):
    t.count("encoder.herald_shots", len(args[0]))
    t.count("encoder.retained_shots", len(out[0]))
    t.captured.setdefault("retained", {})[t.captured.get("basis")] = out[0]


def _after_decode(t, args, records):
    t.count("encoder.decode_shots", len(records))


def _after_estimate(t, args, snaps):
    t.count("estimators.shots", len(args[0]))


def _after_dumps(t, args, text):
    t.count("serialize.doc_bytes", len(text) + 1)


HOOKS = {
    "run_shots": _after_run_shots,
    "measure_all_circuit": _after_measure_all,
    "simulate_readout": _after_readout,
    "herald_filter": _after_herald,
    "decode_qubit_records": _after_decode,
    "estimate_plaquette_projectors": _after_estimate,
    "dumps": _after_dumps,
}


@contextlib.contextmanager
def _patched(tracer: Tracer, entries):
    """entries: (owner, attribute, span name or callable of args, hook or None).

    A name the program no longer has is skipped; its metrics then read as bypassed.
    """
    saved = []
    try:
        for owner, attr, name, after in entries:
            if not hasattr(owner, attr):
                continue
            old = getattr(owner, attr)
            saved.append((owner, attr, old))
            setattr(owner, attr, tracer.wrap(name, old, after))
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layer boundaries for the duration of the with-block."""
    from qutrit_toric import cli, dense, experiments, weyl
    from qutrit_toric.experiments import ScriptRunner, TopologicalQutritProtocol
    from qutrit_toric.tableau import StabilizerTableau

    entries = [(cli, attr, f"{layer}.{attr}", HOOKS.get(attr))
               for layer, names in CLI_NAMES.items() for attr in names]
    entries += [(experiments, attr, f"{layer}.{attr}", None)
                for layer, names in EXPERIMENTS_NAMES.items() for attr in names]
    entries += [
        (ScriptRunner, "run", lambda a: f"experiments.ScriptRunner.run:{a[0].script.name}", None),
        (TopologicalQutritProtocol, "__init__", "experiments.TopologicalQutritProtocol.init", None),
        (TopologicalQutritProtocol, "run",
         lambda a: f"experiments.TopologicalQutritProtocol.run:{a[0].lattice.lx}x{a[0].lattice.ly}",
         None),
    ]
    # the exact prepare path drives a tableau from cli itself
    traced_tableau = type("StabilizerTableau", (StabilizerTableau,), {})
    entries += [(traced_tableau, attr, f"tableau.{attr}", None)
                for attr in ("apply_gate", "projector_expectation")]
    verify = cli.cmd_verify

    def scoped_verify(args):
        with _patched(tracer, [(weyl, "conjugate_by_gate", "weyl.conjugate_by_gate", None),
                               (dense, "gate_matrix", "dense.gate_matrix", None),
                               (dense, "weyl_matrix", "dense.weyl_matrix", None)]):
            return verify(args)

    with _patched(tracer, entries):
        cli.StabilizerTableau, cli.cmd_verify = traced_tableau, scoped_verify
        try:
            yield
        finally:
            cli.StabilizerTableau, cli.cmd_verify = StabilizerTableau, verify


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict[int, dict[str, Counter]]:
    """Per op id: self seconds and outermost seconds per layer, seconds and calls per name.

    A layer's outermost time sums the spans whose parent lies in another
    layer, so nested calls within one layer are not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[int, dict[str, Counter]] = defaultdict(
        lambda: {"self": Counter(), "layer": Counter(), "name": Counter(), "calls": Counter()})
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        layer = layer_of(name)
        s = out[op]
        s["self"][layer] += dur - child[i]
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            s["layer"][layer] += dur
        s["name"][name] += dur
        s["calls"][name] += 1
    return out
