"""Versioned JSON schemas: circuits, scripts and the result document.

Every document carries a "schema" tag. A result document wraps the
entries its run built (braid frames and topological-qutrit rows come
from `experiments` already in document form). Documents are
written, not read back, each as one line of compact JSON (json's C
encoder) with keys in sorted order, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json

from .circuit import Circuit
from .encoder import require_gate_only
from .experiments import (
    Fuse,
    InsertCC,
    InsertPF,
    Move,
    Prepare,
    Script,
    Snapshot,
)

CIRCUIT_SCHEMA = "qutrit-toric/circuit/v1"
SCRIPT_SCHEMA = "qutrit-toric/script/v1"
RESULT_SCHEMA = "qutrit-toric/result/v1"


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- circuits ----------------------------------------------------------------------


def circuit_to_json(circ: Circuit) -> dict:
    """The circuit/v1 document of a gate-only circuit."""
    require_gate_only(circ)
    return {
        "schema": CIRCUIT_SCHEMA,
        "d": circ.d,
        "n_qudits": circ.n_qudits,
        "n_cregs": circ.n_cregs,
        "instructions": [{"kind": "gate", "gate": ins.gate.kind.value,
                          "targets": list(ins.gate.targets)} for ins in circ.instructions],
    }


# -- scripts -----------------------------------------------------------------------


def script_to_json(script: Script) -> dict:
    steps = []
    for step in script.steps:
        if isinstance(step, Prepare):
            steps.append({"op": "prepare"})
        elif isinstance(step, InsertPF):
            steps.append({"op": "pf-defect", "site": list(step.site),
                          "species": step.species})
        elif isinstance(step, InsertCC):
            steps.append({
                "op": "cc-defect",
                "schain": [list(s) for s in step.ribbon.schain],
                "steps": [
                    {"s": list(s), "sigma": list(sig), "eta": eta}
                    for s, sig, eta in step.ribbon.steps
                ],
            })
        elif isinstance(step, Move):
            steps.append({
                "op": "move",
                "label": step.label,
                "support": [list(q) for q in step.support],
                "changes": [[key, delta] for key, delta in step.changes],
                "free": list(step.free),
            })
        elif isinstance(step, Fuse):
            steps.append({"op": "fuse", "defect": step.defect_index})
        elif isinstance(step, Snapshot):
            steps.append({"op": "snapshot", "label": step.label})
    return {"schema": SCRIPT_SCHEMA, "name": script.name,
            "lattice": [script.lx, script.ly], "steps": steps}


# -- results ----------------------------------------------------------------------


def result_document(subcommand: str, config: dict, payload: dict) -> dict:
    return {
        "schema": RESULT_SCHEMA,
        "subcommand": subcommand,
        "config": config,
        "results": payload,
    }
