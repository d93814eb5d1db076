"""Versioned JSON schemas: circuits, scripts and the result document.

Every document carries a "schema" tag. `circuit_to_json` takes gate-only
circuits: `Circuit.validate` refuses an invalid circuit or any other
instruction kind before a document is written. A script step's document is
its op name from `_STEP_OPS` and its dataclass fields under their own names
(tuples dump as arrays); a CC insert writes its ribbon's schain and
(s, sigma, eta) steps in place of the ribbon. A result document wraps the
entries its run built (braid frames and topological-qutrit rows come
from `experiments` already in document form). Documents are
written, not read back, each as one line of compact JSON (json's C
encoder) with keys in sorted order, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json

from .circuit import Circuit, Gate
from .experiments import Fuse, InsertCC, InsertPF, Move, Prepare, Script, Snapshot

CIRCUIT_SCHEMA = "qutrit-toric/circuit/v1"
SCRIPT_SCHEMA = "qutrit-toric/script/v1"
RESULT_SCHEMA = "qutrit-toric/result/v1"


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- circuits ----------------------------------------------------------------------


def circuit_to_json(circ: Circuit) -> dict:
    """The circuit/v1 document of a valid gate-only circuit."""
    circ.validate((Gate,))
    return {
        "schema": CIRCUIT_SCHEMA,
        "d": circ.d,
        "n_qudits": circ.n_qudits,
        "n_cregs": circ.n_cregs,
        "instructions": [{"kind": "gate", "gate": ins.gate.kind.value,
                          "targets": list(ins.gate.targets)} for ins in circ.instructions],
    }


# -- scripts -----------------------------------------------------------------------


_STEP_OPS = {Prepare: "prepare", InsertPF: "pf-defect", InsertCC: "cc-defect",
             Move: "move", Fuse: "fuse", Snapshot: "snapshot"}


def script_to_json(script: Script) -> dict:
    steps = []
    for step in script.steps:
        doc = {"op": _STEP_OPS[type(step)], **vars(step)}
        if isinstance(step, InsertCC):  # the ribbon's fields in place of the ribbon
            ribbon = doc.pop("ribbon")
            doc.update(schain=ribbon.schain, steps=[{"s": s, "sigma": sig, "eta": eta}
                                                   for s, sig, eta in ribbon.steps])
        steps.append(doc)
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
