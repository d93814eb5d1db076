"""Versioned JSON schemas: circuits, scripts, frames, compile reports.

Every document carries a "schema" tag; a frame list is not a document
of its own but the "frames" entry of a braid result. Serialization is
loss-free for circuits (round-trips through from_json) and
deterministic: dict keys are emitted in sorted order so identical
inputs give identical bytes.
"""

from __future__ import annotations

import json

from .circuit import (
    Barrier,
    Circuit,
    CondGate,
    Gate,
    Measure,
    Noise,
    NoiseChannel,
)
from .defects import CCRibbon
from .estimators import PlaquetteSnapshot
from .experiments import (
    Frame,
    Fuse,
    InsertCC,
    InsertPF,
    Move,
    Prepare,
    Script,
    Snapshot,
)
from .weyl import CliffordGate, GateKind, WeylOp

CIRCUIT_SCHEMA = "qutrit-toric/circuit/v1"
SCRIPT_SCHEMA = "qutrit-toric/script/v1"
RESULT_SCHEMA = "qutrit-toric/result/v1"


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# -- weyl operators ---------------------------------------------------------------


def weyl_to_json(w: WeylOp) -> dict:
    sites = w.support
    return {
        "sites": list(sites),
        "x": [int(w.x[s]) for s in sites],
        "z": [int(w.z[s]) for s in sites],
        "phase": int(w.phase),
    }


def weyl_from_json(doc: dict, d: int, n: int) -> WeylOp:
    pattern = {s: (x, z) for s, x, z in zip(doc["sites"], doc["x"], doc["z"])}
    return WeylOp.from_pattern(d, n, pattern, doc.get("phase", 0))


# -- circuits ----------------------------------------------------------------------


def circuit_to_json(circ: Circuit) -> dict:
    instrs = []
    for ins in circ.instructions:
        if isinstance(ins, Gate):
            instrs.append({"kind": "gate", "gate": ins.gate.kind.value,
                           "targets": list(ins.gate.targets)})
        elif isinstance(ins, Measure):
            instrs.append({"kind": "measure", "observable": weyl_to_json(ins.observable),
                           "creg": ins.creg})
        elif isinstance(ins, CondGate):
            cases = {
                str(outcome): [
                    {"gate": g.kind.value, "targets": list(g.targets)} for g in gates
                ]
                for outcome, gates in sorted(ins.predicate.items())
            }
            instrs.append({"kind": "cond", "creg": ins.creg, "cases": cases})
        elif isinstance(ins, Noise):
            ch = {"kind": ins.channel.kind, "p": ins.channel.p}
            instrs.append({"kind": "noise", "channel": ch, "sites": list(ins.sites)})
        elif isinstance(ins, Barrier):
            instrs.append({"kind": "barrier"})
    return {
        "schema": CIRCUIT_SCHEMA,
        "d": circ.d,
        "n_qudits": circ.n_qudits,
        "n_cregs": circ.n_cregs,
        "instructions": instrs,
    }


def circuit_from_json(doc: dict) -> Circuit:
    if doc.get("schema") != CIRCUIT_SCHEMA:
        raise ValueError(f"unexpected schema {doc.get('schema')}")
    circ = Circuit(doc["d"], doc["n_qudits"], doc["n_cregs"])
    for ins in doc["instructions"]:
        kind = ins["kind"]
        if kind == "gate":
            circ.gate(CliffordGate(GateKind(ins["gate"]), tuple(ins["targets"])))
        elif kind == "measure":
            circ.measure(weyl_from_json(ins["observable"], circ.d, circ.n_qudits),
                         ins["creg"])
        elif kind == "cond":
            predicate = {
                int(outcome): tuple(
                    CliffordGate(GateKind(g["gate"]), tuple(g["targets"]))
                    for g in gates
                )
                for outcome, gates in ins["cases"].items()
            }
            circ.cond(ins["creg"], predicate)
        elif kind == "noise":
            ch = ins["channel"]
            circ.noise(NoiseChannel(ch["kind"], ch.get("p", 0.0)), tuple(ins["sites"]))
        elif kind == "barrier":
            circ.barrier()
        else:
            raise ValueError(f"unknown instruction kind {kind}")
    return circ


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


def script_from_json(doc: dict) -> Script:
    if doc.get("schema") != SCRIPT_SCHEMA:
        raise ValueError(f"unexpected schema {doc.get('schema')}")
    lx, ly = doc["lattice"]
    script = Script(doc["name"], lx, ly)
    for step in doc["steps"]:
        op = step["op"]
        if op == "prepare":
            script.steps.append(Prepare())
        elif op == "pf-defect":
            script.steps.append(InsertPF(tuple(step["site"]), step["species"]))
        elif op == "cc-defect":
            ribbon = CCRibbon(
                tuple(tuple(s) for s in step["schain"]),
                tuple((tuple(s["s"]), tuple(s["sigma"]), s["eta"]) for s in step["steps"]),
            )
            script.steps.append(InsertCC(ribbon))
        elif op == "move":
            script.steps.append(Move(
                tuple(tuple(q) for q in step["support"]),
                tuple((key, delta) for key, delta in step["changes"]),
                tuple(step.get("free", ())),
                step.get("label", ""),
            ))
        elif op == "fuse":
            script.steps.append(Fuse(step["defect"]))
        elif op == "snapshot":
            script.steps.append(Snapshot(step["label"]))
        else:
            raise ValueError(f"unknown script op {op}")
    return script


# -- frames and results ----------------------------------------------------------------


def snapshot_to_json(snap: PlaquetteSnapshot) -> dict:
    return {
        "kind": snap.kind,
        "pos": list(snap.pos),
        "pi1": snap.triple[0],
        "pi_omega": snap.triple[1],
        "pi_omegabar": snap.triple[2],
        "expectation_re": snap.expectation.real,
        "expectation_im": snap.expectation.imag,
        "arg_deg": snap.arg_deg,
        "std_errors": list(snap.std_errors),
        "n_shots": snap.n_shots,
        "transformed": snap.transformed,
        "label": snap.label,
    }


def frames_to_json(frames: list[Frame]) -> list[dict]:
    return [
        {
            "label": f.label,
            "plaquettes": [snapshot_to_json(s) for s in f.plaquettes],
            "defect_stabilizers": [snapshot_to_json(s) for s in f.defects],
        }
        for f in frames
    ]


def result_document(subcommand: str, config: dict, payload: dict) -> dict:
    return {
        "schema": RESULT_SCHEMA,
        "subcommand": subcommand,
        "config": config,
        "results": payload,
    }
