"""Two-qubit-per-qutrit compilation to the native gate set.

Encoding: |0> -> |00>, |1> -> |10>, |2> -> |11>; the leftover |01> is
the non-computational herald state. Qutrit i owns qubit pair
(2i, 2i+1) = (hi, lo); basis index within a pair is 2*hi + lo.

Single-qutrit gates are synthesized from their 4x4 targets through the
canonical two-qubit decomposition, which makes the entangler counts
minimal for each gate's class. The controlled-clock gate is four
cross-pair controlled-phase rotations; the controlled-shift conjugates
it by Fourier gates on the target pair. A compiled circuit acts
identically on the encoded subspace and never populates the herald
state, so leakage observed at readout always signals an error.

Compilation takes gate-only circuits and is one qutrit token stream,
which refuses any other instruction kind through `Circuit.validate`:
encode_circuit places its native sequences on qubit pairs; compile_report
sums cached per-token summaries.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .circuit import Circuit, Gate, sparse_events
from .weyl import GateKind
from .synth import NativeOp, on_qubit, ops_unitary, phase_distance, synthesize_two_qubit

OMEGA = np.exp(2j * np.pi / 3)
ENCODE_BITS = {0: (0, 0), 1: (1, 0), 2: (1, 1)}
NC_BITS = (0, 1)
DECODE_BITS = {v: k for k, v in ENCODE_BITS.items()}
# pair index 2*hi + lo of each qutrit value, and back (herald index -> 0, never read)
ENCODE_INDEX = np.array([2 * hi + lo for hi, lo in ENCODE_BITS.values()], dtype=np.uint8)
NC_INDEX = 2 * NC_BITS[0] + NC_BITS[1]
DECODE_INDEX = np.array([DECODE_BITS.get(divmod(i, 2), 0) for i in range(4)], dtype=np.uint8)
READOUT_P01, READOUT_P10, LEAK_PER_TWO_QUBIT = 2.37e-3, 0.82e-3, 2.5e-4  # characterized rates


# -- gate targets --------------------------------------------------------------

# 4x3 isometry of one qubit pair: column q is the encoded basis state of qutrit q
_PAIR = np.eye(4)[:, ENCODE_INDEX]


def encoding_isometry(n_qutrits: int) -> np.ndarray:
    """3^n -> 4^n isometry mapping qutrit basis states to encoded bit states."""
    return reduce(np.kron, [_PAIR] * n_qutrits, np.ones((1, 1)))


def encoded_target(kind: GateKind) -> np.ndarray:
    """4x4 target on a qubit pair. The clock gate carries an omega phase on
    the herald state (making it a local RZ pair); the conjugation gate
    carries the -1 there (making it a single-entangler gate); all other
    kinds leave the herald state strictly unchanged."""
    from .dense import gate_matrix

    kind = GateKind(kind)
    out = _PAIR @ gate_matrix(kind, 3) @ _PAIR.T
    out[NC_INDEX, NC_INDEX] = {GateKind.CLOCK_Z: OMEGA, GateKind.CLOCK_Z_DAG: OMEGA.conjugate(),
                               GateKind.CONJ: -1.0}.get(kind, 1.0)
    return out


MPREP_TARGET = _PAIR.sum(1) / np.sqrt(3)


def _placed(local, qutrits) -> list[int]:
    """Local pair qubits (2k, 2k+1) onto the pair of qutrits[k]."""
    return [2 * qutrits[q // 2] + q % 2 for q in local]


def _place(ops: list[NativeOp], qutrits) -> list[NativeOp]:
    """ops with _placed qubits and cbits (each qubit owns the cbit of its index)."""
    return [NativeOp(op.kind, tuple(_placed(op.qubits, qutrits)), op.params,
                     tuple(_placed(op.cbits, qutrits))) for op in ops]


def _mprep_ops() -> list[NativeOp]:
    """|00> -> (|00> + |10> + |11>)/sqrt(3) with one entangler."""
    theta1 = 2 * np.arccos(1 / np.sqrt(3)) / np.pi
    ops = [NativeOp("u1q", (0,), (theta1, 0.5))]
    cry = np.eye(4, dtype=np.complex128)
    a = np.pi / 2
    cry[2:, 2:] = np.array(
        [[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]]
    )
    ops += synthesize_two_qubit(cry)
    overlap = np.vdot(ops_unitary(ops, 2)[:, 0], MPREP_TARGET)
    if abs(abs(overlap) - 1) > 1e-9:
        raise AssertionError("plus-state preparation synthesis failed")
    return ops


_DECOMPOSE_CACHE: dict[str, list[NativeOp]] = {}


def decompose_gate(kind) -> list[NativeOp]:
    """Native sequence for a supported qutrit gate, the plus-state prep
    ("mprep") or the two-CNOT copy onto a fresh target ("cxcopy").

    One-qutrit results act on local qubits (0, 1) = (hi, lo); two-qutrit
    results act on (0, 1, 2, 3) = control pair then target pair. Each
    sequence is synthesized once per process.
    """
    name = kind if isinstance(kind, str) else GateKind(kind).value
    if name in _DECOMPOSE_CACHE:
        return list(_DECOMPOSE_CACHE[name])
    if name == "mprep":
        ops = _mprep_ops()
    elif name == "cxcopy":
        cnot = synthesize_two_qubit(np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]])
        ops = on_qubit(cnot, {0: 0, 1: 2}) + on_qubit(cnot, {0: 1, 1: 3})
    elif name in ("cx", "cxdg", "cz", "czdg"):
        ops = _two_qutrit_ops(name)
    else:
        ops = synthesize_two_qubit(encoded_target(GateKind(name)))
    _DECOMPOSE_CACHE[name] = ops
    return list(ops)


def _two_qutrit_ops(name: str) -> list[NativeOp]:
    """Controlled clock: four cross-pair controlled phases. Controlled
    shift: Fourier-conjugate the controlled clock on the target pair."""
    phase = OMEGA if name in ("cz", "cx") else OMEGA.conjugate()
    cp = synthesize_two_qubit(np.diag([1, 1, 1, phase]))
    ops = [o for a in (0, 1) for b in (2, 3) for o in on_qubit(cp, {0: a, 1: b})]
    if name in ("cx", "cxdg"):
        ops = (on_qubit(decompose_gate("h"), {0: 2, 1: 3}) + ops
               + on_qubit(decompose_gate("hdg"), {0: 2, 1: 3}))
    return ops


@dataclass(frozen=True)
class TokenSummary:
    """What one token adds to a compile report. depth_into[j][i] is the
    longest op chain from local input qubits[i] to output qubits[j], -inf
    where none joins them, so levels advance as max_i(level[i] + depth_into[j][i])."""
    names: tuple[str, ...]  # gate_counts entries
    qubits: tuple[int, ...]  # local qubits touched
    zz: int
    zz_per_qutrit: tuple[int, ...]  # zzphase involvements per local qutrit
    depth_into: tuple[tuple[float, ...], ...]


def _token_ops(key: str) -> list[NativeOp]:
    """Local sequence of a decompose_gate name, or of "measure": measz of both
    qubits into local cbits (0, 1)."""
    if key == "measure":
        return [NativeOp("measz", (0,), (), (0,)), NativeOp("measz", (1,), (), (1,))]
    return decompose_gate(key)


@lru_cache(maxsize=None)
def token_summary(key: str) -> TokenSummary:
    """Summary of a _token_ops key, computed once per process."""
    ops = _token_ops(key)
    qubits = sorted({q for op in ops for q in op.qubits})
    pos = {q: k for k, q in enumerate(qubits)}
    # reach[i][j]: longest chain from input qubits[i] to the latest op on qubits[j]
    reach = [[0 if i == j else -np.inf for j in range(len(qubits))] for i in range(len(qubits))]
    zz_per_qutrit = [0] * (qubits[-1] // 2 + 1 if qubits else 0)
    for op in ops:
        cols = [pos[q] for q in op.qubits]
        for row in reach:
            top = max(row[c] for c in cols) + 1
            for c in cols:
                row[c] = top
        if op.kind == "zzphase":
            for q in op.qubits:
                zz_per_qutrit[q // 2] += 1
    names = () if key == "measure" else (key,)
    return TokenSummary(names, tuple(qubits), sum(zz_per_qutrit) // 2,
                        tuple(zz_per_qutrit), tuple(zip(*reach)))


SUPPORTED_GATES = ("z", "zdg", "x", "xdg", "c", "h", "hdg", "cx", "cxdg", "cz", "czdg", "mprep")


def zz_budget(name: str) -> int:
    return token_summary(name).zz


def verify_decomposition(name: str) -> float:
    """Max entrywise deviation from the target after global-phase alignment.

    One-qutrit gates compare full 4x4 matrices; controlled gates compare
    on the encoded 9-dimensional subspace; the state preparation
    compares its output column.
    """
    from .dense import gate_matrix

    ops = decompose_gate(name)
    if name == "mprep":
        built = ops_unitary(ops, 2)[:, 0]
        overlap = np.vdot(MPREP_TARGET, built)
        return float(np.abs(built - (overlap / abs(overlap)) * MPREP_TARGET).max())
    if name in ("cx", "cxdg", "cz", "czdg"):
        iso = encoding_isometry(2)
        return phase_distance(gate_matrix(GateKind(name), 3), iso.T @ ops_unitary(ops, 4) @ iso)
    return phase_distance(encoded_target(GateKind(name)), ops_unitary(ops, 2))


# -- qubit-level circuit -----------------------------------------------------------


@dataclass
class QubitCircuit:
    n_qubits: int  # also the number of classical bits: each qubit has one
    ops: list[NativeOp] = field(default_factory=list)


def _token_stream(circuit: Circuit, basis: str | None, optimization_level: int):
    """Qutrit-level token stream of a valid gate-only circuit, with Fourier-expansion
    and peephole passes. Each token is (key, qutrits): key is a token_summary key or
    "barrier" (no qutrits)."""
    circuit.validate((Gate,))
    tokens: list[tuple] = []
    fresh = set(range(circuit.n_qudits))
    for ins in circuit.instructions:
        kind, tg = ins.gate.kind.value, ins.gate.targets
        fresh_target = optimization_level >= 1 and tg[-1] in fresh
        if kind == "h" and fresh_target:
            tokens.append(("mprep", tg))
        elif kind in ("cx", "cxdg") and fresh_target:
            tokens.append(("cxcopy", tg))
            if kind == "cxdg":
                tokens.append(("c", tg[1:]))  # copy then conjugate = inverse copy
        elif kind in ("cx", "cxdg"):
            tokens += [("h", tg[1:]), ("cz" if kind == "cx" else "czdg", tg), ("hdg", tg[1:])]
        else:
            tokens.append((kind, tg))
        fresh.difference_update(tg)
    if basis is not None:
        tokens.append(("barrier", ()))
        if basis == "x":
            tokens += [("h", (i,)) for i in range(circuit.n_qudits)]
        tokens += [("measure", (i,)) for i in range(circuit.n_qudits)]
    if optimization_level >= 1:
        tokens = _cancel_fourier_pairs(tokens)
    return tokens


def _cancel_fourier_pairs(tokens):
    """Drop h/hdg pairs on the same qutrit separated only by tokens that do
    not touch that qutrit. Barriers are transparent to this identity (a
    trailing Fourier merges with the measurement-basis rotation across
    the pre-measurement barrier)."""
    out: list = []
    on = defaultdict(list)  # qutrit -> indices into out of the tokens on it
    for tok in tokens:
        key, qutrits = tok
        stack = on[qutrits[0]] if key in ("h", "hdg") else None
        if stack and out[stack[-1]][0] == {"h": "hdg", "hdg": "h"}[key]:
            out[stack.pop()] = None
            continue
        for q in qutrits:
            on[q].append(len(out))
        out.append(tok)
    return [tok for tok in out if tok is not None]


def per_qutrit_two_qubit(circuit: Circuit, basis: str | None = None) -> list[int]:
    """Entangler (zzphase) involvements per qutrit of the gate-only circuit
    compiled at optimization level 1, summed from the token summaries
    without a depth walk."""
    counts = [0] * circuit.n_qudits
    for key, qutrits in _token_stream(circuit, basis, 1):
        if key != "barrier":
            for qt, k in zip(qutrits, token_summary(key).zz_per_qutrit):
                counts[qt] += k
    return counts


def compile_report(circuit: Circuit, basis: str | None = None,
                   optimization_level: int = 1) -> dict:
    """The compile document's report entry: encode_circuit's counts and depth,
    summed over the token stream with the token summaries, without building
    the qubit circuit. A barrier levels every qubit."""
    level = [0] * (2 * circuit.n_qudits)
    per_qutrit = [0] * circuit.n_qudits
    gate_counts: Counter[str] = Counter()
    two_qubit = 0
    for key, qutrits in _token_stream(circuit, basis, optimization_level):
        if key == "barrier":
            level = [max(level, default=0)] * len(level)
            continue
        summary = token_summary(key)
        gate_counts.update(summary.names)
        two_qubit += summary.zz
        for qt, k in zip(qutrits, summary.zz_per_qutrit):
            per_qutrit[qt] += k
        qs = _placed(summary.qubits, qutrits)
        before = [level[q] for q in qs]
        for q, into in zip(qs, summary.depth_into):
            level[q] = max(map(add, before, into))
    return {
        "two_qubit_count": two_qubit,
        "depth": max(level, default=0),
        "budget_table": {name: zz_budget(name) for name in SUPPORTED_GATES},
        "gate_counts": dict(gate_counts),
        "per_qutrit_two_qubit": per_qutrit,
        "optimization_level": optimization_level,
        "basis": basis,
    }


def encode_circuit(circuit: Circuit, basis: str | None = None,
                   optimization_level: int = 1) -> QubitCircuit:
    """Compile a gate-only qutrit circuit to the native set (compile_report has its counts).

    basis 'z' or 'x' appends a barrier plus a destructive measure-all.
    Optimization level 0 uses the plain per-gate decompositions (a lone
    CX costs exactly its budget); level 1 adds plus-state preparation
    for fresh Fourier targets, two-CNOT copies onto fresh CX targets,
    and Fourier-pair cancellation into measurement rotations.
    """
    qc = QubitCircuit(2 * circuit.n_qudits)
    for key, qutrits in _token_stream(circuit, basis, optimization_level):
        if key == "barrier":
            qc.ops.append(NativeOp("barrier", tuple(range(qc.n_qubits))))
        else:
            qc.ops.extend(_place(_token_ops(key), qutrits))
    return qc


# -- emission formats --------------------------------------------------------------


def qubit_circuit_text(qc: QubitCircuit) -> str:
    """Plain-text dump, one op per line.

    Grammar:
        line     := gate | meas | barrier
        gate     := NAME "(" params ")" " " qubits ";"
        meas     := "measz" " " qubits " -> " cbits ";"
        barrier  := "barrier;"
        qubits   := "q[" INT "]" ("," "q[" INT "]")*
        cbits    := "c[" INT "]" ("," "c[" INT "]")*
    Angles are in turns; the header line is "qubits N; cbits N;".
    """
    lines = [f"qubits {qc.n_qubits}; cbits {qc.n_qubits};", *map(_op_text, qc.ops)]
    return "\n".join(lines) + "\n"


def _op_text(op: NativeOp) -> str:
    if op.kind == "barrier":
        return "barrier;"
    qs = ",".join(f"q[{q}]" for q in op.qubits)
    if op.kind == "measz":
        return f"measz {qs} -> {','.join(f'c[{c}]' for c in op.cbits)};"
    return f"{op.kind}({','.join(f'{p:.12g}' for p in op.params)}) {qs};"


QUBIT_CIRCUIT_SCHEMA = "qutrit-toric/qubit-circuit/v1"


def _op_doc(op: NativeOp) -> dict:
    doc = {"kind": op.kind, "qubits": list(op.qubits), "params": list(op.params)}
    if op.cbits:
        doc["cbits"] = list(op.cbits)
    return doc


def qubit_circuit_to_json(qc: QubitCircuit) -> dict:
    return {"schema": QUBIT_CIRCUIT_SCHEMA, "n_qubits": qc.n_qubits,
            "n_cbits": qc.n_qubits, "ops": [_op_doc(op) for op in qc.ops]}


# -- heralding and readout ------------------------------------------------------------


def herald_filter(pairs: np.ndarray) -> tuple[np.ndarray, float]:
    """Drop (N, n) pair-index rows where any qutrit pair reads the herald state |01>.

    Returns the retained rows and the discarded fraction.
    """
    pairs = np.asarray(pairs)
    heralded = (pairs == NC_INDEX).any(axis=1)
    total = len(heralded)
    return pairs[~heralded], (int(heralded.sum()) / total if total else 0.0)


def decode_qubit_records(pairs: np.ndarray) -> np.ndarray:
    """Herald-free (M, n) pair indices back to (M, n) qutrit values."""
    pairs = np.asarray(pairs)
    if (pairs == NC_INDEX).any():
        raise ValueError("herald state in a record; apply herald_filter first")
    return DECODE_INDEX[pairs]


def simulate_readout(values: np.ndarray, per_qutrit_two_qubit: list[int],
                     p01: float = READOUT_P01, p10: float = READOUT_P10,
                     leak_per_two_qubit: float = LEAK_PER_TWO_QUBIT,
                     seed: int = 0) -> np.ndarray:
    """Overlay gate leakage and readout confusion onto ideal qutrit values.

    values is an (N, n) qutrit array; returns the (N, n) uint8 pair index
    2*hi + lo read from each qutrit's qubit pair, NC_INDEX for a leaked
    qutrit. per_qutrit_two_qubit is per_qutrit_two_qubit(circuit, basis)
    of the measured circuit, also the compile report's field of that
    name. Each qubit of every entangling gate leaks its qutrit to the
    herald state independently with probability leak_per_two_qubit (the
    default reproduces roughly the observed discard fraction on the
    large lattice workload); surviving hi and lo bits are flipped with
    the readout confusion rates, p10 for an ideal 0 and p01 for an ideal 1.

    Only the events are drawn, in this order: `sparse_events` over the
    N * n (shot, qutrit) slots at the largest leak rate, one thinning
    uniform per such slot (kept at its qutrit's rate), then `sparse_events`
    over the 2 * N * n (shot, qutrit, hi then lo) bit slots at
    max(p01, p10), one thinning uniform per such slot (kept at its ideal
    bit's rate). Slots are shot-major.
    """
    rng = np.random.default_rng(seed)
    pairs = ENCODE_INDEX[np.asarray(values)]
    flat = pairs.reshape(-1)  # a view: shot i's qutrit q sits at i * n + q
    # per_qutrit_two_qubit already counts qubit-level involvements
    leak_p = 1.0 - (1.0 - leak_per_two_qubit) ** np.asarray(per_qutrit_two_qubit)
    if pairs.shape[1:] != leak_p.shape:
        raise ValueError("values need one column per per_qutrit_two_qubit entry")
    top = leak_p.max(initial=0.0)
    leaked = sparse_events(rng, flat.size, top)
    leaked = leaked[rng.random(len(leaked)) * top < leak_p[leaked % len(leak_p)]]
    top = max(p01, p10)
    slot = sparse_events(rng, 2 * flat.size, top)
    mask = (2 >> (slot & 1)).astype(np.uint8)  # a hi bit's 2, a lo bit's 1
    kept = rng.random(len(slot)) * top < np.where(flat[slot >> 1] & mask, p01, p10)
    np.bitwise_xor.at(flat, slot[kept] >> 1, mask[kept])  # keeps a pair's two flips
    flat[leaked] = NC_INDEX
    return pairs
