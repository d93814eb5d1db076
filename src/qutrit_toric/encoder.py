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

Compilation is one qutrit token stream: encode_circuit places its native
sequences on qubit pairs; compile_report sums cached per-token summaries.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .circuit import Barrier, Circuit, CondGate, Gate, Measure, Noise
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


def _embed_qutrit(mat3: np.ndarray, nc_phase: complex = 1.0) -> np.ndarray:
    out = _PAIR @ mat3 @ _PAIR.T
    out[NC_INDEX, NC_INDEX] = nc_phase
    return out


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
    nc_phase = {GateKind.CLOCK_Z: OMEGA, GateKind.CLOCK_Z_DAG: OMEGA.conjugate(),
                GateKind.CONJ: -1.0}.get(kind, 1.0)
    return _embed_qutrit(gate_matrix(kind, 3), nc_phase=nc_phase)


MPREP_TARGET = _PAIR.sum(1) / np.sqrt(3)


def _placed(local, qutrits) -> list[int]:
    """Local pair qubits (2k, 2k+1) onto the pair of qutrits[k]."""
    return [2 * qutrits[q // 2] + q % 2 for q in local]


def _place(ops: list[NativeOp], qutrits, creg: int = 0) -> list[NativeOp]:
    """ops with _placed qubits, and local cbits (0, 1) on the pair of creg."""
    return [NativeOp(op.kind, tuple(_placed(op.qubits, qutrits)), op.params,
                     tuple(2 * creg + c for c in op.cbits)) for op in ops]


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
    ops: int
    zz: int
    zz_per_qutrit: tuple[int, ...]  # zzphase involvements per local qutrit
    depth_into: tuple[tuple[float, ...], ...]


def _token_ops(key) -> list[NativeOp]:
    """Local sequence of a decompose_gate name, or of ("measure", None) and
    ("rotmeas", (xe, ze)): basis rotation, measz of both qubits into local
    cbits (0, 1), undo."""
    if isinstance(key, str):
        return decompose_gate(key)
    rot, undo = _basis_rotation_ops(*key[1]) if key[0] == "rotmeas" else ((), ())
    return [*rot, NativeOp("measz", (0,), (), (0,)), NativeOp("measz", (1,), (), (1,)), *undo]


@lru_cache(maxsize=None)
def token_summary(key) -> TokenSummary:
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
    names = ((key,) if isinstance(key, str) else ("basis-rot", "basis-rot-undo")
             if key[0] == "rotmeas" else ())
    return TokenSummary(names, tuple(qubits), len(ops), sum(zz_per_qutrit) // 2,
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


# -- measurement-basis rotations ------------------------------------------------------


def weyl_basis_rotation(xe: int, ze: int) -> np.ndarray:
    """4x4 unitary V with V W V^dag diagonal as diag(1, omega, omega^2) on the
    encoded triple (herald state untouched); W = X^xe Z^ze single-qutrit."""
    from .dense import gate_matrix

    X = gate_matrix(GateKind.SHIFT_X, 3)
    Z = gate_matrix(GateKind.CLOCK_Z, 3)
    W = np.linalg.matrix_power(X, xe % 3) @ np.linalg.matrix_power(Z, ze % 3)
    vals, vecs = np.linalg.eig(W)
    order = []
    for s in range(3):
        target = OMEGA**s
        k = int(np.argmin(np.abs(vals - target)))
        order.append(k)
        vals[k] = 99  # consume
    return _embed_qutrit(vecs[:, order].conj().T)


@lru_cache(maxsize=None)
def _basis_rotation_ops(xe: int, ze: int) -> tuple[tuple[NativeOp, ...], tuple[NativeOp, ...]]:
    """Native measurement-basis rotation and its undo, synthesized once per process."""
    V = weyl_basis_rotation(xe, ze)
    return tuple(synthesize_two_qubit(V)), tuple(synthesize_two_qubit(V.conj().T))


# -- qubit-level circuit -----------------------------------------------------------


@dataclass(frozen=True)
class CondNative:
    cbits: tuple[int, ...]  # (hi, lo) classical bits of one qutrit outcome
    cases: dict[tuple[int, int], tuple[NativeOp, ...]]


@dataclass
class QubitCircuit:
    n_qubits: int  # also the number of classical bits: each qubit has one
    ops: list = field(default_factory=list)


def _token_stream(circuit: Circuit, basis: str | None, optimization_level: int):
    """Qutrit-level token stream with Fourier-expansion and peephole passes. Each token
    is (key, qutrits, creg): key is a token_summary key, "cond" (the predicate fills
    qutrits) or "barrier" (no qutrits); creg is 0 but for measurements and conds."""
    circuit.validate()
    tokens: list[tuple] = []
    fresh = set(range(circuit.n_qudits))
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            kind, tg = ins.gate.kind.value, ins.gate.targets
            fresh_target = optimization_level >= 1 and tg[-1] in fresh
            if kind == "h" and fresh_target:
                tokens.append(("mprep", tg, 0))
            elif kind in ("cx", "cxdg") and fresh_target:
                tokens.append(("cxcopy", tg, 0))
                if kind == "cxdg":
                    tokens.append(("c", tg[1:], 0))  # copy then conjugate = inverse copy
            elif kind in ("cx", "cxdg"):
                tokens += [("h", tg[1:], 0), ("cz" if kind == "cx" else "czdg", tg, 0),
                           ("hdg", tg[1:], 0)]
            else:
                tokens.append((kind, tg, 0))
            fresh.difference_update(tg)
        elif isinstance(ins, Measure):
            obs = ins.observable
            sites = obs.support
            if len(sites) != 1:
                raise ValueError("only single-site measurement observables compile")
            s = int(sites[0])
            xe, ze = int(obs.x[s]), int(obs.z[s])
            if (xe, ze) == (1, 0):
                tokens.append(("h", (s,), 0))
            tokens.append((("measure", None) if (xe, ze) in ((0, 1), (1, 0))
                           else ("rotmeas", (xe, ze)), (s,), ins.creg))
            fresh.discard(s)
        elif isinstance(ins, CondGate):
            tokens.append(("cond", ins.predicate, ins.creg))
            fresh.difference_update(q for gates in ins.predicate.values() for g in gates
                                    for q in g.targets)
        elif isinstance(ins, Barrier):
            tokens.append(("barrier", (), 0))
        elif isinstance(ins, Noise):
            raise ValueError("stochastic noise instructions do not compile to the native set")
    if basis is not None:
        tokens.append(("barrier", (), 0))
        if basis == "x":
            tokens += [("h", (i,), 0) for i in range(circuit.n_qudits)]
        tokens += [(("measure", None), (i,), i) for i in range(circuit.n_qudits)]
    if optimization_level >= 1:
        tokens = _cancel_fourier_pairs(tokens)
    return tokens


def _cancel_fourier_pairs(tokens):
    """Drop h/hdg pairs on the same qutrit separated only by tokens that do
    not touch that qutrit. Barriers are transparent to this identity (a
    trailing Fourier merges with the measurement-basis rotation across
    the pre-measurement barrier); conditionals block it."""
    out: list = []
    on = defaultdict(list)  # qutrit -> indices into out of the tokens on it
    cond = -1  # index of the latest cond
    for tok in tokens:
        key, qutrits, _ = tok
        stack = on[qutrits[0]] if key in ("h", "hdg") else None
        if stack and stack[-1] > cond and out[stack[-1]][0] == {"h": "hdg", "hdg": "h"}[key]:
            out[stack.pop()] = None
            continue
        if key == "cond":
            cond = len(out)
        else:
            for q in qutrits:
                on[q].append(len(out))
        out.append(tok)
    return [tok for tok in out if tok is not None]


def per_qutrit_two_qubit(circuit: Circuit, basis: str | None = None,
                         optimization_level: int = 1) -> list[int]:
    """Entangler (zzphase) involvements per qutrit of the compiled circuit's
    unconditional ops, summed from the token summaries without a depth
    walk. A rotated measurement counts both of its basis rotations; a
    cond counts nothing."""
    counts = [0] * circuit.n_qudits
    for key, qutrits, _ in _token_stream(circuit, basis, optimization_level):
        if key not in ("cond", "barrier"):
            for qt, k in zip(qutrits, token_summary(key).zz_per_qutrit):
                counts[qt] += k
    return counts


def compile_report(circuit: Circuit, basis: str | None = None,
                   optimization_level: int = 1) -> dict:
    """The compile document's report entry: encode_circuit's counts and depth,
    summed over the token stream with the token summaries, without building
    the qubit circuit. A barrier levels every qubit; a cond advances every
    qubit its branches touch by the op count of its longest branch, and
    adds its largest branch zzphase count."""
    level = [0] * (2 * circuit.n_qudits)
    per_qutrit = [0] * circuit.n_qudits
    gate_counts: Counter[str] = Counter()
    two_qubit = 0
    for key, qutrits, _ in _token_stream(circuit, basis, optimization_level):
        if key == "barrier":
            level = [max(level, default=0)] * len(level)
        elif key == "cond":
            gate_counts["cond"] += 1
            branches = [[(token_summary(g.kind.value), g.targets) for g in gates]
                        for gates in qutrits.values()]
            two_qubit += max(sum(s.zz for s, _ in br) for br in branches)
            qs = {q for br in branches for s, qt in br for q in _placed(s.qubits, qt)}
            top = max((level[q] for q in qs), default=0) + max(
                sum(s.ops for s, _ in br) for br in branches)
            for q in qs:
                level[q] = top
        else:
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
    """Compile a qutrit circuit to the native set (compile_report has its counts).

    basis 'z' or 'x' appends a barrier plus a destructive measure-all.
    Optimization level 0 uses the plain per-gate decompositions (a lone
    CX costs exactly its budget); level 1 adds plus-state preparation
    for fresh Fourier targets, two-CNOT copies onto fresh CX targets,
    and Fourier-pair cancellation into measurement rotations.
    """
    qc = QubitCircuit(2 * circuit.n_qudits)
    for key, qutrits, creg in _token_stream(circuit, basis, optimization_level):
        if key == "barrier":
            qc.ops.append(NativeOp("barrier", tuple(range(qc.n_qubits))))
        elif key == "cond":
            cases = {
                ENCODE_BITS[outcome]: tuple(
                    op for g in gates for op in _place(decompose_gate(g.kind.value), g.targets))
                for outcome, gates in qutrits.items()
            }
            cases[NC_BITS] = ()
            qc.ops.append(CondNative((2 * creg, 2 * creg + 1), cases))
        else:
            qc.ops.extend(_place(_token_ops(key), qutrits, creg))
    return qc


# -- emission formats --------------------------------------------------------------


def qubit_circuit_text(qc: QubitCircuit) -> str:
    """Plain-text dump, one op per line.

    Grammar:
        line     := gate | meas | barrier | cond
        gate     := NAME "(" params ")" " " qubits ";"
        meas     := "measz" " " qubits " -> " cbits ";"
        barrier  := "barrier;"
        cond     := "cond " cbits " { " cases " }"
        cases    := case (" " case)*
        case     := "[" BIT BIT "]: " (gate (" " gate)* | "skip;")
        qubits   := "q[" INT "]" ("," "q[" INT "]")*
        cbits    := "c[" INT "]" ("," "c[" INT "]")*
    Angles are in turns; the header line is "qubits N; cbits N;".
    """
    lines = [f"qubits {qc.n_qubits}; cbits {qc.n_qubits};", *map(_op_text, qc.ops)]
    return "\n".join(lines) + "\n"


def _op_text(op) -> str:
    if isinstance(op, CondNative):
        cases = []
        for bits, seq in sorted(op.cases.items()):
            body = " ".join(_op_text(o) for o in seq) if seq else "skip;"
            cases.append(f"[{bits[0]}{bits[1]}]: {body}")
        cb = ",".join(f"c[{c}]" for c in op.cbits)
        return f"cond {cb} {{ {' '.join(cases)} }}"
    if op.kind == "barrier":
        return "barrier;"
    qs = ",".join(f"q[{q}]" for q in op.qubits)
    if op.kind == "measz":
        return f"measz {qs} -> {','.join(f'c[{c}]' for c in op.cbits)};"
    return f"{op.kind}({','.join(f'{p:.12g}' for p in op.params)}) {qs};"


QUBIT_CIRCUIT_SCHEMA = "qutrit-toric/qubit-circuit/v1"


def _op_doc(op) -> dict:
    if isinstance(op, CondNative):
        return {"kind": "cond", "cbits": list(op.cbits),
                "cases": {f"{b[0]}{b[1]}": [_op_doc(o) for o in seq]
                          for b, seq in sorted(op.cases.items())}}
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
    the readout confusion rates. The draws are one (N, n) array of leak
    uniforms, then one (N, n, 2) array of hi and lo uniforms, drawn for
    every qutrit, leaked or not.
    """
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    n = len(per_qutrit_two_qubit)
    # per_qutrit_two_qubit already counts qubit-level involvements
    leak_p = 1.0 - (1.0 - leak_per_two_qubit) ** np.asarray(per_qutrit_two_qubit)
    leaked = rng.random((len(values), n)) < leak_p
    uniforms = rng.random((len(values), n, 2))
    pairs = ENCODE_INDEX[values]
    flip_p = np.array([p10, p01])  # indexed by the ideal bit
    flips = 2 * (uniforms[..., 0] < flip_p[pairs >> 1]) + (uniforms[..., 1] < flip_p[pairs & 1])
    pairs ^= flips.astype(np.uint8)
    pairs[leaked] = NC_INDEX
    return pairs
