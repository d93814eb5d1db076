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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Barrier, Circuit, CondGate, Gate, Measure, Noise
from .weyl import GateKind
from .synth import NativeOp, ops_unitary, phase_distance, synthesize_two_qubit

OMEGA = np.exp(2j * np.pi / 3)
ENCODE_BITS = {0: (0, 0), 1: (1, 0), 2: (1, 1)}
NC_BITS = (0, 1)
DECODE_BITS = {v: k for k, v in ENCODE_BITS.items()}
ENC_INDEX = {q: 2 * b[0] + b[1] for q, b in ENCODE_BITS.items()}
NC_INDEX = 2 * NC_BITS[0] + NC_BITS[1]


# -- gate targets --------------------------------------------------------------


def _embed_qutrit(mat3: np.ndarray, nc_phase: complex = 1.0) -> np.ndarray:
    out = np.zeros((4, 4), dtype=np.complex128)
    for a in range(3):
        for b in range(3):
            out[ENC_INDEX[a], ENC_INDEX[b]] = mat3[a, b]
    out[NC_INDEX, NC_INDEX] = nc_phase
    return out


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


MPREP_TARGET = np.zeros(4, dtype=np.complex128)
for _q in range(3):
    MPREP_TARGET[ENC_INDEX[_q]] = 1 / np.sqrt(3)


def _cp_matrix(phase: complex) -> np.ndarray:
    return np.diag([1, 1, 1, phase]).astype(np.complex128)


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
    built = ops_unitary(ops, 2) @ np.array([1, 0, 0, 0], dtype=np.complex128)
    overlap = np.vdot(built, MPREP_TARGET)
    if abs(abs(overlap) - 1) > 1e-9:
        raise AssertionError("plus-state preparation synthesis failed")
    return ops


_DECOMPOSE_CACHE: dict[str, list[NativeOp]] = {}


def decompose_gate(kind) -> list[NativeOp]:
    """Native sequence for a supported qutrit gate or the plus-state prep.

    One-qutrit results act on local qubits (0, 1) = (hi, lo); two-qutrit
    results act on (0, 1, 2, 3) = control pair then target pair.
    """
    name = kind if isinstance(kind, str) else GateKind(kind).value
    if name in _DECOMPOSE_CACHE:
        return list(_DECOMPOSE_CACHE[name])
    if name == "mprep":
        ops = _mprep_ops()
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
    cp = synthesize_two_qubit(_cp_matrix(phase))
    ops: list[NativeOp] = []
    if name in ("cx", "cxdg"):
        h = decompose_gate("h")
        ops += [NativeOp(o.kind, tuple(q + 2 for q in o.qubits), o.params) for o in h]
    for a in (0, 1):
        for b in (2, 3):
            ops += [NativeOp(o.kind, tuple((a, b)[q] for q in o.qubits), o.params) for o in cp]
    if name in ("cx", "cxdg"):
        hdg = decompose_gate("hdg")
        ops += [NativeOp(o.kind, tuple(q + 2 for q in o.qubits), o.params) for o in hdg]
    return ops


SUPPORTED_GATES = ("z", "zdg", "x", "xdg", "c", "h", "hdg", "cx", "cxdg", "cz", "czdg", "mprep")


def zz_budget(name: str) -> int:
    return sum(1 for op in decompose_gate(name) if op.kind == "zzphase")


def two_qutrit_target(name: str) -> np.ndarray:
    """16x16 target for the controlled gates, control pair = qubits 0,1."""
    from .dense import gate_matrix

    kind = {"cx": GateKind.CX, "cxdg": GateKind.CX_DAG,
            "cz": GateKind.CZ, "czdg": GateKind.CZ_DAG}[name]
    g9 = gate_matrix(kind, 3)
    out = np.zeros((16, 16), dtype=np.complex128)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for e in range(3):
                    out[4 * ENC_INDEX[a] + ENC_INDEX[b], 4 * ENC_INDEX[c] + ENC_INDEX[e]] = \
                        g9[3 * a + b, 3 * c + e]
    # herald sectors: anything involving |nc> keeps its encoded-partner action
    # only through diagonal phases in the clock-type gates; verification is
    # restricted to the encoded subspace.
    return out


def verify_decomposition(name: str) -> float:
    """Max entrywise deviation from the target after global-phase alignment.

    One-qutrit gates compare full 4x4 matrices; controlled gates compare
    on the encoded 9-dimensional subspace; the state preparation
    compares its output column.
    """
    ops = decompose_gate(name)
    if name == "mprep":
        built = ops_unitary(ops, 2) @ np.array([1, 0, 0, 0], dtype=np.complex128)
        overlap = np.vdot(MPREP_TARGET, built)
        return float(np.abs(built - (overlap / abs(overlap)) * MPREP_TARGET).max())
    if name in ("cx", "cxdg", "cz", "czdg"):
        built = ops_unitary(ops, 4)
        target = two_qutrit_target(name)
        rows = [4 * ENC_INDEX[a] + ENC_INDEX[b] for a in range(3) for b in range(3)]
        sub_b = built[np.ix_(rows, rows)]
        sub_t = target[np.ix_(rows, rows)]
        return phase_distance(sub_t, sub_b)
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
    V3 = np.zeros((3, 3), dtype=np.complex128)
    for s, k in enumerate(order):
        V3[s, :] = vecs[:, k].conj()
    return _embed_qutrit(V3, nc_phase=1.0)


# -- qubit-level circuit -----------------------------------------------------------


@dataclass(frozen=True)
class CondNative:
    cbits: tuple[int, ...]  # (hi, lo) classical bits of one qutrit outcome
    cases: dict[tuple[int, int], tuple[NativeOp, ...]]


@dataclass
class QubitCircuit:
    n_qubits: int
    n_cbits: int
    ops: list = field(default_factory=list)

    def two_qubit_count(self) -> int:
        total = 0
        for op in self.ops:
            if isinstance(op, NativeOp) and op.kind == "zzphase":
                total += 1
            elif isinstance(op, CondNative):
                total += max(
                    sum(1 for o in seq if o.kind == "zzphase") for seq in op.cases.values()
                )
        return total

    def depth(self) -> int:
        level = [0] * self.n_qubits
        for op in self.ops:
            if isinstance(op, NativeOp):
                if op.kind == "barrier":
                    top = max(level)
                    level = [top] * self.n_qubits
                    continue
                qs = op.qubits
                layer = max(level[q] for q in qs) + 1
                for q in qs:
                    level[q] = layer
            elif isinstance(op, CondNative):
                seqs = [s for s in op.cases.values() if s]
                if not seqs:
                    continue
                qs = sorted({q for s in seqs for o in s for q in o.qubits})
                width = max(len(s) for s in seqs)
                layer = max(level[q] for q in qs) + width
                for q in qs:
                    level[q] = layer
        return max(level)


@dataclass
class CompileReport:
    two_qubit_count: int
    depth: int
    budget_table: dict[str, int]
    gate_counts: dict[str, int]
    per_qutrit_two_qubit: list[int]
    optimization_level: int
    basis: str | None

    def to_dict(self) -> dict:
        return {
            "two_qubit_count": self.two_qubit_count,
            "depth": self.depth,
            "budget_table": dict(self.budget_table),
            "gate_counts": dict(self.gate_counts),
            "per_qutrit_two_qubit": list(self.per_qutrit_two_qubit),
            "optimization_level": self.optimization_level,
            "basis": self.basis,
        }


def _token_stream(circuit: Circuit, basis: str | None, optimization_level: int):
    """Qutrit-level token stream with Fourier-expansion and peephole passes."""
    tokens: list[tuple] = []
    fresh = set(range(circuit.n_qudits))

    def touch(*qs):
        fresh.difference_update(qs)

    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            kind = ins.gate.kind.value
            tg = ins.gate.targets
            if kind == "h" and optimization_level >= 1 and tg[0] in fresh:
                tokens.append(("mprep", tg[0]))
                touch(*tg)
                continue
            if kind in ("cx", "cxdg"):
                c, t = tg
                if optimization_level >= 1 and t in fresh:
                    tokens.append(("cxcopy", c, t))
                    if kind == "cxdg":
                        tokens.append(("c", t))  # copy then conjugate = inverse copy
                    touch(c, t)
                    continue
                tokens.append(("h", t))
                tokens.append(("cz" if kind == "cx" else "czdg", c, t))
                tokens.append(("hdg", t))
                touch(c, t)
            else:
                tokens.append((kind, *tg))
                touch(*tg)
        elif isinstance(ins, Measure):
            obs = ins.observable
            sites = obs.support
            if len(sites) != 1:
                raise ValueError("only single-site measurement observables compile")
            s = int(sites[0])
            xe, ze = int(obs.x[s]), int(obs.z[s])
            if (xe, ze) == (0, 1):
                tokens.append(("measure", s, ins.creg, None))
            elif (xe, ze) == (1, 0):
                tokens.append(("h", s))
                tokens.append(("measure", s, ins.creg, None))
            else:
                tokens.append(("rotmeas", s, ins.creg, (xe, ze)))
            touch(s)
        elif isinstance(ins, CondGate):
            tokens.append(("cond", ins.creg, ins.predicate))
        elif isinstance(ins, Barrier):
            tokens.append(("barrier",))
        elif isinstance(ins, Noise):
            raise ValueError("stochastic noise instructions do not compile to the native set")
    if basis is not None:
        tokens.append(("barrier",))
        if basis == "x":
            for i in range(circuit.n_qudits):
                tokens.append(("h", i))
        for i in range(circuit.n_qudits):
            tokens.append(("measure", i, i, None))
    if optimization_level >= 1:
        tokens = _cancel_fourier_pairs(tokens)
    return tokens


def _touched_qutrits(tok) -> set[int]:
    """Qutrits a gate or measurement token acts on (not barrier or cond)."""
    if tok[0] in ("cz", "czdg", "cxcopy"):
        return {tok[1], tok[2]}
    return {tok[1]}


def _cancel_fourier_pairs(tokens):
    """Drop h/hdg pairs on the same qutrit separated only by tokens that do
    not touch that qutrit. Barriers are transparent to this identity (a
    trailing Fourier merges with the measurement-basis rotation across
    the pre-measurement barrier); conditionals block it."""
    out = []
    for tok in tokens:
        if tok[0] in ("h", "hdg"):
            site = tok[1]
            partner = "hdg" if tok[0] == "h" else "h"
            cancelled = False
            for k in range(len(out) - 1, -1, -1):
                prev = out[k]
                if prev[0] == "barrier":
                    continue
                if prev[0] == "cond":
                    break
                if site in _touched_qutrits(prev):
                    if prev[0] == partner and prev[1] == site:
                        out.pop(k)
                        cancelled = True
                    break
            if not cancelled:
                out.append(tok)
            continue
        out.append(tok)
    return out


def encode_circuit(circuit: Circuit, basis: str | None = None,
                   optimization_level: int = 1) -> tuple[QubitCircuit, CompileReport]:
    """Compile a qutrit circuit to the native set.

    basis 'z' or 'x' appends a barrier plus a destructive measure-all.
    Optimization level 0 uses the plain per-gate decompositions (a lone
    CX costs exactly its budget); level 1 adds plus-state preparation
    for fresh Fourier targets, two-CNOT copies onto fresh CX targets,
    and Fourier-pair cancellation into measurement rotations.
    """
    circuit.validate()
    tokens = _token_stream(circuit, basis, optimization_level)
    n_qubits = 2 * circuit.n_qudits
    qc = QubitCircuit(n_qubits, n_qubits)
    gate_counts: dict[str, int] = {}

    def emit(name: str, qutrits: tuple[int, ...]):
        gate_counts[name] = gate_counts.get(name, 0) + 1
        base = decompose_gate(name)
        mapping = {}
        for k, qt in enumerate(qutrits):
            mapping[2 * k] = 2 * qt
            mapping[2 * k + 1] = 2 * qt + 1
        for op in base:
            qc.ops.append(NativeOp(op.kind, tuple(mapping[q] for q in op.qubits), op.params))

    def emit_matrix(mat: np.ndarray, qutrit: int, name: str):
        gate_counts[name] = gate_counts.get(name, 0) + 1
        for op in synthesize_two_qubit(mat):
            qc.ops.append(NativeOp(op.kind, tuple(2 * qutrit + q for q in op.qubits), op.params))

    def emit_cnot_copy(c: int, t: int):
        gate_counts["cxcopy"] = gate_counts.get("cxcopy", 0) + 1
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=np.complex128)
        for hi_lo in (0, 1):
            for op in synthesize_two_qubit(cnot):
                pair = (2 * c + hi_lo, 2 * t + hi_lo)
                qc.ops.append(NativeOp(op.kind, tuple(pair[q] for q in op.qubits), op.params))

    for tok in tokens:
        if tok[0] == "barrier":
            qc.ops.append(NativeOp("barrier", tuple(range(n_qubits))))
        elif tok[0] == "measure":
            _, site, creg, _ = tok
            qc.ops.append(NativeOp("measz", (2 * site,), (), (2 * creg,)))
            qc.ops.append(NativeOp("measz", (2 * site + 1,), (), (2 * creg + 1,)))
        elif tok[0] == "rotmeas":
            _, site, creg, (xe, ze) = tok
            V = weyl_basis_rotation(xe, ze)
            emit_matrix(V, site, f"basis-rot")
            qc.ops.append(NativeOp("measz", (2 * site,), (), (2 * creg,)))
            qc.ops.append(NativeOp("measz", (2 * site + 1,), (), (2 * creg + 1,)))
            emit_matrix(V.conj().T, site, "basis-rot-undo")
        elif tok[0] == "cond":
            _, creg, predicate = tok
            cases = {}
            for outcome, gates in predicate.items():
                seq: list[NativeOp] = []
                for g in gates:
                    base = decompose_gate(g.kind.value)
                    for op in base:
                        seq.append(NativeOp(op.kind,
                                            tuple(2 * g.targets[0] + q for q in op.qubits),
                                            op.params))
                cases[ENCODE_BITS[outcome]] = tuple(seq)
            cases[NC_BITS] = ()
            qc.ops.append(CondNative((2 * creg, 2 * creg + 1), cases))
            gate_counts["cond"] = gate_counts.get("cond", 0) + 1
        elif tok[0] == "cxcopy":
            emit_cnot_copy(tok[1], tok[2])
        elif tok[0] in ("cz", "czdg"):
            emit(tok[0], (tok[1], tok[2]))
        else:
            emit(tok[0], (tok[1],))

    per_qutrit = [0] * circuit.n_qudits
    for op in qc.ops:
        if isinstance(op, NativeOp) and op.kind == "zzphase":
            for q in op.qubits:
                per_qutrit[q // 2] += 1
    report = CompileReport(
        two_qubit_count=qc.two_qubit_count(),
        depth=qc.depth(),
        budget_table={name: zz_budget(name) for name in SUPPORTED_GATES},
        gate_counts=gate_counts,
        per_qutrit_two_qubit=per_qutrit,
        optimization_level=optimization_level,
        basis=basis,
    )
    return qc, report


# -- encoded-subspace verification helpers ----------------------------------------


def encoding_isometry(n_qutrits: int) -> np.ndarray:
    """3^n -> 4^n isometry mapping qutrit basis states to encoded bit states."""
    dim_q = 3**n_qutrits
    dim_b = 4**n_qutrits
    E = np.zeros((dim_b, dim_q), dtype=np.complex128)
    for q in range(dim_q):
        digits = np.unravel_index(q, (3,) * n_qutrits)
        b = 0
        for dgt in digits:
            b = (b << 2) | ENC_INDEX[dgt]
        E[b, q] = 1
    return E


def qubit_circuit_unitary(qc: QubitCircuit) -> np.ndarray:
    ops = [op for op in qc.ops if isinstance(op, NativeOp) and op.kind not in ("measz", "barrier")]
    return ops_unitary(ops, qc.n_qubits)


# -- emission formats --------------------------------------------------------------


def qubit_circuit_text(qc: QubitCircuit) -> str:
    """Plain-text dump, one op per line.

    Grammar:
        line     := gate | meas | barrier | cond
        gate     := NAME "(" params ")" " " qubits ";"
        meas     := "measz" " " qubits " -> " cbits ";"
        barrier  := "barrier;"
        cond     := "cond c[" INT "],c[" INT "] {" cases "}"
        qubits   := "q[" INT "]" ("," "q[" INT "]")*
    Angles are in turns.
    """
    lines = [f"qubits {qc.n_qubits}; cbits {qc.n_cbits};"]
    for op in qc.ops:
        lines.append(_op_text(op))
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
    if op.kind == "measz":
        qs = ",".join(f"q[{q}]" for q in op.qubits)
        cs = ",".join(f"c[{c}]" for c in op.cbits)
        return f"measz {qs} -> {cs};"
    params = ",".join(f"{p:.12g}" for p in op.params)
    qs = ",".join(f"q[{q}]" for q in op.qubits)
    return f"{op.kind}({params}) {qs};"


QUBIT_CIRCUIT_SCHEMA = "qutrit-toric/qubit-circuit/v1"


def qubit_circuit_to_json(qc: QubitCircuit) -> dict:
    ops = []
    for op in qc.ops:
        if isinstance(op, CondNative):
            ops.append({
                "kind": "cond",
                "cbits": list(op.cbits),
                "cases": {
                    f"{b[0]}{b[1]}": [
                        {"kind": o.kind, "qubits": list(o.qubits),
                         "params": list(o.params)} for o in seq
                    ]
                    for b, seq in sorted(op.cases.items())
                },
            })
        else:
            doc = {"kind": op.kind, "qubits": list(op.qubits),
                   "params": list(op.params)}
            if op.cbits:
                doc["cbits"] = list(op.cbits)
            ops.append(doc)
    return {"schema": QUBIT_CIRCUIT_SCHEMA, "n_qubits": qc.n_qubits,
            "n_cbits": qc.n_cbits, "ops": ops}


# -- heralding and readout ------------------------------------------------------------


def _pair_index(bits: np.ndarray) -> np.ndarray:
    """(N, 2n) qubit bits -> (N, n) basis index 2*hi + lo of each qutrit pair."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] % 2:
        raise ValueError("qubit records must hold two bits per qutrit")
    return 2 * bits[:, 0::2] + bits[:, 1::2]


def herald_filter(bits: np.ndarray) -> tuple[np.ndarray, float]:
    """Drop shots where any qutrit pair reads the herald state |01>.

    Returns the retained rows and the discarded fraction.
    """
    heralded = (_pair_index(bits) == NC_INDEX).any(axis=1)
    total = len(heralded)
    return np.asarray(bits)[~heralded], (int(heralded.sum()) / total if total else 0.0)


# pair index 2*hi + lo -> qutrit value (the herald index maps to 0 and is never read)
_DECODE_INDEX = np.array([DECODE_BITS.get(divmod(i, 2), 0) for i in range(4)], dtype=np.uint8)
_ENCODE_ARRAY = np.array([ENCODE_BITS[q] for q in range(3)], dtype=np.uint8)


def decode_qubit_records(bits: np.ndarray) -> np.ndarray:
    """Herald-free (M, 2n) qubit bits back to (M, n) qutrit values."""
    index = _pair_index(bits)
    if (index == NC_INDEX).any():
        raise ValueError("herald state in a record; apply herald_filter first")
    return _DECODE_INDEX[index]


def simulate_readout(values: np.ndarray, per_qutrit_two_qubit: list[int],
                     p01: float = 2.37e-3, p10: float = 0.82e-3,
                     leak_per_two_qubit: float = 2.5e-4,
                     seed: int = 0) -> np.ndarray:
    """Overlay gate leakage and readout confusion onto ideal qutrit values.

    values is an (N, n) qutrit array; returns (N, 2n) qubit bits. Each
    qubit of every entangling gate leaks its qutrit to the herald state
    independently with probability leak_per_two_qubit (the default
    reproduces roughly the observed discard fraction on the large
    lattice workload); surviving bits are flipped with the readout
    confusion rates. Per shot, the draws are n leak uniforms, then a hi
    and a lo uniform for each unleaked qutrit in site order.
    """
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    n = len(per_qutrit_two_qubit)
    # per_qutrit_two_qubit already counts qubit-level involvements
    leak_p = 1.0 - (1.0 - leak_per_two_qubit) ** np.asarray(per_qutrit_two_qubit)
    leaked = np.empty((len(values), n), dtype=bool)
    uniforms = np.ones((len(values), n, 2))
    for shot_leaked, shot_uniforms in zip(leaked, uniforms):
        shot_leaked[:] = rng.random(n) < leak_p
        shot_uniforms[~shot_leaked] = rng.random((n - int(shot_leaked.sum()), 2))
    ideal = _ENCODE_ARRAY[values]
    bits = ideal ^ (uniforms < np.array([p10, p01])[ideal])
    bits[leaked] = NC_BITS
    return bits.reshape(len(values), 2 * n)
