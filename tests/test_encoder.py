"""Native-gate compilation: decompositions, budgets, equivalence, heralding."""

import re
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from qutrit_toric import encoder, weyl
from qutrit_toric.circuit import Circuit, Gate, Measure, Noise, NoiseChannel, run_shots
from qutrit_toric.encoder import (
    ENCODE_BITS,
    NC_BITS,
    NC_INDEX,
    SUPPORTED_GATES,
    compile_report,
    decode_qubit_records,
    decompose_gate,
    encode_circuit,
    encoded_target,
    encoding_isometry,
    herald_filter,
    per_qutrit_two_qubit,
    qubit_circuit_text,
    qubit_circuit_to_json,
    simulate_readout,
    verify_decomposition,
    zz_budget,
)
from qutrit_toric.lattice import build_lattice, ground_state_circuit, measure_all_circuit
from qutrit_toric import synth
from qutrit_toric.serialize import circuit_to_json
from qutrit_toric.synth import (
    NativeOp,
    native_matrix,
    on_qubit,
    ops_unitary,
    phase_distance,
    synthesize_two_qubit,
)
from qutrit_toric.weyl import GateKind, WeylOp

from oracles import (
    DenseState,
    qubit_circuit_depth,
    qubit_circuit_two_qubit_count,
    qubit_circuit_unitary,
)


class TestDecompositions:
    @pytest.mark.parametrize("name", SUPPORTED_GATES)
    def test_matrix_match(self, name):
        assert verify_decomposition(name) < 1e-10

    def test_budgets(self):
        budgets = {name: zz_budget(name) for name in SUPPORTED_GATES}
        assert budgets["z"] == 0
        assert budgets["c"] == 1
        assert budgets["mprep"] == 1
        assert budgets["h"] == 3
        assert budgets["cz"] == 4       # derived: four cross-pair controlled phases
        assert budgets["cx"] == 10      # derived: Fourier sandwich around cz
        # the exact shift-gate matrix has the two-axis canonical class, so two
        # entanglers are the provable minimum for it
        assert budgets["x"] == 2

    def test_corrupted_angle_detected(self):
        ops = decompose_gate("c")
        bad = []
        for op in ops:
            if op.kind == "zzphase":
                bad.append(NativeOp(op.kind, op.qubits, (op.params[0] + 0.01,)))
            else:
                bad.append(op)
        target = encoded_target(GateKind.CONJ)
        assert phase_distance(target, ops_unitary(bad, 2)) > 1e-3

    def test_unsupported_gate(self):
        with pytest.raises((ValueError, KeyError)):
            decompose_gate("sqrtswap")

    def test_controlled_shift_via_fourier_conjugation(self):
        """The controlled-shift equals the Fourier-conjugated controlled-clock
        on the encoded subspace (construction identity)."""
        from qutrit_toric.dense import gate_matrix

        cz9 = gate_matrix(GateKind.CZ, 3)
        h3 = gate_matrix(GateKind.FOURIER, 3)
        cx9 = np.kron(np.eye(3), h3.conj().T) @ cz9 @ np.kron(np.eye(3), h3)
        assert np.abs(cx9 - gate_matrix(GateKind.CX, 3)).max() < 1e-12

    def test_herald_state_never_mixes(self):
        """Noiseless compiled gates keep the herald state out of the code
        space (encoded block exactly unitary)."""
        for name in ("x", "c", "h", "z"):
            U = ops_unitary(decompose_gate(name), 2)
            enc_rows = [0, 2, 3]
            block = U[np.ix_(enc_rows, enc_rows)]
            assert np.abs(block.conj().T @ block - np.eye(3)).max() < 1e-10

def kron_reference(m, qubits, n):
    """m on `qubits` (first listed = most significant) of n qubits, summed from
    explicit np.kron products of one |row bit><col bit| factor per qubit."""
    k = len(qubits)
    out = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for row in range(1 << k):
        for col in range(1 << k):
            factors = [np.eye(2)] * n
            for j, q in enumerate(qubits):
                shift = k - 1 - j
                factors[q] = np.outer(np.eye(2)[(row >> shift) & 1], np.eye(2)[(col >> shift) & 1])
            out += m[row, col] * reduce(np.kron, factors)
    return out


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestOpsUnitary:
    PLACEMENTS = [((2, 0), 3), ((3, 1), 4), ((0, 2), 3), ((1, 2), 3), ((1,), 3), ((3,), 4)]

    @pytest.mark.parametrize("qubits,n", PLACEMENTS)
    def test_embed_matches_kron_products(self, qubits, n, monkeypatch):
        """One op placed by ops_unitary only copies entries, so the match is
        exact; entries below 1e-16 in magnitude are dropped. The op's matrix
        is a random non-symmetric unitary, so a swapped placement shows."""
        m = random_unitary(np.random.default_rng(n + 7 * qubits[0]), 1 << len(qubits))
        monkeypatch.setattr(synth, "native_matrix", lambda op: m)
        op = NativeOp("zzphase" if len(qubits) == 2 else "u1q", qubits)
        assert np.array_equal(ops_unitary([op], n), kron_reference(m, qubits, n))
        m[0, 1] = 1e-17
        assert ops_unitary([op], n)[0, 1 << (n - 1 - qubits[-1])] == 0

    @pytest.mark.parametrize("name", SUPPORTED_GATES)
    def test_decomposition_unitary_matches_kron_fold(self, name):
        """Every shipped decomposition's unitary equals, bit for bit, the
        product of explicit Kronecker embeddings taken in time order (the
        dense form that verify's float errors were first recorded with)."""
        ops = decompose_gate(name)
        n = 4 if name in ("cx", "cxdg", "cz", "czdg") else 2
        fold = np.eye(1 << n, dtype=np.complex128)
        for op in ops:
            m = native_matrix(op)
            fold = kron_reference(np.where(np.abs(m) < 1e-16, 0, m), op.qubits, n) @ fold
        assert np.array_equal(ops_unitary(ops, n), fold)

    @pytest.mark.parametrize("seed,n", [(0, 3), (1, 3), (2, 3), (3, 4), (4, 4), (5, 4)])
    def test_random_op_list_matches_kron_fold(self, seed, n):
        """Seeded random u1q/rz/zzphase lists, with pairs taken in either order
        and non-adjacent ((2, 0), (3, 1), ...), equal the Kronecker fold bit for bit."""
        rng = np.random.default_rng(seed)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        ops = []
        for i in range(40):
            kind = ("u1q", "rz", "zzphase")[i % 3]
            if kind == "zzphase":
                ops.append(NativeOp(kind, pairs[i // 3 % len(pairs)], (rng.uniform(-2, 2),)))
            else:
                ops.append(NativeOp(kind, (int(rng.integers(n)),),
                                    tuple(rng.uniform(-2, 2, 2 if kind == "u1q" else 1))))
        assert {(2, 0), (n - 1, 1)} <= {op.qubits for op in ops}
        fold = np.eye(1 << n, dtype=np.complex128)
        for op in ops:
            m = native_matrix(op)
            fold = kron_reference(np.where(np.abs(m) < 1e-16, 0, m), op.qubits, n) @ fold
        assert np.array_equal(ops_unitary(ops, n), fold)

    @pytest.mark.parametrize("qubits,n", [p for p in PLACEMENTS if len(p[0]) == 2])
    def test_placed_synthesis_matches_kron_products(self, qubits, n):
        """A synthesized non-symmetric two-qubit unitary, placed on reversed or
        non-adjacent qubits, composes to the explicit Kronecker embedding."""
        U = random_unitary(np.random.default_rng(3 + n), 4)
        ops = on_qubit(synthesize_two_qubit(U), dict(enumerate(qubits)))
        assert phase_distance(kron_reference(U, qubits, n), ops_unitary(ops, n)) < 1e-10


class TestEncodedEquivalence:
    def random_circuit(self, rng, n, depth):
        kinds1 = ["x", "xdg", "z", "zdg", "c", "h", "hdg"]
        kinds2 = ["cx", "cxdg", "cz", "czdg"]
        circ = Circuit(3, n, 0)
        for _ in range(depth):
            if n > 1 and rng.random() < 0.5:
                q = rng.choice(n, 2, replace=False)
                circ.gate(weyl.CliffordGate(kinds2[rng.integers(4)],
                                            (int(q[0]), int(q[1]))))
            else:
                circ.gate(weyl.CliffordGate(kinds1[rng.integers(7)],
                                            (int(rng.integers(n)),)))
        return circ

    @pytest.mark.parametrize("level", [0, 1])
    def test_random_circuits_act_identically_on_code_space(self, level):
        rng = np.random.default_rng(31 + level)
        for trial in range(10):
            n = int(rng.integers(1, 4))
            circ = self.random_circuit(rng, n, 12)
            state = DenseState(3, n)
            for ins in circ.instructions:
                state.apply_gate(ins.gate)
            qc = encode_circuit(circ, optimization_level=level)
            U = qubit_circuit_unitary(qc)
            E = encoding_isometry(n)
            out = U @ E @ DenseState(3, n).amp
            fid = abs(np.vdot(E @ state.amp, out)) ** 2
            assert fid == pytest.approx(1, abs=1e-8)
            # leakage confinement
            residual = out - E @ (E.conj().T @ out)
            assert np.linalg.norm(residual) < 1e-10

    def test_prep_circuit_equivalence_2x2(self):
        lat = build_lattice(2, 2)
        circ = ground_state_circuit(lat)
        state = DenseState(3, 4)
        for ins in circ.instructions:
            state.apply_gate(ins.gate)
        qc = encode_circuit(circ, optimization_level=1)
        U = qubit_circuit_unitary(qc)
        E = encoding_isometry(4)
        out = U @ E @ DenseState(3, 4).amp
        assert abs(np.vdot(E @ state.amp, out)) ** 2 == pytest.approx(1, abs=1e-8)


class TestCompileCounts:
    def test_empty_circuit(self):
        assert encode_circuit(Circuit(3, 2, 0)).ops == []
        rep = compile_report(Circuit(3, 2, 0))
        assert rep["two_qubit_count"] == 0
        assert rep["depth"] == 0

    @pytest.mark.parametrize("basis", [None, "z", "x"])
    def test_zero_qudits(self, basis):
        qc = encode_circuit(Circuit(3, 0, 0), basis=basis)
        rep = compile_report(Circuit(3, 0, 0), basis)
        assert (rep["depth"], rep["two_qubit_count"], rep["per_qutrit_two_qubit"]) == (0, 0, [])
        assert per_qutrit_two_qubit(Circuit(3, 0, 0), basis) == []
        assert all(op.kind == "barrier" for op in qc.ops)

    def test_single_cx_matches_budget(self):
        circ = Circuit(3, 2, 0)
        circ.gate(weyl.cx(0, 1))
        rep = compile_report(circ, optimization_level=0)
        assert rep["two_qubit_count"] == zz_budget("cx")

    @pytest.mark.parametrize("basis,center,lo,hi", [
        ("z", 251, 214, 289), ("x", 189, 161, 217),
    ])
    def test_6x4_preparation_counts_in_band(self, basis, center, lo, hi):
        lat = build_lattice(6, 4)
        rep = compile_report(ground_state_circuit(lat), basis=basis, optimization_level=1)
        assert lo <= rep["two_qubit_count"] <= hi, rep["two_qubit_count"]

    def test_depth_positive_and_reported(self):
        lat = build_lattice(6, 4)
        rep = compile_report(ground_state_circuit(lat), basis="z")
        assert rep["depth"] > 0
        assert rep["budget_table"]["h"] == 3
        assert sum(rep["per_qutrit_two_qubit"]) == 2 * rep["two_qubit_count"]

    def test_noise_instructions_rejected(self):
        circ = Circuit(3, 2, 0).with_noise(p1=0.1)
        circ.gate(weyl.fourier(0))
        noisy = circ.with_noise(p1=0.5)
        noisy.validate((Gate, Noise))
        with pytest.raises(ValueError, match="instruction 1 is a Noise: this engine takes "
                           "Gate only"):
            encode_circuit(noisy)

    def test_second_compile_synthesizes_nothing(self, monkeypatch):
        """Every token comes from the decomposition cache once it is warm."""
        prep = ground_state_circuit(build_lattice(6, 4))
        first = encode_circuit(prep, basis="z")
        calls = []
        synthesize = encoder.synthesize_two_qubit
        monkeypatch.setattr(encoder, "synthesize_two_qubit",
                            lambda U: calls.append(U) or synthesize(U))
        second = encode_circuit(prep, basis="z")
        rep = compile_report(prep, basis="z")
        assert rep["gate_counts"]["cxcopy"] > 0
        assert len(calls) == 0
        assert second.ops == first.ops


# one instruction of each non-gate kind appended to a valid circuit, and the kind
# refused at instruction 1
NON_GATE = {
    "noise": (lambda c: c.noise(NoiseChannel("depolarizing1", 0.1), (0,)), "Noise"),
    "measure": (lambda c: c.measure(WeylOp.from_site(3, 2, 0, 0, 1), 0), "Measure"),
}
GATE_ONLY_ENTRIES = {f.__name__: f for f in (compile_report, encode_circuit,
                                              per_qutrit_two_qubit, circuit_to_json)}


@pytest.mark.parametrize("entry", GATE_ONLY_ENTRIES)
@pytest.mark.parametrize("kind", NON_GATE)
def test_non_gate_instructions_refused(kind, entry):
    append, refused = NON_GATE[kind]
    circ = append(Circuit(3, 2, 1).gate(weyl.fourier(0)))
    circ.validate((Gate, Measure, Noise))
    with pytest.raises(ValueError, match=f"instruction 1 is a {refused}: this engine takes "
                       "Gate only"):
        GATE_ONLY_ENTRIES[entry](circ)


def compiled_ops_count(qc, n_qutrits):
    """Entangler involvements per qutrit counted over the compiled circuit's ops."""
    counts = [0] * n_qutrits
    for op in qc.ops:
        if op.kind == "zzphase":
            for q in op.qubits:
                counts[q // 2] += 1
    return counts


class TestPerQutritTwoQubit:
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("basis", ["z", "x"])
    @pytest.mark.parametrize("lx,ly", [(2, 2), (4, 2), (6, 2), (4, 4), (6, 4), (8, 4), (6, 6)])
    def test_equals_compiled_ops_count(self, lx, ly, basis, level):
        prep = ground_state_circuit(build_lattice(lx, ly))
        qc = encode_circuit(prep, basis=basis, optimization_level=level)
        rep = compile_report(prep, basis, level)
        counts = compiled_ops_count(qc, prep.n_qudits)
        assert counts == rep["per_qutrit_two_qubit"]
        if level == 1:  # the level per_qutrit_two_qubit compiles at
            assert per_qutrit_two_qubit(prep, basis) == counts
        assert rep["depth"] == qubit_circuit_depth(qc)
        assert rep["two_qubit_count"] == qubit_circuit_two_qubit_count(qc)

ONE_QUTRIT = ("x", "xdg", "z", "zdg", "c", "h", "hdg")
TWO_QUTRIT = ("cx", "cxdg", "cz", "czdg")
def random_gate(rng, n):
    if n > 1 and rng.random() < 0.4:
        c, t = (int(q) for q in rng.choice(n, 2, replace=False))
        return weyl.CliffordGate(TWO_QUTRIT[rng.integers(4)], (c, t))
    return weyl.CliffordGate(ONE_QUTRIT[rng.integers(7)], (int(rng.integers(n)),))


def random_gate_circuit(rng, n, length):
    circ = Circuit(3, n, 0)
    return circ.gates(random_gate(rng, n) for _ in range(length))


def token_gate_counts(circ, basis, level):
    """Gate counts tallied from the token stream, one name per emitted sequence."""
    counts = Counter()
    for key, _ in encoder._token_stream(circ, basis, level):
        if key not in ("measure", "barrier"):
            counts[key] += 1
    return dict(counts)


class TestCompileReportAgainstOracle:
    """The token walk's report equals the counts and depth of the built qubit circuit."""

    def check(self, circ, basis, level):
        qc = encode_circuit(circ, basis=basis, optimization_level=level)
        rep = compile_report(circ, basis, level)
        assert rep["depth"] == qubit_circuit_depth(qc)
        assert rep["two_qubit_count"] == qubit_circuit_two_qubit_count(qc)
        assert rep["per_qutrit_two_qubit"] == compiled_ops_count(qc, circ.n_qudits)
        if level == 1:  # the level per_qutrit_two_qubit compiles at
            assert rep["per_qutrit_two_qubit"] == per_qutrit_two_qubit(circ, basis)
        assert rep["gate_counts"] == token_gate_counts(circ, basis, level)
        return rep

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("basis", [None, "z", "x"])
    def test_random_circuits(self, basis, level, monkeypatch):
        """Gate-only circuits; level 1 takes every peephole: plus-state preps,
        CX copies, and h/hdg pairs that _cancel_fourier_pairs drops."""
        cancel, dropped = encoder._cancel_fourier_pairs, []

        def counting_cancel(tokens):
            out = cancel(tokens)
            dropped.append(len(tokens) - len(out))
            return out

        monkeypatch.setattr(encoder, "_cancel_fourier_pairs", counting_cancel)
        rng = np.random.default_rng(71 + level)
        seen = Counter()
        for _ in range(30):
            rep = self.check(random_gate_circuit(rng, int(rng.integers(1, 5)), 16), basis, level)
            seen.update(rep["gate_counts"])
        assert {"h", "cz", "c"} <= set(seen)
        if level:
            assert {"mprep", "cxcopy"} <= set(seen)
            assert max(dropped) >= 2  # some circuit lost an h/hdg pair


# the qubit_circuit_text grammar, production by production
_NUM, _NAME = r"-?[0-9.]+(e[-+][0-9]+)?", r"[a-z][a-z0-9]*"
_QUBITS, _CBITS = r"q\[\d+\](,q\[\d+\])*", r"c\[\d+\](,c\[\d+\])*"
_GATE = rf"{_NAME}\(({_NUM}(,{_NUM})*)?\) {_QUBITS};"
_LINE = re.compile(rf"{_GATE}|measz {_QUBITS} -> {_CBITS};|barrier;")


class TestEmitters:
    """The --dump-ops forms of a qubit circuit with every op shape: one- and
    two-qutrit gates, and the barrier and measure-all of basis x."""

    @pytest.fixture(scope="class")
    def qc(self):
        circ = Circuit(3, 3, 0)
        circ.gates([weyl.fourier(0), weyl.cx(0, 1), weyl.cz(0, 2),
                    weyl.CliffordGate(weyl.GateKind.SHIFT_X, (2,))])
        return encode_circuit(circ, basis="x")

    def test_json_ops_mirror_the_circuit(self, qc):
        doc = qubit_circuit_to_json(qc)
        assert (doc["n_qubits"], doc["n_cbits"]) == (qc.n_qubits, qc.n_qubits) == (6, 6)
        assert len(doc["ops"]) == len(qc.ops)
        for op, entry in zip(qc.ops, doc["ops"]):
            assert (entry["kind"], entry["qubits"], entry["params"], entry.get("cbits", [])) \
                == (op.kind, list(op.qubits), list(op.params), list(op.cbits))
        kinds = Counter(entry["kind"] for entry in doc["ops"])
        assert kinds["barrier"] == 1 and kinds["measz"] == 6
        measured = [(entry["qubits"], entry["cbits"]) for entry in doc["ops"]
                    if entry["kind"] == "measz"]
        assert measured == [([q], [q]) for q in range(6)]  # each qubit owns its cbit

    def test_text_lines_follow_the_grammar(self, qc):
        lines = qubit_circuit_text(qc).split("\n")
        assert lines[0] == "qubits 6; cbits 6;" and lines[-1] == ""
        assert len(lines[1:-1]) == len(qc.ops)
        for op, line in zip(qc.ops, lines[1:-1]):
            assert _LINE.fullmatch(line), line
            assert line.startswith(op.kind if op.kind in ("barrier", "measz") else op.kind + "(")


class TestHeralding:
    def test_noiseless_records_never_discarded(self):
        lat = build_lattice(4, 2)
        circ = ground_state_circuit(lat)
        circ.extend(measure_all_circuit(lat, "z"))
        batch = run_shots(circ, 200, base_seed=3)
        counts = per_qutrit_two_qubit(ground_state_circuit(lat), "z")
        pairs = simulate_readout(batch.values, counts,
                                 p01=0, p10=0, leak_per_two_qubit=0, seed=0)
        retained, frac = herald_filter(pairs)
        assert frac == 0.0
        decoded = decode_qubit_records(retained)
        assert np.array_equal(decoded, batch.values)

    def test_discard_fraction_monotone_in_leak_rate(self):
        lat = build_lattice(4, 2)
        circ = ground_state_circuit(lat)
        circ.extend(measure_all_circuit(lat, "z"))
        batch = run_shots(circ, 1500, base_seed=5)
        counts = per_qutrit_two_qubit(ground_state_circuit(lat), "z")
        fractions = []
        for p in (1e-3, 5e-3, 1e-2):
            pairs = simulate_readout(batch.values, counts,
                                     p01=0, p10=0, leak_per_two_qubit=p, seed=11)
            _, frac = herald_filter(pairs)
            fractions.append(frac)
            # analytic small-p expectation: 1 - (1-p)^(total involvements)
            expected = 1 - (1 - p) ** sum(counts)
            assert frac == pytest.approx(expected, abs=4 * np.sqrt(expected / 1500) + 0.01)
        assert fractions[0] < fractions[1] < fractions[2]

    def test_6x4_workload_discard_fraction_in_band(self):
        lat = build_lattice(6, 4)
        circ = ground_state_circuit(lat)
        circ.extend(measure_all_circuit(lat, "z"))
        batch = run_shots(circ, 1200, base_seed=6)
        counts = per_qutrit_two_qubit(ground_state_circuit(lat), "z")
        pairs = simulate_readout(batch.values, counts, seed=13)
        _, frac = herald_filter(pairs)
        assert 0.05 <= frac <= 0.20

    def test_decode_refuses_herald_pairs(self):
        with pytest.raises(ValueError, match="herald"):
            decode_qubit_records(np.array([[0, NC_INDEX]], dtype=np.uint8))


def reference_simulate_readout(rows, per_qutrit_two_qubit, p01, p10, leak_per_two_qubit,
                               seed):
    """The per-qutrit readout loop, written out here as the reference for the array version.

    Uniforms come in the array version's order: (N, n) leak draws, then
    (N, n, 2) hi and lo draws for every qutrit."""
    rng = np.random.default_rng(seed)
    n = len(per_qutrit_two_qubit)
    leak_p = 1.0 - (1.0 - leak_per_two_qubit) ** np.asarray(per_qutrit_two_qubit)
    leak_u = rng.random((len(rows), n))
    flip_u = rng.random((len(rows), n, 2))
    out = []
    for rec, leak_row, flip_row in zip(rows, leak_u, flip_u):
        bits = []
        for i, v in enumerate(rec):
            if leak_row[i] < leak_p[i]:
                bits.extend(NC_BITS)
                continue
            for bit, u in zip(ENCODE_BITS[int(v)], flip_row[i]):
                if bit == 1:
                    bits.append(0 if u < p01 else 1)
                else:
                    bits.append(1 if u < p10 else 0)
        out.append(tuple(bits))
    return out


def pair_indices(rows):
    """Bit rows (hi, lo, hi, lo, ...) -> rows of pair indices 2*hi + lo."""
    return [tuple(2 * hi + lo for hi, lo in zip(rec[0::2], rec[1::2])) for rec in rows]


def reference_herald_split(rows):
    """Per-record herald check: retained rows, decoded qutrit rows, discard fraction."""
    decode = {bits: q for q, bits in ENCODE_BITS.items()}
    retained, decoded = [], []
    for rec in rows:
        pairs = [(rec[2 * i], rec[2 * i + 1]) for i in range(len(rec) // 2)]
        if NC_BITS not in pairs:
            retained.append(rec)
            decoded.append([decode[p] for p in pairs])
    return retained, decoded, (len(rows) - len(retained)) / len(rows)


class TestArrayReadout:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_qutrit_reference(self, seed):
        """Same draws in the same order: identical pair indices, retained rows and decodes."""
        rng = np.random.default_rng(100 + seed)
        n, shots = int(rng.integers(1, 9)), 300
        values = rng.integers(3, size=(shots, n)).astype(np.uint8)
        per_qutrit = [int(k) for k in rng.integers(0, 40, size=n)]
        rates = dict(p01=0.05, p10=0.03, leak_per_two_qubit=0.01, seed=seed)
        pairs = simulate_readout(values, per_qutrit, **rates)
        ref = reference_simulate_readout(values, per_qutrit, **rates)
        assert pairs.dtype == np.uint8 and pairs.shape == (shots, n)
        assert [tuple(r) for r in pairs.tolist()] == pair_indices(ref)
        retained, frac = herald_filter(pairs)
        ref_retained, ref_decoded, ref_frac = reference_herald_split(ref)
        assert 0 < frac < 1 and frac == ref_frac
        assert [tuple(r) for r in retained.tolist()] == pair_indices(ref_retained)
        assert decode_qubit_records(retained).tolist() == ref_decoded
