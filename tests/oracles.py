"""Exact oracles and test-only helpers the suite checks the package against.

Nothing in the package runs these. They are the brute-force references
(dense statevector, dense joint outcome distributions, a compiled frame
plan's exact distribution, the dict-based readout channel, the exact
herald probability of a noiseless readout, per-operator sector counts,
one face's document entry, the tableau invariant check) and the small
conveniences that only tests call (one-row tableau expectations, a
fresh |0>^n tableau, a one-shot tableau run, counted tableau calls, a
Weyl operator's shift and clock gates, a braid run that returns its
runner, the CC braid without its closing fuse, a braid script replayed
on a dense state, a 4-SE rate band) and the paper's qubit-pair encoding.
Hard size caps keep the dense ones to a few qutrits.
"""

from __future__ import annotations

import numpy as np

from qutrit_toric.analysis import ConfusionMatrix, _per_bit
from qutrit_toric.circuit import Circuit, Gate, Measure, _compile_frames, execute
from qutrit_toric.defects import cc_defect_circuit, fuse_cc_pair, pf_defect_circuit
from qutrit_toric.dense import gate_matrix, weyl_matrices
from qutrit_toric.encoder import QubitCircuit
from qutrit_toric.experiments import (
    Fuse,
    InsertCC,
    InsertPF,
    Move,
    Prepare,
    Script,
    ScriptRunner,
    Snapshot,
    cc_braid_script,
    observable_frame,
)
from qutrit_toric.lattice import (
    Plaquette,
    TorusLattice,
    ground_state_circuit,
)
from qutrit_toric.modmath import row_reduce
from qutrit_toric.synth import ops_unitary
from qutrit_toric.tableau import StabilizerTableau, outcome_expectation
from qutrit_toric.weyl import CliffordGate, GateKind, WeylOp, check_dimension

# -- dense statevector ---------------------------------------------------------------

MAX_AMPLITUDES = 1 << 21  # 3^13 ~ 1.6M is the practical qutrit ceiling


class DenseState:
    """Normalized complex amplitude vector over (Z_d)^n."""

    def __init__(self, d: int, n: int, amplitudes: np.ndarray | None = None):
        check_dimension(d)
        if d**n > MAX_AMPLITUDES:
            raise ValueError(f"dense state d^n = {d}^{n} exceeds the size cap")
        self.d = d
        self.n = n
        if amplitudes is None:
            amp = np.zeros(d**n, dtype=np.complex128)
            amp[0] = 1.0
        else:
            amp = np.asarray(amplitudes, dtype=np.complex128).reshape(d**n).copy()
            norm = np.linalg.norm(amp)
            if abs(norm - 1.0) > 1e-12:
                if norm < 1e-12:
                    raise ValueError("cannot normalize a zero state")
                amp = amp / norm
        self.amp = amp

    def copy(self) -> "DenseState":
        return DenseState(self.d, self.n, self.amp)

    # -- gate definitions ------------------------------------------------

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi / self.d)

    def _tensor(self) -> np.ndarray:
        return self.amp.reshape((self.d,) * self.n)

    def apply_matrix(self, mat: np.ndarray, sites: tuple[int, ...]) -> None:
        """Apply a d^k x d^k matrix to the given sites (in listed order)."""
        k = len(sites)
        t = np.moveaxis(self._tensor(), sites, range(k))
        shape = t.shape
        block = mat @ t.reshape(self.d**k, -1)
        out = np.moveaxis(block.reshape(shape), range(k), sites)
        self.amp = out.reshape(self.d**self.n)

    def apply_gate(self, g: CliffordGate) -> None:
        mat = gate_matrix(g.kind, self.d)
        self.apply_matrix(mat, g.targets)

    def apply_weyl(self, w: WeylOp) -> None:
        """Apply w: out[j + x] = omega^(phase + z.j) amp[j] over digit vectors j."""
        if w.d != self.d or w.n != self.n:
            raise ValueError("operator does not match state shape")
        t = self._tensor()
        # accumulate the diagonal clock phase omega^{sum_i z_i j_i}
        phase_exp = np.zeros((self.d,) * self.n, dtype=np.int64)
        for i in range(self.n):
            if w.z[i]:
                shape = [1] * self.n
                shape[i] = self.d
                phase_exp = phase_exp + (w.z[i] * np.arange(self.d)).reshape(shape)
        t = t * self.omega ** ((phase_exp + w.phase) % self.d)
        for i in range(self.n):
            if w.x[i]:
                t = np.roll(t, int(w.x[i]), axis=i)
        self.amp = t.reshape(self.d**self.n)

    # -- measurement & overlap -------------------------------------------

    def expectation_weyl(self, w: WeylOp) -> complex:
        other = self.copy()
        other.apply_weyl(w)
        return complex(np.vdot(self.amp, other.amp))

    def outcome_probabilities(self, w: WeylOp) -> np.ndarray:
        """Born probabilities for the omega^s eigenspaces of w, s = 0..d-1.

        Uses the projector family P_s = (1/d) sum_m omega^{-sm} w^m.
        """
        d = self.d
        # <w^0> is the squared norm, so `total` below still checks normalization
        exps = np.array([np.vdot(self.amp, self.amp),
                         *(self.expectation_weyl(w.power(m)) for m in range(1, d))])
        probs = np.empty(d)
        for s in range(d):
            val = sum(self.omega ** ((-s * m) % d) * exps[m] for m in range(d)) / d
            probs[s] = max(val.real, 0.0)
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError("observable is not a valid unit-order Weyl operator")
        return probs / total

    def measure_projective(self, w: WeylOp, rng: np.random.Generator) -> int:
        probs = self.outcome_probabilities(w)
        s = int(rng.choice(self.d, p=probs))
        self.project_onto(w, s)
        return s

    def project_onto(self, w: WeylOp, s: int) -> None:
        """Project onto the omega^s eigenspace of w and renormalize."""
        d = self.d
        acc = np.zeros_like(self.amp)
        for m in range(d):
            other = self.copy()
            other.apply_weyl(w.power(m))
            acc += self.omega ** ((-s * m) % d) * other.amp
        acc /= d
        norm = np.linalg.norm(acc)
        if norm < 1e-12:
            raise ValueError(f"projection onto outcome {s} annihilates the state")
        self.amp = acc / norm

    def fidelity(self, target: "DenseState") -> float:
        if target.d != self.d or target.n != self.n:
            raise ValueError("shape mismatch")
        return float(abs(np.vdot(target.amp, self.amp)) ** 2)


def weyl_matrix(w: WeylOp) -> np.ndarray:
    """Full d^n x d^n matrix of a Weyl operator (small n only)."""
    return weyl_matrices(w.d, w.x[None], w.z[None], np.array([w.phase]))[0]


def state_from_tableau(tab) -> DenseState:
    """Dense state of a stabilizer tableau via projector products.

    Applies P_i = (1/d) sum_m S_i^m to basis vectors until one survives.
    """
    d, n = tab.d, tab.n
    for start in range(d**n):
        amp = np.zeros(d**n, dtype=np.complex128)
        amp[start] = 1.0
        state = DenseState.__new__(DenseState)
        state.d, state.n, state.amp = d, n, amp
        ok = True
        for i in range(n):
            gen = stabilizer(tab, i)
            acc = np.zeros_like(state.amp)
            for m in range(d):
                other = state.copy()
                other.apply_weyl(gen.power(m))
                acc += other.amp
            acc /= d
            norm = np.linalg.norm(acc)
            if norm < 1e-9:
                ok = False
                break
            state.amp = acc / norm
        if ok:
            return state
    raise RuntimeError("no basis vector overlaps the stabilizer state")


def dense_outcome_distribution(circuit: Circuit) -> dict[tuple[int, ...], float]:
    """Joint creg distribution of a circuit of gates and measurements by projecting
    a dense state onto each eigenspace, P_s = (1/d) sum_m omega^(-s m) w^m.

    Any other instruction (Noise) is refused with a ValueError naming its kind."""
    refused = sorted({type(ins).__name__ for ins in circuit.instructions
                      if not isinstance(ins, (Gate, Measure))})
    if refused:
        raise ValueError("dense_outcome_distribution takes gates and measurements only, "
                         f"got {', '.join(refused)}")
    d, n = circuit.d, circuit.n_qudits
    omega = np.exp(2j * np.pi / d)
    dist = {}

    def walk(state, start, creg, prob):
        for i in range(start, len(circuit.instructions)):
            ins = circuit.instructions[i]
            if isinstance(ins, Gate):
                state.apply_gate(ins.gate)
            else:
                powers = []
                for m in range(d):
                    st = state.copy()
                    st.apply_weyl(ins.observable.power(m))
                    powers.append(st.amp)
                for s in range(d):
                    amp = sum(omega ** (-s * m) * powers[m] for m in range(d)) / d
                    p = float(np.vdot(amp, amp).real)
                    if p > 1e-12:
                        walk(DenseState(d, n, amp), i + 1,
                             creg[:ins.creg] + [s] + creg[ins.creg + 1:], prob * p)
                return
        dist[tuple(creg)] = dist.get(tuple(creg), 0.0) + prob

    walk(DenseState(circuit.d, circuit.n_qudits), 0, [0] * circuit.n_cregs, 1.0)
    return dist


def plan_distribution(circuit: Circuit) -> dict[tuple[int, ...], float]:
    """Exact joint creg distribution of run_shots' compiled frame plan, with no sampling.

    Every outcome is the plan's `ref` plus independent uniform draws times
    fixed forms. So one array over the values of the measurements the cregs
    keep (plan.writer; d^W entries, as the draws add independently and the
    other measurements drop out) starts at ref, is shifted by s * row for
    s uniform in Z_d per drawn source row, and mixes each noise test's "no
    hit" with its hit codes, each adding its base-d digits (x0, z0, x1, z1)
    times the test's form rows; one weighted `np.bincount` per step.
    """
    plan = _compile_frames(circuit)
    d = plan.d
    kept = np.flatnonzero(plan.writer >= 0)  # the cregs some measurement writes
    cols = plan.writer[kept]
    place = d ** np.arange(len(cols))
    values = np.arange(d ** len(cols))[:, None] // place % d  # (d^W, W)
    prob = np.zeros(len(values))
    prob[plan.ref[cols] % d @ place] = 1.0

    def mix(prob, shifts, weights):
        """sum_k weights[k] * prob moved by shifts[k]."""
        to = (values + shifts[:, None]) % d @ place
        return np.bincount(to.ravel(), (weights[:, None] * prob).ravel(), len(prob))

    for row in plan.source.astype(np.int64):
        prob = mix(prob, np.outer(np.arange(d), row[cols]), np.full(d, 1 / d))
    for t, p in enumerate(plan.p):
        form = np.zeros((4, len(plan.ref)), dtype=np.int64)
        r, c, v = plan.entries[:, plan.start[t]:plan.start[t + 1]]
        form[r, c] = v
        codes = np.arange(plan.high[t])  # code 0: no hit
        weights = np.full(len(codes), p / (len(codes) - 1))
        weights[0] = 1 - p
        prob = mix(prob, (codes[:, None] // d ** np.arange(4) % d) @ form[:, cols], weights)
    creg = np.zeros((len(values), circuit.n_cregs), dtype=np.int64)
    creg[:, kept] = values
    return {tuple(k): float(q) for k, q in zip(creg.tolist(), prob) if q > 0}


# -- tableau -------------------------------------------------------------------------


def new_computational(d: int, n: int, seed=None) -> StabilizerTableau:
    """State |0>^n: stabilizers Z_i, destabilizers X_i, phases 0."""
    return StabilizerTableau(d, n, np.random.default_rng(seed))


def final_tableau(circuit: Circuit, seed: int = 0) -> tuple[StabilizerTableau, list[int]]:
    """Run a shot and also return the post-circuit tableau (for snapshots)."""
    tab = StabilizerTableau(circuit.d, circuit.n_qudits, np.random.default_rng(seed))
    return tab, execute(circuit, tab)


def count_tableau_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Count calls of the named StabilizerTableau methods; the dict updates live."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(self, *args, _name=name, _method=getattr(StabilizerTableau, name),
                     **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(StabilizerTableau, name, counting)
    return calls


def weyl_gates(op: WeylOp) -> list[CliffordGate]:
    """Gate sequence realizing op up to a global phase: X^x then Z^z on each site."""
    return [CliffordGate(kind, (site,)) for site in op.support
            for kind in [GateKind.SHIFT_X] * int(op.x[site]) + [GateKind.CLOCK_Z] * int(op.z[site])]


def stabilizer(tab: StabilizerTableau, i: int) -> WeylOp:
    r = tab.n + i
    return WeylOp(tab.d, tab.x[r], tab.z[r], int(tab.ph[r]))


def expectation_weyl(tab: StabilizerTableau, w: WeylOp) -> complex:
    """Exactly one of 0 or omega^k."""
    return outcome_expectation(tab._outcome(w), tab.d)


def projector_expectation(tab: StabilizerTableau, w: WeylOp, alpha: int) -> float:
    """<Pi^{omega^alpha}(w)> = (1/d) sum_m omega^{-alpha m} <w^m>.

    For stabilizer states this is exactly 1, 0 or 1/d.
    """
    if not (0 <= alpha < tab.d):
        raise ValueError(f"alpha must be an exponent in [0,{tab.d})")
    return tab.projector_triple(w)[alpha]


def stabilizer_group_equals(tab: StabilizerTableau, other: StabilizerTableau) -> bool:
    """True when both tableaus stabilize the same state (exact phases)."""
    n = tab.n
    return (tab.d, n) == (other.d, other.n) and not tab.deterministic_outcomes(
        other.x[n:], other.z[n:], other.ph[n:]).any()


def rank(mat: np.ndarray, d: int) -> int:
    _, pivots = row_reduce(mat, d)
    return len(pivots)


def validate_tableau(tab: StabilizerTableau) -> None:
    """Assert commutation, independence and canonical pairing."""
    d, n = tab.d, tab.n
    form = (tab.x @ tab.z.T - tab.z @ tab.x.T) % d
    if np.any(form[n:, n:]):
        raise AssertionError("stabilizer generators do not commute")
    if rank(np.concatenate([tab.x[n:], tab.z[n:]], axis=1), d) != n:
        raise AssertionError("stabilizer generators are dependent")
    if not np.array_equal(form[:n, n:], np.eye(n, dtype=np.int64)):
        raise AssertionError("destabilizer pairing is not canonical")
    if np.any(form[:n, :n]):
        raise AssertionError("destabilizers do not commute among themselves")


# -- readout channel -----------------------------------------------------------------

# the paper's pair encoding (|0> -> 00, |1> -> 10, |2> -> 11, herald 01), stated apart
# from the package's index tables so that a wrong table there fails these references
ENCODE_BITS = {0: (0, 0), 1: (1, 0), 2: (1, 1)}
NC_BITS = (0, 1)
DECODE_BITS = {bits: q for q, bits in ENCODE_BITS.items()}


def confusion_matrix(cm: ConfusionMatrix) -> np.ndarray:
    return np.array(
        [[1 - cm.p10, cm.p01], [cm.p10, 1 - cm.p01]], dtype=float
    )


def spam_mitigate(distribution: dict[tuple[int, ...], float] | dict[str, float],
                  cm: ConfusionMatrix) -> tuple[dict[tuple[int, ...], float], bool]:
    """Apply the tensor-product inverse confusion matrix to a distribution.

    Keys are bit tuples (or '01' strings) of a fixed width. Returns the
    corrected quasi-distribution and a flag marking negative entries.
    """
    corrected = _product_channel(distribution, cm.inverse)
    return corrected, any(v < 0 for v in corrected.values())


def forward_noise(distribution: dict[tuple[int, ...], float],
                  cm: ConfusionMatrix) -> dict[tuple[int, ...], float]:
    """Push an exact distribution through the confusion channel (test helper)."""
    return _product_channel(distribution, confusion_matrix(cm))


def _product_channel(distribution, m: np.ndarray) -> dict[tuple[int, ...], float]:
    """m on every bit of a fixed-width distribution; the nonzero entries of the result."""
    keys = [tuple(int(b) for b in key) for key in distribution]
    if not keys:
        return {}
    if len({len(k) for k in keys}) > 1:
        raise ValueError("all strings must share a width")
    dense = np.zeros((2,) * len(keys[0]))
    for key, prob in zip(keys, distribution.values()):
        dense[key] += float(prob)
    out = _per_bit(dense, m)
    return {tuple(idx): float(out[tuple(idx)]) for idx in np.argwhere(out).tolist()}


def herald_probability(circuit: Circuit, per_qutrit_two_qubit: list[int], p01: float,
                       p10: float, leak_per_two_qubit: float) -> float:
    """Exact probability that `simulate_readout` heralds a shot of a noiseless
    measure-all circuit (creg q holds qutrit q's value): the sum over the
    circuit's `plan_distribution` of 1 minus the product over qutrits of the
    chance that the qutrit neither leaks nor has its pair read as |01>."""
    leak = 1.0 - (1.0 - leak_per_two_qubit) ** np.asarray(per_qutrit_two_qubit)
    reads_hi_0 = {0: 1 - p10, 1: p01}  # by the ideal hi bit
    reads_lo_1 = {0: p10, 1: 1 - p01}  # by the ideal lo bit
    reads_nc = np.array([reads_hi_0[hi] * reads_lo_1[lo] for hi, lo in ENCODE_BITS.values()])
    clean = (1 - leak)[:, None] * (1 - reads_nc)  # (qutrit, ideal value)
    qutrits = np.arange(len(leak))
    return 1.0 - sum(prob * np.prod(clean[qutrits, values])
                     for values, prob in plan_distribution(circuit).items())


def assert_rate(count: int, total: int, p: float) -> None:
    """count of total independent events of probability p lies within 4 binomial
    standard errors of total * p (so exactly at it for p = 0 or 1)."""
    se = np.sqrt(p * (1 - p) / total)
    assert abs(count / total - p) <= 4 * se, (count, total, p)


# -- per-operator estimation and face entries ----------------------------------------


def basis_exponents(op: WeylOp, basis_obs: list[WeylOp]) -> tuple[np.ndarray, int]:
    """Factor op site by site over the measured per-site observables.

    Returns (m, kappa) with op = omega^kappa * prod_i basis_obs[i]^{m_i},
    so a shot with per-site outcomes s has op-sector kappa + m . s (mod d).
    """
    d = op.d
    total = WeylOp(d, np.zeros(op.n, dtype=int), np.zeros(op.n, dtype=int))
    m = np.zeros(op.n, dtype=np.int64)
    for i in op.support:
        w = basis_obs[i]
        for cand in range(1, d):
            if (w.x[i] * cand - op.x[i]) % d == 0 and (w.z[i] * cand - op.z[i]) % d == 0:
                m[i] = cand
                break
        else:
            raise ValueError(f"operator not diagonal in the measured basis at site {i}")
        total = total @ w.power(int(m[i]))
    if not (np.array_equal(total.x, op.x) and np.array_equal(total.z, op.z)):
        raise ValueError("operator does not factor over the measured basis")
    return m, (op.phase - total.phase) % d


def estimate_operator(values: np.ndarray, op: WeylOp,
                      basis_obs: list[WeylOp]) -> tuple[np.ndarray, int]:
    """Counts over omega-sectors of op from (N, n) per-site outcomes, plus shot count."""
    m, kappa = basis_exponents(op, basis_obs)
    sectors = (np.asarray(values, dtype=np.int64) @ m + kappa) % op.d
    counts = np.bincount(sectors, minlength=op.d)
    return counts, int(counts.sum())


def snapshot_from_triple(kind, pos, triple, std_errors=(0.0, 0.0, 0.0), n_shots=0) -> dict:
    """The document entry of one d = 3 face reading, worked out face by face
    with the scalar formula the package's batched entries are checked against."""
    omega = np.exp(2j * np.pi / 3)
    expectation = complex(sum(triple[k] * omega**k for k in range(3)))
    arg = float(np.degrees(np.angle(expectation))) % 360.0 if abs(expectation) > 1e-12 else 0.0
    return {
        "kind": kind,
        "pos": list(pos),
        "pi1": float(triple[0]),
        "pi_omega": float(triple[1]),
        "pi_omegabar": float(triple[2]),
        "expectation_re": expectation.real,
        "expectation_im": expectation.imag,
        "arg_deg": arg,
        "std_errors": list(std_errors),
        "n_shots": n_shots,
        "transformed": False,
        "label": None,
    }


# -- encoder, lattice, experiments ---------------------------------------------------


def qubit_circuit_unitary(qc: QubitCircuit) -> np.ndarray:
    return ops_unitary(qc.ops, qc.n_qubits)


def qubit_circuit_two_qubit_count(qc: QubitCircuit) -> int:
    """zzphase ops of a built qubit circuit."""
    return sum(op.kind == "zzphase" for op in qc.ops)


def qubit_circuit_depth(qc: QubitCircuit) -> int:
    """Longest op chain of a built qubit circuit, op by op."""
    level = [0] * qc.n_qubits
    for op in qc.ops:
        if op.kind == "barrier":
            level = [max(level)] * qc.n_qubits
            continue
        layer = max(level[q] for q in op.qubits) + 1
        for q in op.qubits:
            level[q] = layer
    return max(level)


def xz_stacks(keep: list[WeylOp], change=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (x, z, rhs) constraint stacks solve_weyl_op takes: a row of rhs 0 per
    operator in keep, then a row of rhs delta per (op, delta) in change."""
    ops = [*keep, *(op for op, _ in change)]
    rhs = [0] * len(keep) + [delta for _, delta in change]
    return np.array([w.x for w in ops]), np.array([w.z for w in ops]), np.array(rhs)


def implicit_plaquette(lattice: TorusLattice) -> Plaquette:
    """The A-face ground_state_circuit leaves implicit, read from its gates: a
    Fourier target and the CX targets after it are one prepared face's corners,
    and each prepared face crosses off the first A-face with those corners (on
    2x2 both A-faces have all four sites as corners; the second is left)."""
    left = [p for p in lattice.plaquettes if p.kind == "A"]
    prepared: list[set[int]] = []
    for ins in ground_state_circuit(lattice).instructions:
        if ins.gate.kind is GateKind.FOURIER:
            prepared.append(set())
        prepared[-1].update(ins.gate.targets)
    for corners in prepared:
        left.remove(next(p for p in left if set(p.corners) == corners))
    if len(left) != 1:
        raise ValueError(f"{len(left)} A-faces left implicit, not one")
    return left[0]


def excited(frame: dict) -> dict[tuple[str, tuple[int, int]], tuple[float, ...]]:
    """A frame entry's excited faces: (kind, position) -> projector triple."""
    return {(r["kind"], tuple(r["pos"])): (r["pi1"], r["pi_omega"], r["pi_omegabar"])
            for r in frame["plaquettes"] if r["pi1"] != 1.0}


def run_braid(script: Script, seed: int = 0) -> tuple[list[dict], ScriptRunner]:
    runner = ScriptRunner(script, seed)
    frames = runner.run()
    return frames, runner


def unfused_cc_braid_script() -> Script:
    """The braid-cc preset up to its "fused" snapshot: its last two steps,
    the defect-pair fuse and the snapshot after it, dropped."""
    script = cc_braid_script()
    script.steps = script.steps[:-2]
    return script


def dense_script_frames(script: Script, outcome: int) -> list[dict[str, np.ndarray]]:
    """A braid script replayed on a dense state: per Snapshot step, each frame
    key -> the outcome probabilities of its operator (Pi^1, Pi^omega, Pi^omega-bar).

    Prepare, InsertCC and Fuse apply their fragments' gates. InsertPF projects
    onto the measured W at `outcome`, then applies the correction for it. A
    Move applies the operator the runner's `solve_move` finds against the
    frame that `observable_frame` builds from the live defects, so this checks
    the tableau path and the frame bookkeeping, not the move solver.
    """
    runner = ScriptRunner(script)
    lat = runner.lattice
    state = DenseState(lat.d, lat.n_sites)
    live: dict = {}
    inserted = 0
    runner.keys, runner.kinds, runner.frame = observable_frame(lat, live)
    frames = []
    for step in script.steps:
        if isinstance(step, Move):
            state.apply_weyl(runner.solve_move(step))
            continue
        if isinstance(step, Snapshot):
            x, z, ph = runner.frame
            frames.append({key: state.outcome_probabilities(WeylOp(lat.d, x[i], z[i], ph[i]))
                           for i, key in enumerate(runner.keys)})
            continue
        if isinstance(step, Prepare):
            gates = [ins.gate for ins in ground_state_circuit(lat).instructions]
        elif isinstance(step, InsertCC):
            frag, live[inserted] = cc_defect_circuit(lat, step.ribbon)
            gates = [ins.gate for ins in frag.instructions]
        elif isinstance(step, InsertPF):
            frag, live[inserted] = pf_defect_circuit(lat, step.site, step.species)
            state.project_onto(frag.instructions[0].observable, outcome)
            state.apply_weyl(live[inserted].correction.power(outcome))
            gates = []
        elif isinstance(step, Fuse):
            fused = fuse_cc_pair(lat, live.pop(step.defect))
            gates = [ins.gate for ins in fused.instructions]
        for g in gates:
            state.apply_gate(g)
        if isinstance(step, (InsertPF, InsertCC)):
            inserted += 1
        runner.keys, runner.kinds, runner.frame = observable_frame(lat, live)
    return frames
