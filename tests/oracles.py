"""Exact oracles and test-only helpers the suite checks the package against.

Nothing in the package runs these. They are the brute-force references
(dense statevector, dense joint outcome distributions, the dict-based
readout channel, per-operator sector counts, one face's document entry)
and the small conveniences that only tests call (one-row tableau
expectations, a fresh |0>^n tableau, a one-shot tableau run, counted
tableau calls, a braid run that returns its runner).
Hard size caps keep the dense ones to a few qutrits.
"""

from __future__ import annotations

import numpy as np

from qutrit_toric.analysis import ConfusionMatrix, _per_bit
from qutrit_toric.circuit import Circuit, CondGate, Gate, Measure, execute
from qutrit_toric.dense import gate_matrix, weyl_matrices
from qutrit_toric.encoder import QubitCircuit
from qutrit_toric.experiments import Script, ScriptRunner
from qutrit_toric.lattice import Plaquette, TorusLattice, default_preparation_order
from qutrit_toric.synth import ops_unitary
from qutrit_toric.tableau import StabilizerTableau, outcome_expectation
from qutrit_toric.weyl import CliffordGate, WeylOp, check_dimension

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
        exps = np.array([self.expectation_weyl(w.power(m)) for m in range(d)])
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
    """Joint creg distribution of a noiseless circuit by projecting a dense state
    onto each eigenspace, P_s = (1/d) sum_m omega^(-s m) w^m."""
    d, n = circuit.d, circuit.n_qudits
    omega = np.exp(2j * np.pi / d)
    dist = {}

    def walk(state, start, creg, prob):
        for i in range(start, len(circuit.instructions)):
            ins = circuit.instructions[i]
            if isinstance(ins, Gate):
                state.apply_gate(ins.gate)
            elif isinstance(ins, CondGate):
                for g in ins.predicate[creg[ins.creg]]:
                    state.apply_gate(g)
            elif isinstance(ins, Measure):
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


# -- readout channel -----------------------------------------------------------------


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
    """The A-face the default preparation order leaves implicit."""
    listed = {pos for pos, _ in default_preparation_order(lattice)}
    for p in lattice.a_plaquettes:
        if p.pos not in listed:
            return p
    raise ValueError("ordering covers every A-face; none left implicit")


def excited(frame: dict) -> dict[tuple[str, tuple[int, int]], tuple[float, ...]]:
    """A frame entry's excited faces: (kind, position) -> projector triple."""
    return {(r["kind"], tuple(r["pos"])): (r["pi1"], r["pi_omega"], r["pi_omegabar"])
            for r in frame["plaquettes"] if r["pi1"] != 1.0}


def run_braid(script: Script, seed: int = 0) -> tuple[list[dict], ScriptRunner]:
    runner = ScriptRunner(script, seed)
    frames = runner.run()
    return frames, runner
