"""Reference statevector simulator for small qudit systems.

An oracle, not a simulation path: hard size caps keep it to a few
qutrits. It validates the tableau, the defect constructions and the
encoder against brute-force linear algebra, in the tests and in the
`verify` command, which builds its matrices in stacks.
"""

from __future__ import annotations

import numpy as np

from .weyl import (
    CliffordGate,
    GateKind,
    WeylOp,
    check_dimension,
)

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


def gate_matrix(kind: GateKind, d: int) -> np.ndarray:
    """Dense matrix of a Clifford gate kind (d x d or d^2 x d^2); a dagger
    kind is the adjoint of its base kind."""
    kind = GateKind(kind)
    w = np.exp(2j * np.pi / d)
    X = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        X[(i + 1) % d, i] = 1
    Z = np.diag([w**i for i in range(d)])
    H = np.array([[w ** (i * j) for j in range(d)] for i in range(d)]) / np.sqrt(d)
    C = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        C[(-i) % d, i] = 1
    # two-qudit kinds, control = first site
    CXm = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            CXm[d * i + (i + j) % d, d * i + j] = 1
    CZm = np.diag([w ** (i * j) for i in range(d) for j in range(d)])
    mats = {"x": X, "z": Z, "c": C, "h": H, "cx": CXm, "cz": CZm}
    base = kind.value.removesuffix("dg")
    return mats[base] if base == kind.value else mats[base].conj().T


def weyl_matrix(w: WeylOp) -> np.ndarray:
    """Full d^n x d^n matrix of a Weyl operator (small n only)."""
    return weyl_matrices(w.d, w.x[None], w.z[None], np.array([w.phase]))[0]


def weyl_matrices(d: int, x: np.ndarray, z: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """(k, d^n, d^n) matrices of the Weyl strings (x[i], z[i], phase[i]), small n only."""
    k, n = x.shape
    dim = d**n
    if dim > 4096:
        raise ValueError("weyl_matrix is for small systems only")
    digits = np.indices((d,) * n).reshape(n, dim)  # column j's site digits
    place = d ** np.arange(n - 1, -1, -1)  # row-major place value of each site
    rows = place @ ((digits + x[:, :, None]) % d)  # (k, dim)
    powers = np.array([np.exp(2j * np.pi / d) ** m for m in range(d)])
    mats = np.zeros((k, dim, dim), dtype=np.complex128)
    mats[np.arange(k)[:, None], rows, np.arange(dim)] = powers[(phase[:, None] + z @ digits) % d]
    return mats


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
            gen = tab.stabilizer(i)
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
