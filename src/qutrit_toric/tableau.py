"""Exact pure-state stabilizer simulation of n qudits (odd prime d).

State = n commuting independent stabilizer generators plus n paired
destabilizers (generalized Aaronson-Gottesman layout). Destabilizers
make deterministic-outcome extraction O(n^2): if w commutes with every
stabilizer then w = omega^s * prod_i S_i^{e_i} with e_i read off as
symplectic products against the destabilizer rows, no elimination
needed.

Generators are stored as rows of int64 exponent matrices; gates update
columns, so applying a gate touches all 2n rows at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .modmath import mod_inverse, rank
from .weyl import (
    CliffordGate,
    GateKind,
    ONE_QUDIT_KINDS,
    WeylOp,
    check_dimension,
)

DEBUG_VALIDATE = bool(os.environ.get("QUTRIT_TORIC_DEBUG"))


@dataclass(frozen=True)
class MeasurementOutcome:
    """Outcome s means eigenvalue omega^s of the measured operator."""

    value: int
    deterministic: bool


class StabilizerTableau:
    """Single-owner mutable stabilizer state; clone per shot for parallel runs."""

    def __init__(self, d: int, n: int, rng: np.random.Generator | None = None):
        check_dimension(d)
        if n < 1:
            raise ValueError("need at least one qudit")
        self.d = d
        self.n = n
        # |0>^n : stabilizers Z_i, destabilizers X_i, phases 0
        self.sx = np.zeros((n, n), dtype=np.int64)
        self.sz = np.eye(n, dtype=np.int64)
        self.sp = np.zeros(n, dtype=np.int64)
        self.dx = np.eye(n, dtype=np.int64)
        self.dz = np.zeros((n, n), dtype=np.int64)
        self.dp = np.zeros(n, dtype=np.int64)
        self.rng = rng if rng is not None else np.random.default_rng()

    # -- construction ------------------------------------------------------

    @classmethod
    def computational(cls, d: int, n: int, seed=None) -> "StabilizerTableau":
        return cls(d, n, np.random.default_rng(seed))

    def copy(self, rng: np.random.Generator | None = None) -> "StabilizerTableau":
        other = StabilizerTableau.__new__(StabilizerTableau)
        other.d, other.n = self.d, self.n
        other.sx = self.sx.copy()
        other.sz = self.sz.copy()
        other.sp = self.sp.copy()
        other.dx = self.dx.copy()
        other.dz = self.dz.copy()
        other.dp = self.dp.copy()
        other.rng = rng if rng is not None else self.rng
        return other

    def stabilizer(self, i: int) -> WeylOp:
        return WeylOp(self.d, self.sx[i], self.sz[i], int(self.sp[i]))

    def destabilizer(self, i: int) -> WeylOp:
        return WeylOp(self.d, self.dx[i], self.dz[i], int(self.dp[i]))

    def stabilizers(self) -> list[WeylOp]:
        return [self.stabilizer(i) for i in range(self.n)]

    # -- gates ---------------------------------------------------------------

    def apply_gate(self, g: CliffordGate) -> None:
        d = self.d
        for t in g.targets:
            if not (0 <= t < self.n):
                raise ValueError(f"gate target {t} out of range for n={self.n}")
        kind = g.kind
        for x, z, ph in ((self.sx, self.sz, self.sp), (self.dx, self.dz, self.dp)):
            if kind in ONE_QUDIT_KINDS:
                t = g.targets[0]
                if kind is GateKind.SHIFT_X:
                    ph -= z[:, t]
                elif kind is GateKind.SHIFT_X_DAG:
                    ph += z[:, t]
                elif kind is GateKind.CLOCK_Z:
                    ph += x[:, t]
                elif kind is GateKind.CLOCK_Z_DAG:
                    ph -= x[:, t]
                elif kind is GateKind.CONJ:
                    x[:, t] = -x[:, t] % d
                    z[:, t] = -z[:, t] % d
                elif kind is GateKind.FOURIER:
                    ph -= x[:, t] * z[:, t]
                    xt = x[:, t].copy()
                    x[:, t] = -z[:, t] % d
                    z[:, t] = xt
                elif kind is GateKind.FOURIER_DAG:
                    ph -= x[:, t] * z[:, t]
                    xt = x[:, t].copy()
                    x[:, t] = z[:, t]
                    z[:, t] = -xt % d
            else:
                c, t = g.targets
                if kind is GateKind.CX:
                    x[:, t] = (x[:, t] + x[:, c]) % d
                    z[:, c] = (z[:, c] - z[:, t]) % d
                elif kind is GateKind.CX_DAG:
                    x[:, t] = (x[:, t] - x[:, c]) % d
                    z[:, c] = (z[:, c] + z[:, t]) % d
                elif kind is GateKind.CZ:
                    ph += x[:, c] * x[:, t]
                    z[:, c] = (z[:, c] + x[:, t]) % d
                    z[:, t] = (z[:, t] + x[:, c]) % d
                elif kind is GateKind.CZ_DAG:
                    ph -= x[:, c] * x[:, t]
                    z[:, c] = (z[:, c] - x[:, t]) % d
                    z[:, t] = (z[:, t] - x[:, c]) % d
            ph %= d
        if DEBUG_VALIDATE:
            self.validate()

    def apply_weyl(self, w: WeylOp) -> None:
        """Apply a Weyl operator as an error/frame update (phase-only action)."""
        if w.d != self.d or w.n != self.n:
            raise ValueError("operator shape mismatch")
        # conj: E S E^dag = omega^{sp(S, E)} S
        for x, z, ph in ((self.sx, self.sz, self.sp), (self.dx, self.dz, self.dp)):
            s = (x @ w.z - z @ w.x) % self.d
            ph += s
            ph %= self.d
        if DEBUG_VALIDATE:
            self.validate()

    # -- measurement -----------------------------------------------------------

    def _commutation_vector(self, w: WeylOp, destab: bool = False) -> np.ndarray:
        """sp(row_i, w) for all stabilizer (or destabilizer) rows."""
        if destab:
            return (self.dx @ w.z - self.dz @ w.x) % self.d
        return (self.sx @ w.z - self.sz @ w.x) % self.d

    def _row_times_stab(self, x, z, ph, p: int, m: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Compose row (x,z,ph) with S_p^m, returning new (x,z,ph)."""
        d = self.d
        m %= d
        cross = int(np.dot(self.sx[p], self.sz[p])) % d
        pow_ph = (m * int(self.sp[p]) + (m * (m - 1) // 2) * cross) % d
        new_ph = (int(ph) + pow_ph + int(np.dot(z, (m * self.sx[p]) % d))) % d
        return (x + m * self.sx[p]) % d, (z + m * self.sz[p]) % d, new_ph

    def deterministic_outcome(self, w: WeylOp) -> int | None:
        """Outcome exponent when w is (proportional to) a stabilizer element.

        Returns None when w does not commute with the stabilizer group.
        The in-order product prod_i S_i^{e_i} is accumulated in closed
        form: power phases per row plus the pairwise reordering phases
        e^T triu(SZ SX^T) e.
        """
        d = self.d
        if np.any(self._commutation_vector(w)):
            return None
        e = self._commutation_vector(w, destab=True)
        x = (e @ self.sx) % d
        z = (e @ self.sz) % d
        if not (np.array_equal(x, w.x) and np.array_equal(z, w.z)):
            # commutes with the whole maximal group yet is not in it: impossible
            # for a valid tableau, so surface loudly.
            raise AssertionError("tableau invariant violated in deterministic lookup")
        cross_rows = np.einsum("ij,ij->i", self.sx, self.sz) % d
        pow_ph = (e * self.sp + (e * (e - 1) // 2) * cross_rows) % d
        M = self.sz @ self.sx.T
        reorder = e @ np.triu(M, 1) @ e
        ph = (int(pow_ph.sum()) + int(reorder)) % d
        return (w.phase - ph) % d

    def measure_weyl(self, w: WeylOp, force: int | None = None) -> MeasurementOutcome:
        """Measure a Weyl observable; collapses the state on random outcomes.

        force pins the random branch (used by exact branch enumeration);
        it must be None for deterministic outcomes to keep statistics honest.
        """
        if w.d != self.d or w.n != self.n:
            raise ValueError("operator shape mismatch")
        det = self.deterministic_outcome(w)
        if det is not None:
            return MeasurementOutcome(det, True)
        c = self._commutation_vector(w)
        p = int(np.nonzero(c)[0][0])
        cp = int(c[p])
        s = int(self.rng.integers(self.d)) if force is None else int(force) % self.d
        d = self.d
        inv_cp = mod_inverse(cp, d)
        sx_p, sz_p, sp_p = self.sx[p].copy(), self.sz[p].copy(), int(self.sp[p])
        cross_p = int(np.dot(sx_p, sz_p)) % d

        def mix_rows(x, z, ph, m):
            """Rows <- rows . S_p^m, vectorized over the row index."""
            pow_ph = (m * sp_p + (m * (m - 1) // 2) * cross_p) % d
            ph += pow_ph + m * (z @ sx_p)
            ph %= d
            x += np.outer(m, sx_p)
            x %= d
            z += np.outer(m, sz_p)
            z %= d

        # fix the other anticommuting stabilizers: S_i <- S_i S_p^{-c_i/c_p}
        m_s = (-c * inv_cp) % d
        m_s[p] = 0
        mix_rows(self.sx, self.sz, self.sp, m_s)
        # fix destabilizers: D_i <- D_i S_p^{-sp(D_i,w)/sp(S_p,w)}
        cd = self._commutation_vector(w, destab=True)
        m_d = (-cd * inv_cp) % d
        mix_rows(self.dx, self.dz, self.dp, m_d)
        # new destabilizer at p: S_p^{1/sp(S_p,w)}; new stabilizer: omega^{-s} w
        m = inv_cp % d
        self.dx[p] = (m * sx_p) % d
        self.dz[p] = (m * sz_p) % d
        self.dp[p] = (m * sp_p + (m * (m - 1) // 2) * cross_p) % d
        self.sx[p] = w.x
        self.sz[p] = w.z
        self.sp[p] = (w.phase - s) % d
        if DEBUG_VALIDATE:
            self.validate()
        return MeasurementOutcome(s, False)

    # -- expectations ----------------------------------------------------------

    def expectation_weyl(self, w: WeylOp) -> complex:
        """Exactly one of 0 or omega^k."""
        det = self.deterministic_outcome(w)
        if det is None:
            return 0j
        return complex(np.exp(2j * np.pi * det / self.d))

    def projector_expectation(self, w: WeylOp, alpha: int) -> float:
        """<Pi^{omega^alpha}(w)> = (1/d) sum_m omega^{-alpha m} <w^m>.

        For stabilizer states this is exactly 1, 0 or 1/d.
        """
        if not (0 <= alpha < self.d):
            raise ValueError(f"alpha must be an exponent in [0,{self.d})")
        det = self.deterministic_outcome(w)
        if det is None:
            return 1.0 / self.d
        return 1.0 if det == alpha else 0.0

    def projector_triple(self, w: WeylOp) -> tuple[float, ...]:
        return tuple(self.projector_expectation(w, a) for a in range(self.d))

    # -- invariants --------------------------------------------------------------

    def validate(self) -> None:
        """Assert commutation, independence and canonical pairing."""
        d, n = self.d, self.n
        comm = (self.sx @ self.sz.T - self.sz @ self.sx.T) % d
        if np.any(comm):
            raise AssertionError("stabilizer generators do not commute")
        if rank(np.concatenate([self.sx, self.sz], axis=1), d) != n:
            raise AssertionError("stabilizer generators are dependent")
        pair = (self.dx @ self.sz.T - self.dz @ self.sx.T) % d
        if not np.array_equal(pair, np.eye(n, dtype=np.int64)):
            raise AssertionError("destabilizer pairing is not canonical")
        dd = (self.dx @ self.dz.T - self.dz @ self.dx.T) % d
        if np.any(dd):
            raise AssertionError("destabilizers do not commute among themselves")

    def stabilizer_group_equals(self, other: "StabilizerTableau") -> bool:
        """True when both tableaus stabilize the same state (exact phases)."""
        if (self.d, self.n) != (other.d, other.n):
            return False
        for i in range(other.n):
            if self.deterministic_outcome(other.stabilizer(i)) != 0:
                return False
        return True


def new_computational(d: int, n: int, seed=None) -> StabilizerTableau:
    """State |0>^n: stabilizers Z_i, destabilizers X_i, phases 0."""
    return StabilizerTableau.computational(d, n, seed)
