"""Exact pure-state stabilizer simulation of n qudits (odd prime d).

State = n commuting independent stabilizer generators plus n paired
destabilizers (generalized Aaronson-Gottesman layout). Destabilizers
make deterministic-outcome extraction O(n^2): if w commutes with every
stabilizer then w = omega^s * prod_i S_i^{e_i} with e_i read off as
symplectic products against the destabilizer rows, no elimination
needed.

All 2n generators are rows of one store: int64 exponent matrices x, z
of shape (2n, n) and a phase vector ph of shape (2n,). Rows 0..n-1 are
the destabilizers D_i and rows n..2n-1 the stabilizers S_i. Gates
update columns, so applying a gate touches all 2n rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modmath import mod_inverse, rank
from .weyl import CliffordGate, WeylOp, check_dimension, conjugate_rows


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
        # |0>^n : destabilizers X_i, stabilizers Z_i, phases 0
        eye = np.eye(n, dtype=np.int64)
        zero = np.zeros((n, n), dtype=np.int64)
        self.x = np.concatenate([eye, zero])
        self.z = np.concatenate([zero, eye])
        self.ph = np.zeros(2 * n, dtype=np.int64)
        self.rng = rng if rng is not None else np.random.default_rng()

    def copy(self, rng: np.random.Generator | None = None) -> "StabilizerTableau":
        other = StabilizerTableau.__new__(StabilizerTableau)
        other.d, other.n = self.d, self.n
        other.x, other.z, other.ph = self.x.copy(), self.z.copy(), self.ph.copy()
        other.rng = rng if rng is not None else self.rng
        return other

    def stabilizer(self, i: int) -> WeylOp:
        r = self.n + i
        return WeylOp(self.d, self.x[r], self.z[r], int(self.ph[r]))

    # -- gates ---------------------------------------------------------------

    def apply_gate(self, g: CliffordGate) -> None:
        conjugate_rows(g, self.x, self.z, self.ph, self.d)

    def _check_shape(self, w: WeylOp) -> None:
        if w.d != self.d or w.n != self.n:
            raise ValueError("operator shape mismatch")

    def _commutation(self, w: WeylOp) -> np.ndarray:
        """sp(row_r, w) for all 2n rows: destabilizers first, then stabilizers."""
        return (self.x @ w.z - self.z @ w.x) % self.d

    def apply_weyl(self, w: WeylOp) -> None:
        """Apply a Weyl operator as an error/frame update (phase-only action)."""
        self._check_shape(w)
        # conj: E R E^dag = omega^{sp(R, E)} R
        self.ph += self._commutation(w)
        self.ph %= self.d

    # -- measurement -----------------------------------------------------------

    def _lookup(self, w: WeylOp, c: np.ndarray) -> int | None:
        """Outcome exponent of w from its commutation vector c over all rows.

        Returns None when w does not commute with the stabilizer group.
        The in-order product prod_i S_i^{e_i} is accumulated in closed
        form: power phases per row plus the reordering phases
        sum_{i<j} e_i e_j z_i . x_j, taken as the prefix sum
        sum_j e_j (sum_{i<j} e_i z_i) . x_j in O(n^2).
        """
        d, n = self.d, self.n
        if np.any(c[n:]):
            return None
        e = c[:n]
        sx, sz, sp = self.x[n:], self.z[n:], self.ph[n:]
        x = (e @ sx) % d
        z = (e @ sz) % d
        if not (np.array_equal(x, w.x) and np.array_equal(z, w.z)):
            # commutes with the whole maximal group yet is not in it: impossible
            # for a valid tableau, so surface loudly.
            raise AssertionError("tableau invariant violated in deterministic lookup")
        cross_rows = np.einsum("ij,ij->i", sx, sz) % d
        pow_ph = (e * sp + (e * (e - 1) // 2) * cross_rows) % d
        ez = e[:, None] * sz
        reorder = e @ np.einsum("ij,ij->i", np.cumsum(ez, axis=0) - ez, sx)
        ph = (int(pow_ph.sum()) + int(reorder)) % d
        return (w.phase - ph) % d

    def deterministic_outcome(self, w: WeylOp) -> int | None:
        """Outcome exponent when w is (proportional to) a stabilizer element, else None."""
        return self._lookup(w, self._commutation(w))

    def measure_weyl(self, w: WeylOp, force: int | None = None) -> MeasurementOutcome:
        """Measure a Weyl observable; collapses the state on random outcomes.

        force pins the random branch (used by exact branch enumeration);
        it must be None for deterministic outcomes to keep statistics honest.
        """
        self._check_shape(w)
        d, n = self.d, self.n
        c = self._commutation(w)
        det = self._lookup(w, c)
        if det is not None:
            return MeasurementOutcome(det, True)
        p = int(np.nonzero(c[n:])[0][0])
        q = n + p  # row of S_p
        s = int(self.rng.integers(d)) if force is None else int(force) % d
        inv_cp = mod_inverse(int(c[q]), d)
        sx_p, sz_p, sp_p = self.x[q].copy(), self.z[q].copy(), int(self.ph[q])
        cross_p = int(np.dot(sx_p, sz_p)) % d
        # every other row R: R <- R S_p^{-sp(R,w)/sp(S_p,w)}
        m = (-c * inv_cp) % d
        m[q] = 0
        self.ph += (m * sp_p + (m * (m - 1) // 2) * cross_p) % d + m * (self.z @ sx_p)
        self.ph %= d
        self.x += np.outer(m, sx_p)
        self.x %= d
        self.z += np.outer(m, sz_p)
        self.z %= d
        # new destabilizer at p: S_p^{1/sp(S_p,w)}; new stabilizer: omega^{-s} w
        self.x[p] = (inv_cp * sx_p) % d
        self.z[p] = (inv_cp * sz_p) % d
        self.ph[p] = (inv_cp * sp_p + (inv_cp * (inv_cp - 1) // 2) * cross_p) % d
        self.x[q] = w.x
        self.z[q] = w.z
        self.ph[q] = (w.phase - s) % d
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
        return self.projector_triple(w)[alpha]

    def projector_triple(self, w: WeylOp) -> tuple[float, ...]:
        """projector_expectation(w, alpha) for every alpha, from one lookup."""
        det = self.deterministic_outcome(w)
        if det is None:
            return (1.0 / self.d,) * self.d
        return tuple(1.0 if a == det else 0.0 for a in range(self.d))

    # -- invariants --------------------------------------------------------------

    def validate(self) -> None:
        """Assert commutation, independence and canonical pairing."""
        d, n = self.d, self.n
        form = (self.x @ self.z.T - self.z @ self.x.T) % d
        if np.any(form[n:, n:]):
            raise AssertionError("stabilizer generators do not commute")
        if rank(np.concatenate([self.x[n:], self.z[n:]], axis=1), d) != n:
            raise AssertionError("stabilizer generators are dependent")
        if not np.array_equal(form[:n, n:], np.eye(n, dtype=np.int64)):
            raise AssertionError("destabilizer pairing is not canonical")
        if np.any(form[:n, :n]):
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
    return StabilizerTableau(d, n, np.random.default_rng(seed))
