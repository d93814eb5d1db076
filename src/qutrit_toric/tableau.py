"""Exact pure-state stabilizer simulation of n qudits (odd prime d).

State = n commuting independent stabilizer generators plus n paired
destabilizers (generalized Aaronson-Gottesman layout). Destabilizers
make deterministic-outcome extraction O(n^2) per operator: if w
commutes with every stabilizer then w = omega^s * prod_i S_i^{e_i} with
e_i read off as symplectic products against the destabilizer rows, no
elimination needed. The lookup runs on a stack of F operators at once
(one (2n, F) commutation product); measurement, `deterministic_outcome`
and `projector_triple` are its one-row case. `reference_outcomes` gives
the outcomes of measuring pairwise commuting operators in turn, random
ones forced to 0, from one row reduction and one lookup, without a
collapse. Helpers that only tests use (one-row expectations, group
equality) live in `tests/oracles.py`.

All 2n generators are rows of one store: int64 exponent matrices x, z
of shape (2n, n) and a phase vector ph of shape (2n,). Rows 0..n-1 are
the destabilizers D_i and rows n..2n-1 the stabilizers S_i. Gates
update columns, so applying a gate touches all 2n rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modmath import mod_inverse, rank, row_reduce
from .weyl import CliffordGate, WeylOp, check_dimension, conjugate_rows


@dataclass(frozen=True)
class MeasurementOutcome:
    """Outcome s means eigenvalue omega^s of the measured operator."""

    value: int
    deterministic: bool


class StabilizerTableau:
    """Single-owner mutable stabilizer state; the exact outcome tree forks it by `copy`."""

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

    def deterministic_outcomes(self, x: np.ndarray, z: np.ndarray, ph: np.ndarray) -> np.ndarray:
        """Outcome exponents of F stacked operators omega^ph[f] X^x[f] Z^z[f].

        x, z: (F, n) exponents; ph: (F,) phases. Returns (F,) int64, -1 where
        the operator is outside the stabilizer group (a random outcome).
        """
        x, z, ph = (np.asarray(a, dtype=np.int64) for a in (x, z, ph))
        if x.shape[1:] != (self.n,) or z.shape != x.shape or ph.shape != x.shape[:1]:
            raise ValueError("operator shape mismatch")
        return self._lookup(x, z, ph, (self.x @ z.T - self.z @ x.T) % self.d)

    def _lookup(self, x, z, ph, c: np.ndarray) -> np.ndarray:
        """deterministic_outcomes given the (2n, F) commutation c with every row.

        Operator f is in the group iff it commutes with every stabilizer;
        then it is omega^s prod_i S_i^{e_i} with e = c[:n, f]. For odd d,
        X^x Z^z = omega^{-x.z/2} W(x, z) with W(a)^e = W(e a) and W(a) W(b)
        = W(a + b) for commuting a, b, so the product's phase is linear in e:
        sum_i e_i (s_i - x_i.z_i/2) + x.z/2 (mod d), halves as (d+1)/2.
        """
        d, n = self.d, self.n
        member = ~c[n:].any(axis=0)
        e, sx, sz = c[:n].T, self.x[n:], self.z[n:]
        if np.any(((e @ sx - x) % d | (e @ sz - z) % d)[member]):
            # commutes with the whole maximal group yet is not in it: impossible
            # for a valid tableau, so surface loudly.
            raise AssertionError("tableau invariant violated in deterministic lookup")
        half = (d + 1) // 2
        rows = self.ph[n:] - half * np.einsum("ij,ij->i", sx, sz)
        return np.where(member, (ph - e @ rows - half * np.einsum("fk,fk->f", x, z)) % d, -1)

    def _outcome(self, w: WeylOp, c: np.ndarray | None = None) -> int:
        """The one-row lookup; -1 (returned before the batched body) when w is random."""
        c = self._commutation(w) if c is None else c
        if c[self.n:].any():
            return -1
        return int(self._lookup(w.x[None], w.z[None], np.array([w.phase]), c[:, None])[0])

    def deterministic_outcome(self, w: WeylOp) -> int | None:
        """Outcome exponent when w is (proportional to) a stabilizer element, else None."""
        det = self._outcome(w)
        return None if det < 0 else det

    def reference_outcomes(self, x: np.ndarray, z: np.ndarray, ph: np.ndarray) -> np.ndarray:
        """Outcomes of measuring M pairwise commuting operators in order, every
        random one forced to 0, without collapsing the state.

        x, z: (M, n) exponents; ph: (M,) phases. Returns (M,) int64, the
        values `measure_weyl(w, force=0)` would give one after another.
        Operator k is random iff its commutation column with the stabilizers
        is independent of the earlier columns: the pivots of their row
        reduction. Any other column is sum_j coef_j times the pivot columns,
        so the residual a_k - sum_j coef_j a_pj commutes with every
        stabilizer; with phi = ph - x.z/2 and W additive on commuting
        strings, outcome k is the lookup of that residual at phase
        phi_k - sum_j coef_j phi_pj (the pivots read 0), all in one call.
        """
        x, z, ph = (np.asarray(a, dtype=np.int64) for a in (x, z, ph))
        d, n = self.d, self.n
        if np.any((x @ z.T - z @ x.T) % d):
            raise ValueError("reference outcomes need pairwise commuting operators")
        red, pivots = row_reduce((self.x[n:] @ z.T - self.z[n:] @ x.T) % d, d)
        # coef[k, j]: column k over pivot column j; a pivot's row is a unit
        # vector, so its residual is the identity at phase 0, outcome 0
        coef = red[:len(pivots)].T
        half = (d + 1) // 2
        phi = ph - half * np.einsum("mk,mk->m", x, z)
        rx, rz = (x - coef @ x[pivots]) % d, (z - coef @ z[pivots]) % d
        rph = phi - coef @ phi[pivots] + half * np.einsum("mk,mk->m", rx, rz)
        out = self.deterministic_outcomes(rx, rz, rph)
        if np.any(out < 0):
            raise AssertionError("tableau invariant violated in reference lookup")
        return out

    def measure_weyl(self, w: WeylOp, force: int | None = None) -> MeasurementOutcome:
        """Measure a Weyl observable; collapses the state on random outcomes.

        force pins a random outcome (the exact outcome tree and the frame
        sampler's reference shot pass it); a deterministic outcome ignores it.
        """
        self._check_shape(w)
        d, n = self.d, self.n
        c = self._commutation(w)
        det = self._outcome(w, c)
        if det >= 0:
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

    def projector_triple(self, w: WeylOp) -> tuple[float, ...]:
        """<Pi^{omega^alpha}(w)> for alpha = 0..d-1, from one lookup.

        For stabilizer states each entry is exactly 1, 0 or 1/d.
        """
        return outcome_triple(self._outcome(w), self.d)

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


def outcome_triple(det: int, d: int) -> tuple[float, ...]:
    """<Pi^{omega^a}> for a = 0..d-1 from a lookup outcome (-1: random, 1/d each)."""
    return (1.0 / d,) * d if det < 0 else tuple(float(a == det) for a in range(d))


def outcome_expectation(det: int, d: int) -> complex:
    """<w> from its lookup outcome: omega^det, or 0 when random (-1)."""
    return 0j if det < 0 else complex(np.exp(2j * np.pi * det / d))

