"""Generalized Pauli (Weyl) operators over an odd prime dimension.

An operator is stored in the normal-ordered form

    w = omega^phase * prod_i X_i^{x[i]} Z_i^{z[i]},   omega = exp(2*pi*i/d),

with X before Z on every site. The clock and shift matrices satisfy
Z|i> = omega^i |i> and X|i> = |i+1 mod d>, from which ZX = omega * XZ.
All exponents (including the phase) live in Z_d; for odd prime d every
such operator obeys w^d = 1, so eigenvalues are exactly the d-th roots
of unity and a single mod-d phase exponent suffices for Clifford
conjugation. Dimension 2 is rejected: qubit phase bookkeeping needs
fourth roots of unity and is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


def check_dimension(d: int) -> None:
    """Reject dimensions that are not odd primes (in particular d=2)."""
    if d == 2:
        raise ValueError("qubit dimension d=2 is not supported (needs 4th-root phases)")
    if d < 2 or any(d % p == 0 for p in range(2, int(d**0.5) + 1)):
        raise ValueError(f"dimension must be an odd prime, got {d}")


@dataclass(frozen=True)
class WeylOp:
    """A phase-tagged Weyl string omega^phase * prod_i X_i^x[i] Z_i^z[i]."""

    d: int
    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self):
        check_dimension(self.d)
        x = np.asarray(self.x, dtype=np.int64) % self.d
        z = np.asarray(self.z, dtype=np.int64) % self.d
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z exponent vectors must be 1-d and equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", int(self.phase) % self.d)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_site(cls, d: int, n: int, site: int, xe: int, ze: int, phase: int = 0) -> "WeylOp":
        x = np.zeros(n, dtype=np.int64)
        z = np.zeros(n, dtype=np.int64)
        x[site] = xe
        z[site] = ze
        return cls(d, x, z, phase)

    @classmethod
    def from_pattern(cls, d: int, n: int, pattern: dict[int, tuple[int, int]], phase: int = 0) -> "WeylOp":
        """Build from a sparse map site -> (x_exponent, z_exponent)."""
        x = np.zeros(n, dtype=np.int64)
        z = np.zeros(n, dtype=np.int64)
        for site, (xe, ze) in pattern.items():
            x[site] = xe
            z[site] = ze
        return cls(d, x, z, phase)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero((self.x != 0) | (self.z != 0))[0])

    def __matmul__(self, other: "WeylOp") -> "WeylOp":
        return compose(self, other)

    def power(self, m: int) -> "WeylOp":
        """w^m.  Uses (X^x Z^z)^m = omega^{xz * m(m-1)/2} X^{mx} Z^{mz}."""
        m = m % self.d
        cross = int(np.dot(self.x, self.z)) % self.d
        ph = (m * self.phase + (m * (m - 1) // 2) * cross) % self.d
        return WeylOp(self.d, m * self.x, m * self.z, ph)

    def inverse(self) -> "WeylOp":
        cross = int(np.dot(self.x, self.z)) % self.d
        return WeylOp(self.d, -self.x, -self.z, -self.phase + cross)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylOp):
            return NotImplemented
        return (
            self.d == other.d
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.d, self.phase, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self) -> str:
        terms = []
        for i in self.support:
            part = ""
            if self.x[i]:
                part += "X" + ("" if self.x[i] == 1 else f"^{self.x[i]}")
            if self.z[i]:
                part += "Z" + ("" if self.z[i] == 1 else f"^{self.z[i]}")
            terms.append(f"{part}[{i}]")
        body = " ".join(terms) if terms else "I"
        pre = "" if self.phase == 0 else f"w^{self.phase} "
        return f"<{pre}{body} (d={self.d}, n={self.n})>"


def _check_pair(a: WeylOp, b: WeylOp) -> None:
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    if a.n != b.n:
        raise ValueError(f"qudit count mismatch: {a.n} vs {b.n}")


def compose(a: WeylOp, b: WeylOp) -> WeylOp:
    """Operator product a*b under the X-before-Z normal ordering.

    Moving a's Z block across b's X block costs omega^{a.z . b.x}:
        phase = a.phase + b.phase + sum_i a.z[i] * b.x[i]  (mod d).
    """
    _check_pair(a, b)
    ph = (a.phase + b.phase + int(np.dot(a.z, b.x))) % a.d
    return WeylOp(a.d, a.x + b.x, a.z + b.z, ph)


def symplectic_product(a: WeylOp, b: WeylOp) -> int:
    """s = sum_i (a.x[i] b.z[i] - a.z[i] b.x[i]) mod d, so a*b = omega^{-s} b*a.

    s = 0 iff the operators commute.
    """
    _check_pair(a, b)
    return int(np.dot(a.x, b.z) - np.dot(a.z, b.x)) % a.d


class GateKind(str, Enum):
    SHIFT_X = "x"
    SHIFT_X_DAG = "xdg"
    CLOCK_Z = "z"
    CLOCK_Z_DAG = "zdg"
    CONJ = "c"
    FOURIER = "h"
    FOURIER_DAG = "hdg"
    CX = "cx"
    CX_DAG = "cxdg"
    CZ = "cz"
    CZ_DAG = "czdg"


ONE_QUDIT_KINDS = {
    GateKind.SHIFT_X,
    GateKind.SHIFT_X_DAG,
    GateKind.CLOCK_Z,
    GateKind.CLOCK_Z_DAG,
    GateKind.CONJ,
    GateKind.FOURIER,
    GateKind.FOURIER_DAG,
}

_INVERSE_KIND = {
    GateKind.SHIFT_X: GateKind.SHIFT_X_DAG,
    GateKind.SHIFT_X_DAG: GateKind.SHIFT_X,
    GateKind.CLOCK_Z: GateKind.CLOCK_Z_DAG,
    GateKind.CLOCK_Z_DAG: GateKind.CLOCK_Z,
    GateKind.CONJ: GateKind.CONJ,
    GateKind.FOURIER: GateKind.FOURIER_DAG,
    GateKind.FOURIER_DAG: GateKind.FOURIER,
    GateKind.CX: GateKind.CX_DAG,
    GateKind.CX_DAG: GateKind.CX,
    GateKind.CZ: GateKind.CZ_DAG,
    GateKind.CZ_DAG: GateKind.CZ,
}


@dataclass(frozen=True)
class CliffordGate:
    """A gate from the closed qudit Clifford list used throughout the package.

    Two-qudit kinds carry (control, target); one-qudit kinds a single index.
    """

    kind: GateKind
    targets: tuple[int, ...]

    def __post_init__(self):
        kind = GateKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if kind in ONE_QUDIT_KINDS:
            if len(self.targets) != 1:
                raise ValueError(f"{kind.value} takes exactly one target")
        else:
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError(f"{kind.value} takes two distinct targets")

    def inverse(self) -> "CliffordGate":
        return CliffordGate(_INVERSE_KIND[self.kind], self.targets)

    def __repr__(self) -> str:
        return f"{self.kind.value}{list(self.targets)}"


# Constructor shorthands, named after what the gates do.
def shift_x(t: int) -> CliffordGate:
    return CliffordGate(GateKind.SHIFT_X, (t,))


def clock_z(t: int) -> CliffordGate:
    return CliffordGate(GateKind.CLOCK_Z, (t,))


def conj_c(t: int) -> CliffordGate:
    return CliffordGate(GateKind.CONJ, (t,))


def fourier(t: int) -> CliffordGate:
    return CliffordGate(GateKind.FOURIER, (t,))


def fourier_dag(t: int) -> CliffordGate:
    return CliffordGate(GateKind.FOURIER_DAG, (t,))


def cx(c: int, t: int) -> CliffordGate:
    return CliffordGate(GateKind.CX, (c, t))


def cx_dag(c: int, t: int) -> CliffordGate:
    return CliffordGate(GateKind.CX_DAG, (c, t))


def cz(c: int, t: int) -> CliffordGate:
    return CliffordGate(GateKind.CZ, (c, t))


def cz_dag(c: int, t: int) -> CliffordGate:
    return CliffordGate(GateKind.CZ_DAG, (c, t))


def conjugate_rows(g: CliffordGate, x: np.ndarray, z: np.ndarray, ph: np.ndarray, d: int) -> None:
    """Conjugate every row of a Weyl-string array by g, in place, mod d.

    x and z are (rows, n) int64 exponent arrays and ph the (rows,) phase
    vector; row r becomes the exact Heisenberg image g w_r g^dagger.
    Single-site rules:  H: X->Z, Z->X^dag;  C: X->X^dag, Z->Z^dag;
    two-site: CX: X@1 -> X@X, 1@Z -> Z^dag@Z;  CZ: X@1 -> X@Z, 1@X -> Z@X.
    Phase increments follow from the compose convention; X and Z gates
    act by pure phases (Z X Z^dag = omega X, X Z X^dag = omega^dag Z).
    """
    for t in g.targets:
        if not (0 <= t < x.shape[1]):
            raise ValueError(f"gate target {t} out of range for n={x.shape[1]}")
    k = g.kind
    if k in ONE_QUDIT_KINDS:
        t = g.targets[0]
        if k is GateKind.SHIFT_X:
            ph -= z[:, t]
        elif k is GateKind.SHIFT_X_DAG:
            ph += z[:, t]
        elif k is GateKind.CLOCK_Z:
            ph += x[:, t]
        elif k is GateKind.CLOCK_Z_DAG:
            ph -= x[:, t]
        elif k is GateKind.CONJ:
            x[:, t] = -x[:, t] % d
            z[:, t] = -z[:, t] % d
        elif k is GateKind.FOURIER:
            ph -= x[:, t] * z[:, t]
            xt = x[:, t].copy()
            x[:, t] = -z[:, t] % d
            z[:, t] = xt
        elif k is GateKind.FOURIER_DAG:
            ph -= x[:, t] * z[:, t]
            xt = x[:, t].copy()
            x[:, t] = z[:, t]
            z[:, t] = -xt % d
    else:
        c, t = g.targets
        if k is GateKind.CX:
            x[:, t] = (x[:, t] + x[:, c]) % d
            z[:, c] = (z[:, c] - z[:, t]) % d
        elif k is GateKind.CX_DAG:
            x[:, t] = (x[:, t] - x[:, c]) % d
            z[:, c] = (z[:, c] + z[:, t]) % d
        elif k is GateKind.CZ:
            ph += x[:, c] * x[:, t]
            z[:, c] = (z[:, c] + x[:, t]) % d
            z[:, t] = (z[:, t] + x[:, c]) % d
        elif k is GateKind.CZ_DAG:
            ph -= x[:, c] * x[:, t]
            z[:, c] = (z[:, c] - x[:, t]) % d
            z[:, t] = (z[:, t] - x[:, c]) % d
    ph %= d


def conjugate_by_gate(g: CliffordGate, w: WeylOp) -> WeylOp:
    """Exact Heisenberg image g w g^dagger, including the phase exponent."""
    return conjugate_through((g,), w)


def conjugate_through(gates, w: WeylOp) -> WeylOp:
    """U w U^dag for the full circuit U = g_m ... g_1 (conjugate by g_1 first)."""
    x, z, ph = w.x[None].copy(), w.z[None].copy(), np.array([w.phase], dtype=np.int64)
    for g in gates:
        conjugate_rows(g, x, z, ph, w.d)
    return WeylOp(w.d, x[0], z[0], int(ph[0]))
