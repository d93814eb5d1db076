"""Rotated Z3 toric code geometry on an even-by-even torus.

Qutrits sit on the vertices of an Lx x Ly square lattice with periodic
boundary conditions. Faces are checkerboard-colored: a face whose
top-left corner is (x, y) is shift-type (A) when x + y is even and
clock-type (B) otherwise. Corner exponent conventions, fixed once here
and verified constructively at build time:

    A on (TL, TR, BL, BR) = (X, X, Xdag, Xdag)
    B on (TL, TR, BL, BR) = (Zdag, Z, Zdag, Z)

Anyons: a charge (e / ebar) is a violated A-face, a flux (m / mbar) a
violated B-face, with eigenvalue omega tagging e and m, omega-bar
tagging the conjugates.

Ground-state preparation walks a diagonal zigzag chain through all
A-faces, Fourier-transforming a fresh representative corner per face
and spreading it with CX / CXdag gates; the final face in the chain is
implied by the product constraint over all A-faces and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .weyl import (
    WeylOp,
    cx,
    cx_dag,
    fourier,
)

CORNER_NAMES = ("TL", "TR", "BL", "BR")
A_EXPONENTS = (1, 1, -1, -1)  # X, X, Xdag, Xdag
B_EXPONENTS = (-1, 1, -1, 1)  # Zdag, Z, Zdag, Z


@dataclass(frozen=True)
class Plaquette:
    kind: str  # "A" | "B"
    pos: tuple[int, int]  # top-left corner coordinates
    corners: tuple[int, int, int, int]  # site indices (TL, TR, BL, BR)

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        return A_EXPONENTS if self.kind == "A" else B_EXPONENTS

    def operator(self, n: int, d: int = 3) -> WeylOp:
        pairs = [(e, 0) if self.kind == "A" else (0, e) for e in self.exponents]
        return WeylOp.from_pattern(d, n, dict(zip(self.corners, pairs)))


class TorusLattice:
    """Site indexing and face bookkeeping for the rotated code."""

    def __init__(self, lx: int, ly: int):
        if lx < 2 or ly < 2 or lx % 2 or ly % 2:
            raise ValueError("torus dimensions must be even and at least 2")
        self.lx = lx
        self.ly = ly
        self.d = 3
        self.n_sites = lx * ly
        self.plaquettes: list[Plaquette] = []
        for y in range(ly):
            for x in range(lx):
                kind = "A" if (x + y) % 2 == 0 else "B"
                corners = (
                    self.site_index(x, y),
                    self.site_index(x + 1, y),
                    self.site_index(x, y + 1),
                    self.site_index(x + 1, y + 1),
                )
                self.plaquettes.append(Plaquette(kind, (x, y), corners))
        # (F, n) exponents of every face operator (phase 0); row f is plaquettes[f],
        # the face whose top-left corner is site f
        stack = np.zeros((2, len(self.plaquettes), self.n_sites), dtype=np.int64)
        for f, p in enumerate(self.plaquettes):
            stack[int(p.kind == "B"), f, list(p.corners)] = p.exponents
        self.face_x, self.face_z = stack % self.d
        self._check_construction()

    # -- indexing -----------------------------------------------------------

    def site_index(self, x: int, y: int) -> int:
        return (y % self.ly) * self.lx + (x % self.lx)

    def site_pos(self, index: int) -> tuple[int, int]:
        return index % self.lx, index // self.lx

    def plaquette_at(self, x: int, y: int) -> Plaquette:
        return self.plaquettes[self.site_index(x, y)]

    @property
    def a_plaquettes(self) -> list[Plaquette]:
        return [p for p in self.plaquettes if p.kind == "A"]

    def faces_of_site(self, x: int, y: int) -> list[Plaquette]:
        """The four faces containing vertex (x, y): NW, NE, SW, SE."""
        return [self.plaquette_at(x + dx, y + dy) for dy in (-1, 0) for dx in (-1, 0)]

    def _check_construction(self) -> None:
        x, z, d = self.face_x, self.face_z, self.d
        # the symplectic product of every face pair
        clashes = np.argwhere(np.triu((x @ z.T - z @ x.T) % d, 1))
        if len(clashes):
            raise AssertionError("faces {} and {} do not commute".format(*clashes[0]))
        for kind in ("A", "B"):
            rows = [p.kind == kind for p in self.plaquettes]
            if np.any(x[rows].sum(axis=0) % d) or np.any(z[rows].sum(axis=0) % d):
                raise AssertionError(f"product of all {kind}-faces is not the identity")

    # -- logical string operators -----------------------------------------------

    def logical_z_horizontal(self, row: int = 0) -> WeylOp:
        """Alternating Z / Zdag around a horizontal cycle (commutes with all faces)."""
        pattern = {self.site_index(x, row): (0, 1 - 2 * ((x + row) % 2)) for x in range(self.lx)}
        return WeylOp.from_pattern(self.d, self.n_sites, pattern)

    def logical_z_vertical(self, col: int = 0) -> WeylOp:
        """Uniform Z around a vertical cycle."""
        pattern = {self.site_index(col, y): (0, 1) for y in range(self.ly)}
        return WeylOp.from_pattern(self.d, self.n_sites, pattern)

    def logical_x_horizontal(self, row: int = 0) -> WeylOp:
        """Uniform X around a horizontal cycle."""
        pattern = {self.site_index(x, row): (1, 0) for x in range(self.lx)}
        return WeylOp.from_pattern(self.d, self.n_sites, pattern)

    def logical_x_vertical(self, col: int = 0) -> WeylOp:
        """Alternating X / Xdag around a vertical cycle."""
        pattern = {self.site_index(col, y): (1 - 2 * ((col + y) % 2), 0) for y in range(self.ly)}
        return WeylOp.from_pattern(self.d, self.n_sites, pattern)


# -- ground state preparation ----------------------------------------------------


def default_preparation_order(lattice: TorusLattice) -> list[tuple[tuple[int, int], str]]:
    """Diagonal zigzag chain over all A-faces; the last face is left implicit.

    Each face's representative corner is the one it shares with its chain
    successor, which no earlier gate can have touched.
    """
    chain: list[tuple[int, int]] = []
    for r in range(0, lattice.ly, 2):
        for x in range(lattice.lx):
            chain.append((x, r + (x % 2)))
    order: list[tuple[tuple[int, int], str]] = []
    for i in range(len(chain) - 1):
        (x, y), (nx, ny) = chain[i], chain[i + 1]
        corner = "BR" if ny == (y + 1) % lattice.ly else "TR"
        order.append(((x, y), corner))
    return order


def validate_preparation_order(lattice: TorusLattice,
                               order: list[tuple[tuple[int, int], str]]) -> None:
    seen_faces = set()
    touched: set[int] = set()
    for pos, corner in order:
        p = lattice.plaquette_at(*pos)
        if p.kind != "A":
            raise ValueError(f"face {pos} is not shift-type")
        if p.pos in seen_faces:
            raise ValueError(f"face {pos} listed twice")
        seen_faces.add(p.pos)
        rep = p.corners[CORNER_NAMES.index(corner)]
        if rep in touched:
            raise ValueError(
                f"representative {lattice.site_pos(rep)} of face {pos} was already touched"
            )
        touched.update(p.corners)
    n_a = len(lattice.a_plaquettes)
    if len(seen_faces) != n_a - 1:
        raise ValueError(f"ordering must cover exactly {n_a - 1} A-faces, got {len(seen_faces)}")


def ground_state_circuit(lattice: TorusLattice) -> Circuit:
    """Unitary preparation of the +1 logical sector ground state.

    Per face of the default order: Fourier on the representative corner,
    then CX (to X corners) or CXdag (to Xdag corners) from the
    representative, with the gate sense flipped when the representative
    itself carries Xdag.
    """
    order = default_preparation_order(lattice)
    validate_preparation_order(lattice, order)
    circ = Circuit(lattice.d, lattice.n_sites, 0)
    for pos, corner in order:
        p = lattice.plaquette_at(*pos)
        ci = CORNER_NAMES.index(corner)
        rep = p.corners[ci]
        e_rep = p.exponents[ci]
        circ.gate(fourier(rep))
        for k, site in enumerate(p.corners):
            if k == ci:
                continue
            sense = (p.exponents[k] * e_rep) % 3
            circ.gate(cx(rep, site) if sense == 1 else cx_dag(rep, site))
    return circ


# -- measurement circuits -----------------------------------------------------------


def measure_all_circuit(lattice: TorusLattice, basis: str) -> Circuit:
    """Destructive measure-all in the clock (z) or shift (x) basis.

    Classical register i holds site i's outcome exponent. A barrier
    precedes the measurements.
    """
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x'")
    n = lattice.n_sites
    circ = Circuit(lattice.d, n, n)
    circ.barrier()
    xe, ze = (0, 1) if basis == "z" else (1, 0)
    for i in range(n):
        circ.measure(WeylOp.from_site(lattice.d, n, i, xe, ze), i)
    return circ


def build_lattice(lx: int, ly: int) -> TorusLattice:
    return TorusLattice(lx, ly)
