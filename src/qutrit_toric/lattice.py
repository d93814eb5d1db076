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
    symplectic_product,
)

CORNER_NAMES = ("TL", "TR", "BL", "BR")
A_EXPONENTS = (1, 1, -1, -1)  # X, X, Xdag, Xdag
B_EXPONENTS = (-1, 1, -1, 1)  # Zdag, Z, Zdag, Z

# species -> (face kind, eigenvalue exponent of the violated face)
SPECIES_SIGNATURE = {"e": ("A", 1), "ebar": ("A", 2), "m": ("B", 1), "mbar": ("B", 2)}


@dataclass(frozen=True)
class Plaquette:
    kind: str  # "A" | "B"
    pos: tuple[int, int]  # top-left corner coordinates
    corners: tuple[int, int, int, int]  # site indices (TL, TR, BL, BR)

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        return A_EXPONENTS if self.kind == "A" else B_EXPONENTS

    def operator(self, n: int, d: int = 3) -> WeylOp:
        pattern = {}
        for site, e in zip(self.corners, self.exponents):
            if self.kind == "A":
                pattern[site] = (e, 0)
            else:
                pattern[site] = (0, e)
        return WeylOp.from_pattern(d, n, pattern)


class TorusLattice:
    """Site indexing and face bookkeeping for the rotated code."""

    def __init__(self, lx: int, ly: int, d: int = 3):
        if lx < 2 or ly < 2 or lx % 2 or ly % 2:
            raise ValueError("torus dimensions must be even and at least 2")
        self.lx = lx
        self.ly = ly
        self.d = d
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
        self._by_pos = {p.pos: p for p in self.plaquettes}
        self._check_construction()

    # -- indexing -----------------------------------------------------------

    def site_index(self, x: int, y: int) -> int:
        return (y % self.ly) * self.lx + (x % self.lx)

    def site_pos(self, index: int) -> tuple[int, int]:
        return index % self.lx, index // self.lx

    def plaquette_at(self, x: int, y: int) -> Plaquette:
        return self._by_pos[(x % self.lx, y % self.ly)]

    @property
    def a_plaquettes(self) -> list[Plaquette]:
        return [p for p in self.plaquettes if p.kind == "A"]

    @property
    def b_plaquettes(self) -> list[Plaquette]:
        return [p for p in self.plaquettes if p.kind == "B"]

    def faces_of_site(self, x: int, y: int) -> list[Plaquette]:
        """The four faces containing vertex (x, y): NW, NE, SW, SE."""
        return [
            self.plaquette_at(x - 1, y - 1),
            self.plaquette_at(x, y - 1),
            self.plaquette_at(x - 1, y),
            self.plaquette_at(x, y),
        ]

    def _check_construction(self) -> None:
        n, d = self.n_sites, self.d
        ops = [p.operator(n, d) for p in self.plaquettes]
        x = np.array([op.x for op in ops])
        z = np.array([op.z for op in ops])
        form = (x @ z.T - z @ x.T) % d  # symplectic product of every face pair
        clashes = np.argwhere(np.triu(form, 1))
        if len(clashes):
            i, j = clashes[0]
            raise AssertionError(f"faces {i} and {j} do not commute")
        for kind in ("A", "B"):
            rows = [p.kind == kind for p in self.plaquettes]
            if np.any(x[rows].sum(axis=0) % d) or np.any(z[rows].sum(axis=0) % d):
                raise AssertionError(f"product of all {kind}-faces is not the identity")

    # -- logical string operators -----------------------------------------------

    def logical_z_horizontal(self, row: int = 0) -> WeylOp:
        """Alternating Z / Zdag around a horizontal cycle (commutes with all faces)."""
        pattern = {}
        for x in range(self.lx):
            e = 1 if (x + row) % 2 == 0 else -1
            pattern[self.site_index(x, row)] = (0, e)
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
        pattern = {}
        for y in range(self.ly):
            e = 1 if (col + y) % 2 == 0 else -1
            pattern[self.site_index(col, y)] = (e, 0)
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


def implicit_plaquette(lattice: TorusLattice) -> Plaquette:
    """The A-face the default preparation order leaves implicit."""
    listed = {pos for pos, _ in default_preparation_order(lattice)}
    for p in lattice.a_plaquettes:
        if p.pos not in listed:
            return p
    raise ValueError("ordering covers every A-face; none left implicit")


# -- anyon strings -----------------------------------------------------------------


@dataclass(frozen=True)
class AnyonString:
    species: str
    path: tuple[tuple[int, int], ...]
    operator: WeylOp
    head: tuple[int, int]  # face position carrying `species`
    tail: tuple[int, int]  # face position carrying the conjugate species


def _diagonal_faces(lattice: TorusLattice, path: list[tuple[int, int]]) -> str:
    """Face kind shared by consecutive diagonal sites; validates the walk."""
    kinds = set()
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        dx = (x1 - x0) % lattice.lx
        dy = (y1 - y0) % lattice.ly
        if dx not in (1, lattice.lx - 1) or dy not in (1, lattice.ly - 1):
            raise ValueError(f"path step {(x0, y0)} -> {(x1, y1)} is not diagonal")
        fx = x0 if dx == 1 else x1
        fy = y0 if dy == 1 else y1
        kinds.add(lattice.plaquette_at(fx, fy).kind)
    if len(kinds) > 1:
        raise AssertionError("diagonal walk mixes face types")  # parity forbids this
    if not kinds:
        # single site: both same-type faces work; species decides the type
        return ""
    return kinds.pop()


def string_excitations(lattice: TorusLattice, op: WeylOp) -> dict[tuple[int, int], int]:
    """Map face position -> eigenvalue exponent the operator imprints on it."""
    out = {}
    for p in lattice.plaquettes:
        s = symplectic_product(op, p.operator(lattice.n_sites, lattice.d))
        if s:
            out[p.pos] = s
    return out


def anyon_string(lattice: TorusLattice, species: str,
                 path: list[tuple[int, int]]) -> AnyonString:
    """Uniform-exponent diagonal string creating `species` at the head face.

    Charges are Z-strings along A-face diagonals, fluxes X-strings along
    B-face diagonals; the two end faces carry the species and its
    conjugate. A closed loop yields no excitations.
    """
    if species not in SPECIES_SIGNATURE:
        raise ValueError(f"unknown species {species}")
    kind, want = SPECIES_SIGNATURE[species]
    if not path:
        raise ValueError("empty path")
    shared = _diagonal_faces(lattice, path)
    if shared and shared != kind:
        raise ValueError(
            f"{species} strings need {kind}-face diagonals, path runs along {shared}-faces"
        )
    is_charge = kind == "A"
    closed = len(path) > 1 and path[0] == path[-1]
    sites = path[:-1] if closed else path
    for a in (1, 2):
        pattern = {
            lattice.site_index(x, y): ((0, a) if is_charge else (a, 0)) for x, y in sites
        }
        op = WeylOp.from_pattern(lattice.d, lattice.n_sites, pattern)
        exc = string_excitations(lattice, op)
        if closed:
            if exc:
                raise AssertionError("closed diagonal loop should not excite anything")
            return AnyonString(species, tuple(path), op, path[0], path[0])
        if len(exc) != 2:
            raise ValueError(f"path does not create a clean pair (excites {len(exc)} faces)")
        (f1, v1), (f2, v2) = sorted(exc.items())
        if v1 == want and v2 == (-want) % 3:
            head, tail = f1, f2
        elif v2 == want and v1 == (-want) % 3:
            head, tail = f2, f1
        else:
            continue
        # orient: the head face should touch the last path site
        last_faces = {p.pos for p in lattice.faces_of_site(*path[-1])}
        if head not in last_faces and tail in last_faces:
            head, tail = tail, head
            if exc[head] != want:
                continue
        return AnyonString(species, tuple(path), op, head, tail)
    raise ValueError(f"no uniform exponent realizes {species} on this path")


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
    for i in range(n):
        obs = WeylOp.from_site(lattice.d, n, i, 0 if basis == "z" else 1,
                               1 if basis == "z" else 0)
        circ.measure(obs, i)
    return circ


def build_lattice(lx: int, ly: int) -> TorusLattice:
    return TorusLattice(lx, ly)
