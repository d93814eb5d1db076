"""Parafermion and charge-conjugation defect constructions.

Parafermion defects: measuring the XZ (or XZdag) eigenbasis on one
vertex fuses the four adjacent faces pairwise into weight-5 endpoint
stabilizers plus a nonlocal stabilizer spanning both ends. The
feed-forward correction that pins all of them to +1 is solved as a
Weyl operator from linear commutation constraints, then applied as an
outcome-conditioned gate block.

Charge-conjugation defects: a unitary ribbon built from a sequential
CX chain along the diagonal s-sites (the one-dimensional gauging map),
per-step controlled shifts onto the sigma-sites followed by the
charge-conjugation gate there, and the inverted chain. The circuit
squares to the identity. Transformed stabilizers are always derived by
Heisenberg propagation of the plain faces through the actual gate
list; the two images whose support outgrows a single face are the
defect-pair endpoints (one shift-type, one clock-type) and read the
pair's internal state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .lattice import Plaquette, TorusLattice
from .modmath import mod_inverse, solve
from .weyl import (
    CliffordGate,
    WeylOp,
    clock_z,
    compose,
    conj_c,
    conjugate_rows,
    cx,
    cx_dag,
    shift_x,
    symplectic_product,
)


@dataclass(frozen=True)
class DefectSpec:
    """What a defect does to the observable frame.

    transformed: face position -> operator that replaces the plain face.
    stabilizers: name -> (operator, position it is reported at). A face
    whose image is one of these is read under that name only.
    """

    kind: str  # "PF" | "PFstar" | "CC"
    transformed: dict[tuple[int, int], WeylOp]
    stabilizers: dict[str, tuple[WeylOp, tuple[int, int]]]
    ribbon: "CCRibbon | None" = None


def solve_weyl_op(lattice: TorusLattice, support, x, z, rhs) -> WeylOp | None:
    """Weyl operator F on the given support with prescribed commutation.

    x, z: (K, n) exponent stacks of the constraint operators; rhs: K
    exponents. Applying F shifts row k's eigenvalue exponent by exactly
    rhs[k] = sp(F, op_k); 0 keeps it.
    """
    d, n = lattice.d, lattice.n_sites
    sites = [lattice.site_index(*q) if isinstance(q, tuple) else int(q) for q in support]
    # sp(F, op) = sum_site F.x op.z - F.z op.x; columns alternate F.x[site], F.z[site]
    rows = np.stack([z[:, sites], -x[:, sites]], axis=2)
    sol = solve(rows.reshape(len(x), -1), rhs, d)
    if sol is None:
        return None
    # a site listed twice has two columns; F is the product, so the exponents add
    fx, fz = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    np.add.at(fx, sites, sol[0::2])
    np.add.at(fz, sites, sol[1::2])
    return WeylOp(d, fx, fz)


def weyl_gates(op: WeylOp) -> list[CliffordGate]:
    """Gate sequence realizing op up to a global phase: X^x then Z^z on each site."""
    return [g for site in op.support
            for g in [shift_x(site)] * int(op.x[site]) + [clock_z(site)] * int(op.z[site])]


# -- parafermion defects -------------------------------------------------------


PF_BASIS = {"PF": 1, "PFstar": -1}  # z-exponent of the measured X Z^(+-1)


def _fused_pair(lattice: TorusLattice, W: WeylOp, P: Plaquette,
                Q: Plaquette) -> tuple[WeylOp, int]:
    """Product P Q^b W^-m commuting with W and supported off W's site, and m.

    The product lies in the pre-measurement stabilizer group times a
    power of the measured operator, so its ideal post-correction value
    is exactly +1.
    """
    n, d = lattice.n_sites, lattice.d
    op_p, op_q = P.operator(n, d), Q.operator(n, d)
    sq = symplectic_product(W, op_q)
    b = (-symplectic_product(W, op_p) * mod_inverse(sq, d)) % d
    raw = compose(op_p, op_q.power(b))
    site = W.support[0]
    m = int(raw.x[site]) * mod_inverse(int(W.x[site]), d) % d  # the one power clearing site's X
    cand = compose(raw, W.power(-m))
    if cand.z[site]:
        raise AssertionError("no W power cancels the measured-site support")
    return cand, m


def pf_defect_circuit(lattice: TorusLattice, site: tuple[int, int],
                      species: str) -> tuple[Circuit, DefectSpec]:
    """Measurement + feed-forward fragment creating a parafermion defect pair.

    The endpoint stabilizers are the two vertical face fusions flanking
    the measured vertex; the nonlocal stabilizer is the horizontal
    fusion across it. All three read +1 deterministically after the
    conditioned correction.
    """
    if species not in PF_BASIS:
        raise ValueError(f"species must be PF or PFstar, got {species}")
    x, y = site
    n, d = lattice.n_sites, lattice.d
    s = lattice.site_index(x, y)
    W = WeylOp.from_site(d, n, s, 1, PF_BASIS[species])
    nw, ne, sw, se = lattice.faces_of_site(x, y)
    e_west, m_west = _fused_pair(lattice, W, nw, sw)
    e_east, m_east = _fused_pair(lattice, W, ne, se)
    nonlocal_op, m_nonlocal = _fused_pair(lattice, W, nw, ne)

    # measuring outcome t leaves each fused operator at omega^{-m t} where m is
    # the W power stripped from it; the correction F^t must undo all of that
    # while commuting with every untouched face and the Z-type logicals.
    untouched = [p not in (nw, ne, sw, se) for p in lattice.plaquettes]
    ops = [lattice.logical_z_horizontal(r) for r in range(lattice.ly)]
    ops += [lattice.logical_z_vertical(c) for c in range(lattice.lx)]
    ops += [W, e_west, e_east, nonlocal_op]
    xs = np.concatenate([lattice.face_x[untouched], [op.x for op in ops]])
    zs = np.concatenate([lattice.face_z[untouched], [op.z for op in ops]])
    rhs = [0] * (len(xs) - 4) + [-1, m_west, m_east, m_nonlocal]
    block = [(x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    f1 = solve_weyl_op(lattice, block, xs, zs, rhs)
    if f1 is None:
        raise AssertionError("no feed-forward correction exists; geometry invalid")

    circ = Circuit(d, n, 1)
    circ.measure(W, 0)
    circ.cond(0, {t: tuple(weyl_gates(f1.power(t))) for t in range(d)})
    spec = DefectSpec(
        kind=species,
        transformed={nw.pos: e_west, sw.pos: e_west, ne.pos: e_east, se.pos: e_east},
        stabilizers={name: (op, site) for name, op in (
            ("west", e_west), ("east", e_east), ("nonlocal", nonlocal_op), ("measured", W))},
    )
    return circ, spec


# -- charge conjugation defects ----------------------------------------------------


@dataclass(frozen=True)
class CCRibbon:
    """Ribbon data: diagonal s-chain plus per-step (s, sigma, eta) actions."""

    schain: tuple[tuple[int, int], ...]
    steps: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]

    @classmethod
    def canonical(cls, lattice: TorusLattice, start: tuple[int, int], length: int) -> "CCRibbon":
        """Down-right diagonal chain; each sigma one site east, eta = +1."""
        chain = []
        x, y = start
        for _ in range(length):
            chain.append((x % lattice.lx, y % lattice.ly))
            x, y = x + 1, y + 1
        steps = tuple((s, ((s[0] + 1) % lattice.lx, s[1]), 1) for s in chain)
        return cls(tuple(chain), steps)


def cc_ribbon_gates(lattice: TorusLattice, ribbon: CCRibbon) -> list[CliffordGate]:
    si = lattice.site_index
    gates: list[CliffordGate] = []
    for a, b in zip(ribbon.schain, ribbon.schain[1:]):
        gates.append(cx(si(*a), si(*b)))
    for s_pos, sigma, eta in ribbon.steps:
        if sigma in ribbon.schain:
            raise ValueError("sigma sites must be disjoint from the s-chain")
        g = cx(si(*s_pos), si(*sigma)) if eta == 1 else cx_dag(si(*s_pos), si(*sigma))
        gates.append(g)
        gates.append(conj_c(si(*sigma)))
    for a, b in reversed(list(zip(ribbon.schain, ribbon.schain[1:]))):
        gates.append(cx_dag(si(*a), si(*b)))
    return gates


def cc_defect_circuit(lattice: TorusLattice, ribbon: CCRibbon) -> tuple[Circuit, DefectSpec]:
    """Unitary-only fragment inserting a charge-conjugation defect pair.

    The deformed faces whose image outgrows a single face are the pair's
    nonlocal endpoints, named `A-end` and `B-end` at their faces. Raises
    when the ribbon does not produce exactly one shift-type and one
    clock-type endpoint (malformed geometry).
    """
    n, d = lattice.n_sites, lattice.d
    gates = cc_ribbon_gates(lattice, ribbon)
    x, z = lattice.face_x.copy(), lattice.face_z.copy()
    ph = np.zeros(len(x), dtype=np.int64)
    for g in gates:  # every face through the ribbon at once
        conjugate_rows(g, x, z, ph, d)
    moved = np.flatnonzero(np.hstack([x - lattice.face_x, z - lattice.face_z, ph[:, None]]).any(1))
    transformed: dict[tuple[int, int], WeylOp] = {}
    ends: list[tuple[str, tuple[WeylOp, tuple[int, int]]]] = []
    for f in moved:
        p, img = lattice.plaquettes[f], WeylOp(d, x[f], z[f], ph[f])
        transformed[p.pos] = img
        if len(img.support) > 4:
            ends.append((f"{p.kind}-end", (img, p.pos)))
    kinds = sorted(name[0] for name, _ in ends)
    if kinds != ["A", "B"]:
        raise ValueError(
            f"malformed ribbon: expected one shift-type and one clock-type endpoint, got {kinds}")
    return Circuit(d, n, 0).gates(gates), DefectSpec("CC", transformed, dict(ends), ribbon)


def fuse_cc_pair(lattice: TorusLattice, spec: DefectSpec) -> Circuit:
    """Re-apply the ribbon unitary; reveals any non-vacuum internal state."""
    if spec.ribbon is None:
        raise ValueError("fuse_cc_pair needs a CC defect spec")
    return Circuit(lattice.d, lattice.n_sites, 0).gates(cc_ribbon_gates(lattice, spec.ribbon))
