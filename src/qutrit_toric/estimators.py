"""Plaquette projector estimation from shot records and from tableaus.

A snapshot records, per face, the projector triple (Pi^1, Pi^omega,
Pi^omega-bar), the complex stabilizer expectation, its argument in
degrees, and binomial standard errors when estimated from shots. Shot
estimates cover every face of a basis in one matrix product; the
general per-operator form the tests check it against,
`estimate_operator`, lives in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import TorusLattice
from .tableau import outcome_triple


@dataclass(frozen=True)
class PlaquetteSnapshot:
    kind: str
    pos: tuple[int, int]
    triple: tuple[float, float, float]
    expectation: complex
    arg_deg: float
    std_errors: tuple[float, float, float] = (0.0, 0.0, 0.0)
    n_shots: int = 0
    transformed: bool = False
    label: str | None = None

    @property
    def pi1(self) -> float:
        return self.triple[0]


def _snapshot_from_triple(kind, pos, triple, n_shots=0, transformed=False, label=None):
    d = len(triple)
    omega = np.exp(2j * np.pi / d)
    expectation = sum(triple[k] * omega**k for k in range(d))
    arg = float(np.degrees(np.angle(expectation))) % 360.0 if abs(expectation) > 1e-12 else 0.0
    ses = tuple(
        float(np.sqrt(p * (1 - p) / n_shots)) if n_shots else 0.0 for p in triple
    )
    return PlaquetteSnapshot(kind, pos, tuple(float(p) for p in triple),
                             complex(expectation), arg, ses, n_shots, transformed, label)


def snapshots_from_outcomes(outcomes, d: int, keys) -> list[PlaquetteSnapshot]:
    """Exact snapshots from tableau lookup outcomes; keys[f] = (kind, pos, transformed, label)."""
    return [_snapshot_from_triple(kind, pos, outcome_triple(int(det), d),
                                  transformed=transformed, label=label)
            for det, (kind, pos, transformed, label) in zip(outcomes, keys)]


def estimate_plaquette_projectors(values: np.ndarray, basis: str,
                                  lattice: TorusLattice) -> list[PlaquetteSnapshot]:
    """Per-plaquette projector estimates from (N, n) destructive measure-all outcomes.

    Shift-type (A) faces require shift-basis ('x') records; clock-type
    (B) faces require clock-basis ('z') records.
    """
    if basis not in ("x", "z"):
        raise ValueError("basis must be 'x' or 'z'")
    d, n = lattice.d, lattice.n_sites
    faces = [p for p in lattice.plaquettes if p.kind == ("A" if basis == "x" else "B")]
    ops = [p.operator(n, d) for p in faces]
    # (faces, 2, n) exponents; the measured X_i or Z_i carry no phase, so a face
    # is omega^phase * prod_i obs_i^M[i] when its other exponents vanish
    exps = np.array([(op.x, op.z) for op in ops], dtype=np.int64)
    M, off = (exps[:, 0], exps[:, 1]) if basis == "x" else (exps[:, 1], exps[:, 0])
    if off.any():
        site = np.nonzero(off)[1][0]
        raise ValueError(f"operator not diagonal in the measured basis at site {site}")
    total = len(values)
    if total == 0:
        raise ValueError("no retained shots")
    kappa = np.array([op.phase for op in ops], dtype=np.int64)
    sectors = (np.asarray(values, dtype=np.int64) @ M.T + kappa) % d
    return [_snapshot_from_triple(p.kind, p.pos, tuple(np.bincount(col, minlength=d) / total),
                                  n_shots=total) for p, col in zip(faces, sectors.T)]
