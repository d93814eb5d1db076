"""Plaquette projector estimation from shot records and from tableaus.

A face reading is its result-document entry: a dict holding the face's
kind and position, the projector triple (Pi^1, Pi^omega, Pi^omega-bar)
as `pi1`, `pi_omega` and `pi_omegabar`, the complex stabilizer
expectation as `expectation_re` and `expectation_im`, its argument in
degrees, and the binomial standard errors (from `standard_errors` when
estimated from shots, zeros when exact). Shot estimates cover every
face of a basis in one matrix product; the general per-operator form
the tests check it against, `estimate_operator`, lives in
`tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from .lattice import TorusLattice


def standard_errors(counts) -> tuple[list[float], float]:
    """Binomial standard errors per sector plus the maximum.

    counts: sector counts of one estimator (total N = sum).
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    if n == 0:
        raise ValueError("no shots")
    p = counts / n
    ses = np.sqrt(p * (1 - p) / n)
    return [float(s) for s in ses], float(ses.max())


def _snapshot_from_triple(kind, pos, triple, std_errors=(0.0, 0.0, 0.0), n_shots=0) -> dict:
    """The document entry of one d = 3 face reading."""
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


def snapshots_from_outcomes(outcomes, keys) -> list[dict]:
    """Exact d = 3 face entries from tableau lookups; keys[f] = (kind, pos, transformed, label)."""
    # row s is outcome_triple(s, 3): one-hot for s = 0, 1, 2, uniform for -1 (the last row)
    triples = np.concatenate([np.eye(3), np.full((1, 3), 1.0 / 3)])
    outcomes = np.asarray(outcomes, dtype=np.int64).tolist()
    # an entry's numbers depend on its outcome alone: work them out once per outcome
    numbers = {s: _snapshot_from_triple(None, (), triples[s]) for s in set(outcomes)}
    return [{**numbers[s], "kind": kind, "pos": list(pos), "std_errors": [0.0] * 3,
             "transformed": transformed, "label": label}
            for s, (kind, pos, transformed, label) in zip(outcomes, keys)]


def estimate_plaquette_projectors(values: np.ndarray, basis: str,
                                  lattice: TorusLattice) -> list[dict]:
    """Per-plaquette projector estimates from (N, n) destructive measure-all outcomes.

    Shift-type (A) faces require shift-basis ('x') records; clock-type
    (B) faces require clock-basis ('z') records.
    """
    if basis not in ("x", "z"):
        raise ValueError("basis must be 'x' or 'z'")
    d = lattice.d
    rows = [p.kind == ("A" if basis == "x" else "B") for p in lattice.plaquettes]
    faces = [p for p, row in zip(lattice.plaquettes, rows) if row]
    # the lattice's face rows carry no phase and the measured X_i or Z_i none either,
    # so a face is prod_i obs_i^M[i] when its other exponents vanish
    M, off = (lattice.face_x, lattice.face_z) if basis == "x" else (lattice.face_z, lattice.face_x)
    M, off = M[rows], off[rows]
    if off.any():
        site = np.nonzero(off)[1][0]
        raise ValueError(f"operator not diagonal in the measured basis at site {site}")
    total = len(values)
    if total == 0:
        raise ValueError("no retained shots")
    sectors = (np.asarray(values, dtype=np.int64) @ M.T) % d + d * np.arange(len(faces))
    # one bincount over face * d + sector: (faces, d) integer counts
    counts = np.bincount(sectors.ravel(), minlength=d * len(faces)).reshape(len(faces), d)
    return [_snapshot_from_triple(p.kind, p.pos, tuple(c / total), standard_errors(c)[0],
                                  n_shots=total) for p, c in zip(faces, counts)]
