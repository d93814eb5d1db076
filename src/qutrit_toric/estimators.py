"""Plaquette projector estimation from shot records and from tableaus.

A face reading is its result-document entry: a dict holding the face's
kind and position, the projector triple (Pi^1, Pi^omega, Pi^omega-bar)
as `pi1`, `pi_omega` and `pi_omegabar`, the complex stabilizer
expectation as `expectation_re` and `expectation_im`, its argument in
degrees, and the binomial standard errors (from `standard_errors` when
estimated from shots, zeros when exact). Shot estimates cover every
face of a basis in one matrix product, and both paths build all their
entries from (F, 3) arrays in one pass (`_entries`). The per-operator
estimate and the per-face entry the tests check these against,
`estimate_operator` and `snapshot_from_triple`, live in `tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from .lattice import TorusLattice


def standard_errors(counts) -> list:
    """Binomial standard errors per sector, along the last axis.

    counts: sector counts of one estimator (total N = sum), or a stack of them.
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.sum(axis=-1, keepdims=True)
    if np.any(n == 0):
        raise ValueError("no shots")
    p = counts / n
    ses = np.sqrt(p * (1 - p) / n)
    return ses.tolist()


def _entries(keys, triples: np.ndarray, std_errors, n_shots: int) -> list[dict]:
    """Document entries of F d = 3 face readings: keys[f] = (kind, pos, transformed,
    label), triples the (F, 3) projector triples, std_errors their (F, 3) rows."""
    w = [np.exp(2j * np.pi / 3) ** k for k in range(3)]
    # the scalar formula's sum, term by term in its order, so the floats agree bitwise
    expectation = 0 + triples[:, 0] * w[0] + triples[:, 1] * w[1] + triples[:, 2] * w[2]
    arg = np.where(abs(expectation) > 1e-12, np.degrees(np.angle(expectation)) % 360.0, 0.0)
    return [{"kind": kind, "pos": list(pos), "pi1": t[0], "pi_omega": t[1], "pi_omegabar": t[2],
             "expectation_re": e.real, "expectation_im": e.imag, "arg_deg": a,
             "std_errors": se, "n_shots": n_shots, "transformed": transformed, "label": label}
            for (kind, pos, transformed, label), t, e, a, se
            in zip(keys, triples.tolist(), expectation.tolist(), arg.tolist(), std_errors)]


def snapshots_from_outcomes(outcomes, keys) -> list[dict]:
    """Exact d = 3 face entries from tableau lookups; keys[f] = (kind, pos, transformed, label)."""
    # row s is outcome_triple(s, 3): one-hot for s = 0, 1, 2, uniform for -1 (the last row)
    triples = np.concatenate([np.eye(3), np.full((1, 3), 1.0 / 3)])
    outcomes = np.asarray(outcomes, dtype=np.int64)
    return _entries(keys, triples[outcomes], np.zeros((len(outcomes), 3)).tolist(), 0)


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
    # uint8 holds every sum: a face sums 4 corner terms, each at most 2 * 2, so at most 16
    sectors = np.asarray(values, dtype=np.uint8) @ M.T.astype(np.uint8) % d
    counts = np.stack([(sectors == s).sum(axis=0) for s in range(d)], axis=1)
    return _entries([(p.kind, p.pos, False, None) for p in faces], counts / total,
                    standard_errors(counts), total)
