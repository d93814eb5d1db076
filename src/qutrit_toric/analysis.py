"""Post-processing: fidelity bounds, readout-error mitigation, energy.

Fidelity bound: when the target projector factors as commuting P and Q,
measured values bound the fidelity by

    max(0, Tr[rho P] + Tr[rho Q] - 1)  <=  F  <=  min(Tr[rho P], Tr[rho Q]),

with per-site bounds given by n-th roots. Readout errors are undone by
applying the inverted per-qubit confusion matrix as a tensor product to
the empirical distribution of the encoder's (N, n) pair indices, read
as bits; this is exact for product confusion models.
Mitigated quasi-probabilities may be slightly negative and are reported
unclipped (the downstream estimators are linear, so clipping would bias
them).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .encoder import DECODE_INDEX, NC_INDEX, READOUT_P01, READOUT_P10


@dataclass(frozen=True)
class ConfusionMatrix:
    """p01 = P(read 0 | qubit is 1), p10 = P(read 1 | qubit is 0)."""

    p01: float = READOUT_P01
    p10: float = READOUT_P10

    def __post_init__(self):
        if not (0 <= self.p01 < 0.5 and 0 <= self.p10 < 0.5):
            raise ValueError("confusion rates must lie in [0, 0.5)")

    @property
    def inverse(self) -> np.ndarray:
        det = 1.0 - self.p01 - self.p10
        if det <= 0:
            raise ValueError("confusion matrix is singular")
        return np.array(
            [[1 - self.p01, -self.p01], [-self.p10, 1 - self.p10]], dtype=float
        ) / det


@dataclass(frozen=True)
class FidelityBound:
    tr_p: float
    tr_q: float
    lower: float
    upper: float
    per_site_lower: float
    per_site_upper: float
    n_sites: int
    lower_se: float = 0.0
    upper_se: float = 0.0
    inputs_clamped: bool = False

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "inputs_clamped"}


def fidelity_bounds(tr_p: float, tr_q: float, n_sites: int,
                    se_p: float = 0.0, se_q: float = 0.0) -> FidelityBound:
    """Two-projector sandwich bound with per-site roots.

    Inputs slightly outside [0,1] (possible after mitigation) are
    clamped and flagged. Standard errors propagate in quadrature for
    the lower bound and follow the binding argument for the upper.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    clamped = not (0 <= tr_p <= 1 and 0 <= tr_q <= 1)
    p = min(max(tr_p, 0.0), 1.0)
    q = min(max(tr_q, 0.0), 1.0)
    lower = max(0.0, p + q - 1.0)
    upper = min(p, q)
    per_lower = lower ** (1.0 / n_sites) if lower > 0 else 0.0
    per_upper = upper ** (1.0 / n_sites) if upper > 0 else 0.0
    lower_se = float(np.hypot(se_p, se_q)) if lower > 0 else 0.0
    upper_se = se_p if p <= q else se_q
    return FidelityBound(tr_p, tr_q, lower, upper, per_lower, per_upper,
                         n_sites, lower_se, upper_se, clamped)


def topological_qutrit_bounds(stab_x_triple, stab_z_triple, outcome: int) -> FidelityBound:
    """Bound for the entangled defect-pair state given the ancilla outcome.

    P projects onto the omega^outcome sector of the charge-braid loop,
    Q onto the +1 sector of the joint neutrality loop.
    """
    if not (0 <= outcome < len(stab_x_triple)):
        raise ValueError(f"invalid ancilla outcome {outcome}")
    return fidelity_bounds(stab_x_triple[outcome], stab_z_triple[0], 1)


# -- readout mitigation ----------------------------------------------------------


MAX_MITIGATION_WIDTH = 16


def _per_bit(dense: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Apply the 2x2 matrix m along every axis of a (2,) * width array."""
    if dense.ndim > MAX_MITIGATION_WIDTH:
        raise ValueError(
            f"direct inversion is capped at {MAX_MITIGATION_WIDTH} bits; "
            "mitigate per-plaquette marginals instead"
        )
    # each step contracts the leading axis and appends the result last,
    # so after width steps the axes are back in their original order
    for _ in range(dense.ndim):
        dense = np.tensordot(dense, m, axes=(0, 1))
    return dense


def mitigated_plaquette_triple(pairs: np.ndarray,
                               corner_sites: tuple[int, ...],
                               exponents: tuple[int, ...],
                               kind: str,
                               cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Projector triple of one face from retained (N, n) pair indices with mitigation.

    Each pair index 2*hi + lo is two bit axes (hi, lo). Marginalizing to
    the face's 2k bits commutes with the product channel inversion, so
    correcting the marginal is exact. Pair combinations holding the
    herald state carry no sector and their (possibly negative) weight is
    excluded before renormalizing.
    """
    k = len(corner_sites)
    face = np.asarray(pairs)[:, list(corner_sites)]
    counts = np.bincount(np.ravel_multi_index(tuple(face.T), (4,) * k), minlength=4**k)
    weights = _per_bit(counts.reshape((2,) * (2 * k)).astype(float), cm.inverse).ravel()
    combos = np.indices((4,) * k).reshape(k, -1)  # pair indices of each flat entry
    kept = (combos != NC_INDEX).all(axis=0)
    sector = (np.asarray(exponents) @ DECODE_INDEX[combos]) % 3
    sectors = np.bincount(sector[kept], weights=weights[kept], minlength=3)
    total = sectors.sum()
    if total <= 0:
        raise ValueError("no decodable weight after mitigation")
    return tuple(float(v) for v in sectors / total)


# -- aggregate statistics -----------------------------------------------------------


def energy_density(snapshots: list[dict],
                   expected_plaquettes: int | None = None) -> float:
    """Mean negated +1-sector weight over all faces; lies in [-1, 0]."""
    if not snapshots:
        raise ValueError("no snapshots")
    if expected_plaquettes is not None and len(snapshots) != expected_plaquettes:
        raise ValueError(
            f"expected {expected_plaquettes} plaquettes, got {len(snapshots)}"
        )
    return -float(np.mean([s["pi1"] for s in snapshots]))
