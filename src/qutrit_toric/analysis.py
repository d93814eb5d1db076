"""Post-processing: fidelity bounds, readout-error mitigation, energy.

Fidelity bound: when the target projector factors as commuting P and Q,
measured values bound the fidelity by

    max(0, Tr[rho P] + Tr[rho Q] - 1)  <=  F  <=  min(Tr[rho P], Tr[rho Q]),

with per-site bounds given by n-th roots. Readout errors are undone by
applying the inverted per-qubit confusion matrix as a tensor product to
the empirical distribution; this is exact for product confusion models.
Mitigated quasi-probabilities may be slightly negative and are reported
unclipped (the downstream estimators are linear, so clipping would bias
them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import PlaquetteSnapshot


@dataclass(frozen=True)
class ConfusionMatrix:
    """p01 = P(read 0 | qubit is 1), p10 = P(read 1 | qubit is 0)."""

    p01: float = 2.37e-3
    p10: float = 0.82e-3

    def __post_init__(self):
        if not (0 <= self.p01 < 0.5 and 0 <= self.p10 < 0.5):
            raise ValueError("confusion rates must lie in [0, 0.5)")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[1 - self.p10, self.p01], [self.p10, 1 - self.p01]], dtype=float
        )

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
        return {
            "tr_p": self.tr_p,
            "tr_q": self.tr_q,
            "lower": self.lower,
            "upper": self.upper,
            "per_site_lower": self.per_site_lower,
            "per_site_upper": self.per_site_upper,
            "n_sites": self.n_sites,
            "lower_se": self.lower_se,
            "upper_se": self.upper_se,
        }


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


def topological_qutrit_bounds(stab_x_triple, stab_z_triple, outcome: int,
                              se_x=None, se_z=None) -> FidelityBound:
    """Bound for the entangled defect-pair state given the ancilla outcome.

    P projects onto the omega^outcome sector of the charge-braid loop,
    Q onto the +1 sector of the joint neutrality loop.
    """
    if not (0 <= outcome < len(stab_x_triple)):
        raise ValueError(f"invalid ancilla outcome {outcome}")
    se_p = se_x[outcome] if se_x is not None else 0.0
    se_q = se_z[0] if se_z is not None else 0.0
    return fidelity_bounds(stab_x_triple[outcome], stab_z_triple[0], 1, se_p, se_q)


# -- readout mitigation ----------------------------------------------------------


MAX_MITIGATION_WIDTH = 16


def spam_mitigate(distribution: dict[tuple[int, ...], float] | dict[str, float],
                  cm: ConfusionMatrix) -> tuple[dict[tuple[int, ...], float], bool]:
    """Apply the tensor-product inverse confusion matrix to a distribution.

    Keys are bit tuples (or '01' strings) of a fixed width. Returns the
    corrected quasi-distribution and a flag marking negative entries.
    """
    items = []
    width = None
    for key, prob in distribution.items():
        bits = tuple(int(b) for b in key)
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValueError("all strings must share a width")
        items.append((bits, float(prob)))
    if width is None:
        return {}, False
    if width > MAX_MITIGATION_WIDTH:
        raise ValueError(
            f"direct inversion is capped at {MAX_MITIGATION_WIDTH} bits; "
            "mitigate per-plaquette marginals instead"
        )
    corrected = _product_channel(items, cm.inverse)
    return corrected, any(v < 0 for v in corrected.values())


def forward_noise(distribution: dict[tuple[int, ...], float],
                  cm: ConfusionMatrix) -> dict[tuple[int, ...], float]:
    """Push an exact distribution through the confusion channel (test helper)."""
    items = [(tuple(int(b) for b in k), float(p)) for k, p in distribution.items()]
    return _product_channel(items, cm.matrix)


def _product_channel(items, m: np.ndarray) -> dict[tuple[int, ...], float]:
    """sum of prob * (m[:, b_1] x ... x m[:, b_w]) over (bits, prob) items; nonzero entries."""
    out = np.zeros((2,) * len(items[0][0]), dtype=float)
    for bits, prob in items:
        kron = m[:, bits[0]]
        for b in bits[1:]:
            kron = np.multiply.outer(kron, m[:, b])
        out += prob * kron
    return {idx: float(out[idx]) for idx in np.ndindex(out.shape) if out[idx] != 0.0}


def mitigated_plaquette_triple(bits: np.ndarray,
                               corner_sites: tuple[int, ...],
                               exponents: tuple[int, ...],
                               kind: str,
                               cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Projector triple of one face from retained (N, 2n) qubit bits with mitigation.

    Marginalizing to the face's eight bits commutes with the product
    channel inversion, so correcting the marginal is exact. Strings
    decoding to the herald state carry no sector and their (possibly
    negative) weight is excluded before renormalizing.
    """
    from .encoder import DECODE_BITS

    bits = np.asarray(bits)
    columns = [b for s in corner_sites for b in (2 * s, 2 * s + 1)]
    strings, counts = np.unique(bits[:, columns], axis=0, return_counts=True)
    n = len(bits)
    marginal = {tuple(k): c / n for k, c in zip(strings.tolist(), counts.tolist())}
    corrected, _ = spam_mitigate(marginal, cm)
    sectors = np.zeros(3)
    for string, weight in corrected.items():
        pairs = [tuple(string[2 * i:2 * i + 2]) for i in range(len(corner_sites))]
        if any(p not in DECODE_BITS for p in pairs):
            continue
        values = [DECODE_BITS[p] for p in pairs]
        sector = sum(e * v for e, v in zip(exponents, values)) % 3
        sectors[sector] += weight
    total = sectors.sum()
    if total <= 0:
        raise ValueError("no decodable weight after mitigation")
    return tuple(float(v) for v in sectors / total)


# -- aggregate statistics -----------------------------------------------------------


def energy_density(snapshots: list[PlaquetteSnapshot],
                   expected_plaquettes: int | None = None) -> float:
    """Mean negated +1-sector weight over all faces; lies in [-1, 0]."""
    if not snapshots:
        raise ValueError("no snapshots")
    if expected_plaquettes is not None and len(snapshots) != expected_plaquettes:
        raise ValueError(
            f"expected {expected_plaquettes} plaquettes, got {len(snapshots)}"
        )
    return -float(np.mean([s.pi1 for s in snapshots]))


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
