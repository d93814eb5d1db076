"""Sector counting from outcome arrays against the per-shot reference."""

import numpy as np
import pytest

from qutrit_toric.estimators import estimate_operator, estimate_plaquette_projectors
from qutrit_toric.lattice import build_lattice
from qutrit_toric.weyl import WeylOp


def reference_outcome_sector(op, basis_obs, outcomes):
    """Per-shot sector of op, the site-by-site factoring written out as the reference."""
    d = op.d
    total = WeylOp.identity(d, op.n)
    sector = 0
    for i in op.support:
        w = basis_obs[i]
        m = None
        for cand in range(1, d):
            if (w.x[i] * cand - op.x[i]) % d == 0 and (w.z[i] * cand - op.z[i]) % d == 0:
                m = cand
                break
        if m is None:
            raise ValueError(f"operator not diagonal in the measured basis at site {i}")
        sector = (sector + m * int(outcomes[i])) % d
        total = total @ w.power(m)
    if not total.same_string(op):
        raise ValueError("operator does not factor over the measured basis")
    kappa = (op.phase - total.phase) % d
    return (sector + kappa) % d


def random_basis(rng, n):
    out = []
    for i in range(n):
        x, z = 0, 0
        while (x, z) == (0, 0):
            x, z = (int(v) for v in rng.integers(3, size=2))
        out.append(WeylOp.from_site(3, n, i, x, z, int(rng.integers(3))))
    return out


class TestEstimateOperator:
    @pytest.mark.parametrize("trial", range(6))
    def test_counts_match_per_shot_reference(self, trial):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(1, 8))
        basis_obs = random_basis(rng, n)
        op = WeylOp.identity(3, n).with_phase(int(rng.integers(3)))
        for i in range(n):
            op = op @ basis_obs[i].power(int(rng.integers(3)))
        values = rng.integers(3, size=(200, n)).astype(np.uint8)
        counts, total = estimate_operator(values, op, basis_obs)
        ref = np.zeros(3, dtype=np.int64)
        for row in values:
            ref[reference_outcome_sector(op, basis_obs, row)] += 1
        assert counts.tolist() == ref.tolist() and total == 200

    def test_operator_off_the_measured_basis(self):
        basis_obs = [WeylOp.from_site(3, 2, i, 0, 1) for i in range(2)]
        with pytest.raises(ValueError, match="not diagonal"):
            estimate_operator(np.zeros((5, 2), np.uint8), WeylOp.from_site(3, 2, 1, 1, 0),
                              basis_obs)

    def test_no_retained_shots(self):
        lat = build_lattice(4, 2)
        with pytest.raises(ValueError, match="no retained shots"):
            estimate_plaquette_projectors(np.zeros((0, lat.n_sites), np.uint8), "z", lat)
