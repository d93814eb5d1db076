"""Sector counting from outcome arrays against the per-shot reference."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qutrit_toric.estimators import estimate_plaquette_projectors, snapshots_from_outcomes
from qutrit_toric.lattice import build_lattice
from qutrit_toric.weyl import WeylOp

from oracles import estimate_operator, snapshot_from_triple


def reference_outcome_sector(op, basis_obs, outcomes):
    """Per-shot sector of op, the site-by-site factoring written out as the reference."""
    d = op.d
    total = WeylOp(d, np.zeros(op.n, dtype=int), np.zeros(op.n, dtype=int))
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
    if not (np.array_equal(total.x, op.x) and np.array_equal(total.z, op.z)):
        raise ValueError("operator does not factor over the measured basis")
    kappa = (op.phase - total.phase) % d
    return (sector + kappa) % d


def random_basis(rng, n):
    out = []
    for i in range(n):
        x, z = 0, 0
        while (x, z) == (0, 0):
            x, z = (int(v) for v in rng.integers(3, size=2))
        w = WeylOp.from_site(3, n, i, x, z)
        out.append(WeylOp(3, w.x, w.z, int(rng.integers(3))))
    return out


class TestEstimateOperator:
    @pytest.mark.parametrize("trial", range(6))
    def test_counts_match_per_shot_reference(self, trial):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(1, 8))
        basis_obs = random_basis(rng, n)
        op = WeylOp(3, np.zeros(n, dtype=int), np.zeros(n, dtype=int), int(rng.integers(3)))
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


class TestExactEntries:
    def test_equal_the_scalar_entries_bitwise(self):
        """Each lookup outcome (-1: random) gives the entry of its exact triple."""
        outcomes = [2, -1, 0, 1, 1, -1]
        keys = [(("A", "B")[f % 2], (f, 1), f == 3, f"k{f}") for f in range(len(outcomes))]
        triples = {-1: (1 / 3,) * 3, 0: (1.0, 0.0, 0.0), 1: (0.0, 1.0, 0.0), 2: (0.0, 0.0, 1.0)}
        expected = [{**snapshot_from_triple(kind, pos, triples[s]), "transformed": transformed,
                     "label": label} for s, (kind, pos, transformed, label) in zip(outcomes, keys)]
        got = snapshots_from_outcomes(np.array(outcomes), keys)
        assert repr(got) == repr(expected)
        got[0]["std_errors"][0] = 1.0  # each entry owns its lists
        assert got[1]["std_errors"] == [0.0, 0.0, 0.0]


class TestBatchedPlaquetteEstimates:
    @pytest.mark.parametrize("basis", ["z", "x"])
    @pytest.mark.parametrize("lx,ly", [(4, 2), (6, 4)])
    def test_equals_per_face_operator_estimates(self, lx, ly, basis):
        lat = build_lattice(lx, ly)
        n = lat.n_sites
        rng = np.random.default_rng(lx * 10 + ly)
        values = rng.integers(3, size=(257, n)).astype(np.uint8)
        xe, ze = (1, 0) if basis == "x" else (0, 1)
        basis_obs = [WeylOp.from_site(3, n, i, xe, ze) for i in range(n)]
        expected = []
        for p in lat.plaquettes:
            if p.kind == ("A" if basis == "x" else "B"):
                counts, total = estimate_operator(values, p.operator(n), basis_obs)
                probs = counts / total
                ses = [float(np.sqrt(q * (1 - q) / total)) for q in probs]
                expected.append(snapshot_from_triple(p.kind, p.pos, tuple(probs), ses,
                                                     n_shots=total))
        snaps = estimate_plaquette_projectors(values, basis, lat)
        assert len(snaps) == len(lat.plaquettes) // 2
        assert repr(snaps) == repr(expected)  # bitwise: repr tells every float apart
        assert all(s["n_shots"] == 257 and s["std_errors"] != [0.0, 0.0, 0.0] for s in snaps)

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_sectors_read_the_face_stack(self, basis):
        """The estimator reads each face's row of the lattice stack: with every
        row squared, each face reads the sectors of its operator squared."""
        lat = build_lattice(4, 2)
        lat.face_x, lat.face_z = 2 * lat.face_x % 3, 2 * lat.face_z % 3
        values = np.random.default_rng(7).integers(3, size=(101, lat.n_sites)).astype(np.uint8)
        xe, ze = (1, 0) if basis == "x" else (0, 1)
        basis_obs = [WeylOp.from_site(3, lat.n_sites, i, xe, ze) for i in range(lat.n_sites)]
        snaps = estimate_plaquette_projectors(values, basis, lat)
        wanted = [p for p in lat.plaquettes if p.kind == ("A" if basis == "x" else "B")]
        for snap, p in zip(snaps, wanted, strict=True):
            counts, total = estimate_operator(values, p.operator(lat.n_sites).power(2), basis_obs)
            assert (snap["pi1"], snap["pi_omega"], snap["pi_omegabar"]) == tuple(counts / total)

    def test_counts_on_the_uint8_records(self):
        """Sector counting allocates under 2 bytes per shot-qutrit: the records
        stay uint8 (an int64 copy alone would take 8)."""
        lat = build_lattice(6, 4)
        shots = 200_000
        values = np.random.default_rng(3).integers(3, size=(shots, lat.n_sites), dtype=np.uint8)
        tracemalloc.start()
        try:
            estimate_plaquette_projectors(values, "z", lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * shots * lat.n_sites

    def test_face_off_the_measured_basis(self):
        face = SimpleNamespace(kind="B", pos=(0, 0))
        lat = SimpleNamespace(d=3, n_sites=2, plaquettes=[face],  # the face X Z at site 1
                              face_x=np.array([[0, 1]]), face_z=np.array([[0, 1]]))
        with pytest.raises(ValueError, match="not diagonal"):
            estimate_plaquette_projectors(np.zeros((5, 2), np.uint8), "z", lat)
