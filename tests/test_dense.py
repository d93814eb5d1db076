"""Reference statevector oracle: unitarity, Born sampling, fidelity."""

import numpy as np
import pytest

from qutrit_toric import weyl
from qutrit_toric.dense import gate_matrix
from qutrit_toric.defects import CCRibbon, cc_ribbon_gates
from qutrit_toric.lattice import build_lattice, ground_state_circuit
from qutrit_toric.weyl import GateKind, WeylOp

from oracles import DenseState, final_tableau, state_from_tableau, weyl_matrix


class TestApplication:
    def test_shift_cubes_to_identity(self):
        state = DenseState(3, 1, np.array([0.2, 0.3 + 0.1j, 0.5]))
        ref = state.copy()
        for _ in range(3):
            state.apply_gate(weyl.shift_x(0))
        assert np.allclose(state.amp, ref.amp)

    def test_fourier_matrix_unitary(self):
        H = gate_matrix(GateKind.FOURIER, 3)
        assert np.abs(H @ H.conj().T - np.eye(3)).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        state = DenseState(3, 3, rng.normal(size=27) + 1j * rng.normal(size=27))
        for g in (weyl.cx(0, 2), weyl.fourier(1), weyl.cz_dag(2, 1), weyl.conj_c(0)):
            state.apply_gate(g)
            assert abs(np.linalg.norm(state.amp) - 1) < 1e-12

    def test_ribbon_unitary_squares_to_identity(self):
        lat = build_lattice(2, 4)
        gates = cc_ribbon_gates(lat, CCRibbon.canonical(lat, (0, 1), 1))
        rng = np.random.default_rng(1)
        state = DenseState(3, 8, rng.normal(size=3**8) + 1j * rng.normal(size=3**8))
        ref = state.copy()
        for g in gates + gates:
            state.apply_gate(g)
        assert state.fidelity(ref) == pytest.approx(1, abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            DenseState(3, 14)


class TestMeasurement:
    def test_clock_on_zero(self):
        state = DenseState(3, 1)
        rng = np.random.default_rng(0)
        out = state.measure_projective(WeylOp.from_site(3, 1, 0, 0, 1), rng)
        assert out == 0
        assert state.amp[0] == pytest.approx(1)

    def test_shift_on_zero_uniform_and_collapses(self):
        rng = np.random.default_rng(1)
        counts = [0, 0, 0]
        X = WeylOp.from_site(3, 1, 0, 1, 0)
        for _ in range(600):
            state = DenseState(3, 1)
            s = state.measure_projective(X, rng)
            counts[s] += 1
            # post-state is the matching eigenvector
            val = state.expectation_weyl(X)
            assert val == pytest.approx(np.exp(2j * np.pi * s / 3), abs=1e-10)
        assert min(counts) > 120

    def test_mixed_weyl_eigen_distribution(self):
        # XZ on |+>: outcome spectrum from direct diagonalization
        state = DenseState(3, 1)
        state.apply_gate(weyl.fourier(0))
        w = WeylOp.from_site(3, 1, 0, 1, 1)
        probs = state.outcome_probabilities(w)
        mat = weyl_matrix(w)
        vals, vecs = np.linalg.eig(mat)
        plus = state.amp
        expected = np.zeros(3)
        for k in range(3):
            s = int(round((np.angle(vals[k]) * 3 / (2 * np.pi))) % 3)
            expected[s] += abs(np.vdot(vecs[:, k], plus)) ** 2
        assert np.allclose(probs, expected, atol=1e-10)


class TestFidelity:
    def test_identity_and_orthogonal(self):
        a = DenseState(3, 2)
        b = DenseState(3, 2)
        assert a.fidelity(b) == pytest.approx(1)
        amp = np.zeros(9)
        amp[3] = 1
        c = DenseState(3, 2, amp)
        assert a.fidelity(c) == pytest.approx(0)

    def test_tableau_round_trip_2x2_torus(self):
        lat = build_lattice(2, 2)
        tab, _ = final_tableau(ground_state_circuit(lat), seed=0)
        via_projectors = state_from_tableau(tab)
        dense = DenseState(3, 4)
        for ins in ground_state_circuit(lat).instructions:
            dense.apply_gate(ins.gate)
        assert via_projectors.fidelity(dense) == pytest.approx(1, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DenseState(3, 1).fidelity(DenseState(3, 2))
