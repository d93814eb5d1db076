"""Weyl algebra checked against brute-force dense matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutrit_toric import weyl
from qutrit_toric.dense import gate_matrix
from qutrit_toric.weyl import (
    CliffordGate,
    GateKind,
    WeylOp,
    compose,
    conjugate_by_gate,
    symplectic_product,
)

from oracles import weyl_matrix


def random_weyl(rng, d=3, n=2):
    return WeylOp(d, rng.integers(0, d, n), rng.integers(0, d, n), int(rng.integers(d)))


def phases_equal(a: np.ndarray, b: np.ndarray, tol=1e-10) -> bool:
    return np.allclose(a, b, atol=tol)


class TestConstruction:
    def test_rejects_qubits(self):
        with pytest.raises(ValueError):
            WeylOp(2, [1], [0])

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            WeylOp(9, [1], [0])

    def test_identity(self):
        w = WeylOp(3, np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        assert w.support == () and w.phase == 0
        v = WeylOp(3, [1, 0, 2, 0], [0, 1, 1, 0], 2)
        assert compose(w, v) == compose(v, w) == v

    def test_exponents_reduced(self):
        w = WeylOp(3, [4, -1], [0, 5], phase=7)
        assert list(w.x) == [1, 2]
        assert list(w.z) == [0, 2]
        assert w.phase == 1


class TestCompose:
    def test_x_then_z_normal_ordered(self):
        X = WeylOp(3, [1], [0])
        Z = WeylOp(3, [0], [1])
        prod = compose(X, Z)
        assert (list(prod.x), list(prod.z), prod.phase) == ([1], [1], 0)

    def test_z_then_x_picks_up_omega(self):
        # ZX = omega XZ for Z|i> = omega^i|i>, X|i> = |i+1>
        X = WeylOp(3, [1], [0])
        Z = WeylOp(3, [0], [1])
        prod = compose(Z, X)
        assert (list(prod.x), list(prod.z), prod.phase) == ([1], [1], 1)

    @pytest.mark.parametrize("d", [3, 5])
    def test_inverse_roundtrip_random(self, d):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            w = random_weyl(rng, d, n)
            one = WeylOp(d, np.zeros(n, dtype=int), np.zeros(n, dtype=int))
            assert compose(w, w.inverse()) == compose(w.inverse(), w) == one

    @pytest.mark.parametrize("d", [3, 5])
    def test_compose_matches_dense(self, d):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a, b = random_weyl(rng, d, n), random_weyl(rng, d, n)
            got = weyl_matrix(compose(a, b))
            want = weyl_matrix(a) @ weyl_matrix(b)
            assert phases_equal(got, want)

    def test_power_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = random_weyl(rng, 3, 2)
            m = int(rng.integers(0, 6))
            got = weyl_matrix(w.power(m))
            want = np.linalg.matrix_power(weyl_matrix(w), m)
            assert phases_equal(got, want)

    def test_order_divides_d(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = random_weyl(rng, 3, 3)
            assert w.power(3) == WeylOp(3, np.zeros(3, dtype=int), np.zeros(3, dtype=int))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(WeylOp(3, [1], [0]), WeylOp(5, [1], [0]))
        with pytest.raises(ValueError):
            compose(WeylOp(3, [1], [0]), WeylOp(3, [1, 0], [0, 0]))


class TestSymplecticProduct:
    def test_x_z_value(self):
        # s(X, Z) = +1 under s = sum(a.x b.z - a.z b.x); X Z = omega^{-1} Z X.
        X = WeylOp(3, [1], [0])
        Z = WeylOp(3, [0], [1])
        assert symplectic_product(X, Z) == 1
        assert symplectic_product(Z, X) == 2

    @pytest.mark.parametrize("d", [3, 5])
    def test_reordering_identity(self, d):
        # omega^{-s} * compose(b, a) == compose(a, b) on random pairs
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a, b = random_weyl(rng, d, n), random_weyl(rng, d, n)
            s = symplectic_product(a, b)
            lhs = compose(a, b)
            rhs = compose(b, a)
            assert np.array_equal(lhs.x, rhs.x) and np.array_equal(lhs.z, rhs.z)
            assert lhs.phase == (rhs.phase - s) % d

    def test_zero_iff_commute_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = random_weyl(rng, 3, 2), random_weyl(rng, 3, 2)
            A, B = weyl_matrix(a), weyl_matrix(b)
            commute = np.allclose(A @ B, B @ A)
            assert (symplectic_product(a, b) == 0) == commute

    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
           st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric_bilinear(self, ax, az, bx, bz, cx, cz, m1, m2):
        d = 3
        a = WeylOp(d, [ax], [az])
        b = WeylOp(d, [bx], [bz])
        c = WeylOp(d, [cx], [cz])
        assert symplectic_product(a, b) == (-symplectic_product(b, a)) % d
        # bilinearity in exponent space: s(a, b^m1 c^m2) = m1 s(a,b) + m2 s(a,c)
        comb = compose(b.power(m1), c.power(m2))
        assert symplectic_product(a, comb) == (
            m1 * symplectic_product(a, b) + m2 * symplectic_product(a, c)
        ) % d


ALL_KINDS_1Q = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
ALL_KINDS_2Q = sorted(set(weyl.GateKind) - weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)


class TestConjugation:
    def test_conj_gate_sends_x_to_xdag(self):
        X = WeylOp(3, [1], [0])
        img = conjugate_by_gate(weyl.conj_c(0), X)
        assert (list(img.x), list(img.z), img.phase) == ([2], [0], 0)

    def test_fourier_table(self):
        X = WeylOp(3, [1], [0])
        Z = WeylOp(3, [0], [1])
        hx = conjugate_by_gate(weyl.fourier(0), X)
        hz = conjugate_by_gate(weyl.fourier(0), Z)
        assert hx == Z
        assert hz == WeylOp(3, [2], [0])  # X^dag

    def test_cx_table(self):
        Z1 = WeylOp(3, [0, 0], [0, 1])
        img = conjugate_by_gate(weyl.cx(0, 1), Z1)
        assert img == WeylOp(3, [0, 0], [2, 1])  # Z^dag (x) Z

    @pytest.mark.parametrize("kind", ALL_KINDS_1Q)
    @pytest.mark.parametrize("d", [3, 5])
    def test_single_qudit_generator_table_vs_dense(self, kind, d):
        g = CliffordGate(kind, (0,))
        U = gate_matrix(kind, d)
        for xe in range(d):
            for ze in range(d):
                w = WeylOp(d, [xe], [ze])
                img = conjugate_by_gate(g, w)
                want = U @ weyl_matrix(w) @ U.conj().T
                assert phases_equal(weyl_matrix(img), want), (kind, xe, ze)

    @pytest.mark.parametrize("kind", ALL_KINDS_2Q)
    def test_two_qudit_generator_table_vs_dense(self, kind):
        d = 3
        g = CliffordGate(kind, (0, 1))
        U = gate_matrix(kind, d)
        for k in range(d**4):
            xe0, ze0, xe1, ze1 = k % d, (k // d) % d, (k // d**2) % d, (k // d**3) % d
            w = WeylOp(d, [xe0, xe1], [ze0, ze1])
            img = conjugate_by_gate(g, w)
            want = U @ weyl_matrix(w) @ U.conj().T
            assert phases_equal(weyl_matrix(img), want), (kind, k)

    def test_two_qudit_reversed_targets_vs_dense(self):
        # control index above target index exercises the site-ordering path
        d = 3
        for kind in ALL_KINDS_2Q:
            g = CliffordGate(kind, (1, 0))
            U1 = gate_matrix(kind, d)
            # build the (control=1, target=0) matrix by swapping tensor factors
            swap = np.zeros((9, 9))
            for i in range(3):
                for j in range(3):
                    swap[3 * j + i, 3 * i + j] = 1
            U = swap @ U1 @ swap
            rng = np.random.default_rng(11)
            for _ in range(30):
                w = random_weyl(rng, d, 2)
                img = conjugate_by_gate(g, w)
                want = U @ weyl_matrix(w) @ U.conj().T
                assert phases_equal(weyl_matrix(img), want), kind

    def test_conjugation_preserves_symplectic_product(self):
        rng = np.random.default_rng(12)
        gates = [CliffordGate(k, (0,)) for k in ALL_KINDS_1Q]
        gates += [CliffordGate(k, (0, 1)) for k in ALL_KINDS_2Q]
        gates += [CliffordGate(k, (1, 0)) for k in ALL_KINDS_2Q]
        for g in gates:
            for _ in range(20):
                a, b = random_weyl(rng, 3, 2), random_weyl(rng, 3, 2)
                ga, gb = conjugate_by_gate(g, a), conjugate_by_gate(g, b)
                assert symplectic_product(ga, gb) == symplectic_product(a, b)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            conjugate_by_gate(weyl.fourier(3), WeylOp(3, [1, 0], [0, 0]))

    def test_conjugate_through_inverse_roundtrip(self):
        rng = np.random.default_rng(13)
        gates = [weyl.fourier(0), weyl.cx(0, 1), weyl.clock_z(1), weyl.cz_dag(1, 2),
                 weyl.conj_c(2), weyl.shift_x(0)]
        for _ in range(20):
            w = random_weyl(rng, 3, 3)
            img = weyl.conjugate_through(gates, w)
            back = weyl.conjugate_through([g.inverse() for g in reversed(gates)], img)
            assert back == w


class TestGateValidation:
    def test_two_qudit_needs_distinct_targets(self):
        with pytest.raises(ValueError):
            weyl.cx(1, 1)

    def test_one_qudit_arity(self):
        with pytest.raises(ValueError):
            CliffordGate(GateKind.FOURIER, (0, 1))

    @given(st.sampled_from(ALL_KINDS_1Q + ALL_KINDS_2Q))
    @settings(max_examples=22, deadline=None)
    def test_inverse_kind_is_involution(self, kind):
        t = (0,) if kind in weyl.ONE_QUDIT_KINDS else (0, 1)
        g = CliffordGate(kind, t)
        assert g.inverse().inverse() == g


class TestAssociativity:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_compose_associative(self, data):
        d = 3
        n = data.draw(st.integers(1, 3))
        ops = []
        for _ in range(3):
            x = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
            z = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
            ph = data.draw(st.integers(0, d - 1))
            ops.append(WeylOp(d, x, z, ph))
        a, b, c = ops
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
