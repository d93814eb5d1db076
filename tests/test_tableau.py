"""Stabilizer tableau vs the dense statevector oracle."""

import numpy as np
import pytest

from qutrit_toric import weyl
from qutrit_toric.lattice import build_lattice, ground_state_circuit
from qutrit_toric.modmath import mod_inverse
from qutrit_toric.tableau import MeasurementOutcome, StabilizerTableau
from qutrit_toric.weyl import CliffordGate, WeylOp

from oracles import (
    DenseState,
    expectation_weyl,
    final_tableau,
    new_computational,
    projector_expectation,
    stabilizer,
    stabilizer_group_equals,
    state_from_tableau,
    validate_tableau,
)


def random_gate(rng, n):
    kinds_1q = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
    kinds_2q = sorted(set(weyl.GateKind) - weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
    if n > 1 and rng.random() < 0.5:
        c, t = rng.choice(n, size=2, replace=False)
        return CliffordGate(kinds_2q[rng.integers(len(kinds_2q))], (int(c), int(t)))
    return CliffordGate(kinds_1q[rng.integers(len(kinds_1q))], (int(rng.integers(n)),))


def random_weyl(rng, d, n):
    w = WeylOp(d, rng.integers(0, d, n), rng.integers(0, d, n), int(rng.integers(d)))
    if not (w.x.any() or w.z.any() or w.phase):
        return WeylOp.from_site(d, n, 0, 1, 0)
    return w


class TestInitialState:
    def test_z_deterministic_zero(self):
        tab = new_computational(3, 1, seed=0)
        out = tab.measure_weyl(WeylOp.from_site(3, 1, 0, 0, 1))
        assert out.value == 0 and out.deterministic

    def test_x_expectation_vanishes(self):
        tab = new_computational(5, 3, seed=0)
        for s in range(3):
            assert expectation_weyl(tab, WeylOp.from_site(5, 3, s, 1, 0)) == 0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            new_computational(2, 1)

    def test_clock_type_faces_satisfied_by_computational_state(self):
        from qutrit_toric.lattice import build_lattice

        lat = build_lattice(6, 4)
        tab = new_computational(3, 24, seed=0)
        for p in (p for p in lat.plaquettes if p.kind == "B"):
            assert expectation_weyl(tab, p.operator(24)) == pytest.approx(1)

    def test_validate_initial(self):
        validate_tableau(new_computational(3, 6, seed=1))


class TestGates:
    def test_fourier_makes_plus_state(self):
        tab = new_computational(3, 1, seed=0)
        tab.apply_gate(weyl.fourier(0))
        assert expectation_weyl(tab, WeylOp.from_site(3, 1, 0, 1, 0)) == pytest.approx(1)

    def test_cx_on_plus_zero(self):
        tab = new_computational(3, 2, seed=0)
        tab.apply_gate(weyl.fourier(0))
        tab.apply_gate(weyl.cx(0, 1))
        xx = WeylOp.from_pattern(3, 2, {0: (1, 0), 1: (1, 0)})
        zdz = WeylOp.from_pattern(3, 2, {0: (0, 2), 1: (0, 1)})
        assert expectation_weyl(tab, xx) == pytest.approx(1)
        assert expectation_weyl(tab, zdz) == pytest.approx(1)

    def test_gate_then_inverse_preserves_expectations(self):
        rng = np.random.default_rng(3)
        tab = new_computational(3, 3, seed=2)
        for _ in range(10):
            tab.apply_gate(random_gate(rng, 3))
        marks = [random_weyl(rng, 3, 3) for _ in range(8)]
        before = [expectation_weyl(tab, w) for w in marks]
        g = weyl.cz(0, 2)
        tab.apply_gate(g)
        tab.apply_gate(g.inverse())
        after = [expectation_weyl(tab, w) for w in marks]
        assert before == after

    def test_random_circuits_match_dense_expectations(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            n = int(rng.integers(1, 4))
            tab = new_computational(3, n, seed=trial)
            state = DenseState(3, n)
            for _ in range(12):
                g = random_gate(rng, n)
                tab.apply_gate(g)
                state.apply_gate(g)
            validate_tableau(tab)
            for _ in range(6):
                w = random_weyl(rng, 3, n)
                assert expectation_weyl(tab, w) == pytest.approx(
                    state.expectation_weyl(w), abs=1e-9
                )

    def test_dense_roundtrip_via_projectors(self):
        rng = np.random.default_rng(5)
        tab = new_computational(3, 3, seed=7)
        state = DenseState(3, 3)
        for _ in range(15):
            g = random_gate(rng, 3)
            tab.apply_gate(g)
            state.apply_gate(g)
        rebuilt = state_from_tableau(tab)
        assert rebuilt.fidelity(state) == pytest.approx(1, abs=1e-10)


class TestMeasurement:
    def test_measure_x_uniform(self):
        counts = [0, 0, 0]
        tab0 = new_computational(3, 1, seed=9)
        X = WeylOp.from_site(3, 1, 0, 1, 0)
        n_shots = 10_000
        rng = np.random.default_rng(10)
        for _ in range(n_shots):
            tab = StabilizerTableau(3, 1, rng)
            out = tab.measure_weyl(X)
            assert not out.deterministic
            counts[out.value] += 1
        # chi^2 with 2 dof; 3-sigma-ish cutoff
        expected = n_shots / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 16.27  # p ~ 3e-4

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            tab = new_computational(3, n, seed=trial)
            for _ in range(8):
                tab.apply_gate(random_gate(rng, n))
            w = random_weyl(rng, 3, n)
            first = tab.measure_weyl(w)
            second = tab.measure_weyl(w)
            assert second.deterministic
            assert second.value == first.value

    def test_determinism_detection_matches_dense(self):
        rng = np.random.default_rng(12)
        for trial in range(25):
            n = int(rng.integers(1, 4))
            tab = new_computational(3, n, seed=trial)
            state = DenseState(3, n)
            for _ in range(10):
                g = random_gate(rng, n)
                tab.apply_gate(g)
                state.apply_gate(g)
            w = random_weyl(rng, 3, n)
            probs = state.outcome_probabilities(w)
            point_mass = np.isclose(probs.max(), 1.0, atol=1e-9)
            det = tab.deterministic_outcome(w)
            assert (det is not None) == point_mass
            if det is not None:
                assert probs[det] == pytest.approx(1, abs=1e-9)

    def test_post_measurement_state_matches_dense(self):
        rng = np.random.default_rng(13)
        for trial in range(15):
            n = int(rng.integers(1, 4))
            tab = new_computational(3, n, seed=trial)
            state = DenseState(3, n)
            for _ in range(8):
                g = random_gate(rng, n)
                tab.apply_gate(g)
                state.apply_gate(g)
            w = random_weyl(rng, 3, n)
            out = tab.measure_weyl(w, force=None if tab.deterministic_outcome(w) is not None else 1)
            if not out.deterministic:
                state.project_onto(w, out.value)
            rebuilt = state_from_tableau(tab)
            assert rebuilt.fidelity(state) == pytest.approx(1, abs=1e-9)
            validate_tableau(tab)

    def test_forced_outcome_branches_agree_with_projection(self):
        tab = new_computational(3, 2, seed=1)
        tab.apply_gate(weyl.fourier(0))
        tab.apply_gate(weyl.cx(0, 1))
        Z0 = WeylOp.from_site(3, 2, 0, 0, 1)
        for s in range(3):
            fork = tab.copy()
            out = fork.measure_weyl(Z0, force=s)
            assert out.value == s
            # correlated register: Z1 now deterministic and equal
            Z1 = WeylOp.from_site(3, 2, 1, 0, 1)
            assert fork.deterministic_outcome(Z1) == s


class TestProjectors:
    def test_triple_sums_to_one(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            tab = new_computational(3, n, seed=trial)
            for _ in range(8):
                tab.apply_gate(random_gate(rng, n))
            w = random_weyl(rng, 3, n)
            assert sum(tab.projector_triple(w)) == pytest.approx(1)

    def test_values_in_stabilizer_set(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            tab = new_computational(3, 2, seed=trial)
            for _ in range(6):
                tab.apply_gate(random_gate(rng, 2))
            w = random_weyl(rng, 3, 2)
            for a in range(3):
                assert projector_expectation(tab, w, a) in (0.0, 1.0, pytest.approx(1 / 3))

    def test_invalid_alpha(self):
        tab = new_computational(3, 1)
        with pytest.raises(ValueError):
            projector_expectation(tab, WeylOp.from_site(3, 1, 0, 0, 1), 3)


class TestGroupEquality:
    def test_regenerated_group_equal(self):
        rng = np.random.default_rng(16)
        tab = new_computational(3, 3, seed=3)
        gates = [random_gate(rng, 3) for _ in range(12)]
        for g in gates:
            tab.apply_gate(g)
        other = new_computational(3, 3, seed=99)
        for g in gates:
            other.apply_gate(g)
        assert stabilizer_group_equals(tab, other)
        other.apply_gate(weyl.CliffordGate(weyl.GateKind.SHIFT_X, (0,)))
        assert not stabilizer_group_equals(tab, other)


class ReferenceTableau:
    """The six-array tableau (stabilizer and destabilizer blocks kept apart,
    each gate rule written out on the columns) that the 2n-row store
    replaced; kept as an independent implementation to compare against."""

    def __init__(self, d, n, rng):
        self.d, self.n, self.rng = d, n, rng
        self.sx = np.zeros((n, n), dtype=np.int64)
        self.sz = np.eye(n, dtype=np.int64)
        self.sp = np.zeros(n, dtype=np.int64)
        self.dx = np.eye(n, dtype=np.int64)
        self.dz = np.zeros((n, n), dtype=np.int64)
        self.dp = np.zeros(n, dtype=np.int64)

    def apply_gate(self, g):
        d, kind = self.d, g.kind
        K = weyl.GateKind
        for x, z, ph in ((self.sx, self.sz, self.sp), (self.dx, self.dz, self.dp)):
            if kind in weyl.ONE_QUDIT_KINDS:
                t = g.targets[0]
                if kind is K.SHIFT_X:
                    ph -= z[:, t]
                elif kind is K.SHIFT_X_DAG:
                    ph += z[:, t]
                elif kind is K.CLOCK_Z:
                    ph += x[:, t]
                elif kind is K.CLOCK_Z_DAG:
                    ph -= x[:, t]
                elif kind is K.CONJ:
                    x[:, t] = -x[:, t] % d
                    z[:, t] = -z[:, t] % d
                elif kind is K.FOURIER:
                    ph -= x[:, t] * z[:, t]
                    xt = x[:, t].copy()
                    x[:, t] = -z[:, t] % d
                    z[:, t] = xt
                elif kind is K.FOURIER_DAG:
                    ph -= x[:, t] * z[:, t]
                    xt = x[:, t].copy()
                    x[:, t] = z[:, t]
                    z[:, t] = -xt % d
            else:
                c, t = g.targets
                if kind is K.CX:
                    x[:, t] = (x[:, t] + x[:, c]) % d
                    z[:, c] = (z[:, c] - z[:, t]) % d
                elif kind is K.CX_DAG:
                    x[:, t] = (x[:, t] - x[:, c]) % d
                    z[:, c] = (z[:, c] + z[:, t]) % d
                elif kind is K.CZ:
                    ph += x[:, c] * x[:, t]
                    z[:, c] = (z[:, c] + x[:, t]) % d
                    z[:, t] = (z[:, t] + x[:, c]) % d
                elif kind is K.CZ_DAG:
                    ph -= x[:, c] * x[:, t]
                    z[:, c] = (z[:, c] - x[:, t]) % d
                    z[:, t] = (z[:, t] - x[:, c]) % d
            ph %= d

    def apply_weyl(self, w):
        for x, z, ph in ((self.sx, self.sz, self.sp), (self.dx, self.dz, self.dp)):
            ph += (x @ w.z - z @ w.x) % self.d
            ph %= self.d

    def _commutation_vector(self, w, destab=False):
        if destab:
            return (self.dx @ w.z - self.dz @ w.x) % self.d
        return (self.sx @ w.z - self.sz @ w.x) % self.d

    def deterministic_outcome(self, w):
        d = self.d
        if np.any(self._commutation_vector(w)):
            return None
        e = self._commutation_vector(w, destab=True)
        assert np.array_equal((e @ self.sx) % d, w.x) and np.array_equal((e @ self.sz) % d, w.z)
        cross_rows = np.einsum("ij,ij->i", self.sx, self.sz) % d
        pow_ph = (e * self.sp + (e * (e - 1) // 2) * cross_rows) % d
        reorder = e @ np.triu(self.sz @ self.sx.T, 1) @ e
        return (w.phase - (int(pow_ph.sum()) + int(reorder))) % d

    def measure_weyl(self, w, force=None):
        det = self.deterministic_outcome(w)
        if det is not None:
            return MeasurementOutcome(det, True)
        d = self.d
        c = self._commutation_vector(w)
        p = int(np.nonzero(c)[0][0])
        s = int(self.rng.integers(d)) if force is None else int(force) % d
        inv_cp = mod_inverse(int(c[p]), d)
        sx_p, sz_p, sp_p = self.sx[p].copy(), self.sz[p].copy(), int(self.sp[p])
        cross_p = int(np.dot(sx_p, sz_p)) % d

        def mix_rows(x, z, ph, m):
            ph += (m * sp_p + (m * (m - 1) // 2) * cross_p) % d + m * (z @ sx_p)
            ph %= d
            x += np.outer(m, sx_p)
            x %= d
            z += np.outer(m, sz_p)
            z %= d

        m_s = (-c * inv_cp) % d
        m_s[p] = 0
        mix_rows(self.sx, self.sz, self.sp, m_s)
        m_d = (-self._commutation_vector(w, destab=True) * inv_cp) % d
        mix_rows(self.dx, self.dz, self.dp, m_d)
        m = inv_cp
        self.dx[p] = (m * sx_p) % d
        self.dz[p] = (m * sz_p) % d
        self.dp[p] = (m * sp_p + (m * (m - 1) // 2) * cross_p) % d
        self.sx[p], self.sz[p], self.sp[p] = w.x, w.z, (w.phase - s) % d
        return MeasurementOutcome(s, False)


class TestAgainstSixArrayReference:
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_sequences_agree_step_by_step(self, d, n):
        driver = np.random.default_rng(100 * d + n)
        for trial in range(3):
            tab = StabilizerTableau(d, n, np.random.default_rng(trial))
            ref = ReferenceTableau(d, n, np.random.default_rng(trial))
            for _ in range(40):
                op = driver.integers(4)
                if op == 0:
                    g = random_gate(driver, n)
                    tab.apply_gate(g)
                    ref.apply_gate(g)
                elif op == 1:
                    w = random_weyl(driver, d, n)
                    tab.apply_weyl(w)
                    ref.apply_weyl(w)
                else:  # free measurement, or one forced onto a random branch
                    w = random_weyl(driver, d, n)
                    force = None
                    if op == 3 and ref.deterministic_outcome(w) is None:
                        force = int(driver.integers(d))
                    assert tab.measure_weyl(w, force) == ref.measure_weyl(w, force)
                assert np.array_equal(tab.x, np.concatenate([ref.dx, ref.sx]))
                assert np.array_equal(tab.z, np.concatenate([ref.dz, ref.sz]))
                assert np.array_equal(tab.ph, np.concatenate([ref.dp, ref.sp]))
                validate_tableau(tab)


class TestLookupAtScale:
    def test_prefix_sum_reorder_matches_triu_formula_at_96_qutrits(self):
        """The deterministic lookup on a 12x8 ground state under a random
        Clifford layer (so rows mix x and z) and Weyl frames agrees with the
        six-array reference (the n x n x n triu reordering phase) and with
        outcomes built by composing stabilizer rows."""
        lat = build_lattice(12, 8)
        n, d = lat.n_sites, lat.d
        assert n == 96
        rng = np.random.default_rng(96)
        tab, _ = final_tableau(ground_state_circuit(lat), seed=0)
        layer = [random_gate(rng, n) for _ in range(200)]
        for g in layer:
            tab.apply_gate(g)
        for _ in range(5):
            tab.apply_weyl(random_weyl(rng, d, n))
        assert np.any(np.einsum("ij,ij->i", tab.x[n:], tab.z[n:]) % d)
        ref = ReferenceTableau(d, n, None)
        ref.dx, ref.sx = tab.x[:n].copy(), tab.x[n:].copy()
        ref.dz, ref.sz = tab.z[:n].copy(), tab.z[n:].copy()
        ref.dp, ref.sp = tab.ph[:n].copy(), tab.ph[n:].copy()
        for p in lat.plaquettes:
            w = weyl.conjugate_through(layer, p.operator(n))
            assert tab.deterministic_outcome(w) == ref.deterministic_outcome(w) is not None
        for _ in range(20):
            w = WeylOp(d, np.zeros(n, dtype=int), np.zeros(n, dtype=int))
            for i in rng.permutation(n):
                w = w @ stabilizer(tab, int(i)).power(int(rng.integers(d)))
            k = int(rng.integers(d))
            w = WeylOp(d, w.x, w.z, w.phase + k)
            assert tab.deterministic_outcome(w) == ref.deterministic_outcome(w) == k
        random_ops = [random_weyl(rng, d, n) for _ in range(5)]
        assert all(tab.deterministic_outcome(w) is ref.deterministic_outcome(w) is None
                   for w in random_ops)


def reference_lookup(tab, w):
    """The per-row deterministic lookup that the batched one replaced: the
    in-order product's phase from power phases plus the prefix-sum reordering
    phase sum_j e_j (sum_{i<j} e_i z_i) . x_j; kept as an oracle."""
    d, n = tab.d, tab.n
    c = (tab.x @ w.z - tab.z @ w.x) % d
    if np.any(c[n:]):
        return None
    e = c[:n]
    sx, sz, sp = tab.x[n:], tab.z[n:], tab.ph[n:]
    if not (np.array_equal((e @ sx) % d, w.x) and np.array_equal((e @ sz) % d, w.z)):
        raise AssertionError("tableau invariant violated in deterministic lookup")
    cross_rows = np.einsum("ij,ij->i", sx, sz) % d
    pow_ph = (e * sp + (e * (e - 1) // 2) * cross_rows) % d
    ez = e[:, None] * sz
    reorder = e @ np.einsum("ij,ij->i", np.cumsum(ez, axis=0) - ez, sx)
    return (w.phase - (int(pow_ph.sum()) + int(reorder))) % d


def random_clifford_state(d, n, seed):
    """A tableau after random gates, measurements and a Weyl frame."""
    rng = np.random.default_rng(seed)
    tab = StabilizerTableau(d, n, np.random.default_rng(seed))
    for _ in range(3 * n + 10):
        tab.apply_gate(random_gate(rng, n))
    for _ in range(3):
        tab.measure_weyl(random_weyl(rng, d, n))
        tab.apply_gate(random_gate(rng, n))
    tab.apply_weyl(random_weyl(rng, d, n))
    return tab, rng


def phased_element(tab, rng, k):
    """omega^k times a product of random stabilizer powers, in random order."""
    w = WeylOp(tab.d, np.zeros(tab.n, dtype=int), np.zeros(tab.n, dtype=int))
    for i in rng.permutation(tab.n):
        w = w @ stabilizer(tab, int(i)).power(int(rng.integers(tab.d)))
    return WeylOp(tab.d, w.x, w.z, w.phase + k)


def stacked(ops, n):
    x = np.array([w.x for w in ops], dtype=np.int64).reshape(len(ops), n)
    z = np.array([w.z for w in ops], dtype=np.int64).reshape(len(ops), n)
    return x, z, np.array([w.phase for w in ops], dtype=np.int64)


class TestBatchedLookup:
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("n", [1, 24, 96])
    def test_matches_reference_lookup_on_random_states(self, d, n):
        tab, rng = random_clifford_state(d, n, seed=10 * d + n)
        ks = [int(rng.integers(d)) for _ in range(8)]
        ops = [random_weyl(rng, d, n) for _ in range(4)]
        ops[2:2] = [phased_element(tab, rng, k) for k in ks]
        want = [reference_lookup(tab, w) for w in ops]
        got = tab.deterministic_outcomes(*stacked(ops, n))
        assert got.dtype == np.int64 and got.shape == (len(ops),)
        assert got.tolist() == [-1 if v is None else v for v in want]
        assert got[2:10].tolist() == ks
        for w, v in zip(ops, want):
            assert tab.deterministic_outcome(w) == v

    def test_mixed_stacks_and_edge_sizes(self):
        tab, rng = random_clifford_state(3, 24, seed=5)
        members = [phased_element(tab, rng, k) for k in (0, 1, 2)]
        stray = [w for w in (random_weyl(rng, 3, 24) for _ in range(6))
                 if reference_lookup(tab, w) is None][:3]
        assert len(stray) == 3
        stack = [stray[0], members[0], members[1], stray[1], stray[2], members[2]]
        def lookup(ops):
            return tab.deterministic_outcomes(*stacked(ops, 24))

        assert lookup(stack).tolist() == [-1, 0, 1, -1, -1, 2]
        assert lookup(stray).tolist() == [-1] * 3
        empty = lookup([])
        assert empty.shape == (0,) and empty.dtype == np.int64
        assert lookup([members[1]]).tolist() == [1]
        assert lookup([stray[0]]).tolist() == [-1]
        with pytest.raises(ValueError):
            tab.deterministic_outcomes(*stacked(members, 24)[:2], np.zeros(2, dtype=np.int64))

    def test_corrupted_tableau_raises_like_the_reference(self):
        tab, rng = random_clifford_state(3, 24, seed=6)
        stack = [random_weyl(rng, 3, 24), stabilizer(tab, 0), phased_element(tab, rng, 1)]
        tab.x[0] = 0  # destabilizer D_0 becomes the identity
        tab.z[0] = 0
        with pytest.raises(AssertionError, match="tableau invariant"):
            reference_lookup(tab, stabilizer(tab, 0))
        with pytest.raises(AssertionError, match="tableau invariant"):
            tab.deterministic_outcomes(*stacked(stack, 24))

    def test_corrupted_tableau_exits_3_from_the_cli(self, monkeypatch, capsys):
        from qutrit_toric import cli

        run = cli.execute

        def corrupting(circ, tab, **kwargs):
            out = run(circ, tab, **kwargs)
            tab.x[: tab.n] = 0  # every destabilizer becomes the identity
            tab.z[: tab.n] = 0
            return out

        monkeypatch.setattr(cli, "execute", corrupting)
        assert cli.main(["prepare", "--lx", "6", "--ly", "4", "--noise", "off", "-o", "-"]) == 3
        assert "tableau invariant violated" in capsys.readouterr().err


class TestReferenceOutcomes:
    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_sequential_forced_measurements(self, d):
        """Pairwise commuting, phased, multi-site stacks with repeated and
        dependent operators: one lookup gives what measure_weyl(force=0) gives
        one after another, and the state is left as it was."""
        kinds = set()
        for seed in range(60):
            n = 1 + seed % 6
            tab, rng = random_clifford_state(d, n, seed)
            group, _ = random_clifford_state(d, n, seed + 1000)  # ops from its stabilizer group
            ops = [phased_element(group, rng, int(rng.integers(d)))
                   for _ in range(int(rng.integers(1, 2 * n + 2)))]
            ops = [w for w in ops if w.x.any() or w.z.any() or w.phase] or [stabilizer(group, 0)]
            w = ops[int(rng.integers(len(ops)))]
            ops.append(WeylOp(d, w.x, w.z, int(rng.integers(d))))
            ops.append((ops[0] @ ops[-1]).power(2))
            before = (tab.x.copy(), tab.z.copy(), tab.ph.copy())
            got = tab.reference_outcomes(*stacked(ops, n))
            assert all(np.array_equal(a, b) for a, b in zip(before, (tab.x, tab.z, tab.ph)))
            seq = tab.copy()
            want = [seq.measure_weyl(w, force=0) for w in ops]
            assert got.dtype == np.int64 and got.tolist() == [m.value for m in want], seed
            kinds.update((m.deterministic, m.value) for m in want)
        assert kinds == {(False, 0)} | {(True, v) for v in range(d)}

    def test_refuses_non_commuting_operators(self):
        tab = StabilizerTableau(3, 2)
        ops = [WeylOp.from_site(3, 2, 0, 0, 1), WeylOp.from_site(3, 2, 0, 1, 0)]
        with pytest.raises(ValueError, match="commuting"):
            tab.reference_outcomes(*stacked(ops, 2))
