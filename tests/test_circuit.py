"""Circuit IR: replay determinism, noise statistics, serialization."""

import numpy as np
import pytest

from qutrit_toric import weyl
from qutrit_toric.circuit import (
    CondGate,
    Circuit,
    Gate,
    Measure,
    Noise,
    NoiseChannel,
    TREE_MAX_RANDOM_MEASUREMENTS,
    _build_outcome_tree,
    _sample_weyl_error,
    exact_outcome_distribution,
    run_shot,
    run_shots,
    shot_seed,
)
from qutrit_toric.dense import DenseState
from qutrit_toric.lattice import build_lattice, ground_state_circuit, measure_all_circuit
from qutrit_toric.serialize import circuit_from_json, circuit_to_json
from qutrit_toric.tableau import StabilizerTableau
from qutrit_toric.weyl import WeylOp


def bell_like_circuit():
    c = Circuit(3, 2, 2)
    c.gate(weyl.fourier(0)).gate(weyl.cx(0, 1))
    c.measure(WeylOp.from_site(3, 2, 0, 0, 1), 0)
    c.measure(WeylOp.from_site(3, 2, 1, 0, 1), 1)
    return c


class TestValidation:
    def test_creg_read_before_write(self):
        c = Circuit(3, 1, 1)
        c.cond(0, {t: () for t in range(3)})
        with pytest.raises(ValueError, match="before written"):
            c.validate()

    def test_predicate_must_cover_outcomes(self):
        c = Circuit(3, 1, 1)
        c.measure(WeylOp.from_site(3, 1, 0, 0, 1), 0)
        c.cond(0, {0: (), 1: ()})
        with pytest.raises(ValueError, match="cover"):
            c.validate()

    def test_noise_probability_range(self):
        with pytest.raises(ValueError):
            NoiseChannel("depolarizing1", 1.5)

    def test_depolarizing2_needs_pair(self):
        c = Circuit(3, 2, 0)
        c.noise(NoiseChannel("depolarizing2", 0.5), (0,))
        with pytest.raises(ValueError, match="pair"):
            c.validate()


class TestDeterminism:
    def test_same_seed_same_record(self):
        c = bell_like_circuit()
        r1 = run_shot(c, 12345)
        r2 = run_shot(c, 12345)
        assert r1 == r2

    def test_correlated_measurements(self):
        c = bell_like_circuit()
        for i in range(50):
            r = run_shot(c, shot_seed(7, i))
            assert r[0] == r[1]

    def test_feed_forward_replays(self):
        c = Circuit(3, 1, 1)
        c.gate(weyl.fourier(0))
        c.measure(WeylOp.from_site(3, 1, 0, 0, 1), 0)
        c.cond(0, {0: (), 1: (weyl.shift_x_dag(0),), 2: (weyl.shift_x(0),)})
        c.measure(WeylOp.from_site(3, 1, 0, 0, 1), 0)
        for seed in range(30):
            r = run_shot(c, seed)
            # correction maps outcome 1 -> 0 via Xdag? verify stable replay only
            assert run_shot(c, seed) == r

    def test_parallelism_identical_records(self):
        c = bell_like_circuit().with_noise(p1=0.1)
        a = run_shots(c, 40, base_seed=3, parallelism=1)
        b = run_shots(c, 40, base_seed=3, parallelism=4)
        assert np.array_equal(a.values, b.values)

    def test_tree_path_matches_straight_line_engine(self):
        c = bell_like_circuit()
        batch = run_shots(c, 200, base_seed=9)  # tree-accelerated
        direct = [run_shot(c, shot_seed(9, i)) for i in range(200)]
        assert np.array_equal(batch.values, direct)

    def test_values_array_shape(self):
        c = bell_like_circuit().with_noise(p1=0.1)
        for shots, parallelism in ((0, 1), (0, 3), (7, 1), (7, 3)):
            batch = run_shots(c, shots, base_seed=1, parallelism=parallelism)
            assert batch.values.shape == (shots, 2) and batch.values.dtype == np.uint8
            assert len(batch) == shots


class TestOutcomeTree:
    def test_refuses_before_forking_past_the_budget(self, monkeypatch):
        """Each fresh qudit measured in X is random on every branch: the
        tree forks levels 1..budget and refuses the next one unforked."""
        n = TREE_MAX_RANDOM_MEASUREMENTS + 1
        c = Circuit(3, n, n)
        for i in range(n):
            c.measure(WeylOp.from_site(3, n, i, 1, 0), i)
        copies = []
        copy = StabilizerTableau.copy

        def counting_copy(self, *args, **kwargs):
            copies.append(1)
            return copy(self, *args, **kwargs)

        monkeypatch.setattr(StabilizerTableau, "copy", counting_copy)
        assert _build_outcome_tree(c) is None
        assert len(copies) == sum(3**k for k in range(1, n))


def reference_run_shot(circuit, seed):
    """Straight-line shot loop, written out here as the reference for execute."""
    rng = np.random.default_rng(seed)
    tab = StabilizerTableau(circuit.d, circuit.n_qudits, rng)
    creg = [0] * circuit.n_cregs
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            tab.apply_gate(ins.gate)
        elif isinstance(ins, Measure):
            creg[ins.creg] = tab.measure_weyl(ins.observable).value
        elif isinstance(ins, CondGate):
            for g in ins.predicate[creg[ins.creg]]:
                tab.apply_gate(g)
        elif isinstance(ins, Noise):
            err = _sample_weyl_error(ins.channel, ins.sites, circuit.d, circuit.n_qudits, rng)
            if err is not None:
                tab.apply_weyl(err)
    return creg


def random_mixed_circuit(rng, n: int, n_cregs: int = 3) -> Circuit:
    """Gates, measurements, feed-forward blocks, all three noise kinds, barriers."""
    kinds1 = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
    kinds2 = sorted(weyl.TWO_QUDIT_KINDS, key=lambda k: k.value)

    def gate():
        if n > 1 and rng.random() < 0.4:
            q = rng.choice(n, 2, replace=False)
            return weyl.CliffordGate(kinds2[rng.integers(len(kinds2))], (int(q[0]), int(q[1])))
        return weyl.CliffordGate(kinds1[rng.integers(len(kinds1))], (int(rng.integers(n)),))

    channels = [
        NoiseChannel("depolarizing1", 0.3),
        NoiseChannel("depolarizing2", 0.5),
        NoiseChannel("weyl_custom", weights=((0.3, {0: (1, 0)}), (0.4, {0: (0, 2), 1: (1, 1)}))),
    ]
    c = Circuit(3, n, n_cregs)
    written = []
    for _ in range(int(rng.integers(15, 30))):
        r = rng.random()
        if r < 0.35:
            c.gate(gate())
        elif r < 0.55:
            x, z = rng.integers(3, size=n), rng.integers(3, size=n)
            if not (x.any() or z.any()):
                z[0] = 1
            k = int(rng.integers(n_cregs))
            c.measure(WeylOp(3, x, z, int(rng.integers(3))), k)
            written.append(k)
        elif r < 0.65 and written:
            k = written[int(rng.integers(len(written)))]
            c.cond(k, {t: tuple(gate() for _ in range(int(rng.integers(3)))) for t in range(3)})
        elif r < 0.9:
            ch = channels[int(rng.integers(3 if n > 1 else 1))]
            if ch.kind == "depolarizing1":
                sites = tuple(int(s) for s in rng.choice(n, min(n, 2), replace=False))
            else:
                sites = tuple(int(s) for s in rng.choice(n, 2, replace=False))
            c.noise(ch, sites)
        else:
            c.barrier()
    c.validate()
    return c


class TestSingleInterpreter:
    def test_run_shot_matches_straight_line_reference(self):
        """execute draws noise and outcomes exactly as the straight-line loop did."""
        rng = np.random.default_rng(2024)
        kinds = set()
        for trial in range(12):
            c = random_mixed_circuit(rng, int(rng.integers(1, 5)))
            kinds.update(type(i).__name__ for i in c.instructions)
            kinds.update(i.channel.kind for i in c.instructions if isinstance(i, Noise))
            for seed in range(5):
                s = shot_seed(trial, seed)
                assert run_shot(c, s) == reference_run_shot(c, s), (trial, seed)
            batch = run_shots(c, 20, base_seed=trial)
            assert np.array_equal(batch.values, [reference_run_shot(c, shot_seed(trial, i))
                                                 for i in range(20)])
        assert kinds >= {"Gate", "Measure", "CondGate", "Noise", "Barrier",
                         "depolarizing1", "depolarizing2", "weyl_custom"}


class TestStatistics:
    def test_measure_x_uniform_frequencies(self):
        c = Circuit(3, 1, 1)
        c.measure(WeylOp.from_site(3, 1, 0, 1, 0), 0)
        batch = run_shots(c, 10_000, base_seed=11)
        counts = np.zeros(3)
        for r in batch.values:
            counts[r[0]] += 1
        p = counts / counts.sum()
        assert np.all(np.abs(p - 1 / 3) < 3 * np.sqrt((1 / 3) * (2 / 3) / 10_000))

    def test_exact_distribution_matches_dense(self):
        rng = np.random.default_rng(13)
        kinds1 = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
        kinds2 = sorted(weyl.TWO_QUDIT_KINDS, key=lambda k: k.value)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            c = Circuit(3, n, 2)
            state = DenseState(3, n)
            for _ in range(8):
                if n > 1 and rng.random() < 0.5:
                    q = rng.choice(n, 2, replace=False)
                    g = weyl.CliffordGate(kinds2[rng.integers(4)], (int(q[0]), int(q[1])))
                else:
                    g = weyl.CliffordGate(kinds1[rng.integers(7)], (int(rng.integers(n)),))
                c.gate(g)
                state.apply_gate(g)
            obs = []
            for k in range(2):
                site = int(rng.integers(n))
                w = WeylOp.from_site(3, n, site, int(rng.integers(3)), int(rng.integers(3)))
                if w.is_identity:
                    w = WeylOp.from_site(3, n, site, 0, 1)
                obs.append(w)
                c.measure(w, k)
            dist = exact_outcome_distribution(c)
            # dense reference: joint via sequential projective measurement
            dense_dist = {}

            def recurse(st, outcomes, prob, k):
                if k == len(obs):
                    key = tuple(outcomes)
                    dense_dist[key] = dense_dist.get(key, 0.0) + prob
                    return
                probs = st.outcome_probabilities(obs[k])
                for s in range(3):
                    if probs[s] < 1e-12:
                        continue
                    st2 = st.copy()
                    st2.project_onto(obs[k], s)
                    recurse(st2, outcomes + [s], prob * probs[s], k + 1)

            recurse(state, [], 1.0, 0)
            keys = set(dist) | set(dense_dist)
            tvd = 0.5 * sum(abs(dist.get(k, 0) - dense_dist.get(k, 0)) for k in keys)
            assert tvd < 1e-9, (trial, tvd)

    def test_depolarizing2_certain_error_pattern(self):
        """p = 1 on one two-qudit gate: projector means over shots match the
        exhaustive enumeration of the 80 two-site errors."""
        lat = build_lattice(2, 2)
        prep = ground_state_circuit(lat)
        gates = [i.gate for i in prep.instructions]
        target_pair = gates[-1].targets
        noisy = Circuit(3, 4, 0)
        noisy.gates(gates)
        noisy.noise(NoiseChannel("depolarizing2", 1.0), target_pair)
        # enumeration oracle
        from qutrit_toric.circuit import final_tableau

        a_face = lat.plaquette_at(0, 0).operator(4)
        acc = np.zeros(3)
        for k in range(1, 81):
            digits = (k % 3, (k // 3) % 3, (k // 9) % 3, (k // 27) % 3)
            err = WeylOp.from_pattern(
                3, 4, {target_pair[0]: (digits[0], digits[1]),
                       target_pair[1]: (digits[2], digits[3])})
            tab, _ = final_tableau(prep, seed=0)
            tab.apply_weyl(err)
            acc += tab.projector_triple(a_face)
        expected_pi1 = acc[0] / 80
        sampled = []
        for i in range(4000):
            tab, _ = final_tableau(noisy, seed=shot_seed(21, i))
            sampled.append(tab.projector_expectation(a_face, 0))
        assert np.mean(sampled) == pytest.approx(expected_pi1, abs=0.03)

    def test_default_shot_count_standard_error(self):
        # 517 shots at p = 1/2 gives the quoted ~0.022 maximum standard error
        assert np.sqrt(0.25 / 517) == pytest.approx(0.022, abs=5e-4)


class TestNoiselessInvariants:
    def test_projector_values_in_stabilizer_set(self):
        lat = build_lattice(4, 2)
        circ = ground_state_circuit(lat)
        from qutrit_toric.circuit import final_tableau

        tab, _ = final_tableau(circ, seed=0)
        for p in lat.plaquettes:
            for a in range(3):
                v = tab.projector_expectation(p.operator(lat.n_sites), a)
                assert v in (0.0, 1.0) or v == pytest.approx(1 / 3)

    def test_b_plaquette_outcome_sums_vanish(self):
        lat = build_lattice(4, 2)
        circ = ground_state_circuit(lat)
        circ.extend(measure_all_circuit(lat, "z"))
        batch = run_shots(circ, 100, base_seed=5)
        for r in batch.values:
            for p in lat.b_plaquettes:
                total = sum(
                    e * int(r[s]) for s, e in zip(p.corners, p.exponents)
                ) % 3
                assert total == 0


class TestSerialization:
    def test_round_trip(self):
        c = bell_like_circuit().with_noise(p1=0.01, p2=0.02)
        c.cond(0, {0: (), 1: (weyl.clock_z(0),), 2: (weyl.clock_z_dag(0),)})
        c.barrier()
        doc = circuit_to_json(c)
        back = circuit_from_json(doc)
        assert circuit_to_json(back) == doc

    def test_executes_identically_after_round_trip(self):
        c = bell_like_circuit()
        back = circuit_from_json(circuit_to_json(c))
        a = run_shots(c, 50, base_seed=2)
        b = run_shots(back, 50, base_seed=2)
        assert np.array_equal(a.values, b.values)
