"""Circuit IR: replay determinism, noise statistics, serialization."""

import functools

import numpy as np
import pytest

from qutrit_toric import circuit as circuit_module
from qutrit_toric import weyl
from qutrit_toric.circuit import (
    CondGate,
    Circuit,
    Gate,
    Measure,
    Noise,
    NoiseChannel,
    TREE_MAX_RANDOM_MEASUREMENTS,
    _hit_exponents,
    exact_outcome_distribution,
    execute,
    outcome_leaves,
    run_shots,
)
from qutrit_toric.encoder import compile_report, encode_circuit, per_qutrit_two_qubit
from qutrit_toric.lattice import build_lattice, ground_state_circuit, measure_all_circuit
from qutrit_toric.serialize import circuit_to_json
from qutrit_toric.tableau import StabilizerTableau
from qutrit_toric.weyl import WeylOp

from oracles import DenseState, dense_outcome_distribution, final_tableau, projector_expectation
from oracles import count_tableau_calls
from oracles import weyl_matrix as dense_weyl_matrix


def shot_seed(base_seed, index):
    """Seed of shot index in a per-shot batch: SeedSequence hashing of (base_seed, index)."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


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

    def test_depolarizing2_pair_must_be_distinct(self):
        c = Circuit(3, 2, 0)
        c.noise(NoiseChannel("depolarizing2", 0.5), (1, 1))
        with pytest.raises(ValueError, match="repeat"):
            c.validate()

    def test_unknown_noise_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind weyl_custom"):
            NoiseChannel("weyl_custom")

    @pytest.mark.parametrize("target", [-1, 5])
    @pytest.mark.parametrize("shift_branch", [True, False],
                             ids=["shift-branch", "non-shift-branch"])
    def test_feed_forward_targets_in_range(self, monkeypatch, target, shift_branch):
        """A branch gate off the register is refused as such before any shot is
        drawn, also where a non-shift branch gate would refuse the circuit."""
        c = Circuit(3, 2, 1)
        c.gate(weyl.fourier(0)).measure(WeylOp.from_site(3, 2, 0, 0, 1), 0)
        other = weyl.clock_z(1) if shift_branch else weyl.fourier(1)
        c.cond(0, {0: (), 1: (weyl.shift_x(target),), 2: (other,)})
        assert has_non_weyl_feed_forward(c) is not shift_branch

        def sampled(*args):
            raise AssertionError("sampled an invalid circuit")

        monkeypatch.setattr(circuit_module, "_run_frames", sampled)
        with pytest.raises(ValueError, match=f"gate target {target} out of range"):
            c.validate()
        with pytest.raises(ValueError, match=f"gate target {target} out of range"):
            run_shots(c, 5)

    @staticmethod
    def invalid_circuit(case):
        c = Circuit(3, 3, 2)
        c.gate(weyl.shift_x(0)).measure(WeylOp.from_site(3, 3, 0, 0, 1), 0)
        if case == "read-before-written":
            c.cond(1, {0: (), 1: (weyl.shift_x(1),), 2: ()})
        elif case == "creg-off-register":
            c.measure(WeylOp.from_site(3, 3, 1, 0, 1), -1)
        elif case == "predicate-missing-outcomes":
            c.cond(0, {0: ()})
        else:
            c.gate(weyl.cx(0, -1))
        return c

    @pytest.mark.parametrize("entry", [
        lambda c: execute(c, StabilizerTableau(3, 3)), lambda c: list(outcome_leaves(c)),
        exact_outcome_distribution, lambda c: run_shots(c, 5), per_qutrit_two_qubit,
        compile_report, encode_circuit,
    ], ids=["execute", "outcome_leaves", "exact_outcome_distribution", "run_shots",
            "per_qutrit_two_qubit", "compile_report", "encode_circuit"])
    @pytest.mark.parametrize("case, message", [
        ("read-before-written", "creg 1 read before written"),
        ("creg-off-register", "creg -1 out of range"),
        ("predicate-missing-outcomes", "predicate must cover all outcomes"),
        ("gate-target-off-register", "gate target -1 out of range"),
    ], ids=["read-before-written", "creg-off-register", "predicate-missing-outcomes",
            "gate-target-off-register"])
    def test_every_engine_entry_validates(self, entry, case, message):
        """Every entry that runs or compiles a circuit refuses an invalid one with
        validate's message, rather than taking a branch, writing the wrong
        register or counting a gate against the wrong qutrit."""
        with pytest.raises(ValueError, match=message):
            entry(self.invalid_circuit(case))


class TestDeterminism:
    def test_same_seed_same_record(self):
        c = bell_like_circuit()
        r1 = final_tableau(c, 12345)[1]
        r2 = final_tableau(c, 12345)[1]
        assert r1 == r2

    def test_correlated_measurements(self):
        c = bell_like_circuit()
        for i in range(50):
            r = final_tableau(c, shot_seed(7, i))[1]
            assert r[0] == r[1]

    def test_feed_forward_replays(self):
        c = Circuit(3, 1, 1)
        c.gate(weyl.fourier(0))
        c.measure(WeylOp.from_site(3, 1, 0, 0, 1), 0)
        c.cond(0, {0: (), 1: (weyl.shift_x(0).inverse(),), 2: (weyl.shift_x(0),)})
        c.measure(WeylOp.from_site(3, 1, 0, 0, 1), 0)
        for seed in range(30):
            r = final_tableau(c, seed)[1]
            # correction maps outcome 1 -> 0 via Xdag? verify stable replay only
            assert final_tableau(c, seed)[1] == r

    def test_frame_path_matches_straight_line_engine(self):
        """run_shots' Weyl frames and single shots replayed on a tableau draw
        differently, so they agree in distribution: both keep the Bell correlation and sit within 3 sigma
        of the exact distribution."""
        c = bell_like_circuit()
        exact = exact_outcome_distribution(c)
        batch = run_shots(c, 3000, base_seed=9)
        direct = np.array([final_tableau(c, shot_seed(9, i))[1] for i in range(3000)])
        for values in (batch.values, direct):
            assert np.array_equal(values[:, 0], values[:, 1])
            tvd, bound = sampled_tvd(values, exact)
            assert tvd <= bound

    def test_noisy_circuit_refused_by_execute(self):
        """execute refuses a noisy circuit before the tableau or its generator
        changes, pointing to run_shots; run_shots refuses this circuit too,
        naming its first non-shift branch gate."""
        c = Circuit(3, 3, 3)
        c.gate(weyl.fourier(0)).gate(weyl.cx(0, 1))
        c.noise(NoiseChannel("depolarizing1", 0.3), (0, 2))
        c.noise(NoiseChannel("depolarizing2", 0.4), (1, 2))
        c.measure(WeylOp.from_site(3, 3, 0, 0, 1), 0)
        c.cond(0, {0: (), 1: (weyl.fourier(2),), 2: (weyl.cx(2, 1),)})
        c.noise(NoiseChannel("depolarizing2", 0.5), (1, 2))
        c.measure(WeylOp.from_site(3, 3, 1, 0, 1), 1)
        c.measure(WeylOp.from_site(3, 3, 2, 1, 0), 2)
        tab = StabilizerTableau(3, 3, np.random.default_rng(11))
        tab.apply_gate(weyl.fourier(1))
        before = (tab.x.copy(), tab.z.copy(), tab.ph.copy(), tab.rng.bit_generator.state)
        with pytest.raises(ValueError, match="execute runs noiseless circuits only: this "
                           "circuit has noise; sample it with run_shots"):
            execute(c, tab)
        assert all(np.array_equal(a, b) for a, b in zip(before, (tab.x, tab.z, tab.ph)))
        assert tab.rng.bit_generator.state == before[3]
        with pytest.raises(ValueError, match="feed-forward gate 'h' is not an X/Z shift"):
            run_shots(c, 16, base_seed=11)

    def test_values_array_shape(self):
        c = bell_like_circuit().with_noise(p1=0.1)
        for shots in (0, 7):
            batch = run_shots(c, shots, base_seed=1)
            assert batch.values.shape == (shots, 2) and batch.values.dtype == np.uint8
            assert len(batch) == shots


class TestOutcomeTree:
    def test_refuses_before_forking_past_the_budget(self, monkeypatch):
        """Each fresh qudit measured in X is random on every branch: the
        depth-first walk copies one tableau per level down its first branch
        and refuses the next random measurement unforked."""
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
        with pytest.raises(ValueError, match="low-branching"):
            exact_outcome_distribution(c)
        assert len(copies) == TREE_MAX_RANDOM_MEASUREMENTS

    def test_refusal_names_the_noise(self):
        c = bell_like_circuit().with_noise(p1=0.1)
        with pytest.raises(ValueError,
                           match="noiseless, low-branching circuit: this circuit has noise"):
            list(outcome_leaves(c))

    def test_refusal_names_the_instruction_and_budget(self):
        n = TREE_MAX_RANDOM_MEASUREMENTS + 1
        c = Circuit(3, n, n).barrier()
        for i in range(n):
            c.measure(WeylOp.from_site(3, n, i, 1, 0), i)
        with pytest.raises(ValueError, match=rf"noiseless, low-branching circuit: instruction {n} "
                           rf"would fork past the budget of {n - 1} random outcomes"):
            exact_outcome_distribution(c)

    def test_leaves_in_path_order(self):
        """Two X measurements on fresh qutrits: d^2 leaves in path order, each
        with its path as creg values and a tableau that holds those outcomes."""
        c = Circuit(3, 2, 2)
        xs = [WeylOp.from_site(3, 2, i, 1, 0) for i in range(2)]
        for i, w in enumerate(xs):
            c.measure(w, i)
        leaves = list(outcome_leaves(c))
        assert [path for path, _, _ in leaves] == [(a, b) for a in range(3) for b in range(3)]
        for path, creg, tab in leaves:
            assert creg == list(path)
            assert [tab.deterministic_outcome(w) for w in xs] == list(path)


def reference_run_shot(circuit, seed):
    """Straight-line noiseless shot loop, written out here as the reference for execute."""
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
    return creg


def reference_frames(circuit: Circuit, n_shots: int, base_seed: int) -> np.ndarray:
    """Forward Weyl-frame propagation, written out here as the reference for run_shots.

    A reference shot (noise stripped, random outcomes forced to 0), then
    every block of FRAME_BLOCK shots pushes a (shots, 2, n) frame array
    through each instruction. It takes the block's draws from
    `_draw_block` on SeedSequence([base_seed, b]): the initial Z frame,
    then one kick per Measure, each where the plan draws it (the rows it
    leaves undrawn take values from another generator, which checks that
    they move no outcome), then one hit uniform per noise test (a
    depolarizing1 site or a depolarizing2 pair) in instruction order,
    read back by replaying the block's generator, and a code per hit.
    """
    d, n = circuit.d, circuit.n_qudits
    ref, creg = StabilizerTableau(d, n), [0] * circuit.n_cregs
    ref_values = []  # the reference's value of the creg each instruction writes or reads
    for ins in circuit.instructions:
        if not isinstance(ins, Noise):
            circuit_module._apply(ins, ref, creg, force=0)
        ref_values.append(creg[ins.creg] if isinstance(ins, (Measure, CondGate)) else None)
    shift_xz = {weyl.GateKind.SHIFT_X: (1, 0), weyl.GateKind.SHIFT_X_DAG: (-1, 0),
                weyl.GateKind.CLOCK_Z: (0, 1), weyl.GateKind.CLOCK_Z_DAG: (0, -1)}
    plan = circuit_module._compile_frames(circuit)
    n_kicks = sum(isinstance(ins, Measure) for ins in circuit.instructions)
    blocks = []
    for b, lo in enumerate(range(0, n_shots, circuit_module.FRAME_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, b]))
        m = min(circuit_module.FRAME_BLOCK, n_shots - lo)
        src, shot, test, code = circuit_module._draw_block(plan, rng, m)
        replay = np.random.default_rng(np.random.SeedSequence([base_seed, b]))
        replay.integers(d, size=src.shape, dtype=np.uint8)
        u = replay.random((m, len(plan.p)))
        codes = np.zeros(u.shape, dtype=np.int64)
        codes[shot, test] = code
        # a source row the plan leaves undrawn moves no outcome, so any value does
        sources = np.random.default_rng(b).integers(d, size=(m, n + n_kicks))
        sources[:, plan.drawn] = src
        kicks = iter(sources[:, n:].T)
        tests = 0
        values = np.zeros((m, circuit.n_cregs), dtype=np.int64)
        xz = np.zeros((2, n, m), dtype=np.int64).transpose(2, 0, 1)
        xz[:, 1] = sources[:, :n]
        ph = np.zeros(m, dtype=np.int64)
        for ins, r in zip(circuit.instructions, ref_values):
            if isinstance(ins, Gate):
                weyl.conjugate_rows(ins.gate, xz[:, 0], xz[:, 1], ph, d)
            elif isinstance(ins, Noise):
                sites = list(ins.sites)
                width = 1 if ins.channel.kind == "depolarizing1" else 2
                cols = slice(tests, tests + len(sites) // width)
                tests += len(sites) // width
                # a code for each hit, and for nothing else
                assert np.array_equal(codes[:, cols] > 0, u[:, cols] < ins.channel.p)
                err = _hit_exponents(codes[:, cols], d)[..., :2 * width].reshape(m, len(sites), 2)
                xz[:, :, sites] = (xz[:, :, sites] + err.transpose(0, 2, 1)) % d
            elif isinstance(ins, CondGate):
                shift = np.zeros((d, 2, n), dtype=np.int64)
                for k, gates in ins.predicate.items():
                    for g in gates:
                        shift[k, :, g.targets[0]] += shift_xz[g.kind]
                xz[:] = (xz + (shift - shift[r])[values[:, ins.creg]]) % d
            elif isinstance(ins, Measure):
                sup = list(ins.observable.support)
                wx, wz = ins.observable.x[sup], ins.observable.z[sup]
                values[:, ins.creg] = (r + xz[:, 0, sup] @ wz - xz[:, 1, sup] @ wx) % d
                k = next(kicks)[:, None, None]
                xz[:, :, sup] = (xz[:, :, sup] + k * np.stack([wx, wz])) % d
        assert tests == u.shape[1] and next(kicks, None) is None
        blocks.append(values)
    return np.concatenate(blocks or [np.zeros((0, circuit.n_cregs), dtype=np.int64)])


def random_mixed_circuit(rng, n: int, n_cregs: int = 3, weyl_branches: bool = False) -> Circuit:
    """Gates, measurements, feed-forward blocks, both noise kinds, barriers.

    weyl_branches draws every feed-forward gate from the X/Z shifts."""
    kinds1 = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
    kinds2 = sorted(set(weyl.GateKind) - weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
    shifts = (weyl.shift_x, lambda t: weyl.shift_x(t).inverse(),
              weyl.clock_z, lambda t: weyl.clock_z(t).inverse())

    def gate():
        if n > 1 and rng.random() < 0.4:
            q = rng.choice(n, 2, replace=False)
            return weyl.CliffordGate(kinds2[rng.integers(len(kinds2))], (int(q[0]), int(q[1])))
        return weyl.CliffordGate(kinds1[rng.integers(len(kinds1))], (int(rng.integers(n)),))

    def branch_gate():
        if weyl_branches:
            return shifts[int(rng.integers(4))](int(rng.integers(n)))
        return gate()

    channels = [
        NoiseChannel("depolarizing1", 0.3),
        NoiseChannel("depolarizing2", 0.5),
        NoiseChannel("depolarizing2", 0.2),
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
            c.cond(k, {t: tuple(branch_gate() for _ in range(int(rng.integers(3))))
                       for t in range(3)})
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


def without_noise(circuit: Circuit) -> Circuit:
    out = Circuit(circuit.d, circuit.n_qudits, circuit.n_cregs)
    for ins in circuit.instructions:
        if not isinstance(ins, Noise):
            out.add(ins)
    return out


def sampled_tvd(values: np.ndarray, dist: dict) -> tuple[float, float]:
    """TVD of the rows' empirical distribution from dist, and its 3 sigma bound;
    a row dist gives no weight adds to the TVD and nothing to the bound."""
    n = len(values)
    rows, counts = np.unique(values, axis=0, return_counts=True)
    emp = {tuple(int(v) for v in r): c / n for r, c in zip(rows, counts)}
    keys = set(emp) | set(dist)
    tvd = 0.5 * sum(abs(emp.get(k, 0) - dist.get(k, 0)) for k in keys)
    bound = 0.5 * sum(3 * np.sqrt(max(dist.get(k, 0) * (1 - dist.get(k, 0)), 0) / n)
                      for k in keys)
    return tvd, bound + 1e-12


@functools.lru_cache(maxsize=None)
def pattern_matrix(d: int, n: int, pattern: tuple) -> np.ndarray:
    """Dense matrix of the Weyl string with ((site, (x, z)), ...) exponents."""
    return dense_weyl_matrix(WeylOp.from_pattern(d, n, dict(pattern)))


@functools.lru_cache(maxsize=None)
def gates_matrix(d: int, n: int, gates: tuple) -> np.ndarray:
    """Dense matrix of a gate sequence, built column by column through DenseState."""
    cols = []
    for i in range(d ** n):
        st = DenseState(d, n, np.eye(d ** n)[i])
        for g in gates:
            st.apply_gate(g)
        cols.append(st.amp)
    return np.array(cols).T


def density_outcome_distribution(circuit: Circuit) -> dict[tuple[int, ...], float]:
    """Joint creg distribution of a noisy circuit, every noise pattern weighted.

    One density matrix per creg record. Gates are matrices built column by
    column through DenseState, error patterns and Weyl powers dense Weyl
    matrices. A noise channel is sum_k p_k E_k rho E_k^dag over all its
    patterns: each site's d^2 for depolarizing1, the pair's d^4 for
    depolarizing2."""
    d, n = circuit.d, circuit.n_qudits
    dim = d ** n
    omega = np.exp(2j * np.pi / d)

    def channel_terms(ch, sites):
        if ch.kind == "depolarizing1":
            terms = [(1.0, ())]
            for s in sites:
                terms = [(p * q, pat + ((s, (k % d, k // d)),)) for p, pat in terms
                         for q, k in [(1 - ch.p, 0)] + [(ch.p / (d * d - 1), k)
                                                         for k in range(1, d * d)]]
            return terms
        a, b = sites
        return [(1 - ch.p, ())] + [
            (ch.p / (d**4 - 1), ((a, (k % d, k // d % d)), (b, (k // d**2 % d, k // d**3))))
            for k in range(1, d**4)]

    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1
    states = {(0,) * circuit.n_cregs: rho}
    for ins in circuit.instructions:
        if isinstance(ins, (Gate, CondGate)):
            out = {}
            for key, r in states.items():
                gates = (ins.gate,) if isinstance(ins, Gate) else ins.predicate[key[ins.creg]]
                u = gates_matrix(d, n, gates)
                out[key] = u @ r @ u.conj().T
            states = out
        elif isinstance(ins, Noise):
            terms = channel_terms(ins.channel, ins.sites)
            p = np.array([t[0] for t in terms])[:, None, None]
            e = np.array([pattern_matrix(d, n, t[1]) for t in terms])
            states = {key: (p * (e @ r @ e.conj().transpose(0, 2, 1))).sum(0)
                      for key, r in states.items()}
        elif isinstance(ins, Measure):
            powers = [dense_weyl_matrix(ins.observable.power(m)) for m in range(d)]
            projs = [sum(omega ** (-s * m) * powers[m] for m in range(d)) / d for s in range(d)]
            out = {}
            for key, r in states.items():
                for s, proj in enumerate(projs):
                    k2 = key[:ins.creg] + (s,) + key[ins.creg + 1:]
                    out[k2] = out.get(k2, 0) + proj @ r @ proj.conj().T
            states = out
    dist = {key: float(np.trace(r).real) for key, r in states.items()}
    return {key: p for key, p in dist.items() if p > 1e-12}


SHIFT_KINDS = {weyl.GateKind.SHIFT_X, weyl.GateKind.SHIFT_X_DAG,
               weyl.GateKind.CLOCK_Z, weyl.GateKind.CLOCK_Z_DAG}


def has_non_weyl_feed_forward(circuit: Circuit) -> bool:
    return any(g.kind not in SHIFT_KINDS for ins in circuit.instructions
               if isinstance(ins, CondGate) for gates in ins.predicate.values() for g in gates)


class TestSingleInterpreter:
    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noise-stripped"])
    def test_run_shot_matches_straight_line_reference(self, noisy):
        """On a noiseless circuit execute draws outcomes exactly as the
        straight-line loop did; run_shots refuses a circuit with non-shift
        feed-forward and on the others gives only outcomes the exact
        distribution allows; where the tree stays within its budget, its
        exact distribution matches the dense oracle."""
        rng = np.random.default_rng(2024)
        kinds = set()
        trees = 0
        routes = {"frames": 0, "refused": 0}
        for trial in range(40):
            c = random_mixed_circuit(rng, int(rng.integers(1, 5)))
            if not noisy:
                c = without_noise(c)
            try:
                exact = exact_outcome_distribution(c)
            except ValueError:
                exact = None
            else:
                trees += 1
                dense = dense_outcome_distribution(c)
                tvd = 0.5 * sum(abs(exact.get(k, 0) - dense.get(k, 0))
                                for k in set(exact) | set(dense))
                assert tvd < 1e-9, (trial, tvd)
            kinds.update(type(i).__name__ for i in c.instructions)
            kinds.update(i.channel.kind for i in c.instructions if isinstance(i, Noise))
            kinds.update("multi-site" for i in c.instructions
                         if isinstance(i, Measure) and len(i.observable.support) > 1)
            if not noisy:
                for seed in range(5):
                    s = shot_seed(trial, seed)
                    assert final_tableau(c, s)[1] == reference_run_shot(c, s), (trial, seed)
            if has_non_weyl_feed_forward(c):
                routes["refused"] += 1
                with pytest.raises(ValueError, match="is not an X/Z shift"):
                    run_shots(c, 20, base_seed=trial)
            else:
                routes["frames"] += 1
                batch = run_shots(c, 20, base_seed=trial)
                if exact is not None:
                    assert {tuple(r) for r in batch.values.tolist()} <= set(exact), trial
        expected = {"Gate", "Measure", "CondGate", "Barrier", "multi-site"}
        if noisy:
            expected |= {"Noise", "depolarizing1", "depolarizing2"}
        assert kinds == expected
        assert trees == (0 if noisy else 39)
        assert min(routes.values()) > 0, routes


class TestFrameSampler:
    def test_noiseless_weyl_feed_forward_matches_dense(self):
        rng = np.random.default_rng(31)
        conds = 0
        for trial in range(30):
            c = without_noise(random_mixed_circuit(rng, int(rng.integers(1, 5)),
                                                   weyl_branches=True))
            assert not has_non_weyl_feed_forward(c)
            conds += sum(1 for i in c.instructions if isinstance(i, CondGate)
                         and any(i.predicate.values()))
            dense = dense_outcome_distribution(c)
            tvd, bound = sampled_tvd(run_shots(c, 10_000, base_seed=trial).values, dense)
            assert tvd <= bound, (trial, tvd, bound)
        assert conds > 10

    def test_noisy_matches_noise_pattern_enumeration(self):
        rng = np.random.default_rng(32)
        kinds = set()
        for trial in range(30):
            c = random_mixed_circuit(rng, int(rng.integers(1, 4)), weyl_branches=True)
            assert not has_non_weyl_feed_forward(c)
            kinds.update(i.channel.kind for i in c.instructions if isinstance(i, Noise))
            kinds.update("feed-forward" for i in c.instructions
                         if isinstance(i, CondGate) and any(i.predicate.values()))
            exact = density_outcome_distribution(c)
            assert sum(exact.values()) == pytest.approx(1.0)
            tvd, bound = sampled_tvd(run_shots(c, 10_000, base_seed=trial).values, exact)
            assert tvd <= bound, (trial, tvd, bound)
        assert kinds == {"depolarizing1", "depolarizing2", "feed-forward"}

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_each_noise_kind_matches_enumeration_on_basis_readout(self, basis):
        """Noise on a basis state read out in that basis: the outcomes show
        the error's x (z basis) or z (x basis) exponents site by site."""
        for ch in (NoiseChannel("depolarizing1", 0.3), NoiseChannel("depolarizing2", 0.5)):
            c = Circuit(3, 3, 3)
            turn = [weyl.fourier(q) for q in range(3)] if basis == "x" else []
            c.gates(turn)
            c.noise(ch, (2, 0))
            c.gates(g.inverse() for g in turn)
            for q in range(3):
                c.measure(WeylOp.from_site(3, 3, q, 0, 1), q)
            exact = density_outcome_distribution(c)
            assert len(exact) > 2
            tvd, bound = sampled_tvd(run_shots(c, 10_000, base_seed=8).values, exact)
            assert tvd <= bound, (ch.kind, tvd, bound)

    def test_density_oracle_matches_tree_without_noise(self):
        rng = np.random.default_rng(33)
        compared = 0
        for _ in range(10):
            c = without_noise(random_mixed_circuit(rng, int(rng.integers(1, 4))))
            try:
                tree = exact_outcome_distribution(c)
            except ValueError:
                continue
            compared += 1
            exact = density_outcome_distribution(c)
            assert set(exact) == set(tree)
            assert all(exact[k] == pytest.approx(tree[k], abs=1e-9) for k in tree)
        assert compared >= 8

    def test_non_weyl_feed_forward_refused(self, monkeypatch):
        """run_shots refuses every circuit with a non-shift feed-forward gate
        before any draw, naming the first such gate's kind."""
        def sampled(*args):
            raise AssertionError("sampled a circuit with non-shift feed-forward")

        monkeypatch.setattr(circuit_module, "_run_frames", sampled)
        rng = np.random.default_rng(34)
        refused = 0
        for trial in range(40):
            c = random_mixed_circuit(rng, int(rng.integers(1, 5)))
            if has_non_weyl_feed_forward(c):
                refused += 1
                first = next(g.kind for i in c.instructions if isinstance(i, CondGate)
                             for gates in i.predicate.values() for g in gates
                             if g.kind not in SHIFT_KINDS)
                with pytest.raises(ValueError, match=f"feed-forward gate '{first.value}'"):
                    run_shots(c, 20, base_seed=trial)
        assert refused >= 10

    def test_block_draws(self):
        """Values are a pure function of (circuit, n_shots, base_seed): each
        block of FRAME_BLOCK shots draws from its own generator, so the
        blocks before a partial last block do not depend on n_shots."""
        c = bell_like_circuit().with_noise(p1=0.2, p2=0.2)
        block = circuit_module.FRAME_BLOCK
        a = run_shots(c, block + 1, base_seed=5).values
        assert np.array_equal(a, run_shots(c, block + 1, base_seed=5).values)
        assert np.array_equal(a[:block], run_shots(c, block + 7, base_seed=5).values[:block])
        assert not np.array_equal(a, run_shots(c, block + 1, base_seed=6).values)


def dense_noise_exponents(channel, d, u, code):
    """Each kind's noise decode written out: (draws, sites, 2) x, z exponents."""
    if channel.kind == "depolarizing1":  # a hit test and a code per site
        k = (u < channel.p) * code
        return np.stack([k % d, k // d], axis=2)
    k = (u[:, 0] < channel.p) * code[:, 0]  # one for the pair
    return np.stack([np.stack([k % d, k // d % d], axis=1),
                     np.stack([k // d**2 % d, k // d**3], axis=1)], axis=1)


def edge_circuits() -> dict[str, Circuit]:
    def z(q):
        return WeylOp.from_site(3, 2, q, 0, 1)

    dep1 = NoiseChannel("depolarizing1", 0.3)
    rewritten = Circuit(3, 2, 2).gate(weyl.fourier(0)).measure(z(0), 0).noise(dep1, (0, 1))
    rewritten.cond(0, {0: (), 1: (weyl.shift_x(1),),
                       2: (weyl.shift_x(1).inverse(), weyl.clock_z(0))})
    rewritten.gate(weyl.fourier(0)).measure(z(0), 0)  # creg 0 rewritten after the read
    rewritten.cond(0, {0: (weyl.shift_x(1),), 1: (), 2: (weyl.shift_x(1),)})
    rewritten.measure(z(1), 1)

    def only_noise(first=None, last=None) -> Circuit:
        """Feed-forward and a multi-site measurement between two noise
        instructions, given as (channel, sites)."""
        c = Circuit(3, 3, 3).gate(weyl.fourier(0)).gate(weyl.cx(0, 1))
        if first:
            c.noise(*first)
        c.measure(WeylOp.from_site(3, 3, 0, 0, 1), 0)
        c.cond(0, {0: (), 1: (weyl.shift_x(2),), 2: (weyl.clock_z(1), weyl.shift_x(2).inverse())})
        c.gate(weyl.fourier(1)).gate(weyl.cz(1, 2))
        if last:
            c.noise(*last)
        c.measure(WeylOp(3, np.array([1, 0, 1]), np.array([0, 2, 1])), 1)
        c.measure(WeylOp.from_site(3, 3, 2, 0, 1), 2)
        return c

    return {
        "noiseless": only_noise(),
        "depolarizing1-only": only_noise((dep1, (0, 1)),
                                         (NoiseChannel("depolarizing1", 0.5), (2, 1, 0))),
        "depolarizing2-only": only_noise((NoiseChannel("depolarizing2", 0.4), (0, 1)),
                                         (NoiseChannel("depolarizing2", 0.5), (2, 0))),
        "no-measurement": Circuit(3, 2, 2).gate(weyl.fourier(0)).noise(dep1, (0, 1)),
        "no-cregs": Circuit(3, 2, 0).gate(weyl.cx(0, 1))
                                    .noise(NoiseChannel("depolarizing2", 0.5), (0, 1)),
        "unwritten-creg": Circuit(3, 2, 3).gate(weyl.fourier(0)).measure(z(0), 0)
                                          .noise(dep1, (1,)).measure(z(1), 2),
        "rewritten-creg": rewritten,
    }


class TestCompiledFrames:
    """run_shots equals the forward frame propagation it replaced, bit for bit."""

    def test_random_weyl_feed_forward_circuits(self):
        rng = np.random.default_rng(41)
        kinds = set()
        for trial in range(200):
            c = random_mixed_circuit(rng, int(rng.integers(1, 5)), weyl_branches=True)
            kinds.update(type(i).__name__ for i in c.instructions)
            for n_shots in (5, circuit_module.FRAME_BLOCK + 3):
                assert np.array_equal(run_shots(c, n_shots, base_seed=trial).values,
                                      reference_frames(c, n_shots, trial)), (trial, n_shots)
        assert kinds == {"Gate", "Measure", "CondGate", "Noise", "Barrier"}

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_default_noise_prepare_6x4(self, basis):
        """The CLI's default noise (p1 = 0, p2 = 2e-3) on the 6x4 prepare circuit."""
        lat = build_lattice(6, 4)
        c = ground_state_circuit(lat).with_noise(p1=0.0, p2=2e-3)
        c.extend(measure_all_circuit(lat, basis))
        n_shots = 2 * circuit_module.FRAME_BLOCK + 100
        assert np.array_equal(run_shots(c, n_shots, base_seed=4).values,
                              reference_frames(c, n_shots, 4))

    @pytest.mark.parametrize("name", sorted(edge_circuits()))
    def test_edge_circuits(self, name):
        c = edge_circuits()[name]
        assert not has_non_weyl_feed_forward(c)
        for n_shots in (0, 7, circuit_module.FRAME_BLOCK + 1):
            values = run_shots(c, n_shots, base_seed=2).values
            assert values.shape == (n_shots, c.n_cregs)
            assert np.array_equal(values, reference_frames(c, n_shots, 2)), n_shots

    @pytest.mark.parametrize("p", [0.0, 2e-3, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["depolarizing1", "depolarizing2"])
    def test_noise_exponents_stream(self, kind, p):
        """On the same pre-drawn uniforms and codes, the one digit decode returns
        each kind's own formula's errors; a site's code leaves digits 2 and 3 at 0."""
        channel = NoiseChannel(kind, p)
        rng = np.random.default_rng(6)
        tests, width = (2, 1) if kind == "depolarizing1" else (1, 2)
        u = rng.random((3000, tests))
        code = rng.integers(1, 3 ** (2 * width), (3000, tests))
        got = _hit_exponents((u < p) * code, 3)
        assert not got[..., 2 * width:].any()
        got = got[..., :2 * width].reshape(3000, 2, 2)
        want = dense_noise_exponents(channel, 3, u, code)
        assert got.shape == (3000, 2, 2) and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.any() == (p > 0)


def circuit_with_tail(rng, n: int, clash: bool) -> tuple[Circuit, int]:
    """A random head (Clifford gates, mid-circuit measurements, X/Z
    feed-forward, noise, barriers) ending in a gate, then a tail of phased
    multi-site commuting measurements, one repeated and one dependent, with
    noise and a barrier among them; every measurement writes a creg of its
    own. clash puts a measurement that does not commute with the tail's last
    right before the tail. Returns the circuit and the index of its tail."""
    head = random_mixed_circuit(rng, n, weyl_branches=True)
    head.gate(weyl.fourier(int(rng.integers(n))))
    group = StabilizerTableau(3, n)
    for _ in range(4 * n):
        group.apply_gate(weyl.cx(0, 1) if n > 1 and rng.random() < 0.3 else
                         weyl.fourier(int(rng.integers(n))))
        group.apply_gate(weyl.conj_c(int(rng.integers(n))))
    e = rng.integers(1, 3, size=(int(rng.integers(1, n + 2)), n))
    x, z = e @ group.x[n:] % 3, e @ group.z[n:] % 3
    tail = [WeylOp(3, a, b, int(rng.integers(3))) for a, b in zip(x, z)]
    tail.append(WeylOp(3, tail[0].x, tail[0].z, int(rng.integers(3))))
    tail.append(tail[-1] @ tail[int(rng.integers(len(tail)))])
    tail = [w for w in tail if w.x.any() or w.z.any()]
    if clash:
        w = tail[-1]
        site = int(np.flatnonzero(w.x | w.z)[0])
        tail.insert(0, WeylOp.from_site(3, n, site, int(w.z[site] != 0), int(w.z[site] == 0)))
    c, latest = Circuit(3, n, 0), {}
    for ins in head.instructions:
        if isinstance(ins, Measure):
            latest[ins.creg] = c.n_cregs
            c.n_cregs += 1
            c.measure(ins.observable, latest[ins.creg])
        else:
            c.add(CondGate(latest[ins.creg], ins.predicate) if isinstance(ins, CondGate) else ins)
    c.noise(NoiseChannel("depolarizing1", 0.3), (0,))
    at = []
    for k, w in enumerate(tail):
        at.append(len(c.instructions))
        c.n_cregs += 1
        c.measure(w, c.n_cregs - 1)
        if k == len(tail) // 2:
            c.barrier().noise(NoiseChannel("depolarizing1", 0.3), (n - 1,))
    c.validate()
    return c, at[int(clash)]


class TestBatchedReference:
    """The frame compile's reference shot: _apply up to the last measurement or
    feed-forward before the tail, then one lookup of the tail's observables,
    conjugated back to that point by the backward pass."""

    def test_matches_forced_execute_on_random_circuits(self, monkeypatch):
        calls = count_tableau_calls(monkeypatch, "measure_weyl", "apply_gate")
        rng = np.random.default_rng(23)
        for trial in range(120):
            n, clash = int(rng.integers(1, 5)), trial % 2 == 1
            c, start = circuit_with_tail(rng, n, clash)
            assert circuit_module._reference_tail(c) == start, trial
            calls.update(measure_weyl=0, apply_gate=0)
            plan = circuit_module._compile_frames(c)
            compiled = dict(calls)
            # a collapse per measurement before the tail (the clashing one too), none after
            assert compiled["measure_weyl"] == sum(isinstance(i, Measure)
                                                   for i in c.instructions[:start])
            want, tab, replayed = [0] * c.n_cregs, StabilizerTableau(3, n), 0
            calls["apply_gate"] = 0
            for k, ins in enumerate(c.instructions):  # _apply skips Noise
                circuit_module._apply(ins, tab, want, force=0)
                if k < start and isinstance(ins, (Measure, CondGate)):
                    replayed = calls["apply_gate"]
            assert plan.ref.tolist() == want, trial
            # the gates up to the last measurement or feed-forward before the tail
            assert compiled["apply_gate"] == replayed, trial

    def test_tail_bounds(self):
        z0, x0 = WeylOp.from_site(3, 2, 0, 0, 1), WeylOp.from_site(3, 2, 0, 1, 0)
        c = Circuit(3, 2, 3).measure(z0, 0).gate(weyl.fourier(0))
        assert circuit_module._reference_tail(c) == 2  # no measurement after the last gate
        c.measure(x0, 1).barrier().measure(z0, 2)
        assert circuit_module._reference_tail(c) == 4  # x0 clashes with z0: only z0 is batched
        c.instructions[-1] = Measure(WeylOp.from_site(3, 2, 0, 1, 0, phase=1), 2)
        assert circuit_module._reference_tail(c) == 2  # both x0: all batched
        c.cond(2, {0: (), 1: (), 2: ()})
        assert circuit_module._reference_tail(c) == 6


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
        kinds2 = sorted(set(weyl.GateKind) - weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
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
                if not (w.x.any() or w.z.any()):
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
        """p = 1 on one two-qudit gate: the sampled frequency of the A face
        reading +1 matches the exhaustive enumeration of the 80 two-site errors."""
        lat = build_lattice(2, 2)
        prep = ground_state_circuit(lat)
        gates = [i.gate for i in prep.instructions]
        target_pair = gates[-1].targets
        noisy = Circuit(3, 4, 1)
        noisy.gates(gates)
        noisy.noise(NoiseChannel("depolarizing2", 1.0), target_pair)
        # enumeration oracle
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
        noisy.measure(a_face, 0)
        sampled = run_shots(noisy, 4000, base_seed=21).values[:, 0]
        assert np.mean(sampled == 0) == pytest.approx(expected_pi1, abs=0.03)

    def test_default_shot_count_standard_error(self):
        # 517 shots at p = 1/2 gives the quoted ~0.022 maximum standard error
        assert np.sqrt(0.25 / 517) == pytest.approx(0.022, abs=5e-4)


class TestNoiselessInvariants:
    def test_projector_values_in_stabilizer_set(self):
        lat = build_lattice(4, 2)
        circ = ground_state_circuit(lat)
        tab, _ = final_tableau(circ, seed=0)
        for p in lat.plaquettes:
            for a in range(3):
                v = projector_expectation(tab, p.operator(lat.n_sites), a)
                assert v in (0.0, 1.0) or v == pytest.approx(1 / 3)

    def test_b_plaquette_outcome_sums_vanish(self):
        lat = build_lattice(4, 2)
        circ = ground_state_circuit(lat)
        circ.extend(measure_all_circuit(lat, "z"))
        batch = run_shots(circ, 100, base_seed=5)
        for r in batch.values:
            for p in (p for p in lat.plaquettes if p.kind == "B"):
                total = sum(
                    e * int(r[s]) for s, e in zip(p.corners, p.exponents)
                ) % 3
                assert total == 0


class TestSerialization:
    def test_gate_only_circuit_written_as_documented(self):
        c = Circuit(3, 2, 2).gates([weyl.fourier(0), weyl.cx(0, 1), weyl.clock_z(1).inverse()])
        assert circuit_to_json(c) == {
            "schema": "qutrit-toric/circuit/v1",
            "d": 3,
            "n_qudits": 2,
            "n_cregs": 2,
            "instructions": [
                {"kind": "gate", "gate": "h", "targets": [0]},
                {"kind": "gate", "gate": "cx", "targets": [0, 1]},
                {"kind": "gate", "gate": "zdg", "targets": [1]},
            ],
        }
