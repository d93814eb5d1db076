"""Defect constructions: fused stabilizers, feed-forward, ribbon unitaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutrit_toric.circuit import Gate
from qutrit_toric.defects import (
    CCRibbon,
    cc_defect_circuit,
    cc_ribbon_gates,
    fuse_cc_pair,
    pf_defect_circuit,
    solve_weyl_op,
)
from qutrit_toric.lattice import build_lattice, ground_state_circuit
from qutrit_toric.tableau import StabilizerTableau
from qutrit_toric.weyl import GateKind, WeylOp, conjugate_through, symplectic_product

from oracles import (
    DenseState,
    expectation_weyl,
    final_tableau,
    stabilizer_group_equals,
    xz_stacks,
    state_from_tableau,
)


def run_fragment(lat, circ, fragment, seed=0):
    tab, _ = final_tableau(circ, seed=seed)
    tab.rng = np.random.default_rng(seed + 1)
    creg = {}
    from qutrit_toric.circuit import CondGate, Measure

    for ins in fragment.instructions:
        if isinstance(ins, Gate):
            tab.apply_gate(ins.gate)
        elif isinstance(ins, Measure):
            creg[ins.creg] = tab.measure_weyl(ins.observable).value
        elif isinstance(ins, CondGate):
            for g in ins.predicate[creg[ins.creg]]:
                tab.apply_gate(g)
    return tab


class TestParafermionDefect:
    @pytest.mark.parametrize("species", ["PF", "PFstar"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_endpoint_stabilizers_deterministic_plus_one(self, species, seed):
        lat = build_lattice(6, 4)
        prep = ground_state_circuit(lat)
        frag, spec = pf_defect_circuit(lat, (2, 1), species)
        tab = run_fragment(lat, prep, frag, seed=seed)
        for op, _ in spec.stabilizers.values():
            assert expectation_weyl(tab, op) == pytest.approx(1)
        for p in lat.plaquettes:
            if p.pos in spec.transformed:
                continue
            assert expectation_weyl(tab, p.operator(lat.n_sites)) == pytest.approx(1)
        # logical sector undisturbed by feed-forward
        assert expectation_weyl(tab, lat.logical_z_horizontal(3)) == pytest.approx(1)
        assert expectation_weyl(tab, lat.logical_z_vertical(5)) == pytest.approx(1)

    def test_fused_stabilizers_are_weight_five(self):
        lat = build_lattice(6, 4)
        _, spec = pf_defect_circuit(lat, (2, 1), "PF")
        for name in ("west", "east", "nonlocal"):
            assert len(spec.stabilizers[name][0].support) == 5

    def test_occupied_site_rejected(self):
        lat = build_lattice(6, 4)
        with pytest.raises(ValueError):
            pf_defect_circuit(lat, (2, 1), "XY")

    def test_statevector_cross_check_4x2(self):
        """Dense oracle: defect creation on a small torus, endpoint
        stabilizers become +1 after feed-forward."""
        lat = build_lattice(4, 2)
        prep = ground_state_circuit(lat)
        frag, spec = pf_defect_circuit(lat, (2, 1), "PF")
        for seed in range(4):
            tab = run_fragment(lat, prep, frag, seed=seed)
            dense = state_from_tableau(tab)
            for name in ("west", "east", "nonlocal"):
                val = dense.expectation_weyl(spec.stabilizers[name][0])
                assert val == pytest.approx(1, abs=1e-8)

    @pytest.mark.parametrize("lx,ly", [(2, 2), (4, 2), (2, 4)])
    def test_correction_meets_every_constraint_on_small_tori(self, lx, ly):
        """On a torus of side 2 the 3x3 correction block lists sites twice; the
        solved correction F (outcome 1's gate block) must still keep every
        untouched face and Z logical and shift W by -1 and each fused
        operator P Q^b W^-m by m."""
        lat = build_lattice(lx, ly)
        n, d = lat.n_sites, lat.d
        for x, y in ((x, y) for x in range(lx) for y in range(ly)):
            nw, ne, sw, se = lat.faces_of_site(x, y)
            for species in ("PF", "PFstar"):
                frag, spec = pf_defect_circuit(lat, (x, y), species)
                fx, fz = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
                for g in frag.instructions[1].predicate[1]:
                    (fx if g.kind is GateKind.SHIFT_X else fz)[g.targets[0]] += 1
                F = WeylOp(d, fx, fz)
                W = spec.stabilizers["measured"][0]
                where = (lx, ly, x, y, species)
                assert symplectic_product(F, W) == d - 1, where
                keep = [p.operator(n) for p in lat.plaquettes
                        if p.pos not in {nw.pos, ne.pos, sw.pos, se.pos}]
                keep += [lat.logical_z_horizontal(r) for r in range(ly)]
                keep += [lat.logical_z_vertical(c) for c in range(lx)]
                assert all(symplectic_product(F, op) == 0 for op in keep), where
                for name, P, Q in (("west", nw, sw), ("east", ne, se), ("nonlocal", nw, ne)):
                    fused = spec.stabilizers[name][0]
                    P, Q = P.operator(n), Q.operator(n)
                    m, = {m for m in range(d) for b in range(d)
                          if np.array_equal(*[np.r_[o.x, o.z]
                                              for o in (fused @ W.power(m), P @ Q.power(b))])}
                    assert symplectic_product(F, fused) == m, (*where, name)


def per_face_cc_defect(lat, ribbon):
    """(transformed, named ends) of a ribbon, one face at a time through
    conjugate_through: the loop cc_defect_circuit ran before it conjugated
    the whole face stack in one pass."""
    n = lat.n_sites
    gates = cc_ribbon_gates(lat, ribbon)
    transformed, ends = {}, []
    for p in lat.plaquettes:
        img = conjugate_through(gates, p.operator(n))
        if img != p.operator(n):
            transformed[p.pos] = img
            if len(img.support) > 4:
                ends.append((f"{p.kind}-end", (img, p.pos)))
    kinds = sorted(name[0] for name, _ in ends)
    if kinds != ["A", "B"]:
        raise ValueError(
            f"malformed ribbon: expected one shift-type and one clock-type endpoint, got {kinds}"
        )
    return transformed, dict(ends)


def seeded_ribbons():
    """(lattice, ribbon) cases: the braid-cc ribbon, both topological-qutrit
    layouts' ribbons, and seeded canonical ribbons from 4x4 to 8x6."""
    from qutrit_toric.experiments import topo_layout_6x2, topo_layout_6x4

    lat = build_lattice(4, 4)
    cases = [(lat, CCRibbon.canonical(lat, (1, 1), 2))]
    for layout in (topo_layout_6x2(), topo_layout_6x4()):
        cases += [(layout.lattice, r) for r in layout.ribbons]
    rng = np.random.default_rng(26)
    for lx, ly in [(4, 4), (6, 4), (4, 6), (6, 6), (8, 4), (8, 6)]:
        lat = build_lattice(lx, ly)
        for _ in range(6):
            start = (int(rng.integers(lx)), int(rng.integers(ly)))
            cases.append((lat, CCRibbon.canonical(lat, start, int(rng.integers(1, lx + 1)))))
    lat = build_lattice(4, 4)
    cases.append((lat, CCRibbon(((1, 1), (2, 2)), (((1, 1), (2, 2), 1),))))  # sigma on the chain
    return cases


class TestCCDefect:
    def setup_method(self):
        self.lat = build_lattice(4, 4)
        self.ribbon = CCRibbon.canonical(self.lat, (1, 1), 2)

    def test_involution_on_vacuum(self):
        frag, _ = cc_defect_circuit(self.lat, self.ribbon)
        base, _ = final_tableau(ground_state_circuit(self.lat), seed=0)
        tab = base.copy()
        for ins in frag.instructions:
            tab.apply_gate(ins.gate)
        for ins in frag.instructions:
            tab.apply_gate(ins.gate)
        assert stabilizer_group_equals(tab, base)

    def test_involution_on_random_stabilizer_states(self):
        from qutrit_toric import weyl

        frag, _ = cc_defect_circuit(self.lat, self.ribbon)
        gates = [ins.gate for ins in frag.instructions]
        rng = np.random.default_rng(5)
        kinds1 = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
        kinds2 = sorted(set(weyl.GateKind) - weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
        n = self.lat.n_sites
        for trial in range(200):
            tab = StabilizerTableau(3, n, np.random.default_rng(trial))
            for _ in range(20):
                if rng.random() < 0.4:
                    q = rng.choice(n, 2, replace=False)
                    tab.apply_gate(weyl.CliffordGate(kinds2[rng.integers(4)],
                                                     (int(q[0]), int(q[1]))))
                else:
                    tab.apply_gate(weyl.CliffordGate(kinds1[rng.integers(7)],
                                                     (int(rng.integers(n)),)))
            ref = tab.copy()
            for g in gates + gates:
                tab.apply_gate(g)
            assert stabilizer_group_equals(tab, ref)

    def test_involution_dense_2x4(self):
        lat = build_lattice(2, 4)
        ribbon = CCRibbon.canonical(lat, (0, 1), 1)
        gates = cc_ribbon_gates(lat, ribbon)
        state = DenseState(3, lat.n_sites, np.ones(3**lat.n_sites))
        ref = state.copy()
        for g in gates + gates:
            state.apply_gate(g)
        assert state.fidelity(ref) == pytest.approx(1, abs=1e-10)

    def test_endpoints_one_shift_one_clock(self):
        _, spec = cc_defect_circuit(self.lat, self.ribbon)
        kinds = sorted(
            self.lat.plaquette_at(*pos).kind
            for pos, img in spec.transformed.items()
            if len(img.support) > 4
        )
        assert kinds == ["A", "B"]

    def test_transformed_set_matches_heisenberg_propagation(self):
        frag, spec = cc_defect_circuit(self.lat, self.ribbon)
        gates = [ins.gate for ins in frag.instructions]
        for p in self.lat.plaquettes:
            img = conjugate_through(gates, p.operator(self.lat.n_sites))
            if p.pos in spec.transformed:
                assert img == spec.transformed[p.pos]
            else:
                assert img == p.operator(self.lat.n_sites)

    def test_transformed_all_plus_one_on_vacuum(self):
        frag, spec = cc_defect_circuit(self.lat, self.ribbon)
        tab, _ = final_tableau(ground_state_circuit(self.lat), seed=0)
        for ins in frag.instructions:
            tab.apply_gate(ins.gate)
        for p in self.lat.plaquettes:
            op = spec.transformed.get(p.pos, p.operator(self.lat.n_sites))
            assert expectation_weyl(tab, op) == pytest.approx(1)

    def test_one_pass_matches_per_face_loop(self):
        """The stack pass gives the per-face loop's transformed faces (in face
        order) and named ends, and the same ValueError for a malformed ribbon."""
        outcomes = []
        for lat, ribbon in seeded_ribbons():
            try:
                want = per_face_cc_defect(lat, ribbon)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    cc_defect_circuit(lat, ribbon)
                assert str(got.value) == str(exc)
                outcomes.append("malformed")
                continue
            _, spec = cc_defect_circuit(lat, ribbon)
            assert list(spec.transformed.items()) == list(want[0].items())
            assert spec.stabilizers == want[1]
            outcomes.append("ok")
        assert outcomes[:5] == ["ok"] * 5 and outcomes[-1] == "malformed"
        assert {"ok", "malformed"} <= set(outcomes[5:-1])

    def test_malformed_ribbon_rejected(self):
        # sigma inside the chain is invalid
        bad = CCRibbon(((1, 1), (2, 2)), (((1, 1), (2, 2), 1),))
        with pytest.raises(ValueError):
            cc_defect_circuit(self.lat, bad)

    def test_fusion_requires_cc_spec(self):
        lat = build_lattice(6, 4)
        _, pf_spec = pf_defect_circuit(lat, (2, 1), "PF")
        with pytest.raises(ValueError):
            fuse_cc_pair(lat, pf_spec)


class TestSolveWeylOp:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_row_order_and_repeats_leave_the_solution(self, seed, consistent):
        """The solution depends on the span of the constraint rows alone: permuting
        and duplicating rows (x, z and rhs together) gives the identical operator,
        or None for both when the system is inconsistent."""
        lat = build_lattice(4, 4)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 20))
        x, z = rng.integers(0, 3, (2, k, lat.n_sites)) * (rng.random((2, k, lat.n_sites)) < 0.3)
        support = [(int(a), int(b)) for a, b in rng.integers(0, 4, (int(rng.integers(1, 8)), 2))]
        if consistent:  # the shifts of some F on the support
            on_support = np.zeros(lat.n_sites, dtype=np.int64)
            on_support[[lat.site_index(*q) for q in support]] = 1
            f = WeylOp(3, *rng.integers(0, 3, (2, lat.n_sites)) * on_support)
            rhs = np.array([symplectic_product(f, WeylOp(3, a, b)) for a, b in zip(x, z)])
        else:
            rhs = rng.integers(0, 3, k)
        solved = solve_weyl_op(lat, support, x, z, rhs)
        assert (solved is not None) or not consistent
        if solved is not None:
            assert [symplectic_product(solved, WeylOp(3, a, b)) for a, b in zip(x, z)] == \
                list(rhs % 3)
        order = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, k)]))
        again = solve_weyl_op(lat, support, x[order], z[order], rhs[order])
        assert (again is None) == (solved is None)
        if solved is not None:
            assert np.array_equal(again.x, solved.x) and np.array_equal(again.z, solved.z)
            assert again.phase == solved.phase


def crossing_map(lat, stabs, free_keys, from_face, to_faces, in_value):
    """Which (face, value) a species maps to when crossing a defect line.

    Solvability of the move with everything else held fixed determines
    the transmutation: exactly one output should be consistent.
    """
    support = tuple((x, y) for x in range(lat.lx) for y in range(lat.ly))
    hits = []
    for target, value in to_faces:
        keep = [op for key, op in stabs.items()
                if key not in free_keys and key not in (from_face, target)]
        change = [(stabs[from_face], (-in_value) % 3), (stabs[target], value)]
        if solve_weyl_op(lat, support, *xz_stacks(keep, change)) is not None:
            hits.append((target, value))
    return hits


class TestTransmutationTable:
    """Crossing maps derived from commutation constraints, never hard-coded."""

    def _cc_frame(self):
        lat = build_lattice(4, 4)
        ribbon = CCRibbon.canonical(lat, (1, 1), 2)
        _, spec = cc_defect_circuit(lat, ribbon)
        stabs = {}
        free = []
        for p in lat.plaquettes:
            key = (p.kind, p.pos)
            stabs[key] = spec.transformed.get(p.pos, p.operator(lat.n_sites))
            if p.pos in spec.transformed and len(spec.transformed[p.pos].support) > 4:
                free.append(key)
        return lat, stabs, free

    def test_cc_line_conjugates_every_species(self):
        """Minimal single-site hops across the line: the only consistent
        output is the conjugate species, for all four anyons; far from the
        line the species is preserved."""
        lat, stabs, free = self._cc_frame()
        cases = [
            (("B", (2, 1)), ("B", (1, 2)), ((2, 2),), 1, 2),   # m -> mbar
            (("B", (2, 1)), ("B", (1, 2)), ((2, 2),), 2, 1),   # mbar -> m
            (("A", (3, 1)), ("A", (2, 2)), ((3, 2),), 1, 2),   # e -> ebar
            (("A", (3, 1)), ("A", (2, 2)), ((3, 2),), 2, 1),   # ebar -> e
        ]
        for from_face, to_face, support, vin, vout in cases:
            hits = []
            for v in (1, 2):
                keep = [op for key, op in stabs.items()
                        if key not in free and key not in (from_face, to_face)]
                change = [(stabs[from_face], (-vin) % 3), (stabs[to_face], v)]
                if solve_weyl_op(lat, support, *xz_stacks(keep, change)) is not None:
                    hits.append(v)
            assert hits == [vout], (from_face, vin, hits)
        # control: a hop far from the line keeps the species
        for vin in (1, 2):
            hits = []
            for v in (1, 2):
                keep = [op for key, op in stabs.items()
                        if key not in free and key not in (("B", (3, 0)), ("B", (0, 3)))]
                change = [(stabs[("B", (3, 0))], (-vin) % 3), (stabs[("B", (0, 3))], v)]
                if solve_weyl_op(lat, ((0, 0),), *xz_stacks(keep, change)) is not None:
                    hits.append(v)
            assert hits == [vin]

    def test_pf_line_swaps_charge_and_flux(self):
        lat = build_lattice(4, 4)
        _, spec = pf_defect_circuit(lat, (1, 1), "PF")
        stabs = {}
        for p in lat.plaquettes:
            if p.pos in spec.transformed:
                continue
            stabs[(p.kind, p.pos)] = p.operator(lat.n_sites)
        stabs[("defect", "west")] = spec.stabilizers["west"][0]
        stabs[("defect", "east")] = spec.stabilizers["east"][0]
        stabs[("defect", "W")] = spec.stabilizers["measured"][0]
        free = [("defect", "nonlocal")]
        stabs[("defect", "nonlocal")] = spec.stabilizers["nonlocal"][0]
        # a flux north of the line becomes a charge south of it (and the
        # value consistently maps accordingly)
        hits = crossing_map(lat, stabs, free, ("B", (3, 0)),
                            [(("A", (2, 2)), v) for v in (1, 2)], 2)
        assert len(hits) == 1
        # and a charge crossing becomes a flux
        hits2 = crossing_map(lat, stabs, free, ("A", (2, 2)),
                             [(("B", (3, 0)), v) for v in (1, 2)], hits[0][1])
        assert len(hits2) == 1
        assert hits2[0][1] == 2  # returns to the original conjugate sector

    def test_pf_and_pfstar_act_conjugately(self):
        lat = build_lattice(4, 4)
        outs = {}
        for species in ("PF", "PFstar"):
            _, spec = pf_defect_circuit(lat, (1, 1), species)
            stabs = {}
            for p in lat.plaquettes:
                if p.pos in spec.transformed:
                    continue
                stabs[(p.kind, p.pos)] = p.operator(lat.n_sites)
            stabs[("defect", "west")] = spec.stabilizers["west"][0]
            stabs[("defect", "east")] = spec.stabilizers["east"][0]
            stabs[("defect", "W")] = spec.stabilizers["measured"][0]
            stabs[("defect", "nonlocal")] = spec.stabilizers["nonlocal"][0]
            hits = crossing_map(lat, stabs, [("defect", "nonlocal")], ("B", (3, 0)),
                                [(("A", (2, 2)), v) for v in (1, 2)], 2)
            assert len(hits) == 1
            outs[species] = hits[0][1]
        assert outs["PF"] != outs["PFstar"]
        assert outs["PF"] == (-outs["PFstar"]) % 3
