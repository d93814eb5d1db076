"""Defect constructions: fused stabilizers, feed-forward, ribbon unitaries."""

import numpy as np
import pytest

from qutrit_toric.circuit import Gate, final_tableau
from qutrit_toric.defects import (
    CCRibbon,
    cc_defect_circuit,
    cc_ribbon_gates,
    fuse_cc_pair,
    pf_defect_circuit,
    solve_weyl_op,
)
from qutrit_toric.dense import DenseState, state_from_tableau
from qutrit_toric.lattice import build_lattice, ground_state_circuit
from qutrit_toric.tableau import StabilizerTableau
from qutrit_toric.weyl import WeylOp, conjugate_through, symplectic_product


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
        frag, spec = pf_defect_circuit(lat, (2, 1), species, 0)
        tab = run_fragment(lat, prep, frag, seed=seed)
        for op, _ in spec.stabilizers.values():
            assert tab.expectation_weyl(op) == pytest.approx(1)
        for p in lat.plaquettes:
            if p.pos in spec.transformed:
                continue
            assert tab.expectation_weyl(p.operator(lat.n_sites)) == pytest.approx(1)
        # logical sector undisturbed by feed-forward
        assert tab.expectation_weyl(lat.logical_z_horizontal(3)) == pytest.approx(1)
        assert tab.expectation_weyl(lat.logical_z_vertical(5)) == pytest.approx(1)

    def test_fused_stabilizers_are_weight_five(self):
        lat = build_lattice(6, 4)
        _, spec = pf_defect_circuit(lat, (2, 1), "PF", 0)
        for name in ("west", "east", "nonlocal"):
            assert len(spec.stabilizers[name][0].support) == 5

    def test_occupied_site_rejected(self):
        lat = build_lattice(6, 4)
        with pytest.raises(ValueError):
            pf_defect_circuit(lat, (2, 1), "XY", 0)

    def test_statevector_cross_check_4x2(self):
        """Dense oracle: defect creation on a small torus, endpoint
        stabilizers become +1 after feed-forward."""
        lat = build_lattice(4, 2)
        prep = ground_state_circuit(lat)
        frag, spec = pf_defect_circuit(lat, (2, 1), "PF", 0)
        for seed in range(4):
            tab = run_fragment(lat, prep, frag, seed=seed)
            dense = state_from_tableau(tab)
            from qutrit_toric.dense import weyl_matrix

            for name in ("west", "east", "nonlocal"):
                val = dense.expectation_weyl(spec.stabilizers[name][0])
                assert val == pytest.approx(1, abs=1e-8)


class TestCCDefect:
    def setup_method(self):
        self.lat = build_lattice(4, 4)
        self.ribbon = CCRibbon.canonical(self.lat, (1, 1), 2)

    def test_involution_on_vacuum(self):
        frag, _ = cc_defect_circuit(self.lat, self.ribbon)
        base, _ = final_tableau(ground_state_circuit(self.lat), seed=0)
        tab = base.copy(np.random.default_rng(0))
        for ins in frag.instructions:
            tab.apply_gate(ins.gate)
        for ins in frag.instructions:
            tab.apply_gate(ins.gate)
        assert tab.stabilizer_group_equals(base)

    def test_involution_on_random_stabilizer_states(self):
        from qutrit_toric import weyl

        frag, _ = cc_defect_circuit(self.lat, self.ribbon)
        gates = [ins.gate for ins in frag.instructions]
        rng = np.random.default_rng(5)
        kinds1 = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
        kinds2 = sorted(weyl.TWO_QUDIT_KINDS, key=lambda k: k.value)
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
            ref = tab.copy(np.random.default_rng(0))
            for g in gates + gates:
                tab.apply_gate(g)
            assert tab.stabilizer_group_equals(ref)

    def test_involution_dense_2x4(self):
        lat = build_lattice(2, 4)
        ribbon = CCRibbon.canonical(lat, (0, 1), 1)
        gates = cc_ribbon_gates(lat, ribbon)
        from qutrit_toric.dense import gate_matrix

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
            assert tab.expectation_weyl(op) == pytest.approx(1)

    def test_malformed_ribbon_rejected(self):
        # sigma inside the chain is invalid
        bad = CCRibbon(((1, 1), (2, 2)), (((1, 1), (2, 2), 1),))
        with pytest.raises(ValueError):
            cc_defect_circuit(self.lat, bad)

    def test_fusion_requires_cc_spec(self):
        lat = build_lattice(6, 4)
        _, pf_spec = pf_defect_circuit(lat, (2, 1), "PF", 0)
        with pytest.raises(ValueError):
            fuse_cc_pair(lat, pf_spec)


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
        if solve_weyl_op(lat, support, keep, change) is not None:
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
                if solve_weyl_op(lat, support, keep, change) is not None:
                    hits.append(v)
            assert hits == [vout], (from_face, vin, hits)
        # control: a hop far from the line keeps the species
        for vin in (1, 2):
            hits = []
            for v in (1, 2):
                keep = [op for key, op in stabs.items()
                        if key not in free and key not in (("B", (3, 0)), ("B", (0, 3)))]
                change = [(stabs[("B", (3, 0))], (-vin) % 3), (stabs[("B", (0, 3))], v)]
                if solve_weyl_op(lat, ((0, 0),), keep, change) is not None:
                    hits.append(v)
            assert hits == [vin]

    def test_pf_line_swaps_charge_and_flux(self):
        lat = build_lattice(4, 4)
        _, spec = pf_defect_circuit(lat, (1, 1), "PF", 0)
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
            _, spec = pf_defect_circuit(lat, (1, 1), species, 0)
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
