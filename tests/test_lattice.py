"""Lattice geometry, ground-state preparation, logicals, anyon strings."""

import numpy as np
import pytest

from qutrit_toric.circuit import final_tableau
from qutrit_toric import lattice
from qutrit_toric.dense import DenseState, state_from_tableau
from qutrit_toric.lattice import (
    anyon_string,
    build_lattice,
    default_preparation_order,
    ground_state_circuit,
    implicit_plaquette,
    string_excitations,
    validate_preparation_order,
)
from qutrit_toric.weyl import symplectic_product


def prepared(lx, ly, seed=0):
    lat = build_lattice(lx, ly)
    tab, _ = final_tableau(ground_state_circuit(lat), seed=seed)
    return lat, tab


class TestGeometry:
    @pytest.mark.parametrize("dims,n_sites,per_type", [
        ((6, 4), 24, 12), ((6, 2), 12, 6), ((4, 4), 16, 8), ((2, 2), 4, 2),
    ])
    def test_counts(self, dims, n_sites, per_type):
        lat = build_lattice(*dims)
        assert lat.n_sites == n_sites
        assert len(lat.a_plaquettes) == per_type
        assert len(lat.b_plaquettes) == per_type

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(5, 4)
        with pytest.raises(ValueError):
            build_lattice(4, 3)

    def test_checkerboard_alternates(self):
        lat = build_lattice(6, 4)
        for p in lat.plaquettes:
            x, y = p.pos
            for q in (lat.plaquette_at(x + 1, y), lat.plaquette_at(x, y + 1)):
                assert q.kind != p.kind

    def test_all_faces_commute(self):
        lat = build_lattice(4, 4)
        ops = [p.operator(lat.n_sites) for p in lat.plaquettes]
        for i in range(len(ops)):
            for j in range(len(ops)):
                assert symplectic_product(ops[i], ops[j]) == 0

    def test_face_product_is_identity(self):
        for dims in ((6, 4), (4, 2)):
            lat = build_lattice(*dims)
            for kind in ("A", "B"):
                exps = np.zeros(lat.n_sites, dtype=int)
                for p in lat.plaquettes:
                    if p.kind != kind:
                        continue
                    for s, e in zip(p.corners, p.exponents):
                        exps[s] += e
                assert not np.any(exps % 3)

    def test_construction_check_names_first_clashing_pair(self, monkeypatch):
        faces = build_lattice(6, 4).plaquettes
        monkeypatch.setattr(lattice, "A_EXPONENTS", (1, 0, 0, 0))
        ops = [p.operator(24) for p in faces]
        first = next((i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))
                     if symplectic_product(ops[i], ops[j]))
        message = rf"^faces {first[0]} and {first[1]} do not commute$"
        with pytest.raises(AssertionError, match=message):
            build_lattice(6, 4)

    def test_construction_check_rejects_face_product(self, monkeypatch):
        # these exponents keep every face pair commuting, but no corner sum vanishes
        monkeypatch.setattr(lattice, "A_EXPONENTS", (1, -1, -1, 1))
        monkeypatch.setattr(lattice, "B_EXPONENTS", (1, 1, 1, 1))
        with pytest.raises(AssertionError, match="product of all A-faces is not the identity"):
            build_lattice(6, 4)

    def test_logicals_commute_with_faces(self):
        lat = build_lattice(6, 4)
        logicals = [lat.logical_z_horizontal(1), lat.logical_z_vertical(2),
                    lat.logical_x_horizontal(0), lat.logical_x_vertical(3)]
        for L in logicals:
            for p in lat.plaquettes:
                assert symplectic_product(L, p.operator(lat.n_sites)) == 0

    def test_conjugate_logical_pairs_anticommute(self):
        lat = build_lattice(6, 4)
        zh = lat.logical_z_horizontal(0)
        xv = lat.logical_x_vertical(0)
        assert symplectic_product(zh, xv) != 0
        zv = lat.logical_z_vertical(0)
        xh = lat.logical_x_horizontal(0)
        assert symplectic_product(zv, xh) != 0


class TestPreparation:
    @pytest.mark.parametrize("dims", [(2, 2), (4, 2), (6, 2), (4, 4), (6, 4)])
    def test_all_projectors_one(self, dims):
        lat, tab = prepared(*dims)
        for p in lat.plaquettes:
            assert tab.projector_expectation(p.operator(lat.n_sites), 0) == 1.0

    @pytest.mark.parametrize("dims", [(6, 2), (4, 4), (6, 4)])
    def test_logical_sector(self, dims):
        lat, tab = prepared(*dims)
        for r in range(lat.ly):
            assert tab.projector_expectation(lat.logical_z_horizontal(r), 0) == 1.0
        for c in range(lat.lx):
            assert tab.projector_expectation(lat.logical_z_vertical(c), 0) == 1.0
        for r in range(lat.ly):
            assert tab.projector_expectation(lat.logical_x_horizontal(r), 0) == pytest.approx(1 / 3)
        for c in range(lat.lx):
            assert tab.projector_expectation(lat.logical_x_vertical(c), 0) == pytest.approx(1 / 3)

    def test_6x4_gate_counts(self):
        lat = build_lattice(6, 4)
        circ = ground_state_circuit(lat)
        from qutrit_toric.circuit import Gate

        hs = sum(1 for i in circ.instructions
                 if isinstance(i, Gate) and i.gate.kind.value == "h")
        assert hs == 11
        assert sum(1 for i in circ.instructions
                   if isinstance(i, Gate) and len(i.gate.targets) == 2) == 33

    def test_order_covers_all_but_one(self):
        for dims in ((6, 4), (6, 2), (4, 4)):
            lat = build_lattice(*dims)
            order = default_preparation_order(lat)
            assert len(order) == len(lat.a_plaquettes) - 1
            validate_preparation_order(lat, order)
            imp = implicit_plaquette(lat)
            assert imp.kind == "A"

    def test_validator_rejects_touched_representative(self):
        lat = build_lattice(4, 4)
        order = default_preparation_order(lat)
        # reuse the first face's representative corner for the second face
        bad = [order[0], ((order[1][0]), "TL")]
        p1 = lat.plaquette_at(*order[1][0])
        # find a corner of face 2 that face 1 already touched
        touched = set(lat.plaquette_at(*order[0][0]).corners)
        from qutrit_toric.lattice import CORNER_NAMES

        for name, site in zip(CORNER_NAMES, p1.corners):
            if site in touched:
                bad = [order[0], (order[1][0], name)]
                break
        with pytest.raises(ValueError, match="touched|listed"):
            validate_preparation_order(lat, bad)

    def test_dense_cross_check_2x2(self):
        lat, tab = prepared(2, 2)
        state = state_from_tableau(tab)
        dense = DenseState(3, 4)
        from qutrit_toric.circuit import Gate

        for ins in ground_state_circuit(lat).instructions:
            if isinstance(ins, Gate):
                dense.apply_gate(ins.gate)
        assert state.fidelity(dense) == pytest.approx(1, abs=1e-10)


class TestAnyonStrings:
    def test_single_site_charge_pair(self):
        lat, tab = prepared(6, 4)
        s = anyon_string(lat, "e", [(2, 1)])
        tab.apply_weyl(s.operator)
        excited = {}
        for p in lat.plaquettes:
            trip = tab.projector_triple(p.operator(lat.n_sites))
            if trip[0] != 1.0:
                excited[p.pos] = trip
        assert len(excited) == 2
        assert excited[s.head][1] == 1.0        # charge at the head
        assert excited[s.tail][2] == 1.0        # conjugate at the tail
        assert all(lat.plaquette_at(*pos).kind == "A" for pos in excited)

    @pytest.mark.parametrize("species,kind,sector", [
        ("e", "A", 1), ("ebar", "A", 2), ("m", "B", 1), ("mbar", "B", 2),
    ])
    def test_species_signature_table(self, species, kind, sector):
        lat, tab = prepared(6, 4)
        start = (2, 2) if kind == "A" else (2, 1)
        path = [start, ((start[0] + 1) % 6, (start[1] + 1) % 4)]
        s = anyon_string(lat, species, path)
        tab.apply_weyl(s.operator)
        head_face = lat.plaquette_at(*s.head)
        assert head_face.kind == kind
        trip = tab.projector_triple(head_face.operator(lat.n_sites))
        assert trip[sector] == 1.0

    def test_species_path_type_mismatch(self):
        lat = build_lattice(6, 4)
        with pytest.raises(ValueError, match="diagonal"):
            anyon_string(lat, "e", [(2, 1), (3, 1)])
        with pytest.raises(ValueError, match="strings need"):
            anyon_string(lat, "m", [(2, 2), (3, 3)])

    def test_closed_loop_trivial(self):
        lat, tab = prepared(6, 2)
        # diagonal orbit on 6x2 closes after 6 steps
        path = [((2 + k) % 6, k % 2) for k in range(7)]
        s = anyon_string(lat, "e", path)
        before = [tab.expectation_weyl(p.operator(lat.n_sites)) for p in lat.plaquettes]
        zh = tab.expectation_weyl(lat.logical_z_horizontal(0))
        tab.apply_weyl(s.operator)
        after = [tab.expectation_weyl(p.operator(lat.n_sites)) for p in lat.plaquettes]
        assert before == after
        assert tab.expectation_weyl(lat.logical_z_horizontal(0)) == zh
        assert not string_excitations(lat, s.operator)

    def test_noisy_prep_concentrates_on_implicit_face(self):
        """Depolarizing noise drags spurious charges toward the face that is
        prepared implicitly, which then shows the lowest +1 weight."""
        lat = build_lattice(6, 4)
        circ = ground_state_circuit(lat).with_noise(p2=2e-3)
        imp = implicit_plaquette(lat).pos
        sums = {p.pos: 0.0 for p in lat.a_plaquettes}
        n_shots = 3000
        for i in range(n_shots):  # shot i seeded by SeedSequence hashing of (77, i)
            seed = int(np.random.SeedSequence([77, i]).generate_state(1)[0])
            tab, _ = final_tableau(circ, seed=seed)
            for p in lat.a_plaquettes:
                sums[p.pos] += tab.projector_expectation(p.operator(lat.n_sites), 0)
        means = {pos: v / n_shots for pos, v in sums.items()}
        assert min(means, key=means.get) == imp
