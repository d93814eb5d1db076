"""Lattice geometry, ground-state preparation, logicals, anyon strings."""

import numpy as np
import pytest

from qutrit_toric import lattice
from qutrit_toric.circuit import run_shots
from qutrit_toric.defects import solve_weyl_op
from qutrit_toric.estimators import estimate_plaquette_projectors
from qutrit_toric.lattice import (
    build_lattice,
    default_preparation_order,
    ground_state_circuit,
    measure_all_circuit,
    validate_preparation_order,
)
from qutrit_toric.weyl import WeylOp, symplectic_product

from oracles import (
    DenseState,
    expectation_weyl,
    final_tableau,
    implicit_plaquette,
    projector_expectation,
    xz_stacks,
    state_from_tableau,
)


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
        assert sum(p.kind == "B" for p in lat.plaquettes) == per_type

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

    @pytest.mark.parametrize("lx", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("ly", [2, 4, 6, 8])
    def test_face_stack_rows_are_the_face_operators(self, lx, ly):
        lat = build_lattice(lx, ly)
        n = lat.n_sites
        assert lat.face_x.shape == lat.face_z.shape == (len(lat.plaquettes), n)
        assert lat.face_x.dtype == lat.face_z.dtype == np.int64
        for f, p in enumerate(lat.plaquettes):
            op = p.operator(n)
            assert np.array_equal(lat.face_x[f], op.x) and np.array_equal(lat.face_z[f], op.z)
            assert op.phase == 0 and lat.site_index(*p.pos) == f

    def test_construction_check_reads_the_stack(self):
        """A corrupted stack fails the check: a non-commuting row names the first
        clashing pair; a squared row commutes but breaks the A-face product."""
        lat = build_lattice(6, 4)
        lat.face_x[5, 0] = 1
        ops = [WeylOp(3, x, z) for x, z in zip(lat.face_x, lat.face_z)]
        first = next((i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))
                     if symplectic_product(ops[i], ops[j]))
        message = rf"^faces {first[0]} and {first[1]} do not commute$"
        with pytest.raises(AssertionError, match=message):
            lat._check_construction()
        lat = build_lattice(6, 4)
        lat.face_x[0] = 2 * lat.face_x[0] % 3
        with pytest.raises(AssertionError, match="product of all A-faces is not the identity"):
            lat._check_construction()
        lat.face_x[0] = 2 * lat.face_x[0] % 3  # squared back: W^4 = W
        lat._check_construction()

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
            assert projector_expectation(tab, p.operator(lat.n_sites), 0) == 1.0

    @pytest.mark.parametrize("dims", [(6, 2), (4, 4), (6, 4)])
    def test_logical_sector(self, dims):
        lat, tab = prepared(*dims)
        for r in range(lat.ly):
            assert projector_expectation(tab, lat.logical_z_horizontal(r), 0) == 1.0
        for c in range(lat.lx):
            assert projector_expectation(tab, lat.logical_z_vertical(c), 0) == 1.0
        for r in range(lat.ly):
            assert projector_expectation(tab, lat.logical_x_horizontal(r), 0) == pytest.approx(1 / 3)
        for c in range(lat.lx):
            assert projector_expectation(tab, lat.logical_x_vertical(c), 0) == pytest.approx(1 / 3)

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


def diagonal_string(lat, kind, a, sites):
    """Uniform string on sites: Z^a for charges (A-face diagonals), X^a for fluxes (B-face)."""
    pattern = {lat.site_index(*q): (0, a) if kind == "A" else (a, 0) for q in sites}
    return WeylOp.from_pattern(lat.d, lat.n_sites, pattern)


def solved_move(lat, support, ends):
    """The presets' move: solve_weyl_op on support shifting each end face by its
    exponent and keeping every other face."""
    n = lat.n_sites
    keep = [p.operator(n) for p in lat.plaquettes if p.pos not in ends]
    change = [(lat.plaquette_at(*pos).operator(n), e) for pos, e in ends.items()]
    return solve_weyl_op(lat, support, *xz_stacks(keep, change))


def excited_sectors(lat, tab):
    """Face position -> sector of every face that does not read +1."""
    out = {}
    for p in lat.plaquettes:
        trip = tab.projector_triple(p.operator(lat.n_sites))
        if trip[0] != 1.0:
            out[p.pos] = trip.index(1.0)
    return out


class TestAnyonStrings:
    def test_single_site_charge_pair(self):
        lat, tab = prepared(6, 4)
        # Z on (2, 1): the BL corner (Xdag) of A-face (2, 0), the TR corner (X) of A-face (1, 1)
        ends = {(2, 0): 1, (1, 1): 2}
        op = solved_move(lat, [(2, 1)], ends)
        assert op == diagonal_string(lat, "A", 1, [(2, 1)])
        tab.apply_weyl(op)
        assert excited_sectors(lat, tab) == ends

    @pytest.mark.parametrize("species,kind,sector", [
        ("e", "A", 1), ("ebar", "A", 2), ("m", "B", 1), ("mbar", "B", 2),
    ])
    def test_species_signature_table(self, species, kind, sector):
        lat, tab = prepared(6, 4)
        x, y = (2, 2) if kind == "A" else (2, 1)
        path = [(x, y), (x + 1, y + 1)]
        head, tail = (x + 1, y + 1), (x - 1, y - 1)  # the faces past each end of the diagonal
        assert lat.plaquette_at(*head).kind == lat.plaquette_at(*tail).kind == kind
        ends = {head: sector, tail: -sector % 3}
        # the head's TL corner carries X (A) or Zdag (B), so the exponent is minus its sector
        op = diagonal_string(lat, kind, -sector % 3, path)
        assert solved_move(lat, path, ends) == op
        tab.apply_weyl(op)
        assert excited_sectors(lat, tab) == ends

    def test_closed_loop_trivial(self):
        lat, tab = prepared(6, 2)
        # diagonal orbit on 6x2 closes after 6 steps
        loop = [((2 + k) % 6, k % 2) for k in range(6)]
        op = diagonal_string(lat, "A", 1, loop)
        assert all(symplectic_product(op, p.operator(lat.n_sites)) == 0 for p in lat.plaquettes)
        before = [expectation_weyl(tab, p.operator(lat.n_sites)) for p in lat.plaquettes]
        zh = expectation_weyl(tab, lat.logical_z_horizontal(0))
        tab.apply_weyl(op)
        after = [expectation_weyl(tab, p.operator(lat.n_sites)) for p in lat.plaquettes]
        assert before == after
        assert expectation_weyl(tab, lat.logical_z_horizontal(0)) == zh

    def test_noisy_prep_concentrates_on_implicit_face(self):
        """Depolarizing noise drags spurious charges toward the face that is
        prepared implicitly, which then shows the lowest +1 weight."""
        lat = build_lattice(6, 4)
        circ = ground_state_circuit(lat).with_noise(p2=2e-3)
        circ.extend(measure_all_circuit(lat, "x"))
        imp = implicit_plaquette(lat).pos
        values = run_shots(circ, 3000, base_seed=77).values
        means = {tuple(f["pos"]): f["pi1"] for f in estimate_plaquette_projectors(values, "x", lat)}
        assert min(means, key=means.get) == imp
