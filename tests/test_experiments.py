"""Braiding presets and the topological qutrit protocol."""

import numpy as np
import pytest

from qutrit_toric.circuit import Circuit, Gate, Measure, execute
from qutrit_toric.cli import main
from qutrit_toric.defects import CCRibbon, cc_defect_circuit, pf_defect_circuit
from qutrit_toric.experiments import (
    BRAID_PRESETS,
    Fuse,
    InsertCC,
    InsertPF,
    Move,
    Prepare,
    Script,
    ScriptRunner,
    Snapshot,
    TopologicalQutritProtocol,
    cc_braid_script,
    face_key,
    observable_frame,
    pf_braid_script,
    pf_pfstar_script,
    topo_layout_6x2,
    topo_layout_6x4,
)
from qutrit_toric.lattice import TorusLattice
from qutrit_toric.tableau import StabilizerTableau
from qutrit_toric.weyl import WeylOp, symplectic_product

from oracles import (
    dense_script_frames,
    excited,
    final_tableau,
    run_braid,
    stabilizer_group_equals,
    unfused_cc_braid_script,
    weyl_gates,
    xz_stacks,
)


def frame_by_label(frames, label):
    return next(f for f in frames if f["label"] == label)


def lifted(w):
    """An n-site operator on the topological-qutrit protocol's n + 1 qudits."""
    return WeylOp(w.d, np.append(w.x, 0), np.append(w.z, 0), w.phase)


def triple(entry):
    """A face entry's projector triple (Pi^1, Pi^omega, Pi^omega-bar)."""
    return entry["pi1"], entry["pi_omega"], entry["pi_omegabar"]


class TestPFBraid:
    def setup_method(self):
        self.frames, self.runner = run_braid(pf_braid_script(), seed=5)

    def test_defect_frame_clean(self):
        f0 = frame_by_label(self.frames, "defect-inserted")
        assert not excited(f0)
        assert all(r["pi1"] == 1.0 for r in f0["defect_stabilizers"])

    def test_final_frame_is_conjugate_charge_flux_dyon(self):
        final = frame_by_label(self.frames, "final")
        exc = excited(final)
        assert len(exc) == 2
        kinds = {k for k, _ in exc}
        assert kinds == {"A", "B"}
        a_trip = next(t for (k, _), t in exc.items() if k == "A")
        b_trip = next(t for (k, _), t in exc.items() if k == "B")
        assert (a_trip[1], a_trip[2]) == (0.0, 1.0)  # conjugate charge
        assert (b_trip[1], b_trip[2]) == (1.0, 0.0)  # flux
        # the two faces are edge-adjacent: a bound pair
        (pa,), (pb,) = ([p for k, p in exc if k == "A"], [p for k, p in exc if k == "B"])
        lat = self.runner.lattice
        ca = set(lat.plaquette_at(*pa).corners)
        cb = set(lat.plaquette_at(*pb).corners)
        assert len(ca & cb) == 2

    def test_transmutation_pattern_across_frames(self):
        before = frame_by_label(self.frames, "charge-at-line")
        after = frame_by_label(self.frames, "crossed-as-flux")
        moving_before = {k for k, t in excited(before).items() if t[1] == 1.0}
        moving_after = {k for k, t in excited(after).items() if t[1] == 1.0}
        assert all(k == "A" for k, _ in moving_before)   # charge before
        assert all(k == "B" for k, _ in moving_after)    # flux after

    def test_nonlocal_stabilizer_toggles_on_crossing(self):
        before = frame_by_label(self.frames, "charge-at-line")
        after = frame_by_label(self.frames, "crossed-as-flux")
        nb = next(r for r in before["defect_stabilizers"] if r["label"] == "pf0:nonlocal")
        na = next(r for r in after["defect_stabilizers"] if r["label"] == "pf0:nonlocal")
        assert nb["pi1"] == 1.0
        assert na["pi1"] == 0.0
        assert na["arg_deg"] == pytest.approx(240, abs=1)

    def test_endpoint_stabilizers_never_excited(self):
        for f in self.frames:
            for r in f["defect_stabilizers"]:
                if r["label"] in ("pf0:west", "pf0:east", "pf0:measured"):
                    assert r["pi1"] == 1.0, (f["label"], r["label"])

    def test_charge_and_flux_neutrality_every_frame(self):
        """Visible anyon content plus the dyon absorbed by the defect line
        (read through the nonlocal stabilizer sector) is conserved: some
        fixed weighting of the nonlocal sector balances the books for
        charges and fluxes simultaneously, across every frame."""

        def totals(frame, kind):
            return sum(t.index(1.0) for (k, _), t in excited(frame).items()
                       if k == kind) % 3

        def nl_sector(frame):
            r = next(x for x in frame["defect_stabilizers"] if x["label"] == "pf0:nonlocal")
            return triple(r).index(1.0)

        for kind in ("A", "B"):
            weights = [
                s for s in range(3)
                if len({(totals(f, kind) + s * nl_sector(f)) % 3
                        for f in self.frames}) == 1
            ]
            assert weights, kind
            # and the balanced total is zero (vacuum before any excitation)
            s = weights[0]
            assert (totals(self.frames[0], kind) + s * nl_sector(self.frames[0])) % 3 == 0


class TestCCBraid:
    def setup_method(self):
        self.frames, self.runner = run_braid(cc_braid_script(), seed=5)

    def test_argument_flip_on_crossing(self):
        created = frame_by_label(self.frames, "pair-created")
        crossed = frame_by_label(self.frames, "crossed-conjugated")
        lat = self.runner.lattice
        moving_before = next(t for (k, p), t in excited(created).items()
                             if p == (2, 1))
        moving_after = next(t for (k, p), t in excited(crossed).items()
                            if p == (1, 2))
        assert moving_before[2] == 1.0   # conjugate flux, arg 240
        assert moving_after[1] == 1.0    # flux, arg 120
    def test_wrap_and_fuse_leaves_single_conjugate_flux(self):
        fused = frame_by_label(self.frames, "fused")
        exc = excited(fused)
        assert len(exc) == 1
        ((kind, pos), trip), = exc.items()
        assert kind == "B" and trip[2] == 1.0

    def test_refusing_reveals_flux_at_endpoint(self):
        final = frame_by_label(self.frames, "defects-fused")
        exc = excited(final)
        assert len(exc) == 2
        revealed = [t for (k, p), t in exc.items() if p == (3, 2)]
        assert revealed and revealed[0][1] == 1.0  # a flux at the endpoint face
        assert not final["defect_stabilizers"]  # both endpoint observables left with the pair

    def test_internal_state_toggles_once(self):
        crossed = frame_by_label(self.frames, "crossed-conjugated")
        b_end = next(r for r in crossed["defect_stabilizers"] if r["label"] == "cc0:B-end")
        assert b_end["pi_omega"] == 1.0
        a_end = next(r for r in crossed["defect_stabilizers"] if r["label"] == "cc0:A-end")
        assert a_end["pi1"] == 1.0

    def test_charge_crossing_reveals_conjugate_charge(self):
        """A charge braid through the line leaves a single residual charge
        and toggles the internal charge state; fusing the pair reveals it as
        a charge at an endpoint face (charge sector of the fusion rules)."""
        from qutrit_toric.experiments import Fuse, InsertCC, Move, Prepare, Script, Snapshot
        from qutrit_toric.defects import CCRibbon

        s = Script("charge-crossing", 4, 4)
        full = tuple((x, y) for x in range(4) for y in range(4))
        s.steps = [
            Prepare(), InsertCC(CCRibbon.canonical(
                __import__("qutrit_toric.lattice", fromlist=["b"]).build_lattice(4, 4),
                (1, 1), 2)),
            Move(full, ((face_key("A", (2, 2)), 2),),
                 free=("cc0:A-end",), label="charge-braid-through-line"),
            Snapshot("braided"),
            Fuse(0),
            Snapshot("defects-fused"),
        ]
        frames, runner = run_braid(s, seed=1)
        braided = frame_by_label(frames, "braided")
        exc = excited(braided)
        assert set(exc) == {("A", (2, 2))}
        a_end = next(r for r in braided["defect_stabilizers"] if r["label"] == "cc0:A-end")
        assert a_end["pi1"] == 0.0   # internal charge state toggled
        b_end = next(r for r in braided["defect_stabilizers"] if r["label"] == "cc0:B-end")
        assert b_end["pi1"] == 1.0   # flux sector untouched
        final = frame_by_label(frames, "defects-fused")
        endpoint_positions = [p for p, img in runner.defect_specs[0].transformed.items()
                              if len(img.support) > 4]
        revealed = {pos: t for (k, pos), t in excited(final).items()
                    if pos in endpoint_positions}
        assert len(revealed) == 1
        (pos, trip), = revealed.items()
        assert runner.lattice.plaquette_at(*pos).kind == "A"
        assert trip[0] == 0.0 and 1.0 in (trip[1], trip[2])


class TestFuseStep:
    def test_fused_braid_cc_frame_is_defect_free(self):
        """After Fuse(0) every face is read plain again and no defect
        stabilizer is left."""
        _, runner = run_braid(cc_braid_script(), seed=5)
        lat = runner.lattice
        plain = sorted(lat.plaquettes, key=lambda p: face_key(p.kind, p.pos))
        assert runner.keys == [face_key(p.kind, p.pos) for p in plain]
        assert runner.kinds == [(p.kind, p.pos, False) for p in plain]
        x, z, _ = xz_stacks([p.operator(lat.n_sites) for p in plain])
        assert np.array_equal(runner.frame[0], x) and np.array_equal(runner.frame[1], z)
        assert not runner.frame[2].any()

    def test_fusing_a_pf_defect_is_refused(self):
        """Fuse applies only to CC pairs: a PF defect has no ribbon to re-apply."""
        from qutrit_toric.experiments import Fuse, InsertPF, Prepare, Script

        s = Script("fuse-pf", 4, 4)
        s.steps = [Prepare(), InsertPF((1, 1), "PF"), Fuse(0)]
        with pytest.raises(ValueError, match="CC defect spec"):
            ScriptRunner(s, seed=0).run()

    @pytest.mark.parametrize("script, index", [(cc_braid_script, 0), (pf_braid_script, 3)],
                             ids=["fused-twice", "never-inserted"])
    def test_fusing_a_defect_that_is_not_live_is_refused(self, script, index):
        """Fuse(i) fuses live defect i only: a second Fuse(0) on braid-cc
        (already fused) and Fuse(3) on braid-pf (never inserted) are refused,
        naming the index."""
        from qutrit_toric.experiments import Fuse, Snapshot

        s = script()
        s.steps += [Fuse(index), Snapshot("after")]
        with pytest.raises(ValueError, match=f"fuse names defect {index}, which is not live"):
            ScriptRunner(s, seed=0).run()


class TestFusionIdentity:
    """The stacked opposite-species pair composite acts as conjugation."""

    def test_composite_net_action_matches_cc(self):
        frames, _ = run_braid(pf_pfstar_script(), seed=5)
        fused = frame_by_label(frames, "fused")
        exc = excited(fused)
        assert len(exc) == 1
        ((kind, pos), trip), = exc.items()
        assert kind == "B" and trip[2] == 1.0  # single conjugate flux

    def test_intermediate_is_charge(self):
        frames, _ = run_braid(pf_pfstar_script(), seed=5)
        mid = frame_by_label(frames, "between-lines-as-charge")
        moving = [(k, t) for (k, p), t in excited(mid).items() if k == "A"]
        assert len(moving) == 1

    def test_stabilizer_groups_differ_microscopically(self):
        """The measured-line composite and the unitary line are inequivalent
        as stabilizer groups: the measured operators are single-site mixed
        strings, which no image of a shift/clock string can be."""
        from qutrit_toric.defects import CCRibbon, cc_defect_circuit, pf_defect_circuit

        lat = self.lat = __import__("qutrit_toric.lattice", fromlist=["build_lattice"]).build_lattice(4, 4)
        base, _ = final_tableau(__import__("qutrit_toric.lattice", fromlist=["g"]).ground_state_circuit(lat), seed=0)
        pf_tab = base.copy()
        for site, species in (((1, 1), "PF"), ((1, 3), "PFstar")):
            frag, _ = pf_defect_circuit(lat, site, species)
            for ins in frag.instructions:
                if isinstance(ins, Measure):
                    pf_tab.measure_weyl(ins.observable, force=0)
        cc_tab = base.copy()
        frag, _ = cc_defect_circuit(lat, CCRibbon.canonical(lat, (1, 1), 2))
        for ins in frag.instructions:
            cc_tab.apply_gate(ins.gate)
        assert not stabilizer_group_equals(pf_tab, cc_tab)


class TestScriptInfrastructure:
    def test_unrealizable_move_raises(self):
        script = pf_braid_script()
        script.steps.insert(3, Move(((0, 0),), ((face_key("A", (3, 3)), 1),),
                                    label="impossible"))
        with pytest.raises(ValueError, match="not realizable"):
            run_braid(script, seed=0)

    @pytest.mark.parametrize("changes, free, key", [
        (((face_key("A", (4, 2)), 1), (face_key("A", (9, 9)), 2)), (), "A@9,9"),
        (((face_key("A", (4, 2)), 1), (face_key("A", (3, 3)), 2)), ("pf7:nonlocal",),
         "pf7:nonlocal"),
    ], ids=["changes", "free"])
    def test_move_naming_a_key_the_frame_lacks_is_refused(self, changes, free, key):
        """A key that no frame row holds is a script error, whether the move
        changes it or frees it."""
        script = pf_braid_script()
        script.steps.insert(3, Move(((4, 3),), changes, free=free, label="typo"))
        with pytest.raises(ValueError, match=f"move 'typo' names '{key}'"):
            run_braid(script, seed=0)

    @pytest.mark.parametrize("changes, free", [
        (((face_key("A", (4, 2)), 1), (face_key("A", (3, 3)), 2), (face_key("A", (4, 2)), 2)),
         ()),
        (((face_key("A", (4, 2)), 1), (face_key("A", (3, 3)), 2)), (face_key("A", (3, 3)),)),
    ], ids=["changed-twice", "changed-and-freed"])
    def test_move_naming_a_key_twice_is_refused(self, changes, free):
        script = pf_braid_script()
        script.steps.insert(3, Move(((4, 3),), changes, free=free, label="twice"))
        with pytest.raises(ValueError, match="move 'twice' names a key twice"):
            run_braid(script, seed=0)

    @pytest.mark.parametrize("script", [
        pf_braid_script(), cc_braid_script(), pf_pfstar_script(), unfused_cc_braid_script(),
    ], ids=["braid-pf", "braid-cc", "fuse-pf-pfstar", "braid-cc-unfused"])
    def test_second_run_reproduces_every_frame(self, script):
        """A second run starts from a fresh frame and reproduces every frame."""
        frames, runner = run_braid(script, seed=4)
        keys, kinds, stack = runner.keys, runner.kinds, runner.frame
        again = runner.run()
        def triples(frames):
            return [[triple(s) for s in f["plaquettes"] + f["defect_stabilizers"]] for f in frames]

        assert triples(again) == triples(frames)
        assert (runner.keys, runner.kinds) == (keys, kinds)
        assert all(np.array_equal(a, b) for a, b in zip(runner.frame, stack))

    @pytest.mark.parametrize("name", BRAID_PRESETS)
    def test_move_weyl_update_equals_gate_replay(self, monkeypatch, name):
        """A move applies its solved operator, and a PF insert its correction, as
        one Weyl update: after each of them in every preset, the tableau arrays
        equal those that replaying the operator's shift and clock gates
        (weyl_gates) through execute leaves."""
        script, same = BRAID_PRESETS[name](), []
        apply_weyl = StabilizerTableau.apply_weyl

        def checked(tab, op):
            replay = tab.copy()
            execute(Circuit(tab.d, tab.n).gates(weyl_gates(op)), replay)
            apply_weyl(tab, op)
            same.append(all(np.array_equal(a, b) for a, b in
                            zip((tab.x, tab.z, tab.ph), (replay.x, replay.z, replay.ph))))

        monkeypatch.setattr(StabilizerTableau, "apply_weyl", checked)
        run_braid(script, seed=0)
        assert same == [True] * sum(isinstance(step, (Move, InsertPF)) for step in script.steps)


def random_script(rng: np.random.Generator) -> Script:
    """A PF or CC defect on 4x2 or 2x4, up to three full-support moves that
    shift two plain faces of one kind by opposite amounts with the defect's
    nonlocal keys free, a snapshot after each step, and for CC an optional
    fuse. A CC ribbon that does not fit the torus raises ValueError, and the
    runner refuses a move no operator makes with ValueError."""
    lx, ly = ((4, 2), (2, 4))[rng.integers(2)]
    lat = TorusLattice(lx, ly)
    site = (int(rng.integers(lx)), int(rng.integers(ly)))
    if rng.integers(2):
        insert, free = InsertPF(site, ("PF", "PFstar")[rng.integers(2)]), ("pf0:nonlocal",)
        _, spec = pf_defect_circuit(lat, site, insert.species)
    else:
        insert, free = InsertCC(CCRibbon.canonical(lat, site, int(rng.integers(1, 3)))), (
            "cc0:A-end", "cc0:B-end")
        _, spec = cc_defect_circuit(lat, insert.ribbon)
    keys, _, _ = observable_frame(lat, {0: spec})
    steps = [Prepare(), insert, Snapshot("inserted")]
    support = tuple((x, y) for x in range(lx) for y in range(ly))
    for k in range(rng.integers(4)):
        a, b = rng.choice([key for key in keys if key not in free], 2, replace=False)
        delta = int(rng.integers(1, 3))
        steps += [Move(support, ((a, delta), (b, 3 - delta)), free, f"move-{k}"),
                  Snapshot(f"move-{k}")]
    if isinstance(insert, InsertCC) and rng.integers(2):
        steps += [Fuse(0), Snapshot("fused")]
    return Script("random", lx, ly, steps)


class TestDenseScriptReplay:
    def test_random_scripts_match_dense_replay(self, monkeypatch):
        """Seeded random scripts: for every outcome of the PF measurement, every
        frame triple the runner writes equals the dense replay's to 1e-12, and
        the dense state right after the insert reads +1 on every frame key."""
        rng, measure_weyl = np.random.default_rng(16), StabilizerTableau.measure_weyl
        checked, kinds, fuses, worst = 0, set(), 0, 0.0
        for _ in range(48):
            try:
                script = random_script(rng)
                ScriptRunner(script).run()
            except ValueError:
                continue
            pf = isinstance(script.steps[1], InsertPF)
            for outcome in range(3) if pf else (0,):
                monkeypatch.setattr(StabilizerTableau, "measure_weyl",
                                    lambda tab, w, force=None, s=outcome: measure_weyl(tab, w, s))
                frames = ScriptRunner(script).run()
                dense = dense_script_frames(script, outcome)
                assert len(frames) == len(dense)
                # the inserted defect, corrected, leaves every frame key at +1
                assert all(abs(p[0] - 1) <= 1e-12 for p in dense[0].values())
                for frame, probs in zip(frames, dense):
                    rows = {e["label"]: triple(e)
                            for e in frame["plaquettes"] + frame["defect_stabilizers"]}
                    assert rows.keys() == probs.keys()
                    worst = max(worst, max(np.abs(np.subtract(rows[key], probs[key])).max()
                                           for key in rows))
            checked += 1
            kinds.add("PF" if pf else "CC")
            fuses += any(isinstance(step, Fuse) for step in script.steps)
        assert checked >= 25 and kinds == {"PF", "CC"} and fuses >= 1
        assert worst <= 1e-12


@pytest.mark.parametrize("layout_fn", [topo_layout_6x2, topo_layout_6x4])
class TestTopologicalQutrit:
    def test_ideal_values_per_outcome(self, layout_fn):
        proto = TopologicalQutritProtocol(layout_fn())
        run = proto.run()
        assert len(run["per_outcome"]) == 3
        for j, res in enumerate(run["per_outcome"]):
            assert res["ancilla_outcome"] == j
            expected = [1.0 if k == j else 0.0 for k in range(3)]
            assert res["braid_triple"] == expected
            assert res["neutrality_triple"] == [1.0, 0.0, 0.0]
            assert res["pair_projectors"] == [pytest.approx(1 / 3), pytest.approx(1 / 3)]
            for v in res["flux_endpoints"]:
                assert complex(*v) == pytest.approx(1)

    def test_sampled_outcomes_uniform(self, layout_fn):
        proto = TopologicalQutritProtocol(layout_fn())
        counts = [0, 0, 0]
        for seed in range(120):
            counts[proto.run(seed)["sampled_outcome"]] += 1
        assert min(counts) > 15

    def test_sampled_outcomes_pinned(self, layout_fn):
        """The sampled ancilla outcome for seeds 0-29, recorded when each
        outcome took its own run; forking one prefix draws the same."""
        proto = TopologicalQutritProtocol(layout_fn())
        pinned = [2, 1, 2, 2, 2, 2, 1, 2, 2, 1, 2, 0, 1, 2, 0, 2, 1, 2, 2, 1, 2, 0, 2, 0, 1,
                  1, 2, 0, 1, 2]
        assert [proto.run(seed)["sampled_outcome"] for seed in range(30)] == pinned

    def test_one_lookup_per_leaf(self, layout_fn, monkeypatch):
        """run reads the d leaves of the outcome tree, one batched lookup each;
        the sampled outcome takes no extra fork."""
        proto = TopologicalQutritProtocol(layout_fn())
        lookup, calls = StabilizerTableau.deterministic_outcomes, []

        def counting(self, x, z, ph):
            calls.append(len(x))
            return lookup(self, x, z, ph)

        monkeypatch.setattr(StabilizerTableau, "deterministic_outcomes", counting)
        proto.run(7)
        assert calls == [6] * proto.lattice.d  # braid loop, neutrality, two A and two B ends

    def test_deterministic_ancilla_is_an_invariant_failure(self, layout_fn, monkeypatch, capsys):
        """Without the Fourier sandwich on the ancilla its measurement reads 0 on
        every branch: one leaf with an empty path, refused by name (CLI exit 3)."""
        layout = layout_fn()
        proto = TopologicalQutritProtocol(layout)
        circuit = TopologicalQutritProtocol.circuit

        def without_ancilla_fourier(self):
            circ = circuit(self)
            alone = (self.ancilla,)
            circ.instructions = [ins for ins in circ.instructions
                                 if not (isinstance(ins, Gate) and ins.gate.targets == alone)]
            return circ

        monkeypatch.setattr(TopologicalQutritProtocol, "circuit", without_ancilla_fourier)
        with pytest.raises(AssertionError, match=r"not the protocol circuit's one random outcome: "
                           r"its outcome tree has leaves \[\(\)\]"):
            proto.run(0)
        lat = layout.lattice
        assert main(["topo-qutrit", "--lx", str(lat.lx), "--ly", str(lat.ly), "-o", "-"]) == 3
        assert "one random outcome" in capsys.readouterr().err

    def test_logical_shift_loop_cycles_sectors(self, layout_fn):
        """A flux braid around one defect pair advances the fusion-channel
        sector by exactly one step."""
        proto = TopologicalQutritProtocol(layout_fn())
        loop = proto.logical_shift_loop()
        deltas = set()
        for j in range(3):
            circ = proto.circuit()
            tab = StabilizerTableau(circ.d, circ.n_qudits, np.random.default_rng(0))
            for ins in circ.instructions:
                if isinstance(ins, Gate):
                    tab.apply_gate(ins.gate)
                elif isinstance(ins, Measure):
                    tab.measure_weyl(ins.observable, force=j)
            tab.apply_weyl(lifted(loop))
            triple = tab.projector_triple(lifted(proto.braid_loop))
            sector = triple.index(1.0)
            deltas.add((sector - j) % 3)
        assert len(deltas) == 1
        assert deltas.pop() in (1, 2)

    def test_runner_frame_matches_protocol_frame(self, layout_fn, monkeypatch):
        """Inserting the layout's two ribbons in a script gives the frame of the
        protocol's defects; the shift loop keeps all of it except the two A-type ends."""
        from qutrit_toric import experiments
        from qutrit_toric.experiments import InsertCC, Script

        layout = layout_fn()
        lat = layout.lattice
        proto = TopologicalQutritProtocol(layout)
        script = Script("two-ribbons", lat.lx, lat.ly, [InsertCC(r) for r in layout.ribbons])
        runner = ScriptRunner(script)
        runner.run()
        keys, kinds, stack = experiments.observable_frame(lat, dict(enumerate(proto.specs)))
        assert (runner.keys, runner.kinds) == (keys, kinds)
        assert all(np.array_equal(a, b) for a, b in zip(runner.frame, stack))
        ends = {pos for spec in proto.specs for pos, img in spec.transformed.items()
                if len(img.support) > 4}
        assert {pos for key, (_, pos, _) in zip(keys, kinds) if key.endswith("-end")} == ends
        # independent oracle: every face as the ribbons leave it, read under its face
        # key except at the nonlocal endpoints, which are read under their names
        faces = {p.pos: p.operator(lat.n_sites) for p in lat.plaquettes}
        for spec in proto.specs:
            faces.update(spec.transformed)
        frame = {face_key(p.kind, p.pos): faces[p.pos] for p in lat.plaquettes
                 if p.pos not in ends}
        frame.update((f"cc{i}:{name}", op) for i, spec in enumerate(proto.specs)
                     for name, (op, _) in spec.stabilizers.items())
        assert keys == sorted(frame)
        assert all(np.array_equal(x, op.x) and np.array_equal(z, op.z) and ph == op.phase
                   for x, z, ph, op in zip(*stack, (frame[key] for key in keys)))

        seen = []
        solve = experiments.solve_weyl_op

        def recording_solve(lattice, support, x, z, rhs):
            seen.append((x, z, rhs))
            return solve(lattice, support, x, z, rhs)

        monkeypatch.setattr(experiments, "solve_weyl_op", recording_solve)
        proto.logical_shift_loop()
        (call,) = seen
        expected = xz_stacks([frame[key] for key in keys if not key.endswith(":A-end")],
                             [(proto.braid_loop, 1)])
        assert all(np.array_equal(a, b) for a, b in zip(call, expected))

        def rows(x, z, rhs):
            return sorted(zip(map(tuple, x), map(tuple, z), map(int, rhs)))

        # as the loop was once derived: every face as the ribbons leave it except the
        # nonlocal endpoints, plus the B-type ends, kept; the braid loop shifted by one
        oracle = [op for pos, op in faces.items() if pos not in ends]
        oracle += [faces[pos] for pos in ends if lat.plaquette_at(*pos).kind == "B"]
        assert rows(*call) == rows(*xz_stacks(oracle, [(proto.braid_loop, 1)]))

    def test_braid_loop_commutes_with_every_local_stabilizer(self, layout_fn):
        layout = layout_fn()
        proto = TopologicalQutritProtocol(layout)
        lat = layout.lattice
        for spec in proto.specs:
            for pos, img in spec.transformed.items():
                kind = lat.plaquette_at(*pos).kind
                if len(img.support) > 4 and kind == "A":
                    # the charge braid addresses the charge-reading endpoints
                    assert symplectic_product(proto.braid_loop, img) != 0
                else:
                    assert symplectic_product(proto.braid_loop, img) == 0
        for p in lat.plaquettes:
            transformed = any(p.pos in s.transformed for s in proto.specs)
            if not transformed:
                assert symplectic_product(proto.braid_loop,
                                          p.operator(lat.n_sites)) == 0
