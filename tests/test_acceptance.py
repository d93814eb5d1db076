"""Acceptance suite: one test per criterion, each printing pass/fail.

Two target requirements are provably unattainable and are kept as
strict-xfail tests so the gap stays visible without being silently
weakened:

  * the exact encoded shift gate at one entangler: its magic-basis
    canonical class is (pi/4, pi/4, 0), and a single ZZPhase plus local
    rotations only reaches single-axis classes, so two entanglers is
    the mathematical minimum;
  * literal stabilizer-group equality between the measured two-line
    composite and the unitary conjugation-line state: the measured
    group contains weight-one mixed generators, while the conjugation
    circuit is a type-preserving shift/clock network whose transformed
    group has no such elements (exhaustive ribbon search concurs).
"""

import time

import numpy as np
import pytest

from qutrit_toric import weyl
from qutrit_toric.analysis import (
    ConfusionMatrix,
    energy_density,
    fidelity_bounds,
    mitigated_plaquette_triple,
    topological_qutrit_bounds,
)
from qutrit_toric.circuit import Circuit, exact_outcome_distribution, run_shots
from qutrit_toric.dense import gate_matrix
from qutrit_toric.defects import CCRibbon, cc_defect_circuit, pf_defect_circuit
from qutrit_toric.encoder import (
    SUPPORTED_GATES,
    compile_report,
    decode_qubit_records,
    herald_filter,
    per_qutrit_two_qubit,
    simulate_readout,
    verify_decomposition,
    zz_budget,
)
from qutrit_toric.estimators import estimate_plaquette_projectors
from qutrit_toric.experiments import (
    TopologicalQutritProtocol,
    cc_braid_script,
    pf_braid_script,
    pf_pfstar_script,
    topo_layout_6x2,
    topo_layout_6x4,
)
from qutrit_toric.lattice import build_lattice, ground_state_circuit, measure_all_circuit
from qutrit_toric.weyl import CliffordGate, GateKind, WeylOp, conjugate_through

from oracles import (
    dense_outcome_distribution,
    excited,
    final_tableau,
    forward_noise,
    projector_expectation,
    run_braid,
    spam_mitigate,
    stabilizer_group_equals,
    unfused_cc_braid_script,
    xz_stacks,
    weyl_matrix,
)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {criterion} {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1. ideal preparation -----------------------------------------------------------


def test_criterion_1_ideal_preparation():
    for dims in ((6, 4), (4, 4), (6, 2)):
        t0 = time.time()
        lat = build_lattice(*dims)
        tab, _ = final_tableau(ground_state_circuit(lat), seed=0)
        plaq_ok = all(
            projector_expectation(tab, p.operator(lat.n_sites), 0) == 1.0
            for p in lat.plaquettes
        )
        zh = all(projector_expectation(tab, lat.logical_z_horizontal(r), 0) == 1.0
                 for r in range(lat.ly))
        zv = all(projector_expectation(tab, lat.logical_z_vertical(c), 0) == 1.0
                 for c in range(lat.lx))
        xh = all(projector_expectation(tab, lat.logical_x_horizontal(r), 0) == 1 / 3
                 for r in range(lat.ly))
        xv = all(projector_expectation(tab, lat.logical_x_vertical(c), 0) == 1 / 3
                 for c in range(lat.lx))
        elapsed = time.time() - t0
        report(f"1 ideal preparation {dims}",
               plaq_ok and zh and zv and xh and xv and elapsed < 1.0,
               f"runtime {elapsed:.2f}s")


# -- 2. oracle equivalence ---------------------------------------------------------


def _random_measurement_circuit(rng, n, depth, n_meas):
    kinds1 = sorted(weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
    kinds2 = sorted(set(weyl.GateKind) - weyl.ONE_QUDIT_KINDS, key=lambda k: k.value)
    circ = Circuit(3, n, n_meas)
    gates = []
    for _ in range(depth):
        if n > 1 and rng.random() < 0.5:
            q = rng.choice(n, 2, replace=False)
            gates.append(CliffordGate(kinds2[rng.integers(4)], (int(q[0]), int(q[1]))))
        else:
            gates.append(CliffordGate(kinds1[rng.integers(7)], (int(rng.integers(n)),)))
    insert_at = sorted(rng.choice(depth + 1, size=n_meas, replace=True))
    obs = []
    k = 0
    for pos, g in enumerate(gates):
        while k < n_meas and insert_at[k] <= pos:
            site = int(rng.integers(n))
            w = WeylOp.from_site(3, n, site, int(rng.integers(3)), int(rng.integers(3)))
            if not (w.x.any() or w.z.any()):
                w = WeylOp.from_site(3, n, site, 1, 0)
            circ.measure(w, k)
            obs.append(w)
            k += 1
        circ.gate(g)
    while k < n_meas:
        site = int(rng.integers(n))
        w = WeylOp.from_site(3, n, site, 0, 1)
        circ.measure(w, k)
        obs.append(w)
        k += 1
    return circ, obs


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_exact = 0.0
    worst_margin = -1.0
    for trial in range(100):
        n = int(rng.integers(1, 6))
        n_meas = int(rng.integers(1, 5))
        depth = int(rng.integers(5, 31))
        circ, _ = _random_measurement_circuit(rng, n, depth, n_meas)
        exact = exact_outcome_distribution(circ)
        dense = dense_outcome_distribution(circ)
        keys = set(exact) | set(dense)
        tvd_exact = 0.5 * sum(abs(exact.get(k, 0) - dense.get(k, 0)) for k in keys)
        worst_exact = max(worst_exact, tvd_exact)
        batch = run_shots(circ, 10_000, base_seed=trial)
        emp = {}
        for r in map(tuple, batch.values.tolist()):
            emp[r] = emp.get(r, 0) + 1
        emp = {k: v / len(batch.values) for k, v in emp.items()}
        tvd_emp = 0.5 * sum(abs(emp.get(k, 0) - dense.get(k, 0)) for k in set(emp) | set(dense))
        bound = 0.5 * sum(
            3 * np.sqrt(max(dense.get(k, 0) * (1 - dense.get(k, 0)), 0) / 10_000)
            for k in set(emp) | set(dense)
        )
        worst_margin = max(worst_margin, tvd_emp - bound)
    report("2 oracle equivalence (distributions)",
           worst_exact < 1e-9 and worst_margin <= 1e-12,
           f"max exact TVD {worst_exact:.2e}, worst sampled margin {worst_margin:.4f}")

    # conjugation tables: every gate kind on every one/two-site generator
    failures = 0
    for kind in GateKind:
        targets = (0,) if kind in weyl.ONE_QUDIT_KINDS else (0, 1)
        g = CliffordGate(kind, targets)
        U = gate_matrix(kind, 3)
        n = len(targets)
        for code in range(9 ** n):
            digits = [(code // 3 ** i) % 3 for i in range(2 * n)]
            w = WeylOp(3, digits[:n], digits[n:])
            img = conjugate_through((g,), w)
            err = np.abs(weyl_matrix(img) - U @ weyl_matrix(w) @ U.conj().T).max()
            if err > 1e-10:
                failures += 1
    report("2 oracle equivalence (conjugation tables)", failures == 0,
           f"{failures} mismatches")


# -- 3 and 4: braids ---------------------------------------------------------------


def test_criterion_3_pf_braid():
    frames, runner = run_braid(pf_braid_script(), seed=0)
    final = next(f for f in frames if f["label"] == "final")
    exc = excited(final)
    a = [(p, t) for (k, p), t in exc.items() if k == "A"]
    b = [(p, t) for (k, p), t in exc.items() if k == "B"]
    dyon = (
        len(exc) == 2
        and len(a) == 1 and a[0][1][1] == 0.0 and a[0][1][2] == 1.0
        and len(b) == 1 and b[0][1][1] == 1.0 and b[0][1][2] == 0.0
    )
    lat = runner.lattice
    adjacent = len(
        set(lat.plaquette_at(*a[0][0]).corners) & set(lat.plaquette_at(*b[0][0]).corners)
    ) == 2
    # transmutation pattern: charge-type excitations before the crossing,
    # flux-type after
    before = next(f for f in frames if f["label"] == "charge-at-line")
    after = next(f for f in frames if f["label"] == "crossed-as-flux")
    moving_before = {k for (k, _), t in excited(before).items() if t[1] == 1.0}
    moving_after = {k for (k, _), t in excited(after).items() if t[1] == 1.0}
    pattern = moving_before == {"A"} and moving_after == {"B"}
    report("3 parafermion braid", dyon and adjacent and pattern,
           f"final excitations {sorted(exc)}")


def test_criterion_4_cc_braid_and_fusion():
    frames, runner = run_braid(cc_braid_script(), seed=0)
    created = next(f for f in frames if f["label"] == "pair-created")
    crossed = next(f for f in frames if f["label"] == "crossed-conjugated")
    args_before = {p: round(np.degrees(np.angle(
        sum(t[k] * np.exp(2j * np.pi * k / 3) for k in range(3))))) % 360
        for (kk, p), t in excited(created).items()}
    args_after = {p: round(np.degrees(np.angle(
        sum(t[k] * np.exp(2j * np.pi * k / 3) for k in range(3))))) % 360
        for (kk, p), t in excited(crossed).items()}
    flip = 240 in args_before.values() and 120 in args_after.values()
    fused = next(f for f in frames if f["label"] == "fused")
    single = list(excited(fused).items())
    single_ok = len(single) == 1 and single[0][0][0] == "B" and single[0][1][2] == 1.0
    final = next(f for f in frames if f["label"] == "defects-fused")
    revealed = [t for (k, p), t in excited(final).items()
                if p in [pos for pos, img in runner.defect_specs[0].transformed.items()
                         if len(img.support) > 4]]
    reveal_ok = len(revealed) == 1 and revealed[0][1] == 1.0
    # involution on the undisturbed vacuum
    lat = build_lattice(4, 4)
    frag, _ = cc_defect_circuit(lat, CCRibbon.canonical(lat, (1, 1), 2))
    base, _ = final_tableau(ground_state_circuit(lat), seed=0)
    tab = base.copy()
    for ins in frag.instructions:
        tab.apply_gate(ins.gate)
    for ins in frag.instructions:
        tab.apply_gate(ins.gate)
    involution = stabilizer_group_equals(tab, base)
    report("4 cc braid + fusion", flip and single_ok and reveal_ok and involution,
           f"arg flip {flip}, single residual {single_ok}, reveal {reveal_ok}, "
           f"involution {involution}")


# -- 5: fusion identity --------------------------------------------------------------


def test_criterion_5_fusion_identity_physical():
    """Composite action equals conjugation-line action: both braids end with
    exactly one conjugate flux, and the minimal crossing maps derived for
    the composite match the conjugation table for all four species."""
    frames_pf, _ = run_braid(pf_pfstar_script(), seed=0)
    frames_cc, _ = run_braid(unfused_cc_braid_script(), seed=0)
    end_pf = list(excited(next(f for f in frames_pf if f["label"] == "fused")).items())
    end_cc = list(excited(next(f for f in frames_cc if f["label"] == "fused")).items())
    same_content = (
        len(end_pf) == 1 and len(end_cc) == 1
        and end_pf[0][0][0] == end_cc[0][0][0] == "B"
        and end_pf[0][1] == end_cc[0][1]
    )
    # net species map through the two stacked lines, all four species:
    # crossing line 1 then line 2 conjugates (flux -> charge -> conjugate flux)
    from qutrit_toric.defects import solve_weyl_op

    lat = build_lattice(4, 4)
    stabs = {}
    frees = []
    base, _ = final_tableau(ground_state_circuit(lat), seed=0)
    for i, (site, species) in enumerate((((1, 1), "PF"), ((1, 3), "PFstar"))):
        _, spec = pf_defect_circuit(lat, site, species)
        for pos in spec.transformed:
            stabs.pop(("face", pos), None)
        stabs[(f"pf{i}", "west")] = spec.stabilizers["west"][0]
        stabs[(f"pf{i}", "east")] = spec.stabilizers["east"][0]
        stabs[(f"pf{i}", "W")] = spec.stabilizers["measured"][0]
        stabs[(f"pf{i}", "nl")] = spec.stabilizers["nonlocal"][0]
        frees.append((f"pf{i}", "nl"))
    occupied = {(1, 1), (1, 3)}
    covered = set()
    for i, site in enumerate(((1, 1), (1, 3))):
        x, y = site
        covered |= {((x - 1) % 4, (y - 1) % 4), (x % 4, (y - 1) % 4),
                    ((x - 1) % 4, y % 4), (x % 4, y % 4)}
    for p in lat.plaquettes:
        if p.pos not in covered:
            stabs[("face", p.pos)] = p.operator(lat.n_sites)
    full = tuple((x, y) for x in range(4) for y in range(4))
    net = {}
    for vin in (1, 2):
        hits = []
        for vmid in (1, 2):
            if solve_weyl_op(lat, full,
                             *xz_stacks([op for key, op in stabs.items()
                                         if key not in [frees[0]]
                                         and key not in (("face", (3, 0)), ("face", (2, 2)))],
                                        [(stabs[("face", (3, 0))], (-vin) % 3),
                                         (stabs[("face", (2, 2))], vmid)])) is None:
                continue
            for vout in (1, 2):
                if solve_weyl_op(lat, full,
                                 *xz_stacks([op for key, op in stabs.items()
                                             if key not in [frees[1]]
                                             and key not in (("face", (2, 2)), ("face", (2, 3)))],
                                            [(stabs[("face", (2, 2))], (-vmid) % 3),
                                             (stabs[("face", (2, 3))], vout)])) is not None:
                    hits.append(vout)
        net[vin] = sorted(set(hits))
    conjugation = net == {1: [2], 2: [1]}
    report("5 fusion identity (physical action)", same_content and conjugation,
           f"final frames match: {same_content}, net map {net}")


@pytest.mark.xfail(strict=True,
                   reason="measured composite group contains weight-1 mixed "
                          "generators that no image of shift/clock strings under "
                          "the conjugation-line unitary can reproduce")
def test_criterion_5_fusion_identity_literal_group_equality():
    lat = build_lattice(4, 4)
    base, _ = final_tableau(ground_state_circuit(lat), seed=0)
    pf_tab = base.copy()
    from qutrit_toric.circuit import Measure

    for site, species in (((1, 1), "PF"), ((1, 3), "PFstar")):
        frag, _ = pf_defect_circuit(lat, site, species)
        for ins in frag.instructions:
            if isinstance(ins, Measure):
                pf_tab.measure_weyl(ins.observable, force=0)
    cc_tab = base.copy()
    frag, _ = cc_defect_circuit(lat, CCRibbon.canonical(lat, (1, 1), 2))
    for ins in frag.instructions:
        cc_tab.apply_gate(ins.gate)
    assert stabilizer_group_equals(pf_tab, cc_tab)


# -- 6: topological qutrit ------------------------------------------------------------


def test_criterion_6_topological_qutrit():
    for name, layout in (("6x2", topo_layout_6x2()), ("6x4", topo_layout_6x4())):
        per_outcome = TopologicalQutritProtocol(layout).run()["per_outcome"]
        ok = len(per_outcome) == 3
        for j, res in enumerate(per_outcome):
            ok &= res["braid_triple"] == [1.0 if k == j else 0.0 for k in range(3)]
            ok &= res["neutrality_triple"] == [1.0, 0.0, 0.0]
            ok &= res["pair_projectors"] == [pytest.approx(1 / 3), pytest.approx(1 / 3)]
            ok &= all(complex(*v) == pytest.approx(1) for v in res["flux_endpoints"])
        report(f"6 topological qutrit {name}", bool(ok))


# -- 7: bound math ---------------------------------------------------------------------


def test_criterion_7_bound_math():
    b = fidelity_bounds(0.75, 0.68, 24)
    per_site_ok = (abs(b.per_site_lower - 0.9654) < 5e-4
                   and abs(b.per_site_upper - 0.9841) < 5e-4)
    row = topological_qutrit_bounds((0.92, 0.07, 0.01), (0.80, 0.09, 0.11), 0)
    row_ok = row.lower == pytest.approx(0.72) and row.upper == pytest.approx(0.80)
    report("7 bound math", per_site_ok and row_ok,
           f"per-site [{b.per_site_lower:.4f}, {b.per_site_upper:.4f}], "
           f"entangled row [{row.lower:.2f}, {row.upper:.2f}]")


# -- 8: encoder ------------------------------------------------------------------------


def test_criterion_8_encoder_matrices_and_counts():
    worst = max(verify_decomposition(name) for name in SUPPORTED_GATES)
    budgets = {name: zz_budget(name) for name in SUPPORTED_GATES}
    budgets_ok = (budgets["z"] == 0 and budgets["c"] == 1
                  and budgets["mprep"] == 1 and budgets["h"] == 3)
    lat = build_lattice(6, 4)
    rep_z = compile_report(ground_state_circuit(lat), basis="z", optimization_level=1)
    rep_x = compile_report(ground_state_circuit(lat), basis="x", optimization_level=1)
    counts_ok = (251 * 0.85 <= rep_z["two_qubit_count"] <= 251 * 1.15
                 and 189 * 0.85 <= rep_x["two_qubit_count"] <= 189 * 1.15)
    report("8 encoder", worst < 1e-10 and budgets_ok and counts_ok,
           f"max deviation {worst:.1e}, budgets {budgets}, "
           f"counts z={rep_z['two_qubit_count']} x={rep_x['two_qubit_count']}")


@pytest.mark.xfail(strict=True,
                   reason="the exact encoded shift permutation has two-axis "
                          "canonical class: one entangler is impossible")
def test_criterion_8_shift_budget_literal():
    assert zz_budget("x") == 1


# -- 9: readout mitigation ---------------------------------------------------------------


def test_criterion_9_spam_mitigation():
    cm = ConfusionMatrix()
    rng = np.random.default_rng(4)
    exact = {tuple(int(b) for b in np.binary_repr(i, 4)): float(p)
             for i, p in enumerate(rng.dirichlet(np.ones(16)))}
    recovered, _ = spam_mitigate(forward_noise(exact, cm), cm)
    round_trip = max(abs(recovered.get(k, 0.0) - v) for k, v in exact.items())

    lat = build_lattice(4, 4)
    prep = ground_state_circuit(lat)
    cm_big = ConfusionMatrix(p01=12e-3, p10=8e-3)
    raw, mitigated = [], []
    for basis in ("z", "x"):
        circ = prep.with_noise(p2=2e-3)
        circ.extend(measure_all_circuit(lat, basis))
        batch = run_shots(circ, 4000, base_seed=31)
        pairs = simulate_readout(batch.values, per_qutrit_two_qubit(prep, basis),
                                 p01=cm_big.p01, p10=cm_big.p10,
                                 leak_per_two_qubit=1e-4, seed=5)
        retained, _ = herald_filter(pairs)
        values = decode_qubit_records(retained)
        snaps = estimate_plaquette_projectors(values, basis, lat)
        raw.extend(s["pi1"] for s in snaps)
        want = "A" if basis == "x" else "B"
        for p in lat.plaquettes:
            if p.kind == want:
                mitigated.append(mitigated_plaquette_triple(
                    retained, p.corners, p.exponents, p.kind, cm_big)[0])
    improves = np.mean(mitigated) > np.mean(raw)
    report("9 readout mitigation", round_trip < 1e-12 and improves,
           f"round trip {round_trip:.1e}, mean raw {np.mean(raw):.4f} -> "
           f"mitigated {np.mean(mitigated):.4f}")


# -- 10: noisy ballpark -------------------------------------------------------------------


def test_criterion_10_noisy_ballpark():
    t0 = time.time()
    lat = build_lattice(6, 4)
    prep = ground_state_circuit(lat)
    snaps = []
    fracs = []
    for basis in ("z", "x"):
        circ = prep.with_noise(p2=2e-3)
        circ.extend(measure_all_circuit(lat, basis))
        batch = run_shots(circ, 5000, base_seed=42)
        pairs = simulate_readout(batch.values, per_qutrit_two_qubit(prep, basis), seed=7)
        retained, frac = herald_filter(pairs)
        fracs.append(frac)
        values = decode_qubit_records(retained)
        snaps.extend(estimate_plaquette_projectors(values, basis, lat))
    energy = energy_density(snaps, len(lat.plaquettes))
    elapsed = time.time() - t0
    energy_ok = -0.99 <= energy <= -0.90
    herald_ok = all(0.05 <= f <= 0.20 for f in fracs)
    report("10 noisy ballpark", energy_ok and herald_ok and elapsed < 60,
           f"energy {energy:.4f}, heralds {[round(f, 3) for f in fracs]}, "
           f"{elapsed:.0f}s for 10^4 shots")
