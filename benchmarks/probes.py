"""Per-layer probes: direct calls into a layer's public functions, timed.

The traced run uses these where a span at the CLI boundary cannot
separate the work: the outcome tree inside run_shots, the tableau
operations inside a shot, the process pool, native synthesis, and
readout mitigation, which no CLI path runs yet.
"""

from __future__ import annotations

import time
from statistics import mean

import numpy as np

from qutrit_toric import cli, encoder
from qutrit_toric.analysis import ConfusionMatrix, mitigated_plaquette_triple
from qutrit_toric.circuit import (
    CondGate,
    Gate,
    Measure,
    Noise,
    exact_outcome_distribution,
    run_shots,
)
from qutrit_toric.encoder import SUPPORTED_GATES, decompose_gate
from qutrit_toric.lattice import build_lattice, ground_state_circuit, measure_all_circuit
from qutrit_toric.tableau import StabilizerTableau
from qutrit_toric.weyl import WeylOp

PREPARE_DEFAULTS = cli.build_parser().parse_args(["prepare"])


def prepare_circuits(lattice: tuple[int, int], noisy: bool):
    """The two measure-all circuits `prepare` runs, built as cmd_prepare builds them."""
    lat = build_lattice(*lattice)
    prep = ground_state_circuit(lat)
    out = []
    for basis in ("z", "x"):
        circ = (prep.with_noise(p1=PREPARE_DEFAULTS.p1, p2=PREPARE_DEFAULTS.p2)
                if noisy else prep.with_noise())
        circ.extend(measure_all_circuit(lat, basis))
        out.append(circ)
    return out


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def tree_probe(circuits) -> dict:
    """exact_outcome_distribution on each circuit: build seconds and useful ratio."""
    total, useful = 0.0, 0
    for circ in circuits:
        t0 = time.perf_counter()
        try:
            exact_outcome_distribution(circ)
            useful += 1
        except ValueError:
            pass
        total += time.perf_counter() - t0
    return {"circuit.tree_build_s": total,
            "circuit.tree_useful_ratio": useful / len(circuits)}


def pool_probe(circuit, shots: int, seed: int) -> tuple[dict, list[str]]:
    """run_shots with two worker processes against one; records must be equal."""
    t1, serial = _timed(run_shots, circuit, shots, base_seed=seed, parallelism=1)
    t2, pooled = _timed(run_shots, circuit, shots, base_seed=seed, parallelism=2)
    problems = [] if serial.records == pooled.records else [
        "run_shots records differ between parallelism 1 and 2"]
    return {"circuit.pool_speedup": t1 / t2}, problems


def _ground_state(lattice: tuple[int, int], seed: int):
    lat = build_lattice(*lattice)
    tab = StabilizerTableau(lat.d, lat.n_sites, np.random.default_rng(seed))
    gate_s = []
    for ins in ground_state_circuit(lat).instructions:
        if isinstance(ins, Gate):
            dt, _ = _timed(tab.apply_gate, ins.gate)
            gate_s.append(dt)
    return lat, tab, gate_s


def tableau_probe(circuits, lattice: tuple[int, int], seed: int, shots: int = 20) -> dict:
    """Replay the workload's instruction stream through the tableau's public methods.

    Noise instructions are not sampled: a Weyl error changes no later
    operation's cost, so apply_weyl is timed on its own and the noise
    count is the expected number of error events per shot.
    """
    rng = np.random.default_rng(seed)
    gate_s, rand_s, det_s = [], [], []
    n_gates = n_rand = n_det = 0
    noise_events = 0.0
    for circ in circuits:
        for ins in circ.instructions:
            if isinstance(ins, Noise):
                ch = ins.channel
                noise_events += ch.p * (len(ins.sites) if ch.kind == "depolarizing1" else 1)
        for _ in range(shots):
            tab = StabilizerTableau(circ.d, circ.n_qudits,
                                    np.random.default_rng(int(rng.integers(2**32))))
            creg = [0] * circ.n_cregs
            for ins in circ.instructions:
                if isinstance(ins, Gate):
                    gates = (ins.gate,)
                elif isinstance(ins, CondGate):
                    gates = ins.predicate[creg[ins.creg]]
                elif isinstance(ins, Measure):
                    dt, res = _timed(tab.measure_weyl, ins.observable)
                    creg[ins.creg] = res.value
                    (det_s if res.deterministic else rand_s).append(dt)
                    n_det += res.deterministic
                    n_rand += not res.deterministic
                    continue
                else:
                    continue
                for g in gates:
                    dt, _ = _timed(tab.apply_gate, g)
                    gate_s.append(dt)
                    n_gates += 1
    lat, tab, _ = _ground_state(lattice, seed)
    copy_s = [_timed(tab.copy)[0] for _ in range(50)]
    triple_s = [_timed(tab.projector_triple, p.operator(lat.n_sites, lat.d))[0]
                for p in lat.plaquettes]
    weyl_s = []
    for _ in range(50):
        sites = rng.choice(lat.n_sites, size=2, replace=False)
        pattern = {int(s): (int(rng.integers(3)), int(rng.integers(1, 3))) for s in sites}
        weyl_s.append(_timed(tab.apply_weyl, WeylOp.from_pattern(lat.d, lat.n_sites, pattern))[0])
    n_shots = shots * len(circuits)
    return {
        "tableau.apply_gate_us": 1e6 * mean(gate_s),
        "tableau.apply_weyl_us": 1e6 * mean(weyl_s),
        "tableau.measure_random_us": 1e6 * mean(rand_s),
        "tableau.measure_det_us": 1e6 * mean(det_s),
        "tableau.copy_us": 1e6 * mean(copy_s),
        "tableau.projector_triple_us": 1e6 * mean(triple_s),
        "tableau.gates_per_shot": n_gates / n_shots,
        "tableau.noise_events_per_shot": noise_events / len(circuits),
        "tableau.random_meas_per_shot": n_rand / n_shots,
        "tableau.det_meas_per_shot": n_det / n_shots,
    }


def scaling_probe(seed: int, measurements: int = 24) -> dict:
    """Gate and random-measurement cost at n = 96 and 384 (ground state + measure-all)."""
    out = {}
    for lattice in ((12, 8), (24, 16)):
        lat, tab, gate_s = _ground_state(lattice, seed)
        rand_s = []
        for ins in measure_all_circuit(lat, "z").instructions[:measurements + 1]:
            if isinstance(ins, Measure):
                dt, res = _timed(tab.measure_weyl, ins.observable)
                if not res.deterministic:
                    rand_s.append(dt)
        n = lat.n_sites
        out[f"tableau.apply_gate_us.n{n}"] = 1e6 * mean(gate_s)
        out[f"tableau.measure_random_us.n{n}"] = 1e6 * mean(rand_s)
    return out


def synth_probe(repeats: int = 5) -> dict:
    """decompose_gate over SUPPORTED_GATES, per call, with its per-process cache empty.

    encode_circuit synthesises per emitted gate whatever the cache misses,
    so the uncached cost is the one a change to synthesis moves.
    """
    saved = encoder._DECOMPOSE_CACHE
    t0 = time.perf_counter()
    try:
        for _ in range(repeats):
            encoder._DECOMPOSE_CACHE = {}
            for name in SUPPORTED_GATES:
                decompose_gate(name)
    finally:
        encoder._DECOMPOSE_CACHE = saved
    per_call = (time.perf_counter() - t0) / (repeats * len(SUPPORTED_GATES))
    return {"synth.decompose_gate_ms": 1e3 * per_call}


def mitigation_probe(retained: dict, lattice: tuple[int, int]) -> dict:
    """mitigated_plaquette_triple on each face, from the run's retained qubit records."""
    lat = build_lattice(*lattice)
    cm = ConfusionMatrix(PREPARE_DEFAULTS.spam_p01, PREPARE_DEFAULTS.spam_p10)
    times = []
    for basis, records in retained.items():
        want = "A" if basis == "x" else "B"
        for p in lat.plaquettes:
            if p.kind == want:
                dt, _ = _timed(mitigated_plaquette_triple, records, p.corners,
                               p.exponents, p.kind, cm)
                times.append(dt)
    return {"analysis.mitigate_ms_per_face": 1e3 * mean(times)}
