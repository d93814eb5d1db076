"""Braiding experiments: scripted anyon moves over defected codes.

A script is an ordered list of steps (prepare, insert defects, move
anyons, fuse, snapshot), run in one loop. The steps that build a circuit
fragment (prepare, insert, fuse) execute it; a parafermion insert then
applies its defect's correction F^t, t the fragment's outcome, as a Weyl
update, the way a move applies its solved operator. The runner keeps an
observable frame as one keyed stack: sorted keys (faces and named defect
stabilizers), each key's kind, and the (x, z, phase) rows of the
operators now representing them (plain or transformed). Anyon moves are
solved at run time as Weyl operators satisfying linear commutation
constraints against that stack: kill the excitation here, recreate it
there, leave everything else alone (nonlocal defect stabilizers are left
free so crossings can toggle them, which is the physics being
demonstrated). Runs return their result-document entries as they are
written: the runner one frame per snapshot, the topological-qutrit
protocol one row per ancilla outcome, each read on a copy of its state
with the ancilla Z measurement forced to that outcome (one fork).

Shipped presets pin the geometries of the braiding and
topological-qutrit experiments; anyon paths are fixed up to topology
(which lines they cross and how they wind), not tied to any particular
drawn route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import topological_qutrit_bounds
from .circuit import Circuit, execute
from .defects import (
    CCRibbon,
    DefectSpec,
    cc_defect_circuit,
    fuse_cc_pair,
    pf_defect_circuit,
    solve_weyl_op,
)
from .estimators import snapshots_from_outcomes
from .lattice import TorusLattice, ground_state_circuit
from .modmath import mod_inverse
from .tableau import StabilizerTableau, outcome_expectation, outcome_triple
from .weyl import (
    WeylOp,
    compose,
    conjugate_through,
    cz,
    cz_dag,
    fourier,
    fourier_dag,
    symplectic_product,
)


# -- script steps --------------------------------------------------------------


@dataclass(frozen=True)
class Prepare:
    pass


@dataclass(frozen=True)
class InsertPF:
    site: tuple[int, int]
    species: str  # PF | PFstar


@dataclass(frozen=True)
class InsertCC:
    ribbon: CCRibbon


@dataclass(frozen=True)
class Move:
    """Solved anyon move: shift listed observables, keep the rest."""

    support: tuple[tuple[int, int], ...]
    changes: tuple[tuple[str, int], ...]  # (observable key, eigenvalue delta)
    free: tuple[str, ...] = ()
    label: str = ""


@dataclass(frozen=True)
class Fuse:
    defect: int


@dataclass(frozen=True)
class Snapshot:
    label: str


Step = Prepare | InsertPF | InsertCC | Move | Fuse | Snapshot


@dataclass
class Script:
    name: str
    lx: int
    ly: int
    steps: list[Step] = field(default_factory=list)


def face_key(kind: str, pos: tuple[int, int]) -> str:
    return f"{kind}@{pos[0]},{pos[1]}"


def observable_frame(lattice: TorusLattice, defects: dict[int, DefectSpec]
                     ) -> tuple[list[str], list[tuple[str, tuple[int, int], bool]],
                                tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Observable frame of the lattice with the given live defects (index -> spec).

    Each face is read through the last live defect that deforms it (plain
    when none does) under face_key(kind, pos); a face whose image is one
    of that defect's named stabilizers is read under the name instead.
    Named stabilizers are keyed pf<i>:<name> or cc<i>:<name>. Returns the
    keys in sorted order, per key (kind, position, transformed), and the
    stacked (x, z, ph) exponents of the operators, one row per key.
    """
    images: dict[tuple[int, int], tuple[WeylOp, bool]] = {}
    for spec in defects.values():
        named = [op for op, _ in spec.stabilizers.values()]
        images.update((pos, (img, img in named)) for pos, img in spec.transformed.items())
    rows: dict[str, tuple] = {}  # key -> ((kind, position, transformed), x, z, ph)
    for f, p in enumerate(lattice.plaquettes):
        op, named = images.get(p.pos, (None, False))
        if op is None:
            rows[face_key(p.kind, p.pos)] = ((p.kind, p.pos, False),
                                             lattice.face_x[f], lattice.face_z[f], 0)
        elif not named:
            rows[face_key(p.kind, p.pos)] = ((p.kind, p.pos, True), op.x, op.z, op.phase)
    for i, spec in defects.items():
        prefix = "cc" if spec.kind == "CC" else "pf"
        for name, (op, pos) in spec.stabilizers.items():
            rows[f"{prefix}{i}:{name}"] = (("defect", pos, True), op.x, op.z, op.phase)
    keys = sorted(rows)
    kinds, x, z, ph = zip(*(rows[key] for key in keys))
    return keys, list(kinds), (np.array(x), np.array(z), np.array(ph, dtype=np.int64))


class ScriptRunner:
    """Executes a script on a tableau, emitting frames at snapshot steps."""

    def __init__(self, script: Script, seed: int = 0):
        self.script = script
        self.lattice = TorusLattice(script.lx, script.ly)
        self.seed = seed
        self.keys: list[str] = []
        self.kinds: list[tuple[str, tuple[int, int], bool]] = []
        self.frame: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.defect_specs: list[DefectSpec] = []

    def run(self) -> list[dict]:
        """The frame entries of the result document, one per snapshot step.

        The observable frame (keys, kinds, frame) is written here and nowhere
        else: observable_frame rebuilds it from the live defects at each
        insert and fuse, so moves and snapshots read it current.
        """
        lat = self.lattice
        tab = StabilizerTableau(lat.d, lat.n_sites, np.random.default_rng(self.seed))
        self.defect_specs = []
        live: dict[int, DefectSpec] = {}
        self.keys, self.kinds, self.frame = observable_frame(lat, live)
        frames = []
        for step in self.script.steps:
            if isinstance(step, Move):
                tab.apply_weyl(self.solve_move(step))
            elif isinstance(step, Snapshot):
                frames.append(self._snapshot(tab, step.label))
            elif isinstance(step, Prepare):
                execute(ground_state_circuit(lat), tab)
            elif isinstance(step, Fuse):
                if step.defect not in live:
                    raise ValueError(f"fuse names defect {step.defect}, which is not live")
                execute(fuse_cc_pair(lat, live.pop(step.defect)), tab)
                self.keys, self.kinds, self.frame = observable_frame(lat, live)
            else:  # InsertPF or InsertCC
                frag, spec = (cc_defect_circuit(lat, step.ribbon) if isinstance(step, InsertCC)
                              else pf_defect_circuit(lat, step.site, step.species))
                outcomes = execute(frag, tab)
                if spec.correction is not None:
                    tab.apply_weyl(spec.correction.power(outcomes[0]))
                live[len(self.defect_specs)] = spec
                self.defect_specs.append(spec)
                self.keys, self.kinds, self.frame = observable_frame(lat, live)
        return frames

    def solve_move(self, step: Move) -> WeylOp:
        deltas = dict(step.changes)
        if len(deltas) < len(step.changes) or not deltas.keys().isdisjoint(step.free):
            raise ValueError(f"move '{step.label}' names a key twice in changes and free")
        for key in (*deltas, *step.free):
            if key not in self.keys:
                raise ValueError(f"move '{step.label}' names '{key}', which the frame "
                                 "does not hold")
        rows = [key not in step.free for key in self.keys]
        rhs = [deltas.get(key, 0) for key, row in zip(self.keys, rows) if row]
        x, z, _ = self.frame
        op = solve_weyl_op(self.lattice, step.support, x[rows], z[rows], rhs)
        if op is None:
            raise ValueError(f"move '{step.label}' is not realizable on its support")
        return op

    def _snapshot(self, tab: StabilizerTableau, label: str) -> dict:
        det = tab.deterministic_outcomes(*self.frame)
        snaps = snapshots_from_outcomes(det, [(*kind, key)
                                              for kind, key in zip(self.kinds, self.keys)])
        return {"label": label,
                "plaquettes": [s for s in snaps if s["kind"] in ("A", "B")],
                "defect_stabilizers": [s for s in snaps if s["kind"] not in ("A", "B")]}


# -- shipped braid presets -------------------------------------------------------


def pf_braid_script() -> Script:
    """Parafermion braid on 6x4: a charge crosses the defect line once,
    emerges as a flux, wraps the torus, and parks next to its partner,
    leaving the conjugate-charge/flux dyon."""
    s = Script("braid-pf", 6, 4)
    A, B = "A", "B"
    s.steps = [
        Prepare(),
        InsertPF((2, 1), "PF"),
        Snapshot("defect-inserted"),
        Move(((4, 3),), ((face_key(A, (4, 2)), 1), (face_key(A, (3, 3)), 2)),
             label="create-charge-pair"),
        Snapshot("pair-created"),
        Move(((4, 2),), ((face_key(A, (4, 2)), 2), (face_key(A, (3, 1)), 1)),
             label="drag-charge"),
        Snapshot("charge-at-line"),
        Move(tuple((x, y) for x in range(5) for y in range(4)),
             ((face_key(A, (3, 1)), 2), (face_key(B, (0, 1)), 1)),
             free=("pf0:nonlocal",), label="cross-line"),
        Snapshot("crossed-as-flux"),
        Move(((0, 1),), ((face_key(B, (0, 1)), 2), (face_key(B, (5, 0)), 1)),
             label="drag-flux-1"),
        Snapshot("flux-moving"),
        Move(((5, 0),), ((face_key(B, (5, 0)), 2), (face_key(B, (4, 3)), 1)),
             label="drag-flux-2"),
        Move(((4, 3),), ((face_key(B, (4, 3)), 2), (face_key(B, (3, 2)), 1)),
             label="drag-flux-3"),
        Snapshot("final"),
    ]
    return s


def cc_braid_script() -> Script:
    """CC braid on 4x4: a conjugate flux crosses the line (argument flip),
    wraps, and fuses with its pinned partner, leaving one conjugate
    flux; then the defect pair is fused to reveal the absorbed flux."""
    s = Script("braid-cc", 4, 4)
    lat = TorusLattice(4, 4)
    ribbon = CCRibbon.canonical(lat, (1, 1), 2)
    B = "B"
    s.steps = [
        Prepare(),
        InsertCC(ribbon),
        Snapshot("defect-inserted"),
        Move(((3, 1),), ((face_key(B, (2, 1)), 2), (face_key(B, (3, 0)), 1)),
             label="create-flux-pair"),
        Snapshot("pair-created"),
        Move(tuple((x, y) for x in range(4) for y in range(4)),
             ((face_key(B, (2, 1)), 1), (face_key(B, (1, 2)), 1)),
             free=("cc0:A-end", "cc0:B-end"), label="cross-line"),
        Snapshot("crossed-conjugated"),
        Move(((2, 3),), ((face_key(B, (1, 2)), 2), (face_key(B, (2, 3)), 1)),
             label="drag-1"),
        Snapshot("flux-moving"),
        Move(((3, 0),), ((face_key(B, (2, 3)), 2), (face_key(B, (3, 0)), 1)),
             label="fuse-with-partner"),
        Snapshot("fused"),
        Fuse(0),
        Snapshot("defects-fused"),
    ]
    return s


def pf_pfstar_script() -> Script:
    """Two stacked parafermion lines of opposite species on 4x4: a
    conjugate flux crossing both lines in sequence net-conjugates, the
    composite acting like a single charge-conjugation line."""
    s = Script("fuse-pf-pfstar", 4, 4)
    A, B = "A", "B"
    s.steps = [
        Prepare(),
        InsertPF((1, 1), "PF"),
        InsertPF((1, 3), "PFstar"),
        Snapshot("defects-inserted"),
        Move(((3, 0),), ((face_key(B, (3, 0)), 2), (face_key(B, (2, 3)), 1)),
             label="create-flux-pair"),
        Snapshot("pair-created"),
        Move(tuple((x, y) for x in range(4) for y in range(4)),
             ((face_key(B, (3, 0)), 1), (face_key(A, (2, 2)), 1)),
             free=("pf0:nonlocal",), label="cross-line-1"),
        Snapshot("between-lines-as-charge"),
        Move(tuple((x, y) for x in range(4) for y in range(4)),
             ((face_key(A, (2, 2)), 2), (face_key(B, (2, 3)), 1)),
             free=("pf1:nonlocal",), label="cross-line-2-and-fuse"),
        Snapshot("fused"),
    ]
    return s


BRAID_PRESETS = {"braid-pf": pf_braid_script, "braid-cc": cc_braid_script,
                 "fuse-pf-pfstar": pf_pfstar_script}


# -- topological qutrit protocol ----------------------------------------------------


@dataclass
class TopologicalQutritLayout:
    lattice: TorusLattice
    ribbons: tuple[CCRibbon, CCRibbon]
    connect_path: tuple[tuple[int, int], ...]  # plain-code charge path between
    # the two ribbon-start A-faces, conjugated into the braid loop


def topo_layout_6x2() -> TopologicalQutritLayout:
    lat = TorusLattice(6, 2)
    r1 = CCRibbon.canonical(lat, (1, 1), 1)
    r2 = CCRibbon.canonical(lat, (4, 0), 1)
    return TopologicalQutritLayout(lat, (r1, r2), ((1, 1), (2, 0), (3, 1)))


def topo_layout_6x4() -> TopologicalQutritLayout:
    lat = TorusLattice(6, 4)
    r1 = CCRibbon.canonical(lat, (1, 1), 2)
    r2 = CCRibbon.canonical(lat, (4, 3), 1)
    return TopologicalQutritLayout(lat, (r1, r2), ((1, 1), (2, 2), (3, 3)))


TOPO_LAYOUTS = {(6, 2): topo_layout_6x2, (6, 4): topo_layout_6x4}


class TopologicalQutritProtocol:
    """Two CC pairs entangled through an ancilla-controlled charge braid.

    The braid loop is the Heisenberg image, through both ribbon
    unitaries, of a plain charge string connecting the two ribbon-start
    faces; it commutes with every local stabilizer and shifts only the
    internal charge states of the two pairs. An ancilla prepared by a
    Fourier gate controls powers of clock gates along the loop, a
    conjugate Fourier maps the entanglement back, and the ancilla
    measurement selects one of the three entangled fusion-channel
    states.
    """

    def __init__(self, layout: TopologicalQutritLayout):
        lat = layout.lattice
        self.lattice = lat
        n, d = lat.n_sites, lat.d
        self.n_total = n + 1
        self.ancilla = n
        gates = []
        self.specs = []
        for ribbon in layout.ribbons:
            frag, spec = cc_defect_circuit(lat, ribbon)
            gates += [ins.gate for ins in frag.instructions]
            self.specs.append(spec)
        self.cc_gates = gates
        # pre-image charge string between the two A-type endpoints
        pattern = {lat.site_index(*q): (0, 1) for q in layout.connect_path}
        raw = WeylOp.from_pattern(d, n, pattern)
        self.braid_loop = conjugate_through(gates, raw)
        if np.any(self.braid_loop.x):
            raise AssertionError("braid loop is not clock-type; bad layout")
        self.a_ends = tuple(spec.stabilizers["A-end"][0] for spec in self.specs)
        self.b_ends = tuple(spec.stabilizers["B-end"][0] for spec in self.specs)
        s1 = symplectic_product(self.braid_loop, self.a_ends[0])
        s2 = symplectic_product(self.braid_loop, self.a_ends[1])
        if s1 == 0 or s2 == 0:
            raise AssertionError("braid loop does not address both defect pairs")
        self.correlator_exponent = (-s1 * mod_inverse(s2, d)) % d
        self.neutrality_op = compose(self.a_ends[0],
                                     self.a_ends[1].power(self.correlator_exponent))

    def circuit(self) -> Circuit:
        """The protocol's gates on the n + 1 qudits; run measures the ancilla."""
        lat = self.lattice
        circ = Circuit(lat.d, self.n_total)
        circ.gates(ins.gate for ins in ground_state_circuit(lat).instructions)
        circ.gates(self.cc_gates)
        circ.gate(fourier(self.ancilla))
        for i in sorted(self.braid_loop.support):
            e = int(self.braid_loop.z[i])
            circ.gate(cz(self.ancilla, int(i)) if e == 1 else cz_dag(self.ancilla, int(i)))
        circ.gate(fourier_dag(self.ancilla))
        return circ

    def run(self, seed: int = 0) -> dict:
        """Result entries: a row per ancilla outcome j, read on a copy of the protocol
        state with its ancilla Z forced to j, and the outcome the seed's first draw samples."""
        d = self.lattice.d
        tab = StabilizerTableau(d, self.n_total)
        execute(self.circuit(), tab)
        ancilla_z = WeylOp.from_site(d, self.n_total, self.ancilla, 0, 1)
        det = tab.deterministic_outcome(ancilla_z)
        if det is not None:
            raise AssertionError("the ancilla measurement is not the protocol circuit's one "
                                 f"random outcome: it reads {det} on every branch")
        ops = (self.braid_loop, self.neutrality_op, *self.a_ends, *self.b_ends)
        # stacked on the n + 1 protocol qudits: the ancilla column is 0
        stack = (np.pad([w.x for w in ops], ((0, 0), (0, 1))),
                 np.pad([w.z for w in ops], ((0, 0), (0, 1))), np.array([w.phase for w in ops]))
        forks = [tab.copy() for _ in range(d)]
        for j, fork in enumerate(forks):
            fork.measure_weyl(ancilla_z, force=j)
        return {"per_outcome": [self._row(fork, j, stack) for j, fork in enumerate(forks)],
                "sampled_outcome": int(np.random.default_rng(seed).integers(d))}

    def _row(self, tab: StabilizerTableau, outcome: int, stack) -> dict:
        """Row of one ancilla outcome from the lifted braid loop, neutrality, A and B
        ends (stacked) read on tab: sector triples, pair projectors, flux ends, bound."""
        d, k = tab.d, len(self.a_ends)
        braid, neutral, *ends = (int(s) for s in tab.deterministic_outcomes(*stack))
        braid_triple, neutrality_triple = outcome_triple(braid, d), outcome_triple(neutral, d)
        flux = [outcome_expectation(s, d) for s in ends[k:]]
        return {
            "ancilla_outcome": outcome,
            "braid_triple": list(braid_triple),
            "neutrality_triple": list(neutrality_triple),
            "pair_projectors": [outcome_triple(s, d)[0] for s in ends[:k]],
            "flux_endpoints": [[v.real, v.imag] for v in flux],
            "fidelity_bound": topological_qutrit_bounds(braid_triple, neutrality_triple,
                                                        outcome).as_dict(),
        }

    def logical_shift_loop(self) -> WeylOp:
        """Flux loop around one defect pair: cycles the fusion-channel sectors.

        Derived as a shift-type loop that commutes with every local face
        but addresses the braid loop once.
        """
        lat = self.lattice
        keys, _, (fx, fz, _) = observable_frame(lat, dict(enumerate(self.specs)))
        rows = [not key.endswith(":A-end") for key in keys]
        xs, zs = np.vstack([fx[rows], self.braid_loop.x]), np.vstack([fz[rows], self.braid_loop.z])
        rhs = [0] * sum(rows) + [1]  # keep the frame, address the braid loop once
        support = tuple((x, y) for x in range(lat.lx) for y in range(lat.ly))
        op = solve_weyl_op(lat, support, xs, zs, rhs)
        if op is None:
            raise AssertionError("no logical shift loop exists; bad layout")
        return op
