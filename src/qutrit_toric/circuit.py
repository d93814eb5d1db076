"""Circuit representation and shot-execution engine.

Instructions are gates, Weyl-observable measurements into classical
registers, outcome-conditioned gate blocks (feed-forward), depolarizing
Weyl noise, and barriers. `_apply` is the one place an instruction
acts on a tableau; `execute` loops over it.

`run_shots` samples with Weyl frames (Pauli-frame sampling carried over
to Z_d). One reference shot on the tableau (noise stripped, random
outcomes forced to 0) and one backward pass through the gates compile
each random draw into a fixed linear mod-d form over the outcomes; then
FRAME_BLOCK shots at a time draw their initial frames, measurement kicks
and noise hits in a few array calls and add the draws' forms. A noise
hit's code holds its error exponents as base-d digits, and
`_hit_exponents` decodes them for frames and `_apply` alike. X/Z-shift
feed-forward is a table over the value read; `run_shots` refuses any
other feed-forward before a draw. The values are a pure function of
(circuit, n_shots, base_seed).

`exact_outcome_distribution` enumerates noiseless circuits exactly: a
depth-first walk forks the tableau once per outcome of each random
measurement (refused before forking past a budget); a leaf reached
through r random outcomes has probability d^-r. It is the enumeration
oracle the samplers are tested against.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .tableau import StabilizerTableau
from .weyl import CliffordGate, GateKind, WeylOp, conjugate_rows

TREE_MAX_RANDOM_MEASUREMENTS = 8
FRAME_BLOCK = 1024  # shots per block of frame draws


@dataclass(frozen=True)
class Gate:
    gate: CliffordGate


@dataclass(frozen=True)
class Measure:
    observable: WeylOp
    creg: int


@dataclass(frozen=True)
class CondGate:
    """Apply predicate[outcome] (a gate list, possibly empty) after reading creg."""

    creg: int
    predicate: dict[int, tuple[CliffordGate, ...]]

    def __post_init__(self):
        norm = {int(k): tuple(v) for k, v in self.predicate.items()}
        object.__setattr__(self, "predicate", norm)


@dataclass(frozen=True)
class NoiseChannel:
    """Depolarizing noise: with probability p, a uniformly random non-identity
    Weyl error on each site (depolarizing1) or on the site pair (depolarizing2)."""

    kind: str  # depolarizing1 | depolarizing2
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in ("depolarizing1", "depolarizing2"):
            raise ValueError(f"unknown noise kind {self.kind}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("probability must be in [0,1]")


@dataclass(frozen=True)
class Noise:
    channel: NoiseChannel
    sites: tuple[int, ...]


@dataclass(frozen=True)
class Barrier:
    """Scheduling marker; carries no simulator semantics."""


Instruction = Gate | Measure | CondGate | Noise | Barrier


@dataclass
class ShotBatch:
    """Creg values of a batch of shots, one row per shot in shot-index order."""

    values: np.ndarray  # (n_shots, n_cregs), uint8

    def __len__(self) -> int:
        return len(self.values)

    @property
    def records(self) -> list[list[int]]:
        """Rows as lists; benchmarks/probes.py compares batches with this."""
        return self.values.tolist()


class Circuit:
    """Ordered instruction list over n_qudits qudits and n_cregs mod-d registers."""

    def __init__(self, d: int, n_qudits: int, n_cregs: int = 0):
        self.d = d
        self.n_qudits = n_qudits
        self.n_cregs = n_cregs
        self.instructions: list[Instruction] = []

    # builder helpers -------------------------------------------------------

    def add(self, instr: Instruction) -> "Circuit":
        self.instructions.append(instr)
        return self

    def gate(self, g: CliffordGate) -> "Circuit":
        return self.add(Gate(g))

    def gates(self, gs) -> "Circuit":
        for g in gs:
            self.gate(g)
        return self

    def measure(self, observable: WeylOp, creg: int) -> "Circuit":
        return self.add(Measure(observable, creg))

    def cond(self, creg: int, predicate: dict[int, tuple[CliffordGate, ...]]) -> "Circuit":
        return self.add(CondGate(creg, predicate))

    def noise(self, channel: NoiseChannel, sites: tuple[int, ...]) -> "Circuit":
        return self.add(Noise(channel, sites))

    def barrier(self) -> "Circuit":
        return self.add(Barrier())

    def extend(self, other: "Circuit") -> "Circuit":
        if (other.d, other.n_qudits) != (self.d, self.n_qudits):
            raise ValueError("circuit shape mismatch")
        self.n_cregs = max(self.n_cregs, other.n_cregs)
        self.instructions.extend(other.instructions)
        return self

    def validate(self) -> None:
        written: set[int] = set()

        def check_targets(gates):
            for g in gates:
                for t in g.targets:
                    if not (0 <= t < self.n_qudits):
                        raise ValueError(f"gate target {t} out of range")

        for ins in self.instructions:
            if isinstance(ins, Gate):
                check_targets((ins.gate,))
            elif isinstance(ins, Measure):
                if ins.observable.n != self.n_qudits or ins.observable.d != self.d:
                    raise ValueError("measurement observable shape mismatch")
                if not (0 <= ins.creg < self.n_cregs):
                    raise ValueError(f"creg {ins.creg} out of range")
                written.add(ins.creg)
            elif isinstance(ins, CondGate):
                if ins.creg not in written:
                    raise ValueError(f"creg {ins.creg} read before written")
                if set(ins.predicate.keys()) != set(range(self.d)):
                    raise ValueError("conditional predicate must cover all outcomes")
                check_targets(g for branch in ins.predicate.values() for g in branch)
            elif isinstance(ins, Noise):
                if ins.channel.kind == "depolarizing2" and len(ins.sites) != 2:
                    raise ValueError("depolarizing2 needs a site pair")
                if len(set(ins.sites)) != len(ins.sites):
                    raise ValueError(f"noise sites {ins.sites} repeat a site")
                for s in ins.sites:
                    if not (0 <= s < self.n_qudits):
                        raise ValueError(f"noise site {s} out of range")

    def has_noise(self) -> bool:
        return any(isinstance(i, Noise) for i in self.instructions)

    def with_noise(self, p1: float = 0.0, p2: float = 0.0) -> "Circuit":
        """Copy with depolarizing noise appended after each gate."""
        out = Circuit(self.d, self.n_qudits, self.n_cregs)
        ch1 = NoiseChannel("depolarizing1", p1)
        ch2 = NoiseChannel("depolarizing2", p2)
        for ins in self.instructions:
            out.add(ins)
            if isinstance(ins, Gate):
                tg = ins.gate.targets
                if len(tg) == 2 and p2 > 0:
                    out.noise(ch2, tg)
                elif len(tg) == 1 and p1 > 0:
                    out.noise(ch1, tg)
        return out


# -- execution ---------------------------------------------------------------


def _hit_exponents(code: np.ndarray, d: int, width: int) -> np.ndarray:
    """Error exponents of noise hit codes, shape (..., 2 * width): x0, z0, x1, z1.

    A hit's code, uniform in [1, d^(2 width)) over its test's width sites
    (1 for a depolarizing1 site, 2 for a depolarizing2 pair), holds the
    sites' x, z exponents as base-d digits, site by site; a code of 0 is no error.
    """
    return code[..., None] // d ** np.arange(2 * width) % d


def _apply(ins: Instruction, tab: StabilizerTableau, creg: list[int],
           force: int | None = None) -> None:
    """Apply one instruction to tab; a measurement writes its outcome into creg."""
    if isinstance(ins, Gate):
        tab.apply_gate(ins.gate)
    elif isinstance(ins, Measure):
        creg[ins.creg] = tab.measure_weyl(ins.observable, force).value
    elif isinstance(ins, CondGate):
        for g in ins.predicate[creg[ins.creg]]:
            tab.apply_gate(g)
    elif isinstance(ins, Noise):
        width = 1 if ins.channel.kind == "depolarizing1" else 2  # sites per hit test
        u = tab.rng.random(len(ins.sites) // width)
        code = tab.rng.integers(1, tab.d ** (2 * width), len(u))
        xz = _hit_exponents((u < ins.channel.p) * code, tab.d, width).reshape(-1, 2)
        if xz.any():
            tab.apply_weyl(WeylOp.from_pattern(tab.d, tab.n, dict(zip(ins.sites, xz))))
    # Barrier: nothing


def execute(circuit: Circuit, tab: StabilizerTableau, force: int | None = None) -> list[int]:
    """Apply the circuit's instructions to tab in order; return the creg values.

    Noise and random measurement outcomes are drawn from tab.rng, in
    instruction order. force pins every random measurement outcome.
    """
    creg = [0] * circuit.n_cregs
    for ins in circuit.instructions:
        _apply(ins, tab, creg, force)
    return creg


def final_tableau(circuit: Circuit, seed: int = 0) -> tuple[StabilizerTableau, list[int]]:
    """Run a shot and also return the post-circuit tableau (for snapshots)."""
    tab = StabilizerTableau(circuit.d, circuit.n_qudits, np.random.default_rng(seed))
    return tab, execute(circuit, tab)


def _outcome_leaves(circuit: Circuit) -> dict[tuple[int, ...], list[int]] | None:
    """Leaves of the exact outcome tree: {random outcomes on the path: creg values}.

    Depth first, holding one tableau per level. Returns None when the
    circuit is noisy or a branch reaches a random measurement with
    TREE_MAX_RANDOM_MEASUREMENTS outcomes already on its path; that
    branch is refused before it forks.
    """
    if circuit.has_noise():
        return None
    instructions = circuit.instructions
    leaves: dict[tuple[int, ...], list[int]] = {}

    def walk(start: int, tab: StabilizerTableau, creg: list[int], path: tuple[int, ...]) -> bool:
        for i in range(start, len(instructions)):
            ins = instructions[i]
            if not isinstance(ins, Measure):
                _apply(ins, tab, creg)
                continue
            det = tab.deterministic_outcome(ins.observable)
            if det is not None:
                creg[ins.creg] = det
                continue
            if len(path) == TREE_MAX_RANDOM_MEASUREMENTS:
                return False
            for s in range(circuit.d):
                child, child_creg = tab.copy(), list(creg)
                _apply(ins, child, child_creg, force=s)
                if not walk(i + 1, child, child_creg, path + (s,)):
                    return False
            return True
        leaves[path] = creg
        return True

    root = StabilizerTableau(circuit.d, circuit.n_qudits)
    return leaves if walk(0, root, [0] * circuit.n_cregs, ()) else None


# (x, z) exponents of each Weyl gate kind; conjugating a frame by one only moves its phase
_SHIFTS = {GateKind.SHIFT_X: (1, 0), GateKind.SHIFT_X_DAG: (-1, 0),
           GateKind.CLOCK_Z: (0, 1), GateKind.CLOCK_Z_DAG: (0, -1)}


def _check_feed_forward(circuit: Circuit) -> None:
    """Raise ValueError naming the first feed-forward gate that is not an X/Z shift."""
    kinds = (g.kind for ins in circuit.instructions if isinstance(ins, CondGate)
             for gates in ins.predicate.values() for g in gates)
    other = next((k for k in kinds if k not in _SHIFTS), None)
    if other is not None:
        raise ValueError(f"feed-forward gate {other.value!r} is not an X/Z shift; "
                         "run_shots samples Weyl frames only")


# a circuit's random draws as forms over its M measurements; see _compile_frames
_FramePlan = namedtuple("_FramePlan", "d ref source drawn p high start entries reads writer")


def _draw_block(plan: _FramePlan, rng: np.random.Generator, m: int) -> tuple:
    """Draws of m shots: an integer per drawn source row, then a hit uniform per
    shot and noise test, then a code per hit; returns the integers and the
    hits' shots, tests and codes, shot by shot."""
    src = rng.integers(plan.d, size=(m, len(plan.source)), dtype=np.uint8)
    shot, test = np.divmod(np.flatnonzero(rng.random((m, len(plan.p))) < plan.p), len(plan.p))
    return src, shot, test, rng.integers(1, plan.high[test])


def _hit_entries(plan: _FramePlan, test: np.ndarray) -> tuple:
    """For each nonzero form entry of hits on these tests: the hit, row, column, value."""
    k = plan.start[test + 1] - plan.start[test]
    e = np.arange(k.sum()) + np.repeat(plan.start[test] - np.cumsum(k) + k, k)
    return np.repeat(np.arange(len(test)), k), *plan.entries.take(e, axis=1)


def _run_frames(circuit: Circuit, n_shots: int, base_seed: int) -> np.ndarray:
    """Creg values of n_shots Weyl-frame shots around one reference shot.

    A shot is the reference (noise stripped, random outcomes forced to 0)
    times a phase-free Weyl frame. Block b of FRAME_BLOCK shots takes
    `_draw_block`'s draws from SeedSequence([base_seed, b]), adds the source
    draws' forms by one float product (exact on these small integers) and
    the hits' nonzero form entries, times their codes' digits, by a
    scatter-add per FRAME_BLOCK hits, then the feed-forward tables.
    """
    plan = _compile_frames(circuit)
    written = plan.writer >= 0
    values = np.zeros((n_shots, circuit.n_cregs), dtype=np.uint8)
    for b, lo in enumerate(range(0, n_shots, FRAME_BLOCK)):
        m = min(FRAME_BLOCK, n_shots - lo)
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, b]))
        src, shot, test, code = _draw_block(plan, rng, m)
        out = plan.ref + (src.astype(float) @ plan.source).astype(np.int64)
        flat = out.reshape(-1)  # a view: shot i's measurement j sits at i * M + j
        # FRAME_BLOCK hits at a time, so memory stays bounded at any hit rate
        for h in range(0, len(test), FRAME_BLOCK):
            hits = slice(h, h + FRAME_BLOCK)
            i, row, col, val = _hit_entries(plan, test[hits])
            xz = _hit_exponents(code[hits], plan.d, 2)  # a site's code leaves digits 2, 3 at 0
            np.add.at(flat, shot[hits][i] * out.shape[1] + col, xz[i, row] * val)
        for read, table in plan.reads:
            out += table[out[:, read] % plan.d]
        values[lo:lo + m, written] = out[:, plan.writer[written]] % plan.d
    return values


def _compile_frames(circuit: Circuit) -> _FramePlan:
    """Linear mod-d outcome forms of the random draws, over the M measurements.

    A reference shot (noise stripped, random outcomes forced to 0) gives
    `ref` and the value each CondGate reads. Walking back, rows of bx, bz
    hold each measured W conjugated back to here (zero before W is
    measured); s(g F g^dag, W) = s(F, g^dag W g), so a draw F here moves the
    outcomes by F.x . bz - F.z . bx. `source`: float forms of the `drawn`
    rows among the initial Z frame's n rows and the K kicks, those with a
    nonzero form (the others move no outcome). Per noise hit test (a
    depolarizing1 site or a depolarizing2 pair): hit probability `p`, code
    range end `high` (d^2 or d^4), and the nonzero entries of its form over
    its sites' exponents x0, z0, x1, z1 (the code's digits), as (row,
    column, value) columns of `entries` from `start[test]` to
    `start[test + 1]`. `reads`: per shift feed-forward, the measurement
    read and a (d, M) table.
    """
    d, n = circuit.d, circuit.n_qudits
    tab, creg = StabilizerTableau(d, n), [0] * circuit.n_cregs
    writer = [-1] * circuit.n_cregs
    ref, read_at = [], []  # read_at: (source measurement, its reference value) per CondGate
    for ins in circuit.instructions:
        if not isinstance(ins, Noise):
            _apply(ins, tab, creg, force=0)
        if isinstance(ins, Measure):
            writer[ins.creg] = len(ref)
            ref.append(creg[ins.creg])
        elif isinstance(ins, CondGate):
            read_at.append((writer[ins.creg], creg[ins.creg]))
    bx, bz = np.zeros((2, len(ref), n), dtype=np.int64)
    ph = np.zeros(len(ref), dtype=np.int64)  # scratch for conjugate_rows, never read
    kicks, p, high, forms, reads, j = [], [], [], [], [], len(ref)
    for ins in reversed(circuit.instructions):
        if isinstance(ins, Gate):
            conjugate_rows(ins.gate.inverse(), bx, bz, ph, d)
        elif isinstance(ins, Noise):
            width = 1 if ins.channel.kind == "depolarizing1" else 2  # sites per hit test
            for s in np.reshape(ins.sites, (-1, width))[::-1]:
                form = np.zeros((4, len(ref)), dtype=np.int64)  # rows x0, z0, x1, z1
                form[0:2 * width:2], form[1:2 * width:2] = bz[:, s].T, -bx[:, s].T
                p.append(ins.channel.p)
                high.append(d ** (2 * width))
                forms.append(form)
        elif isinstance(ins, Measure):
            w = ins.observable
            kicks.append(bz @ w.x - bx @ w.z)
            j -= 1
            bx[j], bz[j] = w.x, w.z
        elif isinstance(ins, CondGate):
            src, at = read_at.pop()
            shift = np.zeros((d, 2, n), dtype=np.int64)  # x, z exponents of each branch
            for k, gates in ins.predicate.items():
                for g in gates:
                    shift[k, :, g.targets[0]] += _SHIFTS[g.kind]
            shift = shift - shift[at]
            reads.append((src, shift[:, 0] @ bz.T - shift[:, 1] @ bx.T))
    source = np.concatenate([-bx.T, np.reshape(kicks[::-1], (len(kicks), len(ref)))]) % d
    drawn = np.flatnonzero(source.any(axis=1))  # a row of zeros moves no outcome
    forms = np.reshape(forms[::-1], (len(forms), 4, len(ref)))
    t, r, c = np.nonzero(forms)  # the forms' nonzero entries, test by test
    return _FramePlan(d, np.array(ref, dtype=np.int64), source[drawn].astype(float), drawn,
                      np.array(p[::-1], dtype=float), np.array(high[::-1], dtype=np.int64),
                      np.searchsorted(t, np.arange(len(forms) + 1)),
                      np.stack([r, c, forms[t, r, c]]), reads[::-1],
                      np.array(writer, dtype=np.int64))


def run_shots(circuit: Circuit, n_shots: int, base_seed: int = 0,
              parallelism: int = 1) -> ShotBatch:
    """Run n_shots as Weyl frames; the values are a pure function of
    (circuit, n_shots, base_seed).

    Feed-forward other than X/Z shifts is refused with ValueError before
    any draw. parallelism is not read; benchmarks/probes.py still passes it.
    """
    circuit.validate()
    _check_feed_forward(circuit)
    return ShotBatch(_run_frames(circuit, n_shots, base_seed))


def exact_outcome_distribution(circuit: Circuit) -> dict[tuple[int, ...], float]:
    """Exact joint creg distribution of a noiseless circuit via branch enumeration."""
    leaves = _outcome_leaves(circuit)
    if leaves is None:
        raise ValueError("exact distribution needs a noiseless, low-branching circuit")
    dist: dict[tuple[int, ...], float] = {}
    for path, creg in leaves.items():
        key = tuple(creg)
        dist[key] = dist.get(key, 0.0) + circuit.d ** -len(path)
    return dist
