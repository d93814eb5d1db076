"""Circuit representation and shot-execution engine.

Instructions are gates, Weyl-observable measurements into classical
registers, outcome-conditioned gate blocks (feed-forward), depolarizing
Weyl noise, and barriers. Every engine entry (`execute`, `run_shots`,
`outcome_leaves`) first runs `Circuit.validate`. `_apply` is the one place
a noiseless instruction acts on a tableau; `execute` loops over it and
refuses a noisy circuit, so `run_shots` is the one noise sampler.

`run_shots` samples with Weyl frames (Pauli-frame sampling carried over
to Z_d). One reference shot (noise stripped, random outcomes forced to
0) and one backward pass through the gates compile each random draw
into a fixed linear mod-d form over the outcomes. The tail, the longest
run of pairwise commuting measurements after the last gate or
feed-forward, takes one batched lookup, no collapse
(`StabilizerTableau.reference_outcomes`): the backward pass conjugates
its observables back to the last measurement or feed-forward before it,
the only point `_apply` replays the tableau to (the start of the
circuit when there is none, so measure-all replays nothing). Then
FRAME_BLOCK shots at a time draw their initial frames, measurement kicks
and noise hits in a few array calls and add the draws' forms. A noise
hit's code holds its error exponents as base-d digits, and
`_hit_exponents` decodes them. X/Z-shift feed-forward is a table over
the value read; `run_shots` refuses any other feed-forward before a
draw. The values are a pure function of (circuit, n_shots, base_seed).

`outcome_leaves` walks the exact outcome tree of a noiseless circuit,
forking the tableau once per outcome of each random measurement
(refused before forking past a budget). `exact_outcome_distribution`,
the oracle the samplers are tested against, and the topological-qutrit
protocol both read its leaves.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
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

    @property
    def width(self) -> int:
        """Sites per hit test: a depolarizing1 site or a depolarizing2 pair."""
        return 1 if self.kind == "depolarizing1" else 2


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


def _hit_exponents(code: np.ndarray, d: int) -> np.ndarray:
    """Error exponents of noise hit codes, shape (..., 4): x0, z0, x1, z1.

    A hit's code, uniform in [1, d^2) for a depolarizing1 site (digits 2
    and 3 stay 0) or [1, d^4) for a depolarizing2 pair, holds the sites'
    x, z exponents as base-d digits, site by site; a code of 0 is no error.
    """
    return code[..., None] // d ** np.arange(4) % d


def _apply(ins: Instruction, tab: StabilizerTableau, creg: list[int],
           force: int | None = None) -> None:
    """Apply one noiseless instruction to tab; a measurement writes its outcome into creg."""
    if isinstance(ins, Gate):
        tab.apply_gate(ins.gate)
    elif isinstance(ins, Measure):
        creg[ins.creg] = tab.measure_weyl(ins.observable, force).value
    elif isinstance(ins, CondGate):
        for g in ins.predicate[creg[ins.creg]]:
            tab.apply_gate(g)
    # Noise (the frames sample it) and Barrier: nothing


def execute(circuit: Circuit, tab: StabilizerTableau) -> list[int]:
    """Apply a noiseless circuit's instructions to tab in order; return the creg values.

    Random measurement outcomes are drawn by the tableau. An invalid or noisy circuit
    is refused with ValueError before tab changes: run_shots samples noise.
    """
    circuit.validate()
    if circuit.has_noise():
        raise ValueError("execute runs noiseless circuits only: this circuit has noise; "
                         "sample it with run_shots")
    creg = [0] * circuit.n_cregs
    for ins in circuit.instructions:
        _apply(ins, tab, creg)
    return creg


def outcome_leaves(circuit: Circuit) -> Iterator[tuple]:
    """Leaves of the exact outcome tree in path order: (path, creg values, tableau).

    Depth first, holding one tableau per level; a path lists the random
    outcomes down to its leaf. Raises ValueError for an invalid or noisy circuit, and
    before a branch would fork past TREE_MAX_RANDOM_MEASUREMENTS outcomes.
    """
    circuit.validate()
    refusal = "the exact outcome tree needs a noiseless, low-branching circuit: "
    if circuit.has_noise():
        raise ValueError(refusal + "this circuit has noise")
    instructions = circuit.instructions

    def walk(start: int, tab: StabilizerTableau, creg: list[int], path: tuple[int, ...]):
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
                raise ValueError(refusal + f"instruction {i} would fork past the budget of "
                                 f"{TREE_MAX_RANDOM_MEASUREMENTS} random outcomes")
            for s in range(circuit.d):
                child, child_creg = tab.copy(), list(creg)
                _apply(ins, child, child_creg, force=s)
                yield from walk(i + 1, child, child_creg, path + (s,))
            return
        yield path, creg, tab

    yield from walk(0, StabilizerTableau(circuit.d, circuit.n_qudits), [0] * circuit.n_cregs, ())


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
            xz = _hit_exponents(code[hits], plan.d)
            np.add.at(flat, shot[hits][i] * out.shape[1] + col, xz[i, row] * val)
        for read, table in plan.reads:
            out += table[out[:, read] % plan.d]
        values[lo:lo + m, written] = out[:, plan.writer[written]] % plan.d
    return values


def _reference_tail(circuit: Circuit) -> int:
    """Index of the instruction where the reference shot's batched tail starts.

    The tail is the longest run of measurements after the last Gate or
    CondGate (Noise and Barrier aside) whose observables commute pairwise:
    nothing after them acts on the state, so one
    `StabilizerTableau.reference_outcomes` call gives their forced-0
    values without a collapse. Returns len(instructions) for no tail.
    """
    ins = circuit.instructions
    start = len(ins)
    while start and not isinstance(ins[start - 1], (Gate, CondGate)):
        start -= 1
    at = [i for i in range(start, len(ins)) if isinstance(ins[i], Measure)]
    if not at:
        return len(ins)
    x, z = np.array([ins[i].observable.x for i in at]), np.array([ins[i].observable.z for i in at])
    clash = np.flatnonzero(np.triu((x @ z.T - z @ x.T) % circuit.d, 1).any(axis=1))
    return at[clash[-1] + 1 if len(clash) else 0]


def _compile_frames(circuit: Circuit) -> _FramePlan:
    """Linear mod-d outcome forms of the random draws, over the M measurements.

    A reference shot (noise stripped, random outcomes forced to 0) gives
    `ref` and the value each CondGate reads. Walking back, rows of bx, bz,
    ph hold each measured W conjugated back to here (zero before W is
    measured); s(g F g^dag, W) = s(F, g^dag W g), so a draw F here moves
    the outcomes by F.x . bz - F.z . bx. `_apply` replays the head only up
    to `stop`, after its last measurement or feed-forward; when the walk
    reaches `stop`, one `reference_outcomes` lookup of the tail's rows (the
    only rows set there) on that tableau gives the tail's values, as
    conjugation keeps every symplectic product and eigenvalue. A tail
    measurement's kick is zero (it commutes with every later one).
    `source`: float forms of the `drawn` rows among the initial Z frame's
    n rows and the M kicks, those with a nonzero form (the others move no
    outcome). Per noise hit test (a depolarizing1 site or a depolarizing2
    pair): hit probability `p`, code range end `high` (d^2 or d^4), and
    the nonzero entries of its form over its sites' exponents x0, z0, x1,
    z1 (the code's digits), as (row, column, value) columns of `entries`
    from `start[test]` to `start[test + 1]`. `reads`: per shift
    feed-forward, the measurement read and a (d, M) table.
    """
    d, n, instructions = circuit.d, circuit.n_qudits, circuit.instructions
    tail = _reference_tail(circuit)
    stop = max((i + 1 for i in range(tail) if isinstance(instructions[i], (Measure, CondGate))),
               default=0)
    tab, creg = StabilizerTableau(d, n), [0] * circuit.n_cregs
    writer = [-1] * circuit.n_cregs
    ref, read_at = [], []  # read_at: (source measurement, its reference value) per CondGate
    for ins in instructions[:stop]:
        _apply(ins, tab, creg, force=0)
        if isinstance(ins, Measure):
            writer[ins.creg] = len(ref)
            ref.append(creg[ins.creg])
        elif isinstance(ins, CondGate):
            read_at.append((writer[ins.creg], creg[ins.creg]))
    head = len(ref)  # measurements before the tail
    batch = [ins for ins in instructions[tail:] if isinstance(ins, Measure)]
    for k, ins in enumerate(batch):
        writer[ins.creg] = head + k
    ref = np.array(ref + [0] * len(batch), dtype=np.int64)  # the tail's values are set at stop
    tests = [ins.channel for ins in instructions if isinstance(ins, Noise)
             for _ in range(len(ins.sites) // ins.channel.width)]  # a channel per hit test
    bxz = np.zeros((2, len(ref), n), dtype=np.int64)
    bx, bz = bxz  # views
    ph = np.zeros(len(ref), dtype=np.int64)  # with bx, bz: omega^ph X^bx Z^bz
    kicks = np.zeros((len(ref), len(ref)), dtype=np.int64)
    forms = np.zeros((len(tests), 2, 2, len(ref)), dtype=np.int64)  # per site: bz, bx rows
    reads, j, t = [], len(ref), len(tests)
    for i in reversed(range(len(instructions))):
        ins = instructions[i]
        if isinstance(ins, Gate):
            conjugate_rows(ins.gate.inverse(), bx, bz, ph, d)
        elif isinstance(ins, Noise):
            sites = np.array(ins.sites).reshape(-1, ins.channel.width)
            t -= len(sites)
            forms[t:t + len(sites), :sites.shape[1]] = bxz[::-1, :, sites].transpose(2, 3, 0, 1)
        elif isinstance(ins, Measure):
            j -= 1
            w = ins.observable
            if j < head:  # a tail kick commutes with every later measurement: zero
                kicks[j] = bz @ w.x - bx @ w.z
            bx[j], bz[j], ph[j] = w.x, w.z, w.phase
        elif isinstance(ins, CondGate):
            src, at = read_at.pop()
            shift = np.zeros((d, 2, n), dtype=np.int64)  # x, z exponents of each branch
            for k, gates in ins.predicate.items():
                for g in gates:
                    shift[k, :, g.targets[0]] += _SHIFTS[g.kind]
            shift = shift - shift[at]
            reads.append((src, shift[:, 0] @ bz.T - shift[:, 1] @ bx.T))
        if i == stop and batch:  # only the tail's rows are set here, conjugated back to stop
            ref[head:] = tab.reference_outcomes(bx[head:], bz[head:], ph[head:])
    forms[:, :, 1] *= -1  # a site's rows: x (bz) and z (-bx)
    forms = forms.reshape(len(tests), 4, len(ref))  # rows x0, z0, x1, z1
    source = np.concatenate([-bx.T, kicks]) % d
    drawn = np.flatnonzero(source.any(axis=1))  # a row of zeros moves no outcome
    t, r, c = np.nonzero(forms)  # the forms' nonzero entries, test by test
    return _FramePlan(d, ref, source[drawn].astype(float), drawn,
                      np.array([ch.p for ch in tests], dtype=float),
                      np.array([d ** (2 * ch.width) for ch in tests], dtype=np.int64),
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
    """Exact joint creg distribution of a noiseless circuit, from its outcome tree."""
    dist: dict[tuple[int, ...], float] = {}
    for path, creg, _ in outcome_leaves(circuit):
        key = tuple(creg)
        dist[key] = dist.get(key, 0.0) + circuit.d ** -len(path)
    return dist
