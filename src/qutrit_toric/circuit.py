"""Circuit representation and shot-execution engine.

Instructions are gates, Weyl-observable measurements into classical
registers and depolarizing Weyl noise. Each engine takes some of these
kinds, and `Circuit.validate(takes)` is the one place that refuses the
others: every engine entry calls it once, naming the kinds it takes,
before any tableau change or draw. `execute` and the outcome tree take
gates and measurements, so `run_shots` is the one noise sampler. No
instruction reads a register: a correction that depends on an outcome,
such as a parafermion defect's, is applied by its caller as a Weyl
update.

`run_shots` samples gates, noise and measurements with Weyl frames
(Pauli-frame sampling carried over to Z_d). One backward pass through
the gates conjugates every measured observable back to |0>^n and
compiles each random draw into a fixed linear mod-d form over the
outcomes. The reference shot (noise stripped, random outcomes forced to
0) measures those conjugated-back observables in order on a fresh
tableau, no gate replayed: a collapse each up to the last that clashes
with a later one, then one batched lookup of the pairwise commuting
rest (`StabilizerTableau.reference_outcomes`), all of a measure-all.
Then FRAME_BLOCK shots at a time draw, in this order, an integer per
initial frame row and measurement kick, the noise hits and a code per
hit, and add the draws' forms. Hits are rare, so only they are drawn:
`sparse_events` places candidates over the block's (shot, noise test)
slots by geometric gaps at the largest test probability, and one uniform
per candidate keeps it at its own test's (skip sampling). A hit's code
holds its error exponents as base-d digits, and `_hit_exponents` decodes
them. The values are a pure function of (circuit, n_shots, base_seed).

`exact_outcome_distribution`, the oracle the samplers are tested
against, walks the exact outcome tree of a noiseless circuit, forking
the tableau once per outcome of each random measurement (refused before
forking past a budget).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .tableau import StabilizerTableau
from .weyl import CliffordGate, WeylOp, conjugate_rows

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
    """A gate list per outcome of creg. Not an instruction: no engine takes it.
    It is kept as a name that benchmarks/probes.py imports."""

    creg: int
    predicate: dict[int, tuple[CliffordGate, ...]]


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


Instruction = Gate | Measure | Noise


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

    def noise(self, channel: NoiseChannel, sites: tuple[int, ...]) -> "Circuit":
        return self.add(Noise(channel, sites))

    def extend(self, other: "Circuit") -> "Circuit":
        if (other.d, other.n_qudits) != (self.d, self.n_qudits):
            raise ValueError("circuit shape mismatch")
        self.n_cregs = max(self.n_cregs, other.n_cregs)
        self.instructions.extend(other.instructions)
        return self

    def validate(self, takes: tuple[type, ...]) -> None:
        """Refuse an invalid circuit with ValueError, then the first instruction
        whose kind is not in takes, naming its index and kind."""
        for ins in self.instructions:
            if isinstance(ins, Gate):
                for t in ins.gate.targets:
                    if not (0 <= t < self.n_qudits):
                        raise ValueError(f"gate target {t} out of range")
            elif isinstance(ins, Measure):
                if ins.observable.n != self.n_qudits or ins.observable.d != self.d:
                    raise ValueError("measurement observable shape mismatch")
                if not (0 <= ins.creg < self.n_cregs):
                    raise ValueError(f"creg {ins.creg} out of range")
            elif isinstance(ins, Noise):
                if ins.channel.kind == "depolarizing2" and len(ins.sites) != 2:
                    raise ValueError("depolarizing2 needs a site pair")
                if len(set(ins.sites)) != len(ins.sites):
                    raise ValueError(f"noise sites {ins.sites} repeat a site")
                for s in ins.sites:
                    if not (0 <= s < self.n_qudits):
                        raise ValueError(f"noise site {s} out of range")
        for i, ins in enumerate(self.instructions):
            if not isinstance(ins, takes):
                raise ValueError(f"instruction {i} is a {type(ins).__name__}: this engine takes "
                                 f"{', '.join(t.__name__ for t in takes)} only")

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


def execute(circuit: Circuit, tab: StabilizerTableau) -> list[int]:
    """Apply a noiseless circuit's gates and measurements to tab in order, the one
    tableau replay; return the creg values. Random outcomes are drawn by the tableau.
    An invalid or noisy circuit is refused with ValueError before tab changes:
    run_shots samples noise.
    """
    circuit.validate((Gate, Measure))
    creg = [0] * circuit.n_cregs
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            tab.apply_gate(ins.gate)
        else:
            creg[ins.creg] = tab.measure_weyl(ins.observable).value
    return creg


# a circuit's random draws as forms over its M measurements; see _compile_frames
_FramePlan = namedtuple("_FramePlan", "d ref source drawn p high start entries writer")


def sparse_events(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """Sorted positions in [0, size) of independent events of probability p.

    The gaps between events are geometric (skip sampling), so a rare event
    costs a draw and a slot where none happens costs nothing. The draws
    are `rng.geometric(p, k)` calls of k = int(size * p + 2 * sqrt(size * p))
    + 1 gaps each until the events pass size; p = 0 or size 0 draws
    nothing, and p = 1 draws nothing and returns every position. A caller
    thins the events to its own rate q <= p per position with one uniform
    u each, keeping u * p < q.
    """
    if size == 0 or p <= 0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1:
        return np.arange(size)
    k = int(size * p + 2 * np.sqrt(size * p)) + 1
    chunks, end = [], -1
    while end < size:
        chunks.append(end + np.cumsum(np.minimum(rng.geometric(p, k), size + 1)))
        end = chunks[-1][-1]
    pos = np.concatenate(chunks)
    return pos[:np.searchsorted(pos, size)]


def _draw_block(plan: _FramePlan, rng: np.random.Generator, m: int) -> tuple:
    """Draws of m shots: an integer per drawn source row, then the hits, then a
    code per hit; returns the integers and the hits' shots, tests and codes,
    shot by shot.

    The hits are `sparse_events` over the m * T (shot, test) slots, shot-major,
    at the largest test probability, each kept at its test's probability
    with one uniform."""
    src = rng.integers(plan.d, size=(m, len(plan.source)), dtype=np.uint8)
    top = plan.p.max(initial=0.0)
    slot = sparse_events(rng, m * len(plan.p), top)
    slot = slot[rng.random(len(slot)) * top < plan.p[slot % len(plan.p)]]
    shot, test = np.divmod(slot, len(plan.p))
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
    `_draw_block`'s draws (source integers, sparse hits, their codes) from
    SeedSequence([base_seed, b]), adds the source draws' forms by one float
    product (exact on these small integers) and the hits' nonzero form
    entries, times their codes' digits, by a scatter-add per FRAME_BLOCK
    hits.
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
        values[lo:lo + m, written] = out[:, plan.writer[written]] % plan.d
    return values


def _compile_frames(circuit: Circuit) -> _FramePlan:
    """Linear mod-d outcome forms of the random draws, over the M measurements.

    One backward pass through the gates leaves rows of bx, bz, ph holding
    each measured W conjugated back to |0>^n, phase included (zero before
    W is measured). By Heisenberg, projecting onto W at its time is
    projecting onto its row before any gate, so the reference shot (noise
    stripped, random outcomes forced to 0), `ref`, is the rows measured in
    order on a fresh tableau: a forced collapse for each row up to the
    last that fails to commute with a later row, then one
    `reference_outcomes` lookup of the pairwise commuting rest.
    s(g F g^dag, W) = s(F, g^dag W g), so a draw F at a point moves the
    outcomes by its symplectic products with the rows conjugated back to
    there: measurement j's kick moves a later outcome k by the product of
    rows j and k (zero for the rest, which commute with every later row).
    `source`: float forms of the `drawn` rows among the initial Z frame's
    n rows and the M kicks, those with a nonzero form (the others move no
    outcome). Per noise hit test (a depolarizing1 site or a depolarizing2
    pair): hit probability `p`, code range end `high` (d^2 or d^4), and
    the nonzero entries of its form over its sites' exponents x0, z0, x1,
    z1 (the code's digits), as (row, column, value) columns of `entries`
    from `start[test]` to `start[test + 1]`.
    """
    d, n, instructions = circuit.d, circuit.n_qudits, circuit.instructions
    measured = [ins for ins in instructions if isinstance(ins, Measure)]
    writer = [-1] * circuit.n_cregs
    for j, ins in enumerate(measured):
        writer[ins.creg] = j
    tests = [ins.channel for ins in instructions if isinstance(ins, Noise)
             for _ in range(len(ins.sites) // ins.channel.width)]  # a channel per hit test
    bxz = np.zeros((2, len(measured), n), dtype=np.int64)
    bx, bz = bxz  # views
    ph = np.zeros(len(measured), dtype=np.int64)  # with bx, bz: omega^ph X^bx Z^bz
    forms = np.zeros((len(tests), 2, 2, len(measured)), dtype=np.int64)  # per site: bz, bx rows
    j, t = len(measured), len(tests)
    for ins in reversed(instructions):
        if isinstance(ins, Gate):
            conjugate_rows(ins.gate.inverse(), bx, bz, ph, d)
        elif isinstance(ins, Noise):
            sites = np.array(ins.sites).reshape(-1, ins.channel.width)
            t -= len(sites)
            forms[t:t + len(sites), :sites.shape[1]] = bxz[::-1, :, sites].transpose(2, 3, 0, 1)
        elif isinstance(ins, Measure):
            j -= 1
            bx[j], bz[j], ph[j] = ins.observable.x, ins.observable.z, ins.observable.phase
    kicks = np.triu(bx @ bz.T - bz @ bx.T, 1) % d  # row j: its products with later rows
    clash = np.flatnonzero(kicks.any(axis=1))
    head = clash[-1] + 1 if len(clash) else 0  # rows measured one by one
    tab, ref = StabilizerTableau(d, n), np.zeros(len(measured), dtype=np.int64)
    for j in range(head):
        ref[j] = tab.measure_weyl(WeylOp(d, bx[j], bz[j], ph[j]), force=0).value
    ref[head:] = tab.reference_outcomes(bx[head:], bz[head:], ph[head:])
    forms[:, :, 1] *= -1  # a site's rows: x (bz) and z (-bx)
    forms = forms.reshape(len(tests), 4, len(measured))  # rows x0, z0, x1, z1
    source = np.concatenate([-bx.T, kicks]) % d
    drawn = np.flatnonzero(source.any(axis=1))  # a row of zeros moves no outcome
    t, r, c = np.nonzero(forms)  # the forms' nonzero entries, test by test
    return _FramePlan(d, ref, source[drawn].astype(float), drawn,
                      np.array([ch.p for ch in tests], dtype=float),
                      np.array([d ** (2 * ch.width) for ch in tests], dtype=np.int64),
                      np.searchsorted(t, np.arange(len(forms) + 1)),
                      np.stack([r, c, forms[t, r, c]]),
                      np.array(writer, dtype=np.int64))


def run_shots(circuit: Circuit, n_shots: int, base_seed: int = 0,
              parallelism: int = 1) -> ShotBatch:
    """Run n_shots of a circuit of gates, noise and measurements as Weyl frames;
    the values are a pure function of (circuit, n_shots, base_seed).

    An invalid circuit is refused with ValueError before any draw.
    parallelism is not read; benchmarks/probes.py still passes it.
    """
    circuit.validate((Gate, Noise, Measure))
    return ShotBatch(_run_frames(circuit, n_shots, base_seed))


def exact_outcome_distribution(circuit: Circuit) -> dict[tuple[int, ...], float]:
    """Exact joint creg distribution of a noiseless circuit from its outcome tree, walked
    depth first with one tableau per level, forked per outcome of a random measurement.
    Raises ValueError for an invalid or noisy circuit, and before a branch would fork
    past TREE_MAX_RANDOM_MEASUREMENTS outcomes."""
    circuit.validate((Gate, Measure))
    instructions, dist = circuit.instructions, {}

    def walk(start: int, tab: StabilizerTableau, creg: list[int], depth: int) -> None:
        for i in range(start, len(instructions)):
            ins = instructions[i]
            if isinstance(ins, Gate):
                tab.apply_gate(ins.gate)
                continue
            det = tab.deterministic_outcome(ins.observable)
            if det is not None:
                creg[ins.creg] = det
                continue
            if depth == TREE_MAX_RANDOM_MEASUREMENTS:
                raise ValueError("the exact outcome tree needs a noiseless, low-branching "
                                 f"circuit: instruction {i} would fork past the budget of "
                                 f"{TREE_MAX_RANDOM_MEASUREMENTS} random outcomes")
            for s in range(circuit.d):
                child, child_creg = tab.copy(), list(creg)
                child_creg[ins.creg] = child.measure_weyl(ins.observable, s).value
                walk(i + 1, child, child_creg, depth + 1)
            return
        key = tuple(creg)
        dist[key] = dist.get(key, 0.0) + circuit.d ** -depth

    walk(0, StabilizerTableau(circuit.d, circuit.n_qudits), [0] * circuit.n_cregs, 0)
    return dist
