"""Circuit representation and shot-execution engine.

Instructions are gates, Weyl-observable measurements into classical
registers, outcome-conditioned gate blocks (feed-forward), stochastic
Weyl noise, and barriers. `execute` is the one interpreter that
applies them to a tableau. Execution is exactly reproducible: shot i of
a batch uses a seed derived from (base_seed, i) with a splittable hash,
so aggregation is independent of execution order and parallelism.

Noiseless circuits with few random measurements run through an exact
branch tree: the tableau is forked once per possible outcome and shots
just replay rng draws down the tree. This produces creg values identical,
draw for draw, to `execute` (verified in tests) while removing the
per-shot simulation cost.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .tableau import StabilizerTableau
from .weyl import CliffordGate, WeylOp

TREE_MAX_RANDOM_MEASUREMENTS = 8


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
    kind: str  # depolarizing1 | depolarizing2 | weyl_custom
    p: float = 0.0
    # weyl_custom: list of (probability, pattern) with pattern mapping the
    # local site position to (x_exponent, z_exponent)
    weights: tuple[tuple[float, dict[int, tuple[int, int]]], ...] = ()

    def __post_init__(self):
        if self.kind not in ("depolarizing1", "depolarizing2", "weyl_custom"):
            raise ValueError(f"unknown noise kind {self.kind}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("probability must be in [0,1]")
        if self.kind == "weyl_custom":
            total = sum(w for w, _ in self.weights)
            if total > 1.0 + 1e-12:
                raise ValueError("weyl_custom weights must sum to at most 1")


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
                written.add(ins.creg)
            elif isinstance(ins, CondGate):
                if ins.creg not in written:
                    raise ValueError(f"creg {ins.creg} read before written")
                if set(ins.predicate.keys()) != set(range(self.d)):
                    raise ValueError("conditional predicate must cover all outcomes")
            elif isinstance(ins, Noise):
                k = ins.channel.kind
                if k == "depolarizing2" and len(ins.sites) != 2:
                    raise ValueError("depolarizing2 needs a site pair")
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

    def two_qudit_gate_count(self) -> int:
        return sum(
            1 for i in self.instructions if isinstance(i, Gate) and len(i.gate.targets) == 2
        )


# -- execution ---------------------------------------------------------------


def shot_seed(base_seed: int, index: int) -> int:
    """Stable per-shot seed via SeedSequence hashing of (base_seed, index)."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


def _sample_weyl_error(channel: NoiseChannel, sites: tuple[int, ...], d: int,
                       n: int, rng: np.random.Generator) -> WeylOp | None:
    if channel.kind == "depolarizing1":
        pattern = {}
        for s in sites:
            if rng.random() < channel.p:
                k = int(rng.integers(1, d * d))
                pattern[s] = (k % d, k // d)
        if not pattern:
            return None
        return WeylOp.from_pattern(d, n, pattern)
    if channel.kind == "depolarizing2":
        if rng.random() >= channel.p:
            return None
        k = int(rng.integers(1, d**4))
        digits = (k % d, (k // d) % d, (k // d**2) % d, (k // d**3) % d)
        a, b = sites
        return WeylOp.from_pattern(d, n, {a: (digits[0], digits[1]), b: (digits[2], digits[3])})
    # weyl_custom
    u = rng.random()
    acc = 0.0
    for prob, pattern in channel.weights:
        acc += prob
        if u < acc:
            return WeylOp.from_pattern(d, n, {sites[i]: xz for i, xz in pattern.items()})
    return None


def execute(circuit: Circuit, tab: StabilizerTableau, force: int | None = None) -> list[int]:
    """Apply the circuit's instructions to tab in order; return the creg values.

    Noise and random measurement outcomes are drawn from tab.rng, in
    instruction order. force pins every random measurement outcome.
    """
    d, n, rng = circuit.d, circuit.n_qudits, tab.rng
    creg = [0] * circuit.n_cregs
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            tab.apply_gate(ins.gate)
        elif isinstance(ins, Measure):
            creg[ins.creg] = tab.measure_weyl(ins.observable, force).value
        elif isinstance(ins, CondGate):
            for g in ins.predicate[creg[ins.creg]]:
                tab.apply_gate(g)
        elif isinstance(ins, Noise):
            err = _sample_weyl_error(ins.channel, ins.sites, d, n, rng)
            if err is not None:
                tab.apply_weyl(err)
        # Barrier: nothing
    return creg


def final_tableau(circuit: Circuit, seed: int = 0) -> tuple[StabilizerTableau, list[int]]:
    """Run a shot and also return the post-circuit tableau (for snapshots)."""
    tab = StabilizerTableau(circuit.d, circuit.n_qudits, np.random.default_rng(seed))
    return tab, execute(circuit, tab)


def run_shot(circuit: Circuit, seed: int) -> list[int]:
    """Creg values of one shot on a fresh tableau; pure function of (circuit, seed)."""
    return final_tableau(circuit, seed)[1]


@dataclass
class _TreeNode:
    creg: list[int]
    tab: StabilizerTableau | None
    children: dict[int, "_TreeNode"] = field(default_factory=dict)


def _build_outcome_tree(circuit: Circuit) -> _TreeNode | None:
    """Exact branch tree over random measurement outcomes (noiseless only).

    Returns None when the circuit is noisy or branches too much.
    """
    if circuit.has_noise():
        return None
    root = _TreeNode([0] * circuit.n_cregs, StabilizerTableau(circuit.d, circuit.n_qudits))
    frontier = [root]
    random_count = 0
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            for node in frontier:
                node.tab.apply_gate(ins.gate)
        elif isinstance(ins, CondGate):
            for node in frontier:
                for g in ins.predicate[node.creg[ins.creg]]:
                    node.tab.apply_gate(g)
        elif isinstance(ins, Measure):
            dets = [node.tab.deterministic_outcome(ins.observable) for node in frontier]
            if any(det is None for det in dets):
                random_count += 1
                if random_count > TREE_MAX_RANDOM_MEASUREMENTS:
                    return None
            new_frontier = []
            for node, det in zip(frontier, dets):
                if det is not None:
                    node.creg[ins.creg] = det
                    new_frontier.append(node)
                    continue
                for s in range(circuit.d):
                    child_tab = node.tab.copy(np.random.default_rng())
                    child_tab.measure_weyl(ins.observable, force=s)
                    child_creg = list(node.creg)
                    child_creg[ins.creg] = s
                    child = _TreeNode(child_creg, child_tab)
                    node.children[s] = child
                    new_frontier.append(child)
                node.tab = None
            frontier = new_frontier
    for node in frontier:
        node.tab = None  # free state; only creg values are needed for replay
    return root


def _replay_tree(root: _TreeNode, circuit: Circuit, seed: int) -> list[int]:
    """Walk the branch tree with the shot rng; draw pattern matches run_shot."""
    rng = np.random.default_rng(seed)
    node = root
    while node.children:
        s = int(rng.integers(circuit.d))
        node = node.children[s]
    return node.creg


def _values(rows: list[list[int]], n_cregs: int) -> np.ndarray:
    return np.array(rows, dtype=np.uint8).reshape(len(rows), n_cregs)


def _run_chunk(args) -> np.ndarray:
    circuit, base_seed, lo, hi = args
    return _values([run_shot(circuit, shot_seed(base_seed, i)) for i in range(lo, hi)],
                   circuit.n_cregs)


def run_shots(circuit: Circuit, n_shots: int, base_seed: int = 0,
              parallelism: int = 1) -> ShotBatch:
    """Run n_shots; shot i uses seed derived from (base_seed, i).

    The result is a pure function of (circuit, n_shots, base_seed): the
    same values array for any parallelism.
    """
    circuit.validate()
    tree = _build_outcome_tree(circuit)
    if tree is not None:
        rows = [_replay_tree(tree, circuit, shot_seed(base_seed, i)) for i in range(n_shots)]
        return ShotBatch(_values(rows, circuit.n_cregs))
    if parallelism <= 1 or n_shots == 0:
        return ShotBatch(_run_chunk((circuit, base_seed, 0, n_shots)))
    chunk = (n_shots + parallelism - 1) // parallelism
    jobs = [
        (circuit, base_seed, lo, min(lo + chunk, n_shots))
        for lo in range(0, n_shots, chunk)
    ]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return ShotBatch(np.concatenate(list(pool.map(_run_chunk, jobs))))


def exact_outcome_distribution(circuit: Circuit) -> dict[tuple[int, ...], float]:
    """Exact joint creg distribution of a noiseless circuit via branch enumeration."""
    tree = _build_outcome_tree(circuit)
    if tree is None:
        raise ValueError("exact distribution needs a noiseless, low-branching circuit")
    dist: dict[tuple[int, ...], float] = {}

    def walk(node: _TreeNode, prob: float):
        if not node.children:
            key = tuple(node.creg)
            dist[key] = dist.get(key, 0.0) + prob
            return
        for child in node.children.values():
            walk(child, prob / circuit.d)

    walk(tree, 1.0)
    return dist
