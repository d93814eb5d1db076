"""Benchmark of the qutrit-toric command line: named workloads, end to end and per layer.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload noisy-prepare-6x4 --seed 1 --seconds 15 --trace 0

The program is built from the checkout's own ``src/``. Each timed op
calls ``qutrit_toric.cli.main(argv)`` in this process with ``--threads 1``
and ``-o -``, in a closed loop with one client: the next op starts when
the previous one has returned and its documents have been checked. An
op is one ``prepare`` invocation on the prepare workloads and one pass
over the eight exact-suite commands on ``exact-suite``. The benchmark's
``--seed`` becomes the CLI's ``--seed``.

``--trace 0`` reports the end-to-end metrics; between its ops it times a
fixed reference loop, and the gated op time is the ratio of the two, so
that a host slowed by other tenants moves both. ``--trace 1`` alternates
untraced ops with ops that record spans at the layer boundaries, runs
the per-layer probes, and reports the per-layer metrics and the tracing
overhead. Report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The full result, and the spans of a traced run, go to ``.bench_results/``
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import SHOTS, WORKLOADS, check_document, load_reference, parse_document

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
POOL_PROBE_SHOTS = 200
# After --seconds, an untraced run keeps timing ops until it has this many
# or has run twice --seconds, so that the gated ratio averages two warm ops
# even when one op (noiseless 6x4, 10-20 s) fills most of the run. A traced run
# applies the same rule to traced ops, each paired with an untraced one.
MIN_OPS = 3
MIN_TRACED_OPS = 2
MAX_PROBLEMS = 20
# An untraced run times a fixed reference loop after every op, for this
# share of the ops' time, in chunks of REF_STEPS steps (35-50 ms each).
REF_SHARE = 0.2
REF_STEPS = 4000

# Gated metrics, reported on every workload (name -> unit). The op time is
# gated as a multiple of the reference loop's time next to it: on a shared
# 2-vCPU VM other tenants slow every CPU-bound loop by up to 2x for minutes
# at a time. Over eight 45 s noisy 6x4 runs, between which the host's speed
# changed by 2x, the fastest op spread 33% and the median op 39% (quartile
# distance over median), while this ratio spread 9%.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ref_ratio": "x",
}
# the full end-to-end set, each printed on the workloads where it applies
REPORT = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_s.min": "s",
    "ref_chunk_ms": "ms",
    "fail_ratio": "ratio",
    "shots_per_s": "1/s",
    "suite_s.p50": "s",
    "suite_s.p90": "s",
    "cold_suite_s": "s",
    "braid_pf_ms": "ms",
    "braid_cc_ms": "ms",
    "fuse_pf_pfstar_ms": "ms",
    "topo_6x2_ms": "ms",
    "topo_6x4_ms": "ms",
    "prepare_exact_ms": "ms",
    "compile_ms": "ms",
    "verify_ms": "ms",
}
PER_LAYER = {
    "cli.self_ms": "ms",
    "serialize.ms": "ms",
    "serialize.doc_kb": "KB",
    "lattice.ms": "ms",
    "circuit.run_shots_s": "s",
    "circuit.us_per_shot": "us",
    "circuit.shots": "count",
    "circuit.wall_share": "ratio",
    "circuit.tree_build_s": "s",
    "circuit.tree_useful_ratio": "ratio",
    "circuit.pool_speedup": "x",
    "tableau.apply_gate_us": "us",
    "tableau.apply_weyl_us": "us",
    "tableau.measure_random_us": "us",
    "tableau.measure_det_us": "us",
    "tableau.copy_us": "us",
    "tableau.projector_triple_us": "us",
    "tableau.gates_per_shot": "count",
    "tableau.noise_events_per_shot": "count",
    "tableau.random_meas_per_shot": "count",
    "tableau.det_meas_per_shot": "count",
    "tableau.apply_gate_us.n96": "us",
    "tableau.apply_gate_us.n384": "us",
    "tableau.measure_random_us.n96": "us",
    "tableau.measure_random_us.n384": "us",
    "weyl.conjugate_by_gate_us": "us",
    "dense.matrix_ms": "ms",
    "experiments.run_ms.braid-pf": "ms",
    "experiments.run_ms.braid-cc": "ms",
    "experiments.run_ms.fuse-pf-pfstar": "ms",
    "experiments.topo_run_ms.6x2": "ms",
    "experiments.topo_run_ms.6x4": "ms",
    "defects.pf_circuit_ms": "ms",
    "defects.cc_circuit_ms": "ms",
    "encoder.encode_ms": "ms",
    "encoder.readout_us_per_shot": "us",
    "encoder.herald_us_per_shot": "us",
    "encoder.decode_us_per_shot": "us",
    "encoder.retained_ratio": "ratio",
    "encoder.verify_decomposition_ms": "ms",
    "synth.decompose_gate_ms": "ms",
    "estimators.us_per_shot": "us",
    "estimators.wall_share": "ratio",
    "analysis.mitigate_ms_per_face": "ms",
    "trace.overhead_ms": "ms",
    "trace.uncovered_share": "ratio",
}


class ProgramMissing(Exception):
    """The checkout holds no importable qutrit_toric package under src/."""


def load_program():
    """Import qutrit_toric.cli from this checkout's src/ and nowhere else."""
    package = os.path.join(SRC, "qutrit_toric")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise ProgramMissing(f"no qutrit_toric package under {SRC}")
    sys.path.insert(0, SRC)
    from qutrit_toric import cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != package:
        raise ProgramMissing(f"qutrit_toric was imported from {cli.__file__}")
    return cli


def invoke(cli, argv):
    """One in-process CLI call: (exit code, wall seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = 1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return rc, wall, out.getvalue(), err.getvalue()


def git_sha() -> str:
    """Read the checkout's HEAD without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "git_sha": git_sha(),
            "machine": platform.machine()}


def build_inputs(workload_name: str, seed: int, shots: int):
    """The workload's argv lists and, for exact-suite, its reference documents."""
    workload = WORKLOADS[workload_name]
    commands = [(label, argv + ["--seed", str(seed), "--threads", "1", "-o", "-"])
                for label, argv in workload.commands(shots)]
    reference = None if workload.is_prepare else load_reference()
    return workload, commands, reference


_REF_TABLE = None


def reference_chunk(steps: int = REF_STEPS) -> float:
    """Seconds for a fixed loop of the program's kind of work, independent of src/.

    Column updates mod 3 on a small int8 table, a nonzero scan and a dict
    built per step: numpy calls on small arrays driven from Python, as in
    the tableau. The loop never changes, so its time measures only how fast
    the host runs this process at the moment.
    """
    global _REF_TABLE
    import numpy as np  # imported here so that setup_s still pays for numpy

    if _REF_TABLE is None:
        _REF_TABLE = np.random.default_rng(0).integers(0, 3, size=(48, 48), dtype=np.int8)
    x = _REF_TABLE.copy()
    acc = 0
    t0 = time.perf_counter()
    for i in range(steps):
        a, b = i % 48, (i * 5 + 1) % 48
        x[:, a] = (x[:, a] + 2 * x[:, b]) % 3
        col = x[:, (i * 7) % 48]
        acc += len(np.flatnonzero(col)) + int(col.sum())
        acc ^= sum({j: j * acc for j in range(12)}.values()) & 0xFF
    return time.perf_counter() - t0


def _ref_group(events, i: int, step: int) -> list[float]:
    """The run of reference chunks nearest to events[i] in the direction step."""
    j = i + step
    while 0 <= j < len(events) and events[j][0] == "op":
        j += step
    group = []
    while 0 <= j < len(events) and events[j][0] == "ref":
        group.append(events[j][1])
        j += step
    return group


def op_ref_ratios(events) -> list[float]:
    """Each warm op's time over the mean reference chunk timed on either side of it.

    events is the run's sequence of ("op", seconds) and ("ref", seconds);
    the first op is cold and left out unless it is the only one. The
    nearest runs of chunks before and after an op bracket the host's speed
    while the op ran, which a mean over the whole run would not.
    """
    first = 1 if sum(kind == "op" for kind, _ in events) > 1 else 0
    ratios = []
    for i, (kind, seconds) in enumerate(events):
        if kind == "op" and i >= first:
            ratios.append(seconds / statistics.fmean(_ref_group(events, i, -1)
                                                     + _ref_group(events, i, 1)))
    return ratios


def measure_setup(workload: str, seed: int, probes: int) -> float:
    """Median seconds, over fresh interpreters, to import the CLI and build inputs."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Loop:
    """Closed-loop op runner that checks every document it times."""

    def __init__(self, cli, workload, commands, shots, reference):
        self.cli, self.workload, self.commands = cli, workload, commands
        self.shots, self.reference = shots, reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = {label: [] for label, _ in commands}
        self.first_texts: dict[str, str] = {}
        self.repeats_identical = True

    def op(self, tracer=None) -> float:
        total = 0.0
        for label, argv in self.commands:
            if tracer is None:
                rc, wall, text, err = invoke(self.cli, argv)
            else:
                with tracer.span(f"cli.main:{label}"):
                    rc, wall, text, err = invoke(self.cli, argv)
            total += wall
            self.walls[label].append(wall)
            self._check(label, rc, text, err)
        return total

    def _check(self, label, rc, text, err):
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}: {err.strip()[-400:]}"]
        else:
            doc, problems = parse_document(text)
            if doc is not None:
                problems = check_document(self.workload, label, doc, self.shots, self.reference)
                if self.first_texts.setdefault(label, text) != text:
                    self.repeats_identical = False
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            del self.problems[MAX_PROBLEMS:]


def threads2_documents(cli, commands) -> dict[str, dict | None]:
    """Each command once with --threads 2 (the later flag wins); None on a failed call."""
    docs = {}
    for label, argv in commands:
        rc, _, text, _ = invoke(cli, argv + ["--threads", "2"])
        docs[label] = parse_document(text)[0] if rc == 0 else None
    return docs


def _without_threads(doc: dict) -> dict:
    return {**doc, "config": {k: v for k, v in doc["config"].items() if k != "threads"}}


def threads_problems(threads2: dict, threads1: dict) -> list[str]:
    """--threads 2 must give the --threads 1 document, config echo aside."""
    problems = []
    for label, doc in threads2.items():
        ref = threads1.get(label)
        if doc is None or ref is None:
            problems.append(f"{label}: no document to compare across --threads")
        elif _without_threads(doc) != _without_threads(ref):
            problems.append(f"{label}: --threads 2 document differs from --threads 1")
    return problems


def timed_run(cli, workload, commands, reference, seed, seconds, shots, setup_probes, min_ops):
    setup_s = measure_setup(workload.name, seed, setup_probes)
    loop = Loop(cli, workload, commands, shots, reference)
    ops, refs, events = [], [], []
    start = time.perf_counter()
    while True:
        ops.append(loop.op())
        events.append(("op", ops[-1]))
        # reference chunks follow every op, up to REF_SHARE of the ops' time
        while sum(refs) < REF_SHARE * sum(ops):
            refs.append(reference_chunk())
            events.append(("ref", refs[-1]))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(ops) >= min_ops or elapsed >= 2 * seconds):
            break
    warm = ops[1:] or ops
    ratios = op_ref_ratios(events)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
               "op_ref_ratio": statistics.median(ratios)}
    notes = {
        "setup_s": f"median of {setup_probes} fresh interpreters",
        "op_ref_ratio": f"median over {len(ratios)} warm ops of op time over the mean "
                        f"reference chunk next to it; {len(refs)} chunks",
        "op_s.min": f"fastest of {len(ops)} ops; median warm op {statistics.median(warm):.4g} s, "
                    f"first op {ops[0]:.4g} s",
        "ref_chunk_ms": f"mean of {len(refs)} chunks of {REF_STEPS} reference-loop steps",
    }
    report = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "op_s.min": min(ops),
              "ref_chunk_ms": 1e3 * statistics.fmean(refs), "fail_ratio": loop.failed / loop.attempted}
    notes["fail_ratio"] = f"{loop.failed} of {loop.attempted} invocations"
    if workload.is_prepare:
        report["shots_per_s"] = 2 * shots / statistics.median(warm)
        notes["shots_per_s"] = (f"{2 * shots} shots over both bases per invocation, "
                                f"median of {len(warm)} warm invocations")
    else:
        report["suite_s.p50"] = statistics.median(warm)
        report["suite_s.p90"] = (statistics.quantiles(warm, n=10, method="inclusive")[-1]
                                 if len(warm) > 1 else warm[0])
        report["cold_suite_s"] = ops[0]
        notes["suite_s.p50"] = notes["suite_s.p90"] = f"{len(warm)} warm passes"
        notes["cold_suite_s"] = "first pass after import"
        for label, walls in loop.walls.items():
            report[f"{label}_ms"] = 1e3 * statistics.median(walls[1:] or walls)
    return {"loop": loop, "metrics": metrics, "report": report, "notes": notes,
            "determinism": {"repeats_identical": loop.repeats_identical,
                            "threads_checked": False},
            "op_walls_s": ops, "ref_chunks_s": refs}


def _span_metrics(summary, counts, op_wall) -> dict:
    """Per-layer metrics of one traced op; None where the layer did no work."""

    def per(value, denom, scale):
        return scale * value / denom if denom else None

    def ms(value):
        return 1e3 * value if value else None

    name, layer, selfs = summary["name"], summary["layer"], summary["self"]
    calls = summary["calls"]
    shots = counts["circuit.shots"]
    out = {
        "cli.self_ms": ms(selfs["cli"]),
        "serialize.ms": ms(layer["serialize"]),
        "serialize.doc_kb": per(counts["serialize.doc_bytes"], 1024, 1),
        "lattice.ms": ms(layer["lattice"]),
        "circuit.run_shots_s": layer["circuit"] or None,
        "circuit.us_per_shot": per(layer["circuit"], shots, 1e6),
        "circuit.shots": shots or None,
        "circuit.wall_share": per(layer["circuit"], op_wall, 1) if shots else None,
        "weyl.conjugate_by_gate_us": per(name["weyl.conjugate_by_gate"],
                                         calls["weyl.conjugate_by_gate"], 1e6),
        "dense.matrix_ms": ms(name["dense.gate_matrix"] + name["dense.weyl_matrix"]),
        "defects.pf_circuit_ms": ms(name["defects.pf_defect_circuit"]),
        "defects.cc_circuit_ms": ms(name["defects.cc_defect_circuit"]),
        "encoder.encode_ms": ms(name["encoder.encode_circuit"]),
        "encoder.readout_us_per_shot": per(name["encoder.simulate_readout"],
                                           counts["encoder.readout_shots"], 1e6),
        "encoder.herald_us_per_shot": per(name["encoder.herald_filter"],
                                          counts["encoder.herald_shots"], 1e6),
        "encoder.decode_us_per_shot": per(name["encoder.decode_qubit_records"],
                                          counts["encoder.decode_shots"], 1e6),
        "encoder.retained_ratio": per(counts["encoder.retained_shots"],
                                      counts["encoder.herald_shots"], 1),
        "encoder.verify_decomposition_ms": ms(name["encoder.verify_decomposition"]),
        "estimators.us_per_shot": per(name["estimators.estimate_plaquette_projectors"],
                                      counts["estimators.shots"], 1e6),
        "estimators.wall_share": (per(layer["estimators"], op_wall, 1)
                                  if counts["estimators.shots"] else None),
        "trace.uncovered_share": per(selfs["cli"], op_wall, 1),
    }
    for preset in ("braid-pf", "braid-cc", "fuse-pf-pfstar"):
        out[f"experiments.run_ms.{preset}"] = ms(name[f"experiments.ScriptRunner.run:{preset}"])
    for size in ("6x2", "6x4"):
        out[f"experiments.topo_run_ms.{size}"] = ms(
            name[f"experiments.TopologicalQutritProtocol.run:{size}"])
    return out


def traced_run(cli, workload, commands, reference, seed, seconds, shots, min_ops):
    import probes
    import tracing

    # the --threads 2 calls run first and double as the warm-up op
    threads2 = threads2_documents(cli, commands)
    loop = Loop(cli, workload, commands, shots, reference)
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if len(plain) <= len(traced):
            plain.append(loop.op())
            continue
        tracer.op = len(traced)
        with tracing.installed(tracer):
            traced.append(loop.op(tracer))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(traced) >= min_ops or elapsed >= 2 * seconds):
            break
    problems = threads_problems(threads2, {label: parse_document(text)[0]
                                           for label, text in loop.first_texts.items()})
    summaries = tracing.summarize(tracer.spans)
    per_op = [_span_metrics(summaries[i], tracer.counts[i], wall)
              for i, wall in enumerate(traced)]
    measured = {}
    for key in per_op[0]:
        values = [m[key] for m in per_op if m[key] is not None]
        if values:
            measured[key] = statistics.median(values)
    measured["trace.overhead_ms"] = 1e3 * (min(traced) - min(plain))

    if workload.is_prepare:
        lattice, noisy = workload.lattice, workload.noise != "off"
    else:
        lattice, noisy = (6, 4), False
    circuits = probes.prepare_circuits(lattice, noisy)
    measured.update(probes.tableau_probe(circuits, lattice, seed))
    measured.update(probes.scaling_probe(seed))
    measured.update(probes.synth_probe())
    if workload.is_prepare:
        # the outcome tree a noiseless run of this lattice builds; on the noisy
        # workload this is the only measure of it, as noiseless 6x4 is not gated
        measured.update(probes.tree_probe(
            probes.prepare_circuits(lattice, False) if noisy else circuits))
    if noisy:
        pool, pool_problems = probes.pool_probe(circuits[0], POOL_PROBE_SHOTS, seed)
        measured.update(pool)
        problems += pool_problems
        measured.update(probes.mitigation_probe(tracer.captured["retained"], lattice))

    metrics = {name: measured.get(name, 0.0) for name in PER_LAYER}
    notes = {name: "bypassed on this workload" for name in PER_LAYER if name not in measured}
    notes["trace.overhead_ms"] = (f"fastest traced op minus fastest untraced op, "
                                  f"{len(traced)} + {len(plain)} ops")
    layers = {}
    for summary in summaries.values():
        for name, value in summary["self"].items():
            layers[name] = layers.get(name, 0.0) + value
    total = sum(traced)
    layers = {name: {"self_ms_per_op": 1e3 * value / len(traced), "share": value / total}
              for name, value in sorted(layers.items(), key=lambda kv: -kv[1])}
    loop.problems.extend(problems)
    return {"loop": loop, "metrics": metrics, "report": {}, "notes": notes,
            "determinism": {"repeats_identical": loop.repeats_identical,
                            "threads_checked": True, "parallelism_problems": problems},
            "layers": layers, "spans": tracer.spans}


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  shots: int | None = None, setup_probes: int = SETUP_PROBES,
                  min_ops: int | None = None) -> dict:
    """One benchmark run; returns the full result (see the module docstring)."""
    load_before = os.getloadavg()
    cli = load_program()
    shots = SHOTS if shots is None else shots
    workload, commands, reference = build_inputs(workload_name, seed, shots)
    args = (cli, workload, commands, reference, seed, seconds, shots)
    if trace:
        part = traced_run(*args, MIN_TRACED_OPS if min_ops is None else min_ops)
    else:
        part = timed_run(*args, setup_probes, MIN_OPS if min_ops is None else min_ops)
    loop, determinism = part.pop("loop"), part["determinism"]
    units = PER_LAYER if trace else END_TO_END
    part["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in part["metrics"].items()}
    part["report"] = {k: {"value": v, "unit": REPORT[k]} for k, v in part["report"].items()}
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "shots_per_basis": shots if workload.is_prepare else 0,
        "env": {**environment(), "loadavg_before": list(load_before),
                "loadavg_after": list(os.getloadavg())},
        "correct": (loop.failed == 0 and determinism["repeats_identical"]
                    and not determinism.get("parallelism_problems")),
        "attempted": loop.attempted, "failed": loop.failed, "problems": loop.problems,
        **part,
    }


def write_result(result: dict) -> str:
    """Full result (and spans, when traced) under .bench_results/; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = spans[0][1] if spans else 0.0
        with open(os.path.join(RESULTS_DIR, f"{stem}.spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "names": names,
                       "spans": [[index[n], s - t0, e - t0, p, op]
                                 for n, s, e, p, op in spans]}, fh)
    path = os.path.join(RESULTS_DIR, f"{stem}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return path


def print_report(result: dict, path: str) -> None:
    env = result["env"]
    print(f"# qutrit-toric benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']} "
          f"shots_per_basis={result['shots_per_basis']}")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} cpus, "
          f"git {env['git_sha']}, loadavg before {env['loadavg_before']} "
          f"after {env['loadavg_after']}")
    print("# closed loop, 1 client, 1 process, --threads 1")
    for section in ("report", "metrics"):
        for name, m in result[section].items():
            note = result["notes"].get(name)
            print(f"{section} {name} = {m['value']:.6g} {m['unit']}"
                  + (f"  ({note})" if note else ""))
    for name, layer in result.get("layers", {}).items():
        print(f"layer {name}: self {layer['self_ms_per_op']:.3f} ms/op, "
              f"{100 * layer['share']:.1f}% of traced wall")
    print(f"# determinism: {result['determinism']}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print(f"# full result: {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        t0 = time.perf_counter()
        load_program()
        build_inputs(args.workload, args.seed, SHOTS)
        print(time.perf_counter() - t0)
        return 0
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    path = write_result(result)
    print_report(result, path)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
