"""Tests of the benchmark itself.

Run from the repository root (about two minutes; the noiseless 6x4
workload spends most of it in the outcome tree):

    python3 -m pytest -q benchmarks/test_bench.py

A tiny run of each workload, traced and untraced, must report every
metric with its unit, and every output check must fail on a corrupted
document.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402

CLI = bench.load_program()

from workloads import WORKLOADS, check_document, load_reference  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY_SHOTS = {"noisy-prepare-6x4": 200, "noiseless-prepare-6x4": 16,
              "noiseless-prepare-6x2": 16, "exact-suite": 0}
SUITE_REPORT = {"suite_s.p50", "suite_s.p90", "cold_suite_s", "braid_pf_ms", "braid_cc_ms",
                "fuse_pf_pfstar_ms", "topo_6x2_ms", "topo_6x4_ms", "prepare_exact_ms",
                "compile_ms", "verify_ms"}


def test_spec_matches_the_harness():
    # the noiseless workloads are run by hand only (see README.md)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
        if name not in ("noiseless-prepare-6x2", "noiseless-prepare-6x4")}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert SPEC["command"] == ["python3", "benchmarks/bench.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    result = bench.run_benchmark(name, seed=1, seconds=0, trace=trace,
                                 shots=TINY_SHOTS[name], setup_probes=1, min_ops=1)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == (bench.PER_LAYER if trace else bench.END_TO_END)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["env"]["cpu_count"] and result["env"]["numpy"]
    if trace:
        assert result["determinism"]["threads_checked"]
        assert result["layers"] and result["spans"]
        return
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected = {"setup_s", "peak_rss_mb", "op_s.min", "ref_chunk_ms", "fail_ratio"} | (
        {"shots_per_s"} if WORKLOADS[name].is_prepare else SUITE_REPORT)
    assert set(result["report"]) == expected
    assert all(m["unit"] == bench.REPORT[k] for k, m in result["report"].items())


def _cli_document(argv):
    rc, _, text, err = bench.invoke(CLI, [*argv, "--seed", "1", "-o", "-"])
    assert rc == 0, err
    return json.loads(text)


@pytest.fixture(scope="module")
def noisy_doc():
    argv = WORKLOADS["noisy-prepare-6x4"].commands(200)[0][1]
    return _cli_document(argv)


@pytest.fixture(scope="module")
def noiseless_doc():
    argv = WORKLOADS["noiseless-prepare-6x2"].commands(16)[0][1]
    return _cli_document(argv)


def _corrupt(doc, edit):
    bad = copy.deepcopy(doc)
    edit(bad["results"])
    return bad


@pytest.mark.parametrize("edit", [
    lambda r: r.update(energy_density=-0.5),
    lambda r: r["herald_discard_fraction"].update(z=0.3),
    lambda r: r["herald_discard_fraction"].pop("x"),
    lambda r: r["plaquettes"][3].update(pi1=r["plaquettes"][3]["pi1"] + 0.01),
    lambda r: r["plaquettes"].pop(),
], ids=["energy", "herald-z", "herald-missing", "triple-sum", "face-missing"])
def test_noisy_check_fails_on_corruption(noisy_doc, edit):
    workload = WORKLOADS["noisy-prepare-6x4"]
    assert check_document(workload, "prepare", noisy_doc, 200, None) == []
    assert check_document(workload, "prepare", _corrupt(noisy_doc, edit), 200, None)


@pytest.mark.parametrize("edit", [
    lambda r: r["plaquettes"][5].update(pi1=0.998),
    lambda r: r.update(energy_density=-0.999),
    lambda r: r.update(shots_per_basis=15),
], ids=["face-pi1", "energy", "shots"])
def test_noiseless_check_fails_on_corruption(noiseless_doc, edit):
    workload = WORKLOADS["noiseless-prepare-6x2"]
    assert check_document(workload, "prepare", noiseless_doc, 16, None) == []
    assert check_document(workload, "prepare", _corrupt(noiseless_doc, edit), 16, None)


def _braid_edit(r):
    face = r["frames"][1]["plaquettes"][0]
    face["pi1"] = 1.0 - face["pi1"]


def _compile_inconsistent(r):
    r["report"]["per_qutrit_two_qubit"][0] += 1


@pytest.mark.parametrize("label,edit", [
    ("braid_pf", _braid_edit),
    ("topo_6x2", lambda r: r.update(sampled_outcome=3)),
    ("topo_6x4", lambda r: r["per_outcome"][0]["braid_triple"].reverse()),
    ("prepare_exact", lambda r: r["plaquettes"][0].update(pi1=0.0)),
    ("compile", lambda r: r["report"].update(two_qubit_count=248)),
    ("compile", _compile_inconsistent),
    ("verify", lambda r: r.update(passed=False)),
], ids=["braid", "topo-outcome", "topo-triple", "prepare", "compile-count",
        "compile-inconsistent", "verify"])
def test_exact_check_fails_on_corruption(label, edit):
    reference = load_reference()
    workload = WORKLOADS["exact-suite"]
    results = copy.deepcopy(reference[label])
    if label.startswith("topo_"):
        results["sampled_outcome"] = 2
    doc = {"results": results}
    assert check_document(workload, label, doc, 0, reference) == []
    assert check_document(workload, label, _corrupt(doc, edit), 0, reference)


def test_loop_flags_repeats_that_differ(noiseless_doc):
    workload = WORKLOADS["noiseless-prepare-6x2"]
    loop = bench.Loop(CLI, workload, [], 16, None)
    text = json.dumps(noiseless_doc)
    loop._check("prepare", 0, text, "")
    loop._check("prepare", 0, text, "")
    assert loop.repeats_identical and loop.failed == 0
    loop._check("prepare", 0, text + " ", "")
    assert not loop.repeats_identical
    loop._check("prepare", 3, "", "internal invariant failure")
    assert loop.failed == 1 and loop.attempted == 4


def test_threads_comparison_ignores_only_the_threads_echo(noiseless_doc):
    other = copy.deepcopy(noiseless_doc)
    other["config"]["threads"] = 2
    assert bench.threads_problems({"prepare": other}, {"prepare": noiseless_doc}) == []
    other["results"]["plaquettes"][0]["pi1"] = 0.5
    assert bench.threads_problems({"prepare": other}, {"prepare": noiseless_doc})
    assert bench.threads_problems({"prepare": None}, {"prepare": noiseless_doc})


def test_op_ref_ratio_uses_the_chunks_next_to_each_op():
    events = [("op", 9.0), ("ref", 1.0), ("op", 4.0), ("ref", 2.0), ("ref", 2.0),
              ("op", 6.0), ("op", 3.0), ("ref", 4.0)]
    # the cold op is left out; the last two ops share their neighbours
    assert bench.op_ref_ratios(events) == pytest.approx([4.0 * 3 / 5, 6.0 * 3 / 8, 3.0 * 3 / 8])
    assert bench.op_ref_ratios([("op", 3.0), ("ref", 1.5)]) == [2.0]
