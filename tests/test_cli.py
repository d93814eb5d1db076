"""CLI subcommands: output schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import qutrit_toric
from qutrit_toric import cli, encoder, weyl
from qutrit_toric.circuit import FRAME_BLOCK
from qutrit_toric.cli import main
from qutrit_toric.encoder import (
    NativeOp,
    compile_report,
    encode_circuit,
    qubit_circuit_text,
    qubit_circuit_to_json,
)
from qutrit_toric.experiments import (
    BRAID_PRESETS,
    TOPO_LAYOUTS,
    ScriptRunner,
    TopologicalQutritProtocol,
)
from qutrit_toric.lattice import build_lattice, ground_state_circuit
from qutrit_toric.serialize import dumps

from oracles import count_tableau_calls

NOISY_4X2_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                              "noisy_prepare_4x2_seed9.json")
NOISY_4X2_ARGV = ("prepare", "--lx", "4", "--ly", "2", "--noise", "default",
                  "--shots", "300", "--seed", "9")
BOUND_KEYS = {"tr_p", "tr_q", "lower", "upper", "per_site_lower", "per_site_upper",
              "n_sites", "lower_se", "upper_se"}


def run_cli(tmp_path, *argv):
    out = tmp_path / "result.json"
    code = main([*argv, "-o", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc, out


def run_with_stdout_closed(tmp_path, *argv):
    """Run the CLI in tmp_path with its stdout reader closed; (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qutrit_toric.__file__)))
    with subprocess.Popen(
            [sys.executable, "-c", "import sys; from qutrit_toric.cli import main; "
             "sys.exit(main())", *argv], cwd=tmp_path, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src}) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    return proc.returncode, err


def test_import_loads_no_process_pool():
    """Shots run in one process: importing the CLI loads neither
    multiprocessing nor concurrent.futures."""
    code = ("import sys, qutrit_toric.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qutrit_toric.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestPrepare:
    def test_exact_noiseless_values(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "prepare", "--lx", "6", "--ly", "4",
                               "--noise", "off")
        assert code == 0
        assert doc["schema"] == "qutrit-toric/result/v1"
        res = doc["results"]
        assert all(p["pi1"] == 1.0 for p in res["plaquettes"])
        logi = res["logical_projectors"]
        assert logi["z_horizontal"] == 1.0 and logi["z_vertical"] == 1.0
        assert logi["x_horizontal"] == pytest.approx(1 / 3)
        assert res["energy_density"] == -1.0

    def test_byte_identical_reruns(self, tmp_path):
        _, _, out1 = run_cli(tmp_path, "prepare", "--lx", "4", "--ly", "2",
                             "--shots", "50", "--noise", "default", "--seed", "9")
        text1 = out1.read_text()
        _, _, out2 = run_cli(tmp_path, "prepare", "--lx", "4", "--ly", "2",
                             "--shots", "50", "--noise", "default", "--seed", "9")
        assert out2.read_text() == text1

    def test_threads_leave_noisy_document_unchanged(self, tmp_path):
        """Over more than one block of frame draws, --threads 1 and 2 give the
        same document apart from the threads echo."""
        docs = []
        for threads in (1, 2):
            code, doc, _ = run_cli(tmp_path, "prepare", "--lx", "6", "--ly", "4",
                                   "--noise", "default", "--shots", str(FRAME_BLOCK + 1),
                                   "--seed", "4", "--threads", str(threads))
            assert code == 0 and doc["config"].pop("threads") == threads
            docs.append(doc)
        assert docs[0]["results"]["shots_per_basis"] == FRAME_BLOCK + 1
        assert docs[0] == docs[1]

    def test_bases_draw_from_their_own_seeds(self, tmp_path, monkeypatch):
        """Each basis's frame and readout seeds come from (seed, basis): they
        differ between the bases and repeat on a rerun."""
        seen = []
        run_shots, simulate_readout = cli.run_shots, cli.simulate_readout

        def frames(*args, **kwargs):
            seen.append(("frames", kwargs["base_seed"]))
            return run_shots(*args, **kwargs)

        def readout(*args, **kwargs):
            seen.append(("readout", kwargs["seed"]))
            return simulate_readout(*args, **kwargs)

        monkeypatch.setattr(cli, "run_shots", frames)
        monkeypatch.setattr(cli, "simulate_readout", readout)
        runs = []
        for _ in range(2):
            seen.clear()
            code, _, _ = run_cli(tmp_path, "prepare", "--lx", "4", "--ly", "2", "--noise",
                                 "default", "--shots", "20", "--seed", "9")
            assert code == 0
            runs.append(list(seen))
        assert runs[0] == runs[1]
        assert [kind for kind, _ in runs[0]] == ["frames", "readout"] * 2
        (_, frame_z), (_, readout_z), (_, frame_x), (_, readout_x) = runs[0]
        assert frame_z != frame_x and readout_z != readout_x

    def test_csv_emission(self, tmp_path):
        csv = tmp_path / "table.csv"
        code = main(["prepare", "--lx", "4", "--ly", "2", "--noise", "off",
                     "-o", str(tmp_path / "r.json"), "--csv", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("kind,")
        assert len(lines) == 1 + 8

    def test_csv_and_output_create_missing_directories(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["prepare", "--lx", "4", "--ly", "2", "--csv", "new/t.csv",
                     "-o", "new2/r.json"]) == 0
        assert len((tmp_path / "new" / "t.csv").read_text().splitlines()) == 1 + 8
        assert len(json.loads((tmp_path / "new2" / "r.json").read_text())
                   ["results"]["plaquettes"]) == 8

    def test_invalid_lattice_is_config_error(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "prepare", "--lx", "5", "--ly", "4")
        assert code == 2


class TestNoisyDocumentPin:
    """The noisy 4x2 results (leak counts, readout, heralding, estimators)
    equal the recorded document. It was last recorded when frame blocks
    began to draw their noise at once, skipping source rows whose form is
    zero, and each basis got its own seeds."""

    @pytest.fixture(scope="class")
    def pinned(self):
        with open(NOISY_4X2_PATH) as fh:
            return json.load(fh)

    def test_results_equal_pinned_document(self, tmp_path, pinned):
        code, doc, _ = run_cli(tmp_path, *NOISY_4X2_ARGV)
        assert code == 0
        assert doc["results"] == pinned

    def test_noisy_prepare_compiles_no_qubit_circuit(self, tmp_path, pinned, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("noisy prepare built a qubit circuit")

        monkeypatch.setattr(cli, "encode_circuit", refuse)
        code, doc, _ = run_cli(tmp_path, *NOISY_4X2_ARGV)
        assert code == 0
        assert doc["results"] == pinned


class TestBraids:
    @pytest.mark.parametrize("name", ["braid-pf", "braid-cc", "fuse-pf-pfstar"])
    def test_presets_emit_frames(self, tmp_path, name):
        code, doc, _ = run_cli(tmp_path, name)
        assert code == 0
        frames = doc["results"]["frames"]
        assert frames
        assert doc["results"]["preset"] == name
        assert "script" in doc["results"]


class TestTopoQutrit:
    def test_per_outcome_table(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "topo-qutrit", "--lx", "6", "--ly", "2")
        assert code == 0
        rows = doc["results"]["per_outcome"]
        assert len(rows) == 3
        for j, row in enumerate(rows):
            assert row["braid_triple"][j] == 1.0
            assert row["neutrality_triple"][0] == 1.0
            assert row["pair_projectors"] == [pytest.approx(1 / 3)] * 2
            assert row["fidelity_bound"]["lower"] == 1.0

    def test_unsupported_lattice(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "topo-qutrit", "--lx", "4", "--ly", "4")
        assert code == 2


def test_results_are_the_library_entries(tmp_path):
    """Braid frames and topological-qutrit rows reach the document as the
    library built them: no converter sits between a run and its results."""
    for name, build in BRAID_PRESETS.items():
        code, doc, _ = run_cli(tmp_path, name, "--seed", "7")
        assert code == 0
        assert doc["results"]["frames"] == ScriptRunner(build(), seed=7).run()
    for (lx, ly), layout in TOPO_LAYOUTS.items():
        code, doc, _ = run_cli(tmp_path, "topo-qutrit", "--lx", str(lx), "--ly", str(ly),
                               "--seed", "5")
        assert code == 0
        assert doc["results"] == {"preset": f"topo-qutrit-{lx}x{ly}", "lattice": [lx, ly],
                                  **TopologicalQutritProtocol(layout()).run(5)}


class TestCompile:
    def test_report_contents(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "compile", "--lx", "6", "--ly", "4",
                               "--basis", "z")
        assert code == 0
        rep = doc["results"]["report"]
        assert 214 <= rep["two_qubit_count"] <= 289
        assert rep["budget_table"]["c"] == 1
        assert rep["basis"] == "z"

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_per_qutrit_counts_match_compiled_ops(self, tmp_path, basis):
        code, doc, _ = run_cli(tmp_path, "compile", "--lx", "6", "--ly", "4",
                               "--basis", basis)
        assert code == 0
        qc = encode_circuit(ground_state_circuit(build_lattice(6, 4)), basis=basis)
        involved = [q // 2 for op in qc.ops
                    if isinstance(op, NativeOp) and op.kind == "zzphase" for q in op.qubits]
        counts = [involved.count(k) for k in range(24)]
        assert doc["results"]["report"]["per_qutrit_two_qubit"] == counts

    def test_plain_compile_builds_no_qubit_circuit(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compile without --dump-ops built a qubit circuit")

        monkeypatch.setattr(encoder, "_place", refuse)
        code, doc, _ = run_cli(tmp_path, "compile", "--lx", "6", "--ly", "4")
        assert code == 0
        assert "qubit_circuit" not in doc["results"]

    @pytest.mark.parametrize("basis,level", [("z", "0"), ("z", "1"), ("x", "1")])
    def test_dump_ops_gives_the_plain_report(self, tmp_path, basis, level):
        argv = ("compile", "--lx", "6", "--ly", "4", "--basis", basis, "--optimization", level)
        code, plain, _ = run_cli(tmp_path, *argv)
        dump_code, dumped, _ = run_cli(tmp_path, *argv, "--dump-ops")
        assert code == dump_code == 0
        assert dumped["results"]["report"] == plain["results"]["report"]
        assert dumped["results"]["qubit_circuit"]["ops"]


    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_documents_are_the_library_outputs(self, tmp_path, basis, level):
        """The report entry is compile_report's dict and the dumped forms are
        the emitters' output for encode_circuit's qubit circuit, as they are."""
        circ = ground_state_circuit(build_lattice(4, 2))
        argv = ("compile", "--lx", "4", "--ly", "2", "--basis", basis, "--optimization",
                str(level))
        code, plain, _ = run_cli(tmp_path, *argv)
        dump_code, dumped, _ = run_cli(tmp_path, *argv, "--dump-ops")
        assert code == dump_code == 0
        report = compile_report(circ, basis, level)
        assert plain["results"]["report"] == dumped["results"]["report"] == report
        qc = encode_circuit(circ, basis, level)
        assert dumped["results"]["qubit_circuit"] == qubit_circuit_to_json(qc)
        assert dumped["results"]["qubit_circuit_text"] == qubit_circuit_text(qc)


class TestVerifyAndBounds:
    def test_verify_passes(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "verify")
        assert code == 0
        assert doc["results"]["passed"] is True

    def test_verify_catches_a_wrong_rule(self, monkeypatch, capsys):
        """A CZ rule whose phase is one off fails verify with exit 3, and the
        message names the rule."""
        rule = weyl.conjugate_rows

        def wrong_cz(g, x, z, ph, d):
            rule(g, x, z, ph, d)
            if g.kind is weyl.GateKind.CZ:
                ph += 1

        monkeypatch.setattr(weyl, "conjugate_rows", wrong_cz)
        assert main(["verify", "-o", "-"]) == 3
        err = capsys.readouterr().err
        assert "conjugation cz on" in err
        assert "conjugation czdg" not in err

    def test_bounds_reference(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "bounds", "--trp", "0.75",
                               "--trq", "0.68", "--sites", "24")
        assert code == 0
        b = doc["results"]["bound"]
        assert set(b) == BOUND_KEYS
        assert b["per_site_lower"] == pytest.approx(0.9654, abs=5e-4)
        assert b["per_site_upper"] == pytest.approx(0.9841, abs=5e-4)

    def test_config_file_precedence(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"trp": 0.9, "trq": 0.9, "sites": 10}))
        out = tmp_path / "r.json"
        code = main(["--config", str(conf), "bounds", "--trp", "0.75",
                     "--trq", "0.68", "--sites", "24", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        # explicit flags win over the config file
        assert doc["results"]["bound"]["tr_p"] == 0.75
        assert doc["config"]["sites"] == 24


README_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "README.md")


def test_readme_examples_parse():
    """Every qutrit-toric command line in the README parses."""
    with open(README_PATH) as fh:
        lines = [line.split("#")[0].split() for line in fh
                 if line.startswith("qutrit-toric ")]
    assert len(lines) == 10
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


REFERENCE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "benchmarks", "reference", "exact_suite.json")

# label in the reference file -> argv; the compile document is left out, since
# a better compiler may lower its counts
EXACT_SUITE = {
    "braid_pf": ("braid-pf",),
    "braid_cc": ("braid-cc",),
    "fuse_pf_pfstar": ("fuse-pf-pfstar",),
    "topo_6x2": ("topo-qutrit", "--lx", "6", "--ly", "2"),
    "topo_6x4": ("topo-qutrit", "--lx", "6", "--ly", "4"),
    "prepare_exact": ("prepare", "--lx", "6", "--ly", "4", "--noise", "off"),
    "verify": ("verify",),
}


class TestExactSuiteReference:
    """The exact (shot-free) documents, verify's float errors included, equal
    the recorded reference; topo's sampled outcome is drawn, so it is left out."""

    @pytest.fixture(scope="class")
    def reference(self):
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("label", sorted(EXACT_SUITE))
    def test_document_equals_reference(self, tmp_path, reference, label):
        code, doc, _ = run_cli(tmp_path, *EXACT_SUITE[label])
        assert code == 0
        results = doc["results"]
        if label.startswith("topo_"):
            assert results.pop("sampled_outcome") in (0, 1, 2)
        assert results == reference[label]


class TestWeylOpCount:
    """The exact paths read faces and defect stabilizers as exponent stacks, so
    a command builds few WeylOp objects: each bound is the count measured when
    they moved onto stacks (828 in all for these eight commands before)."""

    BOUNDS = {"braid_pf": 83, "braid_cc": 52, "fuse_pf_pfstar": 101, "topo_6x2": 13,
              "topo_6x4": 15, "prepare_exact": 4, "compile": 0, "verify": 0}

    @pytest.mark.parametrize("label", sorted(BOUNDS))
    def test_weyl_ops_built_per_command(self, tmp_path, monkeypatch, label):
        argv = EXACT_SUITE.get(label, ("compile", "--lx", "6", "--ly", "4", "--basis", "z"))
        assert run_cli(tmp_path, *argv)[0] == 0  # the first call fills the per-process caches
        post_init, built = weyl.WeylOp.__post_init__, []

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(weyl.WeylOp, "__post_init__", counting)
        assert run_cli(tmp_path, *argv)[0] == 0
        assert len(built) <= self.BOUNDS[label]


class TestFrameCompileCount:
    """A noisy prepare's circuits measure nothing before their measure-all
    tail, so the frame compile replays no gate on a tableau: each basis takes
    the tail's reference values from one lookup of its observables conjugated
    back to |0>^n by the backward pass (88 gate applications before)."""

    def test_noisy_prepare_replays_no_gate(self, tmp_path, monkeypatch):
        calls = count_tableau_calls(monkeypatch, "apply_gate", "measure_weyl",
                                    "reference_outcomes")
        argv = ("prepare", "--lx", "6", "--ly", "4", "--noise", "default", "--shots", "500")
        assert run_cli(tmp_path, *argv)[0] == 0
        assert calls == {"apply_gate": 0, "measure_weyl": 0, "reference_outcomes": 2}


# one small run of every subcommand
EVERY_SUBCOMMAND = [
    ("prepare", "--lx", "4", "--ly", "2"),
    ("prepare", "--lx", "4", "--ly", "2", "--noise", "default", "--shots", "50"),
    ("braid-pf",), ("braid-cc",), ("fuse-pf-pfstar",),
    ("topo-qutrit", "--lx", "6", "--ly", "2"),
    ("compile", "--lx", "4", "--ly", "2"),
    ("verify",),
    ("bounds", "--trp", "0.7", "--trq", "0.6", "--sites", "2"),
]


class TestDocumentForm:
    """A document is one line of compact JSON with sorted keys."""

    def test_dumps_is_compact_with_sorted_keys(self):
        doc = {"b": [1, 2.5, {"z": None, "y": True}], "a": {"d": "x y", "c": -3}}
        text = dumps(doc)
        assert text == '{"a":{"c":-3,"d":"x y"},"b":[1,2.5,{"y":true,"z":null}]}'
        assert json.loads(text) == doc

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda a: " ".join(a))
    def test_stdout_is_one_line_and_file_ends_in_one_newline(self, tmp_path, capsys, argv):
        assert main([*argv, "-o", "-"]) == 0
        out = capsys.readouterr().out
        assert out == dumps(json.loads(out)) + "\n" and out.count("\n") == 1
        code, doc, path = run_cli(tmp_path, *argv)
        assert code == 0
        assert path.read_text() == dumps(doc) + "\n"
        assert capsys.readouterr() == ("", f"wrote {path}\n")  # stdout carries documents only


class TestConfigEcho:
    def test_spam_rate_is_echoed(self, tmp_path):
        """Runs that differ only in --spam-p01 differ in config as well as in results."""
        docs = [run_cli(tmp_path, *NOISY_4X2_ARGV, "--spam-p01", p)[1] for p in ("0.01", "0.2")]
        assert docs[0]["results"] != docs[1]["results"]
        assert [d["config"]["spam_p01"] for d in docs] == [0.01, 0.2]

    @pytest.mark.parametrize("argv, keys", [
        (["braid-pf"], {"seed": 0, "threads": 1}),
        (["topo-qutrit", "--csv", "t.csv"], {"lx": 6, "ly": 2, "seed": 0, "threads": 1}),
        (["verify", "-o", "v.json"], {"seed": 0, "threads": 1}),
        (["prepare"], {"lx": 6, "ly": 4, "seed": 0, "threads": 1, "shots": 0, "noise": "off",
                       "p1": 0.0, "p2": 2e-3, "spam_p01": 2.37e-3, "spam_p10": 0.82e-3,
                       "leak": 2.5e-4}),
        (["compile"], {"lx": 6, "ly": 4, "seed": 0, "threads": 1, "basis": "z",
                       "optimization": 1, "dump_ops": False}),
        (["bounds"], {"seed": 0, "threads": 1, "trp": None, "trq": None, "sites": None,
                      "se_p": 0.0, "se_q": 0.0}),
        (["braid-cc"], {"seed": 0, "threads": 1}),
        (["fuse-pf-pfstar"], {"seed": 0, "threads": 1}),
    ])
    def test_every_option_but_output_is_echoed(self, argv, keys):
        """keys is the whole echo: every option the document records, with its default."""
        args = cli.build_parser().parse_args(["--config", "c.json", *argv])
        assert cli._config_echo(args) == keys

    def test_every_subcommand_carries_its_command(self, monkeypatch):
        """Each subparser names its command, read when the parser is built, so a
        command swapped on the module (as a tracer does) is the one that runs."""
        def traced(args):
            return {}

        monkeypatch.setattr(cli, "cmd_verify", traced)
        parser = cli.build_parser()
        runs = {name: parser.parse_args([name]).run for name in
                ("prepare", *BRAID_PRESETS, "topo-qutrit", "compile", "verify", "bounds")}
        assert runs == {"prepare": cli.cmd_prepare, **dict.fromkeys(BRAID_PRESETS, cli.cmd_braid),
                        "topo-qutrit": cli.cmd_topo, "compile": cli.cmd_compile,
                        "verify": traced, "bounds": cli.cmd_bounds}


class TestInputValidation:
    def run_with_config(self, tmp_path, conf, *argv):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        return run_cli(tmp_path, "--config", str(path), *argv)

    def test_config_values_parsed_by_option_type(self, tmp_path):
        code, doc, _ = self.run_with_config(tmp_path, {"lx": "4", "ly": "2", "noise": "off"},
                                            "prepare")
        assert code == 0
        assert doc["config"]["lx"] == 4 and doc["results"]["lattice"] == [4, 2]

    @pytest.mark.parametrize("conf, command", [
        ({"lx": "six"}, "prepare"), ({"lx": 6.5}, "prepare"), ({"lx": True}, "prepare"),
        ({"noise": "loud"}, "prepare"), ({"noise": 1}, "prepare"),
        ({"dump_ops": "yes"}, "compile"), ({"shots": -5}, "prepare"),
        ({"threads": 0}, "prepare"), ({"leak": -1}, "prepare"), ({"spam_p01": 1.5}, "prepare"),
        ({"seed": -1}, "braid-pf"), ({"lx": 3}, "prepare"), ({"ly": 0}, "compile"),
    ], ids=["lx-word", "lx-float", "lx-bool", "noise-choice", "noise-number",
            "flag-string", "shots-negative", "threads-zero", "leak-negative",
            "spam-above-one", "seed-negative", "lx-odd", "ly-zero"])
    def test_config_value_that_does_not_parse(self, tmp_path, capsys, conf, command):
        code, doc, _ = self.run_with_config(tmp_path, conf, command)
        assert code == 2 and doc is None
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("compile", "--lx", "0"), "--lx"), (("prepare", "--lx", "1", "--ly", "1"), "--lx"),
        (("prepare", "--ly", "3"), "--ly"), (("topo-qutrit", "--ly", "-2"), "--ly"),
    ])
    def test_torus_side_not_even_or_below_two(self, tmp_path, capsys, argv, flag):
        code, doc, _ = run_cli(tmp_path, *argv)
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an even integer >= 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (("prepare", "--lx", "34"), "--lx"), (("compile", "--lx", "1000000"), "--lx"),
        (("prepare", "--noise", "default", "--ly", "34"), "--ly"),
        (("topo-qutrit", "--ly", "1000000"), "--ly"),
    ])
    def test_torus_side_above_bound(self, monkeypatch, tmp_path, capsys, argv, flag):
        """A side above MAX_TORUS_SIDE is refused while the flags are parsed,
        before any lattice is built."""
        def built(*args):
            raise AssertionError("built a lattice past the bound")

        monkeypatch.setattr(cli, "build_lattice", built)
        code, doc, _ = run_cli(tmp_path, *argv)
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        value = argv[argv.index(flag) + 1]
        assert f"argument {flag}: must be at most 32, got {value}" in err
        assert "Traceback" not in err

    def test_config_unknown_key(self, tmp_path, capsys):
        code, doc, _ = self.run_with_config(tmp_path, {"shot": 100}, "prepare")
        assert code == 2 and doc is None
        assert "unknown key 'shot'" in capsys.readouterr().err

    def test_config_file_not_json(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text("{lx: 6")
        code, _, _ = run_cli(tmp_path, "--config", str(path), "prepare")
        assert code == 2

    def test_negative_shots(self, tmp_path, capsys):
        code, doc, _ = run_cli(tmp_path, "prepare", "--shots", "-5", "--noise", "default")
        assert code == 2 and doc is None
        assert "--shots" in capsys.readouterr().err

    @pytest.mark.parametrize("shots, noise", [
        ("10000000000", "off"), (str(cli.MAX_SHOT_QUTRITS // 4 + 1), "default"),
    ])
    def test_shots_past_budget(self, tmp_path, capsys, monkeypatch, shots, noise):
        """More than MAX_SHOT_QUTRITS shot-qutrits is refused before any shot
        is drawn, naming --shots and the largest count the lattice allows."""
        def sampled(*args, **kwargs):
            raise AssertionError("drew shots past the budget")

        monkeypatch.setattr(cli, "run_shots", sampled)
        code, doc, _ = run_cli(tmp_path, "prepare", "--lx", "2", "--ly", "2",
                               "--noise", noise, "--shots", shots)
        assert code == 2 and doc is None
        err = capsys.readouterr().err
        assert f"--shots {shots}" in err and f"at most {cli.MAX_SHOT_QUTRITS // 4}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value", [
        ("prepare", "--threads", "0"), ("prepare", "--threads", "-3"),
        ("prepare", "--seed", "-1"), ("braid-pf", "--seed", "-1"), ("topo-qutrit", "--seed", "-1"),
    ], ids=["0", "-3", "seed-prepare", "seed-braid-pf", "seed-topo-qutrit"])
    def test_threads_below_one(self, tmp_path, capsys, command, flag, value):
        """--threads below 1 and a negative --seed exit 2 naming the flag."""
        code, doc, _ = run_cli(tmp_path, command, flag, value)
        assert code == 2 and doc is None
        assert f"argument {flag}: must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--p1", "-0.1"), ("--p2", "1.5"), ("--spam-p01", "1.5"), ("--spam-p10", "-1"),
        ("--leak", "-1"), ("--leak", "1.5"),
    ])
    def test_probability_outside_unit_interval(self, tmp_path, capsys, flag, value):
        code, doc, _ = run_cli(tmp_path, "prepare", "--noise", "default", "--shots", "5",
                               flag, value)
        assert code == 2 and doc is None
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--leak", "1")])
    def test_every_shot_heralded(self, tmp_path, capsys, flag, value):
        """A basis that keeps no shot exits 2 naming the basis and the herald check.
        A leak rate of 1 heralds every shot; a spam rate heralds a shot only by chance
        (see tests/test_encoder.py::TestReadoutRates::test_pair_reads_both_flips)."""
        code, doc, _ = run_cli(tmp_path, "prepare", "--noise", "default", "--shots", "10",
                               flag, value)
        assert code == 2 and doc is None
        assert "all 10 z-basis shots failed the herald check" in capsys.readouterr().err

    def test_bounds_inputs_from_config(self, tmp_path):
        _, flags, _ = run_cli(tmp_path, "bounds", "--trp", "0.75", "--trq", "0.68",
                              "--sites", "24")
        code, doc, _ = self.run_with_config(tmp_path, {"trp": 0.75, "trq": 0.68, "sites": 24},
                                            "bounds")
        assert code == 0
        assert doc["results"]["bound"] == flags["results"]["bound"]

    @pytest.mark.parametrize("flag, value", [
        ("--trp", "nan"), ("--trp", "inf"), ("--trq", "Infinity"), ("--se-p", "-1"),
        ("--se-q", "nan"), ("--sites", "0"), ("--sites", "-3"),
    ])
    def test_bounds_input_not_finite_or_negative_error(self, tmp_path, capsys, flag, value):
        argv = {"--trp": "0.75", "--trq": "0.68", "--sites": "2", flag: value}
        code, doc, _ = run_cli(tmp_path, "bounds", *[t for kv in argv.items() for t in kv])
        assert code == 2 and doc is None
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("conf", [{"trp": float("nan")}, {"trq": float("inf")},
                                      {"se_p": -1}, {"se_q": -0.5}, {"sites": 0}])
    def test_bounds_config_value_not_finite_or_negative_error(self, tmp_path, capsys, conf):
        conf = {"trp": 0.75, "trq": 0.68, "sites": 2, **conf}
        code, doc, _ = self.run_with_config(tmp_path, conf, "bounds")
        assert code == 2 and doc is None
        assert "--config" in capsys.readouterr().err

    def test_bounds_accepts_slightly_out_of_range_trace(self, tmp_path):
        """Values a little outside [0, 1] are clamped and flagged, not refused;
        the flag sits beside the bound, whose keys stay the same."""
        for trp in ("1.01", "1.2"):
            code, doc, _ = run_cli(tmp_path, "bounds", "--trp", trp, "--trq", "0.68",
                                   "--sites", "2")
            assert code == 0 and doc["results"]["inputs_clamped"]
            assert set(doc["results"]["bound"]) == BOUND_KEYS
            assert doc["results"]["bound"]["tr_p"] == float(trp)

    @pytest.mark.parametrize("command", ["braid-pf", "braid-cc", "fuse-pf-pfstar", "compile",
                                         "verify", "bounds"])
    def test_csv_offered_only_where_written(self, tmp_path, capsys, command):
        code, doc, _ = run_cli(tmp_path, command, "--csv", str(tmp_path / "t.csv"))
        assert code == 2 and doc is None
        assert "--csv" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flag, where, command", [
        ("--output", "{file}/x.json", ("bounds", "--trp", ".7", "--trq", ".6", "--sites", "2")),
        ("--output", "{dir}/", ("bounds", "--trp", ".7", "--trq", ".6", "--sites", "2")),
        ("--output", "{file}/x.json", ("prepare", "--lx", "4", "--ly", "2", "--csv", "{other}")),
        ("--csv", "{file}/x.csv", ("prepare", "--lx", "4", "--ly", "2", "-o", "{other}")),
        ("--csv", "-", ("prepare", "--lx", "4", "--ly", "2", "-o", "{other}")),
        ("--csv", "", ("prepare", "--lx", "4", "--ly", "2", "-o", "{other}")),
        ("--output", "{file}/x.json", ("prepare", "--lx", "4", "--ly", "2", "--csv", "new/t.csv")),
        ("--output", "new/x/", ("bounds", "--trp", ".7", "--trq", ".6", "--sites", "2")),
        ("--csv", "new/sub/", ("prepare", "--lx", "4", "--ly", "2", "-o", "{other}")),
    ], ids=["output-under-file", "output-is-directory", "output-under-file-with-csv",
            "csv-under-file", "csv-to-stdout", "csv-empty", "output-under-file-with-csv-in-new-dir",
            "output-is-new-directory", "csv-is-new-directory"])
    def test_unwritable_path(self, tmp_path, capsys, monkeypatch, flag, where, command):
        """A write that fails exits 2 and leaves no file or directory of the run
        behind. --csv - is refused: stdout carries the result document. An
        empty --csv path is a path that cannot be written, not an absent flag."""
        monkeypatch.chdir(tmp_path)
        plain, other = tmp_path / "plain", tmp_path / "other"
        plain.write_text("")
        paths = {"file": plain, "dir": tmp_path, "other": other}
        path = where.format(**paths)
        assert main([*(a.format(**paths) for a in command), flag, path]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot write {flag} {path}: ")
        assert os.listdir(tmp_path) == ["plain"]

    @pytest.mark.parametrize("argv", [("verify",), ("prepare", "--lx", "4", "--ly", "2",
                                                    "--csv", "new/t.csv")])
    def test_stdout_closed_by_reader(self, tmp_path, argv):
        """-o - into a pipe whose reader has gone exits 2 with one message line,
        no traceback and no exit-time flush error, and removes the CSV and the
        directory made for it."""
        code, err = run_with_stdout_closed(tmp_path, *argv, "-o", "-")
        assert code == 2
        assert err == "configuration error: cannot write --output -: Broken pipe\n"
        assert os.listdir(tmp_path) == []

    def test_status_line_survives_closed_stdout(self, tmp_path):
        """The 'wrote <path>' line goes to stderr: a file run whose stdout reader
        has gone exits 0 with its file written and no traceback."""
        code, err = run_with_stdout_closed(tmp_path, "bounds", "--trp", ".7", "--trq", ".6",
                                           "--sites", "2", "-o", "b.json")
        assert code == 0
        assert "Traceback" not in err and err == "wrote b.json\n"
        assert json.loads((tmp_path / "b.json").read_text())["results"]["bound"]

    def test_bounds_missing_input(self, tmp_path, capsys):
        code, doc, _ = self.run_with_config(tmp_path, {"trp": 0.75, "trq": 0.68}, "bounds")
        assert code == 2 and doc is None
        assert "--sites" in capsys.readouterr().err

    def test_topo_rejects_size_before_building_a_layout(self, tmp_path, monkeypatch):
        def unexpected():
            raise AssertionError("layout built for an unsupported size")

        for size in TOPO_LAYOUTS:
            monkeypatch.setitem(TOPO_LAYOUTS, size, unexpected)
        code, _, _ = run_cli(tmp_path, "topo-qutrit", "--lx", "4", "--ly", "4")
        assert code == 2

    @pytest.mark.parametrize("name", list(BRAID_PRESETS))
    def test_braid_builds_only_its_own_script(self, tmp_path, monkeypatch, name):
        def unexpected():
            raise AssertionError("built a preset the command does not run")

        for other in set(BRAID_PRESETS) - {name}:
            monkeypatch.setitem(BRAID_PRESETS, other, unexpected)
        code, doc, _ = run_cli(tmp_path, name)
        assert code == 0 and doc["results"]["preset"] == name
