"""CLI subcommands: output schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import qutrit_toric
from qutrit_toric import cli, weyl
from qutrit_toric.circuit import FRAME_BLOCK
from qutrit_toric.cli import main
from qutrit_toric.encoder import NativeOp, encode_circuit
from qutrit_toric.lattice import build_lattice, ground_state_circuit

NOISY_4X2_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                              "noisy_prepare_4x2_seed9.json")
NOISY_4X2_ARGV = ("prepare", "--lx", "4", "--ly", "2", "--noise", "default",
                  "--shots", "300", "--seed", "9")


def run_cli(tmp_path, *argv):
    out = tmp_path / "result.json"
    code = main([*argv, "-o", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc, out


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
        qc, _ = encode_circuit(ground_state_circuit(build_lattice(6, 4)), basis=basis)
        involved = [q // 2 for op in qc.ops
                    if isinstance(op, NativeOp) and op.kind == "zzphase" for q in op.qubits]
        counts = [involved.count(k) for k in range(24)]
        assert doc["results"]["report"]["per_qutrit_two_qubit"] == counts


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


class TestConfigEcho:
    def test_spam_rate_is_echoed(self, tmp_path):
        """Runs that differ only in --spam-p01 differ in config as well as in results."""
        docs = [run_cli(tmp_path, *NOISY_4X2_ARGV, "--spam-p01", p)[1] for p in ("0.01", "0.2")]
        assert docs[0]["results"] != docs[1]["results"]
        assert [d["config"]["spam_p01"] for d in docs] == [0.01, 0.2]

    @pytest.mark.parametrize("argv, keys", [
        (["braid-pf"], {"seed", "threads"}),
        (["topo-qutrit", "--csv", "t.csv"], {"lx", "ly", "seed", "threads"}),
        (["verify", "-o", "v.json"], {"seed", "threads"}),
        (["prepare"], {"lx", "ly", "seed", "threads", "shots", "noise", "p1", "p2",
                       "spam_p01", "spam_p10", "leak"}),
        (["compile"], {"lx", "ly", "seed", "threads", "basis", "optimization", "dump_ops"}),
        (["bounds"], {"seed", "threads", "trp", "trq", "sites", "se_p", "se_q"}),
    ])
    def test_every_option_but_output_is_echoed(self, argv, keys):
        args = cli.build_parser().parse_args(["--config", "c.json", *argv])
        assert cli._config_echo(args).keys() == keys


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
        ({"seed": -1}, "braid-pf"),
    ], ids=["lx-word", "lx-float", "lx-bool", "noise-choice", "noise-number",
            "flag-string", "shots-negative", "threads-zero", "leak-negative",
            "spam-above-one", "seed-negative"])
    def test_config_value_that_does_not_parse(self, tmp_path, capsys, conf, command):
        code, doc, _ = self.run_with_config(tmp_path, conf, command)
        assert code == 2 and doc is None
        assert "--config" in capsys.readouterr().err

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

    def test_bounds_inputs_from_config(self, tmp_path):
        _, flags, _ = run_cli(tmp_path, "bounds", "--trp", "0.75", "--trq", "0.68",
                              "--sites", "24")
        code, doc, _ = self.run_with_config(tmp_path, {"trp": 0.75, "trq": 0.68, "sites": 24},
                                            "bounds")
        assert code == 0
        assert doc["results"]["bound"] == flags["results"]["bound"]

    @pytest.mark.parametrize("flag, value", [
        ("--trp", "nan"), ("--trp", "inf"), ("--trq", "Infinity"), ("--se-p", "-1"),
        ("--se-q", "nan"),
    ])
    def test_bounds_input_not_finite_or_negative_error(self, tmp_path, capsys, flag, value):
        argv = {"--trp": "0.75", "--trq": "0.68", "--sites": "2", flag: value}
        code, doc, _ = run_cli(tmp_path, "bounds", *[t for kv in argv.items() for t in kv])
        assert code == 2 and doc is None
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("conf", [{"trp": float("nan")}, {"trq": float("inf")},
                                      {"se_p": -1}, {"se_q": -0.5}])
    def test_bounds_config_value_not_finite_or_negative_error(self, tmp_path, capsys, conf):
        conf = {"trp": 0.75, "trq": 0.68, "sites": 2, **conf}
        code, doc, _ = self.run_with_config(tmp_path, conf, "bounds")
        assert code == 2 and doc is None
        assert "--config" in capsys.readouterr().err

    def test_bounds_accepts_slightly_out_of_range_trace(self, tmp_path):
        """Values a little outside [0, 1] are clamped and flagged, not refused."""
        code, doc, _ = run_cli(tmp_path, "bounds", "--trp", "1.01", "--trq", "0.68",
                               "--sites", "2")
        assert code == 0 and doc["results"]["inputs_clamped"]

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
    ], ids=["output-under-file", "output-is-directory", "output-under-file-with-csv",
            "csv-under-file", "csv-to-stdout"])
    def test_unwritable_path(self, tmp_path, capsys, monkeypatch, flag, where, command):
        """A write that fails exits 2 and leaves no file of the run behind.
        --csv - is refused: stdout carries the result document."""
        monkeypatch.chdir(tmp_path)
        plain, other = tmp_path / "plain", tmp_path / "other"
        plain.write_text("")
        paths = {"file": plain, "dir": tmp_path, "other": other}
        path = where.format(**paths)
        assert main([*(a.format(**paths) for a in command), flag, path]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot write {flag} {path}: ")
        assert os.listdir(tmp_path) == ["plain"]

    def test_bounds_missing_input(self, tmp_path, capsys):
        code, doc, _ = self.run_with_config(tmp_path, {"trp": 0.75, "trq": 0.68}, "bounds")
        assert code == 2 and doc is None
        assert "--sites" in capsys.readouterr().err

    def test_topo_rejects_size_before_building_a_layout(self, tmp_path, monkeypatch):
        def unexpected():
            raise AssertionError("layout built for an unsupported size")

        monkeypatch.setattr(cli, "topo_layout_6x4", unexpected)
        monkeypatch.setattr(cli, "topo_layout_6x2", unexpected)
        code, _, _ = run_cli(tmp_path, "topo-qutrit", "--lx", "4", "--ly", "4")
        assert code == 2
