"""Command-line frontend: reproducible experiment runs with JSON output.

Subcommands: prepare, braid-pf, braid-cc, fuse-pf-pfstar, topo-qutrit,
compile, verify, bounds. Every run writes a JSON result document whose
content is a pure function of the configuration and seed (no
timestamps), so identical configurations produce byte-identical files.
Exit codes: 0 success, 2 configuration error, 3 internal invariant
failure.

Configuration precedence: command-line flags > --config file >
defaults. QUTRIT_TORIC_OUTDIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

from .analysis import energy_density, fidelity_bounds
from .circuit import execute, run_shots
from .encoder import (
    compile_report,
    decode_qubit_records,
    encode_circuit,
    herald_filter,
    LEAK_PER_TWO_QUBIT,
    per_qutrit_two_qubit,
    READOUT_P01,
    READOUT_P10,
    simulate_readout,
    SUPPORTED_GATES,
    verify_decomposition,
    zz_budget,
)
from .estimators import estimate_plaquette_projectors, snapshots_from_outcomes
from .experiments import BRAID_PRESETS, TOPO_LAYOUTS, ScriptRunner, TopologicalQutritProtocol
from .lattice import build_lattice, ground_state_circuit, measure_all_circuit
from .serialize import (
    circuit_to_json,
    dumps,
    result_document,
    script_to_json,
)
from .tableau import StabilizerTableau, outcome_triple

DEFAULT_SHOTS = 517  # max binomial standard error of a projector ~ 0.022


class ConfigError(Exception):
    pass


def _write_text(flag: str, path: str, text: str) -> str:
    """Write text to path ('-' is stdout), creating its directory; returns the topmost
    path it created. An OSError removes what it created and is a ConfigError naming flag."""
    top = path
    while not os.path.lexists(os.path.dirname(top) or "."):
        top = os.path.dirname(top)
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if path == "-":  # the reader is gone: send the exit-time flush to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if top != path:
            shutil.rmtree(top, ignore_errors=True)
        raise ConfigError(f"cannot write {flag} {path}: {exc.strerror or exc}") from exc
    return top


def _write_output(args, doc: dict, default_name: str) -> str:
    out = args.output
    if out is None:
        outdir = os.environ.get("QUTRIT_TORIC_OUTDIR", ".")
        out = os.path.join(outdir, default_name)
    _write_text("--output", out, dumps(doc) + "\n")
    return out


def _csv_table(payload: dict) -> tuple[list[str], list[list]]:
    """Header and rows of the CSV table: prepare's plaquettes or topo-qutrit's outcomes."""
    if "plaquettes" in payload:
        return (["kind", "x", "y", "pi1", "pi_omega", "pi_omegabar", "arg_deg"],
                [[s["kind"], s["pos"][0], s["pos"][1], s["pi1"], s["pi_omega"],
                  s["pi_omegabar"], s["arg_deg"]] for s in payload["plaquettes"]])
    return (["ancilla_outcome", "braid_pi1", "braid_pi_omega", "braid_pi_omegabar",
             "neutral_pi1", "neutral_pi_omega", "neutral_pi_omegabar", "pair1_pi1",
             "pair2_pi1", "bound_lower", "bound_upper"],
            [[r["ancilla_outcome"], *r["braid_triple"], *r["neutrality_triple"],
              *r["pair_projectors"], r["fidelity_bound"]["lower"],
              r["fidelity_bound"]["upper"]] for r in payload["per_outcome"]])


def _csv_text(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(str(v) for v in row) + "\n" for row in [header, *rows])


def _config_echo(args) -> dict:
    """Every option of the subcommand but --config, --output and --csv (no result reads them)."""
    return {k: v for k, v in vars(args).items()
            if k not in ("subcommand", "run", "config", "output", "csv")}


# -- subcommands ----------------------------------------------------------------


def cmd_prepare(args) -> dict:
    lat = build_lattice(args.lx, args.ly)
    prep = ground_state_circuit(lat)
    payload: dict = {"lattice": [args.lx, args.ly]}
    if args.noise == "off" and args.shots == 0:
        tab = StabilizerTableau(lat.d, lat.n_sites, np.random.default_rng(args.seed))
        execute(prep, tab)
        faces = lat.plaquettes
        logicals = {"z_horizontal": lat.logical_z_horizontal(0),
                    "z_vertical": lat.logical_z_vertical(0),
                    "x_horizontal": lat.logical_x_horizontal(0),
                    "x_vertical": lat.logical_x_vertical(0)}
        ops = logicals.values()  # phase 0, as every face
        x = np.concatenate([lat.face_x, [op.x for op in ops]])
        z = np.concatenate([lat.face_z, [op.z for op in ops]])
        det = tab.deterministic_outcomes(x, z, np.zeros(len(x), dtype=np.int64))
        payload["mode"] = "exact"
        payload["plaquettes"] = snapshots_from_outcomes(
            det, [(p.kind, p.pos, False, None) for p in faces])
        payload["logical_projectors"] = {k: outcome_triple(int(s), lat.d)[0]
                                         for k, s in zip(logicals, det[len(faces):])}
        payload["energy_density"] = energy_density(payload["plaquettes"], len(faces))
        return payload
    # shot-based (optionally noisy) run with encoded readout
    shots = args.shots or DEFAULT_SHOTS
    payload["mode"] = "shots"
    payload["shots_per_basis"] = shots
    payload["plaquettes"] = []
    herald = {}
    for b, basis in enumerate(("z", "x")):  # separate experiments: seeds from (seed, basis)
        frame_seed, readout_seed = np.random.SeedSequence([args.seed, b]).generate_state(2).tolist()
        circ = prep.with_noise(p1=args.p1, p2=args.p2) if args.noise != "off" else \
            prep.with_noise()
        circ.extend(measure_all_circuit(lat, basis))
        values = run_shots(circ, shots, base_seed=frame_seed).values
        if args.noise != "off":
            pairs = simulate_readout(values, per_qutrit_two_qubit(prep, basis),
                                     p01=args.spam_p01, p10=args.spam_p10,
                                     leak_per_two_qubit=args.leak, seed=readout_seed)
            pairs, herald[basis] = herald_filter(pairs)
            if not len(pairs):
                raise ConfigError(f"all {shots} {basis}-basis shots failed the herald check "
                                  "(a qutrit pair read |01>); lower --leak, --spam-p01 "
                                  "or --spam-p10")
            values = decode_qubit_records(pairs)
        payload["plaquettes"].extend(estimate_plaquette_projectors(values, basis, lat))
    payload["energy_density"] = energy_density(payload["plaquettes"], len(lat.plaquettes))
    if herald:
        payload["herald_discard_fraction"] = herald
    return payload


def cmd_braid(args) -> dict:
    script = BRAID_PRESETS[args.subcommand]()
    return {
        "preset": script.name,
        "lattice": [script.lx, script.ly],
        "script": script_to_json(script),
        "frames": ScriptRunner(script, seed=args.seed).run(),
    }


def cmd_topo(args) -> dict:
    layout = TOPO_LAYOUTS.get((args.lx, args.ly))
    if layout is None:
        raise ConfigError(f"--lx {args.lx} --ly {args.ly}: topological qutrit presets "
                          "exist for 6x2 and 6x4")
    return {
        "preset": f"topo-qutrit-{args.lx}x{args.ly}",
        "lattice": [args.lx, args.ly],
        **TopologicalQutritProtocol(layout()).run(args.seed),
    }


def cmd_compile(args) -> dict:
    circ = ground_state_circuit(build_lattice(args.lx, args.ly))
    payload = {
        "preset": f"prepare-{args.lx}x{args.ly}",
        "report": compile_report(circ, args.basis, args.optimization),
        "qutrit_circuit": circuit_to_json(circ),
    }
    if args.dump_ops:
        from .encoder import qubit_circuit_text, qubit_circuit_to_json

        qc = encode_circuit(circ, args.basis, args.optimization)
        payload["qubit_circuit"] = qubit_circuit_to_json(qc)
        payload["qubit_circuit_text"] = qubit_circuit_text(qc)
    return payload


def cmd_verify(args) -> dict:
    from . import weyl
    from .dense import gate_matrix, weyl_matrices

    failures = []
    # conjugation tables against dense matrices: every exponent row of a kind at once
    for kind in sorted(k.value for k in weyl.GateKind):
        k = weyl.GateKind(kind)
        n = 1 if k in weyl.ONE_QUDIT_KINDS else 2
        code = np.arange(9**n)
        x = np.stack([code % 3, code // 9 % 3][:n], axis=1)
        z = np.stack([code // 3 % 3, code // 27 % 3][:n], axis=1)
        img = [x.copy(), z.copy(), np.zeros_like(code)]
        weyl.conjugate_rows(weyl.CliffordGate(k, tuple(range(n))), *img, 3)
        U = gate_matrix(k, 3)
        err = np.abs(weyl_matrices(3, *img) - U @ weyl_matrices(3, x, z, 0 * code) @ U.conj().T)
        for c in np.flatnonzero(err.max(axis=(1, 2)) > 1e-10):
            failures.append(f"conjugation {kind} on {weyl.WeylOp(3, x[c], z[c])}")
    # decomposition suite
    decomp = {}
    for name in SUPPORTED_GATES:
        err = verify_decomposition(name)
        decomp[name] = {"error": err, "zzphase": zz_budget(name)}
        if err > 1e-10:
            failures.append(f"decomposition {name}: {err}")
    payload = {"conjugation_failures": failures, "decompositions": decomp,
               "passed": not failures}
    if failures:
        raise AssertionError("; ".join(failures))
    return payload


def cmd_bounds(args) -> dict:
    missing = [f"--{k}" for k in ("trp", "trq", "sites") if getattr(args, k) is None]
    if missing:
        raise ConfigError(f"bounds needs {', '.join(missing)} (flag or --config)")
    bound = fidelity_bounds(args.trp, args.trq, args.sites,
                            se_p=args.se_p, se_q=args.se_q)
    return {"bound": bound.as_dict(), "inputs_clamped": bound.inputs_clamped}


# -- argument parsing ----------------------------------------------------------------


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _torus_side(text: str) -> int:
    if (value := int(text)) < 2 or value % 2:
        raise argparse.ArgumentTypeError(f"must be an even integer >= 2, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a probability in [0, 1], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-toric",
        description="Z3 toric code simulator: preparation, defects, braiding, "
                    "topological qutrits, native-gate compilation.",
    )
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, help, lattice=True, csv=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if lattice:
            p.add_argument("--lx", type=_torus_side, default=6)
            p.add_argument("--ly", type=_torus_side, default=4)
        p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted and echoed; shot sampling runs in one process")
        p.add_argument("--output", "-o", help="output path ('-' for stdout)")
        if csv:
            p.add_argument("--csv", help="also write a CSV table to this path")
        return p

    p = command("prepare", cmd_prepare, "ground-state preparation experiment", csv=True)
    p.add_argument("--shots", type=_non_negative_int, default=0,
                   help=f"0 = exact expectations (--noise off) or {DEFAULT_SHOTS} shots per basis")
    p.add_argument("--noise", choices=["off", "default"], default="off")
    p.add_argument("--p1", type=_probability, default=0.0)
    p.add_argument("--p2", type=_probability, default=2e-3)
    p.add_argument("--spam-p01", type=_probability, default=READOUT_P01, dest="spam_p01")
    p.add_argument("--spam-p10", type=_probability, default=READOUT_P10, dest="spam_p10")
    p.add_argument("--leak", type=_probability, default=LEAK_PER_TWO_QUBIT,
                   help="leak probability per entangler per qubit")

    for name in BRAID_PRESETS:
        command(name, cmd_braid, f"{name} braiding preset (noiseless frames)", lattice=False)

    command("topo-qutrit", cmd_topo, "entangled defect-pair protocol", csv=True).set_defaults(ly=2)

    p = command("compile", cmd_compile, "compile the ground-state preparation to native gates")
    p.add_argument("--basis", choices=["z", "x"], default="z")
    p.add_argument("--optimization", type=int, default=1, choices=[0, 1])
    p.add_argument("--dump-ops", action="store_true")

    command("verify", cmd_verify, "oracle self-check suites", lattice=False)

    p = command("bounds", cmd_bounds, "two-projector fidelity bound", lattice=False)
    p.add_argument("--trp", type=_finite_float)
    p.add_argument("--trq", type=_finite_float)
    p.add_argument("--sites", type=_positive_int)
    p.add_argument("--se-p", type=_non_negative_float, default=0.0, dest="se_p")
    p.add_argument("--se-q", type=_non_negative_float, default=0.0, dest="se_q")
    return parser


def _parse_args(parser, argv):
    """Parse argv; --config values become the subcommand's defaults, so flags win.

    Each config value is parsed by its option's own type and checked
    against its choices. An unknown key or a value the option rejects is
    a usage error (exit 2), as it would be on the command line.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config {args.config}: {exc}")
    if not isinstance(conf, dict):
        parser.error("--config must hold a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.subcommand]
    actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    out = {}
    for key, value in conf.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"--config: unknown key {key!r}")
        if action.nargs == 0:  # store_true / store_false
            valid = isinstance(value, bool)
        elif action.type is None:
            valid = isinstance(value, str)
        else:
            try:
                value, valid = action.type(str(value)), True
            except (ValueError, argparse.ArgumentTypeError):
                valid = False
        if not valid or (action.choices is not None and value not in action.choices):
            sub.error(f"--config: invalid value {conf[key]!r} for {key}")
        out[action.dest] = value
    sub.set_defaults(**out)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    name = args.subcommand
    csv = getattr(args, "csv", None)
    try:
        if csv == "-":
            raise ConfigError("cannot write --csv -: stdout carries the result document")
        payload = args.run(args)
        doc = result_document(name, _config_echo(args), payload)
        if csv is not None:  # before the document, so a run that fails leaves neither file
            made = _write_text("--csv", csv, _csv_text(*_csv_table(payload)))
        try:
            path = _write_output(args, doc, f"{name}-result.json")
        except ConfigError:
            if csv is not None:
                (shutil.rmtree if os.path.isdir(made) else os.remove)(made)
            raise
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    if path != "-":
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
