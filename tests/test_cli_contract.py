"""The CLI contract as a property: for argv and --config values drawn from
each subcommand's own parser actions (their types and choices, values each
accepts and values just outside them), `main` exits 0, 2 or 3 without a
traceback, every exit 2 names a flag or --config and leaves no document, and
a rerun gives the same bytes. Lattices stay at 4x2 or smaller (topo-qutrit's
smallest preset, 6x2, is its default) and shots at 64 or fewer."""

import argparse
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from qutrit_toric import cli

PARSER = cli.build_parser()
SUBPARSERS = next(a for a in PARSER._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
LONG_FLAGS = sorted({s for p in (PARSER, *SUBPARSERS.values()) for a in p._actions
                     for s in a.option_strings if s.startswith("--")})

# option type -> (values it accepts, values just outside it)
TYPE_VALUES = {
    cli._non_negative_int: (["0", "5"], ["-1", "2.5"]),
    cli._positive_int: (["1", "3"], ["0", "-2"]),
    cli._probability: (["0", "0.002", "0.3", "1"], ["-0.01", "1.01", "nan"]),
    cli._finite_float: (["0", "0.68", "1.01"], ["nan", "inf"]),
    cli._non_negative_float: (["0", "0.02"], ["-0.01", "nan"]),
}
# options whose accepted values are cut down to keep runs small, and are
# always given (but for topo-qutrit, whose default lattice is its smallest preset)
SIZED = {"lx": (["2", "4"], ["0", "1", "3"]), "ly": (["2"], ["0", "1", "3"]),
         "shots": (["1", "64"], ["-1", "x"])}
PATHS = ("output", "csv", "help")  # drawn separately: --output is always a fresh file


def values_of(action) -> tuple[list[str], list[str]]:
    if action.dest in SIZED:
        return SIZED[action.dest]
    if action.choices is not None:
        choices = list(action.choices)
        if all(isinstance(c, int) for c in choices):
            return [str(c) for c in choices], [str(min(choices) - 1), str(max(choices) + 1)]
        return choices, [choices[0].upper(), ""]
    return TYPE_VALUES[action.type]


def as_json(text: str):
    """A drawn value as config JSON: the string, or the number it spells."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


@st.composite
def invocations(draw, name):
    """(argv without --output, config or None) for one subcommand: every value
    accepted but at most one, which is just outside its option's values or is
    a config key no option has, or the config is not a JSON object."""
    actions = [a for a in SUBPARSERS[name]._actions if a.dest not in PATHS]
    has_csv = any(a.dest == "csv" for a in SUBPARSERS[name]._actions)
    bad = draw(st.none() | st.sampled_from(
        [a.dest for a in actions] + ["key", "object"] + ["csv"] * has_csv))
    argv, conf = [name], {}
    for action in actions:
        flag = action.option_strings[0]
        given = bad == action.dest or (action.dest in SIZED and name != "topo-qutrit")
        where = draw(st.sampled_from(["argv", "config", "both"] if given
                                     else ["absent", "argv", "config", "both"]))
        if action.nargs == 0:  # store_true
            if where in ("argv", "both"):
                argv.append(flag)
            if where in ("config", "both"):
                conf[flag[2:]] = "yes" if bad == action.dest else draw(st.booleans())
            continue
        inside, outside = values_of(action)
        pool = st.sampled_from(outside if bad == action.dest else inside)
        if where in ("argv", "both"):
            argv += [flag, draw(pool)]
        if where in ("config", "both"):
            value = draw(pool)
            conf[flag[2:]] = draw(st.sampled_from([value, as_json(value)]))
    csv = "-" if bad == "csv" else draw(st.sampled_from([None, "table.csv"])) if has_csv else None
    if csv:
        argv += ["--csv", csv]  # "-" is refused: stdout carries the document
    if bad == "key":
        conf["shot"] = 1
    if bad == "object":
        return argv, [conf]
    return argv, conf if conf or draw(st.booleans()) else None


def run(workdir: str, argv: list[str], conf) -> tuple[int, str, bytes | None, bytes | None]:
    """(exit code, stderr, document bytes, CSV bytes) of one run in workdir."""
    out, csv = os.path.join(workdir, "result.json"), os.path.join(workdir, "table.csv")
    for path in (out, csv):
        if os.path.exists(path):
            os.remove(path)
    if conf is not None:
        config = os.path.join(workdir, "conf.json")
        with open(config, "w") as fh:
            json.dump(conf, fh)
        argv = ["--config", config, *argv]
    argv = [os.path.join(workdir, a) if a == "table.csv" else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--output", out])

    def read(path):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                return fh.read()
        return None

    return code, err.getvalue(), read(out), read(csv)


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
def test_cli_contract(name, data):
    argv, conf = data.draw(invocations(name))
    with tempfile.TemporaryDirectory() as workdir:
        first = run(workdir, argv, conf)
        code, err, doc, _ = first
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        if code == 2:
            assert any(flag in err for flag in LONG_FLAGS), err
            assert doc is None
        assert run(workdir, argv, conf) == first
