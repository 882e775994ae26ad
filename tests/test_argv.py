"""The argument parser reads every argv as the argparse declaration in oracles.py does."""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultrapoly.cli import EXIT_INPUT, EXIT_OK, _negative_number, _parse_args

from oracles import argparse_cli

# full command paths, and the program or a group with its subcommand still to read
PATHS = [["validate"], ["expand"], ["shadow"], ["demo", "zp"], ["export", "dot"]]
PARTIAL_PATHS = [[], ["demo"], ["export"]]
WORDS = ["validate", "expand", "shadow", "demo", "zp", "export", "dot"]
OPTIONS = ["--config", "--out", "--prime", "--precision", "--stages", "--csv", "--depth", "--help"]
# every option and each prefix of its name that keeps a letter: "--p" matches two
# options of expand, "--pr" two, "--c" two of no command
NAMES = sorted({option[:end] for option in OPTIONS for end in range(3, len(option) + 1)})
VALUES = ["0", "2", "3", "17", "-5", "+3", " 4", "3.5", "two", "x", "", "a.json", "out/dir"]
# no cluster of one-letter flags such as -hx: argparse 3.13 reads it as help,
# where 3.10-3.12, and the parser, refuse the x
JUNK = ["x", "bogus", "-x", "--nope", "-", "", "3"]


def _outcome(parse, argv: list[str]):
    """("parsed", result), or ("exit", code, whether the stream the code calls for holds usage)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return ("parsed", parse(argv))
    except SystemExit as exc:
        lines = (out if exc.code == EXIT_OK else err).getvalue().splitlines()
        shaped = bool(lines) and lines[0].startswith("usage: ultrapoly")
        if exc.code == EXIT_INPUT:
            shaped = shaped and lines[-1].startswith("ultrapoly") and ": error: " in lines[-1]
        return ("exit", exc.code, shaped)


def _option_tokens(names):
    """An option name, alone or with an = value."""
    return st.one_of(
        st.sampled_from(names),
        st.builds("{}={}".format, st.sampled_from(names), st.sampled_from(VALUES)),
    )


def _pieces(end_marker: bool):
    """Runs of tokens of the CLI: commands, options, their prefixes and = forms, help,
    values, junk, and an option with a value after it, so that repeats are common."""
    value = st.one_of(st.sampled_from(VALUES), st.integers(-3, 40).map(str))
    tokens = [
        st.sampled_from(WORDS),
        _option_tokens(NAMES),
        st.sampled_from(["-h", "--help", "-5"]),
        value,
        st.sampled_from(JUNK),
    ]
    if end_marker:
        tokens.append(st.just("--"))
    option_and_value = st.tuples(st.sampled_from(NAMES), value).map(list)
    return st.one_of(st.one_of(*tokens).map(lambda token: [token]), option_and_value)


# each full command path's options that take a value, and its flags
OPTIONS_OF = {
    "validate": ([], []),
    "expand": (["--config", "--out", "--prime", "--precision", "--stages"], []),
    "shadow": (["--out"], ["--csv"]),
    "demo zp": (["--prime", "--depth", "--out"], ["--csv"]),
    "export dot": (["--out"], []),
}


@st.composite
def well_formed_argvs(draw):
    """A command path, then its positional among its own options, each with an
    integer value after it or after =, so that most parse and repeats are common."""
    path = draw(st.sampled_from(PATHS))
    takes_value, flags = OPTIONS_OF[" ".join(path)]
    pieces = [st.sampled_from(flags).map(lambda flag: [flag])] if flags else []
    if takes_value:
        pair = st.tuples(st.sampled_from(takes_value), st.integers(0, 9).map(str))
        pieces.append(pair.map(list))
        pieces.append(pair.map("=".join).map(lambda token: [token]))
    after = draw(st.lists(st.one_of(*pieces), max_size=6)) if pieces else []
    if path != ["demo", "zp"]:
        after.insert(draw(st.integers(0, len(after))), ["in.json"])
    return path + sum(after, [])


@st.composite
def any_argvs(draw):
    """An argv: options, a command path, then tokens.

    ``--`` is drawn only after a full command path: a ``--`` read where
    a subcommand is due is an edge on which argparse releases have
    changed, and the parser follows 3.11, which reads it as a name.
    """
    full = draw(st.booleans())
    path = draw(st.sampled_from(PATHS if full else PARTIAL_PATHS))
    options = st.one_of(st.sampled_from(["-h", "-x"]), _option_tokens(["--help", "--he", "--nope"]))
    before = draw(st.lists(options, max_size=1))
    after = sum(draw(st.lists(_pieces(end_marker=full), max_size=6)), [])
    return before + path + after


@settings(max_examples=500, deadline=None)
@given(argv=st.one_of(any_argvs(), well_formed_argvs()))
def test_the_parser_reads_argv_as_argparse_does(argv):
    mine = _outcome(_parse_args, argv)
    assert mine == _outcome(argparse_cli, argv), argv
    # help and usage errors print as argparse does
    assert mine[0] == "parsed" or mine[2], (argv, mine)


# one argv per rule of the grammar, each with the command path and fields it reads
READS = [
    # a unique prefix, and the = form of a name and of a prefix
    (["expand", "a", "--conf", "c.json"], "expand", {"config": "c.json"}),
    (["expand", "a", "--out=o", "--pri=3"], "expand", {"out": "o", "prime": 3}),
    (["expand", "a", "--out="], "expand", {"out": ""}),
    # options before and after the positional; the last repeat wins
    (["expand", "--out", "o", "a", "--prime", "3"], "expand", {"out": "o", "prime": 3}),
    (["expand", "a", "--out", "1", "--out=2", "--o", "3"], "expand", {"out": "3"}),
    (["shadow", "--csv", "b", "--csv"], "shadow", {"bundle": "b", "csv": True}),
    # "--" ends the options, and a negative number is a value
    (["expand", "--", "--out"], "expand", {"input": "--out"}),
    (["expand", "a", "--"], "expand", {}),
    (["expand", "-5", "--prime", "-5"], "expand", {"input": "-5", "prime": -5}),
    (["demo", "zp", "--d", "3", "--prime=2"], "demo zp", {"prime": 2, "depth": 3}),
    (["export", "dot", "b", "--out", "-1"], "export dot", {"bundle": "b", "out": "-1"}),
]


@pytest.mark.parametrize("argv, path, changed", READS)
def test_each_rule_reads_its_fields(argv, path, changed):
    defaults = {
        "validate": {"input": "a"},
        "expand": {"input": "a", "config": None, "out": None, "prime": None, "precision": None,
                   "stages": None},
        "shadow": {"bundle": "b", "out": None, "csv": False},
        "demo zp": {"prime": None, "depth": None, "out": None, "csv": False},
        "export dot": {"bundle": "b", "out": None},
    }
    expected = ("parsed", (path, {**defaults[path], **changed}))
    assert _outcome(_parse_args, argv) == expected
    assert _outcome(argparse_cli, argv) == expected


# help exits 0 on stdout; each usage error exits 2 on stderr
EXITS = [
    (["--help"], EXIT_OK),
    (["expand", "-h"], EXIT_OK),
    (["demo", "zp", "--he"], EXIT_OK),
    (["--nope", "expand", "--help"], EXIT_OK),  # an unknown option is reported after the command
    ([], EXIT_INPUT),  # no command
    (["bogus"], EXIT_INPUT),  # an unknown command
    (["demo", "yz"], EXIT_INPUT),
    (["export"], EXIT_INPUT),
    (["expand", "a", "--nope"], EXIT_INPUT),  # an unknown option
    (["expand", "a", "--p", "3"], EXIT_INPUT),  # an ambiguous one
    (["expand", "-h", "--p"], EXIT_INPUT),  # an ambiguous option is an error before help
    (["expand", "a", "--out"], EXIT_INPUT),  # a missing value
    (["expand", "a", "--out", "--csv"], EXIT_INPUT),
    (["expand", "a", "--prime", "two"], EXIT_INPUT),  # no integer
    (["shadow", "b", "--csv=yes"], EXIT_INPUT),  # a flag takes no value
    (["expand"], EXIT_INPUT),  # a missing positional
    (["expand", "a", "b"], EXIT_INPUT),  # a surplus one
    (["expand", "a", "--out", "o", "--"], EXIT_INPUT),  # "--" after the positional was read
    (["demo", "zp", "--prime", "2"], EXIT_INPUT),  # a missing required option
]


@pytest.mark.parametrize("argv, code", EXITS)
def test_help_and_usage_errors_exit_as_argparse_does(argv, code):
    assert _outcome(_parse_args, argv) == ("exit", code, True)
    assert _outcome(argparse_cli, argv)[:2] == ("exit", code)


@settings(max_examples=500, deadline=None)
@given(token=st.text(alphabet="-.0123456789\u0663\u00b2x \n", max_size=6))
@example(token="-5\n")  # $ matches before a final newline
@example(token="-5\n\n")
@example(token="-\u0663")  # a decimal digit of another script
@example(token="-\u00b2")  # a superscript, which is no decimal digit
@example(token="-.5")
@example(token="-1.")
def test_negative_numbers_are_those_argparse_matches(token):
    # argparse's own pattern, which the parser reads without loading re
    assert _negative_number(token) == bool(re.match(r"^-\d+$|^-\d*\.\d+$", token))
