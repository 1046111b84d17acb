"""Property-based fuzzing of the two text entry points: the edge-list parser
and the command line.

Strategy.  ``parse_edge_list`` gets arbitrary text, and text built from
lines of zero to three tokens drawn from a few vertex names, so that
valid edges, loops, comments and malformed lines all occur.  ``main``
gets either a subcommand with its required options and a random subset
of its other options, in random order, or an arbitrary list of subcommands, options and values.
Integer values are small (-5..64), past the work guards (301 and up,
or hugely negative) or past the 1,000-character limit of every integer
option (10**1000); the others are set, family and format names (some
invalid), file names and arbitrary text.  Each example runs in a fresh
temporary directory that holds two edge-list files, and no token
contains "/", so ``--out`` and ``--input`` only ever name files in that
directory.  The small integers keep every accepted command cheap; the
large ones reach the guards, which refuse them before any work.
``census`` is also offered ``--force``, which no parser accepts, so an
example that holds it exits 2 unless it asks for help or the version.
The parse of ``main`` is compared with the top-level parser's
``parse_args`` on these argvs and on them with ``--fo``, ``--ver``,
``--``, ``-h`` or ``cen`` put in anywhere; that test parses only and
runs no command.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import event, given, settings, strategies as st

from cwlattice import (EdgeListParseError, Graph, NamedSet, cli, edge_ideal_generators,
                       format_edge_list, parse_edge_list)
from cwlattice.cli import main

VERTICES = st.sampled_from(["a", "b", "c", "v0", "#", "x y"])
LINES = st.lists(VERTICES, max_size=3).map(" ".join)


def _reference_parse(text: str):
    """The edge-list format read the plain way: the labels in first-appearance
    order and the edges as a set of label sets, or the line number of the
    first bad line (None when no line holds an edge)."""
    names, edges = [], set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or line.strip()[0] == "#":
            continue
        if len(tokens) != 2 or tokens[0] == tokens[1]:
            return lineno
        names += [token for token in tokens if token not in names]
        edges.add(frozenset(tokens))
    return (names, edges) if names else None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(LINES, max_size=8).map("\n".join)))
def test_parse_edge_list_returns_a_graph_or_a_parse_error(text):
    # and agrees with the reference on labels, edges and error line numbers
    expected = _reference_parse(text)
    try:
        graph, names = parse_edge_list(text)
    except EdgeListParseError as exc:
        assert exc.line == expected
        return
    assert isinstance(graph, Graph) and len(names) == graph.vertex_count
    assert names == expected[0]
    assert all(u < v for u, v in graph.edges)
    assert {frozenset((names[u], names[v])) for u, v in graph.edges} == expected[1]


# labels that survive the format: no whitespace, and none starts with "#"
LABELS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda label: not label.startswith("#") and not any(c.isspace() for c in label))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(LABELS, min_size=2, max_size=2, unique=True), min_size=1, max_size=12))
def test_format_then_parse_round_trips(pairs):
    graph, names = parse_edge_list("".join(f"{a} {b}\n" for a, b in pairs))
    text = format_edge_list(graph, names)
    reparsed, renames = parse_edge_list(text)
    assert edge_ideal_generators(reparsed, renames) == edge_ideal_generators(graph, names)
    assert sorted(renames) == sorted(names)
    assert format_edge_list(reparsed, renames) == text


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(LABELS, min_size=2, max_size=2, unique=True), min_size=1, max_size=12))
def test_ideal_text_parses_back_to_the_same_generators(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    graph, names = parse_edge_list(text)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.edges")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out):
            assert main(["ideal", "--input", path]) == 0
    reparsed, renames = parse_edge_list(out.getvalue())
    assert edge_ideal_generators(reparsed, renames) == edge_ideal_generators(graph, names)


FREE_TEXT = st.text(st.characters(exclude_characters="/\x00"), max_size=8)
# 10**1000 has 1,001 digits, one over the limit of every integer option
INTS = st.one_of(st.integers(-5, 64),
                 st.sampled_from([301, 2_000_001, 10**9, 10**18, -10**18, 10**1000])).map(str)
FORMATS = st.sampled_from(["csv", "json", "text"])
FILES = st.sampled_from(["g.edges", "hexagon.edges", "out.txt", "absent.edges", ".", ""])
REQUIRED = {"census": ("--from", "--to"), "enumerate": ("--n", "--set"), "verify": ("--n",),
            "bounds": ("--n",), "realize": ("--n", "--depth", "--dim"),
            "recognize": ("--input",), "ideal": ("--input",)}
# each subcommand's options and the values they are given
OPTIONS = {
    "census": {"--from": INTS, "--to": INTS, "--format": FORMATS, "--out": FILES,
               "--family": st.sampled_from(["cwdd", "ra", "bounds", "all", "none"]),
               "--force": st.just(None)},
    "enumerate": {"--n": INTS, "--set": st.sampled_from([s.value for s in NamedSet] + ["x"]),
                  "--format": FORMATS, "--out": FILES},
    "verify": {"--n": INTS},
    "bounds": {"--n": INTS, "--format": FORMATS},
    "realize": {"--n": INTS, "--depth": INTS, "--dim": INTS, "--format": FORMATS,
                "--emit-graph": st.just(None)},
    "recognize": {"--input": FILES, "--format": FORMATS},
    "ideal": {"--input": FILES, "--format": FORMATS},
}
ALL_OPTIONS = sorted({option for options in OPTIONS.values() for option in options}
                     | {"--version", "-h"})
VALUES = st.one_of(INTS, FORMATS, FILES, FREE_TEXT)


def _command(name: str):
    """The subcommand with its required options and a random subset of the
    others, in random order."""
    required = {option: OPTIONS[name][option] for option in REQUIRED[name]}
    optional = {option: value for option, value in OPTIONS[name].items()
                if option not in required}
    return st.fixed_dictionaries(required, optional=optional).flatmap(
        lambda chosen: st.permutations(sorted(chosen.items()))).map(
        lambda items: [name] + [token for pair in items for token in pair if token is not None])


ARGV = st.one_of(
    st.sampled_from(sorted(OPTIONS)).flatmap(_command),
    st.lists(st.one_of(st.sampled_from(sorted(OPTIONS) + ALL_OPTIONS), VALUES), max_size=8),
)


@settings(max_examples=250, deadline=None)
@given(ARGV)
def test_main_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("g.edges", "w", encoding="utf-8") as handle:
                handle.write("u0 v0\nu0 l0\nv0 w0\nv0 w1\nw0 w1\n")
            with open("hexagon.edges", "w", encoding="utf-8") as handle:
                handle.write("a b\nb c\nc d\nd e\ne f\nf a\nb f\nc e\n")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    event(f"exit code {code}")
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    if "--force" in argv and not any(_asks_help_or_version(token) for token in argv):
        assert code == 2, argv


def _asks_help_or_version(token: str) -> bool:
    """Whether argparse may read token as -h, --help or --version (or an
    abbreviation of either long option), which exit 0 before the error."""
    return token.startswith("-h") or (
        len(token) > 2 and ("--help".startswith(token) or "--version".startswith(token)))


def _parsed(parse, argv):
    """vars() of parse(argv), or its SystemExit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# abbreviations of a subcommand's option, of a top-level option and of a
# subcommand, the end of the options, and help, put anywhere in an argv
ODD_TOKENS = st.sampled_from(["--fo", "--ver", "--", "-h", "cen"])


def _inserted(drawn):
    argv, puts = list(drawn[0]), drawn[1]
    for index, token in puts:
        argv.insert(index, token)
    return argv


DISPATCH_ARGV = st.tuples(ARGV, st.lists(st.tuples(st.integers(0, 8), ODD_TOKENS),
                                         max_size=3)).map(_inserted)
TOP_LEVEL = cli._build_parsers()[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(ARGV, DISPATCH_ARGV))
def test_main_parses_as_the_top_level_parser_does(argv):
    # main() hands a subcommand's tokens to its parser without the top-level
    # pass; the namespace, or the exit code and every byte printed, is the same
    assert _parsed(cli._parse_args, argv) == _parsed(TOP_LEVEL.parse_args, argv)
