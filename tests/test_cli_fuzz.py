"""Fuzz the command line: any arguments and any graph file end in exit
code 0, 1 (a verification check failed) or 2 (usage or parse error),
never in an uncaught exception.

Draws stay small so that each run is cheap: at most 10 vertices in a
graph file, at most 8 in a generated graph, and `verify` only on the
cycle family up to n = 6 with at most 2 workers."""

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from click.testing import CliRunner
from hypothesis import given, settings

from signdom import CHECK_NAMES, FAMILIES, to_dimacs, to_edge_list
from signdom.cli import main

from strategies import graphs

GRAPH = "<graph file>"  # the drawn file's path
OUTPUT = "<output>"  # a writable file, the directory itself, or a file in a missing one


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def choice(*values):
    return st.sampled_from(values)


@st.composite
def options(draw, pool):
    """Some of the options in ``pool`` (flag -> value strategy), in any order."""
    args = []
    for flag in draw(st.lists(st.sampled_from(sorted(pool)), unique=True, max_size=4)):
        args += [flag, draw(pool[flag])]
    return args


OFFSETS = choice("1", "1,2", "2,3", "0", "9", "-1", "x", ",", "1,,3")
FORMATS = choice("jsonl", "text", "csv", "dimacs")


@st.composite
def command_lines(draw):
    command = draw(choice("gen", "solve", "bounds", "table", "refs", "verify"))
    if command == "gen":
        args = [draw(choice(*FAMILIES, "nope")), *draw(options({
            "--n": ints(-1, 8),
            "--t": ints(-1, 2),
            "--p": choice("-0.5", "0", "0.5", "1", "2", "x"),
            "--seed": ints(-2, 5),
            "--offsets": OFFSETS,
            "--graph-format": choice("edgelist", "dimacs", "x"),
        }))]
    elif command in ("solve", "bounds"):
        args = [GRAPH, *draw(options({
            "--k": ints(-1, 11),
            "--mode": choice("nonneg", "signed", "x"),
            "--algorithm": choice("bnb", "brute", "x"),
            "--brute-cap": ints(-1, 12),
            "--order": ints(-1, 10),
            "--format": FORMATS,
        }))]
    elif command == "table":
        family = draw(choice("complete", "cycle", "path", "sun", "circulant", "hajos"))
        top = 2 if family == "sun" else 8  # sun(t) has 4t vertices
        args = [family, "--start", draw(ints(-1, top)), "--end", draw(ints(-1, top)),
                *draw(options({
                    "--offsets": OFFSETS,
                    "--k-policy": choice("full", "half", "one", "x"),
                    "--mode": choice("nonneg", "signed", "both", "x"),
                    "--format": FORMATS,
                }))]
    elif command == "verify":
        args = ["--family", "cycle", "--n-max", draw(ints(-1, 6)), *draw(options({
            "--check": choice(*CHECK_NAMES, "x"),
            "--k": choice("default", "all", "x"),
            "--workers": ints(-1, 2),
            "--format": FORMATS,
            "--seed": ints(0, 2),
        }))]
    else:
        args = []
    if draw(st.booleans()):
        args += ["-o", OUTPUT]
    return [command, *args]


@st.composite
def dimacs_texts(draw):
    """A header with n <= 10, then edge lines that may be out of range,
    repeated, or malformed."""
    n = draw(st.integers(0, 10))
    edges = draw(st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=12))
    m = draw(st.sampled_from((len(edges), len(edges) + 1, 0)))
    lines = [f"p edge {n} {m}", *(f"e {u} {v}" for u, v in edges)]
    lines.insert(draw(st.integers(0, len(lines))), draw(choice("c note", "", "e 1", "p edge 2 1")))
    return "\n".join(lines) + "\n"


@st.composite
def edge_list_texts(draw):
    """Pairs of ids below 10, with comments and malformed lines mixed in."""
    line = st.one_of(
        st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(lambda e: f"{e[0]} {e[1]}"),
        choice("# comment", "", "0", "0 1 2", "a b", "1 2 # tail"),
    )
    return "\n".join(draw(st.lists(line, max_size=10))) + "\n"


GRAPH_FILES = st.one_of(
    st.one_of(
        graphs(max_n=8).map(to_edge_list),
        graphs(max_n=8).map(to_dimacs),
        dimacs_texts(),
        edge_list_texts(),
    ).map(str.encode),
    st.binary(max_size=24),
)


@settings(max_examples=150, deadline=None)
@given(command_lines(), GRAPH_FILES, choice("file", "directory", "missing directory"))
def test_any_command_line_exits_0_1_or_2(argv, content, output):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        graph = tmp / "graph"
        graph.write_bytes(content)
        out = {"file": tmp / "out.txt", "directory": tmp,
               "missing directory": tmp / "missing" / "out.txt"}[output]
        argv = [str(graph) if a == GRAPH else str(out) if a == OUTPUT else a for a in argv]
        result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert result.exit_code in (0, 1, 2), argv
    if result.exit_code == 1:  # only a verification check fails with 1
        assert argv[0] == "verify", argv
