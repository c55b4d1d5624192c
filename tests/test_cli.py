import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import signdom.bounds as bounds_mod
import signdom.cli as cli_mod
import signdom.verify as verify_mod
from signdom import (
    GraphParseError,
    Mode,
    exact_cycle_signed,
    gen_complete,
    gen_gnp,
    gen_path,
    gen_sun,
    parse_dimacs,
    parse_edge_list,
    result_record,
    solve_bnb,
    to_dimacs,
    to_edge_list,
)
from signdom.cli import main
from signdom.graph import FAMILIES


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_gen_sun_edge_list(runner, tmp_path):
    out = tmp_path / "sun2.gr"
    result = invoke(runner, "gen", "sun", "--t", "2", "-o", str(out))
    assert result.exit_code == 0
    g = parse_edge_list(out.read_text())
    assert g == gen_sun(2)


def test_gen_cycle_to_stdout(runner):
    result = invoke(runner, "gen", "cycle", "--n", "6")
    assert result.exit_code == 0
    assert parse_edge_list(result.output).edge_count == 6


def test_gen_gnp_deterministic(runner):
    a = invoke(runner, "gen", "gnp", "--n", "10", "--p", "0.5", "--seed", "42")
    b = invoke(runner, "gen", "gnp", "--n", "10", "--p", "0.5", "--seed", "42")
    assert a.output == b.output
    assert parse_edge_list(a.output, order=10) == gen_gnp(10, 0.5, 42)


def test_gen_dimacs_format(runner):
    result = invoke(runner, "gen", "hajos", "--graph-format", "dimacs")
    assert result.output.startswith("p edge 6 9\n")
    assert parse_dimacs(result.output).edge_count == 9


@pytest.mark.parametrize(
    "args, graph",
    [
        (("gnp", "--n", "8", "--p", "0.15", "--seed", "2"), gen_gnp(8, 0.15, 2)),
        (("gnp", "--n", "8", "--p", "0.15", "--seed", "6"), gen_gnp(8, 0.15, 6)),
        (("path", "--n", "1"), gen_path(1)),
        (("complete", "--n", "1"), gen_complete(1)),
    ],
    ids=["gnp8s2", "gnp8s6", "P1", "K1"],
)
def test_gen_refuses_an_edge_list_that_drops_its_last_vertex(runner, tmp_path, args, graph):
    # an edge list's order is 1 + its largest id, so a last vertex with no
    # edges would be lost and `solve` would read a smaller graph
    assert not graph.adjacency[-1]
    out = tmp_path / "g.gr"
    result = runner.invoke(main, ["gen", *args, "-o", str(out)])
    assert result.exit_code == 2
    assert "--graph-format dimacs" in result.output
    assert not out.exists()
    result = invoke(runner, "gen", *args, "--graph-format", "dimacs")
    assert parse_dimacs(result.output) == graph


def test_gen_missing_parameter_is_usage_error(runner):
    result = runner.invoke(main, ["gen", "cycle"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["gen", "cycle", "--n", "2"])
    assert result.exit_code == 2


def test_solve_hajos(runner, tmp_path):
    path = tmp_path / "hajos.gr"
    invoke(runner, "gen", "hajos", "-o", str(path))
    result = invoke(runner, "solve", str(path), "--k", "6", "--mode", "nonneg")
    record = json.loads(result.output)
    assert record["optimum"] == 0
    assert record["k"] == 6
    assert record["witness"] == "+++---"


def test_solve_cycle_signed(runner, tmp_path):
    path = tmp_path / "c6.gr"
    invoke(runner, "gen", "cycle", "--n", "6", "-o", str(path))
    result = invoke(runner, "solve", str(path), "--k", "6", "--mode", "signed")
    assert json.loads(result.output)["optimum"] == 2


def test_solve_algorithm_picks_the_engine(runner, tmp_path):
    path = tmp_path / "c6.gr"
    invoke(runner, "gen", "cycle", "--n", "6", "-o", str(path))
    g = parse_edge_list(path.read_text())
    bnb = json.loads(invoke(runner, "solve", str(path)).output)
    assert bnb == result_record(g, 6, Mode.NONNEG, solve_bnb(g, 6, Mode.NONNEG))
    brute = json.loads(invoke(runner, "solve", str(path), "--algorithm", "brute").output)
    assert brute["stats.nodes"] == 64
    assert (brute["optimum"], brute["witness"]) == (bnb["optimum"], bnb["witness"])
    for algorithm in ("magic", "auto"):
        result = runner.invoke(main, ["solve", str(path), "--algorithm", algorithm])
        assert result.exit_code == 2


def test_solve_defaults_k_to_n_and_text_format(runner, tmp_path):
    path = tmp_path / "k4.gr"
    invoke(runner, "gen", "complete", "--n", "4", "-o", str(path))
    result = invoke(runner, "solve", str(path), "--format", "text")
    assert "optimum = 0" in result.output
    assert "k = 4" in result.output


def test_solve_k2_on_k4(runner, tmp_path):
    path = tmp_path / "k4.gr"
    invoke(runner, "gen", "complete", "--n", "4", "-o", str(path))
    result = invoke(runner, "solve", str(path), "--k", "2", "--mode", "nonneg")
    assert json.loads(result.output)["optimum"] == 0


def test_solve_order_override(runner, tmp_path):
    path = tmp_path / "lone-edge.gr"
    path.write_text("0 1\n")
    result = invoke(runner, "solve", str(path), "--order", "3", "--k", "1")
    assert json.loads(result.output)["n"] == 3


def test_solve_bad_k_exits_2(runner, tmp_path):
    path = tmp_path / "c4.gr"
    invoke(runner, "gen", "cycle", "--n", "4", "-o", str(path))
    result = runner.invoke(main, ["solve", str(path), "--k", "9"])
    assert result.exit_code == 2


def test_solve_parse_error_exits_2(runner, tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("0 zero\n")
    result = runner.invoke(main, ["solve", str(path)])
    assert result.exit_code == 2
    assert "line 1" in result.output


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 2 1\n\n   \ne 1\n", "line 4: expected 'e <u> <v>'"),  # blank lines are counted
        ("p edge 2\n", "line 1: expected 'p edge <n> <m>'"),
        ("c a comment\np col 2 0\n", "line 2: expected 'p edge <n> <m>'"),
        ("p edge two 1\n", "line 1: non-integer header field"),
        ("p edge 2 -1\n", "line 1: negative header field"),
        ("p edge 2 1\ne 1 2 2\n", "line 2: expected 'e <u> <v>'"),
        ("p edge 2 1\ne 1 b\n", "line 2: non-integer vertex id"),
    ],
)
def test_malformed_dimacs_names_its_line_and_exits_2(runner, tmp_path, text, message):
    with pytest.raises(GraphParseError) as info:
        parse_dimacs(text)
    assert str(info.value) == message
    path = tmp_path / "bad.col"
    path.write_text(text)
    result = runner.invoke(main, ["solve", str(path)])
    assert result.exit_code == 2
    assert f"Error: {path}: {message}\n" in result.output


def test_solve_reads_dimacs_automatically(runner, tmp_path):
    path = tmp_path / "k3.col"
    path.write_text("c comment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    result = invoke(runner, "solve", str(path))
    assert json.loads(result.output)["optimum"] == 1


def test_solve_a_thousand_vertex_cycle(runner, tmp_path):
    # the search keeps its own stack, so n is not bounded by Python's recursion limit
    path = tmp_path / "c1000.col"
    invoke(runner, "gen", "cycle", "--n", "1000", "--graph-format", "dimacs", "-o", str(path))
    result = runner.invoke(main, ["solve", str(path), "--mode", "signed"])
    assert result.exit_code == 0
    assert result.exception is None
    assert "Traceback" not in result.output
    assert json.loads(result.output)["optimum"] == 334


def _out_of_memory(*args):
    raise MemoryError


def test_out_of_memory_while_parsing_is_a_usage_error(runner, tmp_path, monkeypatch):
    path = tmp_path / "k2.col"
    path.write_text("p edge 2 1\ne 1 2\n")
    monkeypatch.setattr(cli_mod, "parse_dimacs", _out_of_memory)
    result = invoke(runner, "solve", str(path))
    assert result.exit_code == 2
    assert result.output == "Error: out of memory: the input is too large for this machine\n"


def test_out_of_memory_while_generating_is_a_usage_error(runner, monkeypatch):
    monkeypatch.setitem(FAMILIES, "complete", (_out_of_memory, ("n",)))
    result = invoke(runner, "gen", "complete", "--n", "20000")
    assert result.exit_code == 2
    assert "out of memory" in result.output
    assert "Traceback" not in result.output


def test_any_other_exception_still_propagates(runner, tmp_path, monkeypatch):
    def broken(text):
        raise RuntimeError("not a memory error")

    path = tmp_path / "k2.col"
    path.write_text("p edge 2 1\ne 1 2\n")
    monkeypatch.setattr(cli_mod, "parse_dimacs", broken)
    with pytest.raises(RuntimeError, match="not a memory error"):
        invoke(runner, "solve", str(path))


def test_bounds_text_output(runner, tmp_path):
    path = tmp_path / "sun2.gr"
    invoke(runner, "gen", "sun", "--t", "2", "-o", str(path))
    result = invoke(runner, "bounds", str(path), "--k", "8")
    assert "nn1" in result.output
    assert "raw=0" in result.output


def test_bounds_jsonl_output(runner, tmp_path):
    path = tmp_path / "hajos.gr"
    invoke(runner, "gen", "hajos", "-o", str(path))
    result = invoke(runner, "bounds", str(path), "--k", "6", "--format", "jsonl")
    record = json.loads(result.output)
    assert record["bound.nn4.raw"] == "0"
    assert record["bound.nn5.raw"] == "0"


def test_bounds_csv_output(runner, tmp_path):
    path = tmp_path / "k5.gr"
    invoke(runner, "gen", "complete", "--n", "5", "-o", str(path))
    result = invoke(runner, "bounds", str(path), "--k", "5", "--format", "csv")
    header, row = result.output.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["bound.nn1.raw"] == "1"


def test_table_cycles_match_closed_form(runner):
    result = invoke(runner, "table", "cycle", "--start", "3", "--end", "12",
                    "--mode", "both")
    lines = result.output.strip().splitlines()
    header = lines[0].split(",")
    idx_exact = header.index("exact")
    idx_mode = header.index("mode")
    idx_param = header.index("param")
    assert len(lines) == 1 + 2 * 10
    for line in lines[1:]:
        cells = line.split(",")
        n = int(cells[idx_param])
        assert int(cells[idx_exact]) == exact_cycle_signed(n), (n, cells[idx_mode])


def test_table_complete_matches_parity(runner):
    result = invoke(runner, "table", "complete", "--start", "1", "--end", "12")
    lines = result.output.strip().splitlines()
    header = lines[0].split(",")
    idx_exact, idx_param = header.index("exact"), header.index("param")
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[idx_exact]) == int(cells[idx_param]) % 2


def test_table_sun_sharpness(runner):
    result = invoke(runner, "table", "sun", "--start", "2", "--end", "4")
    lines = result.output.strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        assert cells["exact"] == "0"
        assert cells["bound.nn1.raw"] == "0"
        assert cells["bound.nn2.raw"] == "0"
        assert cells["bound.nn3.raw"] == "0"


def _table_rows(runner, *args):
    header, *rows = invoke(runner, "table", *args, "--mode", "both").output.strip().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_table_leaves_inapplicable_bounds_empty(runner):
    (row, _) = _table_rows(runner, "cycle", "--start", "9", "--end", "9", "--k-policy", "half")
    assert row["k"] == "5"
    for name in ("nn1", "nn2", "nn3"):
        assert row[f"bound.{name}.raw"] == "", name
    assert row["bound.ksub1.raw"] != "" and row["bound.regular.raw"] != ""


@pytest.mark.parametrize("k_policy", ["full", "half", "one"])
def test_table_raw_bounds_never_exceed_exact(runner, k_policy):
    sweeps = [("cycle", 3, 12), ("path", 2, 12), ("complete", 1, 8), ("sun", 2, 3),
              ("circulant", 5, 12)]
    for family, start, end in sweeps:
        rows = _table_rows(runner, family, "--start", str(start), "--end", str(end),
                           "--k-policy", k_policy)
        assert len(rows) == 2 * (end - start + 1)
        for row in rows:
            for name in bounds_mod.BOUND_NAMES:
                raw = row[f"bound.{name}.raw"]
                if raw:
                    assert Fraction(raw) <= int(row["exact"]), (family, row["param"], row["mode"], name)


def test_verify_small_ensemble_passes(runner, tmp_path):
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["verify", "--family", "cycle", "--family", "complete", "--n-max", "6",
         "-o", str(report_path)],
    )
    assert result.exit_code == 0
    assert "RESULT: PASS" in result.output
    assert "without an oracle" not in result.output
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True


def test_verify_text_names_the_graphs_without_an_oracle(runner):
    for check, unchecked in (("parity", 20), ("oracle-equivalence", 2)):
        args = ["verify", "--family", "cycle", "--n-max", "22", "--check", check]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert f"graphs without an oracle: {unchecked}\n" in result.output


def test_verify_bound_dominance_on_complete_family(runner):
    result = runner.invoke(
        main,
        ["verify", "--check", "bound-dominance", "--family", "complete", "--n-max", "12"],
    )
    assert result.exit_code == 0, result.output


def test_verify_failure_exits_1(runner, monkeypatch):
    original = bounds_mod.bound_nn_3
    monkeypatch.setattr(
        bounds_mod, "bound_nn_3", lambda p: original(p) + Fraction(1, p.delta + 1)
    )
    result = runner.invoke(
        main,
        ["verify", "--check", "bound-dominance", "--family", "cycle", "--n-max", "6"],
    )
    assert result.exit_code == 1
    assert "RESULT: FAIL" in result.output
    assert "counterexample" in result.output


def test_verify_empty_ensemble_fails(runner):
    # G(n, p) starts at n_min = 4, so n_max = 3 builds no graph at all
    result = runner.invoke(main, ["verify", "--family", "gnp", "--n-max", "3"])
    assert result.exit_code == 1
    assert "graphs: 0" in result.output
    assert "no check recorded a result" in result.output
    assert "RESULT: FAIL" in result.output
    assert "RESULT: PASS" not in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["cycle", "--start", "5", "--end", "4"], "--start"),
        (["complete", "--start", "0", "--end", "2"], "n >= 1"),
    ],
)
def test_table_bad_range_is_usage_error(runner, args, message):
    result = runner.invoke(main, ["table", *args])
    assert result.exit_code == 2
    assert message in result.output
    assert isinstance(result.exception, SystemExit)


def test_verify_rejects_unknown_check(runner):
    result = runner.invoke(main, ["verify", "--check", "nope"])
    assert result.exit_code == 2


def test_verify_deterministic_flag_and_workers(runner):
    result = runner.invoke(main, ["verify", "--family", "hajos", "--workers", "4"])
    assert result.exit_code == 0
    assert "RESULT: PASS" in result.output
    # reports are identical at any worker count, so no flag forces one
    result = runner.invoke(main, ["--deterministic", "verify", "--family", "hajos"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--family", "hajos", "--workers", "0"], "workers"),
        (["--family", "hajos", "--workers", "-1"], "workers"),
        (["--family", "gnp", "--seeds", "-1"], "seeds_per_cell"),
        (["--family", "gnp", "--n-min", "0"], "n_min"),
    ],
)
def test_verify_bad_counts_are_usage_errors(runner, args, message):
    result = runner.invoke(main, ["verify", *args])
    assert result.exit_code == 2
    assert message in result.output
    assert "RESULT" not in result.output


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_verify_refuses_a_p_outside_0_1_before_any_slice_runs(runner, monkeypatch, p):
    built = []
    monkeypatch.setattr(verify_mod, "build_ensemble", built.append)
    result = runner.invoke(main, ["verify", "--p", p, "--seeds", "0"])
    assert result.exit_code == 2
    assert "Error: p must lie in [0, 1]\n" in result.output
    assert "RESULT" not in result.output
    assert built == []


def test_verify_defaults_are_the_ensemble_spec_defaults(runner, monkeypatch):
    seen = []
    real = verify_mod.run_campaign

    def record(spec, **kwargs):
        seen.append(spec)
        return real(verify_mod.EnsembleSpec(families=("hajos",)), **kwargs)

    monkeypatch.setattr(verify_mod, "run_campaign", record)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0, result.output
    assert seen == [verify_mod.EnsembleSpec()]
    command = main.commands["verify"]
    ctx = command.make_context("verify", [])
    fields = {"families": "families", "n_min": "n_min", "n_max": "n_max", "p_values": "p_values",
              "seeds": "seeds_per_cell", "seed": "base_seed"}
    for param in command.params:
        if param.name in fields:
            default = getattr(verify_mod.EnsembleSpec, fields[param.name])
            shown = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
            help_text = " ".join(param.get_help_record(ctx)[1].split())
            assert help_text.endswith(f"[default: {shown}]"), (param.name, help_text)


GRAPH = "<graph file>"  # stands for a C_4 edge list written by the test


def _with_graph(args, tmp_path):
    path = tmp_path / "c4.gr"
    path.write_text("0 1\n1 2\n2 3\n0 3\n")
    return [str(path) if a == GRAPH else a for a in args]


@pytest.mark.parametrize(
    "args",
    [
        ["--format", "csv", "solve", GRAPH],
        ["--seed", "1", "gen", "gnp", "--n", "5", "--p", "0.5"],
        ["--brute-cap", "5", "table", "cycle", "--start", "3", "--end", "4"],
        ["solve", GRAPH, "--format", "csv"],
        ["table", "cycle", "--start", "3", "--end", "4", "--format", "text"],
        ["verify", "--family", "hajos", "--format", "csv"],
        ["refs", "--format", "jsonl"],
        ["solve", GRAPH, "--algorithm", "auto"],
        ["solve", GRAPH, "--brute-cap", "5"],
        ["gen", "cycle", "--n", "4", "--seed", "9", "--p", "0.3"],
        ["table", "cycle", "--start", "3", "--end", "4", "--offsets", "1,3"],
        ["verify", "--family", "cycle", "--seed", "7", "--n-min", "5"],
        ["gen", "sun", "--n", "3"],
        ["gen", "cycle", "--offsets", "1,2"],
    ],
)
def test_option_values_no_command_reads_are_usage_errors(runner, tmp_path, args):
    result = runner.invoke(main, _with_graph(args, tmp_path))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, flags",
    [
        (["solve", GRAPH, "--brute-cap", "5"], "--brute-cap"),
        (["gen", "cycle", "--n", "4", "--seed", "9", "--p", "0.3"], "--p, --seed"),
        (["table", "cycle", "--start", "3", "--end", "4", "--offsets", "1,3"], "--offsets"),
        (["verify", "--family", "cycle", "--seed", "7", "--n-min", "5"], "--n-min, --seed"),
        (["gen", "sun", "--n", "3"], "--n"),
    ],
)
def test_unread_flag_error_names_the_flags(runner, tmp_path, args, flags):
    result = runner.invoke(main, _with_graph(args, tmp_path))
    assert result.exit_code == 2
    assert f"{flags} not read" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["solve", GRAPH, "--algorithm", "brute", "--brute-cap", "5"],
        ["gen", "gnp", "--n", "4", "--seed", "9", "--p", "0.3"],
        ["gen", "sun", "--t", "2"],
        ["table", "circulant", "--start", "5", "--end", "6", "--offsets", "1,2"],
        ["verify", "--family", "gnp", "--seed", "7", "--n-min", "5", "--n-max", "5",
         "--seeds", "2"],
    ],
)
def test_flags_the_command_reads_are_accepted(runner, tmp_path, args):
    assert runner.invoke(main, _with_graph(args, tmp_path)).exit_code == 0


def test_order_on_dimacs_input_is_usage_error(runner, tmp_path):
    path = tmp_path / "k2.col"
    path.write_text("p edge 2 1\ne 1 2\n")
    for command in ("solve", "bounds"):
        result = runner.invoke(main, [command, str(path), "--order", "3"])
        assert result.exit_code == 2
        assert "--order not read for DIMACS input" in result.output
        assert runner.invoke(main, [command, str(path)]).exit_code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["solve", GRAPH],
        ["bounds", GRAPH],
        ["table", "cycle", "--start", "3", "--end", "5"],
        ["verify", "--family", "hajos"],
    ],
)
def test_every_format_choice_changes_the_output(runner, tmp_path, args):
    args = _with_graph(args, tmp_path)
    (option,) = [p for p in main.commands[args[0]].params if p.name == "fmt"]
    outputs = {fmt: invoke(runner, *args, "--format", fmt).output for fmt in option.type.choices}
    assert len(set(outputs.values())) == len(outputs) >= 2
    assert invoke(runner, *args).output == outputs[option.default]


def test_gen_circulant_offsets(runner):
    result = invoke(runner, "gen", "circulant", "--n", "8", "--offsets", "1,3")
    g = parse_edge_list(result.output)
    assert all(g.degree(v) == 4 for v in g.vertices())


def test_refs_csv(runner):
    result = invoke(runner, "refs")
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("family,params,n,k,mode,value,provenance")
    assert any(line.startswith("hajos") for line in lines)
    assert any(line.startswith("cycle,n=6,6,n,signed,2") for line in lines)


# For each option of `gen`: its command-line text and the generator argument.
GEN_VALUES = {"n": ("8", 8), "t": ("2", 2), "p": ("0.5", 0.5), "seed": ("3", 3),
              "offsets": ("1,3", [1, 3])}


def test_gen_options_are_the_family_parameters():
    options = {p.name for p in main.commands["gen"].params} - {"family", "graph_format", "output"}
    assert options == GEN_VALUES.keys()
    assert {name for _, reads in FAMILIES.values() for name in reads} == options
    (family,) = [p for p in main.commands["verify"].params if p.name == "families"]
    assert list(family.type.choices) == list(FAMILIES)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_gen_reads_exactly_the_family_parameters(runner, family):
    build, reads = FAMILIES[family]
    flags = [arg for name in reads for arg in (f"--{name}", GEN_VALUES[name][0])]
    result = invoke(runner, "gen", family, *flags, "--graph-format", "dimacs")
    assert result.output == to_dimacs(build(*(GEN_VALUES[name][1] for name in reads)))
    for name in GEN_VALUES.keys() - set(reads):
        result = runner.invoke(main, ["gen", family, *flags, f"--{name}", GEN_VALUES[name][0]])
        assert result.exit_code == 2
        assert f"--{name} not read for family {family}" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "circulant", "--offsets", "x"],
        ["gen", "circulant", "--n", "8", "--offsets", "x"],
        ["table", "circulant", "--start", "5", "--end", "6", "--offsets", "x"],
    ],
)
def test_malformed_offsets_are_usage_errors(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "invalid literal for int()" in result.output


def test_input_format_is_read_from_the_file(runner, tmp_path):
    graph = gen_sun(2)
    dimacs = tmp_path / "sun2.col"
    dimacs.write_text("c the sun gadget, t = 2\n" + to_dimacs(graph))
    edge_list = tmp_path / "sun2.gr"
    edge_list.write_text("# the sun gadget, t = 2\n" + to_edge_list(graph))
    for args in (["solve"], ["bounds", "--format", "jsonl"]):
        outputs = [invoke(runner, args[0], str(path), *args[1:]).output for path in (dimacs, edge_list)]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["n"] == 8
        result = runner.invoke(main, [args[0], str(dimacs), "--input-format", "dimacs"])
        assert result.exit_code == 2
        assert "No such option" in result.output


def test_byte_order_mark_is_ignored(runner, tmp_path):
    graph = gen_sun(2)
    for name, text in (("sun2.col", to_dimacs(graph)), ("sun2.gr", to_edge_list(graph))):
        plain = tmp_path / name
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / f"bom-{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for args in (["solve"], ["bounds", "--format", "jsonl"]):
            results = [invoke(runner, args[0], str(path), *args[1:]) for path in (plain, marked)]
            assert [r.exit_code for r in results] == [0, 0]
            assert results[0].output == results[1].output
            assert json.loads(results[1].output)["n"] == 8


def test_non_utf8_graph_file_is_usage_error(runner, tmp_path):
    path = tmp_path / "bin.gr"
    path.write_bytes(b"\xff\xfe\x00\x01")
    for command in ("solve", "bounds"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"cannot read {path}" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "cycle", "--n", "4"],
        ["solve", GRAPH],
        ["bounds", GRAPH],
        ["table", "cycle", "--start", "3", "--end", "4"],
        ["refs"],
        ["verify", "--family", "cycle", "--n-max", "4"],
    ],
)
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_output_is_usage_error(runner, tmp_path, args, target):
    output = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, [*_with_graph(args, tmp_path), "-o", str(output)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert str(output) in result.output
    assert "Traceback" not in result.output


def test_verify_refuses_a_missing_output_directory_before_the_campaign(runner, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_campaign called")

    monkeypatch.setattr(verify_mod, "run_campaign", refuse)
    output = tmp_path / "missing" / "report.json"
    result = runner.invoke(main, ["verify", "--family", "cycle", "--n-max", "4", "-o", str(output)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"cannot write {output}" in result.output


def _readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _readme_cli_rows() -> dict[str, set[str]]:
    """Each command's row of the README's CLI table, as the set of flags it names."""
    rows = {}
    for line in _readme_cli_section().splitlines():
        match = re.match(r"\| `(\w+)[^`]*` \| (.*) \|$", line)
        if match:
            rows[match[1]] = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", match[2]))
    return rows


@pytest.mark.parametrize("command", sorted(main.commands))
def test_readme_cli_table_matches_the_options(command):
    row = _readme_cli_rows()[command]
    options = [p for p in main.commands[command].params if isinstance(p, click.Option)]
    for option in options:
        assert row & set(option.opts), f"{command}: {option.opts[0]} missing from the README"
    spellings = {spelling for option in options for spelling in option.opts}
    assert row <= spellings, f"{command}: README names {sorted(row - spellings)}"


def test_readme_cli_example_block_runs(runner, tmp_path):
    """Every `signdom` line of the README's CLI example block exits 0; the
    verify lines, which run whole campaigns, are only parsed."""
    block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [words[1:] for words in lines if words[:1] == ["signdom"]]
    assert len(lines) >= 10
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for args in lines:
            if args[0] == "verify":
                main.commands["verify"].make_context("verify", args[1:])
            else:
                result = runner.invoke(main, args)
                assert result.exit_code == 0, (args, result.output)
