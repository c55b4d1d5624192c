"""Command-line front end: generate graphs, solve instances, print bound
tables, and run verification campaigns.

The group takes no options: each option sits on the one command that
reads it, and accepts only values that change that command's output. An
option given for a family or engine that does not read it
(``gen cycle --p 0.3``, ``solve --brute-cap`` with bnb, ``--order`` on
DIMACS input, ``verify --seed`` without the gnp family) is a usage error.
``graph.FAMILIES`` says which parameters each family reads.

Exit codes: 0 success, 1 verification-check failure, 2 usage or parse error
(running out of memory included).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import bounds as bounds_mod
from . import verify as verify_mod
from .graph import (
    FAMILIES,
    Graph,
    GraphError,
    degree_profile,
    is_connected,
    parse_dimacs,
    parse_edge_list,
    to_dimacs,
    to_edge_list,
)
from .reference import reference_table
from .solver import BRUTE_FORCE_CAP, Mode, result_record, solve_bnb, solve_bruteforce


def _load_graph(path: str, order: int | None) -> Graph:
    """Read a DIMACS file (first non-blank line starts with ``p`` or ``c``)
    or else an edge list; no edge-list line can start that way. A leading
    UTF-8 byte-order mark is dropped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise click.UsageError(f"cannot read {path}: {e}")
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    dimacs = first.split()[:1] in (["p"], ["c"])
    if dimacs:
        _reject_unread({"order"}, "for DIMACS input")
    try:
        return parse_dimacs(text) if dimacs else parse_edge_list(text, order=order)
    except GraphError as e:
        raise click.UsageError(f"{path}: {e}")


def _emit(text: str, output: str | None) -> None:
    """The one writer: ``text`` to the file ``output``, or to stdout."""
    if not output:
        click.echo(text, nl=False)
        return
    try:
        Path(output).write_text(text)
    except OSError as e:
        raise click.UsageError(f"cannot write {output}: {e}")


_output_option = click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
                              help="Output file (default stdout).")


def _reject_unread(names: set[str], reason: str) -> None:
    """Usage error naming each option in ``names`` that was given rather
    than left at its default; ``reason`` says when the command ignores it."""
    ctx = click.get_current_context()
    given = [
        max(param.opts, key=len)
        for param in ctx.command.params
        if param.name in names
        and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT
    ]
    if given:
        raise click.UsageError(f"{', '.join(given)} not read {reason}")


def _format(records: list[dict[str, object]], fmt: str) -> str:
    """``records`` as JSON lines, as CSV with a header row, or (``text``)
    as one ``key = value`` line per field."""
    if fmt == "jsonl":
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)
        return buf.getvalue()
    return "".join(f"{key} = {value}\n" for r in records for key, value in r.items())


class _Group(click.Group):
    """The command group; a command that runs out of memory on its input
    ends in a usage error (exit 2), not a traceback under exit 1, which
    means a check failure."""

    def invoke(self, ctx: click.Context) -> object:
        try:
            return super().invoke(ctx)
        except MemoryError:
            raise click.UsageError("out of memory: the input is too large for this machine") from None


@click.group(cls=_Group)
def main() -> None:
    """Exact signed and nonnegative signed k-subdomination numbers."""


def _offsets(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as e:
        raise click.UsageError(str(e))


def _readers(name: str) -> str:
    """The families whose generator takes parameter ``name``."""
    return "/".join(family for family, (_, reads) in FAMILIES.items() if name in reads)


@main.command()
@click.argument("family", type=click.Choice(list(FAMILIES)))
@click.option("--n", type=int, help=f"Order, for {_readers('n')}.")
@click.option("--t", type=int, help=f"Half cycle length, for {_readers('t')}.")
@click.option("--p", type=float, help=f"Edge probability, for {_readers('p')}.")
@click.option("--seed", type=int, default=0, show_default=True, help=f"Seed, for {_readers('seed')}.")
@click.option("--offsets", default="1", show_default=True, help="Comma-separated circulant offsets.")
@click.option("--graph-format", type=click.Choice(["edgelist", "dimacs"]), default="edgelist",
              show_default=True, help="On-disk format.")
@_output_option
def gen(family, graph_format, output, **given):
    """Generate a named graph family member."""
    build, reads = FAMILIES[family]
    _reject_unread(set(given) - set(reads), f"for family {family}")
    given["offsets"] = _offsets(given["offsets"])
    for name in reads:
        if given[name] is None:
            raise click.UsageError(f"--{name} is required for this family")
    try:
        graph = build(*(given[name] for name in reads))
    except ValueError as e:
        raise click.UsageError(str(e))
    if graph_format == "edgelist" and graph.vertex_count and not graph.adjacency[-1]:
        raise click.UsageError(
            f"vertex {graph.vertex_count - 1} has no edges, so an edge list would drop it;"
            " use --graph-format dimacs"
        )
    text = to_dimacs(graph) if graph_format == "dimacs" else to_edge_list(graph)
    _emit(text, output)


@main.command(name="solve")
@click.argument("graph_file", type=click.Path(exists=True))
@click.option("--k", type=int, default=None, help="Subdomination parameter (default: n).")
@click.option("--mode", type=click.Choice(["nonneg", "signed"]), default="nonneg", show_default=True)
@click.option("--algorithm", type=click.Choice(["bnb", "brute"]), default="bnb", show_default=True)
@click.option("--brute-cap", type=int, default=BRUTE_FORCE_CAP, show_default=True,
              help="Vertex limit for --algorithm brute.")
@click.option("--order", type=int, default=None, help="Vertex-count override for edge-list input.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "text"]), default="jsonl", show_default=True)
@_output_option
def solve_cmd(graph_file, k, mode, algorithm, brute_cap, order, fmt, output):
    """Solve one instance exactly; emits one record (JSON lines or text)."""
    if algorithm != "brute":
        _reject_unread({"brute_cap"}, f"by --algorithm {algorithm}")
    graph = _load_graph(graph_file, order)
    if k is None:
        k = graph.vertex_count
    mode = Mode(mode)
    try:
        if algorithm == "brute":
            result = solve_bruteforce(graph, k, mode, cap=brute_cap)
        else:
            result = solve_bnb(graph, k, mode)
    except ValueError as e:
        raise click.UsageError(str(e))
    _emit(_format([result_record(graph, k, mode, result)], fmt), output)


@main.command(name="bounds")
@click.argument("graph_file", type=click.Path(exists=True))
@click.option("--k", type=int, default=None, help="Subdomination parameter (default: n).")
@click.option("--order", type=int, default=None, help="Vertex-count override for edge-list input.")
@click.option("--format", "fmt", type=click.Choice(["text", "jsonl", "csv"]), default="text", show_default=True)
@_output_option
def bounds_cmd(graph_file, k, order, fmt, output):
    """Print every named lower bound for one graph."""
    graph = _load_graph(graph_file, order)
    if k is None:
        k = graph.vertex_count
    try:
        report = bounds_mod.bound_report(graph, k)
    except ValueError as e:
        raise click.UsageError(str(e))
    if fmt != "text":
        _emit(_format([report.to_record()], fmt), output)
    else:
        rows = [f"n={report.n} k={report.k} connected={report.connected}"]
        for name in bounds_mod.BOUND_NAMES:
            b = report[name]
            raw = "-" if b.raw is None else str(b.raw)
            lifted = "-" if b.parity_lifted is None else str(b.parity_lifted)
            flag = "" if b.applicable else "  (not applicable)"
            rows.append(f"{name:>16}  raw={raw:<10} lifted={lifted}{flag}")
        _emit("\n".join(rows) + "\n", output)


_SPEC = verify_mod.EnsembleSpec  # the one home of verify's ensemble defaults


@main.command()
@click.option("--family", "families", multiple=True, type=click.Choice(list(FAMILIES)),
              default=_SPEC.families, show_default=True, help="Restrict the ensemble (repeatable).")
@click.option("--n-min", type=int, default=_SPEC.n_min, show_default=True, help="Smallest G(n,p) order.")
@click.option("--n-max", type=int, default=_SPEC.n_max, show_default=True, help="Largest ensemble order.")
@click.option("--p", "p_values", multiple=True, type=float, default=_SPEC.p_values, show_default=True,
              help="G(n,p) edge probabilities (repeatable).")
@click.option("--seeds", type=int, default=_SPEC.seeds_per_cell, show_default=True,
              help="Seeds per G(n,p) cell.")
@click.option("--check", "checks", multiple=True, type=click.Choice(list(verify_mod.CHECK_NAMES)),
              help="Run only these checks (repeatable; default: all).")
@click.option("--k", "k_policy", type=click.Choice(["default", "all"]), default="default",
              show_default=True, help="k sweep: {1, ceil(n/2), n} or all of 1..n.")
@click.option("--seed", type=int, default=_SPEC.base_seed, show_default=True,
              help="Base seed of the G(n,p) draws.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Worker processes, each building and checking one ensemble slice at a time "
                   "(a named family, or up to 16 seeds of a G(n,p) cell); at most one per slice.")
@click.option("--format", "fmt", type=click.Choice(["text", "jsonl"]), default="text", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None, help="Write the JSON report here.")
def verify(families, n_min, n_max, p_values, seeds, checks, k_policy, seed, workers, fmt, output):
    """Run invariant checks over a reproducible ensemble; exit 1 on failure."""
    if "gnp" not in families:
        _reject_unread({"n_min", "p_values", "seeds", "seed"}, "without --family gnp")
    # a campaign may run long: refuse a path _emit cannot write before it starts
    if output and not Path(output).parent.is_dir():
        raise click.UsageError(f"cannot write {output}: no directory {Path(output).parent}")
    try:
        spec = _SPEC(families=families, n_min=n_min, n_max=n_max, p_values=p_values,
                     seeds_per_cell=seeds, base_seed=seed)
        report = verify_mod.run_campaign(
            spec,
            k_policy=k_policy,
            checks=tuple(checks) or None,
            workers=workers,
        )
    except ValueError as e:
        raise click.UsageError(str(e))
    payload = report.to_dict()
    if output:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)
    if fmt == "jsonl":
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(f"graphs: {report.graph_count}   k-policy: {report.k_policy}")
        for c in report.checks:
            status = "ok" if c.failed == 0 else "FAIL"
            click.echo(f"{c.name:>22}  passed={c.passed:<8} failed={c.failed:<6} {status}")
            for ce in c.counterexamples[:3]:
                click.echo(
                    f"    counterexample: {ce.graph_label} k={ce.k} mode={ce.mode} "
                    f"observed={ce.observed} expected={ce.expected} ({ce.detail})"
                )
        if report.checks_recorded == 0:
            click.echo(f"no check recorded a result on {report.graph_count} graphs")
        if report.graphs_without_oracle:
            click.echo(f"graphs without an oracle (n > {BRUTE_FORCE_CAP}): {report.graphs_without_oracle}")
        click.echo("RESULT: PASS" if report.all_passed else "RESULT: FAIL")
    if not report.all_passed:
        sys.exit(1)


@main.command()
@click.argument("family", type=click.Choice(  # swept by the first parameter; --offsets may fix the rest
    [family for family, (_, reads) in FAMILIES.items() if reads and set(reads[1:]) <= {"offsets"}]))
@click.option("--start", type=int, required=True, help="First n (or t for sun).")
@click.option("--end", type=int, required=True, help="Last n (or t for sun), inclusive.")
@click.option("--offsets", default="1,2", show_default=True, help="Circulant offsets.")
@click.option("--k-policy", type=click.Choice(["full", "half", "one"]), default="full",
              show_default=True, help="k = n, ceil(n/2), or 1.")
@click.option("--mode", "mode_name", type=click.Choice(["nonneg", "signed", "both"]),
              default="nonneg", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv", show_default=True)
@_output_option
def table(family, start, end, offsets, k_policy, mode_name, fmt, output):
    """Sweep a family and tabulate exact values next to every bound."""
    build, (_, *fixed) = FAMILIES[family]  # the first parameter is the swept one
    _reject_unread({"offsets"} - set(fixed), f"for family {family}")
    if start > end:
        raise click.UsageError(f"--start ({start}) must not exceed --end ({end})")
    given = {"offsets": _offsets(offsets)}
    modes = list(Mode) if mode_name == "both" else [Mode(mode_name)]
    records: list[dict[str, object]] = []
    for param in range(start, end + 1):
        try:
            graph = build(param, *(given[name] for name in fixed))
        except ValueError as e:
            raise click.UsageError(str(e))
        if graph.vertex_count < 1:
            raise click.UsageError(f"{family} {param} has no vertex; solving requires n >= 1")
        profile = degree_profile(graph)
        n = graph.vertex_count
        k = {"full": n, "half": math.ceil(n / 2), "one": 1}[k_policy]
        applies = dict(bounds_mod.bound_values(profile, is_connected(graph), k))  # mode-free
        raws = {  # a bound that does not apply at this k bounds nothing: leave it empty
            f"bound.{name}.raw": str(applies[name]) if name in applies else ""
            for name in bounds_mod.BOUND_NAMES
        }
        for mode in modes:
            records.append({
                "family": family,
                "param": param,
                "n": n,
                "m": profile.m,
                "delta": profile.delta,
                "Delta": profile.Delta,
                "n_e": profile.n_e,
                "mode": mode.value,
                "k": k,
                "exact": solve_bnb(graph, k, mode).optimum,
                **raws,
            })
    _emit(_format(records, fmt), output)


@main.command()
@_output_option
def refs(output):
    """Dump the table of known exact family values as CSV."""
    records = [
        {
            "family": rv.family,
            "params": ",".join(f"{key}={value}" for key, value in rv.params),
            "n": rv.build_graph().vertex_count,
            "k": rv.k,
            "mode": rv.mode.value,
            "value": rv.value,
            "provenance": rv.provenance,
        }
        for rv in reference_table()
    ]
    _emit(_format(records, "csv"), output)


if __name__ == "__main__":
    main()
