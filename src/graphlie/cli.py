"""Command line interface.

Machine-readable results go to stdout, diagnostics to stderr. Exit status:
0 success, 1 domain error (bad input, no witness to emit), 2 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import __version__
from .basis import structure_constants
from .cohomology import h2_nil
from .errors import InternalInvariantError, invariant_error
from .graphs import SimpleGraph, enumerate_graphs, from_graph6, parse_graph, to_graph6
from .liealg import (
    LieAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    jacobi_report,
    lower_central_series,
)
from .limits import check_h2_size, check_k
from .linalg import frac, frac_str
from .rigidity import (
    DeformedAlgebra,
    build_sigma,
    classify,
    deform_check,
    find_witness,
    graph_h2,
    report_row,
    sweep,
)


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_graph_flags(parser, k_default=None):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--edges", help='edge list JSON {"m": int, "edges": [[i, j], ...]}')
    group.add_argument("--graph6", help="graph6 code")
    group.add_argument("--in", dest="infile", help="file with edge list JSON or algebra JSON")
    parser.add_argument("--k", type=int, default=k_default, required=k_default is None)
    parser.add_argument("--out", help="output file (default stdout)")


def _load_input(args):
    """Returns (graph, algebra); at least one is not None. k is checked
    against its budget first; a loaded algebra comes back unchecked, and each
    command that takes one runs _checked_algebra."""
    check_k(args.k)
    if args.edges is not None:
        return parse_graph(args.edges), None
    if args.graph6 is not None:
        return from_graph6(args.graph6), None
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read input file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"input file is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "brackets" in data:
        return None, algebra_from_json_dict(data)
    return parse_graph(text), None


def _checked_algebra(algebra: LieAlgebra) -> None:
    """Refuse a loaded bracket table that is not a nilpotent Lie algebra."""
    bad = jacobi_report(algebra)
    if bad:
        raise ValueError(f"loaded algebra violates the Jacobi identity at basis triple {bad[0]}")
    stable = lower_central_series(algebra)[-1].rank
    if stable:
        raise ValueError(
            f"loaded algebra is not nilpotent: its lower central series stops at dimension {stable}"
        )


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(rows, fmt: str = "json") -> str:
    """Serialize a classification report; identical input gives identical bytes."""
    if fmt == "json":
        text = _dump_json(rows)
    elif fmt == "table":
        lines = [f"{'graph6':<10} {'m':>2} {'k':>2} {'dim':>4} {'verdict':<10} certificate"]
        for row in rows:
            lines.append(
                f"{row['graph6']:<10} {row['m']:>2} {row['k']:>2} {row['dim']:>4} "
                f"{row['verdict']:<10} {row['certificate']['kind']}"
            )
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return text


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="graphlie", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    algebra = sub.add_parser("algebra", help="construct graph Lie algebras")
    algebra_sub = algebra.add_subparsers(dest="subcommand", required=True)
    build = algebra_sub.add_parser("build", help="build and serialize an algebra")
    _add_graph_flags(build)

    coh = sub.add_parser("cohomology", help="cohomological invariants")
    coh_sub = coh.add_subparsers(dest="subcommand", required=True)
    h2 = coh_sub.add_parser("h2nil", help="slot-two nil-cohomology report")
    _add_graph_flags(h2, k_default=2)

    rig = sub.add_parser("rigidity", help="rigidity classification")
    rig_sub = rig.add_subparsers(dest="subcommand", required=True)
    cls = rig_sub.add_parser("classify", help="classify one graph")
    _add_graph_flags(cls)
    sw = rig_sub.add_parser("sweep", help="classify all classes up to n vertices")
    sw.add_argument("--n", type=int, required=True)
    sw.add_argument("--k", type=int, required=True)
    sw.add_argument("--format", choices=("json", "table"), default="json")
    sw.add_argument("--out", help="output file (default stdout)")

    deform = sub.add_parser("deform", help="deformations from witnesses")
    deform_sub = deform.add_subparsers(dest="subcommand", required=True)
    emit = deform_sub.add_parser("emit", help="emit the deformed bracket at rational t")
    _add_graph_flags(emit)
    emit.add_argument("--t", default="1", help='rational parameter "p/q" (default 1)')

    graphs = sub.add_parser("graphs", help="graph utilities")
    graphs_sub = graphs.add_subparsers(dest="subcommand", required=True)
    enum = graphs_sub.add_parser("enumerate", help="one graph6 code per isomorphism class")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--out", help="output file (default stdout)")

    return parser


def _require_graph(graph) -> SimpleGraph:
    if graph is None:
        raise ValueError("this command needs a graph input, not an algebra file")
    return graph


def _cmd_algebra_build(args) -> int:
    graph, algebra = _load_input(args)
    if algebra is None:
        algebra = structure_constants(_require_graph(graph), args.k)
    else:
        _checked_algebra(algebra)
    _emit(_dump_json(algebra_to_json_dict(algebra)), args.out)
    return 0


def _cmd_h2nil(args) -> int:
    graph, algebra = _load_input(args)
    if algebra is None:
        report = graph_h2(graph, structure_constants(graph, args.k), args.k)
    else:  # the h2 budget first: the Jacobi check walks |sc| * n triples
        check_h2_size(algebra.n, list(map(len, algebra.sc.values())))
        _checked_algebra(algebra)
        report = h2_nil(algebra)
    _emit(_dump_json(report.to_json_dict()), args.out)
    return 0


def _cmd_classify(args) -> int:
    graph = _require_graph(_load_input(args)[0])
    to_graph6(graph)  # the report carries the graph6 code: refuse m > 62 before classifying
    _emit(_dump_json(report_row(graph, args.k, classify(graph, args.k))), args.out)
    return 0


def _cmd_sweep(args) -> int:
    rows = sweep(args.n, args.k)
    text = write_report(rows, fmt=args.format)
    _emit(text, args.out)
    return 0


def _cmd_deform_emit(args) -> int:
    graph = _require_graph(_load_input(args)[0])
    code = to_graph6(graph)  # refuses m > 62 before any algebra is built
    t = frac(args.t)
    base = structure_constants(graph, args.k)
    witness = find_witness(graph, base, args.k)
    if witness is None:
        raise ValueError("no deformation witness exists for this graph and k")
    if witness["kind"] == "graded_witness":
        a1, a2 = witness["a1_index"], witness["a2_index"]
        y = witness["y"]
    else:
        a1, a2 = witness["v_index"], witness["w_index"]
        y = witness["z"]
    cocycle = build_sigma(base, a1, a2, y)
    deformed = DeformedAlgebra(base, cocycle)
    check = deform_check(deformed)
    if not check:
        raise invariant_error(
            f"witness cocycle fails the deformation identities at {check.violation}",
            code, args.k, "deform emit, deformation identities",
        )
    materialized = deformed.at_t(t)
    payload = {
        "graph6": code,
        "k": args.k,
        "t": frac_str(t),
        "certificate": witness,
        "deformed_algebra": algebra_to_json_dict(materialized),
    }
    _emit(_dump_json(payload), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    codes = [to_graph6(g) for g in enumerate_graphs(args.n)]
    _emit("\n".join(codes) + "\n", args.out)
    return 0


_HANDLERS = {
    ("algebra", "build"): _cmd_algebra_build,
    ("cohomology", "h2nil"): _cmd_h2nil,
    ("rigidity", "classify"): _cmd_classify,
    ("rigidity", "sweep"): _cmd_sweep,
    ("deform", "emit"): _cmd_deform_emit,
    ("graphs", "enumerate"): _cmd_enumerate,
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = _HANDLERS[(args.command, args.subcommand)]
        return handler(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
