"""Command line interface.

Machine-readable results go to stdout, diagnostics to stderr. Exit status:
0 success, 1 domain error (bad input, no witness to emit), 2 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache, partial

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


@contextmanager
def _output(path, infile=None):
    """The text stream a command writes to: sys.stdout, or the file path opened first.

    A file that cannot be opened, or that is the input file, which opening
    would empty, is a ValueError before the command does any work. If the
    command fails, the file is closed and deleted, so a failed command leaves
    no partial report; only a regular file is deleted.
    """
    if not path:
        yield sys.stdout
        return
    if infile is not None and os.path.realpath(path) == os.path.realpath(infile):
        raise ValueError("--out names the --in file; write the output to another file")
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc
    with fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            if os.path.isfile(path):
                os.remove(path)
            raise


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(rows, fmt: str = "json", out=None) -> None:
    """Write a classification report to the text stream out (default sys.stdout).

    Each row is written as it arrives, before the next is asked for, so the
    rows may be a lazy sweep. The bytes are those of
    json.dumps(list(rows), sort_keys=True, indent=2) plus a newline, or one
    table line per row under a header: identical rows give identical bytes.
    """
    if fmt not in ("json", "table"):
        raise ValueError(f"unknown report format {fmt!r}")
    write = (sys.stdout if out is None else out).write
    if fmt == "table":
        write(f"{'graph6':<10} {'m':>2} {'k':>2} {'dim':>4} {'verdict':<10} certificate\n")
        for row in rows:
            write(
                f"{row['graph6']:<10} {row['m']:>2} {row['k']:>2} {row['dim']:>4} "
                f"{row['verdict']:<10} {row['certificate']['kind']}\n"
            )
        return
    # a row of the list is its own indented dump shifted right by one level;
    # json escapes every newline inside a string, so each one here ends a line
    encode = json.JSONEncoder(sort_keys=True, indent=2).encode
    opening = "[\n  "
    for row in rows:
        write(opening)
        write(encode(row).replace("\n", "\n  "))
        opening = ",\n  "
    write("[]\n" if opening == "[\n  " else "\n]\n")


def _add_sweep_flags(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--out", help="output file (default stdout)")


def _add_emit_flags(parser) -> None:
    _add_graph_flags(parser)
    parser.add_argument("--t", default="1", help='rational parameter "p/q" (default 1)')


def _add_enumerate_flags(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--out", help="output file (default stdout)")


_COMMAND_HELP = {
    "algebra": "construct graph Lie algebras",
    "cohomology": "cohomological invariants",
    "rigidity": "rigidity classification",
    "deform": "deformations from witnesses",
    "graphs": "graph utilities",
}


@cache
def _build_parser(path=None) -> _Parser:
    """The argparse tree; with path, a key of _HANDLERS, only the root, its command and its leaf.

    Each parser's help, usage and errors depend only on its own arguments and
    its ancestors' names, so on a path they have the bytes of the full tree's.
    """
    parser = _Parser(prog="graphlie", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict = {}
    for key, (leaf_help, add_flags, _) in _HANDLERS.items():
        if path is not None and key != path:
            continue
        command, leaf = key
        if command not in commands:
            group = sub.add_parser(command, help=_COMMAND_HELP[command])
            commands[command] = group.add_subparsers(dest="subcommand", required=True)
        add_flags(commands[command].add_parser(leaf, help=leaf_help))
    return parser


def _require_graph(graph) -> SimpleGraph:
    if graph is None:
        raise ValueError("this command needs a graph input, not an algebra file")
    return graph


def _cmd_algebra_build(args, out) -> int:
    graph, algebra = _load_input(args)
    if algebra is None:
        algebra = structure_constants(_require_graph(graph), args.k)
    else:
        _checked_algebra(algebra)
    out.write(_dump_json(algebra_to_json_dict(algebra)))
    return 0


def _cmd_h2nil(args, out) -> int:
    graph, algebra = _load_input(args)
    if algebra is None:
        report = graph_h2(graph, structure_constants(graph, args.k), args.k)
    else:  # the h2 budget first: the Jacobi check walks |sc| * n triples
        check_h2_size(algebra.n, list(map(len, algebra.sc.values())))
        _checked_algebra(algebra)
        report = h2_nil(algebra)
    out.write(_dump_json(report.to_json_dict()))
    return 0


def _cmd_classify(args, out) -> int:
    graph = _require_graph(_load_input(args)[0])
    to_graph6(graph)  # the report carries the graph6 code: refuse m > 62 before classifying
    out.write(_dump_json(report_row(graph, args.k, classify(graph, args.k))))
    return 0


def _cmd_sweep(args, out) -> int:
    write_report(sweep(args.n, args.k), args.format, out)
    return 0


def _cmd_deform_emit(args, out) -> int:
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
    out.write(_dump_json(payload))
    return 0


def _cmd_enumerate(args, out) -> int:
    codes = [to_graph6(g) for g in enumerate_graphs(args.n)]
    out.write("\n".join(codes) + "\n")
    return 0


# (command, subcommand): (help, flag adder, handler), in --help order
_HANDLERS = {
    ("algebra", "build"): ("build and serialize an algebra", _add_graph_flags, _cmd_algebra_build),
    ("cohomology", "h2nil"): (
        "slot-two nil-cohomology report", partial(_add_graph_flags, k_default=2), _cmd_h2nil
    ),
    ("rigidity", "classify"): ("classify one graph", _add_graph_flags, _cmd_classify),
    ("rigidity", "sweep"): ("classify all classes up to n vertices", _add_sweep_flags, _cmd_sweep),
    ("deform", "emit"): ("emit the deformed bracket at rational t", _add_emit_flags, _cmd_deform_emit),
    ("graphs", "enumerate"): (
        "one graph6 code per isomorphism class", _add_enumerate_flags, _cmd_enumerate
    ),
}


def run_command(argv) -> int:
    path = tuple(argv[:2])
    parser = _build_parser(path if path in _HANDLERS else None)
    try:
        args = parser.parse_args(argv)
        handler = _HANDLERS[(args.command, args.subcommand)][2]
        with _output(args.out, getattr(args, "infile", None)) as out:
            return handler(args, out)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone, as in `graphlie rigidity sweep ... | head`; stdout
        # now points at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
