"""The benchmark's outside-in spans must still find what they wrap.

perfbench/spans.py wraps graphlie functions by name and reads the entries
and column count of the cochain matrices. A rename would leave a span with
zero calls, so every target is checked here against the current package,
and the counters a traced sweep reports are pinned.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graphlie.basis import structure_constants
from graphlie.cohomology import delta1_matrix, delta2_matrix, eta2_matrix
from graphlie.graphs import SimpleGraph
from graphlie.liealg import LieAlgebra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location("graphlie_bench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_a_callable():
    targets = _load("spans").TARGETS
    assert targets
    for name in targets:
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module("graphlie." + module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name


def test_cochain_matrices_keep_the_fields_the_spans_read():
    algebra = structure_constants(SimpleGraph.make(3, [(1, 2), (1, 3)]), 2)
    # the same brackets with constants 1/2 and 2/3: the rows are held over L = 6
    rescaled = LieAlgebra(algebra.n, {(0, 1): {3: Fraction(1, 2)}, (0, 2): {4: Fraction(2, 3)}})
    assert {pair: set(terms) for pair, terms in algebra.sc.items()} == {(0, 1): {3}, (0, 2): {4}}
    for build in (delta1_matrix, delta2_matrix, eta2_matrix):
        for alg, scale in ((algebra, 1), (rescaled, 6)):
            matrix = build(alg)
            assert isinstance(matrix.cols, int) and matrix.cols > 0
            assert len(matrix.entries) > 0 and matrix.scale == scale


def _traced(*argv: str) -> dict:
    return _traced_commands([list(argv)])


def _traced_commands(argvs: list) -> dict:
    # The benchmark's tracer report for CLI commands run one after the other
    # in one process, as a benchmark operation runs them. The tracer patches
    # module globals, so it runs in a child.
    root = Path(__file__).resolve().parents[1]
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(PERFBENCH)!r}]\n"
        "from graphlie import cli\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = max(cli.run_command(argv) for argv in {argvs!r})\n"
        "print(json.dumps({'code': code, **tracer.report()}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["code"] == 0
    return report


def _traced_sweep(k: int) -> dict:
    return _traced("rigidity", "sweep", "--n", "5", "--k", str(k))


def test_traced_sweep_counts_are_pinned():
    # One h2 per isomorphism class on 2..5 vertices (51), each through the
    # three module-global builders; a rewrite around them fails here. The
    # builders keep only the columns of one torus weight per twin orbit, and
    # delta2 and eta2 hold one unit entry per column they settle from the
    # center, or on an output outside [g, g], instead of a row per (triple,
    # output) or (pair, argument, output), each column once: 23,695 of the
    # 82,650 entries of the whole matrices.
    report = _traced_sweep(2)
    assert report["counts"]["cohomology.matrix_nnz"] == 23695
    assert report["counts"]["cohomology.cochain_cols"] == 19750
    for name in (
        "cohomology.h2_nil",
        "cohomology.delta1_matrix",
        "cohomology.delta2_matrix",
        "cohomology.eta2_matrix",
    ):
        assert report["spans"][name][0] == 51, name
    assert report["spans"]["linalg.RatMatrix.matmul"][0] >= 1
    # Both sweeps expect the enumeration spans (SWEEP_SPANS in
    # perfbench/workloads.py): one enumerate_graphs per size 2..5, and one
    # canonical form per accepted child or tie-breaking deletion,
    # 3 + 7 + 23 + 74, each through the module globals, so an enumeration
    # that bypasses them fails here.
    assert report["spans"]["graphs.enumerate_graphs"][0] == 4
    assert report["spans"]["graphs.canonical_form"][0] == 107


@pytest.mark.parametrize("name", ["sweep5_k2", "classify6_k2"])
def test_every_expected_span_is_called(name):
    # A traced benchmark run is correct only if every span its workload
    # expects sees a call. classify6_k2 runs one seeded G(6, 1/2) graph
    # through both of its commands, as the benchmark does.
    workload = _load("workloads").WORKLOADS[name]
    op = workload.make_ops(seed=11)[0]
    spans = _traced_commands(op.argvs)["spans"]
    assert [span for span in workload.expected_spans if not spans[span][0]] == []


def test_traced_k4_sweep_spans_are_pinned():
    # sweep5_k4 expects these spans; an int rewrite that stopped calling the
    # reducer would leave the benchmark's RowReducer.add span empty.
    spans = _traced_sweep(4)["spans"]
    assert spans["basis.structure_constants"][0] == 33
    # 43 rows reduced by the witness search, which reduces only the brackets
    # of each tried y's multidegree, and none by the certifiers, which keep
    # only the rows joined to y's columns and find none on these witnesses;
    # the basis stores its kept rows through RowReducer.store, once per
    # support type, never through add
    assert spans["linalg.RowReducer.add"][0] == 43
    for name in (
        "linalg.RowReducer.add",
        "basis.graded_basis",
        "rigidity.find_witness",
        "rigidity.certify_graded_witness",
    ):
        assert spans[name][0] >= 1, name


def test_traced_enumerate_spans_are_pinned():
    # enumerate6 expects these spans. One canonical form for the one-vertex
    # graph, then one per accepted child or tie-breaking deletion:
    # 1 + 2 + 4 + 16 + 51 + 275 (783, one per twin-prefix child, before
    # canonical deletion), each through the module global, so a rewrite
    # around it fails here.
    report = _traced("graphs", "enumerate", "--n", "6")
    assert report["spans"]["graphs.enumerate_graphs"][0] == 1
    assert report["spans"]["graphs.canonical_form"][0] == 349
    assert report["counts"]["graphs.classes"] == 156
