"""The benchmark's outside-in spans must still find what they wrap.

perfbench/spans.py wraps graphlie functions by name and reads the entries
and column count of the cochain matrices. A rename would leave a span with
zero calls, so every target is checked here against the current package.
"""

import importlib
import importlib.util
from pathlib import Path

from graphlie.basis import structure_constants
from graphlie.cohomology import delta1_matrix, delta2_matrix, eta2_matrix
from graphlie.graphs import SimpleGraph

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("graphlie_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_a_callable():
    targets = _load_spans().TARGETS
    assert targets
    for name in targets:
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module("graphlie." + module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name


def test_cochain_matrices_keep_the_fields_the_spans_read():
    algebra = structure_constants(SimpleGraph.make(3, [(1, 2), (1, 3)]), 2)
    for build in (delta1_matrix, delta2_matrix, eta2_matrix):
        matrix = build(algebra)
        assert isinstance(matrix.cols, int) and matrix.cols > 0
        assert len(matrix.entries) > 0
