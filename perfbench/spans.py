"""Outside-in spans around graphlie's public functions.

Installed in a benchmark child process before any command runs. Each target
is replaced at every module attribute it is bound to (h2_nil, for example,
is bound in cohomology, rigidity, cli and the package itself), and methods
are replaced on their class. A span's self time is its duration minus the
durations of the spans it directly encloses; the process is single
threaded, so those never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

TARGETS = (
    "graphs.canonical_form",
    "graphs.enumerate_graphs",
    "basis.graded_basis",
    "basis.structure_constants",
    "basis.dimension_oracle",
    "linalg.RowReducer.add",
    "linalg.RatMatrix.matmul",
    "liealg.lower_central_series",
    "liealg.center",
    "cohomology.delta1_matrix",
    "cohomology.delta2_matrix",
    "cohomology.eta2_matrix",
    "cohomology.h2_nil",
    "rigidity.find_witness",
    "rigidity.classify",
    "rigidity.certify_2step_witness",
    "rigidity.certify_graded_witness",
    "cli.run_command",
    "cli.write_report",
)


def lyndon_count(m: int, k: int) -> int:
    """Lyndon words of length 1..k over m letters (Witt's formula)."""
    total = 0
    for n in range(1, k + 1):
        acc = 0
        for d in range(1, n + 1):
            if n % d == 0:
                acc += _mobius(d) * m ** (n // d)
        total += acc // n
    return total


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


class Tracer:
    """Per-span [calls, total seconds, child seconds] plus counters read off results."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in TARGETS}
        self.counts = Counter()
        self._stack = []
        self._sc_keys = set()
        self._hooks = {
            "linalg.RowReducer.add": self._on_add,
            "cohomology.delta1_matrix": self._on_matrix,
            "cohomology.delta2_matrix": self._on_delta2,
            "cohomology.eta2_matrix": self._on_matrix,
            "graphs.enumerate_graphs": self._on_enumerate,
            "basis.structure_constants": self._on_structure_constants,
            "basis.graded_basis": self._on_graded_basis,
            "rigidity.find_witness": self._on_find_witness,
        }

    def install(self) -> None:
        """Wrap every target; a target the program no longer has keeps zero calls."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "graphlie"]
        for name in TARGETS:
            module_name, attr = name.split(".", 1)
            owner = importlib.import_module("graphlie." + module_name)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            if cls_name:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        record = self.spans[name]
        stack = self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                record[0] += 1
                record[1] += duration
                record[2] += stack.pop()
                if stack:
                    stack[-1] += duration
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _on_add(self, args, kept):
        self.counts["linalg.RowReducer.kept"] += bool(kept)

    def _on_matrix(self, args, matrix):
        self.counts["cohomology.matrix_nnz"] += len(matrix.entries)

    def _on_delta2(self, args, matrix):
        self._on_matrix(args, matrix)
        self.counts["cohomology.cochain_cols"] += matrix.cols

    def _on_enumerate(self, args, graphs):
        self.counts["graphs.classes"] += len(graphs)

    def _on_structure_constants(self, args, algebra):
        key = args[:2]
        self.counts["basis.structure_constants.repeats"] += key in self._sc_keys
        self._sc_keys.add(key)

    def _on_graded_basis(self, args, basis):
        self.counts["basis.kept"] += len(basis.elements)
        self.counts["basis.candidates"] += lyndon_count(basis.graph.m, basis.k)

    def _on_find_witness(self, args, witness):
        self.counts["rigidity.witnesses"] += witness is not None

    def report(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}
