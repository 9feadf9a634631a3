"""End-to-end acceptance checks.

Each test prints one [acceptance] PASS/FAIL line (straight to the real
stdout, past any capture) and enforces a wall-clock budget where the
computation is sizable. All comparisons are exact; there are no numeric
tolerances anywhere.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from graphlie.basis import dimension_oracle, graded_basis, structure_constants
from graphlie.cohomology import h2_nil
from graphlie.graphs import (
    SimpleGraph,
    canonical_form,
    enumerate_graphs,
    from_graph6,
    graph_from_canonical,
    to_graph6,
)
from graphlie.liealg import jacobi_report, lower_central_series
from graphlie.linalg import frac
from graphlie.rigidity import (
    DeformedAlgebra,
    build_sigma,
    deform_check,
    find_witness,
    sweep,
)
from oracles import adjacent, complex_identity_holds, grading_support_check, trace_normal_form

STAR = SimpleGraph.make(3, [(1, 2), (1, 3)])

_cache: dict = {}

# one line per criterion; echoed by the conftest terminal-summary hook
ANNOUNCEMENTS: list = []


def _announce(num: int, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {num:>2}: {status}{suffix}"
    ANNOUNCEMENTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def _criterion(num: int, detail_holder: list | None = None):
    try:
        yield
    except BaseException:
        _announce(num, False)
        raise
    detail = detail_holder[0] if detail_holder else ""
    _announce(num, True, detail)


def _rep(graph: SimpleGraph) -> str:
    return to_graph6(graph_from_canonical(graph.m, canonical_form(graph)))


def _construction_summaries():
    """grading and invariant flags of every class with m <= 5, k <= 4."""
    if "summaries" not in _cache:
        t0 = time.perf_counter()
        rows = []
        for m in range(1, 6):
            for graph in enumerate_graphs(m):
                for k in range(1, 5):
                    alg = structure_constants(graph, k)
                    rows.append(
                        (
                            graph,
                            k,
                            alg.grading,
                            tuple(dimension_oracle(graph, k)),
                            jacobi_report(alg) == [],
                            grading_support_check(alg),
                        )
                    )
        _cache["summaries"] = rows
        _cache["summaries_time"] = time.perf_counter() - t0
    return _cache["summaries"]


def _sweep(n_max: int, k: int):
    key = (n_max, k)
    if key not in _cache:
        t0 = time.perf_counter()
        rows = list(sweep(n_max, k))
        _cache[key] = rows
        _cache[key, "time"] = time.perf_counter() - t0
    return _cache[key]


def _graded_witnesses(k: int):
    """(graph, certificate) for every non-complete class without isolated
    vertices and with an edge, 3 <= m <= 5."""
    if ("graded", k) not in _cache:
        found = []
        none_for = []
        for m in range(3, 6):
            for graph in enumerate_graphs(m):
                alg = structure_constants(graph, k)
                if graph.is_complete():
                    none_for.append(find_witness(graph, alg, k))
                    continue
                if not all(graph.adj):  # no edge, or an isolated vertex
                    continue
                found.append((graph, find_witness(graph, alg, k)))
        _cache[("graded", k)] = (found, none_for)
    return _cache[("graded", k)]


def test_criterion_01_running_example_dimensions():
    detail = [""]
    with _criterion(1, detail):
        t0 = time.perf_counter()
        gb = graded_basis(STAR, 4)
        elapsed = time.perf_counter() - t0
        assert gb.dims == (3, 2, 5, 10)
        assert elapsed < 1.0
        detail[0] = f"dims {gb.dims}, {elapsed:.3f} s"


def test_criterion_02_degree_four_multidegrees():
    with _criterion(2):
        gb = graded_basis(STAR, 4)
        expected = sorted(
            [
                (3, 1, 0), (3, 0, 1), (1, 3, 0), (1, 2, 1), (1, 1, 2),
                (1, 0, 3), (2, 2, 0), (2, 1, 1), (2, 1, 1), (2, 0, 2),
            ]
        )
        assert sorted(e.multidegree for e in gb.elements if e.degree == 4) == expected


def test_criterion_03_dimension_oracle_agreement():
    detail = [""]
    with _criterion(3, detail):
        rows = _construction_summaries()
        assert len(rows) == 52 * 4
        for graph, k, grading, oracle, _, _ in rows:
            assert grading == oracle, (to_graph6(graph), k)
        elapsed = _cache["summaries_time"]
        assert elapsed < 300.0
        detail[0] = f"{len(rows)} constructions, {elapsed:.1f} s"


def test_criterion_04_structural_invariants():
    detail = [""]
    with _criterion(4, detail):
        rows = _construction_summaries()
        for graph, k, _, _, jacobi_ok, support_ok in rows:
            assert jacobi_ok, (to_graph6(graph), k)
            assert support_ok, (to_graph6(graph), k)
        detail[0] = f"{len(rows)} algebras"


def test_criterion_05_cohomology_vanishing():
    detail = [""]
    with _criterion(5, detail):
        times = []
        for edges in ([(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2), (3, 4)]):
            graph = SimpleGraph.make(4, edges)
            t0 = time.perf_counter()
            report = h2_nil(structure_constants(graph, 2))
            elapsed = time.perf_counter() - t0
            assert report.h2_dim == 0
            assert elapsed < 10.0
            times.append(elapsed)
        detail[0] = f"{times[0]:.2f} s and {times[1]:.2f} s"


def test_criterion_06_four_vertex_classification():
    detail = [""]
    with _criterion(6, detail):
        rows = _sweep(4, 2)
        assert len(rows) == 17
        assert all(row["verdict"] != "unknown" for row in rows)
        expected_rigid = {
            _rep(SimpleGraph.make(2, [])),
            _rep(SimpleGraph.make(2, [(1, 2)])),
            _rep(SimpleGraph.make(3, [(1, 2)])),
            _rep(SimpleGraph.make(3, [(1, 2), (2, 3)])),
            _rep(SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])),
            _rep(SimpleGraph.make(4, [(1, 2), (3, 4)])),
            _rep(SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])),
            _rep(SimpleGraph.make(4, list(combinations(range(1, 5), 2)))),
        }
        rigid = {row["graph6"] for row in rows if row["verdict"] == "rigid"}
        assert rigid == expected_rigid
        detail[0] = f"{len(rigid)} rigid of {len(rows)} classes"


def test_criterion_07_five_vertex_two_step():
    detail = [""]
    with _criterion(7, detail):
        rows = [row for row in _sweep(5, 2) if row["m"] == 5]
        elapsed = _cache[(5, 2), "time"]
        assert elapsed < 600.0
        assert len(rows) == 34
        k5 = _rep(SimpleGraph.make(5, list(combinations(range(1, 6), 2))))
        witnesses = 0
        for row in rows:
            if row["graph6"] == k5:
                assert row["verdict"] == "rigid"
                continue
            assert row["verdict"] == "not_rigid", row["graph6"]
            kind = row["certificate"]["kind"]
            if kind == "two_step_witness":
                witnesses += 1
            else:
                assert kind in ("abelian", "abelian_factor"), row["graph6"]
        assert witnesses == 22
        detail[0] = f"22 computed witnesses, {elapsed:.1f} s"


def test_criterion_08_graded_witness_shape():
    detail = [""]
    with _criterion(8, detail):
        total = 0
        for k in (3, 4):
            found, none_for = _graded_witnesses(k)
            assert all(w is None for w in none_for)
            assert len(found) == 29
            for graph, cert in found:
                assert cert is not None, (to_graph6(graph), k)
                assert cert["kind"] == "graded_witness"
                shape = sorted(cert["y_multidegree"], reverse=True)
                assert shape[0] == k - 1 and shape[1] == 1
                assert all(c == 0 for c in shape[2:])
                total += 1
        detail[0] = f"{total} witnesses across both steps"


def _verify_deformation(graph, k, a1, a2, y_strs):
    alg = structure_constants(graph, k)
    y = [frac(c) for c in y_strs]
    sigma = build_sigma(alg, a1, a2, y)
    deformed = DeformedAlgebra(alg, sigma)
    assert deform_check(deformed), (to_graph6(graph), k)
    base_dims = [s.rank for s in lower_central_series(alg)]
    moved = deformed.at_t(1)
    assert [s.rank for s in lower_central_series(moved)] == base_dims, (to_graph6(graph), k)


def test_criterion_09_deformation_validity():
    detail = [""]
    with _criterion(9, detail):
        # each class once: the 4-sweep in full, plus the 5-vertex rows
        rows = list(_sweep(4, 2)) + [r for r in _sweep(5, 2) if r["m"] == 5]
        checked = 0
        for row in rows:
            cert = row["certificate"]
            if cert["kind"] != "two_step_witness":
                continue
            graph = from_graph6(row["graph6"])
            _verify_deformation(graph, 2, cert["v_index"], cert["w_index"], cert["z"])
            checked += 1
        for k in (3, 4):
            found, _ = _graded_witnesses(k)
            for graph, cert in found:
                _verify_deformation(graph, k, cert["a1_index"], cert["a2_index"], cert["y"])
                checked += 1
        assert checked == 4 + 22 + 29 + 29
        detail[0] = f"{checked} deformations verified through t=1"


def test_criterion_10_cochain_complex_properties():
    detail = [""]
    with _criterion(10, detail):
        rows = _sweep(5, 2)
        # ker eta2 <= ker delta2 (a theorem, see graphlie.cohomology): in every
        # k = 2 row, live and golden, the flag holds and the meet is ker eta2
        data = Path(__file__).parent / "data"
        golden = json.loads((data / "sweep_n5_k2.json").read_text())
        reports = [row["h2"] for row in rows + golden if "h2" in row]
        reports.append(json.loads((data / "h2nil_c4.json").read_text()))
        assert all(row["k"] == 2 and "h2" in row for row in rows + golden)
        for h2 in reports:
            assert h2["eta2_subset_delta2"] is True, h2
            assert h2["dim_intersection"] == h2["dim_ker_eta2"], h2
        checked = 0
        for m in range(2, 6):
            for graph in enumerate_graphs(m):
                alg = structure_constants(graph, 2)
                assert complex_identity_holds(alg), to_graph6(graph)
                h2_nil(alg)  # raises if im delta1 escapes ker eta2
                checked += 1
        assert checked == len(rows)
        detail[0] = f"{checked} algebras, ker eta2 <= ker delta2 on every row"


def test_criterion_11_normal_form_oracle():
    detail = [""]
    with _criterion(11, detail):
        rng = random.Random(1000)
        for trial in range(1000):
            m = rng.randint(1, 5)
            pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
            graph = SimpleGraph.make(m, pairs)
            word = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 6)))
            seen = {word}
            frontier = [word]
            while frontier:
                nxt = []
                for w in frontier:
                    for i in range(len(w) - 1):
                        a, b = w[i], w[i + 1]
                        if a != b and not adjacent(graph, a, b):
                            swapped = w[:i] + (b, a) + w[i + 2:]
                            if swapped not in seen:
                                seen.add(swapped)
                                nxt.append(swapped)
                frontier = nxt
            assert trace_normal_form(word, graph) == min(seen), (word, pairs, trial)
        detail[0] = "1000 random words"
