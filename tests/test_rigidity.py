import json
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from graphlie.basis import _support_type, graded_basis, structure_constants
from graphlie.cohomology import H2Report, h2_nil
from graphlie.errors import InternalInvariantError
from graphlie.graphs import SimpleGraph, enumerate_graphs, from_graph6, to_graph6
from graphlie.liealg import (
    BasisLabel,
    GradedLieAlgebra,
    LieAlgebra,
    center,
    jacobi_report,
    lower_central_series,
)
from graphlie.linalg import ONE, ZERO, RowReducer, frac, vec_to_dict
from graphlie.rigidity import (
    DeformCheckResult,
    DeformationCocycle,
    DeformedAlgebra,
    RigidityVerdict,
    algebra_dim,
    build_sigma,
    certify_2step_witness,
    certify_graded_witness,
    classify,
    deform_check,
    find_witness,
    sweep,
)
from oracles import adjacent, apply_sparse, deform_violation, edge_set, two_step_witness_scan

STAR = SimpleGraph.make(3, [(1, 2), (1, 3)])
K2 = SimpleGraph.make(2, [(1, 2)])
K3 = SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])
P4 = SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4)])
C4 = SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
K2_PLUS_POINT = SimpleGraph.make(3, [(1, 2)])

STAR3_WITNESS = {
    "kind": "graded_witness",
    "a1": "v2",
    "a2": "v3",
    "a1_index": 1,
    "a2_index": 2,
    "y_index": 5,
    "y_label": "[v1,[v1,v2]]",
    "y_multidegree": [2, 1, 0],
    "y": ["0/1"] * 5 + ["1/1"] + ["0/1"] * 4,
}

P4_WITNESS = {
    "kind": "two_step_witness",
    "v": "v1",
    "w": "v4",
    "v_index": 0,
    "w_index": 3,
    "z_label": "[v2,v3]",
    "z": ["0/1"] * 5 + ["1/1"] + ["0/1"],
}


def _unit(n, i):
    out = [ZERO] * n
    out[i] = ONE
    return out


def test_build_sigma_and_apply():
    alg = structure_constants(STAR, 3)
    y = _unit(alg.n, 5)
    sigma = build_sigma(alg, 1, 2, y)
    assert apply_sparse(sigma, {1: ONE}, {2: ONE}) == {5: ONE}
    assert apply_sparse(sigma, {2: ONE}, {1: ONE}) == {5: -ONE}
    assert apply_sparse(sigma, {1: ONE}, {1: ONE}) == {}
    assert apply_sparse(sigma, {0: ONE}, {3: ONE}) == {}
    scaled = apply_sparse(sigma, {1: Fraction(2)}, {2: Fraction(3), 1: ONE})
    assert scaled == {5: Fraction(6)}


def test_build_sigma_errors():
    alg = structure_constants(STAR, 3)
    y = _unit(alg.n, 5)
    with pytest.raises(ValueError):
        build_sigma(alg, 1, 1, y)
    with pytest.raises(ValueError):
        build_sigma(alg, 1, 3, y)  # index 3 has degree 2
    with pytest.raises(ValueError):
        build_sigma(alg, 1, 2, y[:-1])
    with pytest.raises(ValueError):
        build_sigma(alg, 1, 2, _unit(alg.n, 0))  # v1 does not centralize
    with pytest.raises(ValueError):
        build_sigma(LieAlgebra(3, {(0, 1): {2: 1}}), 0, 1, _unit(3, 2))


def test_build_sigma_rejects_nonclosed_complement():
    # a1 = e0, a2 = e1; y = e4 centralizes e2, e3, but [e2, e3] reaches a1, then a2
    for target in (0, 1):
        alg = GradedLieAlgebra(5, {(2, 3): {target: 1, 4: 1}}, (4, 1))
        with pytest.raises(ValueError, match="the complementary span is not a subalgebra"):
            build_sigma(alg, 0, 1, _unit(5, 4))
        closed = GradedLieAlgebra(5, {(2, 3): {4: 1}, (0, 2): {target: 1}}, (4, 1))
        assert build_sigma(closed, 0, 1, _unit(5, 4)) == DeformationCocycle(5, 0, 1, tuple(_unit(5, 4)))


def test_deform_check_accepts_witness():
    alg = structure_constants(STAR, 3)
    sigma = build_sigma(alg, 1, 2, _unit(alg.n, 5))
    deformed = DeformedAlgebra(alg, sigma)
    assert deform_check(deformed)
    assert deform_violation(deformed) is None
    assert jacobi_report(deformed.at_t(1)) == []
    assert jacobi_report(deformed.at_t(Fraction(-2, 3))) == []


def test_deform_check_heisenberg_inner_direction():
    # sigma(v1, v2) = v1 on the heisenberg algebra gives a solvable family
    alg = structure_constants(K2, 2)
    sigma = build_sigma(alg, 0, 1, _unit(3, 0))
    deformed = DeformedAlgebra(alg, sigma)
    assert deform_check(deformed)
    assert jacobi_report(deformed.at_t(1)) == []


def test_deform_check_detects_broken_cocycle():
    alg = structure_constants(C4, 2)
    # v1, v2 adjacent and y of degree 1: not a valid deformation direction
    sigma = DeformationCocycle(alg.n, 0, 1, tuple(_unit(alg.n, 2)))
    deformed = DeformedAlgebra(alg, sigma)
    result = deform_check(deformed)
    assert not result
    assert result.violation is not None
    broken = jacobi_report(deformed.at_t(1)) or jacobi_report(deformed.at_t(2))
    assert broken


def test_pruned_check_matches_exhaustive():
    rng = random.Random(97)
    for _ in range(30):
        m = rng.randint(2, 4)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
        alg = structure_constants(SimpleGraph.make(m, pairs), rng.randint(2, 3))
        # a pair of higher degree is hit by brackets, so mu and sigma compose
        a1, a2 = rng.sample(range(rng.choice((m, alg.n))), 2)
        y = [Fraction(rng.randint(-2, 2)) for _ in range(alg.n)]
        deformed = DeformedAlgebra(alg, DeformationCocycle(alg.n, a1, a2, tuple(y)))
        result, violation = deform_check(deformed), deform_violation(deformed)
        assert (result.ok, result.violation) == (violation is None, violation)


def test_at_t_materialization():
    base = LieAlgebra(3, {})
    sigma = DeformationCocycle(3, 1, 0, (ZERO, ZERO, ONE))
    deformed = DeformedAlgebra(base, sigma)
    assert deformed.at_t(0).sc == {}
    # sigma(e0, e1) = -y, so the stored pair (0, 1) picks up the flipped sign
    assert deformed.at_t(1).sc == {(0, 1): {2: -ONE}}
    assert deformed.at_t("1/2").sc == {(0, 1): {2: Fraction(-1, 2)}}


def test_certify_graded_witness():
    alg = structure_constants(STAR, 3)
    assert certify_graded_witness(alg, 1, 2, _unit(alg.n, 5))
    assert not certify_graded_witness(alg, 0, 1, _unit(alg.n, 5))  # adjacent pair
    assert not certify_graded_witness(alg, 1, 2, _unit(alg.n, 3))  # degree 2
    assert not certify_graded_witness(alg, 1, 2, [ZERO] * alg.n)
    blocked = [ZERO] * alg.n
    for l, c in alg.bracket_basis(1, 3).items():  # [v2, [v1,v2]]
        blocked[l] = c
    assert any(blocked)
    assert not certify_graded_witness(alg, 1, 2, blocked)


def test_certify_graded_witness_guards():
    two_step = structure_constants(STAR, 2)
    with pytest.raises(ValueError):
        certify_graded_witness(two_step, 1, 2, _unit(two_step.n, 3))
    alg = structure_constants(STAR, 3)
    with pytest.raises(ValueError):
        certify_graded_witness(alg, 1, 1, _unit(alg.n, 5))
    with pytest.raises(ValueError):
        certify_graded_witness(alg, 1, 5, _unit(alg.n, 5))
    with pytest.raises(ValueError):
        certify_graded_witness(LieAlgebra(3, {}), 0, 1, _unit(3, 2))


def test_certify_2step_witness():
    alg = structure_constants(P4, 2)
    z = certify_2step_witness(alg, _unit(alg.n, 0), _unit(alg.n, 3))
    assert z == _unit(alg.n, 5)
    # adjacent vertices bracket to something nonzero
    assert certify_2step_witness(alg, _unit(alg.n, 0), _unit(alg.n, 1)) is None
    rigid = structure_constants(C4, 2)
    for (u, w) in C4.nonedges():
        vec_u, vec_w = _unit(rigid.n, u - 1), _unit(rigid.n, w - 1)
        assert certify_2step_witness(rigid, vec_u, vec_w) is None


def test_certify_2step_witness_guards():
    alg = structure_constants(P4, 2)
    with pytest.raises(ValueError):
        certify_2step_witness(structure_constants(K2, 3), _unit(5, 0), _unit(5, 1))
    with pytest.raises(ValueError):
        certify_2step_witness(alg, _unit(alg.n, 0), _unit(alg.n, 0))
    with pytest.raises(ValueError):
        certify_2step_witness(alg, _unit(alg.n, 0), _unit(alg.n, 4))  # central
    with pytest.raises(ValueError):
        certify_2step_witness(alg, _unit(alg.n, 0), [ONE])


def test_find_witness_star_k3():
    alg = structure_constants(STAR, 3)
    assert find_witness(STAR, alg, 3) == STAR3_WITNESS


def test_find_witness_p4_k2():
    alg = structure_constants(P4, 2)
    assert find_witness(P4, alg, 2) == P4_WITNESS


def test_find_witness_none_cases():
    assert find_witness(K3, structure_constants(K3, 2), 2) is None
    assert find_witness(K3, structure_constants(K3, 3), 3) is None
    assert find_witness(C4, structure_constants(C4, 2), 2) is None
    edgeless = SimpleGraph.make(3, [])
    assert find_witness(edgeless, structure_constants(edgeless, 2), 2) is None


def test_find_witness_guards():
    alg = structure_constants(STAR, 3)
    with pytest.raises(ValueError):
        find_witness(STAR, alg, 2)
    with pytest.raises(ValueError):
        find_witness(STAR, structure_constants(STAR, 1), 1)


def test_find_witness_prefers_shaped_multidegree():
    for graph in (STAR, P4, SimpleGraph.make(4, [(1, 2), (3, 4)])):
        for k in (3, 4):
            alg = structure_constants(graph, k)
            cert = find_witness(graph, alg, k)
            assert cert is not None
            shape = sorted(cert["y_multidegree"], reverse=True)
            assert shape[:2] == [k - 1, 1]
            assert all(c == 0 for c in shape[2:])


def test_graded_witness_sits_at_the_first_non_edge():
    # the paper's construction: y = ad_u^{k-1} w for an edge u - w with u
    # outside the first sorted non-edge, on every class with an edge and a
    # non-edge, isolated vertices included
    checked = 0
    for k, top in ((3, 6), (4, 6), (5, 5)):
        for m in range(3, top + 1):
            for graph in enumerate_graphs(m):
                nonadj = sorted(graph.nonedges())
                if not edge_set(graph) or not nonadj:
                    continue
                cert = find_witness(graph, structure_constants(graph, k), k)
                pair = nonadj[0]
                assert (cert["a1"], cert["a2"]) == (f"v{pair[0]}", f"v{pair[1]}")
                md = cert["y_multidegree"]
                u, w = md.index(k - 1) + 1, md.index(1) + 1
                assert sum(md) == k and u not in pair, (to_graph6(graph), k)
                assert adjacent(graph, u, w), (to_graph6(graph), k)
                checked += 1
    assert checked == 437


def test_first_non_edge_without_a_witness_names_graph_k_and_phase(monkeypatch):
    import graphlie.rigidity as rigidity

    class Blocking(rigidity.RowReducer):
        def contains(self, row):
            return True

    monkeypatch.setattr(rigidity, "RowReducer", Blocking)
    with pytest.raises(InternalInvariantError) as caught:
        find_witness(STAR, structure_constants(STAR, 3), 3)
    assert str(caught.value) == (
        "the first non-edge has no witness of multidegree (k-1, 1) "
        "(graph6 Bo, k = 3, phase: graded witness search at the first non-edge)"
    )


def _outcome(search):
    try:
        return search()
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_two_step_pair_prediction_matches_the_scan(monkeypatch):
    # find_witness certifies only the predicted pair; the oracle certifies
    # every sorted non-edge in turn. They agree on every class of 2..6
    # vertices and on labelled graphs with isolated vertices, where the
    # first non-edge may hold a central vertex (a ValueError).
    import graphlie.rigidity as rigidity

    graphs = [g for m in range(2, 7) for g in enumerate_graphs(m)]
    rng = random.Random(20261019)
    for _ in range(100):
        m = rng.randint(3, 7)
        graphs.append(
            SimpleGraph.make(m, [e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.5])
        )
    calls = []
    certify = rigidity.certify_2step_witness
    monkeypatch.setattr(
        rigidity, "certify_2step_witness", lambda *args: calls.append(1) or certify(*args)
    )
    kinds = []
    for graph in graphs:
        alg = structure_constants(graph, 2)
        del calls[:]
        got = _outcome(lambda: find_witness(graph, alg, 2))
        assert got == _outcome(lambda: two_step_witness_scan(graph, alg)), edge_set(graph)
        kind = "none" if got is None else got[0] if isinstance(got, tuple) else "witness"
        assert len(calls) == (kind != "none"), edge_set(graph)  # one certificate per answer
        kinds.append(kind)
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "witness": 220, "none": 26, "ValueError": 61
    }


# K2-K7, P3, 2K2 and C4: the graphs with no isolated vertex on <= 7 vertices
# whose every edge meets every non-edge pair
K2_LIST = ["A_", "BW", "Bw", "CK", "C]", "C~", "D~{", "E~~w", "F~~~w"]


def _type_a(graph) -> int:
    """The sum over the non-edges ab of |E| - deg a - deg b, the edges that avoid a and b."""
    adj = graph.adj
    edges = sum(map(int.bit_count, adj)) // 2
    return sum(
        edges - adj[a].bit_count() - adj[b].bit_count()
        for a, b in combinations(range(graph.m), 2) if not adj[a] >> b & 1
    )


def test_every_edge_meets_every_non_edge_only_on_the_k2_list():
    """The paper's k = 2 list, checked on the masks.

    Lemma: with no isolated vertex, every edge meets every non-edge pair
    exactly when G is complete, P3, 2K2 or C4. Sketch: let {a, b} be a
    non-edge that every edge meets. Then the other m - 2 vertices are
    pairwise non-adjacent. If m >= 5, take three of them, c, d and e: the
    pair {c, d} is a non-edge, and e's edge goes to a or b, so it misses
    {c, d}. So m <= 4, and what is left is a finite check.

    Each type-A term counts the edges that avoid a non-edge, so the sum is 0
    exactly when every edge meets every non-edge; find_witness at k = 2
    looks for the first non-edge that some edge avoids, so it finds none
    exactly on the list.
    """
    classes = [graph for m in range(2, 8) for graph in enumerate_graphs(m) if 0 not in graph.adj]
    assert len(classes) == 1043
    assert [to_graph6(graph) for graph in classes if _type_a(graph) == 0] == K2_LIST
    no_witness = [
        to_graph6(graph) for graph in classes
        if graph.m <= 6 and find_witness(graph, structure_constants(graph, 2), 2) is None
    ]
    assert no_witness == K2_LIST[:-1]  # K7 has 7 vertices


def test_the_nine_vertex_record_meets_the_lemma_only_on_k9():
    # tests/data/k2_lemma_n9.json is a recorded run of the type-A sum over
    # every class on 9 vertices, too slow for this suite; it read the same
    # classes that enumerate_n9.json records, and only K9 is on the list there.
    data = Path(__file__).resolve().parent / "data"
    record = json.loads((data / "k2_lemma_n9.json").read_text())
    classes = json.loads((data / "enumerate_n9.json").read_text())
    assert (record["classes"], record["classes_sha256"]) == (classes["lines"], classes["sha256"])
    assert (record["m"], record["classes"], record["no_isolated_vertex"]) == (9, 274668, 262322)
    k9 = to_graph6(SimpleGraph.make(9, list(combinations(range(1, 10), 2))))
    assert record["type_a_zero"] == [k9] == ["H~~~~~~"]
    assert record["type_b_where_type_a_zero"] == {k9: 0}


def test_an_undecided_graph_raises_instead_of_a_third_verdict(monkeypatch):
    # P4 has h2 = 1 at k = 2, so with no witness nothing decides it
    import graphlie.rigidity as rigidity

    p4 = from_graph6("Ch")
    assert h2_nil(structure_constants(p4, 2)).h2_dim == 1
    monkeypatch.setattr(rigidity, "find_witness", lambda *args: None)
    with pytest.raises(InternalInvariantError) as caught:
        classify(p4, 2)
    assert re.search(r"\(graph6 Ch, k = 2, phase: [^()]+\)$", str(caught.value))


def test_refused_predicted_pair_names_graph_k_and_phase(monkeypatch):
    import graphlie.rigidity as rigidity

    monkeypatch.setattr(rigidity, "certify_2step_witness", lambda *args: None)
    with pytest.raises(InternalInvariantError) as caught:
        classify(from_graph6("CF"), 2)  # K1,3: edge v3 - v4 avoids the pair (v1, v2)
    assert str(caught.value) == (
        "the certifier refuses the predicted pair (v1, v2) "
        "(graph6 CF, k = 2, phase: two-step witness certificate)"
    )


def test_classify_fixed_verdicts():
    a2 = SimpleGraph.make(2, [])
    for k in (2, 3, 4):
        v = classify(a2, k)
        assert v.verdict == "rigid"
        assert v.certificate["name"] == "abelian plane, low-dimensional classification"
    v = classify(SimpleGraph.make(3, []), 2)
    assert v.verdict == "not_rigid" and v.certificate == {"kind": "abelian", "m": 3}
    v = classify(K2_PLUS_POINT, 2)
    assert v.verdict == "rigid"
    assert v.certificate["name"] == "heisenberg plus line exception"
    v = classify(K2_PLUS_POINT, 3)
    assert v.verdict == "not_rigid"
    assert v.certificate == {"kind": "abelian_factor", "isolated": [3]}
    v = classify(STAR, 2)
    assert v.verdict == "rigid" and v.certificate == {"kind": "h2_nil_zero"}
    assert v.h2 is not None and v.h2.h2_dim == 0
    v = classify(STAR, 3)
    assert v.verdict == "not_rigid" and v.certificate == STAR3_WITNESS
    v = classify(C4, 2)
    assert v.verdict == "rigid" and v.certificate == {"kind": "h2_nil_zero"}
    v = classify(P4, 2)
    assert v.verdict == "not_rigid" and v.certificate == P4_WITNESS
    v = classify(K3, 3)
    assert v.verdict == "rigid"
    assert v.certificate["name"] == "free k-step nilpotent"


def test_with_cohomology_attaches_h2_to_every_k2_verdict():
    # shortcut verdicts included; without it only an undecided search computes h2
    for graph in (SimpleGraph.make(2, []), SimpleGraph.make(3, []), K2_PLUS_POINT, P4, C4):
        plain, full = classify(graph, 2), classify(graph, 2, with_cohomology=True)
        assert full.h2 is not None
        assert (full.verdict, full.certificate) == (plain.verdict, plain.certificate)
        assert plain.h2 in (None, full.h2)
    assert classify(SimpleGraph.make(3, []), 2).h2 is None
    assert classify(STAR, 3, with_cohomology=True).h2 is None


def test_classify_guards():
    with pytest.raises(ValueError):
        classify(SimpleGraph.make(1, []), 2)
    with pytest.raises(ValueError):
        classify(K2, 1)


def _relabel(graph, perm):
    return SimpleGraph.make(graph.m, [(perm[a], perm[b]) for a, b in edge_set(graph)])


def test_classify_is_isomorphism_invariant():
    rng = random.Random(61)
    for _ in range(20):
        m = rng.randint(2, 4)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
        graph = SimpleGraph.make(m, pairs)
        perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
        for k in (2, 3):
            assert classify(graph, k).verdict == classify(_relabel(graph, perm), k).verdict


def test_verdict_json():
    v = classify(STAR, 2)
    data = v.to_json_dict()
    assert data["verdict"] == "rigid"
    assert data["certificate"] == {"kind": "h2_nil_zero"}
    assert data["h2"]["h2_dim"] == 0
    v = classify(K3, 3)
    assert "h2" not in v.to_json_dict()


def test_records_are_immutable_values():
    alg = structure_constants(STAR, 3)
    sigma = build_sigma(alg, 1, 2, _unit(alg.n, 5))
    report = h2_nil(structure_constants(P4, 2))
    verdict = classify(P4, 2, with_cohomology=True)
    h2_keys = ("dim_ker_eta2", "dim_ker_delta2", "dim_intersection", "dim_im_delta1", "h2_dim",
               "eta2_subset_delta2")
    records = [
        (STAR, ("m", "adj")),
        (alg.labels[0], ("label", "degree", "multidegree")),
        (_support_type(STAR.adj, 3), ("made", "kept", "brackets")),
        (report, h2_keys),
        (sigma, ("n", "a1", "a2", "y")),
        (DeformedAlgebra(alg, sigma), ("base", "cocycle")),
        (deform_check(DeformedAlgebra(alg, sigma)), ("ok", "violation")),
        (verdict, ("verdict", "certificate", "h2", "dim")),
    ]
    for record, fields in records:
        assert type(record)._fields == fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    twins = [
        (from_graph6(to_graph6(P4)), SimpleGraph.make(4, [(3, 4), (1, 2), (2, 3)])),
        (alg.labels[3], BasisLabel(alg.labels[3].label, 2, alg.labels[3].multidegree)),
        (sigma, DeformationCocycle(alg.n, 1, 2, tuple(_unit(alg.n, 5)))),
        (report, h2_nil(structure_constants(P4, 2))),
    ]
    for a, b in twins:
        assert a is not b and a == b and hash(a) == hash(b)
    assert list(report.to_json_dict().items()) == list(zip(h2_keys, report))
    assert verdict._replace(dim=None) == RigidityVerdict(verdict.verdict, verdict.certificate, verdict.h2)
    unreported = verdict._replace(h2=None).to_json_dict()
    assert unreported == {"verdict": "not_rigid", "certificate": verdict.certificate}
    assert not DeformCheckResult(False, None) and DeformCheckResult(True, None)
    basis = graded_basis(STAR, 3)
    assert basis == basis and basis != graded_basis(STAR, 3)  # equal only to itself


def test_sweep_guards():
    with pytest.raises(ValueError):
        sweep(8, 2)
    with pytest.raises(ValueError):
        sweep(9, 3)
    with pytest.raises(ValueError):
        sweep(1, 2)
    with pytest.raises(ValueError):
        sweep(4, 1)


def test_only_k3_sweeps_eight_vertices():
    for k in (2, 4):
        with pytest.raises(ValueError, match=r"^sweep supports 2\.\.7 vertices, not 8$"):
            sweep(8, k)
    sweep(8, 3)  # checked when called; no class is classified until a row is asked for
    with pytest.raises(ValueError, match=r"^sweep at k = 3 supports 2\.\.8 vertices, not 9$"):
        sweep(9, 3)


def test_sweep_6_3():
    six = [row for row in sweep(6, 3) if row["m"] == 6]
    assert len(six) == 156
    verdicts = [row["verdict"] for row in six]
    assert verdicts.count("not_rigid") == 155
    assert verdicts.count("rigid") == 1


def test_sweep_7_3():
    seven = [row for row in sweep(7, 3) if row["m"] == 7]
    assert len(seven) == 1044
    verdicts = [row["verdict"] for row in seven]
    assert verdicts.count("not_rigid") == 1043
    assert [row["graph6"] for row in seven if row["verdict"] == "rigid"] == ["F~~~w"]


def _relabelled(graph, perm):
    return SimpleGraph.make(graph.m, [(perm[u - 1], perm[v - 1]) for u, v in edge_set(graph)])


def test_k2_verdict_and_h2_survive_relabelling():
    # Relabelling permutes the cochain columns, so the rows peel in another
    # order; nothing that classify reports up to isomorphism may change.
    rng = random.Random(97)
    for _ in range(30):
        m = rng.randint(4, 6)
        graph = SimpleGraph.make(
            m, [e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
        )
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        seen = []
        for g in (graph, _relabelled(graph, perm)):
            verdict = classify(g, 2, with_cohomology=True)
            h2 = verdict.h2.to_json_dict() if verdict.h2 else None
            seen.append((verdict.verdict, verdict.certificate["kind"], algebra_dim(g, 2), h2))
        assert seen[0] == seen[1], (edge_set(graph), perm)


def test_witness_with_zero_h2_names_graph_k_and_phase(monkeypatch):
    import graphlie.rigidity as rigidity

    zero = H2Report(0, 0, 0, 0, 0, True)
    monkeypatch.setattr(rigidity, "h2_nil", lambda algebra: zero)
    star = from_graph6("CF")  # K1,3, not_rigid by a two-step witness
    with pytest.raises(InternalInvariantError) as caught:
        classify(star, 2, with_cohomology=True)
    message = str(caught.value)
    assert "cannot both hold" in message
    assert "graph6 CF," in message
    assert "k = 2" in message and "phase: classify" in message
    # In a sweep the empty graph on three vertices is not_rigid by the
    # abelian shortcut; classify checks that verdict against h2 as well.
    with pytest.raises(InternalInvariantError) as caught:
        list(sweep(3, 2))
    message = str(caught.value)
    assert "cannot both hold" in message
    assert "graph6 B?," in message and "k = 2" in message and "phase: classify" in message


def test_h2_containment_failure_names_graph_k_and_phase(monkeypatch):
    import graphlie.cohomology as cohomology
    from graphlie.linalg import RatMatrix

    def wrong_delta1(algebra, mult=None):
        # a unit entry in every column: eta2 times it is eta2's first columns
        rows, cols = algebra.n * (algebra.n - 1) // 2 * algebra.n, algebra.n * algebra.n
        return RatMatrix(rows, cols, {c % rows: {c: 1} for c in range(cols)})

    monkeypatch.setattr(cohomology, "delta1_matrix", wrong_delta1)
    phase = "phase: h2_nil, containment of im delta1 in ker eta2)"
    with pytest.raises(InternalInvariantError) as caught:
        classify(K3, 2)  # rigid: no witness, so classify needs h2
    message = str(caught.value)
    assert message.startswith("im delta1 is not contained in ker eta2 (graph6 Bw, k = 2, ")
    assert message.endswith(phase) and message.count("phase:") == 1
    # The sweep meets A?, the edgeless pair, first. It is abelian, so eta2 is
    # zero and sees no delta1 entry, but the entry (0, 2) joins the weights
    # (0, -1) and (1, -1), two blocks of equal multiplicity, and h2_nil
    # refuses that by name too.
    with pytest.raises(InternalInvariantError) as caught:
        list(sweep(3, 2))
    assert str(caught.value) == (
        "delta1 entry (0, 2) joins two weight blocks "
        "(graph6 A?, k = 2, phase: h2_nil, weight blocks of delta1)"
    )


def test_witness_certifier_disagreement_names_graph_k_and_phase(monkeypatch):
    import graphlie.rigidity as rigidity

    monkeypatch.setattr(rigidity, "certify_graded_witness", lambda *args: False)
    with pytest.raises(InternalInvariantError) as caught:
        find_witness(STAR, structure_constants(STAR, 3), 3)
    message = str(caught.value)
    assert message.startswith("witness search and certifier disagree")
    assert message.endswith(
        "(graph6 Bo, k = 3, phase: graded witness search against the certifier)"
    )


def test_two_step_certificate_errors_name_graph_k_and_phase(monkeypatch):
    import graphlie.rigidity as rigidity

    class Blind(RowReducer):
        def contains(self, vec):
            return True

    star = from_graph6("CF")  # K1,3, not_rigid by a two-step witness
    phase = "(graph6 CF, k = 2, phase: two-step witness certificate)"
    # a center that misses the brackets of the witness pair
    with monkeypatch.context() as patch:
        patch.setattr(rigidity, "center", lambda algebra: RowReducer())
        with pytest.raises(InternalInvariantError) as caught:
            classify(star, 2)
        assert str(caught.value) == f"bracket image escapes the center {phase}"
        with pytest.raises(InternalInvariantError) as caught:
            list(sweep(4, 2))
        assert str(caught.value).startswith("bracket image escapes the center (graph6 ")
        assert str(caught.value).endswith(", k = 2, phase: two-step witness certificate)")
    # a proper span of the brackets that claims to contain the whole center
    monkeypatch.setattr(rigidity, "RowReducer", Blind)
    with pytest.raises(InternalInvariantError) as caught:
        classify(star, 2)
    assert str(caught.value) == f"proper subspace contains every basis vector {phase}"


def test_sweep_4_2():
    rows = list(sweep(4, 2))
    assert len(rows) == 17
    assert all(row["verdict"] in ("rigid", "not_rigid") for row in rows)
    assert all("h2" in row for row in rows)
    rigid = [row["graph6"] for row in rows if row["verdict"] == "rigid"]
    assert rigid == ["A?", "A_", "BG", "BW", "Bw", "CK", "C]", "C~"]
    for row in rows:
        if row["certificate"].get("kind") == "h2_nil_zero":
            assert row["h2"]["h2_dim"] == 0
        if row["verdict"] == "not_rigid" and "h2" in row:
            assert row["h2"]["h2_dim"] > 0


def test_sweep_witnesses_reverify():
    for row in sweep(4, 2):
        cert = row["certificate"]
        if cert.get("kind") != "two_step_witness":
            continue
        graph = SimpleGraph.make(row["m"], _edges_of_graph6(row["graph6"]))
        alg = structure_constants(graph, 2)
        v = _unit(alg.n, cert["v_index"])
        w = _unit(alg.n, cert["w_index"])
        z = vec_to_dict([frac(c) for c in cert["z"]])
        assert z
        assert alg.bracket_sparse(vec_to_dict(v), vec_to_dict(w)) == {}
        assert center(alg).contains(z)
        rows = []
        for i in range(alg.n):
            for x in (vec_to_dict(v), vec_to_dict(w)):
                out = alg.bracket_sparse(x, {i: ONE})
                if out:
                    rows.append(out)
        assert not RowReducer(rows).contains(z)


def _edges_of_graph6(code):
    return sorted(edge_set(from_graph6(code)))


def test_sweep_graded_witnesses_reverify():
    for row in sweep(4, 3):
        cert = row["certificate"]
        if cert.get("kind") != "graded_witness":
            continue
        graph = SimpleGraph.make(row["m"], _edges_of_graph6(row["graph6"]))
        alg = structure_constants(graph, 3)
        y = [frac(c) for c in cert["y"]]
        assert certify_graded_witness(alg, cert["a1_index"], cert["a2_index"], y)
        sigma = build_sigma(alg, cert["a1_index"], cert["a2_index"], y)
        deformed = DeformedAlgebra(alg, sigma)
        assert deform_check(deformed)
        base_dims = [s.rank for s in lower_central_series(alg)]
        assert [s.rank for s in lower_central_series(deformed.at_t(1))] == base_dims


def test_search_without_the_a1_arm_rows_meets_the_certifier(monkeypatch):
    # Seeded mutation: a search that forgets [a1, g'] takes [v1,[v1,v3]] as
    # a witness, and the certifier, which builds its own span, refuses it.
    import graphlie.rigidity as rigidity

    graph = from_graph6("BW")  # v1 - v3 - v2, so (v1, v2) is the only pair
    a1 = graph.nonedges()[0][0] - 1
    original = rigidity._arm_rows

    def without_a1_arms(graph, algebra, k, mds, arms):
        return original(graph, algebra, k, mds, [a for a in arms if a != a1])

    monkeypatch.setattr(rigidity, "_arm_rows", without_a1_arms)
    with pytest.raises(InternalInvariantError) as caught:
        find_witness(graph, structure_constants(graph, 3), 3)
    assert str(caught.value) == (
        "witness search and certifier disagree "
        "(graph6 BW, k = 3, phase: graded witness search against the certifier)"
    )


def test_search_refuses_a_bracket_spanning_two_multidegrees():
    alg = structure_constants(STAR, 3)
    sc = {pair: dict(terms) for pair, terms in alg.sc.items()}
    # the search reads [v2, g'] and [v3, g'], the arms of the non-edge (v2, v3);
    # [v2,[v1,v2]] gains a term of multidegree (1, 0, 2)
    sc[(1, 3)][9] = 1
    assert alg.labels[9].multidegree != alg.labels[next(iter(alg.sc[(1, 3)]))].multidegree
    bad = GradedLieAlgebra(alg.n, sc, alg.grading, labels=alg.labels)
    with pytest.raises(InternalInvariantError) as caught:
        find_witness(STAR, bad, 3)
    assert str(caught.value) == (
        "a bracket spans more than one multidegree "
        "(graph6 Bo, k = 3, phase: graded witness search by multidegree block)"
    )


def test_certifier_keeps_every_row_when_a_bracket_straddles_the_top_block():
    # Degrees (1, 1, 2, 3, 3), [e2, e3] = e2 + e3 meets degrees 2 and 3 = k
    # at once and [e2, e4] = e2 avoids the top. Dropping the second row
    # would leave e3 outside the span; keeping it puts e3 inside, so e3 is
    # no witness.
    alg = GradedLieAlgebra(5, {(2, 3): {2: 1, 3: 1}, (2, 4): {2: 1}}, (2, 1, 2))
    assert not certify_graded_witness(alg, 0, 1, _unit(5, 3))
    assert certify_graded_witness(alg, 0, 1, _unit(5, 4))
    # with no straddling row the rows avoiding the top block are dropped,
    # and the answer is the same as with them
    split = GradedLieAlgebra(5, {(2, 3): {3: 1}, (2, 4): {2: 1}}, (2, 1, 2))
    assert not certify_graded_witness(split, 0, 1, _unit(5, 3))
    assert certify_graded_witness(split, 0, 1, _unit(5, 4))


def test_certifier_grows_the_rows_joined_to_y_to_a_fixed_point():
    # Seeded mutation target: the obstruction rows e_y + e_a, e_a + e_b and
    # e_b reach y's column in one, two and three hops. Only all three put
    # e_y in their span; a certifier that stopped growing the rows joined to
    # y's columns after one or two hops would accept e_y.
    # Degrees (1, 1, 2, 2, 3, 3): y = e5, a = e4 and b = e3.
    alg = GradedLieAlgebra(
        6, {(2, 3): {5: 1, 4: 1}, (2, 4): {4: 1, 3: 1}, (2, 5): {3: 1}}, (2, 2, 2)
    )
    assert not certify_graded_witness(alg, 0, 1, _unit(6, 5))
    # rows avoiding every column joined to y stay out, and change nothing:
    # with e_b's row cut from the chain e_y is outside the span again
    cut = GradedLieAlgebra(6, {(2, 3): {5: 1, 4: 1}, (2, 5): {3: 1}}, (2, 2, 2))
    assert certify_graded_witness(cut, 0, 1, _unit(6, 5))


@pytest.mark.parametrize("k", [2, 4])
def test_sweep_counts_each_dimension_once(monkeypatch, k):
    # The row's dim comes from the algebra classify built, whose basis
    # graded_basis has checked against the dimension count; only classes
    # decided without an algebra count it for the row.
    import graphlie.basis as basis
    import graphlie.rigidity as rigidity

    calls = []
    original = basis.dimension_oracle

    def counted(graph, k):
        calls.append((graph, k))
        return original(graph, k)

    monkeypatch.setattr(basis, "dimension_oracle", counted)
    monkeypatch.setattr(rigidity, "dimension_oracle", counted)
    structure_constants.cache_clear()
    rows = list(sweep(5, k))
    assert len(rows) == 51
    assert sorted(calls, key=repr) == sorted({(g, k) for g, _ in calls}, key=repr)  # once each
    assert len(calls) == 51
    assert all(row["dim"] == sum(original(from_graph6(row["graph6"]), k)) for row in rows)
