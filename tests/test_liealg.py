import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from graphlie.basis import structure_constants
from graphlie.graphs import SimpleGraph, enumerate_graphs
from graphlie.liealg import (
    BasisLabel,
    GradedLieAlgebra,
    LieAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    center,
    jacobi_report,
    lower_central_series,
)
from graphlie.linalg import ONE, ZERO
from oracles import edge_set, grading_support_check

STAR = SimpleGraph.make(3, [(1, 2), (1, 3)])
K2 = SimpleGraph.make(2, [(1, 2)])
C4 = SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
K2_PLUS_POINT = SimpleGraph.make(3, [(1, 2)])

HEISENBERG = LieAlgebra(3, {(0, 1): {2: 1}})
# [x, z] = x, [y, z] = -y, [x, y] = z: Jacobi fails on purpose
BROKEN = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})
# [x, y] = y: solvable but not nilpotent
AFFINE_LINE = LieAlgebra(2, {(0, 1): {1: 1}})


def test_sc_validation():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 1): {0: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(2, 1): {0: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): {3: 1}})
    assert LieAlgebra(3, {(0, 1): {2: 0}}).sc == {}


def test_bracket_basis_orientations():
    assert HEISENBERG.bracket_basis(0, 1) == {2: ONE}
    assert HEISENBERG.bracket_basis(1, 0) == {2: -ONE}
    assert HEISENBERG.bracket_basis(1, 1) == {}
    assert HEISENBERG.bracket_basis(0, 2) == {}


def test_bracket_sparse_bilinear():
    alg = structure_constants(STAR, 3)
    rng = random.Random(31)
    for _ in range(40):
        x, y, z = (
            {rng.randrange(alg.n): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            for _ in range(3)
        )
        yz = dict(y)
        for l, c in z.items():
            yz[l] = yz.get(l, ZERO) + c
        lhs = alg.bracket_sparse(x, yz)
        rhs = alg.bracket_sparse(x, y)
        for l, c in alg.bracket_sparse(x, z).items():
            s = rhs.get(l, ZERO) + c
            if s:
                rhs[l] = s
            else:
                rhs.pop(l, None)
        assert {l: c for l, c in lhs.items() if c} == rhs
        neg = alg.bracket_sparse(y, x)
        assert alg.bracket_sparse(x, y) == {l: -c for l, c in neg.items()}


def test_lower_central_series_fixed():
    def dims(algebra):
        return [s.rank for s in lower_central_series(algebra)]

    assert dims(structure_constants(C4, 2)) == [8, 4, 0]
    assert dims(structure_constants(STAR, 4)) == [20, 17, 15, 10, 0]
    assert dims(structure_constants(K2, 3)) == [5, 3, 2, 0]
    assert dims(LieAlgebra(3, {})) == [3, 0]
    # a stabilized nonzero tail is kept so the last entry flags non-nilpotency
    assert dims(AFFINE_LINE) == [2, 1, 1]
    # the derived algebra of the Heisenberg algebra is its center
    assert lower_central_series(HEISENBERG)[1].rows_sorted() == [{2: ONE}]


def test_lower_central_series_matches_grading_tails():
    for m in (2, 3, 4):
        for graph in enumerate_graphs(m):
            for k in (2, 3):
                alg = structure_constants(graph, k)
                chain = lower_central_series(alg)
                expected = [sum(alg.grading[i:]) for i in range(k + 1)]
                while len(expected) > 1 and expected[-2] == 0:
                    expected.pop()
                assert [s.rank for s in chain] == expected


def test_center_fixed_cases():
    assert center(HEISENBERG).rows_sorted() == [{2: ONE}]
    assert center(LieAlgebra(3, {})).rows_sorted() == [{0: ONE}, {1: ONE}, {2: ONE}]
    c4_center = center(structure_constants(C4, 2))
    assert c4_center.rank == 4
    for i in range(4, 8):
        assert c4_center.contains({i: ONE})
    line_center = center(structure_constants(K2_PLUS_POINT, 2))
    assert line_center.rank == 2
    assert line_center.contains({2: ONE})  # the isolated generator
    assert line_center.contains({3: ONE})


def test_center_brackets_vanish():
    alg = structure_constants(STAR, 3)
    for row in center(alg).rows_sorted():
        for i in range(alg.n):
            assert alg.bracket_sparse(row, {i: ONE}) == {}


def _jacobi_brute(algebra):
    bad = []
    n = algebra.n
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                acc = {}
                for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
                    inner = algebra.bracket_basis(b, c)
                    for t, coef in inner.items():
                        for u, d in algebra.bracket_basis(a, t).items():
                            s = acc.get(u, ZERO) + coef * d
                            if s:
                                acc[u] = s
                            else:
                                acc.pop(u, None)
                if acc:
                    bad.append((i, j, l))
    return bad


def test_jacobi_report():
    assert jacobi_report(HEISENBERG) == []
    assert jacobi_report(structure_constants(STAR, 4)) == []
    assert jacobi_report(BROKEN) == [(0, 1, 2)]


def test_jacobi_report_matches_brute_force():
    rng = random.Random(73)
    algebras = [HEISENBERG, BROKEN, structure_constants(C4, 2), AFFINE_LINE]
    for _ in range(25):
        n = rng.randint(3, 5)
        sc = {}
        for _ in range(rng.randint(1, 5)):
            i, j = sorted(rng.sample(range(n), 2))
            sc.setdefault((i, j), {})[rng.randrange(n)] = Fraction(rng.randint(-2, 2))
        algebras.append(LieAlgebra(n, sc))
    for _ in range(25):
        # 2-step tables: pairs of g generators bracket onto the n - g central
        # vectors, so no bracket composes; half gain one stray bracket
        g = rng.randint(2, 4)
        n = rng.randint(g + 1, 7)
        sc = {
            pair: {rng.randrange(g, n): Fraction(rng.randint(1, 3))}
            for pair in combinations(range(g), 2) if rng.random() < 0.7
        }
        if rng.random() < 0.5:
            i, j = sorted(rng.sample(range(n), 2))
            sc.setdefault((i, j), {})[rng.randrange(n)] = Fraction(rng.randint(-2, 2))
        algebras.append(LieAlgebra(n, sc))
    for _ in range(25):
        # [e_y, e_z] = e_t and [e_x, e_t] = e_u only: on {x, y, z} one rotation
        # is nonzero, and x is a neighbour of t, not of y or z
        n = rng.randint(4, 6)
        x, y, z, t = rng.sample(range(n), 4)
        sc = {}
        for (a, b), l in (((y, z), t), ((x, t), rng.randrange(n))):
            sign = 1 if a < b else -1
            sc[min(a, b), max(a, b)] = {l: sign * Fraction(rng.choice((1, 2, -3)))}
        alg = LieAlgebra(n, sc)
        assert tuple(sorted((x, y, z))) in _jacobi_brute(alg)
        algebras.append(alg)
    for alg in algebras:
        assert jacobi_report(alg) == _jacobi_brute(alg)


def test_grading_support_check():
    for k in (2, 3):
        assert grading_support_check(structure_constants(STAR, k))
    labels = (
        BasisLabel("v1", 1, (1, 0)),
        BasisLabel("v2", 1, (0, 1)),
        BasisLabel("[v1,v2]", 2, (1, 1)),
    )
    wrong_degree = GradedLieAlgebra(3, {(0, 1): {0: 1}}, (2, 1), labels=labels)
    assert not grading_support_check(wrong_degree)
    bad_md = (labels[0], labels[1], BasisLabel("[v1,v1]", 2, (2, 0)))
    wrong_md = GradedLieAlgebra(3, {(0, 1): {2: 1}}, (2, 1), labels=bad_md)
    assert not grading_support_check(wrong_md)
    with pytest.raises(ValueError):
        grading_support_check(HEISENBERG)


def test_graded_validation():
    with pytest.raises(ValueError):
        GradedLieAlgebra(3, {}, (2, 2))
    with pytest.raises(ValueError):
        GradedLieAlgebra(3, {}, (4, -1))
    labels = (BasisLabel("v1", 1, (1,)), BasisLabel("v2", 2, (1,)))
    with pytest.raises(ValueError):
        GradedLieAlgebra(2, {}, (2,), labels=labels)
    with pytest.raises(ValueError):
        GradedLieAlgebra(3, {}, (2, 1), labels=labels)


def test_degree_accessors():
    alg = structure_constants(STAR, 4)
    assert alg.degrees[:6] == (1, 1, 1, 2, 2, 3)
    assert alg.degree_block(1) == range(0, 3)
    assert alg.degree_block(2) == range(3, 5)


def test_graph_algebras_are_naturally_graded():
    # each term g^i of the lower central series is the span of the degree
    # blocks above i, so the grading by word length is the filtration's own
    for m in range(1, 6):
        for graph in enumerate_graphs(m):
            for k in (2, 3, 4):
                alg = structure_constants(graph, k)
                chain = lower_central_series(alg)
                assert chain[-1].rank == 0
                for i, term in enumerate(chain):
                    above = [{l: ONE} for l in range(alg.n) if alg.degrees[l] > i]
                    assert term.rank == len(above), (edge_set(graph), k, i)
                    assert all(term.contains(unit) for unit in above), (edge_set(graph), k, i)


def test_json_round_trip_graded():
    alg = structure_constants(STAR, 3)
    data = algebra_to_json_dict(alg)
    back = algebra_from_json_dict(data)
    assert isinstance(back, GradedLieAlgebra)
    assert back.n == alg.n and back.k == alg.k
    assert back.grading == alg.grading
    assert back.sc == alg.sc
    assert back.labels == alg.labels


def test_json_round_trip_plain():
    data = algebra_to_json_dict(HEISENBERG)
    assert data["grading"] is None and data["basis"] is None
    back = algebra_from_json_dict(data)
    assert not isinstance(back, GradedLieAlgebra)
    assert back.sc == HEISENBERG.sc


def test_json_round_trip_random_rational_algebras():
    # seeded bracket tables with rational constants, plain and graded, some
    # with labels, through the JSON text and back
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 7)
        sc = {
            (i, j): {
                l: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for l in rng.sample(range(n), rng.randint(1, n))
            }
            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        }
        k = rng.choice((None, 1, 2, 5))
        if rng.random() < 0.5:
            alg = LieAlgebra(n, sc, k=k)
        else:
            cuts = sorted(rng.randint(0, n) for _ in range(rng.randint(0, 3)))
            grading = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            labels = None
            if rng.random() < 0.5:
                labels = [
                    BasisLabel(f"x{i}", d + 1, tuple(rng.randint(0, 3) for _ in range(3)))
                    for d, size in enumerate(grading) for i in range(size)
                ]
            alg = GradedLieAlgebra(n, sc, grading, labels=labels, k=k)
        data = algebra_to_json_dict(alg)
        back = algebra_from_json_dict(json.loads(json.dumps(data)))
        assert type(back) is type(alg)
        assert (back.n, back.k, back.sc) == (alg.n, alg.k, alg.sc)
        if isinstance(alg, GradedLieAlgebra):
            assert (back.grading, back.labels) == (alg.grading, alg.labels)
        assert algebra_to_json_dict(back) == data


def test_json_refuses_an_oversized_dimension_before_building():
    from graphlie.limits import MAX_DIM

    for n in (MAX_DIM + 1, 10**30):
        with pytest.raises(ValueError, match=f"the algebra has {n} basis elements; the budget is {MAX_DIM}"):
            algebra_from_json_dict({"n": n, "grading": [n], "brackets": []})


def test_json_rational_serialization():
    alg = LieAlgebra(3, {(0, 1): {2: Fraction(-3, 7)}})
    data = algebra_to_json_dict(alg)
    assert data["brackets"] == [{"i": 0, "j": 1, "terms": [{"l": 2, "c": "-3/7"}]}]
    assert algebra_from_json_dict(data).sc == alg.sc


def test_json_malformed():
    with pytest.raises(ValueError):
        algebra_from_json_dict({"n": 3})
    with pytest.raises(ValueError):
        algebra_from_json_dict(
            {"n": 3, "brackets": [{"i": 1, "j": 0, "terms": []}]}
        )
    for c in (0.1, True, None, [1]):
        with pytest.raises(ValueError):
            algebra_from_json_dict(
                {"n": 3, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": c}]}]}
            )


def test_constants_keep_ints_and_refuse_bools_and_floats():
    alg = LieAlgebra(3, {(0, 1): {2: 3, 0: 0}, (1, 2): {0: "-2/7"}, (0, 2): {1: Fraction(4, 2)}})
    assert alg.sc == {(0, 1): {2: 3}, (1, 2): {0: Fraction(-2, 7)}, (0, 2): {1: 2}}
    assert type(alg.sc[(0, 1)][2]) is int
    assert type(alg.sc[(0, 2)][1]) is Fraction
    for c in (True, False, 0.5, 2.0):
        with pytest.raises(TypeError):
            LieAlgebra(3, {(0, 1): {2: c}})


def test_components_never_mix():
    for graph, k in ((SimpleGraph.make(4, [(1, 2), (3, 4)]), 4), (K2_PLUS_POINT, 3)):
        alg = structure_constants(graph, k)
        comp_of = {}
        for pos, comp in enumerate(graph.components()):
            for v in comp:
                comp_of[v] = pos
        for (i, j), terms in alg.sc.items():
            assert terms
            support = set()
            for idx in (i, j):
                md = alg.labels[idx].multidegree
                support |= {comp_of[v + 1] for v, c in enumerate(md) if c}
            assert len(support) == 1


def test_cached_algebras_are_read_only():
    graph = SimpleGraph.make(3, [(1, 2), (1, 3)])
    alg = structure_constants(graph, 2)
    original = {pair: dict(terms) for pair, terms in alg.sc.items()}
    with pytest.raises(TypeError):
        alg.sc[(0, 1)][2] = Fraction(5)
    with pytest.raises(TypeError):
        alg.sc[(1, 2)] = {0: Fraction(1)}
    adj = alg.adjacency()
    with pytest.raises(TypeError):
        adj[1][0][2] = Fraction(5)
    with pytest.raises(TypeError):
        adj[1][2] = {}
    with pytest.raises(TypeError):
        adj[3] = {}
    again = structure_constants(graph, 2)
    assert again.sc == original
    assert again.bracket_basis(1, 0) == {3: -1}
