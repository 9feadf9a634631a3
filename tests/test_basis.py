import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from graphlie import basis
from graphlie.basis import (
    TraceContext,
    bracket_word_label,
    clique_polynomial,
    dimension_oracle,
    graded_basis,
    lyndon_words,
    multidegree_of_leaves,
    standard_bracketing,
    structure_constants,
)
from graphlie.errors import InternalInvariantError
from graphlie.graphs import SimpleGraph, enumerate_graphs, to_graph6
from graphlie.liealg import BasisLabel, algebra_to_json_dict, jacobi_report
from graphlie.limits import MAX_DIM
from graphlie.linalg import CoordinateSolver, RowReducer
from oracles import adjacent, context, edge_set, grading_support_check, trace_normal_form, whole_graph_dimensions

STAR = SimpleGraph.make(3, [(1, 2), (1, 3)])
K2 = SimpleGraph.make(2, [(1, 2)])
PATH3 = SimpleGraph.make(3, [(1, 2), (2, 3)])
EDGELESS3 = SimpleGraph.make(3, [])
K3 = SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])
K5 = SimpleGraph.make(5, list(combinations(range(1, 6), 2)))
DIGESTS = Path(__file__).resolve().parent / "data" / "algebra_digests.json"


def _trace_class(word, graph):
    """Brute-force orbit of a word under adjacent commuting swaps."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
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
    return seen


def bracket_word_leaves(tree):
    if isinstance(tree, int):
        return (tree,)
    return bracket_word_leaves(tree[0]) + bracket_word_leaves(tree[1])


def expand_bracket_word(tree, graph, k):
    """Word expansion of a bracket word, as {normal form: coefficient}, made leaf by leaf."""
    leaves = bracket_word_leaves(tree)
    if len(leaves) > k:
        raise ValueError(f"bracket word of degree {len(leaves)} exceeds the bound k={k}")
    for v in leaves:
        if not (isinstance(v, int) and 1 <= v <= graph.m):
            raise ValueError(f"leaf {v!r} is not a vertex of the graph")
    ctx = context(graph)

    def rec(node):
        if isinstance(node, int):
            return {(node,): 1}
        return ctx.commutator(rec(node[0]), rec(node[1]))

    return rec(tree)


def _random_graph(rng, m):
    pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
    return SimpleGraph.make(m, pairs)


@pytest.fixture
def fresh_types():
    """An empty support-type memo, so that patched internals take part in filling it."""
    basis._support_type.cache_clear()
    yield
    basis._support_type.cache_clear()


def _direct_basis(graph, k):
    """The per-graph Lyndon sweep, with every candidate expanded and reduced in graph itself.

    Returns (elements, blocks, brackets): elements as (word, multidegree,
    expansion) in sweep order, which is (length, word) order; blocks as
    (degree, md) -> (word columns, element index per solver row, solver);
    brackets as (u, v) -> {element index: coefficient} of [e_u, e_v] for each
    candidate whose standard factors are the basis elements u and v.
    """
    ctx = TraceContext(graph)
    made, elements, blocks, brackets = {}, [], {}, {}
    for word in sorted(lyndon_words(graph.m, k), key=len):
        degree, index, coords, pair = len(word), None, {}, None
        if degree == 1:
            expansion = {word: 1}
        else:
            cut = min(range(1, degree), key=lambda s: word[s:])
            (left, u), (right, v) = made[word[:cut]], made[word[cut:]]
            expansion = ctx.commutator(left, right)
            pair = None if u is None or v is None else (u, v)
        if expansion:
            md = multidegree_of_leaves(word, graph.m)
            columns, indices, solver = blocks.setdefault(
                (degree, md), ({}, [], CoordinateSolver(graph.m**degree))
            )
            coords = solver.add({columns.setdefault(w, len(columns)): c for w, c in expansion.items()})
            if len(indices) < solver.size:
                index = len(elements)
                indices.append(index)
                elements.append((word, md, expansion))
            coords = {indices[pos]: c for pos, c in coords.items()}
        made[word] = expansion, index
        if pair:
            brackets[pair] = coords
    return elements, blocks, brackets


def test_normal_form_fixed_cases():
    # in STAR the leaves 2 and 3 commute, nothing commutes with the hub 1
    assert trace_normal_form((3, 2), STAR) == (2, 3)
    assert trace_normal_form((3, 2, 1), STAR) == (2, 3, 1)
    assert trace_normal_form((2, 3, 1), STAR) == (2, 3, 1)
    assert trace_normal_form((3, 1, 2), STAR) == (3, 1, 2)
    assert trace_normal_form((3, 1, 2, 1), EDGELESS3) == (1, 1, 2, 3)
    assert trace_normal_form((3, 1, 2), K3) == (3, 1, 2)
    assert trace_normal_form((), STAR) == ()


def test_normal_form_rejects_foreign_letters():
    with pytest.raises(ValueError):
        trace_normal_form((1, 4), STAR)
    with pytest.raises(ValueError):
        trace_normal_form((0,), STAR)


def test_normal_form_is_class_minimum():
    rng = random.Random(101)
    for _ in range(200):
        m = rng.randint(1, 5)
        graph = _random_graph(rng, m)
        word = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 6)))
        cls = _trace_class(word, graph)
        nf = trace_normal_form(word, graph)
        assert nf == min(cls)
        assert trace_normal_form(nf, graph) == nf


def test_normal_form_constant_on_classes():
    rng = random.Random(55)
    for _ in range(100):
        m = rng.randint(2, 5)
        graph = _random_graph(rng, m)
        word = tuple(rng.randint(1, m) for _ in range(rng.randint(2, 6)))
        other = rng.choice(sorted(_trace_class(word, graph)))
        assert trace_normal_form(word, graph) == trace_normal_form(other, graph)


def test_normal_form_is_class_minimum_on_long_words():
    # words of length 7 on 6 and 7 vertices, past the oracles above, so the
    # masks of letters 6 and 7 take part
    rng = random.Random(707)
    top_letters = 0
    for _ in range(60):
        m = rng.choice((6, 7))
        graph = _random_graph(rng, m)
        word = tuple(rng.randint(1, m) for _ in range(7))
        top_letters += 7 in word
        cls = _trace_class(word, graph)
        nf = trace_normal_form(word, graph)
        assert nf == min(cls), (edge_set(graph), word)
        assert trace_normal_form(rng.choice(sorted(cls)), graph) == nf
    assert top_letters >= 10


def test_placement_is_the_class_minimum_of_the_concatenation():
    # commutator places the letters of one normal form into another on a
    # memo miss; a fresh context, so that no memo entry answers first
    rng = random.Random(4747)
    pairs = 0
    for m in range(2, 8):
        for _ in range(12):
            graph = _random_graph(rng, m)
            ctx = TraceContext(graph)
            for _ in range(50):
                w1, w2 = (
                    min(_trace_class(tuple(rng.randint(1, m) for _ in range(rng.randint(1, size))), graph))
                    for size in (4, 3)
                )
                assert ctx._place(w1, w2) == min(_trace_class(w1 + w2, graph)), (edge_set(graph), w1, w2)
                pairs += 1
    assert pairs == 3600


def test_lyndon_words_rank_two():
    words = lyndon_words(2, 4)
    assert set(words) == {
        (1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2),
        (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2),
    }
    assert words == sorted(words)


@pytest.mark.parametrize("m,counts", [(2, [2, 1, 2, 3]), (3, [3, 3, 8, 18])])
def test_lyndon_word_counts(m, counts):
    words = lyndon_words(m, 4)
    for length, expected in enumerate(counts, start=1):
        assert sum(1 for w in words if len(w) == length) == expected


def test_lyndon_words_are_lyndon():
    for w in lyndon_words(3, 4):
        for s in range(1, len(w)):
            assert w < w[s:]


def test_lyndon_words_trivial_ranges():
    assert lyndon_words(0, 3) == []
    assert lyndon_words(2, 0) == []


def test_standard_bracketing():
    assert standard_bracketing((1,)) == 1
    assert standard_bracketing((1, 2)) == (1, 2)
    assert standard_bracketing((1, 1, 2)) == (1, (1, 2))
    assert standard_bracketing((1, 2, 2)) == ((1, 2), 2)
    assert standard_bracketing((1, 2, 3)) == (1, (2, 3))
    assert standard_bracketing((1, 3, 2)) == ((1, 3), 2)


def test_bracketing_preserves_leaves():
    for w in lyndon_words(3, 4):
        tree = standard_bracketing(w)
        assert bracket_word_leaves(tree) == w


def test_bracket_word_label():
    assert bracket_word_label((1, (1, 2))) == "[v1,[v1,v2]]"
    assert bracket_word_label(3) == "v3"


def test_multidegree_of_leaves():
    assert multidegree_of_leaves((1, 1, 2), 3) == (2, 1, 0)


def test_expand_commuting_pair_vanishes():
    assert expand_bracket_word((2, 3), STAR, 2) == {}


def test_expand_fixed_cases():
    one = Fraction(1)
    assert expand_bracket_word((1, 2), STAR, 2) == {(1, 2): one, (2, 1): -one}
    assert expand_bracket_word((1, (1, 2)), K2, 3) == {
        (1, 1, 2): one, (1, 2, 1): -2 * one, (2, 1, 1): one,
    }


def test_expand_antisymmetry():
    lhs = expand_bracket_word((1, 2), STAR, 2)
    rhs = expand_bracket_word((2, 1), STAR, 2)
    assert lhs == {w: -c for w, c in rhs.items()}


def test_expand_degree_and_leaf_errors():
    with pytest.raises(ValueError):
        expand_bracket_word((1, (1, 2)), K2, 2)
    with pytest.raises(ValueError):
        expand_bracket_word((1, 9), STAR, 4)


def test_expand_homogeneous_content():
    for w in lyndon_words(3, 4):
        expansion = expand_bracket_word(standard_bracketing(w), STAR, 4)
        for word in expansion:
            assert sorted(word) == sorted(w)


def test_clique_polynomial():
    assert clique_polynomial(K3) == [1, 3, 3, 1]
    assert clique_polynomial(STAR) == [1, 3, 2]
    assert clique_polynomial(EDGELESS3) == [1, 3]
    assert clique_polynomial(SimpleGraph.make(1, [])) == [1, 1]


def _brute_clique_counts(graph):
    """[1, c_1, ...] from testing every vertex subset for pairwise adjacency."""
    counts = [1]
    for size in range(1, graph.m + 1):
        found = sum(
            all(adjacent(graph, a, b) for a, b in combinations(subset, 2))
            for subset in combinations(range(1, graph.m + 1), size)
        )
        if not found:
            break
        counts.append(found)
    return counts


def test_clique_polynomial_matches_brute_force():
    # every class on at most six vertices and its complement (the dimension
    # count reads the complement's cliques)
    for m in range(1, 7):
        for graph in enumerate_graphs(m):
            for g in (graph, graph.complement()):
                brute = _brute_clique_counts(g)
                assert clique_polynomial(g) == brute, to_graph6(graph)
                for top in range(1, m + 1):
                    assert clique_polynomial(g, top) == brute[:top + 1], (to_graph6(graph), top)


def test_series_counts_trace_classes():
    # the word count of the trace monoid in each length is the coefficient
    # of 1 / C(-t) for the clique polynomial of the complement
    for graph in (STAR, PATH3, SimpleGraph.make(4, [(1, 2), (3, 4)])):
        cpoly = clique_polynomial(graph.complement())
        a = [(-1) ** i * c for i, c in enumerate(cpoly)]
        s = [1]
        for n in range(1, 5):
            s.append(-sum(a[i] * s[n - i] for i in range(1, min(n, len(a) - 1) + 1)))
        for n in range(1, 5):
            letters = range(1, graph.m + 1)
            brute = len({trace_normal_form(w, graph) for w in product(letters, repeat=n)})
            assert brute == s[n]


def test_dimension_oracle_fixed_cases():
    assert dimension_oracle(STAR, 4) == [3, 2, 5, 10]
    assert dimension_oracle(K2, 4) == [2, 1, 2, 3]
    assert dimension_oracle(EDGELESS3, 3) == [3, 0, 0]
    assert dimension_oracle(SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2) == [4, 4]
    with pytest.raises(ValueError):
        dimension_oracle(STAR, 0)


def test_dimension_oracle_matches_the_whole_graph_count():
    # components counted apart and cliques cut at k vertices, against every
    # clique of the whole complement
    for m in range(1, 8):
        for graph in enumerate_graphs(m):
            for k in range(1, 6):
                assert dimension_oracle(graph, k) == whole_graph_dimensions(graph, k), (to_graph6(graph), k)


def test_dimension_oracle_is_fast_on_large_sparse_graphs():
    # one component per vertex or edge, and no clique listed beyond k vertices
    edgeless = SimpleGraph.make(40, [])
    matching = SimpleGraph.make(40, [(2 * i - 1, 2 * i) for i in range(1, 21)])
    start = time.perf_counter()
    assert dimension_oracle(edgeless, 10) == [40] + [0] * 9
    assert dimension_oracle(matching, 10) == [20 * d for d in (2, 1, 2, 3, 6, 9, 18, 30, 56, 99)]
    assert time.perf_counter() - start < 1


def test_dimension_oracle_pads_isolated_vertices_without_a_series():
    # graphs padded with isolated vertices against the whole-graph count
    for m in range(1, 6):
        for graph in enumerate_graphs(m):
            for pad in (1, 2):
                padded = SimpleGraph(m + pad, graph.adj + (0,) * pad)
                for k in range(1, 7):
                    assert dimension_oracle(padded, k) == whole_graph_dimensions(padded, k), (
                        to_graph6(padded), k,
                    )


def test_dimension_oracle_runs_one_series_per_component_type(monkeypatch):
    # an isolated vertex runs no series, and equal components run one
    calls = []
    original = basis.clique_polynomial

    def counted(graph, top=None):
        calls.append(graph.adj)
        return original(graph, top)

    monkeypatch.setattr(basis, "clique_polynomial", counted)
    start = time.perf_counter()
    assert dimension_oracle(SimpleGraph.make(2000, []), 2000) == [2000] + [0] * 1999
    assert time.perf_counter() - start < 2 and calls == []
    matching = SimpleGraph.make(41, [(2 * i - 1, 2 * i) for i in range(1, 21)])
    assert dimension_oracle(matching, 4) == [41, 20, 40, 60] and calls == [(0, 0)]  # one edge


def _mobius_local(n):
    factors = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            factors += 1
        else:
            d += 1
    if n > 1:
        factors += 1
    return -1 if factors % 2 else 1


def test_dimension_oracle_complete_graphs_match_necklaces():
    for m in (2, 3, 4):
        pairs = list(combinations(range(1, m + 1), 2))
        km = SimpleGraph.make(m, pairs)
        expected = []
        for d in range(1, 5):
            total = sum(_mobius_local(d // e) * m**e for e in range(1, d + 1) if d % e == 0)
            expected.append(total // d)
        assert dimension_oracle(km, 4) == expected


def _rank_of_rows(rows):
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = Fraction(1) / row[c]
                pivots[c] = {cc: vv * inv for cc, vv in row.items()}
                rank += 1
                break
            coef = row[c]
            for cc, vv in piv.items():
                s = row.get(cc, Fraction(0)) - coef * vv
                if s:
                    row[cc] = s
                else:
                    row.pop(cc, None)
    return rank


def _all_trees(m, degree):
    if degree == 1:
        return list(range(1, m + 1))
    out = []
    for left_deg in range(1, degree):
        for lt in _all_trees(m, left_deg):
            for rt in _all_trees(m, degree - left_deg):
                out.append((lt, rt))
    return out


def _expand_local(tree, graph):
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    left = _expand_local(tree[0], graph)
    right = _expand_local(tree[1], graph)
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            for w, c in ((w1 + w2, c1 * c2), (w2 + w1, -c1 * c2)):
                key = min(_trace_class(w, graph))
                s = out.get(key, Fraction(0)) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def test_dimensions_equal_rank_of_all_bracket_words():
    # every bracket word, not only the chosen ones, expanded by an
    # independent evaluator; the span per degree must have the basis size
    graphs = list(enumerate_graphs(3))
    graphs.append(SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    for graph in graphs:
        dims = graded_basis(graph, 3).dims
        for degree in (1, 2, 3):
            rows = [_expand_local(t, graph) for t in _all_trees(graph.m, degree)]
            assert _rank_of_rows(rows) == dims[degree - 1]


def test_graded_basis_running_example():
    gb = graded_basis(STAR, 4)
    assert gb.dims == (3, 2, 5, 10)
    assert [e.label for e in gb.elements if e.degree == 1] == ["v1", "v2", "v3"]
    assert [e.label for e in gb.elements if e.degree == 2] == ["[v1,v2]", "[v1,v3]"]
    assert sorted(e.multidegree for e in gb.elements if e.degree == 4) == sorted([
        (3, 1, 0), (3, 0, 1), (1, 3, 0), (1, 2, 1), (1, 1, 2),
        (1, 0, 3), (2, 2, 0), (2, 1, 1), (2, 1, 1), (2, 0, 2),
    ])


def test_graded_basis_element_invariants():
    gb = graded_basis(STAR, 4)
    for idx, e in enumerate(gb.elements):
        assert e.index == idx
        assert e.degree == len(e.word)
        assert bracket_word_leaves(e.tree) == e.word
        assert e.multidegree == multidegree_of_leaves(e.word, 3)
        assert e.expansion


def test_basis_elements_match_the_reference_expansions():
    # graded_basis makes each tree and expansion from those of the factors
    # of the standard factorization; the leaf-by-leaf reference must agree,
    # down to the order of the words, which fixes the solver columns
    cases = [(graph, 4) for m in range(1, 6) for graph in enumerate_graphs(m)]
    cases += [(SimpleGraph.make(m, list(combinations(range(1, m + 1), 2))), 5) for m in (2, 3, 4)]
    for graph, k in cases:
        for e in graded_basis(graph, k).elements:
            assert e.tree == standard_bracketing(e.word), (graph, e.word)
            reference = expand_bracket_word(e.tree, graph, k)
            assert list(e.expansion.items()) == list(reference.items()), (graph, e.word)


def _count_calls(monkeypatch, *methods):
    """Wrap each (class or module, name) function to count its calls under "owner.name"."""
    counts = {}
    for owner, name in methods:
        key, method = f"{owner.__name__}.{name}", getattr(owner, name)
        counts[key] = 0

        def counted(*args, key=key, method=method):
            counts[key] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_each_kept_row_is_eliminated_once(monkeypatch, fresh_types):
    counts = _count_calls(
        monkeypatch,
        (TraceContext, "commutator"),
        (CoordinateSolver, "add"),
        (CoordinateSolver, "solve"),
        (RowReducer, "reduce"),
        (RowReducer, "store"),
        (RowReducer, "add"),
    )
    # (graph, k, rows the fills add, rows kept, brackets solved, commutators);
    # a support type is filled once per process, so the two edges of STAR
    # share one, and K5 needs one per size. The non-edge of a path is no
    # support, so it adds no type. Every row and every solved bracket is
    # reduced once, and a kept row is stored as it is, never through
    # RowReducer.add. With 3 as the hub, 5 rows are dependent.
    cases = (
        (K2, 2, 2, 2, 0, 1),
        (STAR, 4, 12, 12, 6, 17),
        (SimpleGraph.make(3, [(1, 3), (2, 3)]), 4, 17, 12, 3, 19),
        (K5, 4, 24, 24, 13, 36),
    )
    for graph, k, rows, kept, solved, commutators in cases:
        basis._support_type.cache_clear()
        counts.update(dict.fromkeys(counts, 0))
        graded_basis(graph, k)
        assert counts == {
            "TraceContext.commutator": commutators,
            "CoordinateSolver.add": rows,
            "CoordinateSolver.solve": solved,
            "RowReducer.reduce": rows + solved,
            "RowReducer.store": kept,
            "RowReducer.add": 0,
        }, to_graph6(graph)
        # the filled memo answers the structure constants with no work at all
        counts.update(dict.fromkeys(counts, 0))
        basis.structure_constants.__wrapped__(graph, k)
        assert set(counts.values()) == {0}


def test_basis_invariant_errors_name_graph_k_and_phase(monkeypatch):
    oracle = basis.dimension_oracle

    def off_by_one(graph, k):
        dims = oracle(graph, k)
        return dims[:-1] + [dims[-1] + 1]

    monkeypatch.setattr(basis, "dimension_oracle", off_by_one)
    with pytest.raises(InternalInvariantError) as caught:
        graded_basis(STAR, 3)
    message = str(caught.value)
    assert "greedy basis found (3, 2, 5) elements by degree, dimension count expects (3, 2, 6)" in message
    assert message.endswith(
        f"(graph6 {to_graph6(STAR)}, k = 3, phase: graded basis against the dimension count)"
    )


def test_dimension_count_error_names_graph_k_and_phase(monkeypatch):
    # integer clique counts always give integer dimensions, so a half count
    # stands in for a fault; a count that gives l_2 = -1 must fail the same way
    for counts in ([1, Fraction(3, 2)], [1, 1, 1]):
        monkeypatch.setattr(basis, "clique_polynomial", lambda graph, top, c=counts: c)
        with pytest.raises(InternalInvariantError) as caught:
            dimension_oracle(STAR, 3)
        message = str(caught.value)
        assert message.startswith("dimension count is not a nonnegative integer")
        assert message.endswith(f"(graph6 {to_graph6(STAR)}, k = 3, phase: dimension count)")


def test_solver_invariant_errors_name_graph_k_and_phase(monkeypatch, fresh_types):
    def refuse(message):
        def method(self, row):
            raise InternalInvariantError(message)
        return method

    monkeypatch.setattr(CoordinateSolver, "solve", refuse("vector outside the spanned space"))
    with pytest.raises(InternalInvariantError) as caught:
        basis.structure_constants.__wrapped__(K3, 3)
    assert str(caught.value) == (
        f"vector outside the spanned space (graph6 {to_graph6(K3)}, k = 3, phase: structure constants)"
    )
    monkeypatch.setattr(CoordinateSolver, "add", refuse("basis rows are dependent"))
    with pytest.raises(InternalInvariantError) as caught:
        graded_basis(STAR, 2)
    assert str(caught.value) == (
        f"basis rows are dependent (graph6 {to_graph6(STAR)}, k = 2, phase: graded basis)"
    )


def _reference_structure_constants(graph, k):
    """Every [e_i, e_j] of degree <= k by commutator + solve in graph, reading no recorded bracket."""
    elements, blocks, _ = _direct_basis(graph, k)
    ctx = TraceContext(graph)
    sc = {}
    for (i, (wi, mdi, ei)), (j, (wj, mdj, ej)) in combinations(enumerate(elements), 2):
        degree = len(wi) + len(wj)
        expansion = ctx.commutator(ei, ej) if degree <= k else {}
        if expansion:
            md = tuple(a + b for a, b in zip(mdi, mdj))
            columns, indices, solver = blocks[(degree, md)]
            terms = solver.solve({columns[w]: c for w, c in expansion.items()})
            if terms:
                sc[(i, j)] = {indices[pos]: c for pos, c in terms.items()}
    labels = tuple(
        BasisLabel(bracket_word_label(standard_bracketing(w)), len(w), md) for w, md, _ in elements
    )
    return sc, labels


def _memo_cases():
    # every class on 2..5 vertices at k = 2..5, and labelled 6-vertex graphs,
    # whose vertex order is not a canonical one, at k = 3 and 4
    rng = random.Random(606)
    cases = [(g, k) for m in range(2, 6) for g in enumerate_graphs(m) for k in (2, 3, 4, 5)]
    return cases + [(_random_graph(rng, 6), k) for _ in range(3) for k in (3, 4)]


def test_structure_constants_match_the_reference():
    # the memo path against the per-graph construction: constants, labels
    # and grading, on graphs whose supports share types in many ways
    for graph, k in _memo_cases():
        alg = structure_constants(graph, k)
        sc, labels = _reference_structure_constants(graph, k)
        assert (alg.sc, alg.labels) == (sc, labels), (to_graph6(graph), k)
        assert list(alg.grading) == dimension_oracle(graph, k)


def test_graded_basis_matches_the_per_graph_sweep():
    for graph, k in _memo_cases():
        elements, _, _ = _direct_basis(graph, k)
        got = [(e.word, e.multidegree, list(e.expansion.items())) for e in graded_basis(graph, k).elements]
        assert got == [(w, md, list(expansion.items())) for w, md, expansion in elements], (
            to_graph6(graph), k,
        )


def test_support_types_are_shared_and_bounded():
    # one entry per (masks of the induced subgraph moved onto 1..s, k), whatever
    # the vertices; a set that induces a disconnected subgraph is no support
    supports = graded_basis(STAR, 4).supports
    assert (2, 3) not in supports
    assert supports[(1, 2)][0] is supports[(1, 3)][0] is graded_basis(PATH3, 4).supports[(2, 3)][0]
    assert supports[(1, 2, 3)][0] is not graded_basis(PATH3, 4).supports[(1, 2, 3)][0]
    assert supports[(1, 2)][0] is not graded_basis(STAR, 3).supports[(1, 2)][0]
    # large enough for every labelled graph on at most 5 vertices at one k
    assert basis._support_type.cache_info().maxsize >= sum(2 ** (s * (s - 1) // 2) for s in range(1, 6))


def test_supports_are_the_connected_vertex_sets():
    # against every set of at most top vertices, kept when its induced
    # subgraph has one component, in the order combinations gives them
    for m in range(1, 6):
        for graph in enumerate_graphs(m):
            for top in range(1, m + 1):
                every = [
                    (sub, graph.induced(sub))
                    for size in range(1, top + 1)
                    for sub in combinations(range(1, m + 1), size)
                ]
                connected = [(sub, masks) for sub, masks in every
                             if len(SimpleGraph(len(masks), masks).components()) == 1]
                assert basis._supports(graph, top) == connected, (to_graph6(graph), top)


def _unrecorded_full_pairs(graph, k):
    """Pairs of degree <= k of the per-graph basis whose supports cover every vertex
    and that are no candidate's standard factorization."""
    elements, _, brackets = _direct_basis(graph, k)
    recorded = {frozenset(pair) for pair in brackets}
    return sum(
        len(wi) + len(wj) <= k and len(set(wi + wj)) == graph.m and frozenset((i, j)) not in recorded
        for (i, (wi, _, _)), (j, (wj, _, _)) in combinations(enumerate(elements), 2)
    )


def test_structure_constants_expand_only_unrecorded_pairs(monkeypatch, fresh_types):
    # On an empty memo each support type, a connected set's, sweeps its
    # candidates (one commutator for each whose two factors do not vanish)
    # and then expands the pairs covering its support that no candidate recorded.
    counts = _count_calls(monkeypatch, (TraceContext, "commutator"), (basis, "_solve_bracket"))
    hub3 = SimpleGraph.make(3, [(1, 3), (2, 3)])
    for graph, k, swept, pairs in ((K2, 2, 1, 0), (STAR, 4, 11, 6), (hub3, 4, 16, 3), (K5, 4, 23, 13)):
        basis._support_type.cache_clear()
        counts.update(dict.fromkeys(counts, 0))
        basis.structure_constants.__wrapped__(graph, k)
        assert list(counts.values()) == [swept + pairs, pairs], to_graph6(graph)
        types = {SimpleGraph(len(masks), masks) for _, masks in basis._supports(graph, k)}
        assert pairs == sum(_unrecorded_full_pairs(support, k) for support in types)


def test_structure_constants_heisenberg():
    alg = structure_constants(K2, 2)
    assert alg.n == 3
    assert alg.grading == (2, 1)
    assert alg.sc == {(0, 1): {2: Fraction(1)}}
    assert [lab.label for lab in alg.labels] == ["v1", "v2", "[v1,v2]"]


def test_structure_constants_path():
    alg = structure_constants(PATH3, 2)
    assert alg.n == 5
    assert alg.sc == {(0, 1): {3: Fraction(1)}, (1, 2): {4: Fraction(1)}}


def test_structure_constants_free_three_step():
    alg = structure_constants(K2, 3)
    assert alg.grading == (2, 1, 2)
    labels = [lab.label for lab in alg.labels]
    assert labels == ["v1", "v2", "[v1,v2]", "[v1,[v1,v2]]", "[[v1,v2],v2]"]
    assert alg.sc == {
        (0, 1): {2: Fraction(1)},
        (0, 2): {3: Fraction(1)},
        (1, 2): {4: Fraction(-1)},
    }


def test_structure_constants_cached():
    assert structure_constants(K2, 2) is structure_constants(K2, 2)
    with pytest.raises(ValueError):
        structure_constants(K2, 0)


def test_trace_context_masks_are_read_only():
    masks = context(STAR).blocks  # shared through the test cache, so read-only
    # 2 and 3 commute, 1 and 2 do not
    assert not masks[2] >> 3 & 1 and masks[1] >> 2 & 1
    with pytest.raises(TypeError):
        masks[2] = 0


def test_structure_constants_small_classes_are_lie_algebras():
    for m in (2, 3, 4):
        for graph in enumerate_graphs(m):
            for k in (1, 2, 3):
                alg = structure_constants(graph, k)
                assert alg.grading == tuple(dimension_oracle(graph, k))
                assert jacobi_report(alg) == []
                assert grading_support_check(alg)


def test_algebra_digests_match_the_fraction_pipeline():
    # sha256 over the sorted-key JSON of every class on 2..5 vertices, one
    # line each in enumerate_graphs order; k = 3 and 4 were recorded when the
    # structure constants were still computed on Fractions, k = 5 (words of
    # length 5, pivots other than ±1) before the normal form used bitmasks
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for k in (3, 4, 5):
        digest = hashlib.sha256()
        for m in range(2, 6):
            for graph in enumerate_graphs(m):
                doc = algebra_to_json_dict(structure_constants(graph, k))
                digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == expected[str(k)], k


def test_expansions_are_plain_ints():
    for m in range(1, 6):
        for graph in enumerate_graphs(m):
            for e in graded_basis(graph, 4).elements:
                assert all(type(c) is int for c in e.expansion.values()), (graph, e.label)


def test_structure_constants_solve_builds_no_fraction(monkeypatch, fresh_types):
    # K5 at k = 4 runs on ints from the dimension count to the finished
    # algebra: the expansions, the greedy basis, every coordinate solve and
    # the constructor, whose _clean_sc keeps int constants as ints. The memo
    # is empty, so K5's types are filled here, under the patch.
    counts = _count_calls(monkeypatch, (CoordinateSolver, "add"), (CoordinateSolver, "solve"))
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    alg = basis.structure_constants.__wrapped__(K5, 4)
    monkeypatch.undo()
    assert counts == {"CoordinateSolver.add": 24, "CoordinateSolver.solve": 13}
    assert made == []
    assert alg.sc and all(type(c) is int for terms in alg.sc.values() for c in terms.values())
    assert structure_constants(K5, 4).sc == alg.sc


def _no_candidates(m, maxlen):
    raise AssertionError("an oversized request reached the candidate words")


def test_size_budget_refuses_before_building(monkeypatch, fresh_types):
    # the budget is read when the basis is built, right after the count
    with monkeypatch.context() as patch:
        patch.setattr("graphlie.limits.MAX_DIM", 19)
        with pytest.raises(ValueError, match="has 20 basis elements; the budget is 19"):
            graded_basis(STAR, 4)
        assert graded_basis(STAR, 3).dims == (3, 2, 5)
    k4 = SimpleGraph.make(4, list(combinations(range(1, 5), 2)))
    k6 = SimpleGraph.make(6, list(combinations(range(1, 7), 2)))
    assert sum(dimension_oracle(k6, 5)) == 1960 <= MAX_DIM
    assert sum(dimension_oracle(k4, 12)) == 1924378
    assert sum(dimension_oracle(K5, 10)) == 1256567
    monkeypatch.setattr(basis, "lyndon_words", _no_candidates)
    for graph, k in ((k4, 12), (K5, 10)):
        with pytest.raises(ValueError, match="basis elements; the budget is "):
            graded_basis(graph, k)
