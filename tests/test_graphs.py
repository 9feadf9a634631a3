import random
from itertools import combinations

import pytest

from graphlie.graphs import (
    SimpleGraph,
    analyze,
    canonical_form,
    enumerate_graphs,
    from_graph6,
    graph_from_canonical,
    parse_graph,
    to_graph6,
)

STAR_GRAPH = SimpleGraph.make(3, [(1, 2), (1, 3)])


def test_parse_edge_list():
    g = parse_graph('{"m": 3, "edges": [[1, 2], [3, 1]]}')
    assert g == STAR_GRAPH
    assert parse_graph('{"m": 2, "edges": []}').edges == frozenset()


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"m": 3}',
        '{"m": 3, "edges": [[1]]}',
        '{"m": 3, "edges": [[1, 1]]}',
        '{"m": 3, "edges": [[0, 2]]}',
        '{"m": 3, "edges": [[1, 4]]}',
        '{"m": 0, "edges": []}',
        '{"m": true, "edges": []}',
        '{"m": 3, "edges": [[1, true]]}',
    ],
)
def test_parse_edge_list_errors(text):
    with pytest.raises(ValueError):
        parse_graph(text)


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_graph("A_", "adjacency")


def test_graph6_k4():
    # decoded by hand: 'C' is 4 vertices, '~' is 63, all six upper bits set
    g = from_graph6("C~")
    assert g.m == 4
    assert g.is_complete()
    assert to_graph6(g) == "C~"


def test_graph6_by_hand_example():
    # 5 vertices, single word 'r' = 51 = 110011: pairs in column order
    # (1,2) (1,3) (2,3) (1,4) (2,4) (3,4) get bits 1 1 0 0 1 1
    g = from_graph6("Dr_")
    assert g.m == 5
    assert g.edges >= {(1, 2), (1, 3), (2, 4), (3, 4)}


def test_graph6_round_trip_random():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randint(1, 9)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
        g = SimpleGraph.make(m, pairs)
        assert from_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("code", ["", "~??", "C<", "C"])
def test_graph6_errors(code):
    with pytest.raises(ValueError):
        from_graph6(code)


def test_complement():
    assert STAR_GRAPH.complement().edges == frozenset({(2, 3)})
    k3 = SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])
    assert k3.complement().edges == frozenset()


def test_complement_involution():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randint(1, 6)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
        g = SimpleGraph.make(m, pairs)
        assert g.complement().complement() == g


def test_analyze():
    info = analyze(SimpleGraph.make(3, [(1, 2)]))
    assert info.components == (frozenset({1, 2}), frozenset({3}))
    assert info.isolated == frozenset({3})
    assert not info.complete
    k4 = from_graph6("C~")
    info = analyze(k4)
    assert info.complete and not info.isolated
    two_k2 = SimpleGraph.make(4, [(1, 2), (3, 4)])
    info = analyze(two_k2)
    assert len(info.components) == 2 and not info.isolated


def test_analyze_components_partition():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 7)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.4]
        info = analyze(SimpleGraph.make(m, pairs))
        assert sum(len(c) for c in info.components) == m


def test_canonical_form_isomorphic_paths():
    p4a = SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4)])
    p4b = SimpleGraph.make(4, [(2, 4), (4, 1), (1, 3)])
    assert canonical_form(p4a) == canonical_form(p4b)


def test_canonical_form_distinguishes():
    p3 = SimpleGraph.make(3, [(1, 2), (2, 3)])
    k3 = SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])
    assert canonical_form(p3) != canonical_form(k3)


def test_canonical_form_size_limit():
    with pytest.raises(ValueError):
        canonical_form(SimpleGraph.make(9, []))


def test_canonical_form_partition_four_vertices():
    forms = {canonical_form(_graph_from_mask(4, mask)) for mask in range(64)}
    assert len(forms) == 11


def _graph_from_mask(m, mask):
    pairs = list(combinations(range(1, m + 1), 2))
    return SimpleGraph.make(m, [p for i, p in enumerate(pairs) if mask >> i & 1])


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_enumerate_counts(n, count):
    assert len(enumerate_graphs(n)) == count


def test_enumerate_covers_all_labeled_classes():
    for n in (2, 3, 4, 5):
        reps = {canonical_form(g) for g in enumerate_graphs(n)}
        npairs = n * (n - 1) // 2
        seen = {canonical_form(_graph_from_mask(n, mask)) for mask in range(1 << npairs)}
        assert reps == seen


def test_enumerate_sorted_and_canonical():
    graphs = enumerate_graphs(4)
    forms = [canonical_form(g) for g in graphs]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(forms)
    for g, form in zip(graphs, forms):
        assert graph_from_canonical(4, form) == g


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        enumerate_graphs(0)
    with pytest.raises(ValueError):
        enumerate_graphs(8)
