import random
import time
from itertools import combinations, permutations
from pathlib import Path

import pytest

from graphlie.graphs import (
    SimpleGraph,
    _twin_classes,
    canonical_form,
    enumerate_graphs,
    from_graph6,
    graph_from_canonical,
    parse_graph,
    to_graph6,
)
from graphlie.limits import MAX_DIM, MAX_H2_BRACKET_TERMS, MAX_H2_CONSTANTS, MAX_H2_DIM, MAX_K, VERTEX_LIMITS
from oracles import adjacent, edge_set

STAR_GRAPH = SimpleGraph.make(3, [(1, 2), (1, 3)])


def test_parse_edge_list():
    g = parse_graph('{"m": 3, "edges": [[1, 2], [3, 1]]}')
    assert g == STAR_GRAPH
    assert edge_set(parse_graph('{"m": 2, "edges": []}')) == frozenset()


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
    assert edge_set(g) >= {(1, 2), (1, 3), (2, 4), (3, 4)}


def test_graph6_round_trip_random():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randint(1, 9)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
        g = SimpleGraph.make(m, pairs)
        assert from_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("code", ["", "~??", "C<", "C", ">>graph6<<"])
def test_graph6_errors(code):
    with pytest.raises(ValueError):
        from_graph6(code)


def _per_pair_graph6(graph):
    """The encoder to_graph6 replaced: one adjacency lookup per pair, kept as its oracle."""
    bits = [int(adjacent(graph, i + 1, j + 1)) for j in range(1, graph.m) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    words = [int("".join(map(str, bits[pos:pos + 6])), 2) for pos in range(0, len(bits), 6)]
    return "".join(chr(v + 63) for v in [graph.m] + words)


def _check_graph6(graph):
    code = to_graph6(graph)
    assert code == _per_pair_graph6(graph), graph
    assert from_graph6(code) == graph


def test_graph6_matches_the_per_pair_encoder_exhaustively():
    for m in range(1, 6):
        for mask in range(1 << (m * (m - 1) // 2)):
            _check_graph6(_graph_from_mask(m, mask))


def test_graph6_matches_the_per_pair_encoder_up_to_62_vertices():
    rng = random.Random(62)
    for m in list(range(6, 63)) + [62] * 5:
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 3 / m]
        _check_graph6(SimpleGraph.make(m, pairs))
    _check_graph6(SimpleGraph.make(62, combinations(range(1, 63), 2)))
    with pytest.raises(ValueError, match="more than 62 vertices"):
        to_graph6(SimpleGraph.make(63, [(1, 63)]))


def test_complement():
    assert edge_set(STAR_GRAPH.complement()) == frozenset({(2, 3)})
    k3 = SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])
    assert edge_set(k3.complement()) == frozenset()


def test_complement_involution():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randint(1, 6)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
        g = SimpleGraph.make(m, pairs)
        assert g.complement().complement() == g


def test_components():
    graph = SimpleGraph.make(3, [(1, 2)])
    assert graph.components() == [(1, 2), (3,)]
    assert not graph.is_complete()
    k4 = from_graph6("C~")
    assert k4.components() == [(1, 2, 3, 4)] and k4.is_complete()
    assert SimpleGraph.make(4, [(1, 3), (2, 4)]).components() == [(1, 3), (2, 4)]


def test_components_read_each_mask_once():
    edgeless, path = SimpleGraph.make(2000, []), SimpleGraph.make(2000, [(v, v + 1) for v in range(1, 2000)])
    start = time.perf_counter()
    assert edgeless.components() == [(v,) for v in range(1, 2001)]
    assert path.components() == [tuple(range(1, 2001))]
    assert time.perf_counter() - start < 0.1


def _union_find_components(graph):
    """The components by union-find over the edge set, kept as the oracle of the mask search."""
    parent = list(range(graph.m + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edge_set(graph):
        parent[find(a)] = find(b)
    comps = {}
    for v in range(1, graph.m + 1):
        comps.setdefault(find(v), []).append(v)
    return sorted(map(tuple, comps.values()))


def test_components_match_union_find():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 7)
        pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.4]
        graph = SimpleGraph.make(m, pairs)
        assert graph.components() == _union_find_components(graph), graph


def _pairwise_induced(graph, vertices):
    """The induced masks on vertices, moved onto 1..s, pair by pair from the edge set."""
    edges, rows = edge_set(graph), [0] * len(vertices)
    for p, q in combinations(range(len(vertices)), 2):
        if (vertices[p], vertices[q]) in edges:
            rows[p] |= 1 << q
            rows[q] |= 1 << p
    return tuple(rows)


def test_induced_matches_the_pairwise_reference():
    # every vertex set of every seeded graph, the whole vertex set included,
    # which takes the graph's own masks
    rng = random.Random(2026)
    wholes = 0
    for _ in range(40):
        m = rng.randint(1, 7)
        graph = SimpleGraph.make(m, [p for p in combinations(range(1, m + 1), 2) if rng.random() < 0.5])
        for size in range(m + 1):
            for vertices in combinations(range(1, m + 1), size):
                assert graph.induced(vertices) == _pairwise_induced(graph, vertices), (graph, vertices)
        whole = tuple(range(1, m + 1))
        wholes += graph.induced(whole) is graph.adj
    assert wholes == 40


def test_masks_agree_with_the_edge_set():
    rng = random.Random(2300)
    for _ in range(200):
        m = rng.randint(1, 8)
        density = rng.random()
        g = SimpleGraph.make(m, [p for p in combinations(range(1, m + 1), 2) if rng.random() < density])
        everything = set(combinations(range(1, m + 1), 2))
        assert SimpleGraph.make(m, edge_set(g)) == g
        assert edge_set(g.complement()) == everything - edge_set(g)
        assert g.complement().complement() == g
        assert set(g.nonedges()) | edge_set(g) == everything and not set(g.nonedges()) & edge_set(g)
        assert g.nonedges() == sorted(g.nonedges())
        isolated = [v for v in range(1, m + 1) if not any(v in e for e in edge_set(g))]
        assert [v for v, a in enumerate(g.adj, 1) if not a] == isolated
        assert g.is_complete() == (edge_set(g) == everything)
        assert from_graph6(to_graph6(g)) == g


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
        canonical_form(SimpleGraph.make(10, []))


def _permutation_canonical_form(graph):
    """The m! search that canonical_form replaced, kept as its oracle."""
    pairs = list(combinations(range(graph.m), 2))
    verts = list(range(1, graph.m + 1))
    best = None
    for order in permutations(verts):
        bits = tuple(
            1 if adjacent(graph, order[i], order[j]) else 0 for i, j in pairs
        )
        if best is None or bits < best:
            best = bits
    return "".join(str(b) for b in best)


def _complete_multipartite(*sizes):
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    part = {v: i for i, (a, s) in enumerate(zip(starts, sizes)) for v in range(a + 1, a + s + 1)}
    m = sum(sizes)
    return SimpleGraph.make(m, [(i, j) for i, j in combinations(range(1, m + 1), 2) if part[i] != part[j]])


def _disjoint_cliques(*sizes):
    return _complete_multipartite(*sizes).complement()


def _cycle(m):
    return SimpleGraph.make(m, [(i, i % m + 1) for i in range(1, m + 1)])


def _cube():
    pairs = combinations(range(8), 2)
    return SimpleGraph.make(8, [(a + 1, b + 1) for a, b in pairs if bin(a ^ b).count("1") == 1])


def test_canonical_form_matches_permutations_exhaustively():
    for m in range(1, 6):
        npairs = m * (m - 1) // 2
        for mask in range(1 << npairs):
            g = _graph_from_mask(m, mask)
            assert canonical_form(g) == _permutation_canonical_form(g), (m, mask)


def test_canonical_form_matches_permutations_random():
    rng = random.Random(2014)
    for m, count in ((6, 30), (7, 12), (8, 2)):
        for _ in range(count):
            density = rng.random()
            pairs = [p for p in combinations(range(1, m + 1), 2) if rng.random() < density]
            g = SimpleGraph.make(m, pairs)
            assert canonical_form(g) == _permutation_canonical_form(g), g


@pytest.mark.parametrize(
    "graph",
    [
        _complete_multipartite(3, 3),
        _complete_multipartite(2, 5),
        _complete_multipartite(3, 5),
        _complete_multipartite(2, 2, 3),
        _disjoint_cliques(3, 3),
        _disjoint_cliques(1, 2, 4),
        _disjoint_cliques(4, 4),
        _cycle(6),
        _cycle(7),
        _cycle(8),
        _cube(),
    ],
    ids=["K33", "K25", "K35", "K223", "2K3", "K1+K2+K4", "2K4", "C6", "C7", "C8", "Q3"],
)
def test_canonical_form_matches_permutations_symmetric(graph):
    assert canonical_form(graph) == _permutation_canonical_form(graph)
    # any relabelling of a graph has the same form
    order = list(range(1, graph.m + 1))
    random.Random(graph.m).shuffle(order)
    moved = SimpleGraph.make(graph.m, [(order[i - 1], order[j - 1]) for i, j in edge_set(graph)])
    assert canonical_form(moved) == canonical_form(graph)


@pytest.mark.parametrize("m", range(1, 9))
def test_canonical_form_empty_and_complete(m):
    npairs = m * (m - 1) // 2
    assert canonical_form(SimpleGraph.make(m, [])) == "0" * npairs
    assert canonical_form(SimpleGraph.make(m, combinations(range(1, m + 1), 2))) == "1" * npairs


def test_canonical_form_partition_four_vertices():
    forms = {canonical_form(_graph_from_mask(4, mask)) for mask in range(64)}
    assert len(forms) == 11


def _graph_from_mask(m, mask):
    pairs = list(combinations(range(1, m + 1), 2))
    return SimpleGraph.make(m, [p for i, p in enumerate(pairs) if mask >> i & 1])


def _check_twin_classes(graph):
    twins = _twin_classes(graph.m, graph.adj)
    for u in range(1, graph.m + 1):
        assert twins[u - 1] >> (u - 1) & 1
        for v in range(u + 1, graph.m + 1):
            swap = {u: v, v: u}
            moved = {
                (min(a, b), max(a, b))
                for a, b in ((swap.get(i, i), swap.get(j, j)) for i, j in edge_set(graph))
            }
            assert bool(twins[u - 1] >> (v - 1) & 1) == (moved == edge_set(graph)), (graph, u, v)


def test_twin_classes_match_transpositions_exhaustively():
    for m in range(1, 6):
        for mask in range(1 << (m * (m - 1) // 2)):
            _check_twin_classes(_graph_from_mask(m, mask))


def test_twin_classes_match_transpositions_random():
    rng = random.Random(1998)
    for m in (6, 7, 8):
        for _ in range(40):
            g = _twin_rich_graph(rng, m) if rng.random() < 0.5 else _random_graph(rng, m)
            _check_twin_classes(g)


def _random_graph(rng, m):
    density = rng.random()
    return SimpleGraph.make(m, [p for p in combinations(range(1, m + 1), 2) if rng.random() < density])


def _twin_rich_graph(rng, m):
    """A random graph in which the first `size` vertices, 3 <= size <= m - 3,
    are made twins (a clique or an independent set with one neighbourhood
    outside), then relabelled at random."""
    size = rng.randint(3, m - 3)
    rest = _random_graph(rng, m - size)
    pairs = [(i + size, j + size) for i, j in edge_set(rest)]
    if rng.random() < 0.5:
        pairs += combinations(range(1, size + 1), 2)
    for v in range(size + 1, m + 1):
        if rng.random() < 0.5:
            pairs += [(u, v) for u in range(1, size + 1)]
    order = list(range(1, m + 1))
    rng.shuffle(order)
    return SimpleGraph.make(m, [(order[i - 1], order[j - 1]) for i, j in pairs])


def test_canonical_form_matches_permutations_with_twins():
    # twin classes of size >= 3 next to vertices without a twin, so that
    # the skip of canonical_form meets cells that mix both kinds
    rng = random.Random(2015)
    for m, count in ((7, 10), (8, 3)):
        done = 0
        while done < count:
            g = _twin_rich_graph(rng, m)
            sizes = [c.bit_count() for c in _twin_classes(m, g.adj)]
            if max(sizes) < 3 or 1 not in sizes:
                continue
            assert canonical_form(g) == _permutation_canonical_form(g), g
            done += 1


def _unpruned_enumeration(n):
    """enumerate_graphs before the twin prefix rule: every neighbour set of
    every class, kept as its oracle."""
    reps = {canonical_form(SimpleGraph.make(1, []))}
    for size in range(2, n + 1):
        bases = [graph_from_canonical(size - 1, form) for form in reps]
        reps = {
            canonical_form(SimpleGraph.make(
                size, list(edge_set(base)) + [(v, size) for v in range(1, size) if mask >> (v - 1) & 1]
            ))
            for base in bases
            for mask in range(1 << (size - 1))
        }
    return [graph_from_canonical(n, form) for form in sorted(reps)]


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_matches_the_unpruned_enumeration(n):
    assert enumerate_graphs(n) == _unpruned_enumeration(n)


def test_each_class_is_accepted_from_one_parent(monkeypatch):
    # the canonical deletion of a class fixes the class it is accepted from;
    # copies from one parent (an automorphism of it beyond the twins) may remain
    import graphlie.graphs as graphs

    parents, accepts = {}, graphs._accepts

    def record(child, form):
        accepted = accepts(child, form)
        if accepted:
            parents.setdefault(canonical_form(SimpleGraph(len(child), child)), set()).add(form)
        return accepted

    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_accepts", record)
        enumerate_graphs(7)
    classes = [canonical_form(g) for n in range(2, 8) for g in enumerate_graphs(n)]
    assert sorted(parents) == sorted(classes)
    for form in classes:
        assert len(parents[form]) == 1, (form, parents[form])


def _enumerated_children(monkeypatch, n):
    """Every child that enumerate_graphs(n) builds, rejected ones included,
    and the number of canonical forms it takes."""
    import graphlie.graphs as graphs

    seen, calls = [], []
    children, form = graphs._children, graphs.canonical_form

    def record_children(base):
        for child in children(base):
            seen.append(SimpleGraph(len(child), child))
            yield child

    def record_form(graph):
        calls.append(graph)
        return form(graph)

    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_children", record_children)
        patch.setattr(graphs, "canonical_form", record_form)
        enumerate_graphs(n)
    return seen, len(calls)


def _check_masks(graph):
    assert graph == SimpleGraph.make(graph.m, edge_set(graph)), graph


def test_enumerated_children_have_the_masks_of_their_edges(monkeypatch):
    children, calls = _enumerated_children(monkeypatch, 7)
    # one child per twin-prefix neighbour set, 782 of them up to six
    # vertices; only the accepted children and the deletions that break
    # ties get a canonical form, 349 of them up to six vertices
    assert len(children) == 782 + 6412
    assert calls == 349 + 1789
    for child in children:
        _check_masks(child)
    # seeded mutation: the new vertex's bit set on the wrong row
    rng = random.Random(1998)
    mixed = [c for c in children if 0 < c.adj[-1].bit_count() < c.m - 1]
    for child in rng.sample(mixed, 100):
        rows, new = list(child.adj), 1 << (child.m - 1)
        right = rng.choice([v for v in range(child.m - 1) if rows[v] & new])
        wrong = rng.choice([v for v in range(child.m - 1) if not rows[v] & new])
        rows[right] ^= new
        rows[wrong] ^= new
        with pytest.raises(AssertionError):
            _check_masks(SimpleGraph(child.m, tuple(rows)))


# OEIS A000088
@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]
)
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
    with pytest.raises(ValueError):
        graph_from_canonical(0, "")  # canonical strings exist for 1..9 vertices only


def test_every_size_check_reads_the_limits_table(monkeypatch):
    from graphlie.rigidity import sweep

    k3 = SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])
    for name, call in (
        ("canonical_form", lambda: canonical_form(k3)),
        ("enumerate_graphs", lambda: enumerate_graphs(3)),
        ("sweep", lambda: sweep(3, 2)),
        ("sweep at k = 3", lambda: sweep(3, 3)),
        ("parse_graph", lambda: parse_graph('{"m": 3, "edges": [[1, 2]]}')),
    ):
        call()
        with monkeypatch.context() as patch:
            patch.setitem(VERTEX_LIMITS, name, (1, 2))
            with pytest.raises(ValueError, match=f"{name} supports 1..2 vertices"):
                call()


def test_limits_table_in_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for name, (low, high) in VERTEX_LIMITS.items():
        assert f"| `{name}` | {low}..{high} vertices |" in readme
    assert f"| `--k` of every command | at most {MAX_K} |" in readme
    assert f"| `graded_basis` | at most {MAX_DIM} basis elements |" in readme
    assert f"| `algebra_from_json_dict` | at most {MAX_DIM} basis elements |" in readme
    assert f"| `h2_nil` | at most {MAX_H2_DIM} basis elements |" in readme
    assert f"| `h2_nil` | at most {MAX_H2_CONSTANTS} nonzero structure constants |" in readme
    assert f"| `h2_nil` | at most {MAX_H2_BRACKET_TERMS} terms in one bracket |" in readme


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        enumerate_graphs(0)
    with pytest.raises(ValueError):
        enumerate_graphs(10)


@pytest.mark.parametrize("n", [6, 7])
def test_enumerate_matches_networkx_atlas(n):
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    reps = {canonical_form(g): g for g in enumerate_graphs(n)}
    matched = set()
    for atlas in graph_atlas_g():
        if atlas.number_of_nodes() != n:
            continue
        ours = SimpleGraph.make(n, [(i + 1, j + 1) for i, j in atlas.edges()])
        form = canonical_form(ours)
        rep = nx.Graph(list(edge_set(reps[form])))
        rep.add_nodes_from(range(1, n + 1))
        assert nx.is_isomorphic(atlas, rep)
        matched.add(form)
    # atlas classes are pairwise non-isomorphic, so this is a bijection
    assert len(matched) == len(reps)
