"""Finite simple graphs: parsing, graph6, complement, components, canonical forms.

Vertices are labeled 1..m and that labeling is meaningful everywhere else
in the package (it fixes the generator order of the associated algebras).
A graph is stored as neighbour bitmasks. ``SimpleGraph.make`` is the one
place where edge pairs become masks; every other reader takes the masks.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from .limits import check_vertices
from .linalg import is_int


class SimpleGraph(NamedTuple):
    m: int
    adj: tuple  # adj[v - 1]: the bitmask of v's neighbours, vertex u on bit u - 1

    @staticmethod
    def make(m: int, edge_pairs) -> "SimpleGraph":
        if not is_int(m) or m < 1:
            raise ValueError("vertex count must be a positive integer")
        adj = [0] * m
        for pair in edge_pairs:
            i, j = pair
            if not (is_int(i) and is_int(j)):
                raise ValueError(f"edge {pair!r} has non-integer endpoints")
            if i == j:
                raise ValueError(f"loop at vertex {i} is not allowed")
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError(f"edge {pair!r} outside vertex range 1..{m}")
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return SimpleGraph(m, tuple(adj))

    def nonedges(self) -> list:
        """The pairs (i, j), i < j, of non-adjacent vertices, in sorted order."""
        return [(i + 1, j + 1) for i, j in combinations(range(self.m), 2) if not self.adj[i] >> j & 1]

    def complement(self) -> "SimpleGraph":
        full = (1 << self.m) - 1
        return SimpleGraph(self.m, tuple(full ^ a ^ 1 << v for v, a in enumerate(self.adj)))

    def is_complete(self) -> bool:
        return not self.nonedges()

    def induced(self, vertices: tuple) -> tuple:
        """The masks of the subgraph induced on vertices, given in increasing order, moved onto 1..s."""
        if len(vertices) == self.m:  # all of 1..m: the masks are the graph's own
            return self.adj
        adj, rows = self.adj, [0] * len(vertices)
        for p, q in combinations(range(len(vertices)), 2):
            if adj[vertices[p] - 1] >> (vertices[q] - 1) & 1:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
        return tuple(rows)

    def components(self) -> list:
        """The vertex sets of the connected components, each as an increasing tuple, by least vertex.

        A component grows from a frontier of set bits; each vertex leaves a
        frontier once, and only then is its mask read."""
        out, left, adj = [], (1 << self.m) - 1, self.adj
        while left:
            comp = frontier = left & -left
            members = []
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length()
                members.append(v)
                new = adj[v - 1] & ~comp
                comp |= new
                frontier |= new
            left ^= comp
            out.append(tuple(sorted(members)))
        return out


def parse_graph(text: str) -> SimpleGraph:
    """Parse edge-list JSON, {"m": int, "edges": [[i, j], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed edge list JSON: {exc}") from exc
    if not isinstance(data, dict) or "m" not in data or "edges" not in data:
        raise ValueError('edge list JSON must be {"m": int, "edges": [[i, j], ...]}')
    m, edges = data["m"], data["edges"]
    if is_int(m) and m > 0:  # SimpleGraph.make refuses any other m
        check_vertices("parse_graph", m)
    if not isinstance(edges, list):
        raise ValueError("edges must be a list of pairs")
    pairs = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError(f"edge {e!r} is not a pair")
        pairs.append((e[0], e[1]))
    return SimpleGraph.make(m, pairs)


def from_graph6(code: str) -> SimpleGraph:
    code = code.strip()
    if code.startswith(">>graph6<<"):
        code = code[len(">>graph6<<"):]
    if not code:
        raise ValueError("empty graph6 code")
    vals = []
    for ch in code:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise ValueError(f"invalid graph6 character {ch!r}")
        vals.append(o - 63)
    if vals[0] == 63:
        raise ValueError("graph6 codes with more than 62 vertices are not supported")
    m = vals[0]
    if m < 1:
        raise ValueError("graph6 code must have at least one vertex")
    nbits = m * (m - 1) // 2
    bits = [(v >> shift) & 1 for v in vals[1:] for shift in range(5, -1, -1)]
    if len(bits) < nbits or any(bits[nbits:]):
        raise ValueError("graph6 bit payload has the wrong length")
    pairs = ((i, j) for j in range(2, m + 1) for i in range(1, j))  # column by column
    return SimpleGraph.make(m, [pair for pair, bit in zip(pairs, bits) if bit])


def to_graph6(graph: SimpleGraph) -> str:
    if graph.m > 62:
        raise ValueError("graph6 codes with more than 62 vertices are not supported")
    # 0-based pair (i, j), i < j, is bit j(j-1)/2 + i of the payload, most significant first
    top = 6 * -(-graph.m * (graph.m - 1) // 12) - 1
    val = 0
    for j, a in enumerate(graph.adj):
        for i in range(j):
            if a >> i & 1:
                val |= 1 << (top - j * (j - 1) // 2 - i)
    return chr(graph.m + 63) + "".join(chr((val >> s & 63) + 63) for s in range(top - 5, -1, -6))


def canonical_form(graph: SimpleGraph) -> str:
    """Lexicographically least upper-triangular adjacency bit string.

    The minimum runs over all vertex relabelings, with pairs ordered
    (1,2),(1,3),...,(1,m),(2,3),... so equal strings mean isomorphic graphs.

    Row p of the string is the adjacency of the vertex at position p to the
    positions after it. The search (after McKay & Piperno, *Practical graph
    isomorphism, II*, 2014) places one vertex per level and keeps the
    unplaced vertices as an ordered partition whose cells fill consecutive
    positions; the vertices of a cell agree on every placed vertex, so the
    rows written so far do not depend on the order inside a cell. Placing v
    from the first cell splits every cell into non-neighbours of v, then
    neighbours, which gives v its least row. A level keeps only the
    partitions reached with the least row over all candidates, and each of
    them once: the rest of the string depends on the partition alone.

    Once v is tried, its twins are skipped (see ``_twin_classes``): a twin
    u shares v's cell, and the automorphism (u v) fixes every placed vertex
    and carries the partition reached by placing v, and its row, onto the
    one reached by placing u, so the least string is unchanged.
    """
    check_vertices("canonical_form", graph.m)
    m, adj = graph.m, graph.adj
    twins = _twin_classes(m, adj)
    partitions = {((1 << m) - 1,)}
    rows = []
    for width in range(m - 1, 0, -1):
        best, kept = None, set()
        for cells in partitions:
            first, later = cells[0], cells[1:]
            left = first
            while left:
                bit = left & -left
                v = bit.bit_length() - 1
                left &= ~twins[v]
                adj_v = adj[v]
                row, split = 0, []
                for cell in (first ^ bit,) + later:
                    near = cell & adj_v
                    far = cell ^ near
                    row = (row << cell.bit_count()) | ((1 << near.bit_count()) - 1)
                    if far:
                        split.append(far)
                    if near:
                        split.append(near)
                if best is None or row < best:
                    best, kept = row, {tuple(split)}
                elif row == best:
                    kept.add(tuple(split))
        partitions = kept
        rows.append(format(best, f"0{width}b"))
    return "".join(rows)


def _twin_classes(m: int, adj: list) -> list:
    """twins[v]: the bitmask of the twin class of bit v.

    u and v are twins when adj[u] - {v} == adj[v] - {u}, so that the
    transposition (u v) is an automorphism: non-adjacent twins have equal
    neighbourhoods, adjacent twins equal closed ones. Twins of twins are
    twins (a vertex never has both an adjacent and a non-adjacent twin), so
    the classes partition the vertices, each class is v's group under one of
    the two keys, and every permutation inside a class is an automorphism."""
    groups: dict = {}  # closed neighbourhoods keyed complemented, below every open key
    for v in range(m):
        for key in (adj[v], ~(adj[v] | 1 << v)):
            groups[key] = groups.get(key, 0) | 1 << v
    return [groups[adj[v]] | groups[~(adj[v] | 1 << v)] for v in range(m)]


def graph_from_canonical(m: int, form: str) -> SimpleGraph:
    """The graph that a canonical_form string encodes; its pairs are valid by construction."""
    check_vertices("canonical_form", m)
    if len(form) != m * (m - 1) // 2:
        raise ValueError("canonical string length does not match vertex count")
    adj = [0] * m
    for (i, j), bit in zip(combinations(range(m), 2), form):
        if bit == "1":
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return SimpleGraph(m, tuple(adj))


def enumerate_graphs(n: int) -> list:
    """One representative per isomorphism class on n vertices, sorted by canonical string.

    Builds up from n-1 vertices by attaching a new vertex to a neighbor set
    of each (n-1)-vertex class (see ``_children``), and keeps a child only
    when its new vertex is a canonical deletion: a vertex of greatest
    invariant whose deletion has the least canonical string (see
    ``_accepts``; McKay, *Isomorph-free exhaustive generation*, 1998).
    Only kept children get a canonical form.

    Every class is kept. Delete a canonical deletion w from an n-vertex
    graph G: G - w is isomorphic to some (n-1)-vertex class, and that
    class's children include a copy of G whose new vertex is the image of
    w. The invariant and the deletion strings are carried along by the
    isomorphism, so that child is kept. Each class is kept from one parent
    class: the least deletion string over the vertices of greatest
    invariant depends on the class alone, and a kept child's parent has
    that string. One parent can still make a class twice, from neighbour
    sets related by an automorphism that is not a twin permutation; the
    set of forms drops those copies.
    """
    check_vertices("enumerate_graphs", n)
    reps = {canonical_form(SimpleGraph(1, (0,)))}
    for size in range(2, n + 1):
        next_reps = set()
        for form in reps:
            for child in _children(graph_from_canonical(size - 1, form).adj):
                if _accepts(child, form):
                    next_reps.add(canonical_form(SimpleGraph(size, child)))
        reps = next_reps
    return [graph_from_canonical(n, form) for form in sorted(reps)]


def _children(base: tuple):
    """The masks of base plus a new last vertex, one child per neighbour set.

    Only the sets that take a prefix (the lowest-numbered vertices) of each
    twin class are tried: permuting inside the classes, an automorphism of
    the base, turns any set into one of these and fixes the new vertex. A
    child is the base's masks with the new vertex's bit set on each chosen
    row, and the set itself as the new vertex's mask.
    """
    m, bit = len(base), 1 << len(base)
    masks = {0}
    for cls in set(_twin_classes(m, base)):
        # cls & ((1 << b) - 1) runs over the prefixes of cls
        masks = {mask | (cls & ((1 << b) - 1)) for mask in masks for b in range(m + 1)}
    for mask in masks:
        yield (*[a | bit if mask >> v & 1 else a for v, a in enumerate(base)], mask)


def _accepts(adj: tuple, form: str) -> bool:
    """Whether the last vertex of adj is a canonical deletion, given form,
    the canonical string of adj without it.

    The invariant of a vertex is its degree, then the sum of its
    neighbours' degrees. The new vertex is rejected if another vertex has a
    greater invariant and accepted if every other has a smaller one. On a
    tie it is accepted when no tied vertex's deletion has a canonical string
    below form. A tied twin of the new vertex needs no canonical form: the
    swap of the two carries one deletion onto the other.
    """
    new = len(adj) - 1
    deg = list(map(int.bit_count, adj))
    top = deg[new]
    if max(deg) > top:
        return False
    tied = [v for v in range(new) if deg[v] == top]
    if not tied:
        return True
    score = [sum([d for u, d in enumerate(deg) if adj[v] >> u & 1]) for v in tied]
    top = sum([d for u, d in enumerate(deg) if adj[new] >> u & 1])
    if max(score) > top:
        return False
    for v, s in zip(tied, score):
        if s == top and (adj[v] ^ adj[new]) & ~(1 << v | 1 << new):  # v is no twin of the new vertex
            rest = SimpleGraph(new + 1, adj).induced(tuple(u for u in range(1, new + 2) if u != v + 1))
            if canonical_form(SimpleGraph(new, rest)) < form:
                return False
    return True
