"""Graded bases and structure constants of k-step nilpotent graph Lie algebras.

The algebra attached to a graph G on vertices 1..m is the free k-step
nilpotent Lie algebra on those generators modulo the brackets of
non-adjacent pairs. Its degree-j slice embeds into the span of length-j
words of the trace monoid in which two letters commute exactly when they
are not adjacent in G, by sending a bracket word to its associative
expansion uv - vu written in lexicographic normal form (Anisimov & Knuth,
1979). Every key of an expansion is a normal form, so the normal form of a
product w1 w2 is w1 with the letters of w2 inserted by int mask tests, not
a rescan of the whole word. Ranks of expansions therefore decide everything.
They run on exact ints; RowReducer divides only at a pivot other than ±1,
which up to k = 4 on 6 vertices never occurs.

Candidates for basis labels are the Lyndon words of length at most k with
their standard bracketings; their images span each slice because they span
the free Lie algebra before the quotient; both factors of w = uv are shorter
Lyndon words, so each expansion is the commutator of two made before it. A
greedy sweep in (length, word) order keeps the first rank-extending subset,
one block of constant multidegree at a time, in the CoordinateSolver that
later solves the brackets landing in that block.

A block depends only on the subgraph induced on its support, the letters it
uses: in the subalgebra those letters generate only the edges among them act
(Duchamp & Krob, Adv. Math. 95, 1992). The order-preserving relabel of the
support onto 1..s keeps lexicographic order, so it carries the Lyndon words,
their factorizations, the normal forms, the word columns, the greedy choice
and every coordinate over unchanged; a canonical relabel would not, since the
Lyndon basis depends on letter order. So each support type (the masks of
the induced subgraph moved onto 1..s, k) is built once per process, holding
only its words that use every letter and the brackets whose factors'
supports cover 1..s, and a graph's basis and structure constants are
assembled from the types of its vertex sets. The sweep records the
coordinates of [u, v] whenever u and v are both basis elements, so only the
other pairs are expanded and solved. An
independent dimension count from the clique polynomials of the components'
complements cross-checks every graph.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from operator import add, or_
from typing import NamedTuple

from .errors import InternalInvariantError, invariant_error
from .graphs import SimpleGraph, to_graph6
from .liealg import BasisLabel, GradedLieAlgebra
from .limits import check_dim
from .linalg import CoordinateSolver


class TraceContext:
    """Commutation masks of a graph plus a normal form memo.

    Every normal form is made by one routine, _place, which inserts letters
    into a normal form one at a time: normal_form starts from the empty
    word, and commutator puts one key of an expansion into another.
    """

    def __init__(self, graph: SimpleGraph):
        self.m = graph.m
        # bit b of blocks[a] is set when b does not commute with a (a included)
        self.blocks = (0,) + tuple((a | 1 << v) << 1 for v, a in enumerate(graph.adj))
        self._cache: dict = {}

    def normal_form(self, word) -> tuple:
        """Lexicographically least representative of the trace class of word."""
        word = tuple(word)
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        for v in word:
            if not 1 <= v <= self.m:
                raise ValueError(f"letter {v} outside alphabet 1..{self.m}")
        return self._place((), word)

    def _place(self, head: tuple, tail: tuple) -> tuple:
        """Normal form of head + tail, for head a normal form; memoized under head + tail.

        Each letter a of tail goes after the last letter it does not commute
        with, then past the smaller letters that follow. A word is a normal
        form when no factor b u c has c < b and c commuting with all of b u
        (Anisimov & Knuth). Placing a makes no such factor: the letters it
        passes are smaller than a, the next one is larger and commutes with
        a, and a factor with a inside it was one before, without a.
        """
        blocks = self.blocks
        out = list(head)
        for a in tail:
            mask = blocks[a]
            i = n = len(out)
            while i and not mask >> out[i - 1] & 1:
                i -= 1
            while i < n and out[i] < a:
                i += 1
            out.insert(i, a)
        result = self._cache[head + tail] = tuple(out)
        return result

    def commutator(self, left: dict, right: dict) -> dict:
        """Expansion of [x, y] from word expansions of x and y.

        This is the hot loop of the k >= 3 path. Each product adds to one
        word and subtracts from another, so the two updates are written out
        here instead of going through linalg.axpy, which would need a
        one-entry dict per product. Every key of an expansion is a normal
        form, so a memo miss places the letters of one into the other.
        """
        cache = self._cache
        place = self._place
        out: dict = {}
        for w1, c1 in left.items():
            for w2, c2 in right.items():
                coef = c1 * c2
                w = cache.get(w1 + w2) or place(w1, w2)
                s = out.get(w, 0) + coef
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
                w = cache.get(w2 + w1) or place(w2, w1)
                s = out.get(w, 0) - coef
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return out


def lyndon_words(m: int, maxlen: int) -> list:
    """All Lyndon words over 1..m of length 1..maxlen, in lexicographic order (Duval)."""
    if m < 1 or maxlen < 1:
        return []
    out = []
    w = [1]
    while w:
        out.append(tuple(w))
        size = len(w)
        while len(w) < maxlen:
            w.append(w[len(w) - size])
        while w and w[-1] == m:
            w.pop()
        if w:
            w[-1] += 1
    return out


def _standard_cut(word: tuple) -> int:
    return min(range(1, len(word)), key=lambda s: word[s:])


def standard_bracketing(word):
    """Right standard factorization: w = uv with v the least proper suffix."""
    word = tuple(word)
    if len(word) == 1:
        return word[0]
    cut = _standard_cut(word)
    return (standard_bracketing(word[:cut]), standard_bracketing(word[cut:]))


def bracket_word_label(tree, leaf: str = "v{}") -> str:
    if isinstance(tree, int):
        return leaf.format(tree)
    return f"[{bracket_word_label(tree[0], leaf)},{bracket_word_label(tree[1], leaf)}]"


def multidegree_of_leaves(leaves, m: int) -> tuple:
    md = [0] * m
    for v in leaves:
        md[v - 1] += 1
    return tuple(md)


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


def clique_polynomial(graph: SimpleGraph, top: int | None = None) -> list:
    """Coefficients [c_0, c_1, ...] counting cliques of each size (c_0 = 1), up to top >= 1 if given.

    A clique is held as the mask of its common neighbours above its largest
    vertex and extended by each of them, so each clique is made once, or,
    when that mask is itself a clique, its extensions are counted by binomials."""
    m, top = graph.m, top or graph.m
    up = [a >> v + 1 << v + 1 for v, a in enumerate(graph.adj)]
    counts, level, size = [1] + [0] * top, up, 1
    while level:
        counts[size] += len(level)
        if size >= top - 1:  # at top - 1, each bit of a mask is one clique of size top
            counts[top] += sum(map(int.bit_count, level)) if size < top else 0
            break
        grown = []
        for mask in level:
            if mask & (mask - 1):  # two or more candidates
                kids = [mask & up[b] for b in range(m) if mask >> b & 1]
                if sum(map(int.bit_count, kids)) < comb(len(kids), 2):
                    grown += kids
                else:  # the candidates are a clique, so each subset of them extends it
                    for j in range(1, min(len(kids), top - size) + 1):
                        counts[size + j] += comb(len(kids), j)
            elif mask:
                counts[size + 1] += 1
        level, size = grown, size + 1
    return counts[: max(j for j, c in enumerate(counts) if c) + 1]


def dimension_oracle(graph: SimpleGraph, k: int) -> list:
    """Per-degree dimensions for degrees 1..k, independent of any basis.

    The algebra of a disjoint union is the direct sum of the algebras of its
    parts, so each connected component is counted on its own; an isolated
    vertex adds one element of degree 1 and runs no series, and the series
    runs once per component type (its induced masks). For a component, the
    generating series of the trace monoid of its complement is 1 / C(-t)
    with C the clique polynomial of the complement. With a = C(-t), of
    degree w, the log derivative of log(1 / a) = sum q_n t^n gives
    n q_n = -n a_n - sum_{n-w <= j < n} j q_j a_{n-j}, and the dimensions
    satisfy n q_n = sum_{d | n} d l_d, which Moebius inversion solves for
    l_d. The series is cut at t^k, so only the cliques of at most k vertices
    are listed, and it costs O(k w) products.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    dims = [0] * k
    counted: dict = {}  # component type -> its dimensions
    for component in graph.components():
        if len(component) == 1:
            dims[0] += 1
            continue
        masks = graph.induced(component)
        if masks not in counted:
            cpoly = clique_polynomial(SimpleGraph(len(masks), masks).complement(), k)
            w = len(cpoly) - 1
            a = [(-1) ** n * c for n, c in enumerate(cpoly)] + [0] * k
            nq = [0] * (k + 1)  # n q_n
            for n in range(1, k + 1):
                nq[n] = -n * a[n] - sum(nq[j] * a[n - j] for j in range(max(1, n - w), n))
            acc = [0] * (k + 1)  # d l_d, each e adding to its multiples d
            for e in range(1, k + 1):
                for d in range(e, k + 1, e):
                    acc[d] += _mobius(d // e) * nq[e]
            counted[masks] = out = []
            for d in range(1, k + 1):
                if acc[d] % d != 0 or acc[d] < 0:
                    raise invariant_error(
                        "dimension count is not a nonnegative integer", to_graph6(graph), k, "dimension count"
                    )
                out.append(acc[d] // d)
        dims = list(map(add, dims, counted[masks]))
    return dims


def _relabel(word: tuple, letters: tuple) -> tuple:
    return tuple(map(letters.__getitem__, word))


def _supports(graph: SimpleGraph, top: int) -> list:
    """(vertices, the masks of the subgraph they induce moved onto 1..s) of each connected set of s <= top vertices.

    A disconnected set adds no element or bracket. Each connected set is one
    a vertex smaller plus a neighbour; each size comes in lexicographic order.
    """
    out, level = [], {1 << v for v in range(graph.m)}
    for size in range(1, top + 1):
        subs = sorted((tuple(v + 1 for v in range(graph.m) if mask >> v & 1), mask) for mask in level)
        out += [(sub, graph.induced(sub)) for sub, _ in subs]
        if size < top:
            level = set()
            for sub, mask in subs:
                near = reduce(or_, (graph.adj[v - 1] for v in sub)) & ~mask
                level.update(mask | 1 << w for w in range(graph.m) if near >> w & 1)
    return out


class _SupportType(NamedTuple):
    """What the words that use every letter add to the algebra of a graph on 1..s.

    made: Lyndon word -> (expansion, (1..s, position) or None); kept: (word,
    label template) by position; brackets: (A, a, B, b, {position: c}) when
    supports number A and B of _subsets(1..s) cover 1..s, the a-th element
    of A's type preceding the b-th of B's in (length, word) order.
    """

    made: dict
    kept: list
    brackets: list


def _subsets(letters: tuple) -> list:
    """The nonempty subsets of letters by size, then lexicographically; a relabel keeps the order."""
    return [sub for size in range(1, len(letters) + 1) for sub in combinations(letters, size)]


@lru_cache(maxsize=2048)
def _support_type(adj: tuple, k: int) -> _SupportType:
    """One support type, built once per process; words on fewer letters come from their own types."""
    graph = SimpleGraph(len(adj), adj)
    ctx, s = TraceContext(graph), graph.m
    made = {}  # Lyndon word on 1..s -> (expansion, (support, position) or None)
    for sub, masks in _supports(graph, s - 1):
        letters = (0,) + sub
        for word, (expansion, ref) in _support_type(masks, k).made.items():
            relabelled = {_relabel(w, letters): c for w, c in expansion.items()}
            made[_relabel(word, letters)] = relabelled, ref and (sub, ref[1])
    kept, blocks, known = [], {}, {}
    # by length, then lexicographically: the factors of a word come before it
    for word in sorted((w for w in lyndon_words(s, k) if len(set(w)) == s), key=len):
        if len(word) == 1:
            expansion, pair = {word: 1}, None
        else:
            cut = _standard_cut(word)
            u, v = made.get(word[:cut]), made.get(word[cut:])
            if u is None or v is None:
                continue  # a factor vanishes, so the word does
            expansion = ctx.commutator(u[0], v[0])
            pair = u[1] and v[1] and (word[:cut], word[cut:])
        coords, ref = {}, None
        if expansion:
            columns, indices, solver = blocks.setdefault(
                multidegree_of_leaves(word, s), ({}, [], CoordinateSolver(s ** len(word)))
            )
            try:
                coords = solver.add({columns.setdefault(w, len(columns)): c for w, c in expansion.items()})
            except InternalInvariantError as exc:
                raise InternalInvariantError(exc.message, "graded basis") from exc
            if len(indices) < solver.size:
                ref = tuple(range(1, s + 1)), len(kept)
                indices.append(len(kept))
                kept.append((word, bracket_word_label(standard_bracketing(word), "v{{{}}}")))
            coords = {indices[p]: c for p, c in coords.items()}
            made[word] = expansion, ref
        if pair:
            known[pair], known[pair[::-1]] = coords, {l: -c for l, c in coords.items()}
    groups: dict = {}  # support -> (word, position, expansion) of its basis elements below degree k
    for word, (expansion, ref) in made.items():
        if ref and len(word) < k:
            groups.setdefault(ref[0], []).append((word, ref[1], expansion))
    brackets, number = [], {sub: n for n, sub in enumerate(_subsets(tuple(range(1, s + 1))))}
    for a_sup, xs in groups.items():
        for b_sup, ys in groups.items():
            if len(set(a_sup + b_sup)) == s:
                for x, a, ex in xs:
                    for y, b, ey in ys:
                        if len(x) + len(y) <= k and (len(x), x) < (len(y), y):
                            terms = known.get((x, y))
                            if terms is None:
                                terms = _solve_bracket(ctx, blocks, x + y, ex, ey)
                            if terms:
                                brackets.append((number[a_sup], a, number[b_sup], b, terms))
    own = {w: entry for w, entry in made.items() if len(set(w)) == s}
    return _SupportType(own, kept, brackets)


def _solve_bracket(ctx: TraceContext, blocks: dict, leaves: tuple, left: dict, right: dict) -> dict:
    """{position: coefficient} of the bracket of two expansions, from its block's solver."""
    expansion = ctx.commutator(left, right)
    if not expansion:
        return {}
    try:
        columns, indices, solver = blocks[multidegree_of_leaves(leaves, ctx.m)]
        row = {columns[w]: c for w, c in expansion.items()}
    except KeyError:
        raise InternalInvariantError("bracket leaves its block", "structure constants") from None
    try:
        terms = solver.solve(row)
    except InternalInvariantError as exc:
        raise InternalInvariantError(exc.message, "structure constants") from exc
    return {indices[pos]: c for pos, c in terms.items()}


class BasisElement:
    """A basis element: its Lyndon word on the graph's vertices and its bracket label.

    The word expansion is read off the support type the element comes
    from, through the order-preserving relabel of its support.
    """

    __slots__ = ("index", "degree", "word", "multidegree", "label", "_source")

    def __init__(self, index: int, word: tuple, multidegree: tuple, label: str, source: tuple):
        self.index, self.degree, self.word = index, len(word), word
        self.multidegree, self.label, self._source = multidegree, label, source

    @property
    def tree(self):
        return standard_bracketing(self.word)

    @property
    def expansion(self) -> dict:
        entry, local, letters = self._source
        return {_relabel(w, letters): c for w, c in entry.made[local][0].items()}


class GradedBasis:
    """graph's basis up to degree k: dims by degree, elements in (length, word) order,
    and supports, each set of at most k vertices -> (its support type, the element
    index of each type position). Equal only to itself."""

    __slots__ = ("graph", "k", "dims", "elements", "supports")

    def __init__(self, graph: SimpleGraph, k: int, dims: tuple, elements: list, supports: dict):
        self.graph, self.k, self.dims, self.elements, self.supports = graph, k, dims, elements, supports


def graded_basis(graph: SimpleGraph, k: int) -> GradedBasis:
    """Lyndon-word basis in (length, word) order, assembled from the support types of graph."""
    if k < 1:
        raise ValueError("k must be at least 1")
    oracle = dimension_oracle(graph, k)
    check_dim(oracle)
    try:
        supports = {sub: (_support_type(masks, k), []) for sub, masks in _supports(graph, k)}
    except InternalInvariantError as exc:
        raise invariant_error(exc.message, to_graph6(graph), k, exc.phase) from exc
    found = []  # (degree, word, then what the element needs); words are distinct
    for sub, (entry, indices) in supports.items():
        letters = (0,) + sub
        found += [(len(w), _relabel(w, letters), w, t, letters, entry, indices) for w, t in entry.kept]
    found.sort()
    elements = []
    for index, (_, word, local, template, letters, entry, indices) in enumerate(found):
        indices.append(index)  # positions of one support come in order
        md = multidegree_of_leaves(word, graph.m)
        elements.append(BasisElement(index, word, md, template.format(*letters), (entry, local, letters)))
    dims = tuple(sum(f[0] == d for f in found) for d in range(1, k + 1))
    if list(dims) != oracle:
        raise invariant_error(
            f"greedy basis found {dims} elements by degree, dimension count expects {tuple(oracle)}",
            to_graph6(graph), k, "graded basis against the dimension count",
        )
    return GradedBasis(graph, k, dims, elements, supports)


@lru_cache(maxsize=1)
def structure_constants(graph: SimpleGraph, k: int) -> GradedLieAlgebra:
    """The graph Lie algebra as a graded algebra with exact structure constants.

    A bracket of degree at most k lands in the block of the union of its
    factors' supports, so the relabelled brackets of the support types give
    every constant. The last result is cached: only consecutive calls on
    the same (graph, k), such as classify and then h2_nil, re-read it, and
    a sweep never does. Callers must treat it as immutable.
    """
    gb = graded_basis(graph, k)
    sc = {}
    for sub, (entry, here) in gb.supports.items():
        # a disconnected part is no support: it has no elements
        index = [gb.supports.get(part, (None, ()))[1] for part in _subsets(sub)]
        for a_part, a, b_part, b, terms in entry.brackets:
            sc[index[a_part][a], index[b_part][b]] = {here[q]: c for q, c in terms.items()}
    labels = tuple(BasisLabel(e.label, e.degree, e.multidegree) for e in gb.elements)
    return GradedLieAlgebra(len(gb.elements), dict(sorted(sc.items())), gb.dims, labels=labels, k=k)
