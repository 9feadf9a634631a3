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
greedy sweep in lexicographic order keeps the first rank-extending subset,
one block of constant multidegree at a time, in the CoordinateSolver that
later solves the brackets landing in that block. The sweep records the
coordinates of [u, v] whenever u and v are both basis elements, so the
structure constants expand and solve only the pairs that are not standard
factorizations. An independent dimension count from the clique polynomial
of the complement cross-checks the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import InternalInvariantError, invariant_error
from .graphs import SimpleGraph, to_graph6
from .liealg import BasisLabel, GradedLieAlgebra
from .limits import check_dim
from .linalg import CoordinateSolver


class TraceContext:
    """Commutation masks of a graph plus a normal form memo, shared by every caller.

    Every normal form is made by one routine, _place, which inserts letters
    into a normal form one at a time: normal_form starts from the empty
    word, and commutator puts one key of an expansion into another.
    """

    def __init__(self, graph: SimpleGraph):
        self.graph = graph
        self.m = graph.m
        # bit b of blocks[a] is set when b does not commute with a (a included)
        self.blocks = (0,) + tuple(
            sum(1 << b for b in range(1, graph.m + 1) if b == a or graph.adjacent(a, b))
            for a in range(1, graph.m + 1)
        )
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


_context = lru_cache(maxsize=128)(TraceContext)


def trace_normal_form(word, graph: SimpleGraph) -> tuple:
    return _context(graph).normal_form(tuple(word))


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


def bracket_word_leaves(tree) -> tuple:
    if isinstance(tree, int):
        return (tree,)
    return bracket_word_leaves(tree[0]) + bracket_word_leaves(tree[1])


def bracket_word_label(tree) -> str:
    if isinstance(tree, int):
        return f"v{tree}"
    return f"[{bracket_word_label(tree[0])},{bracket_word_label(tree[1])}]"


def multidegree_of_leaves(leaves, m: int) -> tuple:
    md = [0] * m
    for v in leaves:
        md[v - 1] += 1
    return tuple(md)


def expand_bracket_word(tree, graph: SimpleGraph, k: int) -> dict:
    """Word expansion of a bracket word, as {normal form: coefficient}, made leaf by leaf."""
    leaves = bracket_word_leaves(tree)
    if len(leaves) > k:
        raise ValueError(f"bracket word of degree {len(leaves)} exceeds the bound k={k}")
    for v in leaves:
        if not (isinstance(v, int) and 1 <= v <= graph.m):
            raise ValueError(f"leaf {v!r} is not a vertex of the graph")
    ctx = _context(graph)

    def rec(node):
        if isinstance(node, int):
            return {(node,): 1}
        return ctx.commutator(rec(node[0]), rec(node[1]))

    return rec(tree)


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


def clique_polynomial(graph: SimpleGraph) -> list:
    """Coefficients [c_0, c_1, ...] counting cliques of each size (c_0 = 1)."""
    counts = [1]
    verts = range(1, graph.m + 1)
    for size in verts:
        found = sum(
            all(graph.adjacent(a, b) for a, b in combinations(subset, 2))
            for subset in combinations(verts, size)
        )
        if not found:
            break
        counts.append(found)
    return counts


def dimension_oracle(graph: SimpleGraph, k: int) -> list:
    """Per-degree dimensions for degrees 1..k, independent of any basis.

    The generating series of the trace monoid of the complement is
    1 / C(-t) with C the clique polynomial of the complement; writing
    log(1 / C(-t)) = sum q_n t^n, the dimensions satisfy
    n q_n = sum_{d | n} d l_d and Moebius inversion recovers l_d.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cpoly = clique_polynomial(graph.complement())
    # a_n = coefficient of t^n in C(-t); s = 1 / C(-t) from a * s = 1
    a = [((-1) ** n) * c for n, c in enumerate(cpoly)]
    s = [1] + [0] * k
    for n in range(1, k + 1):
        s[n] = -sum(a[i] * s[n - i] for i in range(1, min(n, len(a) - 1) + 1))
    # n q_n from the log derivative recurrence n s_n = sum j q_j s_{n-j}
    nq = [0] * (k + 1)
    for n in range(1, k + 1):
        nq[n] = n * s[n] - sum(nq[j] * s[n - j] for j in range(1, n))
    dims = []
    for d in range(1, k + 1):
        acc = sum(_mobius(d // e) * nq[e] for e in range(1, d + 1) if d % e == 0)
        if acc % d != 0 or acc < 0:
            raise invariant_error(
                "dimension count is not a nonnegative integer", to_graph6(graph), k, "dimension count"
            )
        dims.append(acc // d)
    return dims


@dataclass(eq=False)
class BasisElement:
    index: int
    degree: int
    word: tuple
    tree: object
    multidegree: tuple
    expansion: dict

    @property
    def label(self) -> str:
        return bracket_word_label(self.tree)


@dataclass(eq=False)
class GradedBasis:
    graph: SimpleGraph
    k: int
    dims: tuple
    elements: list
    # (degree, md) -> (word -> column, element index per solver row, CoordinateSolver);
    # a block has at most m ** degree words, which is the solver's offset
    blocks: dict
    # (u, v) -> {element index: coefficient} of [e_u, e_v], for each candidate
    # whose standard factors are the basis elements u and v; {} when it is zero
    brackets: dict

    def elements_of_degree(self, degree: int) -> list:
        return [e for e in self.elements if e.degree == degree]

    def multidegrees_of_degree(self, degree: int) -> list:
        return sorted(e.multidegree for e in self.elements_of_degree(degree))


def graded_basis(graph: SimpleGraph, k: int) -> GradedBasis:
    """Greedy homogeneous basis with Lyndon word labels, degree by degree."""
    if k < 1:
        raise ValueError("k must be at least 1")
    oracle = dimension_oracle(graph, k)
    check_dim(oracle)
    ctx = _context(graph)
    made: dict = {}  # Lyndon word -> (tree, expansion, element index or None)
    elements = []
    blocks: dict = {}
    brackets: dict = {}
    # by length, then lexicographically: the factors of a word come before it
    for word in sorted(lyndon_words(graph.m, k), key=len):
        degree, index, coords = len(word), None, {}
        if degree == 1:
            tree, expansion, pair = word[0], {word: 1}, None
        else:
            cut = _standard_cut(word)
            (lt, le, u), (rt, re, v) = made[word[:cut]], made[word[cut:]]
            tree, expansion = (lt, rt), ctx.commutator(le, re)
            pair = None if u is None or v is None else (u, v)
        if expansion:
            md = multidegree_of_leaves(word, graph.m)
            columns, indices, solver = blocks.setdefault(
                (degree, md), ({}, [], CoordinateSolver([], graph.m**degree))
            )
            try:
                coords = solver.add({columns.setdefault(w, len(columns)): c for w, c in expansion.items()})
            except InternalInvariantError as exc:
                raise invariant_error(exc.message, to_graph6(graph), k, "graded basis") from exc
            if len(indices) < solver.size:
                index = len(elements)
                indices.append(index)
                elements.append(BasisElement(index, degree, word, tree, md, expansion))
            coords = {indices[pos]: c for pos, c in coords.items()}
        made[word] = tree, expansion, index
        if pair:
            brackets[pair] = coords
    dims = tuple(sum(e.degree == d for e in elements) for d in range(1, k + 1))
    if list(dims) != oracle:
        raise invariant_error(
            f"greedy basis found {dims} elements by degree, dimension count expects {tuple(oracle)}",
            to_graph6(graph), k, "graded basis against the dimension count",
        )
    return GradedBasis(graph, k, dims, elements, blocks, brackets)


@lru_cache(maxsize=128)
def structure_constants(graph: SimpleGraph, k: int) -> GradedLieAlgebra:
    """The graph Lie algebra as a graded algebra with exact structure constants.

    Brackets the basis sweep recorded are read, negated when the pair comes
    reversed; only the other pairs are expanded and solved here. Results
    are cached per (graph, k); callers must treat them as immutable.
    """
    gb = graded_basis(graph, k)
    ctx = _context(graph)
    where = (to_graph6(graph), k, "structure constants")
    known = {}
    for (u, v), terms in gb.brackets.items():
        known[(u, v) if u < v else (v, u)] = terms if u < v else {l: -c for l, c in terms.items()}
    sc = {}
    for i, ei in enumerate(gb.elements):
        # elements run by degree, so the partners of degree <= k - deg e_i come first
        for j in range(i + 1, sum(gb.dims[: k - ei.degree])):
            terms = known.get((i, j))
            if terms is None:
                terms = _solve_bracket(gb, ctx, ei, gb.elements[j], where)
            if terms:
                sc[(i, j)] = terms
    labels = tuple(BasisLabel(e.label, e.degree, e.multidegree) for e in gb.elements)
    return GradedLieAlgebra(len(gb.elements), sc, gb.dims, labels=labels, k=k)


def _solve_bracket(gb: GradedBasis, ctx: TraceContext, ei, ej, where: tuple) -> dict:
    """{element index: coefficient} of [e_i, e_j], from its expansion and its block's solver."""
    expansion = ctx.commutator(ei.expansion, ej.expansion)
    if not expansion:
        return {}
    md = tuple(a + b for a, b in zip(ei.multidegree, ej.multidegree))
    block = gb.blocks.get((ei.degree + ej.degree, md))
    if block is None:
        raise invariant_error("bracket lands in an empty multidegree block", *where)
    columns, indices, solver = block
    row = {}
    for w, c in expansion.items():
        col = columns.get(w)
        if col is None:
            raise invariant_error("bracket leaves the expected word block", *where)
        row[col] = c
    try:
        terms = solver.solve(row)
    except InternalInvariantError as exc:
        raise invariant_error(exc.message, *where) from exc
    return {indices[pos]: c for pos, c in terms.items()}
