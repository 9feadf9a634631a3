"""Reference checkers that only the tests use.

Each one recomputes a property the package relies on by a slower or more
direct route than the package itself, so the tests can compare the two.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import lcm

from graphlie.basis import TraceContext, _mobius
from graphlie.cohomology import H2Report, delta1_matrix, delta2_matrix
from graphlie.liealg import GradedLieAlgebra
from graphlie.linalg import ONE, ZERO, RatMatrix, axpy, drop_zeros, frac_str, peeled_rank, vec_to_dict
from graphlie.rigidity import certify_2step_witness

# one context per graph, so that its normal form memo outlives a single call
context = lru_cache(maxsize=128)(TraceContext)

P = 2**61 - 1  # a Mersenne prime


def rat_matrix(rows: int, cols: int, data: dict | None = None) -> RatMatrix:
    """A RatMatrix from data, a dict {row: {col: int or Fraction}}, checked and cleaned in place.

    The matrix owns data and its row dicts from here on: zeros and empty
    rows are deleted, and every value replaced by an int over scale, the lcm
    of all denominators. A negative dimension or an index out of range
    raises ValueError, and a value that is not an int or a Fraction (a
    float, even 0.0, or a bool) raises TypeError, so a reference matrix with
    a fault in it is refused, not ranked.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    data = {} if data is None else data
    if not (
        all(map(range(rows).__contains__, data))
        and all(map(range(cols).__contains__, chain.from_iterable(data.values())))
    ):
        raise ValueError(f"an index lies outside the {rows}x{cols} matrix")
    values = list(chain.from_iterable(map(dict.values, data.values())))
    if not set(map(type, values)) <= {int, Fraction}:
        raise TypeError("matrix entries must be ints or Fractions")
    drop_zeros(data)
    scale = lcm(*{v.denominator for v in values})
    for row in data.values():
        for c, v in row.items():
            row[c] = v.numerator * (scale // v.denominator)
    return RatMatrix(rows, cols, data, scale=scale)


def matrix_key(matrix) -> tuple:
    """(rows, cols, {(row, col): value}): what two equal matrices share."""
    return matrix.rows, matrix.cols, dict(matrix.entries)


def adjacent(graph, i: int, j: int) -> bool:
    """Whether vertices i and j (1-based) are adjacent, read off i's mask."""
    return bool(graph.adj[i - 1] >> (j - 1) & 1)


def edge_set(graph) -> frozenset:
    """The pairs (i, j), i < j, of adjacent vertices, read off the graph's non-edges."""
    return frozenset(combinations(range(1, graph.m + 1), 2)).difference(graph.nonedges())


def trace_normal_form(word, graph) -> tuple:
    return context(graph).normal_form(tuple(word))


def listed_clique_counts(graph) -> list:
    """[1, c_1, ...] with every clique listed: each is held as the mask of
    its common neighbours above its largest vertex and extended by each."""
    up = [a >> v + 1 << v + 1 for v, a in enumerate(graph.adj)]
    counts, level = [1], up
    while level:
        counts.append(len(level))
        level = [mask & up[b] for mask in level for b in range(graph.m) if mask >> b & 1]
    return counts


def whole_graph_dimensions(graph, k: int) -> list:
    """Per-degree dimensions for degrees 1..k from every clique of the whole
    graph's complement, each listed: the count before components, the cut at
    t^k and the binomial count of clique extensions."""
    cpoly = listed_clique_counts(graph.complement())
    a = [((-1) ** n) * c for n, c in enumerate(cpoly)]
    s = [1] + [0] * k
    for n in range(1, k + 1):
        s[n] = -sum(a[i] * s[n - i] for i in range(1, min(n, len(a) - 1) + 1))
    nq = [0] * (k + 1)
    for n in range(1, k + 1):
        nq[n] = n * s[n] - sum(nq[j] * s[n - j] for j in range(1, n))
    dims = []
    for d in range(1, k + 1):
        acc = sum(_mobius(d // e) * nq[e] for e in range(1, d + 1) if d % e == 0)
        assert acc % d == 0 and acc >= 0, (graph, k, d)
        dims.append(acc // d)
    return dims


def grading_support_check(algebra: GradedLieAlgebra) -> bool:
    """Every nonzero c_{ij}^l satisfies deg l = deg i + deg j, same for multidegrees."""
    if not isinstance(algebra, GradedLieAlgebra):
        raise ValueError("grading support check needs a graded algebra")
    if algebra.labels is None:
        raise ValueError("grading support check needs labeled basis elements")
    for (i, j), terms in algebra.sc.items():
        degree = algebra.degrees[i] + algebra.degrees[j]
        mi, mj = algebra.labels[i].multidegree, algebra.labels[j].multidegree
        md = tuple(a + b for a, b in zip(mi, mj))
        for l in terms:
            if algebra.degrees[l] != degree or algebra.labels[l].multidegree != md:
                return False
    return True


def complex_identity_holds(algebra) -> bool:
    """delta2 composed with delta1 vanishes (true for any Lie algebra)."""
    return delta2_matrix(algebra).matmul(delta1_matrix(algebra)).is_zero()


def apply_sparse(sigma, x: dict, z: dict) -> dict:
    """sigma(x, z) for a one-pair cocycle, sigma(e_a1, e_a2) = y, on sparse vectors."""
    coef = x.get(sigma.a1, ZERO) * z.get(sigma.a2, ZERO) - x.get(sigma.a2, ZERO) * z.get(sigma.a1, ZERO)
    if not coef:
        return {}
    return {l: coef * c for l, c in enumerate(sigma.y) if c}


def deform_violation(deformed):
    """The first basis triple, over all of them, where either coefficient
    identity of mu + t sigma fails, or None when both hold everywhere."""
    base, sigma = deformed.base, deformed.cocycle
    for (x, y, z) in combinations(range(base.n), 3):
        t1: dict = {}
        t2: dict = {}
        for (p, q, r) in ((x, y, z), (y, z, x), (z, x, y)):
            ep, eq, er = {p: ONE}, {q: ONE}, {r: ONE}
            s_pq = apply_sparse(sigma, ep, eq)
            axpy(t1, ONE, base.bracket_sparse(s_pq, er))
            axpy(t2, ONE, apply_sparse(sigma, s_pq, er))
            axpy(t1, ONE, apply_sparse(sigma, base.bracket_basis(p, q), er))
        if t1 or t2:
            return (x, y, z)
    return None


def two_step_witness_scan(graph, algebra):
    """The k = 2 witness search by the certifier alone: every sorted non-edge
    is certified in turn, and the certificate of the first one accepted is
    returned, or None when there is no edge or no pair is accepted."""
    n = algebra.n
    if not edge_set(graph):
        return None
    for (u, w) in sorted(graph.nonedges()):
        v_vec, w_vec = [ZERO] * n, [ZERO] * n
        v_vec[u - 1] = w_vec[w - 1] = ONE
        z = certify_2step_witness(algebra, v_vec, w_vec)
        if z is not None:
            z_sparse = vec_to_dict(z)
            z_label = None
            if len(z_sparse) == 1:
                (idx, coef), = z_sparse.items()
                if coef == ONE and algebra.labels is not None:
                    z_label = algebra.labels[idx].label
            return {
                "kind": "two_step_witness",
                "v": f"v{u}",
                "w": f"v{w}",
                "v_index": u - 1,
                "w_index": w - 1,
                "z_label": z_label,
                "z": [frac_str(c) for c in z],
            }
    return None


class CochainCoordinates:
    """Index bookkeeping for 1- and 2-cochains on an n-dimensional algebra, from a
    table of pairs: the reference builders index through it, not through the
    package's arithmetic, so each comparison with them checks that arithmetic."""

    def __init__(self, n: int):
        self.n = n
        self.pairs = list(combinations(range(n), 2))
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        self.dim_hom = n * n
        self.dim_two_cochains = len(self.pairs) * n

    def f_coord(self, a: int, b: int) -> int:
        return a * self.n + b

    def sigma_coord(self, a: int, b: int, c: int):
        """Column index and sign of sigma(e_a, e_b) component c; None when a == b."""
        if a == b:
            return None, 0
        if a < b:
            return self.pair_index[(a, b)] * self.n + c, 1
        return self.pair_index[(b, a)] * self.n + c, -1


def ref_delta2(algebra, coords) -> RatMatrix:
    """delta2 from its formula, row (triple x < y < z, output d) of
    [x, s(y,z)] - [y, s(x,z)] + [z, s(x,y)] - s([x,y],z) + s([x,z],y) - s([y,z],x):
    every row of every triple is made, with no center read and no row settled."""
    n = algebra.n
    ad: dict = {}  # lead -> (u, the terms of [e_lead, e_u]) for each nonzero bracket
    for (i, j), terms in algebra.sc.items():
        ad.setdefault(i, []).append((j, terms))
        ad.setdefault(j, []).append((i, {l: -v for l, v in terms.items()}))
    entries: dict = {}
    triples = list(combinations(range(n), 3))
    for t, (x, y, z) in enumerate(triples):
        base = t * n
        for lead, pair, sign in ((x, (y, z), 1), (y, (x, z), -1), (z, (x, y), 1)):
            for u, terms in ad.get(lead, ()):
                for d, v in terms.items():
                    key = (base + d, coords.pair_index[pair] * n + u)
                    entries[key] = entries.get(key, 0) + sign * v
        for pair, arg, sign in (((x, y), z, -1), ((x, z), y, 1), ((y, z), x, -1)):
            for l, v in algebra.sc.get(pair, {}).items():
                for d in range(n):
                    col, s_sign = coords.sigma_coord(l, arg, d)
                    if col is not None:
                        key = (base + d, col)
                        entries[key] = entries.get(key, 0) + sign * s_sign * v
    rows: dict = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    return rat_matrix(len(triples) * n, coords.dim_two_cochains, rows)


def ref_eta2(algebra, coords) -> RatMatrix:
    """eta2 from its formula, row (pair a < b, argument c, output d) of
    [s(e_a, e_b), e_c] + s([e_a, e_b], e_c): every row of every pair and
    argument is made, with no center read and no row settled."""
    n = algebra.n
    ad = {}  # (u, c) -> the terms of [e_u, e_c], both orders
    for (i, j), terms in algebra.sc.items():
        ad[(i, j)] = terms
        ad[(j, i)] = {l: -v for l, v in terms.items()}
    entries: dict = {}
    for p, (a, b) in enumerate(coords.pairs):
        for (u, c), terms in ad.items():
            for d, v in terms.items():
                key = ((p * n + c) * n + d, p * n + u)
                entries[key] = entries.get(key, 0) + v
        for l, v in algebra.sc.get((a, b), {}).items():
            for c in range(n):
                for d in range(n):
                    col, sign = coords.sigma_coord(l, c, d)
                    if col is not None:
                        key = ((p * n + c) * n + d, col)
                        entries[key] = entries.get(key, 0) + sign * v
    rows: dict = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    return rat_matrix(len(coords.pairs) * n * n, coords.dim_two_cochains, rows)


def whole_matrix_h2(algebra) -> H2Report:
    """h2_nil on the whole cochain matrices, every torus weight ranked: the
    computation before twin orbits, with the trivial group and no budget,
    and delta2 and eta2 made row by row by ref_delta2 and ref_eta2. The
    intersection is ranked from the rows of both stacked, not taken to be
    ker eta2, so the flag is computed, not assumed."""
    coords = CochainCoordinates(algebra.n)
    e2 = ref_eta2(algebra, coords)
    d1 = delta1_matrix(algebra)
    assert e2.matmul(d1).is_zero(), "im delta1 is not contained in ker eta2"
    d2 = ref_delta2(algebra, coords)
    cols = coords.dim_two_cochains
    ker_eta2, ker_delta2, image = cols - e2.rank(), cols - d2.rank(), d1.rank()
    meet = cols - peeled_rank([*e2.int_rows(), *d2.int_rows()])
    return H2Report(ker_eta2, ker_delta2, meet, image, meet - image, meet == ker_eta2)


def rank_mod_p(rows) -> int:
    """The rank mod P of integer rows {col: int}, by plain Gaussian elimination.

    Each row is reduced by the stored pivot rows at its least column until it
    is zero or starts a new pivot, scaled to 1 there. It shares no peel, no
    settled column and no reducer with h2_nil. A rank mod a prime is at most
    the rank over Q, and equal to it for all but finitely many primes, so a
    mismatch with h2_nil's rank shows a fault in one of the two.
    """
    pivots: dict = {}  # least column -> the pivot row, 1 at that column
    for row in rows:
        row = {c: v % P for c, v in row.items() if v % P}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(row[lead], -1, P)
                pivots[lead] = {c: v * inverse % P for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                x = (row.get(c, 0) - factor * v) % P
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def closed_form_h2(graph) -> tuple:
    """(dim ker eta2, dim im delta1, h2) of graph's 2-step algebra, read off its masks in O(m^2).

    G has m vertices, |E| edges and |I| isolated vertices, n = m + |E|, and
    dom(G) counts the ordered pairs (c, a), c = a allowed, with
    N(c) <= N[a], N[a] the closed neighbourhood (the vicinal preorder of
    threshold-graph theory, Mahadev & Peled 1995). Then

      dim ker eta2 = |E| n + (C(m,2) - |E|) (|E| + |I|),
      dim im delta1 = n^2 - m |E| - dom(G),

    and h2 is their difference. V is the span of the vertices x_v, W that
    of the edges y_ab = [x_a, x_b], and the center is C = W + span(x_v, v
    isolated).

    eta2: take z in C. Then [s(x, y), z] = 0, so s([x, y], z) = 0 by eta2,
    and s(W, C) = 0. A pair with a zero bracket must map into C. An edge
    pair {a, b} maps anywhere in g, and its value fixes s(y_ab, z) =
    -[s(x_a, x_b), z] for z in V. Every other pair is fixed. That leaves
    |E| edge pairs with n choices each and C(m,2) - |E| non-edge vertex
    pairs with |C| = |E| + |I| choices each.

    delta1: ker delta1 = Der(g). A derivation is a map A: V -> V plus any
    B: V -> W, which gives m |E| dimensions, and Leibniz fixes it on W. A
    non-edge {a, b} forces A_ca = 0 for c in N(b) and A_cb = 0 for c in
    N(a), and nothing more. So A_ca, the x_c coefficient of A(x_a), is free
    exactly when N(c) <= N[a], and dim Der(g) = m |E| + dom(G).
    Rescaled edge elements change no count.
    """
    m, adj = graph.m, graph.adj
    edges, isolated = sum(map(int.bit_count, adj)) // 2, adj.count(0)
    n = m + edges
    ker_eta2 = edges * n + (m * (m - 1) // 2 - edges) * (edges + isolated)
    dom = sum(not adj[c] & ~(adj[a] | 1 << a) for c in range(m) for a in range(m))
    image = n * n - m * edges - dom
    return ker_eta2, image, ker_eta2 - image
