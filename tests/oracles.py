"""Reference checkers that only the tests use.

Each one recomputes a property the package relies on by a slower or more
direct route than the package itself, so the tests can compare the two.
"""

from functools import lru_cache
from itertools import combinations

from graphlie.basis import TraceContext, _mobius, clique_polynomial
from graphlie.cohomology import (
    CochainCoordinates,
    H2Report,
    delta1_matrix,
    delta2_matrix,
    eta2_matrix,
)
from graphlie.liealg import GradedLieAlgebra
from graphlie.linalg import ONE, ZERO, axpy, frac_str, vec_to_dict
from graphlie.rigidity import certify_2step_witness

# one context per graph, so that its normal form memo outlives a single call
context = lru_cache(maxsize=128)(TraceContext)


def trace_normal_form(word, graph) -> tuple:
    return context(graph).normal_form(tuple(word))


def whole_graph_dimensions(graph, k: int) -> list:
    """Per-degree dimensions for degrees 1..k from every clique of the whole
    graph's complement: the count before components and the cut at t^k."""
    cpoly = clique_polynomial(graph.complement())
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
    coords = CochainCoordinates(algebra.n)
    return delta2_matrix(algebra, coords).matmul(delta1_matrix(algebra, coords)).is_zero()


def deform_violation(deformed):
    """The first basis triple, over all of them, where either coefficient
    identity of mu + t sigma fails, or None when both hold everywhere."""
    base, sigma = deformed.base, deformed.cocycle
    for (x, y, z) in combinations(range(base.n), 3):
        t1: dict = {}
        t2: dict = {}
        for (p, q, r) in ((x, y, z), (y, z, x), (z, x, y)):
            ep, eq, er = {p: ONE}, {q: ONE}, {r: ONE}
            s_pq = sigma.apply_sparse(ep, eq)
            axpy(t1, ONE, base.bracket_sparse(s_pq, er))
            axpy(t2, ONE, sigma.apply_sparse(s_pq, er))
            axpy(t1, ONE, sigma.apply_sparse(base.bracket_basis(p, q), er))
        if t1 or t2:
            return (x, y, z)
    return None


def two_step_witness_scan(graph, algebra):
    """The k = 2 witness search by the certifier alone: every sorted non-edge
    is certified in turn, and the certificate of the first one accepted is
    returned, or None when there is no edge or no pair is accepted."""
    n = algebra.n
    if not graph.edges:
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


def whole_matrix_h2(algebra) -> H2Report:
    """h2_nil on the whole cochain matrices, every torus weight ranked: the
    computation before twin orbits, with the trivial group and no budget."""
    coords = CochainCoordinates(algebra.n)
    e2 = eta2_matrix(algebra, coords)
    d1 = delta1_matrix(algebra, coords)
    assert e2.matmul(d1).is_zero(), "im delta1 is not contained in ker eta2"
    eta2 = e2.peeled()
    image = d1.peeled().rank
    delta2 = delta2_matrix(algebra, coords).peeled()
    cols = coords.dim_two_cochains
    ker_eta2, ker_delta2 = cols - eta2.rank, cols - delta2.rank
    meet = cols - eta2.stacked_rank(delta2)
    return H2Report(ker_eta2, ker_delta2, meet, image, meet - image, meet == ker_eta2)
