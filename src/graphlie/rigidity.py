"""Deformation witnesses and the rigidity classification.

A deformation cocycle sigma is supported on a single pair of degree-one
basis directions a1, a2 with value y: sigma(a1, a2) = y and sigma vanishes
whenever either argument lies in the complementary subalgebra h spanned by
the remaining basis vectors. When h is a subalgebra and y centralizes h,
mu + t sigma is a Lie bracket for every t. deform_check runs the Jacobi
check of liealg on mu + t sigma at t = 1 and t = 2, which decides every t.

Witness shapes:

  graded (k >= 3)   the first sorted non-edge {a1, a2} and y = ad_u^{k-1} w
                    for an edge u - w with u outside {a1, a2}, a degree-k
                    basis element outside [g', g'] + [a1, g'] + [a2, g'].
                    [g', g'] misses y's multidegree, so the search reduces
                    only the [a1, e_j], [a2, e_j] there; the certifier
                    rebuilds the span itself.
  two-step (k = 2)  the first sorted non-edge {v, w} that some edge avoids,
                    or the first non-edge if a vertex is isolated: [v, g] +
                    [w, g] spans the edges at v or w, so it misses that edge
                    or vertex in the center. z is the first central basis
                    vector outside the span; the pair is certified once.

classify runs, in order: the abelian shortcut, the abelian-factor
shortcut, the witness search, the cohomological criterion h2 = 0 (only
meaningful for k = 2), and the complete-graph citation, before giving up
with unknown. A not_rigid verdict together with h2 = 0, whenever both are
computed, is a contradiction and aborts.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .basis import dimension_oracle, structure_constants
from .cohomology import H2Report, h2_nil
from .errors import InternalInvariantError, invariant_error
from .graphs import SimpleGraph, enumerate_graphs, to_graph6
from .liealg import GradedLieAlgebra, LieAlgebra, center, is_at_most_two_step, jacobi_report
from .limits import check_k, check_vertices
from .linalg import ONE, ZERO, RowReducer, axpy, frac, frac_str, vec_to_dict


class DeformationCocycle(NamedTuple):
    n: int
    a1: int
    a2: int
    y: tuple


class DeformedAlgebra(NamedTuple):
    base: LieAlgebra
    cocycle: DeformationCocycle

    def at_t(self, t) -> LieAlgebra:
        """Materialize mu + t sigma at a concrete rational t."""
        t = frac(t)
        sc = {pair: dict(terms) for pair, terms in self.base.sc.items()}
        a1, a2 = self.cocycle.a1, self.cocycle.a2
        key = (min(a1, a2), max(a1, a2))
        sign = 1 if a1 < a2 else -1
        axpy(sc.setdefault(key, {}), sign * t, vec_to_dict(self.cocycle.y))
        return LieAlgebra(self.base.n, sc, k=self.base.k)


def _check_directions(algebra: GradedLieAlgebra, a1: int, a2: int, y) -> None:
    """ValueError unless a1, a2 are distinct degree-one directions and y is a vector."""
    if not isinstance(algebra, GradedLieAlgebra):
        raise ValueError("witness directions need a graded algebra")
    if a1 == a2:
        raise ValueError("the two directions must be distinct")
    for a in (a1, a2):
        if not 0 <= a < algebra.n or algebra.degrees[a] != 1:
            raise ValueError(f"index {a} is not a degree-one basis direction")
    if len(y) != algebra.n:
        raise ValueError("y must be a vector of the algebra")


def build_sigma(algebra: GradedLieAlgebra, a1: int, a2: int, y) -> DeformationCocycle:
    """Validated deformation cocycle supported on two degree-one directions."""
    _check_directions(algebra, a1, a2, y)
    n = algebra.n
    y = tuple(frac(c) for c in y)
    for (i, j), terms in algebra.sc.items():
        if i not in (a1, a2) and j not in (a1, a2) and (a1 in terms or a2 in terms):
            raise ValueError("the complementary span is not a subalgebra")
    y_sparse = vec_to_dict(y)
    if any(algebra.bracket_sparse(y_sparse, {h: ONE}) for h in range(n) if h not in (a1, a2)):
        raise ValueError("y does not centralize the complementary subalgebra")
    return DeformationCocycle(n, a1, a2, y)


class DeformCheckResult(NamedTuple):
    ok: bool
    violation: tuple | None

    def __bool__(self) -> bool:
        return self.ok


def deform_check(deformed: DeformedAlgebra) -> DeformCheckResult:
    """mu + t sigma is a Lie bracket for every t, checked by jacobi_report at t = 1 and 2.

    Write sigma(u, v) = w(u, v) y with w = a1* ^ a2*. The cyclic sum of
    sigma(sigma(x, x'), z) is w(y, s) y with s = w(x, x') z + w(x', z) x
    + w(z, x) x', and s has no (a1, a2) component, since that identity
    holds for any three vectors of a plane. So the t^2 term of the
    Jacobiator vanishes, which leaves J = J_mu + t J_1 on every triple:
    zero for all t exactly when zero at t = 1 and t = 2. jacobi_report is
    exact at each t for any bracket table, so no assumption on mu is made;
    the violation is the first triple that fails at either point.
    """
    firsts = [bad[0] for t in (1, 2) if (bad := jacobi_report(deformed.at_t(t)))]
    return DeformCheckResult(not firsts, min(firsts, default=None))


def certify_graded_witness(algebra: GradedLieAlgebra, a1: int, a2: int, y) -> bool:
    """Degree-k witness conditions: [a1,a2] = 0, y in the top slice, and
    y outside [g',g'] + [a1,g'] + [a2,g'].

    The span is that of the stored brackets (i, j) with deg i >= 2, or deg
    j >= 2 and i in (a1, a2). Only the rows joined to y's columns through
    shared columns are reduced, grown to a fixed point: the span splits
    along those components, so the test is exact for any input."""
    _check_directions(algebra, a1, a2, y)
    k = len(algebra.grading)
    if k < 3:
        raise ValueError("graded witnesses need k >= 3")
    y_sparse = vec_to_dict(y)
    if not y_sparse:
        return False
    if algebra.bracket_basis(a1, a2):
        return False
    top, degrees = set(algebra.degree_block(k)), algebra.degrees
    if not top.issuperset(y_sparse):
        return False
    rows = [
        terms for (i, j), terms in algebra.sc.items()
        if degrees[i] >= 2 or (degrees[j] >= 2 and i in (a1, a2))
    ]
    cols, joined = set(y_sparse), []
    while near := [row for row in rows if not cols.isdisjoint(row)]:
        rows = [row for row in rows if cols.isdisjoint(row)]
        joined += near
        cols.update(*near)
    return not RowReducer(joined).contains(y_sparse)


def certify_2step_witness(algebra: LieAlgebra, v, w):
    """For an at most 2-step algebra: if [v,w] = 0 and [v,g] + [w,g] misses
    part of the center, return the first central basis vector outside the
    span, else None. v and w must be independent modulo the center."""
    if not is_at_most_two_step(algebra):
        raise ValueError("two-step witnesses need an at most 2-step algebra")
    n = algebra.n
    if len(v) != n or len(w) != n:
        raise ValueError("witness vectors must match the algebra dimension")
    v_sparse, w_sparse = vec_to_dict(v), vec_to_dict(w)
    z_sub = center(algebra)
    if RowReducer(z_sub.rows_sorted() + [v_sparse, w_sparse]).rank != z_sub.rank + 2:
        raise ValueError("witness vectors are dependent modulo the center")
    if algebra.bracket_sparse(v_sparse, w_sparse):
        return None
    rows = []
    for i in range(n):
        for x in (v_sparse, w_sparse):
            out = algebra.bracket_sparse(x, {i: ONE})
            if out:
                rows.append(out)
    span = RowReducer(rows)
    for row in span.rows_sorted():
        if not z_sub.contains(row):
            raise InternalInvariantError("bracket image escapes the center")
    if span.rank >= z_sub.rank:
        return None
    for row in z_sub.rows_sorted():
        if not span.contains(row):
            return [row.get(i, ZERO) for i in range(n)]
    raise InternalInvariantError("proper subspace contains every basis vector")


def _unit(n: int, i: int) -> list:
    out = [ZERO] * n
    out[i] = ONE
    return out


def _arm_rows(graph: SimpleGraph, algebra: GradedLieAlgebra, k: int, mds: list, arms) -> dict:
    """The brackets [a, e_j] with a in arms and deg j = k - 1, grouped by
    multidegree md, in the order of algebra.sc."""
    degrees = algebra.degrees
    out: dict = {}
    for (i, j), terms in algebra.sc.items():
        if i in arms and degrees[j] == k - 1:
            md, *rest = set(map(mds.__getitem__, terms))
            if rest:
                raise invariant_error(
                    "a bracket spans more than one multidegree",
                    to_graph6(graph), k, "graded witness search by multidegree block",
                )
            out.setdefault(md, []).append(terms)
    return out


def find_witness(graph: SimpleGraph, algebra: GradedLieAlgebra, k: int):
    """The certificate dict of the witness at the pair the module docstring
    predicts, certified once; None when there is no edge or no such pair.
    For k >= 3 only the degree-k candidates of multidegree (k-1, 1, 0, ...)
    up to order are tried. A witness exists at the predicted pair, so
    finding none, or a refusal by the certifier, is an invariant failure."""
    if k != len(algebra.grading):
        raise ValueError("k does not match the algebra grading")
    nonadj = graph.nonedges()
    if not nonadj or not any(graph.adj):
        return None
    n = algebra.n
    if k >= 3:
        mds = [label.multidegree for label in algebra.labels]
        u, w = nonadj[0]
        a1, a2 = u - 1, w - 1
        rows = _arm_rows(graph, algebra, k, mds, (a1, a2))
        for y_idx in algebra.degree_block(k):
            md = mds[y_idx]
            if sorted(md, reverse=True)[:2] != [k - 1, 1]:
                continue
            if RowReducer(rows.get(md, ())).contains({y_idx: 1}):
                continue
            y = _unit(n, y_idx)
            if not certify_graded_witness(algebra, a1, a2, y):
                raise invariant_error(
                    "witness search and certifier disagree",
                    to_graph6(graph), k, "graded witness search against the certifier",
                )
            return {
                "kind": "graded_witness",
                "a1": f"v{u}",
                "a2": f"v{w}",
                "a1_index": a1,
                "a2_index": a2,
                "y_index": y_idx,
                "y_label": algebra.labels[y_idx].label,
                "y_multidegree": list(md),
                "y": [frac_str(c) for c in y],
            }
        raise invariant_error(
            "the first non-edge has no witness of multidegree (k-1, 1)",
            to_graph6(graph), k, "graded witness search at the first non-edge",
        )
    if k == 2:
        isolated = not all(graph.adj)
        for (u, w) in nonadj:
            pair = 1 << (u - 1) | 1 << (w - 1)
            # some edge avoids the pair: a vertex outside it has a neighbour outside it
            if isolated or any(a & ~pair for v, a in enumerate(graph.adj) if not pair >> v & 1):
                break
        else:
            return None
        phase = "two-step witness certificate"
        try:
            z = certify_2step_witness(algebra, _unit(n, u - 1), _unit(n, w - 1))
        except InternalInvariantError as exc:
            raise invariant_error(exc.message, to_graph6(graph), k, phase) from exc
        if z is None:
            raise invariant_error(
                f"the certifier refuses the predicted pair (v{u}, v{w})", to_graph6(graph), k, phase
            )
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
    raise ValueError("witness search needs k >= 2")


class RigidityVerdict(NamedTuple):
    verdict: str  # "rigid" | "not_rigid" | "unknown"
    certificate: dict
    h2: H2Report | None = None
    dim: int | None = None  # the algebra's dimension, for the report row

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict, "certificate": dict(self.certificate)}
        if self.h2 is not None:
            out["h2"] = self.h2.to_json_dict()
        return out


def graph_h2(graph: SimpleGraph, algebra: LieAlgebra, k: int) -> H2Report:
    """h2_nil of graph's k-step algebra, with an invariant failure re-raised naming the graph and k."""
    try:
        return h2_nil(algebra)
    except InternalInvariantError as exc:
        raise invariant_error(exc.message, to_graph6(graph), k, exc.phase or "h2_nil") from exc


def _shortcut(graph: SimpleGraph, k: int) -> RigidityVerdict | None:
    """The verdicts read off the graph alone: abelian, abelian factor, cited."""
    if not any(graph.adj):
        if graph.m == 2:
            return RigidityVerdict(
                "rigid",
                {"kind": "cited_result", "name": "abelian plane, low-dimensional classification"},
            )
        return RigidityVerdict("not_rigid", {"kind": "abelian", "m": graph.m})
    isolated = [v for v, a in enumerate(graph.adj, 1) if not a]
    if isolated:
        if k == 2 and graph.m == 3:  # one edge and the isolated vertex
            return RigidityVerdict(
                "rigid",
                {"kind": "cited_result", "name": "heisenberg plus line exception"},
            )
        return RigidityVerdict("not_rigid", {"kind": "abelian_factor", "isolated": isolated})
    return None


def classify(graph: SimpleGraph, k: int, with_cohomology: bool = False) -> RigidityVerdict:
    """Rigidity verdict for the k-step algebra of a graph with at least 2 vertices.

    At k = 2, h2 is computed when neither a shortcut nor a witness decides,
    and for every verdict when with_cohomology is set.
    """
    if graph.m < 2:
        raise ValueError("classification needs at least two vertices")
    if k < 2:
        raise ValueError("classification needs k >= 2")
    algebra = None
    verdict = _shortcut(graph, k)
    if verdict is None:
        algebra = structure_constants(graph, k)
        witness = find_witness(graph, algebra, k)
        h2 = None
        if k == 2 and (with_cohomology or witness is None):
            h2 = graph_h2(graph, algebra, k)
        if witness is not None:
            verdict = RigidityVerdict("not_rigid", witness, h2)
        elif h2 is not None and h2.h2_dim == 0:
            verdict = RigidityVerdict("rigid", {"kind": "h2_nil_zero"}, h2)
        elif graph.is_complete():
            verdict = RigidityVerdict(
                "rigid", {"kind": "cited_result", "name": "free k-step nilpotent"}, h2
            )
        else:
            verdict = RigidityVerdict("unknown", {"kind": "none"}, h2)
    elif k == 2 and with_cohomology:
        algebra = structure_constants(graph, k)
        verdict = verdict._replace(h2=graph_h2(graph, algebra, k))
    # graded_basis has checked a built algebra's dimension against the count
    verdict = verdict._replace(dim=algebra_dim(graph, k) if algebra is None else algebra.n)
    if verdict.verdict == "not_rigid" and verdict.h2 is not None and verdict.h2.h2_dim == 0:
        raise invariant_error(
            "a deformation witness and vanishing h2 cannot both hold",
            to_graph6(graph), k, "classify, not_rigid verdict against h2",
        )
    return verdict


def algebra_dim(graph: SimpleGraph, k: int) -> int:
    return sum(dimension_oracle(graph, k))


def report_row(graph: SimpleGraph, k: int, verdict: RigidityVerdict) -> dict:
    """The report entry of one graph: its graph6 code, sizes and the verdict classify gave."""
    return {
        "graph6": to_graph6(graph),
        "m": graph.m,
        "k": k,
        "dim": verdict.dim,
        **verdict.to_json_dict(),
    }


def sweep(n_max: int, k: int) -> Iterator[dict]:
    """The report rows of every isomorphism class on 2..n_max vertices, lazily.

    n_max and k are checked when sweep is called; the classes of each vertex
    count are enumerated, and each class classified, only when a row of them
    is asked for, so a consumer that writes each row before asking for the
    next holds one row at a time. For k = 2
    the cohomology report is attached to every entry, which also
    cross-checks every not_rigid verdict against h2 = 0.
    """
    check_vertices("sweep", n_max, k)
    check_k(k)
    if k < 2:
        raise ValueError("sweep needs k >= 2")
    return (
        report_row(graph, k, classify(graph, k, with_cohomology=k == 2))
        for m in range(2, n_max + 1)
        for graph in enumerate_graphs(m)
    )
