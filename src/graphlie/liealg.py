"""Finite-dimensional Lie algebras over Q given by exact structure constants.

Structure constants are stored once per unordered basis pair: sc maps
(i, j) with i < j to a sparse dict {l: c} meaning [e_i, e_j] = sum c e_l.
An int constant stays an int; others go through linalg.frac (no floats, bools).
A GradedLieAlgebra additionally knows a grading (block sizes by degree)
and, when it was built from a graph, a label and a multidegree for every
basis element. All three are read-only (sc and adjacency() are mapping
proxies all the way down), since structure_constants shares cached algebras.

This module owns one rule per algebra check: jacobi_report, ad_span (read
by center and the cochain builders) and is_at_most_two_step. The last two
are cached on the algebra object, like adjacency(); callers only read them.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .limits import check_dim
from .linalg import RowReducer, axpy, frac, frac_str, is_int, kernel_basis


class BasisLabel(NamedTuple):
    label: str
    degree: int
    multidegree: tuple


def _clean_sc(n: int, sc: dict) -> dict:
    out = {}
    for (i, j), terms in sc.items():
        if not 0 <= i < j < n:
            raise ValueError(f"structure constant key ({i},{j}) must satisfy 0 <= i < j < n")
        cleaned = {}
        for l, c in terms.items():
            if not 0 <= l < n:
                raise ValueError(f"structure constant target {l} out of range")
            if type(c) is not int:
                c = frac(c)
            if c:
                cleaned[l] = c
        if cleaned:
            out[(i, j)] = MappingProxyType(cleaned)
    return MappingProxyType(out)


class LieAlgebra:
    def __init__(self, n: int, sc: dict, k: int | None = None):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        self.n = n
        self.k = k
        self.sc = _clean_sc(n, sc)
        self._adj = None
        self._ad_span = None  # ad_span, once computed
        self._two_step = None  # is_at_most_two_step, once computed

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse vector, any i, j."""
        if i == j:
            return {}
        if i < j:
            return dict(self.sc.get((i, j), {}))
        terms = self.sc.get((j, i), {})
        return {l: -c for l, c in terms.items()}

    def adjacency(self) -> dict:
        """adj[i][j] = [e_i, e_j] for every stored pair, both orientations."""
        if self._adj is None:
            adj: dict = {}
            for (i, j), terms in self.sc.items():
                adj.setdefault(i, {})[j] = terms
                adj.setdefault(j, {})[i] = MappingProxyType({l: -c for l, c in terms.items()})
            self._adj = MappingProxyType({i: MappingProxyType(row) for i, row in adj.items()})
        return self._adj

    def bracket_sparse(self, x: dict, y: dict) -> dict:
        adj = self.adjacency()
        out: dict = {}
        for i, xi in x.items():
            row = adj.get(i)
            if not row:
                continue
            for j, yj in y.items():
                terms = row.get(j)
                if terms:
                    axpy(out, xi * yj, terms)
        return out


class GradedLieAlgebra(LieAlgebra):
    def __init__(self, n, sc, grading, labels=None, k=None):
        grading = tuple(int(d) for d in grading)
        if any(d < 0 for d in grading):
            raise ValueError("grading blocks must be nonnegative")
        if sum(grading) != n:
            raise ValueError("grading blocks must sum to the dimension")
        super().__init__(n, sc, k=k if k is not None else len(grading))
        self.grading = grading
        self.degrees = tuple(
            d + 1 for d, size in enumerate(grading) for _ in range(size)
        )
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("one label per basis element required")
            for lab, deg in zip(labels, self.degrees):
                if lab.degree != deg:
                    raise ValueError("label degree disagrees with the grading")
        self.labels = labels

    def degree_block(self, degree: int) -> range:
        start = sum(self.grading[: degree - 1])
        return range(start, start + self.grading[degree - 1])


def lower_central_series(algebra: LieAlgebra) -> list:
    """Descending chain g^0 = g, g^{i+1} = [g, g^i] of RowReducers, stopping at stabilization.

    g^{i+1} spans the nonzero [e_a, r] over basis vectors e_a and echelon
    rows r of g^i. A nonzero stable term is kept: it flags non-nilpotency.
    """
    chain = [RowReducer({i: 1} for i in range(algebra.n))]
    while chain[-1].rank:
        rows = chain[-1].rows_sorted()
        nxt = RowReducer()
        for a in sorted(algebra.adjacency()):  # the e_a with a nonzero bracket
            for row in rows:
                out = algebra.bracket_sparse({a: 1}, row)
                if out:
                    nxt.add(out)
        stable = nxt.rank == chain[-1].rank
        chain.append(nxt)
        if stable:
            break
    return chain


def is_at_most_two_step(algebra: LieAlgebra) -> bool:
    """Whether [g, [g, g]] = 0; the lower central series runs once per algebra object."""
    if algebra._two_step is None:
        chain = lower_central_series(algebra)
        algebra._two_step = chain[-1].rank == 0 and len(chain) <= 3
    return algebra._two_step


def ad_span(algebra: LieAlgebra) -> RowReducer:
    """The span of the functionals x -> e_l-coefficient of [x, e_j]: the annihilator of the
    center, its kernel. Eliminated once per algebra object and shared, so never added to."""
    if algebra._ad_span is None:
        rows: dict = {}
        for (i, j), terms in algebra.sc.items():
            for l, c in terms.items():
                rows.setdefault((j, l), {})[i] = c
                rows.setdefault((i, l), {})[j] = -c
        algebra._ad_span = RowReducer(rows.values())
    return algebra._ad_span


def center(algebra: LieAlgebra) -> RowReducer:
    """Kernel of the stacked adjoint maps x -> ([x, e_j])_j, a fresh RowReducer."""
    return kernel_basis(ad_span(algebra), algebra.n)


def jacobi_report(algebra: LieAlgebra) -> list:
    """The triples i < j < l where the Jacobi identity fails, in order; empty means it holds.

    A term [e_x, [e_y, e_z]] is nonzero only if [e_y, e_z] has a term e_t
    with [e_x, e_t] != 0, so exactly the triples {x, y, z} of distinct
    members with a stored pair (y, z), a term t of it and x a key of
    adjacency()[t] are evaluated. Every other triple is zero term by term,
    for any bracket table.
    """
    adj = algebra.adjacency()
    triples = sorted({
        tuple(sorted((x, y, z)))
        for (y, z), terms in algebra.sc.items()
        for t in terms if t in adj
        for x in adj[t] if x != y and x != z
    })
    bad = []
    for (i, j, l) in triples:
        acc: dict = {}
        for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
            for t, coef in algebra.bracket_basis(b, c).items():
                axpy(acc, coef, algebra.bracket_basis(a, t))
        if acc:
            bad.append((i, j, l))
    return bad


def algebra_to_json_dict(algebra: LieAlgebra) -> dict:
    brackets = [
        {"i": i, "j": j, "terms": [{"l": l, "c": frac_str(c)} for l, c in sorted(terms.items())]}
        for (i, j), terms in sorted(algebra.sc.items())
    ]
    basis = grading = None
    if isinstance(algebra, GradedLieAlgebra):
        grading = list(algebra.grading)
        if algebra.labels is not None:
            basis = [
                {"label": lab.label, "degree": lab.degree, "multidegree": list(lab.multidegree)}
                for lab in algebra.labels
            ]
    return {
        "n": algebra.n, "k": algebra.k, "grading": grading, "basis": basis, "brackets": brackets
    }


def algebra_from_json_dict(data: dict) -> LieAlgebra:
    """Inverse of algebra_to_json_dict; any malformed document raises ValueError.

    Indices must be JSON integers (not booleans) and constants strings such
    as "-2/7" or integers, so that no float can enter; n is at most
    limits.MAX_DIM.
    """
    if not isinstance(data, dict) or "n" not in data or "brackets" not in data:
        raise ValueError('algebra JSON must be an object with "n" and "brackets"')
    n, k, brackets = data["n"], data.get("k"), data["brackets"]
    if not is_int(n):
        raise ValueError("algebra JSON: n must be an integer")
    check_dim([n])  # before any n-sized allocation
    if k is not None and not is_int(k):
        raise ValueError("algebra JSON: k must be an integer or null")
    if not isinstance(brackets, list):
        raise ValueError("algebra JSON: brackets must be a list")
    sc = {}
    for entry in brackets:
        if not isinstance(entry, dict) or not isinstance(entry.get("terms"), list):
            raise ValueError('bracket entries must be objects with "i", "j" and a "terms" list')
        i, j = entry.get("i"), entry.get("j")
        if not (is_int(i) and is_int(j) and i < j):
            raise ValueError("bracket entries must have integer i < j")
        if (i, j) in sc:
            raise ValueError(f"bracket ({i}, {j}) is given more than once")
        terms = {}
        for t in entry["terms"]:
            if not (isinstance(t, dict) and is_int(t.get("l"))):
                raise ValueError('bracket terms must be objects {"l": int, "c": str or int}')
            c = t.get("c")
            if not (isinstance(c, str) or is_int(c)):
                raise ValueError(f"structure constant {c!r} must be a string or an integer")
            if t["l"] in terms:
                raise ValueError(f"bracket ({i}, {j}) gives target {t['l']} more than once")
            terms[t["l"]] = frac(c)
        sc[(i, j)] = terms
    grading = data.get("grading")
    if grading is None:
        return LieAlgebra(n, sc, k=k)
    if not (isinstance(grading, list) and all(is_int(d) for d in grading)):
        raise ValueError("algebra JSON: grading must be a list of integers or null")
    basis = data.get("basis")
    labels = None
    if basis is not None:
        if not isinstance(basis, list):
            raise ValueError("algebra JSON: basis must be a list or null")
        labels = []
        for b in basis:
            if not (
                isinstance(b, dict)
                and isinstance(b.get("label"), str)
                and is_int(b.get("degree"))
                and isinstance(b.get("multidegree"), list)
                and all(is_int(x) for x in b["multidegree"])
            ):
                raise ValueError(
                    'basis entries must be {"label": str, "degree": int, "multidegree": [int, ...]}'
                )
            labels.append(BasisLabel(b["label"], b["degree"], tuple(b["multidegree"])))
    return GradedLieAlgebra(n, sc, grading, labels=labels, k=k)
