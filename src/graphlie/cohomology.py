"""Cochain spaces and the 2-step nil-cohomology in slot two.

Coordinate conventions, fixed once for the whole package:

  Hom(V, V)        f_{a,b} = coefficient of e_b in f(e_a), index a*n + b.
  Hom(L^2 V, V)    sigma_{(a<b),c}, pairs enumerated lexicographically,
                   index pair_index*n + c.
  delta1 rows      (pair a<b, output d), index pair_index*n + d.
  delta2 rows      (triple a<b<c, output d), index triple_index*n + d.
  eta2 rows        (pair a<b, argument c, output d); the codomain is
                   alternating in the first two arguments only, since the
                   defining formula is not symmetrized over the third.

Differentials of the adjoint complex:

  delta1 f (x,y)   = [f(x),y] + [x,f(y)] - f([x,y])
  delta2 s (x,y,z) = [x,s(y,z)] - [y,s(x,z)] + [z,s(x,y)]
                     - s([x,y],z) + s([x,z],y) - s([y,z],x)
  eta2 s (x,y,z)   = [s(x,y),z] + s([x,y],z)

The slot-two nil-cohomology of an at most 2-step algebra is
(ker delta2 intersect ker eta2) / im delta1. The inclusion
im delta1 <= ker eta2 is asserted at runtime. The inclusion
ker eta2 <= ker delta2 holds for every alternating bracket, since each
delta2 row (x<y<z, d) is a signed sum of the eta2 rows ((y,z),x,d),
((x,z),y,d) and ((x,y),z,d):

  delta2 s (x,y,z) = -eta2 s (y,z,x) + eta2 s (x,z,y) - eta2 s (x,y,z).

Proof, by antisymmetry alone:
  -eta2 s (y,z,x) = -[s(y,z),x] - s([y,z],x) =  [x,s(y,z)] - s([y,z],x)
   eta2 s (x,z,y) =  [s(x,z),y] + s([x,z],y) = -[y,s(x,z)] + s([x,z],y)
  -eta2 s (x,y,z) = -[s(x,y),z] - s([x,y],z) =  [z,s(x,y)] - s([x,y],z)
and the right-hand sides add up to delta2 s (x,y,z) term for term. Neither
Jacobi nor the 2-step condition is used. So the intersection is ker eta2
and h2 = dim ker eta2 - rank delta1; delta2 is still built and ranked, for
the dimension of its kernel that the report gives.

The matrices are built as integer rows, with the structure constants
scaled by L, the lcm of their denominators. The builder checks each block
against the matrix shape once, drops cancelled entries itself and hands
its rows to RatMatrix.adopt, which scans no entry, with L as the matrix's
denominator. Most eta2 and delta2 rows are never built. With c
central when ad(e_c) = 0, the rows of an eta2 pair with [e_a, e_b] = 0, and
those of the delta2 triples of every r with central p, q, span the
annihilator of the center in the pair's block. They are held there by the
reduced echelon basis of liealg.ad_span, which center shares. The rows of a
one-term bracket or substitution term that no ad block reaches are unit
rows. Unit rows are kept as settled columns, each once; the row space, and
so every rank, is unchanged. delta1 keeps every row, since the containment
check reads its column space. h2_nil ranks each matrix once by
linalg.peeled_rank, structured elimination from its one-entry rows and
settled columns, so only the few rows left over go through fraction-free
elimination.

Torus weights and twin orbits. With md the multidegree of a labelled basis
element, the column f_{a,b} has weight md(b) - md(a) and sigma_{(a<b),c}
has weight md(c) - md(a) - md(b). When md is a grading of the brackets,
each row of delta1, delta2 and eta2 has entries in columns of one weight
only, so each matrix is block diagonal by weight and its rank is the sum
of the ranks of its weight blocks. When the labels and brackets have the
shape of a graph G's 2-step algebra, with each edge element rescaled
(twin_classes, which proves this), every automorphism of G is one of the
algebra and maps each block onto the block of the permuted weight, of
equal rank. The twin classes of G (vertices with the same neighbours apart
from each other) give such automorphisms. So h2_nil builds and ranks only
the representative weights, those whose entries do not increase along
each twin class, and counts each block as many times as its orbit has
weights. Each builder takes one multiplicity per column, 0 for the columns
it skips, and leaves them on its matrix, whose rank adds them up. The
containment product never sees a delta1 entry between two blocks, so h2_nil
refuses one whose row and column weights differ. One packing of the
labels' multidegrees, with one offset per 1-cochain lead and per pair,
serves that check and the multiplicities (orbit_multiplicities). Labels
of any other shape, and no labels, give the trivial group, with no
multiplicities: every column is built and counted once.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import chain, combinations
from math import factorial, lcm, prod
from operator import add, lshift
from typing import NamedTuple

from .errors import InternalInvariantError
from .graphs import SimpleGraph, _twin_classes
from .liealg import LieAlgebra, ad_span, is_at_most_two_step
from .limits import check_h2_size
from .linalg import RatMatrix, drop_zeros


class CochainCoordinates:
    """Index bookkeeping for 1- and 2-cochains on an n-dimensional algebra."""

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


class _CochainRows:
    """The one builder of cochain-matrix rows, shared by delta1, delta2 and eta2.

    Each of the three matrices is a grid of n x n blocks of two kinds:
    sign * ad(e_lead), whose (d, u) entry is the e_d coefficient of
    [e_lead, e_u], and a structure constant times the identity. Entries are
    accumulated as ints: every structure constant is scaled by L, the lcm of
    their denominators, and L is the matrix's denominator. Each block is
    checked against the nrows x ncols shape once, when it is added, so
    matrix() hands the rows to RatMatrix.adopt without a per-entry scan.
    With mult, one multiplicity per column, the entries of the columns whose
    multiplicity is 0 are dropped, a row left empty is never made, and the
    matrix keeps mult for its rank.
    block() keeps only the column of each one-entry row it is given, each once;
    the annihilator blocks it is given come from _annihilator, not from here.
    """

    def __init__(self, algebra: LieAlgebra, nrows: int, ncols: int, mult=None):
        self.mult = mult
        self.scale = scale = lcm(*{c.denominator for t in algebra.sc.values() for c in t.values()})
        self.n, self.nrows, self.ncols = algebra.n, nrows, ncols
        # [e_a, e_b] times L as (l, int) terms, a < b; pairs that bracket to zero are absent
        self.brackets = {
            pair: [(l, c.numerator * (scale // c.denominator)) for l, c in terms.items()]
            for pair, terms in algebra.sc.items()
        }
        # the (d, u, value) entries of L * ad(e_lead), for each lead with a nonzero bracket
        self.leads: dict = {}
        for (a, b), terms in self.brackets.items():
            self.leads.setdefault(a, []).extend((d, b, v) for d, v in terms)
            self.leads.setdefault(b, []).extend((d, a, -v) for d, v in terms)
        self.unit = [(d, d, 1) for d in range(algebra.n)]
        # an output d is free when no bracket has an e_d term, so no ad block reaches it
        inner = {l for terms in self.brackets.values() for l, _ in terms}
        self.free = [t for t in self.unit if t[0] not in inner]
        self.inner = [t for t in self.unit if t[0] in inner]
        self.rows: dict = {}
        self.settled: dict = {}  # column -> the row of its first unit row, never a row dict
        self.overlap = False  # an entry written twice; only then can one cancel

    def block(self, base: int, col_base: int, terms: list, coef: int, settle=()) -> None:
        """Add coef * the block of (d, u, value) terms at row base + d, column col_base + u.

        Each (d, u, _) in settle is a one-entry row of the block: only its
        column is kept, unless that column is settled already.
        """
        if not (0 <= base <= self.nrows - self.n and 0 <= col_base <= self.ncols - self.n):
            raise InternalInvariantError(
                f"a block at ({base}, {col_base}) leaves the {self.nrows}x{self.ncols} matrix",
                "cochain matrix build, block shape",
            )
        rows, mult, settled = self.rows, self.mult, self.settled
        for d, u, v in terms:
            col = col_base + u
            if mult is not None and not mult[col]:
                continue
            row = rows.setdefault(base + d, {})
            if col in row:
                row[col] += coef * v
                self.overlap = True
            else:
                row[col] = coef * v
        for d, u, _ in settle:
            if mult is None or mult[col_base + u]:
                settled.setdefault(col_base + u, base + d)

    def matrix(self) -> RatMatrix:
        """Drop cancelled entries and empty rows; adopt the rows over L, with mult."""
        if self.overlap:
            drop_zeros(self.rows)
        settled = {r: c for c, r in self.settled.items()}  # the first row of each column
        return RatMatrix.adopt(self.nrows, self.ncols, self.rows, settled, self.scale, self.mult)


def _annihilator(algebra: LieAlgebra) -> tuple:
    """The annihilator of the center, which the rows of every ad(e_r) span, as (terms, settle)
    for _CochainRows.block: the reduced echelon basis of liealg.ad_span, row i as (i, u, int)
    terms, each row scaled by the lcm of its denominators; settled if they are all unit rows."""
    basis = ad_span(algebra).rows_sorted()
    shifted = []
    for i, row in enumerate(basis):
        scale = lcm(*(v.denominator for v in row.values()))
        shifted.extend((i, u, v.numerator * (scale // v.denominator)) for u, v in row.items())
    return ((), shifted) if all(len(row) == 1 for row in basis) else (shifted, ())


def delta1_matrix(algebra: LieAlgebra, mult=None) -> RatMatrix:
    n, coords = algebra.n, CochainCoordinates(algebra.n)
    out = _CochainRows(algebra, len(coords.pairs) * n, coords.dim_hom, mult)
    leads = out.leads
    for p, (a, b) in enumerate(coords.pairs):
        base = p * n
        # [f(e_a), e_b] = -[e_b, f(e_a)]
        if b in leads:
            out.block(base, coords.f_coord(a, 0), leads[b], -1)
        # [e_a, f(e_b)]
        if a in leads:
            out.block(base, coords.f_coord(b, 0), leads[a], 1)
        # -f([e_a, e_b])
        for l, v in out.brackets.get((a, b), ()):
            out.block(base, coords.f_coord(l, 0), out.unit, -v)
    return out.matrix()


def delta2_matrix(algebra: LieAlgebra, mult=None) -> RatMatrix:
    n, coords = algebra.n, CochainCoordinates(algebra.n)
    triples = list(combinations(range(n), 3))
    out = _CochainRows(algebra, len(triples) * n, coords.dim_two_cochains, mult)
    leads = out.leads
    # A triple of r and central p, q has one term, [e_r, s(e_p, e_q)]; over all r
    # they span the annihilator on s(e_p, e_q), written at the first non-central
    # r. The other triples with two or three central members are skipped.
    built, settle = _annihilator(algebra)
    first = min(leads, default=None)
    for t, (x, y, z) in enumerate(triples):
        base = t * n
        noncentral = (x in leads) + (y in leads) + (z in leads)
        if noncentral < 2:
            if noncentral and first in (x, y, z):
                p, q = (i for i in (x, y, z) if i != first)
                out.block(base, coords.pair_index[(p, q)] * n, built, 1, settle)
            continue
        # adjoint terms [x, s(y,z)] - [y, s(x,z)] + [z, s(x,y)]
        for lead, (a, b), sign in ((x, (y, z), 1), (y, (x, z), -1), (z, (x, y), 1)):
            if lead in leads:
                out.block(base, coords.pair_index[(a, b)] * n, leads[lead], sign)
        # substitution terms -s([x,y],z) + s([x,z],y) - s([y,z],x)
        terms = []
        for (a, b), arg, sign in (((x, y), z, -1), ((x, z), y, 1), ((y, z), x, -1)):
            for l, v in out.brackets.get((a, b), ()):
                col, s_sign = coords.sigma_coord(l, arg, 0)
                if col is not None:
                    terms.append((col, sign * s_sign * v))
        if len(terms) == 1:  # its free rows are unit rows
            (col, v), = terms
            out.block(base, col, out.inner, v, out.free)
        else:
            for col, v in terms:
                out.block(base, col, out.unit, v)
    return out.matrix()


def eta2_matrix(algebra: LieAlgebra, mult=None) -> RatMatrix:
    if not is_at_most_two_step(algebra):
        raise ValueError("eta2 is only defined for at most 2-step algebras")
    n, coords = algebra.n, CochainCoordinates(algebra.n)
    out = _CochainRows(algebra, len(coords.pairs) * n * n, coords.dim_two_cochains, mult)
    leads = out.leads
    # The -ad(e_c) rows of a pair with [e_a, e_b] = 0 span the annihilator of the
    # center; its reduced echelon basis stands for them, settled if it is unit rows.
    built, settle = _annihilator(algebra)
    for p, (a, b) in enumerate(coords.pairs):
        ab = out.brackets.get((a, b))
        if ab is None:
            out.block(p * n * n, p * n, built, 1, settle)
            continue
        for c in range(n):
            base = (p * n + c) * n
            # [s(e_a, e_b), e_c] = -[e_c, s(e_a, e_b)]
            if c in leads:
                out.block(base, p * n, leads[c], -1)
            # s([e_a, e_b], e_c); when [e_a, e_b] = v e_l, the rows of s(e_l, e_c)
            # that no ad block reaches, all when ad(e_c) = 0, are v times unit rows
            for l, v in ab:
                col, s_sign = coords.sigma_coord(l, c, 0)
                if col is None:
                    continue
                if len(ab) > 1:
                    out.block(base, col, out.unit, s_sign * v)
                elif c in leads:
                    out.block(base, col, out.inner, s_sign * v, out.free)
                else:
                    out.block(base, col, (), s_sign * v, out.unit)
    return out.matrix()


def twin_classes(algebra: LieAlgebra) -> list:
    """The twin classes of the graph G that algebra's labels name, as sorted vertex lists.

    The shape check: every multidegree has the length m of the first and
    entries 0 or 1; they are distinct, m of them are the unit vectors e_v,
    one vertex element x_v per coordinate v, and the others are e_a + e_b,
    one edge element y_ab per edge ab of G; and sc holds exactly one bracket
    per edge element, [x_a, x_b] = c y_ab with one term, c != 0, so md is a
    grading. Labels of any other shape, or none, give no classes: the
    trivial group. The label degrees are not read; multidegrees decide.

    Why a passing algebra needs no certificate: with y'_ab = [x_a, x_b],
    the basis x_v, y'_ab shows it as G's 2-step algebra, [x_a, x_b] = y'_ab
    on the edges and every other bracket zero. For pi in Aut(G), the linear
    map phi, x_a -> x_pi(a), y'_ab -> [x_pi(a), x_pi(b)] = +-y'_pi(a)pi(b),
    is a bijection that keeps every bracket: edges go to edges, non-edges to
    non-edges, and the y' stay central. So phi is an automorphism, and it
    sends each basis element of multidegree w to a multiple of the one of
    multidegree pi(w), pi acting on the coordinates. Conjugation by phi
    commutes with delta1, delta2 and eta2, so it carries the cochain block
    of weight w, rows and columns, onto the block of weight pi(w), of equal
    rank. Each permutation inside a twin class (graphs._twin_classes) is in
    Aut(G).
    """
    labels = getattr(algebra, "labels", None)
    if not labels:
        return []
    md = [label.multidegree for label in labels]
    m = len(md[0])
    degree = [sum(x) if len(x) == m and {*x} <= {0, 1} else 0 for x in md]
    if len(set(md)) < len(md) or sorted(degree) != [1] * m + [2] * (len(md) - m):
        return []
    # no multidegree sums to more than 2, so md[l] = md[i] + md[j] makes i, j vertices and l
    # their edge; distinct pairs have distinct edges, so the count gives one bracket per edge
    if len(algebra.sc) != len(md) - m or any(
        [md[l] for l in terms] != [tuple(map(add, md[i], md[j]))] for (i, j), terms in algebra.sc.items()
    ):
        return []
    graph = SimpleGraph.make(m, [[v for v, y in enumerate(x, 1) if y] for x, d in zip(md, degree) if d == 2])
    return [
        [v for v in range(m) if mask >> v & 1]
        for mask in sorted(set(_twin_classes(m, graph.adj)))
        if mask & (mask - 1)
    ]


class _OrbitSizes(dict):
    """Packed weight -> its orbit size, or 0 if it is no representative; each computed once.

    The class sizes fix the packing, the first class's fields lowest, so one
    table serves every algebra with the same class sizes (see _orbit_sizes).
    """

    def __init__(self, sizes: tuple):
        super().__init__()
        self.sizes = sizes

    def __missing__(self, weight: int) -> int:
        size, fields = 1, weight
        for count in self.sizes:
            run = [fields >> 2 * pos & 3 for pos in range(count)]
            fields >>= 2 * count
            if run != sorted(run, reverse=True):
                size = 0
                break
            size *= factorial(count) // prod(factorial(run.count(v)) for v in set(run))
        self[weight] = size
        return size


# one table per tuple of class sizes
_orbit_sizes = lru_cache(maxsize=32)(_OrbitSizes)


class _TorusWeights:
    """The packed multidegrees and offsets of an algebra that twin_classes passes, read once per
    h2_nil for its multiplicities and its delta1 weight check (see orbit_multiplicities)."""

    def __init__(self, algebra: LieAlgebra, classes: list):
        twins = [v for cls in classes for v in cls]
        m = len(algebra.labels[0].multidegree)
        shifts = range(0, 2 * m, 2)
        coords = twins + [v for v in range(m) if v not in twins]
        self.packed = packed = [
            sum(map(lshift, map(label.multidegree.__getitem__, coords), shifts)) for label in algebra.labels
        ]
        bias = sum(2 << shift for shift in shifts)
        self.f_off = [bias - p for p in packed]
        self.s_off = [bias - p - q for p, q in combinations(packed, 2)]
        self.sizes = tuple(map(len, classes))

    def multiplicities(self) -> tuple:
        get = _orbit_sizes(self.sizes).__getitem__
        mask = (1 << 2 * sum(self.sizes)) - 1  # the twin fields
        twin_part = [p & mask for p in self.packed]

        @cache
        def row(offset: int) -> list:  # the multiplicities of the n columns offset leads, shared
            return list(map(get, map(offset.__add__, twin_part)))

        f_mult = list(chain.from_iterable(row(off & mask) for off in self.f_off))
        s_mult = list(chain.from_iterable(row(off & mask) for off in self.s_off))
        return f_mult, s_mult

    def check_delta1(self, d1: RatMatrix) -> None:
        """Raise InternalInvariantError unless each delta1 entry joins a row and a column of one weight:
        row i*n + d, i the pair a < b, has weight s_off[i] + md(d), column a*n + b has f_off[a] + md(b)."""
        n, packed, f_off, s_off = len(self.packed), self.packed, self.f_off, self.s_off
        for r, cols in d1.supports():
            weight = s_off[r // n] + packed[r % n]
            for c in cols:
                if f_off[c // n] + packed[c % n] != weight:
                    raise InternalInvariantError(
                        f"delta1 entry ({r}, {c}) joins two weight blocks", "h2_nil, weight blocks of delta1"
                    )


def orbit_multiplicities(algebra: LieAlgebra) -> tuple:
    """One multiplicity per 1-cochain column and one per 2-cochain column, each by its weight.

    (None, None) when twin_classes gives no classes: the trivial group.

    The weight of f_{a,b} is md(b) - md(a), that of sigma_{(a<b),c} is
    md(c) - md(a) - md(b). A weight is a representative when its entries do
    not increase along each class; it then gets the size of its orbit under
    the permutations inside the classes, the product over the classes of the
    multinomial of its runs, and every other weight gets 0. The classes come
    from twin_classes, so every multidegree entry is 0 or 1 and every weight
    entry lies in -2..1. _TorusWeights packs each label's md once, every
    coordinate in a 2-bit field, the twin coordinates first and lowest, and
    bias adds 2 to every field, so no field leaves 0..3 and none borrows
    from the next. A column's weight is its lead's offset plus md of its
    last index: f_off[a] = bias - md(a) for f_{a,b}, and
    s_off[i] = bias - md(a) - md(b) for sigma_{(a<b),c}, the pair a < b
    the i-th. Only the twin coordinates matter, and masking to the twin
    fields commutes with these sums. A column costs an addition and a
    lookup, each distinct weight is decoded once per tuple of class sizes,
    and columns whose masked offsets agree share one list of n.
    """
    classes = twin_classes(algebra)
    return _TorusWeights(algebra, classes).multiplicities() if classes else (None, None)


class H2Report(NamedTuple):
    dim_ker_eta2: int
    dim_ker_delta2: int
    dim_intersection: int
    dim_im_delta1: int
    h2_dim: int
    eta2_subset_delta2: bool

    def to_json_dict(self) -> dict:
        return self._asdict()


def h2_nil(algebra: LieAlgebra) -> H2Report:
    """Dimension data of (ker delta2 intersect ker eta2) / im delta1.

    The intersection is ker eta2, which lies in ker delta2 for every
    alternating bracket (see the module docstring), so eta2_subset_delta2 is
    always True. Raises ValueError before any cochain is indexed if the
    algebra has more than limits.MAX_H2_DIM basis elements,
    limits.MAX_H2_CONSTANTS nonzero structure constants or
    limits.MAX_H2_BRACKET_TERMS terms in one bracket, and, from eta2_matrix
    and before any other matrix is built, unless it is at most 2-step.
    Raises InternalInvariantError if im delta1 is not inside ker eta2; for an
    at most 2-step algebra that containment is a theorem, so a violation can
    only mean the matrices are wrong. It sees the representative blocks only,
    so a negative h2, rank delta1 > dim ker eta2, raises too, and so does a
    delta1 entry whose row and column weights differ, one between two weight
    blocks, whenever the blocks are counted by orbit. Only the
    blocks of representative weights are built and ranked, each counted with
    its orbit's size (see the module docstring).
    """
    check_h2_size(algebra.n, list(map(len, algebra.sc.values())))
    classes = twin_classes(algebra)
    weights = _TorusWeights(algebra, classes) if classes else None
    f_mult, s_mult = weights.multiplicities() if weights else (None, None)
    e2 = eta2_matrix(algebra, s_mult)
    d1 = delta1_matrix(algebra, f_mult)
    if not e2.matmul(d1).is_zero():
        raise InternalInvariantError(
            "im delta1 is not contained in ker eta2", "h2_nil, containment of im delta1 in ker eta2"
        )
    cols = e2.cols
    ker_eta2, image = cols - e2.rank(), d1.rank()
    if image > ker_eta2:
        raise InternalInvariantError(
            f"rank delta1 = {image} exceeds dim ker eta2 = {ker_eta2}",
            "h2_nil, rank of delta1 against dim ker eta2",
        )
    if weights:
        weights.check_delta1(d1)
    del d1, e2  # delta2 is built only after the other two matrices are released
    ker_delta2 = cols - delta2_matrix(algebra, s_mult).rank()
    return H2Report(ker_eta2, ker_delta2, ker_eta2, image, ker_eta2 - image, True)
