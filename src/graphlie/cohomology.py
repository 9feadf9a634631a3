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
im delta1 <= ker eta2 is asserted at runtime; whether ker eta2 is already
contained in ker delta2 is only recorded as a flag, never assumed.

The matrices are built as integer rows, with the structure constants
scaled by L, the lcm of their denominators. The builder checks each block
against the matrix shape once, drops cancelled entries itself and hands
its rows to RatMatrix.adopt, which scans no entry; they are divided by L
only when L != 1. h2_nil ranks them by structured elimination, each matrix
peeled once: most cochain rows have one entry, and peeling those settles
their columns, so only the few rows left over go through fraction-free
elimination. The stacked rank of eta2 over delta2 continues from eta2's
peeled state and its reducer, so no row is eliminated twice for eta2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import InternalInvariantError
from .liealg import LieAlgebra, lower_central_series
from .limits import check_h2_dim
from .linalg import RatMatrix, drop_zeros


class CochainCoordinates:
    """Index bookkeeping for 1- and 2-cochains on an n-dimensional algebra."""

    def __init__(self, n: int):
        self.n = n
        self.pairs = list(combinations(range(n), 2))
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        self.triples = list(combinations(range(n), 3))
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
    their denominators, and matrix() divides by L only when L != 1. Each
    block is checked against the nrows x ncols shape once, when it is added,
    so matrix() hands the rows to RatMatrix.adopt without a per-entry scan.
    """

    def __init__(self, algebra: LieAlgebra, nrows: int, ncols: int):
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
        self.rows: dict = {}
        self.overlap = False  # an entry written twice; only then can one cancel

    def block(self, base: int, col_base: int, terms: list, coef: int) -> None:
        """Add coef * the block of (d, u, value) terms at row base + d, column col_base + u."""
        if not (0 <= base <= self.nrows - self.n and 0 <= col_base <= self.ncols - self.n):
            raise InternalInvariantError(
                f"a block at ({base}, {col_base}) leaves the {self.nrows}x{self.ncols} matrix"
            )
        rows = self.rows
        for d, u, v in terms:
            row = rows.setdefault(base + d, {})
            col = col_base + u
            if col in row:
                row[col] += coef * v
                self.overlap = True
            else:
                row[col] = coef * v

    def matrix(self) -> RatMatrix:
        """Drop cancelled entries and empty rows, divide by L when L != 1, adopt the rows."""
        rows, scale = self.rows, self.scale
        if self.overlap:
            drop_zeros(rows)
        if scale != 1:
            for row in rows.values():
                for c, v in row.items():
                    row[c] = Fraction(v, scale)
        return RatMatrix.adopt(self.nrows, self.ncols, rows, scale == 1)


def delta1_matrix(algebra: LieAlgebra, coords: CochainCoordinates | None = None) -> RatMatrix:
    n = algebra.n
    coords = coords or CochainCoordinates(n)
    out = _CochainRows(algebra, len(coords.pairs) * n, coords.dim_hom)
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


def delta2_matrix(algebra: LieAlgebra, coords: CochainCoordinates | None = None) -> RatMatrix:
    n = algebra.n
    coords = coords or CochainCoordinates(n)
    out = _CochainRows(algebra, len(coords.triples) * n, coords.dim_two_cochains)
    leads = out.leads
    for t, (x, y, z) in enumerate(coords.triples):
        base = t * n
        # adjoint terms [x, s(y,z)] - [y, s(x,z)] + [z, s(x,y)]
        for lead, (a, b), sign in ((x, (y, z), 1), (y, (x, z), -1), (z, (x, y), 1)):
            if lead in leads:
                out.block(base, coords.pair_index[(a, b)] * n, leads[lead], sign)
        # substitution terms -s([x,y],z) + s([x,z],y) - s([y,z],x)
        for (a, b), arg, sign in (((x, y), z, -1), ((x, z), y, 1), ((y, z), x, -1)):
            for l, v in out.brackets.get((a, b), ()):
                col, s_sign = coords.sigma_coord(l, arg, 0)
                if col is not None:
                    out.block(base, col, out.unit, sign * s_sign * v)
    return out.matrix()


def eta2_matrix(algebra: LieAlgebra, coords: CochainCoordinates | None = None) -> RatMatrix:
    if not is_at_most_two_step(algebra):
        raise ValueError("eta2 is only defined for at most 2-step algebras")
    n = algebra.n
    coords = coords or CochainCoordinates(n)
    out = _CochainRows(algebra, len(coords.pairs) * n * n, coords.dim_two_cochains)
    leads = out.leads
    for p, (a, b) in enumerate(coords.pairs):
        ab = out.brackets.get((a, b), ())
        for c in range(n):
            base = (p * n + c) * n
            # [s(e_a, e_b), e_c] = -[e_c, s(e_a, e_b)]
            if c in leads:
                out.block(base, p * n, leads[c], -1)
            # s([e_a, e_b], e_c)
            for l, v in ab:
                col, s_sign = coords.sigma_coord(l, c, 0)
                if col is not None:
                    out.block(base, col, out.unit, s_sign * v)
    return out.matrix()


def is_at_most_two_step(algebra: LieAlgebra) -> bool:
    """Whether [g, [g, g]] = 0; the lower central series runs once per algebra object."""
    if algebra._two_step is None:
        chain = lower_central_series(algebra)
        algebra._two_step = chain[-1].rank == 0 and len(chain) <= 3
    return algebra._two_step


@dataclass(frozen=True)
class H2Report:
    dim_ker_eta2: int
    dim_ker_delta2: int
    dim_intersection: int
    dim_im_delta1: int
    h2_dim: int
    eta2_subset_delta2: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def h2_nil(algebra: LieAlgebra) -> H2Report:
    """Dimension data of (ker delta2 intersect ker eta2) / im delta1.

    Raises ValueError before any cochain is indexed if the algebra has more
    than limits.MAX_H2_DIM basis elements, and, from eta2_matrix and before
    any other matrix is built, unless it is at most 2-step. Raises
    InternalInvariantError if im delta1 is not inside ker eta2; for an at
    most 2-step algebra that containment is a theorem, so a violation can
    only mean the matrices are wrong.
    """
    check_h2_dim(algebra.n)
    coords = CochainCoordinates(algebra.n)
    e2 = eta2_matrix(algebra, coords)
    d1 = delta1_matrix(algebra, coords)
    if not e2.matmul(d1).is_zero():
        raise InternalInvariantError(
            "im delta1 is not contained in ker eta2", "h2_nil, containment of im delta1 in ker eta2"
        )
    # Each matrix is peeled once. The stacked rank of eta2 over delta2
    # continues from both peeled states, eta2's reducer included. delta2 is
    # built only after the other two matrices are released.
    eta2 = e2.peeled()
    image = d1.peeled().rank
    del d1, e2
    delta2 = delta2_matrix(algebra, coords).peeled()
    cols = coords.dim_two_cochains
    ker_eta2, ker_delta2 = cols - eta2.rank, cols - delta2.rank
    meet = cols - eta2.stacked_rank(delta2)
    return H2Report(ker_eta2, ker_delta2, meet, image, meet - image, meet == ker_eta2)
