"""Exact rational linear algebra on sparse matrices.

Every coefficient is exact, an int or a fractions.Fraction; there is no
floating point and no tolerance anywhere. A sparse vector is a dict mapping
an index to a nonzero coefficient; integer input stays int until a division
makes a Fraction. Dense vectors are lists. A RatMatrix holds int rows of
such dicts and one denominator, scale, that every entry is divided by.
RowReducer is the one span type; a kernel or a center is a RowReducer.
peeled_rank, the one rank function, ranks integer rows without ever dividing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import not_
from types import MappingProxyType

from .errors import InternalInvariantError

ZERO = Fraction(0)
ONE = Fraction(1)


def is_int(value) -> bool:
    """An int that is not a bool (JSON true/false are never counts or indices)."""
    return isinstance(value, int) and not isinstance(value, bool)


def frac(value) -> Fraction:
    """Coerce an int, a Fraction, or a string like "3", "0.1" or "-2/7".

    Floats are rejected so that inexact values cannot leak in, and bools
    so that a JSON true or false is never read as 1 or 0. Strings in
    exponent notation are rejected too: Fraction("1e10000000") builds
    10**10000000 before it returns.
    """
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():
            raise ValueError(f"rational {value!r} must be an integer, a decimal or p/q")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"rational {value!r} has a zero denominator") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def frac_str(value: Fraction) -> str:
    """Canonical serialization "p/q" with q > 0 and gcd(p, q) = 1."""
    return f"{value.numerator}/{value.denominator}"


def vec_to_dict(vec) -> dict:
    return {i: frac(c) for i, c in enumerate(vec) if c}


def axpy(dst: dict, coef, src: dict) -> dict:
    """dst += coef * src on sparse dicts, in place; entries that cancel are deleted.

    The default for a missing entry is the int 0, so integer rows stay int.
    """
    for key, v in src.items():
        s = dst.get(key, 0) + coef * v
        if s:
            dst[key] = s
        else:
            dst.pop(key, None)
    return dst


def drop_zeros(data: dict) -> dict:
    """Delete the zero entries and then the empty rows of {row: {col: value}}, in place."""
    for r in [r for r, row in data.items() if 0 in row.values() or not row]:
        row = data[r]
        for c in [c for c, v in row.items() if not v]:
            del row[c]
        if not row:
            del data[r]
    return data


class RatMatrix:
    """Sparse matrix over the rationals: int rows {row: {col: int}} over one denominator.

    Entry (r, c) is the stored int divided by scale. Zero entries and empty
    rows are not stored. Settled rows, {row: col} for unit rows never made
    into row dicts, are read as the int rows {col: 1} everywhere. mult, one
    int per column or None, is what rank() counts each settled column and
    pivot by (see peeled_rank).
    """

    __slots__ = ("rows", "cols", "scale", "mult", "_data", "_settled")

    def __init__(self, rows: int, cols: int, data: dict | None = None):
        """Adopt data, a dict {row: {col: value}}, and clean it in place.

        The matrix owns data and its row dicts from here on: zeros and empty
        rows are deleted, and Fractions replaced by ints over scale, the lcm
        of all denominators. Each check is one pass over all entries.
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
        kinds = set(map(type, values))
        if not kinds <= {int, Fraction}:
            raise TypeError("matrix entries must be ints or Fractions")
        if 0 in values or not all(data.values()):
            drop_zeros(data)
        scale = 1
        if Fraction in kinds:
            scale = lcm(*{v.denominator for v in values})
            for row in data.values():
                for c, v in row.items():
                    row[c] = v.numerator * (scale // v.denominator)
        self.rows, self.cols, self.scale, self.mult = rows, cols, scale, None
        self._data, self._settled = data, {}

    @classmethod
    def adopt(cls, rows: int, cols: int, data: dict, settled: dict, scale: int = 1, mult=None) -> "RatMatrix":
        """Take int rows data and settled ({row: col}, rows not in data) as given: in range and clean."""
        self = cls.__new__(cls)
        self.rows, self.cols, self.scale, self.mult = rows, cols, scale, mult
        self._data, self._settled = data, settled
        return self

    def _all_rows(self) -> dict:  # the settled rows included
        return {**self._data, **{r: {c: 1} for r, c in self._settled.items()}}

    @property
    def entries(self) -> MappingProxyType:
        """Read-only {(row, col): int over scale} view of the nonzero entries, built on each call."""
        scale = self.scale
        return MappingProxyType({
            (r, c): v // scale if v % scale == 0 else Fraction(v, scale)
            for r, row in self._all_rows().items() for c, v in row.items()
        })

    def supports(self):
        """(row, its nonzero columns) for each nonzero row, settled rows included, unordered."""
        return chain(self._data.items(), ((r, (c,)) for r, c in self._settled.items()))

    def int_rows(self):
        """The nonzero int rows in row order, as read-only views: scale times the matrix, of its rank."""
        data = self._all_rows()
        return map(MappingProxyType, map(data.__getitem__, sorted(data)))

    def rank(self) -> int:
        """peeled_rank of the int rows, counted by mult when the matrix has one."""
        return peeled_rank(self._data.values(), self.mult, self._settled.values())

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        # Row r of the product sums self[r, c] * (row c of other), or is row c
        # of other if settled on c. The rows of self that meet no nonzero row
        # of other are skipped at C speed before any Python loop runs.
        right, data = other._all_rows(), self._data
        out = {r: dict(right[c]) for r, c in self._settled.items() if c in right}
        for r in compress(data, map(not_, map(right.keys().isdisjoint, data.values()))):
            acc: dict = {}
            for c, v in data[r].items():
                if c in right:
                    axpy(acc, v, right[c])
            if acc:
                out[r] = acc
        return RatMatrix.adopt(self.rows, other.cols, out, {}, self.scale * other.scale)

    def is_zero(self) -> bool:
        return not self._data and not self._settled

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self):
        nnz = sum(map(len, self._data.values())) + len(self._settled)
        return f"RatMatrix({self.rows}x{self.cols}, nnz={nnz})"


class RowReducer:
    """The span of sparse rows, by incremental exact row reduction.

    Stored pivot rows are normalized to a unit pivot and mutually reduced,
    so rows_sorted() is the reduced row echelon basis of the span and rank
    its dimension. The pivot of a row is its least nonzero column, which
    makes the result deterministic. A pivot of 1 or -1 is normalized by
    keeping or negating the row, so int rows stay int; only another pivot
    divides and makes Fractions. Rows are not checked against any ambient
    dimension: the functions that take outside vectors check them.
    """

    def __init__(self, rows=()):
        self.pivots: dict = {}
        for row in rows:
            self.add(row)

    def reduce(self, row: dict) -> dict:
        row = {c: v for c, v in row.items() if v}
        while True:
            hit = None
            for c in row:
                if c in self.pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                return row
            axpy(row, -row[hit], self.pivots[hit])

    def add(self, row: dict) -> bool:
        """Reduce row against the current basis; keep it if independent."""
        red = self.reduce(row)
        if red:
            self.store(red)
        return bool(red)

    def store(self, red: dict) -> None:
        """Keep red, a nonzero row as reduce leaves it (no stored pivot column); red is taken over."""
        p = min(red)
        piv = red[p]
        if piv == -1:
            red = {c: -v for c, v in red.items()}
        elif piv != 1:
            inv = ONE / piv
            red = {c: v * inv for c, v in red.items()}
        for prow in self.pivots.values():
            if p in prow:
                axpy(prow, -prow[p], red)
        self.pivots[p] = red

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rows_sorted(self) -> list:
        return [dict(self.pivots[p]) for p in sorted(self.pivots)]


def peeled_rank(rows, mult=None, settled=()) -> int:
    """Rank of integer rows by structured elimination (LaMacchia & Odlyzko, CRYPTO '90).

    A one-entry row, or a column given in settled, puts a unit vector in the
    row space, so its column is settled: it adds 1 to the rank and is deleted
    from every other row, and rows that drop to one entry settle theirs in
    turn, up to a fixed point. The rows left over are eliminated fraction-free
    (one step; Bareiss, Math. Comp. 22, 1968): a row divided by its content
    pivots on its least column p, and if a stored row prow has p, it becomes
    a*row - b*prow with g = gcd(row[p], prow[p]), a = prow[p]/g, b = row[p]/g.
    Every step is exact, so the rank over Q is the number of settled columns
    and pivots. The given rows (columns to nonzero ints) are not changed.

    With mult, a list of one int per column, each settled column and each
    pivot counts mult[column] times instead of once: the rows are then the
    representative blocks of a block-diagonal matrix, and mult says how many
    blocks of equal rank each stands for (see cohomology.h2_nil).
    """
    queue, live = list(settled), []  # columns to settle, copies of the other rows
    for row in rows:
        if len(row) == 1:
            queue.extend(row)
        else:
            live.append(dict(row))
    index: dict = {}
    for row in live:
        for c in row:
            index.setdefault(c, []).append(row)
    settled = set()
    while queue:
        c = queue.pop()
        if c not in settled:
            settled.add(c)
            for row in index.pop(c, ()):
                del row[c]
                if len(row) == 1:
                    queue.extend(row)
    pivots: dict = {}  # pivot column -> its primitive row
    for row in live:
        while row:
            g = gcd(*row.values())
            if g != 1:
                for c in row:
                    row[c] //= g
            p = min(row)
            prow = pivots.get(p)
            if prow is None:
                pivots[p] = row
                break
            g = gcd(row[p], prow[p])
            a, b = prow[p] // g, row[p] // g
            if a != 1:
                for c in row:
                    row[c] *= a
            axpy(row, -b, prow)
    if mult is None:
        return len(settled) + len(pivots)
    return sum(map(mult.__getitem__, chain(settled, pivots)))


class CoordinateSolver:
    """Coordinates of vectors in the span of independent rows, added one by one.

    Row i is stored with the unit column offset + i appended, so reducing a
    vector v of the span leaves -sum_i x_i e_{offset+i} with v = sum_i x_i
    row_i. offset must exceed every column the rows use.
    """

    def __init__(self, offset: int):
        self.offset = offset
        self.red = RowReducer()
        self.size = 0

    def add(self, row: dict) -> dict:
        """{position: coefficient} of row, kept as the next position if it is independent.

        A row is kept when a column below offset survives its reduction and
        then comes back as {its position: 1}; otherwise the reduction has
        left its coordinates in the rows so far, and size does not change.
        """
        pos = self.offset + self.size
        aug = dict(row)
        aug[pos] = 1
        rem = self.red.reduce(aug)
        if min(rem) >= self.offset:
            del rem[pos]
            return {c - self.offset: -v for c, v in rem.items()}
        self.red.store(rem)
        self.size += 1
        return {self.size - 1: 1}

    def solve(self, vec: dict) -> dict:
        """{position: coefficient} of vec in the rows."""
        rem = self.red.reduce(vec)
        if any(c < self.offset for c in rem):
            raise InternalInvariantError("vector outside the spanned space")
        return {c - self.offset: -v for c, v in rem.items()}


def kernel_basis(span: RowReducer, n: int) -> RowReducer:
    """Right kernel {x in Q^n : r.x = 0 for every row r of span}, read off its echelon rows."""
    pivots = span.pivots
    return RowReducer(
        {f: ONE, **{p: -row[f] for p, row in pivots.items() if f in row}}
        for f in range(n)
        if f not in pivots
    )
