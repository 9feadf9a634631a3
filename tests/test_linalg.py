import random
from fractions import Fraction

import pytest

from graphlie.errors import InternalInvariantError
from graphlie.linalg import (
    CoordinateSolver,
    RatMatrix,
    RowReducer,
    axpy,
    frac,
    frac_str,
    kernel_basis,
    peeled_rank,
)


def test_frac_coercion():
    assert frac(3) == Fraction(3)
    assert frac("-2/7") == Fraction(-2, 7)
    assert frac(Fraction(1, 2)) == Fraction(1, 2)
    assert frac("0.1") == Fraction(1, 10)
    # exponent notation is refused before Fraction builds 10**exponent
    for text in ("1e10000000", "2E3", "1.5e-3"):
        with pytest.raises(ValueError, match="must be an integer, a decimal or p/q"):
            frac(text)
    for text in ("1/0", "-3/0"):
        with pytest.raises(ValueError, match=f"^rational '{text}' has a zero denominator$"):
            frac(text)
    with pytest.raises(TypeError):
        frac(0.5)
    for flag in (True, False):
        with pytest.raises(TypeError):
            frac(flag)


def test_frac_str_reduced():
    assert frac_str(Fraction(4, 8)) == "1/2"
    assert frac_str(Fraction(3)) == "3/1"
    assert frac_str(Fraction(-1, 3)) == "-1/3"


def _matrix(dense, cols=None):
    """A RatMatrix from dense rows of ints or Fractions."""
    dense = [list(row) for row in dense]
    cols = len(dense[0]) if cols is None else cols
    return RatMatrix(len(dense), cols, {r: dict(enumerate(row)) for r, row in enumerate(dense)})


def _dense(matrix):
    out = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        out[r][c] = v
    return out


def _echelon(rows):
    red = RowReducer()
    for row in rows:
        red.add({c: v for c, v in enumerate(row) if v})
    return red


def _random_matrix(rng, rows, cols):
    return _matrix(
        [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
    )


# linalg.rref was a thin wrapper over RowReducer.rows_sorted; these cases
# now check the reducer's rows directly: each has a unit pivot at its least
# column, and no other stored row meets that column.


def test_rref_identity_fixed():
    red = _echelon([[1, 0], [0, 1]])
    assert red.rows_sorted() == [{0: 1}, {1: 1}]
    assert sorted(red.pivots) == [0, 1]
    assert red.rank == 2


def test_rref_dependent_rows():
    red = _echelon([[1, 2], [2, 4]])
    assert red.rank == 1
    assert red.rows_sorted() == [{0: 1, 1: 2}]


def test_rref_fraction_pivot_normalized():
    red = _echelon([[Fraction(2, 3), 1], [0, Fraction(5)]])
    assert red.rank == 2
    assert red.rows_sorted() == [{0: 1}, {1: 1}]


def test_rref_pivots_invariant_under_row_scaling():
    rng = random.Random(11)
    for _ in range(60):
        dense = _dense(_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
        scales = [Fraction(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 2, 3])) for _ in dense]
        scaled = [[c * v for v in row] for c, row in zip(scales, dense)]
        r1, r2 = _echelon(dense), _echelon(scaled)
        assert sorted(r1.pivots) == sorted(r2.pivots)
        assert r1.rank == r2.rank
        assert r1.rows_sorted() == r2.rows_sorted()


def test_coordinate_solver_reduces_each_row_once(monkeypatch):
    reductions = []
    reduce = RowReducer.reduce
    monkeypatch.setattr(RowReducer, "reduce", lambda self, row: reductions.append(1) or reduce(self, row))
    solver = CoordinateSolver(3)
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 3}, {0: 1, 2: -1}]
    assert [solver.add(row) for row in rows] == [{0: 1}, {0: 2}, {1: 1}, {2: 1}]
    # three rows kept, each stored as its one reduction left it
    assert len(reductions) == 4 and solver.size == solver.red.rank == 3


def test_rank_plus_nullity():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        span = _echelon(_dense(_random_matrix(rng, rows, cols)))
        assert span.rank + kernel_basis(span, cols).rank == cols


def test_kernel_examples():
    assert kernel_basis(RowReducer(), 3).rank == 3
    assert kernel_basis(_echelon([[1, 0], [0, 1]]), 2).rank == 0
    ker = kernel_basis(_echelon([[1, 1, 0]]), 3)
    assert ker.rank == 2
    assert ker.contains({0: Fraction(1), 1: Fraction(-1)})


def test_kernel_vectors_annihilate():
    rng = random.Random(23)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        span = _echelon(_dense(m))
        before = span.rows_sorted()
        ker = kernel_basis(span, m.cols)
        assert span.rows_sorted() == before  # the span is only read
        for row in ker.rows_sorted():
            vec = [row.get(i, Fraction(0)) for i in range(m.cols)]
            assert all(sum(x * y for x, y in zip(line, vec)) == 0 for line in _dense(m))


def test_matmul():
    a = _matrix([[1, 2], [3, 4]])
    b = _matrix([[0, 1], [1, 0]])
    assert _dense(a.matmul(b)) == [[2, 1], [4, 3]]
    # products that cancel leave no stored entry
    c = _matrix([[1, 1]]).matmul(_matrix([[1, 2], [-1, 0]]))
    assert c.entries == {(0, 1): 2}
    rng = random.Random(13)
    for _ in range(30):
        rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = _random_matrix(rng, rows, inner), _random_matrix(rng, inner, cols)
        dense = [
            [sum(x * y for x, y in zip(row, col)) for col in zip(*_dense(b))]
            for row in _dense(a)
        ]
        assert a.matmul(b) == _matrix(dense, cols)


def test_matmul_skips_rows_that_meet_no_right_row():
    # only row 1 of the right factor is nonzero, and no left row has column 1
    right = _matrix([[0, 0], [2, 3], [0, 0]])
    product = _matrix([[1, 0, 0], [0, 0, 5]]).matmul(right)
    assert product.is_zero() and (product.rows, product.cols) == (2, 2)
    assert RatMatrix(2, 3).matmul(right).is_zero()
    assert _matrix([[1, 0, 4]]).matmul(RatMatrix(3, 2)).is_zero()
    # row 0 meets it and row 1 does not; int rows stay int
    product = _matrix([[1, 2, 0], [0, 0, 7]]).matmul(right)
    assert product.entries == {(0, 0): 4, (0, 1): 6}
    assert all(type(v) is int for v in product.entries.values())
    # rows of Fractions, one of which meets the right factor only where it cancels
    left = _matrix([[Fraction(1, 2), Fraction(-3, 4), 0], [0, Fraction(2, 3), 0], [0, 0, 9]])
    right = _matrix([[Fraction(3, 2), 1], [1, Fraction(2, 3)], [0, 0]])
    assert _dense(left.matmul(right)) == [
        [Fraction(0), Fraction(0)],
        [Fraction(2, 3), Fraction(4, 9)],
        [0, 0],
    ]
    assert left.matmul(right).entries == {(1, 0): Fraction(2, 3), (1, 1): Fraction(4, 9)}


def test_settled_rows_are_read_as_unit_rows():
    # rows 1 and 3 are settled, unit int rows held as {row: col}, over the
    # matrix's denominator 2; plain has them as rows
    settled = RatMatrix.adopt(4, 3, {0: {0: 4, 2: 1}, 2: {1: -2, 2: 6}}, {1: 2, 3: 0}, 2)
    half = Fraction(1, 2)
    plain = RatMatrix(4, 3, {0: {0: 2, 2: half}, 2: {1: -1, 2: 3}, 1: {2: half}, 3: {0: half}})
    assert plain.scale == 2
    assert settled == plain and plain == settled and repr(settled) == repr(plain)
    assert settled.entries == plain.entries
    assert [dict(row) for row in settled.int_rows()] == [dict(row) for row in plain.int_rows()]
    right = _matrix([[1, 2], [0, 3], [4, 0]])
    assert settled.matmul(right) == plain.matmul(right)
    assert _dense(settled.matmul(right))[1] == [2, 0]  # settled row 1 picks half of right's row 2
    left = _matrix([[1, 1, 1, 1], [0, 5, 0, 0]])
    assert left.matmul(settled) == left.matmul(plain)
    assert settled.rank() == plain.rank() == 3
    assert not RatMatrix.adopt(2, 2, {}, {0: 1}).is_zero()
    assert RatMatrix.adopt(2, 2, {}, {}).is_zero()


def test_axpy_drops_cancelled_entries():
    dst = {0: Fraction(1), 1: Fraction(2)}
    assert axpy(dst, Fraction(-1, 2), {1: Fraction(4), 2: Fraction(6)}) is dst
    assert dst == {0: 1, 2: -3}
    axpy(dst, 3, {2: Fraction(1)})
    assert dst == {0: 1}
    axpy(dst, 0, {5: Fraction(1)})  # a zero coefficient adds no entry
    assert dst == {0: 1}
    ints = {0: 2}
    axpy(ints, -1, {0: 2, 1: 5})
    assert ints == {1: -5} and type(ints[1]) is int


def _solver(rows, offset):
    solver = CoordinateSolver(offset)
    for row in rows:
        solver.add(row)
    return solver


def test_coordinate_solver_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        cols = rng.randint(1, 5)
        matrix = _random_matrix(rng, rng.randint(1, cols), cols)
        rows = [{c: v for c, v in enumerate(row) if v} for row in _dense(matrix)]
        solver = _solver(rows, cols)
        if solver.size < len(rows):  # a dependent row takes no position
            assert solver.size == _echelon(_dense(matrix)).rank
            continue
        coefs = {pos: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for pos in range(len(rows))}
        vec: dict = {}
        for pos, x in coefs.items():
            axpy(vec, x, rows[pos])
        assert solver.solve(vec) == {pos: x for pos, x in coefs.items() if x}
    solver = _solver([{0: Fraction(1), 1: Fraction(1)}], 2)
    assert solver.solve({0: Fraction(2), 1: Fraction(2)}) == {0: 2}
    with pytest.raises(InternalInvariantError):
        solver.solve({0: Fraction(1)})  # outside the span
    # dependent: its coordinates come back and no position is taken
    assert solver.add({0: 3, 1: 3}) == {0: 3} and solver.size == 1
    assert solver.solve({0: Fraction(2), 1: Fraction(2)}) == {0: 2}
    assert solver.add({1: 1}) == {1: 1} and solver.size == 2  # kept as position 1
    assert solver.solve({0: 2, 1: 5}) == {0: 2, 1: 3}
    assert solver.add({0: -1, 1: 4}) == {0: -1, 1: 5} and solver.size == 2


def test_unit_pivots_keep_int_rows():
    red = RowReducer()
    assert red.add({0: -1, 1: 2})
    assert red.pivots[0] == {0: 1, 1: -2}
    assert all(type(v) is int for v in red.pivots[0].values())
    other = RowReducer()
    assert other.add({0: 2, 1: 3})
    assert other.pivots[0] == {0: 1, 1: Fraction(3, 2)}


def test_coordinate_solver_with_non_unit_pivots_stays_exact():
    solver = _solver([{0: 2}, {1: 3}], 2)
    assert solver.solve({0: 1, 1: 1}) == {0: Fraction(1, 2), 1: Fraction(1, 3)}
    unit = _solver([{0: 1, 1: -1}, {1: -1}], 2)
    coords = unit.solve({0: 3, 1: 4})
    assert coords == {0: 3, 1: -7}
    assert all(type(v) is int for v in coords.values())


def _random_span(rng, ambient, dim_hint):
    rows = [
        {c: Fraction(v) for c in range(ambient) if (v := rng.randint(-3, 3))}
        for _ in range(dim_hint)
    ]
    return RowReducer(rows)


def test_subspace_identities():
    # a span built from its own echelon rows, twice over, is the same span,
    # and the span of two spans' rows contains every one of them
    rng = random.Random(5)
    for _ in range(40):
        ambient = rng.randint(1, 6)
        a = _random_span(rng, ambient, rng.randint(0, 3))
        b = _random_span(rng, ambient, rng.randint(0, 3))
        s = RowReducer(a.rows_sorted() + b.rows_sorted())
        assert RowReducer(a.rows_sorted() + a.rows_sorted()).pivots == a.pivots
        assert s.rank <= a.rank + b.rank
        for row in a.rows_sorted() + b.rows_sorted():
            assert s.contains(row)


def test_subspace_contains_examples():
    whole = RowReducer([{0: 1}, {1: 1}])
    line = RowReducer([{0: 1, 1: 1}])
    assert whole.rank == 2 and line.rank == 1
    assert whole.contains({0: Fraction(3), 1: Fraction(-5)})
    assert line.contains({0: Fraction(2), 1: Fraction(2)})
    assert not line.contains({0: Fraction(2), 1: Fraction(1)})
    assert line.contains({})


def _plain_rank(rows):
    # exact over Q by RowReducer, with no peel and no fraction-free step
    return RowReducer(rows).rank


def test_peeled_rank_matches_the_fraction_reducer():
    rng = random.Random(59)
    for _ in range(80):
        rows = [
            {c: rng.choice([-6, -3, -2, -1, 1, 2, 4, 9]) for c in rng.sample(range(7), rng.randint(0, 4))}
            for _ in range(rng.randint(1, 8))
        ]
        # dependent rows: integer combinations of earlier ones, their zero entries dropped
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            combined = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in combined.items() if v})
        rng.shuffle(rows)
        before = [dict(row) for row in rows]
        rank = _plain_rank(rows)
        assert peeled_rank(rows) == rank
        # with one multiplicity for every column, settled columns and pivots alike count 3 times
        assert peeled_rank(rows, [3] * 7) == 3 * rank
        assert rows == before  # the input rows are not modified


def test_peeled_rank_divides_and_scales_leftover_rows():
    # No row has one entry, so the peel leaves all four. {0: 4, 2: 6} is
    # stored as {0: 2, 2: 3} once its content 2 is divided out.
    # {0: 3, 1: 3, 2: 9} has content 3, then meets column 0 with a = 2 and
    # is stored as {1: 2, 2: 3}. {0: 2, 1: 2, 2: 6}, 2/3 of it, eliminates
    # to nothing. {0: 1, 1: 3, 2: 3} meets column 0 with a = 2, which leaves
    # {1: 6, 2: 3} of content 3; as {1: 2, 2: 1} it meets column 1 too and
    # ends as the pivot row {2: -1}.
    rows = [{0: 4, 2: 6}, {0: 3, 1: 3, 2: 9}, {0: 2, 1: 2, 2: 6}, {0: 1, 1: 3, 2: 3}]
    assert peeled_rank(rows) == 3 == _plain_rank(rows)
    assert peeled_rank(rows[:3]) == 2 == _plain_rank(rows[:3])
    assert peeled_rank(rows, [1, 5, 7]) == 13  # pivots on columns 0, 1 and 2
    assert peeled_rank(rows[:3], [1, 5, 7]) == 6
    # content 3, then a = 1: {0: 6, 1: 3, 2: 9} leaves {1: 1}; the third row depends on both
    rows = [{0: 4, 2: 6}, {0: 6, 1: 3, 2: 9}, {0: -2, 1: 5, 2: -3}]
    assert peeled_rank(rows) == 2 == _plain_rank(rows)


def test_peel_settles_a_chain_column_by_column():
    # {0: 4} settles column 0, which leaves {1: 2} of the next row, and so on.
    rows = [{3: 2, 4: -1}, {2: 5, 3: 1}, {1: -1, 2: 3}, {0: 7, 1: 2}, {0: 4}]
    assert peeled_rank(rows) == 5 == _plain_rank(rows)


def test_peel_two_one_entry_rows_on_one_column():
    rows = [{2: 3}, {2: -5}, {1: 1, 2: 1}, {0: 1, 1: 1, 3: 1}, {0: 2, 3: 2}]
    assert peeled_rank(rows) == 3 == _plain_rank(rows)  # column 2 counts once


def test_peel_empties_a_row_inside_the_settled_columns():
    rows = [{0: 1}, {1: -2}, {0: 3, 1: 4}, {1: 1, 2: 1, 3: 1}]
    assert peeled_rank(rows) == 3 == _plain_rank(rows)


def test_peel_without_one_entry_rows_leaves_every_row():
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}, {0: 2, 3: 5}]
    before = [dict(row) for row in rows]
    assert peeled_rank(rows) == 3 == _plain_rank(rows)
    assert rows == before  # the elimination works on copies


def test_peel_of_the_empty_matrix():
    assert peeled_rank([]) == 0
    assert RatMatrix(0, 0).rank() == 0
    assert RatMatrix(3, 4).rank() == 0
    assert peeled_rank([], settled=[1, 1]) == 1
    assert peeled_rank([{1: 2}], settled=[1]) == 1


def test_peeled_rank_of_two_stacked_matrices():
    # below settles column 0, which top leaves to the reducer
    top = [{0: 1, 1: 1}, {2: 3}]
    below = [{0: 2}, {1: 1, 3: 1}]
    assert peeled_rank(top) == 2 == _plain_rank(top)
    assert peeled_rank(top + below) == 4 == _plain_rank(top + below)
    assert peeled_rank(below + top) == 4


def test_peeled_rank_matches_the_reducer_on_random_sparse_rows():
    rng = random.Random(83)

    def draw(cols):
        size = min(cols, rng.choice([1, 1, 1, 1, 2, 2, 3, 4]))  # mostly one entry
        return {c: rng.choice([-3, -2, -1, 1, 2, 5]) for c in rng.sample(range(cols), size)}

    for _ in range(300):
        cols = rng.randint(1, 12)
        top = [draw(cols) for _ in range(rng.randint(0, 12))]
        below = [draw(cols) for _ in range(rng.randint(0, 12))]
        before = [dict(row) for row in top + below]
        assert peeled_rank(top) == _plain_rank(top)
        assert peeled_rank(below) == _plain_rank(below)
        assert peeled_rank(top + below) == _plain_rank(top + below)
        assert peeled_rank(below + top) == _plain_rank(below + top)
        # a settled column ranks as the unit row on it
        units = sorted({c for row in below for c in row})[:2]
        assert peeled_rank(top, settled=units) == _plain_rank(top + [{c: 1} for c in units])
        assert top + below == before  # the input rows are not changed
        # a matrix with Fractions is ranked on its rows scaled to integers
        scaled = {r: {c: Fraction(v, 6) for c, v in row.items()} for r, row in enumerate(top)}
        assert RatMatrix(len(top), cols, scaled).rank() == _plain_rank(top)


def test_rat_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {2: {0: 1}})  # row out of range
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {-1: {0: 1}})
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {0: {2: 1}})  # column out of range
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {0: {-1: 1}})
    with pytest.raises(ValueError):
        RatMatrix(-1, 2)
    with pytest.raises(ValueError):
        RatMatrix(2, -1)
    with pytest.raises(TypeError):
        RatMatrix(2, 2, {0: {0: 0.5}})
    with pytest.raises(TypeError):
        RatMatrix(2, 2, {0: {0: 0.0}})  # a float is rejected even when it is zero


def test_rat_matrix_adopts_and_cleans_its_rows():
    data = {0: {0: 2, 1: 0, 2: Fraction(-1, 3)}, 1: {}, 3: {1: 0}, 4: {2: Fraction(0)}, 5: {0: 7}}
    row0 = data[0]
    m = RatMatrix(6, 3, data)
    # zeros and empty rows are deleted in place, and the values put over the
    # one denominator 3: the matrix keeps the caller's dicts
    assert m.scale == 3
    assert data == {0: {0: 6, 2: -1}, 5: {0: 21}}
    assert row0 == {0: 6, 2: -1}
    assert dict(m.entries) == {(0, 0): 2, (0, 2): Fraction(-1, 3), (5, 0): 7}
    assert len(m.entries) == 3
    assert type(m.entries[(0, 0)]) is int
    with pytest.raises(TypeError):
        m.entries[(1, 1)] = 1  # the (r, c) view is read-only
    assert RatMatrix(6, 3, {0: {0: 2, 2: Fraction(-1, 3)}, 5: {0: 7}}) == m
    assert RatMatrix(2, 2, {0: {}, 1: {0: 0}}).is_zero()


def test_int_rows_scale_to_integers():
    m = RatMatrix(3, 3, {2: {0: Fraction(1, 2), 1: 3}, 0: {2: Fraction(-2, 3)}})
    assert [dict(row) for row in m.int_rows()] == [{2: -4}, {0: 3, 1: 18}]
    ints = RatMatrix(2, 2, {1: {0: 4}, 0: {1: -2}})
    rows = list(ints.int_rows())
    assert [dict(row) for row in rows] == [{1: -2}, {0: 4}]
    with pytest.raises(TypeError):
        rows[0][1] = 5  # the rows are read-only views
