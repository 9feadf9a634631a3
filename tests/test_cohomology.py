import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from graphlie.basis import structure_constants
from graphlie.cohomology import (
    CochainCoordinates,
    H2Report,
    delta1_matrix,
    delta2_matrix,
    eta2_matrix,
    h2_nil,
    orbit_multiplicities,
    twin_classes,
)
from graphlie.graphs import SimpleGraph, _twin_classes, enumerate_graphs, from_graph6, to_graph6
from graphlie.liealg import (
    LieAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    center,
    is_at_most_two_step,
    jacobi_report,
    lower_central_series,
)
from graphlie.linalg import ONE, ZERO, RatMatrix, RowReducer, axpy, peeled_rank
from oracles import (
    closed_form_h2,
    complex_identity_holds,
    edge_set,
    rank_mod_p,
    ref_delta2,
    ref_eta2,
    whole_matrix_h2,
)

C4 = SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
TWO_K2 = SimpleGraph.make(4, [(1, 2), (3, 4)])
PATH3 = SimpleGraph.make(3, [(1, 2), (2, 3)])
K2_PLUS_POINT = SimpleGraph.make(3, [(1, 2)])
K3 = SimpleGraph.make(3, [(1, 2), (1, 3), (2, 3)])
K2 = SimpleGraph.make(2, [(1, 2)])

HEISENBERG = LieAlgebra(3, {(0, 1): {2: 1}})
ABELIAN2 = LieAlgebra(2, {})


def _mul_vec(matrix, vec):
    """Matrix times dense column vector."""
    out = [ZERO] * matrix.rows
    for (r, c), v in matrix.entries.items():
        out[r] += v * vec[c]
    return out


def _by_rows(entries):
    """A {(row, col): value} dict regrouped as the {row: {col: value}} a RatMatrix takes."""
    rows: dict = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    return rows


def _sigma_vector(coords, values):
    """Dense coordinates of a 2-cochain given as {(a, b): sparse image}, through sigma_coord."""
    out = [ZERO] * coords.dim_two_cochains
    for (a, b), image in values.items():
        for c, coef in image.items():
            col, sign = coords.sigma_coord(a, b, c)
            out[col] += sign * coef
    return out


def test_coordinates():
    coords = CochainCoordinates(3)
    assert coords.pairs == [(0, 1), (0, 2), (1, 2)]
    assert coords.dim_hom == 9
    assert coords.dim_two_cochains == 9
    assert coords.f_coord(2, 1) == 7
    assert coords.sigma_coord(0, 2, 1) == (4, 1)
    assert coords.sigma_coord(2, 0, 1) == (4, -1)
    assert coords.sigma_coord(1, 1, 0) == (None, 0)


def test_sigma_vector_antisymmetry():
    coords = CochainCoordinates(3)
    direct = _sigma_vector(coords, {(0, 1): {2: ONE}})
    flipped = _sigma_vector(coords, {(1, 0): {2: -ONE}})
    assert direct == flipped


def test_abelian_differentials_vanish():
    alg = LieAlgebra(3, {})
    assert delta1_matrix(alg).is_zero()
    assert delta2_matrix(alg).is_zero()
    assert eta2_matrix(alg).is_zero()


def test_abelian_h2_counts_two_cochains():
    report = h2_nil(ABELIAN2)
    assert report.h2_dim == 2
    assert report.dim_im_delta1 == 0
    report3 = h2_nil(LieAlgebra(3, {}))
    assert report3.h2_dim == 9


def test_delta1_of_identity_is_bracket():
    for alg in (HEISENBERG, structure_constants(C4, 2)):
        coords = CochainCoordinates(alg.n)
        identity = [ZERO] * coords.dim_hom
        for a in range(alg.n):
            identity[coords.f_coord(a, a)] = ONE
        image = _mul_vec(delta1_matrix(alg), identity)
        expected = [ZERO] * (len(coords.pairs) * alg.n)
        for p, (a, b) in enumerate(coords.pairs):
            for d, v in alg.bracket_basis(a, b).items():
                expected[p * alg.n + d] = v
        assert image == expected


def test_delta2_kills_the_bracket_cochain():
    # sigma(x, y) = [x, y] is a cocycle precisely by the Jacobi identity
    for alg in (HEISENBERG, structure_constants(C4, 2), structure_constants(K2, 3)):
        coords = CochainCoordinates(alg.n)
        values = {}
        for (a, b) in coords.pairs:
            terms = alg.bracket_basis(a, b)
            if terms:
                values[(a, b)] = terms
        sigma = _sigma_vector(coords, values)
        assert all(c == ZERO for c in _mul_vec(delta2_matrix(alg), sigma))


def test_delta1_kernel_is_derivation_space():
    # independent count: solve the derivation equations directly
    alg = HEISENBERG
    n = alg.n
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            target = alg.bracket_basis(i, j)
            for d in range(n):
                row = {}

                def put(col, val, row=row):
                    s = row.get(col, ZERO) + val
                    if s:
                        row[col] = s
                    else:
                        row.pop(col, None)

                for c in range(n):
                    v = alg.bracket_basis(c, j).get(d)
                    if v:
                        put(i * n + c, v)
                    v = alg.bracket_basis(i, c).get(d)
                    if v:
                        put(j * n + c, v)
                for l, v in target.items():
                    put(l * n + d, -v)
                if row:
                    rows.append(row)
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = Fraction(1) / row[c]
                pivots[c] = {cc: vv * inv for cc, vv in row.items()}
                rank += 1
                break
            coef = row[c]
            for cc, vv in piv.items():
                s = row.get(cc, ZERO) - coef * vv
                if s:
                    row[cc] = s
                else:
                    row.pop(cc, None)
    assert rank == 3  # so the derivation algebra has dimension 9 - 3 = 6
    report = h2_nil(alg)
    assert report.dim_im_delta1 == rank


def test_complex_identity():
    assert complex_identity_holds(HEISENBERG)
    assert complex_identity_holds(structure_constants(C4, 2))
    assert complex_identity_holds(structure_constants(K2, 3))


def test_is_at_most_two_step():
    assert is_at_most_two_step(HEISENBERG)
    assert is_at_most_two_step(ABELIAN2)
    assert not is_at_most_two_step(structure_constants(K2, 3))
    assert not is_at_most_two_step(LieAlgebra(2, {(0, 1): {1: 1}}))


def test_two_step_guards():
    three_step = structure_constants(K2, 3)
    with pytest.raises(ValueError):
        eta2_matrix(three_step)
    with pytest.raises(ValueError):
        h2_nil(three_step)


def test_h2_checks_two_step_once(monkeypatch):
    import graphlie.liealg as liealg

    calls = []

    def counted(algebra):
        calls.append(algebra)
        return lower_central_series(algebra)

    monkeypatch.setattr(liealg, "lower_central_series", counted)
    # a fresh algebra object: the answer is kept on the object, and the
    # cached one structure_constants returns may have been checked already
    alg = structure_constants.__wrapped__(C4, 2)
    h2_nil(alg)
    assert len(calls) == 1
    h2_nil(alg)
    assert is_at_most_two_step(alg) and len(calls) == 1


def test_h2_fixed_reports():
    expected = {
        C4: (40, 100, 40, 40, 0),
        TWO_K2: (20, 50, 20, 20, 0),
        PATH3: (12, 31, 12, 12, 0),
        K2_PLUS_POINT: (8, 19, 8, 6, 2),
        K3: (18, 48, 18, 18, 0),
    }
    for graph, values in expected.items():
        report = h2_nil(structure_constants(graph, 2))
        got = (
            report.dim_ker_eta2,
            report.dim_ker_delta2,
            report.dim_intersection,
            report.dim_im_delta1,
            report.h2_dim,
        )
        assert got == values, graph
        assert report.eta2_subset_delta2


def test_h2_heisenberg():
    report = h2_nil(HEISENBERG)
    assert report.h2_dim == 0
    assert report.dim_ker_eta2 == 3
    assert report.dim_im_delta1 == 3


def test_report_json_keys():
    data = h2_nil(ABELIAN2).to_json_dict()
    assert data == {
        "dim_ker_eta2": 2,
        "dim_ker_delta2": 2,
        "dim_intersection": 2,
        "dim_im_delta1": 0,
        "h2_dim": 2,
        "eta2_subset_delta2": True,
    }


def _permuted(alg, perm):
    sc = {}
    for (i, j), terms in alg.sc.items():
        a, b = perm[i], perm[j]
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        sc[(a, b)] = {perm[l]: sign * c for l, c in terms.items()}
    return LieAlgebra(alg.n, sc)


def test_h2_is_basis_order_invariant():
    rng = random.Random(41)
    for graph in (PATH3, K2_PLUS_POINT, TWO_K2):
        alg = structure_constants(graph, 2)
        for _ in range(3):
            perm = list(range(alg.n))
            rng.shuffle(perm)
            assert h2_nil(_permuted(alg, perm)) == h2_nil(alg)


def test_h2_dimension_arithmetic():
    for m in (2, 3, 4):
        for graph in enumerate_graphs(m):
            alg = structure_constants(graph, 2)
            report = h2_nil(alg)
            assert report.dim_intersection <= report.dim_ker_eta2
            assert report.dim_intersection <= report.dim_ker_delta2
            assert report.dim_im_delta1 <= report.dim_intersection
            assert report.h2_dim >= 0
            assert isinstance(report.eta2_subset_delta2, bool)


# ---------------------------------------------------------------------------
# The integer h2 engine against independent references.
#
# The builder below is the original entry-by-entry Fraction builder of delta1,
# kept verbatim as a reference for the shared integer row builder; delta2's
# and eta2's are oracles.ref_delta2 and oracles.ref_eta2. _fraction_h2 is the
# original four-elimination h2 over the Fraction RowReducer.


def _ref_delta1(algebra, coords):
    n = algebra.n
    entries: dict = {}

    def put(row, col, val):
        s = entries.get((row, col), ZERO) + val
        if s:
            entries[(row, col)] = s
        else:
            entries.pop((row, col), None)

    for p, (a, b) in enumerate(coords.pairs):
        base = p * n
        for c in range(n):
            for d, v in algebra.bracket_basis(c, b).items():
                put(base + d, coords.f_coord(a, c), v)
        for c in range(n):
            for d, v in algebra.bracket_basis(a, c).items():
                put(base + d, coords.f_coord(b, c), v)
        for l, v in algebra.bracket_basis(a, b).items():
            for d in range(n):
                put(base + d, coords.f_coord(l, d), -v)
    return RatMatrix(len(coords.pairs) * n, coords.dim_hom, _by_rows(entries))


def _fraction_rank(*matrices):
    red = RowReducer()
    for matrix in matrices:
        for row in _by_rows(matrix.entries).values():
            red.add(row)
    return red.rank


def _fraction_h2(algebra):
    coords = CochainCoordinates(algebra.n)
    d1 = _ref_delta1(algebra, coords)
    d2 = ref_delta2(algebra, coords)
    e2 = ref_eta2(algebra, coords)
    cols = coords.dim_two_cochains
    dim_ker_eta2 = cols - _fraction_rank(e2)
    dim_intersection = cols - _fraction_rank(d2, e2)
    dim_im_delta1 = _fraction_rank(d1)
    return H2Report(
        dim_ker_eta2=dim_ker_eta2,
        dim_ker_delta2=cols - _fraction_rank(d2),
        dim_intersection=dim_intersection,
        dim_im_delta1=dim_im_delta1,
        h2_dim=dim_intersection - dim_im_delta1,
        eta2_subset_delta2=dim_intersection == dim_ker_eta2,
    )


def _graph_algebras(max_m, k=2):
    """Algebras of every graph class with at least one edge and at most max_m vertices."""
    return [
        structure_constants(graph, k)
        for m in range(2, max_m + 1)
        for graph in enumerate_graphs(m)
        if edge_set(graph)
    ]


RATIONALS = [Fraction(-2, 7), Fraction(3, 9), Fraction(5, 4), Fraction(-1, 6), Fraction(7, 3), Fraction(-11, 12)]


def _rescaled(algebra, rng):
    """A 2-step algebra with the bracket pattern of algebra and rational constants.

    Every stored constant is multiplied by a random rational, and about half
    of the brackets also gain a term on another degree-two element. Degree
    two is central, so the result is again an at most 2-step Lie algebra.
    """
    top = list(algebra.degree_block(2))
    sc = {}
    for pair, terms in algebra.sc.items():
        new = {l: c * rng.choice(RATIONALS) for l, c in terms.items()}
        if len(top) > 1 and rng.random() < 0.5:
            l = rng.choice(top)
            new[l] = new.get(l, ZERO) + rng.choice(RATIONALS)
        sc[pair] = new
    return LieAlgebra(algebra.n, sc)


def _rescaled_algebras():
    rng = random.Random(2024)
    return [_rescaled(alg, rng) for alg in _graph_algebras(5) if alg.n <= 10]


def test_h2_matches_fraction_oracle_on_small_graphs():
    algebras = _graph_algebras(5)
    assert len(algebras) == 47
    for alg in algebras:
        assert h2_nil(alg) == _fraction_h2(alg)


def test_h2_matches_fraction_oracle_on_rational_constants():
    algebras = _rescaled_algebras()
    assert len(algebras) >= 30
    assert all(
        any(c.denominator > 1 for terms in alg.sc.values() for c in terms.values())
        for alg in algebras
    )
    for alg in algebras:
        assert h2_nil(alg) == _fraction_h2(alg)


def _loaded_two_step(rng):
    """A 2-step algebra with rational constants, in a basis that may hide its center.

    Generators x_0..x_{g-1} and central vectors z, each bracket of two
    generators zero or a rational multiple of one z. Half the time the basis
    vector e_z is then replaced by f_z = e_z + t e_x for a generator x, as in
    TWISTED_HEISENBERG: the center is no longer spanned by basis vectors, and
    each bracket keeps at most two terms.
    """
    g, h = rng.randint(2, 4), rng.randint(1, 3)
    n = g + h
    sc = {}
    for pair in combinations(range(g), 2):
        if rng.random() < 0.6:
            sc[pair] = {rng.randrange(g, n): rng.choice(RATIONALS)}
    alg = LieAlgebra(n, sc)
    if rng.random() < 0.5:
        return alg
    z, x, t = rng.randrange(g, n), rng.randrange(g), rng.choice(RATIONALS)
    image = {a: {a: ONE} for a in range(n)}
    image[z] = {z: ONE, x: t}
    twisted = {}
    for a, b in combinations(range(n), 2):
        w: dict = {}
        for p, cp in image[a].items():
            for q, cq in image[b].items():
                axpy(w, cp * cq, alg.bracket_basis(p, q))
        if z in w:  # e_z = f_z - t f_x
            axpy(w, -t * w[z], {x: ONE})
        if w:
            twisted[(a, b)] = w
    return LieAlgebra(n, twisted)


def test_h2_matches_the_oracles_on_loaded_two_step_algebras():
    # Both eta2 shortcuts on algebras no graph gives: a center that is not
    # spanned by basis vectors (eta2 then writes the annihilator's basis
    # rows), one- and two-term brackets, and central arguments.
    rng = random.Random(2110)
    hidden = settled = 0
    for _ in range(60):
        alg = _loaded_two_step(rng)
        assert is_at_most_two_step(alg)
        hidden += any(len(row) > 1 for row in center(alg).rows_sorted())
        settled += bool(eta2_matrix(alg)._settled)
        assert h2_nil(alg) == whole_matrix_h2(alg) == _fraction_h2(alg), alg.sc
    assert hidden >= 20 and settled >= 20


P4 = SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4)])


def _corrupt_delta1(monkeypatch, alg) -> None:
    """Patch delta1_matrix to add a row with a unit entry on column 0 at index col,
    the least eta2 column (every column built) that is settled and that no built
    eta2 row meets. The builder's scale and multiplicities stay on the matrix."""
    import graphlie.cohomology as cohomology

    e2, d1 = eta2_matrix(alg), delta1_matrix(alg)
    built = set().union(*e2._data.values())
    col = min(c for c in e2._settled.values() if c not in built)
    assert col not in d1._data

    def wrong_delta1(algebra, mult=None):
        right = delta1_matrix(algebra, mult)
        rows = {**right._data, col: {0: 1}}
        return RatMatrix.adopt(right.rows, right.cols, rows, right._settled, right.scale, right.mult)

    monkeypatch.setattr(cohomology, "delta1_matrix", wrong_delta1)


def test_containment_is_checked_on_the_settled_rows(monkeypatch):
    # A delta1 row on a column that eta2 settles and that no built eta2 row
    # meets: only the settled rows can see im delta1 leave ker eta2.
    from graphlie.errors import InternalInvariantError

    alg = structure_constants(P4, 2)
    assert twin_classes(alg) == []  # every column is built, as in h2_nil
    _corrupt_delta1(monkeypatch, alg)
    with pytest.raises(InternalInvariantError, match="im delta1 is not contained in ker eta2"):
        h2_nil(alg)


def test_h2nil_command_names_the_graph_of_an_invariant_failure(monkeypatch, capsys):
    from graphlie.cli import run_command

    assert to_graph6(P4) == "Ch"
    _corrupt_delta1(monkeypatch, structure_constants(P4, 2))
    assert run_command(["cohomology", "h2nil", "--graph6", "Ch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal invariant failure: im delta1 is not contained in ker eta2 "
        "(graph6 Ch, k = 2, phase: h2_nil, containment of im delta1 in ker eta2)\n"
    )


def test_a_negative_h2_is_refused(monkeypatch, capsys):
    # On K3 the corrupted row lies in a weight that the twin orbits skip, so
    # the containment check, which multiplies only the built blocks, passes;
    # the rank of delta1 then exceeds dim ker eta2.
    from graphlie.cli import run_command
    from graphlie.errors import InternalInvariantError

    alg = structure_constants(K3, 2)
    assert to_graph6(K3) == "Bw" and twin_classes(alg) == [[0, 1, 2]]
    report = h2_nil(alg)
    assert report.h2_dim == 0
    _corrupt_delta1(monkeypatch, alg)
    phase = "phase: h2_nil, rank of delta1 against dim ker eta2"
    message = f"rank delta1 = {report.dim_im_delta1 + 1} exceeds dim ker eta2 = {report.dim_ker_eta2}"
    with pytest.raises(InternalInvariantError) as caught:
        h2_nil(alg)
    assert str(caught.value) == f"{message} ({phase})"
    for command in (["cohomology", "h2nil"], ["rigidity", "classify", "--k", "2"]):
        assert run_command([*command, "--graph6", "Bw"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal invariant failure: {message} (graph6 Bw, k = 2, {phase})\n"


def test_every_corrupted_class_is_refused(monkeypatch, capsys):
    # _corrupt_delta1 applies to every class with an edge on 3-5 vertices.
    # The containment product sees the corrupted row where it meets a built
    # block and the negative-h2 refusal where h2 is 0; in the other 14
    # classes the row joins two weight blocks of different multiplicities.
    from collections import Counter

    from graphlie.cli import run_command
    from graphlie.errors import InternalInvariantError

    phases = Counter()
    for graph in (graph for m in range(3, 6) for graph in enumerate_graphs(m) if edge_set(graph)):
        alg = structure_constants(graph, 2)
        with monkeypatch.context() as patch:
            _corrupt_delta1(patch, alg)
            with pytest.raises(InternalInvariantError) as caught:
                h2_nil(alg)
        phases[caught.value.phase] += 1
    weights = "h2_nil, weight blocks of delta1"
    assert phases == {
        "h2_nil, containment of im delta1 in ker eta2": 28,
        "h2_nil, rank of delta1 against dim ker eta2": 4,
        weights: 14,
    }
    # on CF (h2 = 6) the corrupted row passes the containment product and would lower h2 to 5
    alg = structure_constants(from_graph6("CF"), 2)
    assert h2_nil(alg).h2_dim == 6
    _corrupt_delta1(monkeypatch, alg)
    assert run_command(["cohomology", "h2nil", "--graph6", "CF"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant failure: delta1 entry (")
    assert captured.err.endswith(f" joins two weight blocks (graph6 CF, k = 2, phase: {weights})\n")


def _weights(alg) -> tuple:
    """The weight tuple of every 1-cochain column and every 2-cochain coordinate, unpacked."""
    md = [label.multidegree for label in alg.labels]
    f_weights = [tuple(map(int.__sub__, md[b], md[a])) for a in range(alg.n) for b in range(alg.n)]
    s_weights = [
        tuple(z - x - y for x, y, z in zip(md[a], md[b], md[c]))
        for a, b in combinations(range(alg.n), 2) for c in range(alg.n)
    ]
    return f_weights, s_weights


def test_a_delta1_entry_between_weights_of_equal_multiplicity_is_refused(monkeypatch):
    # One delta1 entry (r, c) added at the first row r, and its first column
    # c, where both multiplicities are equal and positive but the weights
    # differ. The containment product sees it in 34 of the 40 twin classes on
    # 3-5 vertices that have such an entry; in the other 6 a multiplicity
    # check passed it and h2 came back lower (C? 24 -> 12, D?C 30 -> 27, ...).
    from collections import Counter

    import graphlie.cohomology as cohomology
    from graphlie.errors import InternalInvariantError

    weights = "h2_nil, weight blocks of delta1"
    phases, refused = Counter(), []
    for graph in (graph for m in range(3, 6) for graph in enumerate_graphs(m)):
        alg = structure_constants(graph, 2)
        f_mult, s_mult = orbit_multiplicities(alg)
        if f_mult is None:
            continue
        f_weights, s_weights = _weights(alg)
        right = delta1_matrix(alg, f_mult)
        stored = {(r, c) for r, cols in right.supports() for c in cols}
        entry = next((
            (r, c) for r in range(len(s_mult)) if s_mult[r] for c in range(len(f_mult))
            if s_mult[r] == f_mult[c] and s_weights[r] != f_weights[c] and (r, c) not in stored
        ), None)
        if entry is None:
            continue
        r, c = entry
        assert r not in right._settled

        def wrong_delta1(algebra, mult=None):
            rows = {row: dict(cols) for row, cols in right._data.items()}
            rows.setdefault(r, {})[c] = 1
            return RatMatrix.adopt(right.rows, right.cols, rows, right._settled, right.scale, right.mult)

        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "delta1_matrix", wrong_delta1)
            with pytest.raises(InternalInvariantError) as caught:
                h2_nil(alg)
        phases[caught.value.phase] += 1
        if caught.value.phase == weights:
            refused.append(to_graph6(graph))
            assert str(caught.value).startswith(f"delta1 entry ({r}, {c}) joins two weight blocks")
    assert phases == {"h2_nil, containment of im delta1 in ker eta2": 34, weights: 6}
    assert refused == ["C?", "C@", "D?C", "D?K", "D@K", "D@["]


def test_builders_match_reference_builders():
    rng = random.Random(77)
    algebras = _graph_algebras(4) + [_rescaled(alg, rng) for alg in _graph_algebras(4)]
    # delta1 and delta2 are defined for any Lie algebra, not only 2-step ones
    deeper = [structure_constants(K2, 3), structure_constants(PATH3, 3), structure_constants(C4, 3)]
    for alg in algebras + [TWISTED_HEISENBERG] + deeper:
        # delta2_matrix and eta2_matrix settle or replace the rows they can
        # write down from the center, so they match the reference in row
        # space, not row by row; delta1 keeps every row
        coords = CochainCoordinates(alg.n)
        assert delta1_matrix(alg) == _ref_delta1(alg, coords)
        d2, ref = delta2_matrix(alg), ref_delta2(alg, coords)
        assert _int_rank(d2) == _int_rank(ref) == _int_rank(d2, ref)
        if is_at_most_two_step(alg):
            e2, ref = eta2_matrix(alg), ref_eta2(alg, coords)
            assert _int_rank(e2) == _int_rank(ref) == _int_rank(e2, ref)


def test_matrices_hold_ints_unless_constants_have_denominators():
    # The builders hand their integer rows to the matrix as they are, with L,
    # the lcm of the constants' denominators, as its scale, and entries reads
    # them divided by L. delta1 keeps every row, so it matches its reference
    # row by row; delta2 and eta2 settle or replace rows, so in row space.
    rng = random.Random(5)
    for alg in _graph_algebras(4):
        for build in (delta1_matrix, delta2_matrix, eta2_matrix):
            matrix = build(alg)
            assert matrix.scale == 1, build.__name__
            assert all(type(v) is int for v in matrix.entries.values()), build.__name__
        entries = eta2_matrix(_rescaled(alg, rng)).entries
        assert any(isinstance(v, Fraction) and v.denominator > 1 for v in entries.values())
    for alg in _rescaled_algebras():
        scale = lcm(*(c.denominator for terms in alg.sc.values() for c in terms.values()))
        assert scale > 1
        coords = CochainCoordinates(alg.n)
        refs = (_ref_delta1(alg, coords), ref_delta2(alg, coords), ref_eta2(alg, coords))
        for build, ref in zip((delta1_matrix, delta2_matrix, eta2_matrix), refs):
            matrix = build(alg)
            assert matrix.scale == scale, build.__name__
            assert all(type(v) is int for row in matrix._data.values() for v in row.values())
            if build is delta1_matrix:
                assert dict(matrix.entries) == dict(ref.entries)
            else:
                assert _int_rank(matrix) == _int_rank(ref) == _int_rank(matrix, ref), build.__name__


# Heisenberg in the basis x, y, z + x: [x, y] = z - x and [y, z] = x - z,
# so the ad and identity blocks of all three builders meet and cancel.
TWISTED_HEISENBERG = LieAlgebra(3, {(0, 1): {2: 1, 0: -1}, (1, 2): {2: -1, 0: 1}})


def _random_table(rng):
    """An alternating bracket table with rational constants; Jacobi is not imposed."""
    n = rng.randint(3, 6)
    sc = {}
    for pair in combinations(range(n), 2):
        if rng.random() < 0.5:
            sc[pair] = {l: rng.choice(RATIONALS) for l in rng.sample(range(n), rng.randint(1, 2))}
    return LieAlgebra(n, sc)


def test_delta2_rows_are_signed_sums_of_eta2_rows():
    # delta2 s (x,y,z) = -eta2 s (y,z,x) + eta2 s (x,z,y) - eta2 s (x,y,z) for
    # every alternating bracket, so ker eta2 <= ker delta2, and h2_nil takes
    # the intersection to be ker eta2 (the cohomology docstring has the proof).
    rng = random.Random(1926)
    algebras = [
        structure_constants(graph, k)
        for k, top in ((2, 5), (3, 4))
        for m in range(2, top + 1)
        for graph in enumerate_graphs(m)
    ]
    graphs = [alg for alg in algebras if alg.n <= 12]
    tables: list = []
    while len(tables) < 40:  # tables that break Jacobi somewhere
        table = _random_table(rng)
        if jacobi_report(table):
            tables.append(table)
    assert len(graphs) == 56
    for alg in graphs + [TWISTED_HEISENBERG] + tables:
        n, coords = alg.n, CochainCoordinates(alg.n)
        eta2 = _by_rows(ref_eta2(alg, coords).entries)
        delta2 = _by_rows(ref_delta2(alg, coords).entries)
        for t, (a, b, c) in enumerate(combinations(range(n), 3)):
            for d in range(n):
                total: dict = {}
                for pair, arg, sign in (((b, c), a, -1), ((a, c), b, 1), ((a, b), c, -1)):
                    axpy(total, sign, eta2.get((coords.pair_index[pair] * n + arg) * n + d, {}))
                assert total == delta2.get(t * n + d, {}), (alg.sc, (a, b, c), d)


def test_annihilator_and_center_split_the_dual():
    # The annihilator blocks of delta2 and eta2 and the center both read
    # liealg.ad_span, cached on the algebra: the annihilator's rows are a
    # basis, each kills every center vector, and the two ranks add up to n.
    # center runs before and after, so neither reader may change the span.
    import graphlie.cohomology as cohomology

    rng = random.Random(41)
    scaled = {pair: {l: c * rng.choice(RATIONALS) for l, c in terms.items()}
              for pair, terms in TWISTED_HEISENBERG.sc.items()}
    algebras = [
        structure_constants(graph, k) for k in (2, 3) for m in range(2, 6) for graph in enumerate_graphs(m)
    ]
    for alg in algebras + [TWISTED_HEISENBERG, LieAlgebra(3, scaled)]:
        first = center(alg).rows_sorted()
        terms, settle = cohomology._annihilator(alg)
        rows: dict = {}
        for i, u, v in terms or settle:
            rows.setdefault(i, {})[u] = v
        z = center(alg)
        assert z.rows_sorted() == first
        assert RowReducer(rows.values()).rank == len(rows)
        assert len(rows) + z.rank == alg.n
        for row in rows.values():
            for vec in first:
                assert sum(v * vec.get(u, 0) for u, v in row.items()) == 0


def test_adopted_builder_rows_match_the_validating_constructor(monkeypatch):
    import graphlie.cohomology as cohomology

    raw_zeros = []
    original = cohomology._CochainRows.matrix

    def counted(self):
        raw_zeros.append(sum(v == 0 for row in self.rows.values() for v in row.values()))
        return original(self)

    monkeypatch.setattr(cohomology._CochainRows, "matrix", counted)
    rng = random.Random(17)
    graphs = [graph for m in range(2, 6) for graph in enumerate_graphs(m)]
    algebras = [structure_constants(graph, 2) for graph in graphs]
    loaded = _rescaled(structure_constants(C4, 2), rng)
    assert loaded.n > 0 and any(c.denominator > 1 for t in loaded.sc.values() for c in t.values())
    for alg in algebras + [loaded, TWISTED_HEISENBERG]:
        for build in (delta1_matrix, delta2_matrix, eta2_matrix):
            adopted = build(alg)
            data = _by_rows(adopted.entries)  # the settled rows too
            checked = RatMatrix(adopted.rows, adopted.cols, data)
            assert adopted == checked, (build.__name__, alg.n)
            assert all(adopted._data.values())  # no empty row is kept
            assert all(type(v) is int for row in adopted._data.values() for v in row.values())
            assert adopted.scale % checked.scale == 0
    # entries cancelled in every builder on the twisted basis, and no dimension moved
    assert min(raw_zeros[-3:]) > 0
    assert h2_nil(TWISTED_HEISENBERG) == h2_nil(HEISENBERG)


def test_builder_blocks_past_the_matrix_edge_raise(monkeypatch):
    import graphlie.cohomology as cohomology
    from graphlie.errors import InternalInvariantError

    # [e1, e2] = e0: every builder writes a block into its last n rows
    alg = LieAlgebra(3, {(1, 2): {0: 1}})
    out = cohomology._CochainRows(alg, 6, 6)
    out.block(3, 3, out.leads[1], 1)
    out.block(0, 0, out.unit, 1)  # blocks that just fit
    for base, col_base in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        for terms in (out.leads[1], out.unit):
            with pytest.raises(InternalInvariantError):
                out.block(base, col_base, terms, 1)
    # a builder that has one row fewer than its blocks need
    original = cohomology._CochainRows.__init__

    def one_row_short(self, algebra, nrows, ncols, mult=None):
        original(self, algebra, nrows - 1, ncols, mult)

    monkeypatch.setattr(cohomology._CochainRows, "__init__", one_row_short)
    for build in (delta1_matrix, delta2_matrix, eta2_matrix):
        with pytest.raises(InternalInvariantError) as caught:
            build(alg)
        assert caught.value.phase == "cochain matrix build, block shape"


def test_integer_rank_path_makes_no_fraction(monkeypatch):
    # From the builders to the ranks, an integer algebra's rows stay ints.
    # The 2-step check in eta2_matrix reduces Fraction subspaces, so it is
    # answered here in advance.
    import graphlie.cohomology as cohomology

    alg = structure_constants(C4, 2)
    assert is_at_most_two_step(alg)
    monkeypatch.setattr(cohomology, "is_at_most_two_step", lambda algebra: True)
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    e2, d1 = eta2_matrix(alg), delta1_matrix(alg)
    assert e2.matmul(d1).is_zero()
    d2 = delta2_matrix(alg)
    ranks = [e2.rank(), d1.rank(), d2.rank()]
    stacked = peeled_rank([row for matrix in (e2, d1, d2) for row in matrix.int_rows()])
    monkeypatch.undo()
    assert stacked > 0 and min(ranks) > 0
    assert made == []
    assert Fraction(2, 4) == Fraction(1, 2) and not made  # the constructor is restored


def _blocks(matrix):
    """The entries of matrix split into blocks that share no row and no column."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in matrix.entries:
        a, b = find(("r", r)), find(("c", c))
        if a != b:
            parent[a] = b
    blocks: dict = {}
    for (r, c), v in matrix.entries.items():
        blocks.setdefault(find(("r", r)), {})[(r, c)] = v
    return list(blocks.values())


def _sympy_rank(sympy, matrix):
    # The rank of a matrix is the sum of the ranks of its blocks; splitting
    # keeps each sympy matrix small (the largest here has 255 entries).
    rank = 0
    for block in _blocks(matrix):
        rows = {r: i for i, r in enumerate(sorted({r for r, _ in block}))}
        cols = {c: i for i, c in enumerate(sorted({c for _, c in block}))}
        dense = sympy.zeros(len(rows), len(cols))
        for (r, c), v in block.items():
            dense[rows[r], cols[c]] = sympy.Rational(v.numerator, v.denominator)
        rank += dense.rank()
    return rank


def _int_rank(*matrices):
    # exact over Q by RowReducer, with no peel and no fraction-free step
    red = RowReducer()
    for matrix in matrices:
        for row in matrix.int_rows():
            red.add(row)
    return red.rank


def test_ranks_match_sympy():
    sympy = pytest.importorskip("sympy")
    for alg in _graph_algebras(4) + [ABELIAN2]:
        coords = CochainCoordinates(alg.n)
        d1 = delta1_matrix(alg)
        d2 = delta2_matrix(alg)
        e2 = eta2_matrix(alg)
        stacked = RatMatrix(
            e2.rows + d2.rows,
            coords.dim_two_cochains,
            _by_rows({**e2.entries, **{(e2.rows + r, c): v for (r, c), v in d2.entries.items()}}),
        )
        ranks = [_sympy_rank(sympy, m) for m in (d1, d2, e2, stacked)]
        assert [_int_rank(d1), _int_rank(d2), _int_rank(e2), _int_rank(e2, d2)] == ranks
        # h2_nil's way: one peeled rank per matrix
        assert [d1.rank(), d2.rank(), e2.rank()] == ranks[:3]
        # ker eta2 <= ker delta2: stacking delta2 onto eta2 adds no rank
        assert ranks[3] == ranks[2]
        cols = coords.dim_two_cochains
        report = h2_nil(alg)
        assert report.dim_im_delta1 == ranks[0]
        assert report.dim_ker_delta2 == cols - ranks[1]
        assert report.dim_ker_eta2 == cols - ranks[2]
        assert report.dim_intersection == cols - ranks[3]


def test_h2_budget_refuses_before_indexing(monkeypatch, capsys, tmp_path):
    # the budget is checked before any cochain is indexed, so an oversized
    # request never reaches the cochain coordinates
    import graphlie.cohomology as cohomology
    from graphlie.basis import dimension_oracle
    from graphlie.cli import run_command
    from graphlie.limits import MAX_H2_DIM

    k8 = SimpleGraph.make(8, [(i, j) for i in range(1, 9) for j in range(i + 1, 9)])
    assert sum(dimension_oracle(k8, 2)) == 36 <= MAX_H2_DIM < 300

    def no_coordinates(n):
        raise AssertionError("an oversized request reached the cochain coordinates")

    monkeypatch.setattr(cohomology, "CochainCoordinates", no_coordinates)
    message = f"the algebra has 1000 basis elements; the h2_nil budget is {MAX_H2_DIM}"
    with pytest.raises(ValueError, match=message):
        h2_nil(LieAlgebra(1000, {}))
    path = tmp_path / "abelian.json"
    path.write_text('{"n": 1000, "brackets": []}', encoding="utf-8")
    assert run_command(["cohomology", "h2nil", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # the budget is read when h2_nil is called
    monkeypatch.setattr("graphlie.limits.MAX_H2_DIM", 4)
    with pytest.raises(ValueError, match="has 5 basis elements; the h2_nil budget is 4"):
        h2_nil(structure_constants(PATH3, 2))


# ---------------------------------------------------------------------------
# h2 by twin orbits against the whole-matrix engine (tests/oracles.py).


def test_h2_matches_the_whole_matrix_oracle_on_every_class():
    classes = [graph for m in range(2, 7) for graph in enumerate_graphs(m)]
    assert len(classes) == 207
    with_twins = 0
    for graph in classes:
        alg = structure_constants(graph, 2)
        with_twins += bool(twin_classes(alg))
        assert h2_nil(alg) == whole_matrix_h2(alg), edge_set(graph)
    assert with_twins == 164  # the orbits are used on most classes


def test_h2_matches_the_closed_form_on_every_class():
    # dim ker eta2, rank delta1 and h2 from the graph's masks alone (proofs in
    # oracles.closed_form_h2), isolated and edgeless classes included
    classes = [graph for m in range(2, 7) for graph in enumerate_graphs(m)]
    assert len(classes) == 207
    for graph in classes:
        report = h2_nil(structure_constants(graph, 2))
        found = (report.dim_ker_eta2, report.dim_im_delta1, report.h2_dim)
        assert found == closed_form_h2(graph), to_graph6(graph)


def _planted_twins(rng):
    """A labelled graph on 3..7 vertices, a twin set planted in it and sometimes a second one.

    The vertices of S get one neighbourhood N outside S and are pairwise all
    adjacent or all not. A second set T lies inside N or outside S and N, so
    S still sees it uniformly, and is planted the same way on the vertices
    outside S and T.
    """
    m = rng.randint(3, 7)
    order = list(range(1, m + 1))
    rng.shuffle(order)
    edges = {e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.5}

    def plant(cls, fixed):
        nonlocal edges
        outside = [v for v in range(1, m + 1) if v not in cls and v not in fixed]
        edges = {e for e in edges if not (set(e) & set(cls)) or set(e) & set(fixed)}
        near = {v for v in outside if rng.random() < 0.5}
        if rng.random() < 0.5:
            edges |= set(combinations(sorted(cls), 2))
        edges |= {(min(s, v), max(s, v)) for s in cls for v in near}
        return near

    size = rng.randint(2, min(4, m))
    s_set = order[:size]
    near = plant(s_set, [])
    rest = order[size:]
    if len(rest) >= 2 and rng.random() < 0.5:
        side = [v for v in rest if (v in near) == (rest[0] in near)]
        if len(side) >= 2:
            plant(side[: rng.randint(2, len(side))], s_set)
    return SimpleGraph.make(m, edges), s_set


def test_h2_matches_the_oracle_on_planted_twin_classes():
    rng = random.Random(1812)
    for _ in range(100):
        graph, planted = _planted_twins(rng)
        alg = structure_constants(graph, 2)
        found = twin_classes(alg)
        assert any({v - 1 for v in planted} <= set(cls) for cls in found), (edge_set(graph), planted)
        assert h2_nil(alg) == whole_matrix_h2(alg), edge_set(graph)


def test_multiplicities_count_every_column_once():
    # Each orbit of weights is counted once, by its representative, with its
    # size: the multiplicities add up to the column counts.
    for graph in (K3, C4, TWO_K2, PATH3, SimpleGraph.make(5, [(1, 2), (1, 3), (1, 4), (1, 5)])):
        alg = structure_constants(graph, 2)
        coords = CochainCoordinates(alg.n)
        classes = twin_classes(alg)
        assert classes
        f_mult, s_mult = orbit_multiplicities(alg)
        assert sum(f_mult) == coords.dim_hom and sum(s_mult) == coords.dim_two_cochains
        assert 0 in s_mult and max(s_mult) > 1
    k3 = structure_constants(K3, 2)
    assert twin_classes(k3) == [[0, 1, 2]]
    coords = CochainCoordinates(k3.n)
    s_mult = orbit_multiplicities(k3)[1]
    # sigma((v1, v2), v3) has weight (-1, -1, 1), which increases: not a representative
    assert s_mult[coords.sigma_coord(0, 1, 2)[0]] == 0
    # sigma((v2, v3), v1) has weight (1, -1, -1), a representative of 3 weights
    assert s_mult[coords.sigma_coord(1, 2, 0)[0]] == 3


def test_h2_nil_packs_the_multidegrees_once(monkeypatch):
    # One packing serves the orbit multiplicities and the delta1 weight
    # check; the trivial group, unlabelled or with no twins, packs nothing.
    import graphlie.cohomology as cohomology

    packings = []
    pack = cohomology._TorusWeights.__init__

    def counted(self, algebra, classes):
        packings.append(classes)
        pack(self, algebra, classes)

    monkeypatch.setattr(cohomology._TorusWeights, "__init__", counted)
    star = structure_constants(SimpleGraph.make(5, [(1, 2), (1, 3), (1, 4), (1, 5)]), 2)
    assert h2_nil(star) == whole_matrix_h2(star)
    assert packings == [[[1, 2, 3, 4]]]
    for trivial in (structure_constants(P4, 2), HEISENBERG):
        assert twin_classes(trivial) == []
        h2_nil(trivial)
    assert len(packings) == 1


def test_the_certifier_refuses_a_swap_that_is_no_automorphism():
    path = structure_constants(PATH3, 2)  # v1 - v2 - v3: the ends are twins
    assert twin_classes(path) == [[0, 2]]
    p4 = structure_constants(SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4)]), 2)
    assert twin_classes(p4) == []  # the ends have equal degree but are no twins


def test_loaded_algebras_without_a_certificate_get_the_trivial_group():
    rng = random.Random(64)
    graphs = [C4, TWO_K2, K3, SimpleGraph.make(5, [(1, 2), (1, 3), (2, 3), (4, 5)])]
    for graph in graphs:
        doc = algebra_to_json_dict(structure_constants(graph, 2))
        assert twin_classes(algebra_from_json_dict(doc))  # round trip keeps the labels
        unlabelled = algebra_from_json_dict(json.loads(json.dumps({**doc, "basis": None})))
        assert twin_classes(unlabelled) == []
        assert h2_nil(unlabelled) == whole_matrix_h2(unlabelled)
        # exchange the multidegrees of two degree-two elements: the brackets
        # no longer respect them, so they are no grading
        basis = [dict(b) for b in doc["basis"]]
        top = [i for i, b in enumerate(basis) if b["degree"] == 2]
        i, j = rng.sample(top, 2)
        basis[i]["multidegree"], basis[j]["multidegree"] = basis[j]["multidegree"], basis[i]["multidegree"]
        shuffled = algebra_from_json_dict({**doc, "basis": basis})
        assert twin_classes(shuffled) == []
        assert h2_nil(shuffled) == whole_matrix_h2(shuffled) == h2_nil(unlabelled)
    # multidegrees negated and doubled are still a grading, but no graph's
    # vertices and edges: the trivial group, with the same h2
    for graph in (K3, C4):
        doc = algebra_to_json_dict(structure_constants(graph, 2))
        for b in doc["basis"]:
            b["multidegree"] = [-2 * x for x in b["multidegree"]]
        scaled = algebra_from_json_dict(doc)
        assert twin_classes(scaled) == []
        assert h2_nil(scaled) == whole_matrix_h2(scaled) == h2_nil(structure_constants(graph, 2))
    # [v1, v3] = 2 [v1, v2] is the path's algebra with one edge element
    # rescaled, so its twins v2, v3 are kept
    doc = algebra_to_json_dict(structure_constants(SimpleGraph.make(3, [(1, 2), (1, 3)]), 2))
    doc["brackets"] = [
        {"i": 0, "j": 1, "terms": [{"l": 3, "c": "1"}]},
        {"i": 0, "j": 2, "terms": [{"l": 4, "c": "2"}]},
    ]
    scaled = algebra_from_json_dict(doc)
    assert twin_classes(scaled) == [[1, 2]]
    assert h2_nil(scaled) == whole_matrix_h2(scaled)


def _graph_twins(graph) -> list:
    """The twin classes of graph with two or more members, each a sorted list of 0-based vertices."""
    masks = set(_twin_classes(graph.m, graph.adj))
    return sorted([v for v in range(graph.m) if mask >> v & 1] for mask in masks if mask & (mask - 1))


def test_twin_classes_are_the_graph_twins_on_every_class():
    # at k = 1 no edge element is built, so the labels name the edgeless graph
    for m in range(1, 8):
        for graph in enumerate_graphs(m):
            for k, named in ((1, SimpleGraph.make(m, [])), (2, graph)):
                assert sorted(twin_classes(structure_constants(graph, k))) == _graph_twins(named), (
                    edge_set(graph), k,
                )
            if m <= 6:
                doc = algebra_to_json_dict(structure_constants(graph, 2))
                assert sorted(twin_classes(algebra_from_json_dict(doc))) == _graph_twins(graph)


def _check_ranks_mod_p(alg, report) -> None:
    """report's three ranks against rank_mod_p on the builders' full matrices, every column built."""
    coords = CochainCoordinates(alg.n)
    cols = coords.dim_two_cochains
    assert report.dim_im_delta1 == rank_mod_p(delta1_matrix(alg).int_rows())
    assert report.dim_ker_eta2 == cols - rank_mod_p(eta2_matrix(alg).int_rows())
    assert report.dim_ker_delta2 == cols - rank_mod_p(delta2_matrix(alg).int_rows())


def test_h2_ranks_match_the_mod_p_oracle_on_every_class_with_an_edge():
    classes = [graph for m in range(2, 7) for graph in enumerate_graphs(m) if any(graph.adj)]
    assert len(classes) == 202
    for graph in classes:
        alg = structure_constants(graph, 2)
        _check_ranks_mod_p(alg, h2_nil(alg))


def test_rescaled_edge_elements_keep_their_twins():
    # each bracket constant replaced by a random nonzero rational: the same
    # graph algebra with its edge elements rescaled, so the twins stay
    rng = random.Random(2027)
    classes = [graph for m in range(2, 7) for graph in enumerate_graphs(m) if any(graph.adj)]
    for copy in range(50):
        graph = rng.choice(classes)
        alg = structure_constants(graph, 2)
        doc = algebra_to_json_dict(alg)
        for bracket in doc["brackets"]:
            (term,) = bracket["terms"]
            term["c"] = f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"
        rescaled = algebra_from_json_dict(doc)
        assert twin_classes(rescaled) == twin_classes(alg), edge_set(graph)
        report = h2_nil(rescaled)
        assert report == whole_matrix_h2(rescaled), doc["brackets"]
        if copy < 20:
            _check_ranks_mod_p(rescaled, report)


def _broken_brackets(doc: dict, kind: str, rng) -> None:
    """Break doc's one bracket per edge element in place: drop one, add a second term, or swap two targets."""
    brackets = doc["brackets"]
    if kind == "missing":
        del brackets[rng.randrange(len(brackets))]
        return
    first, second = rng.sample(brackets, 2)
    if kind == "second term":
        first["terms"].append({"l": second["terms"][0]["l"], "c": "1"})
    else:
        first["terms"], second["terms"] = second["terms"], first["terms"]


def _broken_labels(doc: dict, kind: str, graph) -> None:
    """Give doc, graph's algebra on three or more vertices, labels that name no graph.

    The first three change every multidegree by one linear map, so each
    bracket still respects the labels and only the label checks can see it.
    """
    basis = doc["basis"]
    u, v = (w - 1 for w in graph.nonedges()[0])
    for b in basis:
        x = b["multidegree"]
        if kind == "2e_v":  # vertex 1 at 2 e_1
            x[0] *= 2
        elif kind == "a -1":  # vertex 1 at e_1 + e_2 - e_3
            x[1] += x[0]
            x[2] -= x[0]
        elif kind == "one coordinate":  # two non-adjacent vertices both at e_u
            x[u] += x[v]
            x[v] = 0
    m = len(basis[0]["multidegree"])
    if kind == "degree 3":  # a central element of multidegree e_1 + e_2 + e_3
        basis.append({"label": "z", "degree": 3, "multidegree": [1, 1, 1] + [0] * (m - 3)})
        doc.update(n=doc["n"] + 1, k=3, grading=doc["grading"] + [1])
    elif kind == "empty":
        basis[0]["multidegree"] = []


def test_labels_and_brackets_of_no_graph_shape_get_the_trivial_group():
    rng = random.Random(129)
    broken = []
    for graph in (g for m in range(3, 6) for g in enumerate_graphs(m)):
        if len(edge_set(graph)) >= 2:
            for kind in ("missing", "second term", "swapped"):
                doc = algebra_to_json_dict(structure_constants(graph, 2))
                _broken_brackets(doc, kind, rng)
                broken.append(doc)
    assert len(broken) == 129
    for graph in (PATH3, C4, TWO_K2, SimpleGraph.make(5, [(1, 2), (1, 3), (1, 4), (1, 5)])):
        for kind in ("2e_v", "a -1", "one coordinate", "degree 3", "empty"):
            doc = algebra_to_json_dict(structure_constants(graph, 2))
            _broken_labels(doc, kind, graph)
            broken.append(doc)
    for doc in broken:
        alg = algebra_from_json_dict(doc)
        assert twin_classes(alg) == [], doc
        assert h2_nil(alg) == whole_matrix_h2(alg), doc


def test_the_density_budget_refuses_a_dense_algebra_at_once(monkeypatch, capsys, tmp_path):
    import graphlie.cohomology as cohomology
    from graphlie.cli import run_command
    from graphlie.limits import MAX_H2_CONSTANTS, MAX_H2_DIM

    def no_coordinates(n):
        raise AssertionError("an oversized request reached the cochain coordinates")

    # 14 generators and 14 central vectors, every bracket with all 14 terms
    brackets = [
        {"i": i, "j": j, "terms": [{"l": 14 + t, "c": str(1 + (i + j + t) % 5)} for t in range(14)]}
        for i, j in combinations(range(14), 2)
    ]
    doc = {"n": 28, "brackets": brackets}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "CochainCoordinates", no_coordinates)
        assert run_command(["cohomology", "h2nil", "--in", str(path)]) == 1
    assert time.perf_counter() - start < 1
    # h2_nil itself refuses before it indexes a cochain, not only the CLI
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "CochainCoordinates", no_coordinates)
        with pytest.raises(ValueError, match="^the algebra has 1274 nonzero structure constants;"):
            h2_nil(algebra_from_json_dict(doc))
    assert capsys.readouterr().err == (
        "error: the algebra has 1274 nonzero structure constants; "
        f"the h2_nil budget is {MAX_H2_CONSTANTS}\n"
    )
    # the budget is read when h2_nil is called
    with monkeypatch.context() as patch:
        patch.setattr("graphlie.limits.MAX_H2_CONSTANTS", 1)
        with pytest.raises(ValueError, match="has 2 nonzero structure constants; the h2_nil budget is 1"):
            h2_nil(structure_constants(PATH3, 2))
    # a graph algebra at k = 2 has one constant per edge and m + edges basis
    # elements, so within MAX_H2_DIM it has at most 45 constants, K10's count
    most = max(min(m * (m - 1) // 2, MAX_H2_DIM - m) for m in range(1, MAX_H2_DIM + 1))
    assert most == 45 <= MAX_H2_CONSTANTS
    k10 = SimpleGraph.make(10, combinations(range(1, 11), 2))
    report = h2_nil(structure_constants(k10, 2))
    assert report.h2_dim == 0 and report.dim_im_delta1 == 2475


def test_the_bracket_budget_refuses_a_loaded_bracket_at_once(monkeypatch, capsys, tmp_path):
    # within MAX_H2_DIM and MAX_H2_CONSTANTS: 3 generators and 15 central
    # vectors, all 15 in each of the 3 brackets (45 constants), padded with
    # abelian generators to n = 55; h2 of it took 11 s before this budget
    import graphlie.cohomology as cohomology
    from graphlie.cli import run_command
    from graphlie.limits import MAX_H2_BRACKET_TERMS, MAX_H2_CONSTANTS, MAX_H2_DIM

    def no_coordinates(n):
        raise AssertionError("an oversized request reached the cochain coordinates")

    brackets = [
        {"i": i, "j": j, "terms": [{"l": 3 + t, "c": str(1 + (i + j + t) % 5)} for t in range(15)]}
        for i, j in combinations(range(3), 2)
    ]
    assert 3 * 15 <= MAX_H2_CONSTANTS and 55 <= MAX_H2_DIM
    doc = {"n": 55, "brackets": brackets}
    path = tmp_path / "loaded.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "CochainCoordinates", no_coordinates)
        assert run_command(["cohomology", "h2nil", "--in", str(path)]) == 1
    assert time.perf_counter() - start < 1
    # h2_nil itself refuses before it indexes a cochain, not only the CLI
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "CochainCoordinates", no_coordinates)
        with pytest.raises(ValueError, match="^a bracket of the algebra has 15 terms;"):
            h2_nil(algebra_from_json_dict(doc))
    assert capsys.readouterr().err == (
        f"error: a bracket of the algebra has 15 terms; the h2_nil budget is {MAX_H2_BRACKET_TERMS} per bracket\n"
    )
    # the budget is read when h2_nil is called
    with monkeypatch.context() as patch:
        patch.setattr("graphlie.limits.MAX_H2_BRACKET_TERMS", 0)
        with pytest.raises(ValueError, match="has 1 terms; the h2_nil budget is 0 per bracket"):
            h2_nil(structure_constants(PATH3, 2))
