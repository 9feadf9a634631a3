import hashlib
import importlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from graphlie.basis import structure_constants
from graphlie.cli import _build_parser, main, run_command, write_report
from graphlie.cohomology import h2_nil
from graphlie.graphs import SimpleGraph, enumerate_graphs, from_graph6, to_graph6
from graphlie.liealg import LieAlgebra, algebra_from_json_dict, jacobi_report
from graphlie.limits import MAX_DIM, MAX_H2_DIM, MAX_K

STAR_EDGES = '{"m": 3, "edges": [[1, 2], [1, 3]]}'
C4_EDGES = '{"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}'
P4_EDGES = '{"m": 4, "edges": [[1, 2], [2, 3], [3, 4]]}'
ENUMERATE_3 = ("graphs", "enumerate", "--n", "3")
REPO_ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_build(capsys):
    code, out, err = _run(capsys, "algebra", "build", "--edges", STAR_EDGES, "--k", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["n"] == 5
    assert data["grading"] == [3, 2]
    assert [b["label"] for b in data["basis"][3:]] == ["[v1,v2]", "[v1,v3]"]
    back = algebra_from_json_dict(data)
    assert back.sc == structure_constants(SimpleGraph.make(3, [(1, 2), (1, 3)]), 2).sc


def test_algebra_build_reads_algebra_file(capsys, tmp_path):
    code, first, _ = _run(capsys, "algebra", "build", "--edges", STAR_EDGES, "--k", "3")
    assert code == 0
    path = tmp_path / "alg.json"
    path.write_text(first, encoding="utf-8")
    code, second, _ = _run(capsys, "algebra", "build", "--in", str(path), "--k", "3")
    assert code == 0
    assert second == first


def test_h2nil(capsys):
    code, out, err = _run(capsys, "cohomology", "h2nil", "--edges", C4_EDGES)
    assert code == 0 and err == ""
    graph = SimpleGraph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    expected = h2_nil(structure_constants(graph, 2)).to_json_dict()
    assert json.loads(out) == expected


def test_h2nil_rejects_higher_step(capsys):
    code, out, err = _run(capsys, "cohomology", "h2nil", "--edges", STAR_EDGES, "--k", "3")
    assert code == 1
    assert out == ""
    assert "2-step" in err


def test_classify_with_witness(capsys):
    code, out, _ = _run(capsys, "rigidity", "classify", "--edges", P4_EDGES, "--k", "2")
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "not_rigid"
    assert row["dim"] == 7
    assert row["certificate"]["kind"] == "two_step_witness"
    assert "h2" not in row


def test_classify_rigid_attaches_h2(capsys):
    code, out, _ = _run(capsys, "rigidity", "classify", "--edges", C4_EDGES, "--k", "2")
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "rigid"
    assert row["certificate"] == {"kind": "h2_nil_zero"}
    assert row["h2"]["h2_dim"] == 0


def test_sweep_deterministic(capsys):
    code, first, _ = _run(capsys, "rigidity", "sweep", "--n", "4", "--k", "2")
    assert code == 0
    code, second, _ = _run(capsys, "rigidity", "sweep", "--n", "4", "--k", "2")
    assert code == 0
    assert first == second
    rows = json.loads(first)
    assert len(rows) == 17


def test_sweep_table_format(capsys):
    code, out, _ = _run(
        capsys, "rigidity", "sweep", "--n", "3", "--k", "2", "--format", "table"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("graph6")
    assert len(lines) == 1 + 2 + 4


def test_sweep_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "rigidity", "sweep", "--n", "3", "--k", "2", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text(encoding="utf-8"))


def test_write_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_report([], fmt="csv")


def _table_text(rows) -> str:
    """The table that write_report printed when it built the whole text first."""
    lines = [f"{'graph6':<10} {'m':>2} {'k':>2} {'dim':>4} {'verdict':<10} certificate"]
    for row in rows:
        lines.append(
            f"{row['graph6']:<10} {row['m']:>2} {row['k']:>2} {row['dim']:>4} "
            f"{row['verdict']:<10} {row['certificate']['kind']}"
        )
    return "\n".join(lines) + "\n"


def _streamed(rows, fmt) -> str:
    sink = io.StringIO()
    write_report(iter(rows), fmt, sink)
    return sink.getvalue()


def _random_value(rng, depth):
    pick = rng.randrange(8 if depth < 3 else 5)
    if pick == 0:
        return rng.randint(-10**6, 10**6)
    if pick == 1:
        return "".join(rng.choice('ab"\\\n\t/é{}[],: ') for _ in range(rng.randrange(6)))
    if pick == 2:
        return rng.choice([True, False, None])
    if pick == 3:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    if pick == 4:
        return rng.choice([[], {}])
    if pick in (5, 6):
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {f"k{rng.randrange(20)}": _random_value(rng, depth + 1) for _ in range(rng.randrange(4))}


def _random_rows(rng):
    rows = []
    for _ in range(rng.randrange(5)):
        row = {f"x{rng.randrange(9)}": _random_value(rng, 0) for _ in range(rng.randrange(4))}
        row.update(
            graph6=rng.choice(["A?", "Bw", "D?{", "G~~~~{", 'q"\\\n']),
            m=rng.randint(2, 9),
            k=rng.randint(2, 40),
            dim=rng.randint(0, 2000),
            verdict=rng.choice(["rigid", "not_rigid", "unknown"]),
            certificate={"kind": rng.choice(["abelian", "graded_witness"]), "y": _random_value(rng, 1)},
        )
        rows.append(row)
    return rows


def test_streamed_report_matches_the_whole_dump():
    data = REPO_ROOT / "tests" / "data"
    row_lists = [json.loads((data / name).read_text()) for name in sorted(GOLDEN) if name.startswith("sweep")]
    rng = random.Random(30)
    row_lists += [[]] + [_random_rows(rng) for _ in range(50)]
    for rows in row_lists:
        assert _streamed(rows, "json") == json.dumps(rows, sort_keys=True, indent=2) + "\n"
        assert _streamed(rows, "table") == _table_text(rows)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_write_report_writes_each_row_before_asking_for_the_next(fmt):
    events = []
    rows = [{"graph6": f"r{i}", "m": 2, "k": 2, "dim": 2, "verdict": "rigid",
             "certificate": {"kind": f"kind{i}"}} for i in range(4)]

    class Sink:
        def write(self, text):
            events.append(("write", text))

    def produced():
        for i, row in enumerate(rows):
            events.append(("asked", i))
            yield row

    write_report(produced(), fmt, Sink())
    asked = [n for n, event in enumerate(events) if event[0] == "asked"]
    for i, (start, stop) in enumerate(zip(asked, asked[1:] + [len(events)])):
        written = "".join(text for kind, text in events[start:stop] if kind == "write")
        assert f"r{i}" in written and f"kind{i}" in written
    assert "".join(text for kind, text in events if kind == "write") == _streamed(rows, fmt)


def test_a_failed_sweep_leaves_no_file(capsys, monkeypatch, tmp_path):
    import graphlie.rigidity as rigidity
    from graphlie.errors import InternalInvariantError

    classified = []
    original = rigidity.classify

    def third_fails(graph, k, **kwargs):
        classified.append(graph)
        if len(classified) == 3:
            raise InternalInvariantError("injected failure", "sweep test, third class")
        return original(graph, k, **kwargs)

    monkeypatch.setattr(rigidity, "classify", third_fails)
    path = tmp_path / "report.json"
    code, out, err = _run(capsys, "rigidity", "sweep", "--n", "3", "--k", "2", "--out", str(path))
    assert (code, out) == (2, "") and "injected failure" in err
    assert not path.exists()
    # to stdout, the rows before the failure are already written when it exits 2
    classified.clear()
    code, out, err = _run(capsys, "rigidity", "sweep", "--n", "3", "--k", "2")
    assert code == 2 and "injected failure" in err
    assert out.startswith('[\n  {') and out.count('"graph6"') == 2
    # every command opens its --out first and deletes it when it fails
    code, _, err = _run(capsys, "deform", "emit", "--edges", C4_EDGES, "--k", "2", "--out", str(path))
    assert code == 1 and "no deformation witness" in err
    assert not path.exists()


OUT_COMMANDS = [
    ("algebra", "build", "--edges", STAR_EDGES, "--k", "2"),
    ("cohomology", "h2nil", "--edges", C4_EDGES),
    ("rigidity", "classify", "--edges", P4_EDGES, "--k", "2"),
    ("rigidity", "sweep", "--n", "3", "--k", "2"),
    ("deform", "emit", "--edges", STAR_EDGES, "--k", "3"),
    ("graphs", "enumerate", "--n", "3"),
]


@pytest.mark.parametrize("where", ["missing parent", "directory"])
@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: "_".join(argv[:2]))
def test_an_unwritable_out_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv, where):
    import graphlie.cli as cli
    import graphlie.rigidity as rigidity

    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was opened")

    for owner, name in ((rigidity, "classify"), (cli, "classify"), (cli, "_load_input"),
                        (cli, "structure_constants"), (cli, "enumerate_graphs")):
        monkeypatch.setattr(owner, name, no_work)
    target = tmp_path / "missing" / "report" if where == "missing parent" else tmp_path
    code, out, err = _run(capsys, *argv, "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write output file: [Errno ") and err.endswith(f"'{target}'\n")
    assert tmp_path.exists() and list(tmp_path.iterdir()) == []


def test_out_may_not_name_the_in_file(capsys, tmp_path):
    # opening --out first would empty the input before it is read
    path = tmp_path / "alg.json"
    assert _run(capsys, "algebra", "build", "--edges", STAR_EDGES, "--k", "2", "--out", str(path))[0] == 0
    before = path.read_bytes()
    for command in (("algebra", "build"), ("cohomology", "h2nil")):
        code, out, err = _run(capsys, *command, "--in", str(path), "--k", "2", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == "error: --out names the --in file; write the output to another file\n"
        assert path.read_bytes() == before


# argv lists whose output the path-only parser must give byte for byte
PARSER_ARGVS = [
    ["--help"], ["-h"], ["--version"], [], ["bogus"], ["rigidity", "bogus"], ["graphs", "enum", "--n", "2"],
    *([command, "--help"] for command in ("algebra", "cohomology", "rigidity", "deform", "graphs")),
    *([*key, "--help"] for key in (
        ("algebra", "build"), ("cohomology", "h2nil"), ("rigidity", "classify"),
        ("rigidity", "sweep"), ("deform", "emit"), ("graphs", "enumerate"),
    )),
    ["graphs", "enumerate", "--n", "three"],
    ["rigidity", "sweep", "--n", "3", "--k", "2", "--format", "csv"],
    ["rigidity", "sweep", "--n", "3"],
    ["rigidity", "sweep", "--n", "3", "--k", "2", "--version"],
    ["algebra", "build", "--edges", STAR_EDGES, "--graph6", "Bo", "--k", "2"],
    ["deform", "emit", "--graph6", "Bo", "--k", "3", "--bogus"],
]


def test_the_path_parser_matches_the_full_tree(capsys, monkeypatch):
    import graphlie.cli as cli

    assert "{rigidity}" in _build_parser(("rigidity", "sweep")).format_usage()

    def outcome():
        results = []
        for argv in PARSER_ARGVS:
            try:
                code = run_command(list(argv))
            except SystemExit as exc:  # --help and --version exit inside argparse
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            results.append((argv, code, captured.out, captured.err))
        return results

    on_path = outcome()
    full = _build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda path=None: full)
    assert on_path == outcome()


# tests/data holds the stdout of these commands; a refactor must leave the
# bytes unchanged, so any difference here is a change of behaviour.
GOLDEN = {
    "sweep_n5_k2.json": ("rigidity", "sweep", "--n", "5", "--k", "2"),
    "sweep_n5_k3.json": ("rigidity", "sweep", "--n", "5", "--k", "3"),
    "sweep_n5_k4.json": ("rigidity", "sweep", "--n", "5", "--k", "4"),
    "algebra_build_star_k4.json": ("algebra", "build", "--edges", STAR_EDGES, "--k", "4"),
    "h2nil_c4.json": (
        "cohomology", "h2nil", "--edges", '{"m": 4, "edges": [[1,2],[2,3],[3,4],[1,4]]}'
    ),
    "deform_emit_star_k3.json": (
        "deform", "emit", "--edges", STAR_EDGES, "--k", "3", "--t", "1/2"
    ),
    "enumerate_n6.txt": ("graphs", "enumerate", "--n", "6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(capsys, name):
    code, out, err = _run(capsys, *GOLDEN[name])
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (REPO_ROOT / "tests" / "data" / name).read_bytes()


def test_stdout_digests(capsys):
    # sha256 of the stdout of commands too large to keep as golden files,
    # recorded before the change they guard; a few seconds in all at six
    # vertices, about 8 s for the 1,251 classes on at most seven at k = 4,
    # and about 5 s for the 12,346 classes on eight vertices, the only run
    # of that size, whose digest pins the count
    digests = json.loads((REPO_ROOT / "tests" / "data" / "stdout_digests.json").read_text())
    for command, digest in digests.items():
        code, out, err = _run(capsys, *command.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command


def test_enumerate(capsys):
    code, out, _ = _run(capsys, "graphs", "enumerate", "--n", "4")
    assert code == 0
    codes = out.splitlines()
    assert len(codes) == 11
    assert codes == [to_graph6(g) for g in enumerate_graphs(4)]
    assert all(from_graph6(c).m == 4 for c in codes)


def test_deform_emit(capsys):
    code, out, err = _run(
        capsys, "deform", "emit", "--edges", STAR_EDGES, "--k", "3", "--t", "1/2"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["t"] == "1/2"
    assert payload["k"] == 3
    assert payload["certificate"]["kind"] == "graded_witness"
    deformed = algebra_from_json_dict(payload["deformed_algebra"])
    assert deformed.n == 10
    assert jacobi_report(deformed) == []
    # the witness bracket slot holds t times the certificate direction
    a1 = payload["certificate"]["a1_index"]
    a2 = payload["certificate"]["a2_index"]
    y_idx = payload["certificate"]["y_index"]
    assert str(deformed.bracket_basis(a1, a2)[y_idx]) == "1/2"


def test_deform_identity_failure_names_graph_k_and_phase(capsys, monkeypatch):
    import graphlie.cli as cli
    from graphlie.rigidity import DeformCheckResult

    monkeypatch.setattr(cli, "deform_check", lambda deformed: DeformCheckResult(False, (0, 1, 2)))
    code, out, err = _run(capsys, "deform", "emit", "--edges", STAR_EDGES, "--k", "3", "--t", "1")
    assert code == 2 and out == ""
    assert err == (
        "internal invariant failure: witness cocycle fails the deformation identities at (0, 1, 2) "
        "(graph6 Bo, k = 3, phase: deform emit, deformation identities)\n"
    )


def test_deform_emit_without_witness(capsys):
    code, out, err = _run(capsys, "deform", "emit", "--edges", C4_EDGES, "--k", "2")
    assert code == 1
    assert out == ""
    assert "no deformation witness" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("algebra", "build", "--edges", "not json", "--k", "2"),
        ("algebra", "build", "--edges", '{"m": 3, "edges": []}', "--k", "0"),
        ("algebra", "build", "--in", "/nonexistent/path.json", "--k", "2"),
        ("algebra", "build", "--edges", '{"m": 3, "edges": []}'),  # missing --k
        ("algebra", "build", "--edges", "{}", "--k", "2", "--bogus"),
        ("rigidity", "sweep", "--n", "9", "--k", "2"),
        ("rigidity", "sweep", "--n", "9", "--k", "3"),
        ("rigidity", "sweep", "--n", "8", "--k", "4"),
        ("graphs", "enumerate", "--n", "0"),
        ("deform", "emit", "--edges", STAR_EDGES, "--k", "3", "--t", "1/0"),
        ("rigidity", "classify", "--graph6", "!!!", "--k", "2"),
    ],
)
def test_domain_errors_exit_one(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    _build_parser.cache_clear()
    code, out, err = _run(capsys, "graphs", "enumerate", "--n", "three")
    assert code == 1 and out == "" and "invalid int value" in err
    code, out, _ = _run(capsys, *ENUMERATE_3)
    assert code == 0 and out.splitlines() == [to_graph6(g) for g in enumerate_graphs(3)]
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("rigidity", "classify", "--graph6", "C~", "--k", "12"),  # K4: 1,924,378
        ("algebra", "build", "--graph6", "D~{", "--k", "10"),  # K5: 1,256,567
    ],
)
def test_oversized_algebra_is_refused(capsys, monkeypatch, argv):
    def no_candidates(m, maxlen):
        raise AssertionError("an oversized request reached the candidate words")

    monkeypatch.setattr("graphlie.basis.lyndon_words", no_candidates)
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the algebra has ") and "; the budget is " in err


def test_oversized_star_is_refused_at_once(capsys):
    # K1,39 at k = 8: the complement of the star is K39 and a point, with
    # about 9e7 cliques of at most 8 vertices; they are counted, not listed
    star = json.dumps({"m": 40, "edges": [[1, j] for j in range(2, 41)]})
    start = time.perf_counter()
    code, out, err = _run(capsys, "rigidity", "classify", "--edges", star, "--k", "8")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"error: the algebra has 332688019 basis elements; the budget is {MAX_DIM}\n"


def test_one_edge_at_the_greatest_k_is_refused_at_once(capsys):
    # K2 gives the free nilpotent algebra on two generators; at k = MAX_K its
    # dimension has over 600 digits, counted in O(k) series terms
    start = time.perf_counter()
    code, out, err = _run(capsys, "rigidity", "classify", "--graph6", "A_", "--k", str(MAX_K))
    assert time.perf_counter() - start < 1
    # Witt's necklace formula, sum over d <= k of (1/d) sum_{e | d} mu(d/e) 2^e
    mu = [0, 1] + [0] * (MAX_K - 1)
    for n in range(1, MAX_K + 1):
        for multiple in range(2 * n, MAX_K + 1, n):
            mu[multiple] -= mu[n]
    necklaces = [0] * (MAX_K + 1)
    for e in range(1, MAX_K + 1):
        for d in range(e, MAX_K + 1, e):
            necklaces[d] += mu[d // e] * 2**e
    dim = sum(necklaces[d] // d for d in range(1, MAX_K + 1))
    assert (code, out) == (1, "")
    assert err == f"error: the algebra has {dim} basis elements; the budget is {MAX_DIM}\n"


def test_edgeless_graph_algebra_is_built_at_once(capsys):
    # 40 commuting generators at k = 6: the supports are the connected vertex
    # sets, the 40 singletons, not the 4.6e6 sets of at most 6 vertices
    edgeless = json.dumps({"m": 40, "edges": []})
    start = time.perf_counter()
    code, out, err = _run(capsys, "algebra", "build", "--edges", edgeless, "--k", "6")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    document = json.loads(out)
    assert len(document["basis"]) == 40 and document["brackets"] == []


def test_classify_rejects_algebra_file(capsys, tmp_path):
    _run(capsys, "algebra", "build", "--edges", STAR_EDGES, "--k", "2", "--out",
         str(tmp_path / "a.json"))
    code, out, err = _run(
        capsys, "rigidity", "classify", "--in", str(tmp_path / "a.json"), "--k", "2"
    )
    assert code == 1
    assert "needs a graph" in err


ONE_EDGE = '{"m": 3, "edges": [[1, 2]]}'
LONG_PATH = json.dumps({"m": MAX_DIM, "edges": [[v, v + 1] for v in range(1, MAX_DIM)]})
GRAPH6_LIMIT = "graph6 codes with more than 62 vertices are not supported"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("rigidity", "classify", "--edges", '{"m": 8000, "edges": []}', "--k", "2"),
         f"parse_graph supports 1..{MAX_DIM} vertices, not 8000"),
        (("algebra", "build", "--edges", f'{{"m": {10**30}, "edges": []}}', "--k", "2"),
         f"parse_graph supports 1..{MAX_DIM} vertices, not {10**30}"),
        # the report carries a graph6 code, so m > 62 is refused before classifying
        (("rigidity", "classify", "--edges", f'{{"m": {MAX_DIM}, "edges": []}}', "--k", "2"),
         GRAPH6_LIMIT),
        (("deform", "emit", "--edges", '{"m": 100, "edges": [[1, 2]]}', "--k", "3"), GRAPH6_LIMIT),
        (("rigidity", "classify", "--edges", ONE_EDGE, "--k", str(10**20)),
         f"k is {10**20}; the budget is {MAX_K}"),
        (("rigidity", "classify", "--edges", ONE_EDGE, "--k", "8000"), f"k is 8000; the budget is {MAX_K}"),
        (("rigidity", "sweep", "--n", "3", "--k", str(10**30)), f"k is {10**30}; the budget is {MAX_K}"),
        (("deform", "emit", "--edges", STAR_EDGES, "--k", "3", "--t", "1e10000000"),
         "rational '1e10000000' must be an integer, a decimal or p/q"),
        # the clique count of the path's complement stops at its edges, not its triangles
        (("algebra", "build", "--edges", LONG_PATH, "--k", "2"),
         f"the algebra has {2 * MAX_DIM - 1} basis elements; the budget is {MAX_DIM}"),
    ],
)
def test_oversized_graph_input_is_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", f"error: {message}\n")


GOOD_BRACKET = {"i": 0, "j": 1, "terms": [{"l": 2, "c": "1"}]}


@pytest.mark.parametrize(
    "document",
    [
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1}]},  # no terms
        {"n": 3, "k": 2, "brackets": 5},
        {"n": 3, "k": 2, "brackets": [5]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": 5}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [7]}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"c": "1"}]}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2}]}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": 0.1}]}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": True}]}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": None}]}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": "x"}]}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": True, "c": "1"}]}]},
        {"n": 3, "k": 2, "brackets": [{"i": False, "j": 1, "terms": []}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0, "j": True, "terms": []}]},
        {"n": 3, "k": 2, "brackets": [{"i": 0.0, "j": 1, "terms": []}]},
        {"n": True, "k": 2, "brackets": []},
        {"n": "3", "k": 2, "brackets": []},
        {"n": 3, "k": True, "brackets": [GOOD_BRACKET]},
        {"n": 3, "k": 2, "grading": 5, "brackets": [GOOD_BRACKET]},
        {"n": 3, "k": 2, "grading": [2, 1], "basis": [{"label": "x"}], "brackets": [GOOD_BRACKET]},
        {"n": 3, "k": 2, "grading": [2, 1], "basis": 5, "brackets": [GOOD_BRACKET]},
        # a repeated bracket pair, and a repeated target inside one terms list
        {"n": 3, "k": 2, "brackets": [GOOD_BRACKET, {"i": 0, "j": 1, "terms": [{"l": 2, "c": "3"}]}]},
        {"n": 3, "k": 2, "brackets": [
            {"i": 0, "j": 1, "terms": [{"l": 2, "c": "1"}, {"l": 2, "c": "5"}]}
        ]},
    ],
)
def test_malformed_algebra_file_exits_one(capsys, tmp_path, document):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for command in (("cohomology", "h2nil"), ("algebra", "build")):
        code, out, err = _run(capsys, *command, "--in", str(path), "--k", "2")
        assert code == 1, document
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "document,message",
    [
        # [e2, e3] = e1 beside [e0, e1] = e2: Jacobi fails on (0, 1, 3) first
        (
            {"n": 4, "k": 2, "brackets": [
                GOOD_BRACKET, {"i": 2, "j": 3, "terms": [{"l": 1, "c": "1"}]}
            ]},
            "Jacobi identity at basis triple (0, 1, 3)",
        ),
        # [e0, e1] = e1 is a Lie algebra, but not a nilpotent one
        (
            {"n": 2, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 1, "c": "1"}]}]},
            "not nilpotent",
        ),
    ],
)
def test_loaded_algebra_must_be_nilpotent_lie(capsys, tmp_path, document, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for command in (("cohomology", "h2nil"), ("algebra", "build")):
        code, out, err = _run(capsys, *command, "--in", str(path), "--k", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err


def _folded_document(gens):
    """A 2-step document: every pair of gens generators brackets to one of gens central vectors."""
    brackets = [
        {"i": i, "j": j, "terms": [{"l": gens + c % gens, "c": "1"}]}
        for c, (i, j) in enumerate(combinations(range(gens), 2))
    ]
    return {"n": 2 * gens, "k": 2, "brackets": brackets}


@pytest.mark.parametrize(
    "document,command,message",
    [
        ({"n": 100000, "brackets": []}, ("cohomology", "h2nil"),
         f"the algebra has 100000 basis elements; the budget is {MAX_DIM}"),
        ({"n": 100000, "brackets": []}, ("algebra", "build"),
         f"the algebra has 100000 basis elements; the budget is {MAX_DIM}"),
        # 120 generators, 7,140 brackets on 120 central vectors: 370 KB, n = 240
        (_folded_document(120), ("cohomology", "h2nil"),
         f"the algebra has 240 basis elements; the h2_nil budget is {MAX_H2_DIM}"),
        # over the h2 budget and not a Lie algebra: the budget is read first
        ({"n": 60, "k": 2, "brackets": [GOOD_BRACKET, {"i": 2, "j": 3, "terms": [{"l": 1, "c": "1"}]}]},
         ("cohomology", "h2nil"), f"the algebra has 60 basis elements; the h2_nil budget is {MAX_H2_DIM}"),
        ({"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": "1e10000000"}]}]},
         ("algebra", "build"), "rational '1e10000000' must be an integer, a decimal or p/q"),
    ],
)
def test_oversized_loaded_algebra_is_refused_before_the_lie_check(
    capsys, tmp_path, monkeypatch, document, command, message
):
    def unreachable(algebra):
        raise AssertionError("an oversized document reached the nilpotent Lie check")

    monkeypatch.setattr("graphlie.cli.jacobi_report", unreachable)
    monkeypatch.setattr("graphlie.cli.lower_central_series", unreachable)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = _run(capsys, *command, "--in", str(path), "--k", "2")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_folded_document_builds_without_a_jacobi_walk(capsys, tmp_path, monkeypatch):
    # No bracket of the 2-step document composes, so jacobi_report evaluates
    # no triple of it.
    document = _folded_document(120)
    evaluated = []
    bracket_basis = LieAlgebra.bracket_basis
    monkeypatch.setattr(
        LieAlgebra, "bracket_basis", lambda self, i, j: evaluated.append(1) or bracket_basis(self, i, j)
    )
    assert jacobi_report(algebra_from_json_dict(document)) == [] and evaluated == []
    monkeypatch.undo()
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = _run(capsys, "algebra", "build", "--in", str(path), "--k", "2")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "") and len(json.loads(out)["brackets"]) == 7140


ODD_VALUES = [0, -1, 1, 2, 3, 7, 10**30, True, None, 2.5, "3", "1e10000000", [], {}]


def _mutated(rng, value):
    """value with one seeded mutation somewhere inside it: a replaced, dropped or added part."""
    if isinstance(value, dict) and value and rng.random() < 0.8:
        key = rng.choice(sorted(value))
        if rng.random() < 0.15:
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: _mutated(rng, value[key])}
    if isinstance(value, list) and value and rng.random() < 0.8:
        pos = rng.randrange(len(value))
        roll = rng.random()
        if roll < 0.15:
            return value[:pos] + value[pos + 1:]
        if roll < 0.3:
            return value + [value[pos]]
        return value[:pos] + [_mutated(rng, value[pos])] + value[pos + 1:]
    if rng.random() < 0.5:
        return rng.randint(1, 6)
    return rng.choice(ODD_VALUES + ["-2/7", "0.1", "1/0", "x"])


def test_cli_fuzz_exits_zero_one_or_two(capsys, tmp_path):
    # seeded mutations of an edge list and of an algebra document, run
    # through the graph and document commands: every run returns 0, 1 or 2
    # (an exception escaping run_command would be a traceback) and is quick
    rng = random.Random(2026)
    edge_list = {"m": 6, "edges": [[1, 2], [2, 3], [3, 4]]}
    _, text, _ = _run(capsys, "algebra", "build", "--edges", STAR_EDGES, "--k", "2")
    document = json.loads(text)
    path = tmp_path / "fuzz.json"
    ks = ["2", "2", "3", "3", "0", "1", str(10**30), "x"]
    start = time.perf_counter()
    for trial in range(300):
        k = rng.choice(ks)
        value = (edge_list, document)[trial % 2]
        for _ in range(rng.choice((0, 1, 1, 2))):
            value = _mutated(rng, value)
        if trial % 2:
            source = ("--in", str(path))
            path.write_text(json.dumps(value), encoding="utf-8")
            command = rng.choice([("algebra", "build"), ("cohomology", "h2nil")])
        else:
            source = ("--edges", json.dumps(value))
            command = rng.choice([
                ("algebra", "build"), ("cohomology", "h2nil"), ("rigidity", "classify"),
                ("deform", "emit", "--t=" + rng.choice(["1", "-2/3", "0.5", "1e10000000", "1/0", "x"])),
            ])
        code, out, err = _run(capsys, *command, *source, "--k", k)
        assert code in (0, 1, 2), (command, source, k)
        assert (out == "") == (code != 0) and (err == "") == (code == 0), (command, source, k)
    assert time.perf_counter() - start < 5


def test_a_zero_denominator_is_refused_by_name(capsys, tmp_path):
    refusal = "error: rational '1/0' has a zero denominator\n"
    code, out, err = _run(capsys, "deform", "emit", "--edges", STAR_EDGES, "--k", "3", "--t", "1/0")
    assert (code, out, err) == (1, "", refusal)
    document = {"n": 3, "k": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": "1/0"}]}]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for command in (("algebra", "build"), ("cohomology", "h2nil")):
        code, out, err = _run(capsys, *command, "--in", str(path), "--k", "2")
        assert (code, out, err) == (1, "", refusal), command


def test_algebra_file_constants_stay_exact(capsys, tmp_path):
    document = {
        "n": 3,
        "k": 2,
        "brackets": [{"i": 0, "j": 1, "terms": [{"l": 2, "c": "0.1"}]}],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = _run(capsys, "algebra", "build", "--in", str(path), "--k", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["brackets"][0]["terms"] == [{"l": 2, "c": "1/10"}]
    document["brackets"][0]["terms"][0]["c"] = -3
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = _run(capsys, "cohomology", "h2nil", "--in", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["h2_dim"] == 0  # the Heisenberg algebra, rescaled


@pytest.mark.parametrize(
    "edges",
    ['{"m": true, "edges": []}', '{"m": 3, "edges": [[1, true]]}', '{"m": 3, "edges": [[false, 2]]}'],
)
def test_boolean_vertices_exit_one(capsys, edges):
    code, out, err = _run(capsys, "algebra", "build", "--edges", edges, "--k", "2")
    assert code == 1
    assert out == ""
    assert "non-integer" in err or "positive integer" in err


def test_import_graphlie_leaves_cli_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, graphlie; print('graphlie.cli' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "argv", [("graphs", "enumerate", "--n", "3"), ("rigidity", "sweep", "--n", "3", "--k", "3")]
)
def test_a_closed_stdout_exits_one_without_a_traceback(argv):
    # the reader is gone before the first write, as when `| head` has read its lines
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "graphlie", *argv],
            stdout=write_end, stderr=subprocess.PIPE, cwd=REPO_ROOT, env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_cli_import_graph_leaves_out_dataclasses():
    # every process pays for what importing the CLI loads; dataclasses alone
    # pulls in inspect, ast, dis and tokenize, which graphlie never uses
    script = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import graphlie.cli; print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, str(REPO_ROOT / "src")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "graphlie.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _scripts_table_from_text(text):
    """The ``[project.scripts]`` table of a pyproject.toml, read as plain text."""
    scripts, in_table = {}, False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            key, value = (part.strip().strip('"') for part in line.split("=", 1))
            scripts[key] = value
    return scripts


def _declared_scripts():
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        return _scripts_table_from_text(text)
    return tomllib.loads(text)["project"].get("scripts", {})


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _run_module(*argv):
    """Run ``python -m graphlie`` from this checkout's src in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "graphlie", *argv],
        capture_output=True,
        cwd=REPO_ROOT,
        env=_child_env(),
    )


def test_console_script_installed(capsys):
    # `python -m graphlie` runs the main() that pyproject.toml declares as the
    # console script, so the entry point is tested without an install.
    assert _declared_scripts().get("graphlie") == "graphlie.cli:main"
    assert importlib.import_module("graphlie.__main__").main is main

    code, expected, _ = _run(capsys, *ENUMERATE_3)
    assert code == 0
    assert expected.splitlines() == ["B?", "BG", "BW", "Bw"]
    proc = _run_module(*ENUMERATE_3)
    assert proc.returncode == 0
    assert proc.stdout == expected.encode("utf-8")
    assert proc.stderr == b""

    proc = _run_module("graphs", "enumerate", "--n", "0")
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")


@pytest.mark.skipif(
    shutil.which("graphlie") is None, reason="graphlie script not installed on PATH"
)
def test_console_script_on_path():
    proc = subprocess.run(
        ["graphlie", *ENUMERATE_3],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 4
