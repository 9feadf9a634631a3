"""Workload inputs and output verification for the graphlie benchmark.

Every workload is a list of operations; an operation is a list of CLI
argument lists that run in one process, one after the other. Checks never
call into graphlie: they compare outputs with the data in expected.json
(recorded from commit 2be51fe by record.py), with the counts stated
below, and with isomorphism classes computed by this file's own brute
force canonical form.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Graphs per sample on classify6_k2.
CLASSIFY_GRAPHS = 24
CLASSIFY_M = 6

# Rows per vertex count of `rigidity sweep --n 5` (classes on 2..5 vertices).
SWEEP_ROWS_PER_M = {2: 2, 3: 4, 4: 11, 5: 34}
SWEEP_M5_KINDS = {
    2: {"h2_nil_zero": 1, "two_step_witness": 22, "abelian_factor": 10, "abelian": 1},
    4: {"graded_witness": 22, "cited_result": 1, "abelian_factor": 10, "abelian": 1},
}
SWEEP_K2_RIGID_M5 = "D~{"
NOT_RIGID_KINDS = {"abelian", "abelian_factor", "graded_witness", "two_step_witness"}
# Isomorphism classes of 6-vertex graphs (OEIS A000088).
CLASSES_ON_6 = 156

COMMON_SPANS = ("cli.run_command", "linalg.RowReducer.add")
ALGEBRA_SPANS = (
    "basis.structure_constants",
    "basis.graded_basis",
    "basis.dimension_oracle",
    "rigidity.classify",
    "rigidity.find_witness",
)
COHOMOLOGY_SPANS = (
    "cohomology.h2_nil",
    "cohomology.delta1_matrix",
    "cohomology.delta2_matrix",
    "cohomology.eta2_matrix",
    "linalg.RatMatrix.matmul",
    "liealg.lower_central_series",
    "liealg.center",
    "rigidity.certify_2step_witness",
)
SWEEP_SPANS = ("cli.write_report", "graphs.enumerate_graphs", "graphs.canonical_form")


@dataclass
class Op:
    """One operation: CLI argument lists run one after the other in one process."""

    argvs: list
    graph: tuple | None = None  # (m, edge pairs) for classify6_k2


@dataclass
class Workload:
    """A workload; BENCHMARK.json says why each one is there."""

    name: str
    expected_spans: tuple
    # Graphs drawn from the seed; 0 for workloads with fixed inputs.
    graphs_per_sample: int = 0
    fixed_argv: list = field(default_factory=list)

    def make_ops(self, seed: int) -> list:
        if not self.graphs_per_sample:
            return [Op([self.fixed_argv])]
        return [
            Op(
                [
                    ["rigidity", "classify", "--edges", doc, "--k", "2"],
                    ["cohomology", "h2nil", "--edges", doc],
                ],
                (CLASSIFY_M, edges),
            )
            for edges in draw_graphs(seed, self.graphs_per_sample)
            for doc in [json.dumps({"m": CLASSIFY_M, "edges": [list(e) for e in edges]})]
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep5_k2",
            COMMON_SPANS + ALGEBRA_SPANS + COHOMOLOGY_SPANS + SWEEP_SPANS,
            fixed_argv=["rigidity", "sweep", "--n", "5", "--k", "2"],
        ),
        Workload(
            "sweep5_k4",
            COMMON_SPANS + ALGEBRA_SPANS + SWEEP_SPANS + ("rigidity.certify_graded_witness",),
            fixed_argv=["rigidity", "sweep", "--n", "5", "--k", "4"],
        ),
        Workload(
            "enumerate6",
            ("cli.run_command", "graphs.enumerate_graphs", "graphs.canonical_form"),
            fixed_argv=["graphs", "enumerate", "--n", "6"],
        ),
        Workload(
            "classify6_k2",
            COMMON_SPANS + ALGEBRA_SPANS + COHOMOLOGY_SPANS,
            graphs_per_sample=CLASSIFY_GRAPHS,
        ),
    )
}


def draw_graphs(seed: int, count: int) -> list:
    """Labelled G(6, 1/2) graphs with the expected edge-count histogram.

    The number of graphs with e edges is count * P(e) for P the
    Binomial(15, 1/2) law, rounded by largest remainder; the seed chooses the
    edges of each graph uniformly and the order. h2 cost grows steeply with
    the edge count, so fixing the histogram keeps the work per sample alike
    across seeds while every labelled graph of a given size stays reachable.
    """
    pairs = list(combinations(range(1, CLASSIFY_M + 1), 2))
    total = 2 ** len(pairs)
    shares = [count * comb(len(pairs), e) for e in range(len(pairs) + 1)]
    quotas = [s // total for s in shares]
    by_remainder = sorted(range(len(shares)), key=lambda e: (-(shares[e] % total), e))
    for e in by_remainder[: count - sum(quotas)]:
        quotas[e] += 1
    rng = random.Random(seed)
    graphs = [tuple(sorted(rng.sample(pairs, e))) for e, q in enumerate(quotas) for _ in range(q)]
    rng.shuffle(graphs)
    return graphs


def canonical_key(m: int, edges) -> str:
    """Isomorphism-class key: the largest adjacency code over all relabellings."""
    adj = [0] * m
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    pairs = list(combinations(range(m), 2))
    best = 0
    for p in permutations(range(m)):
        code = 0
        for i, j in pairs:
            code = code << 1 | (adj[p[i]] >> p[j] & 1)
        if code > best:
            best = code
    return f"{m}:{best}"


def decode_graph6(code: str):
    """(m, sorted edge pairs) of a graph6 code with at most 62 vertices."""
    vals = [ord(ch) - 63 for ch in code]
    if not vals or any(not 0 <= v < 64 for v in vals) or not 1 <= vals[0] <= 62:
        raise ValueError(f"bad graph6 code {code!r}")
    m = vals[0]
    bits = [(v >> s) & 1 for v in vals[1:] for s in range(5, -1, -1)]
    pairs = [(i + 1, j + 1) for j in range(1, m) for i in range(j)]
    if len(bits) < len(pairs) or len(bits) - len(pairs) >= 6 or any(bits[len(pairs):]):
        raise ValueError(f"graph6 code {code!r} has the wrong length")
    return m, tuple(sorted(p for p, b in zip(pairs, bits) if b))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Verifier:
    """Checks outputs of one workload; returns a list of problems per operation.

    Identical outputs of the same operation are checked once.
    """

    def __init__(self, workload: Workload, expected: dict):
        self.workload = workload
        self.expected = expected
        self._memo: dict = {}
        self._atlas = None

    def check(self, op: Op, codes, outputs, errors) -> list:
        key = (op.graph, tuple(codes), tuple(outputs))
        if key not in self._memo:
            problems = [
                f"exit {c} for {' '.join(a[:2])}: {e.strip()[-200:]}"
                for a, c, e in zip(op.argvs, codes, errors) if c != 0
            ]
            if not problems:
                try:
                    problems = self._check_outputs(op, outputs)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            self._memo[key] = problems
        return self._memo[key]

    def _check_outputs(self, op: Op, outputs) -> list:
        name = self.workload.name
        if name.startswith("sweep"):
            return self._check_sweep(outputs[0], int(op.argvs[0][-1]))
        if name == "enumerate6":
            return self._check_enumerate(outputs[0])
        return self._check_classify(op.graph, outputs[0], outputs[1])

    def _check_digest(self, text: str) -> list:
        want = self.expected["digests"][self.workload.name]
        return [] if sha256(text) == want else ["output bytes differ from the recorded digest"]

    def _check_sweep(self, text: str, k: int) -> list:
        rows = json.loads(text)
        problems = []
        per_m = Counter(row["m"] for row in rows)
        if per_m != Counter(SWEEP_ROWS_PER_M):
            problems.append(f"rows per vertex count {dict(per_m)}")
        kinds = Counter(row["certificate"]["kind"] for row in rows if row["m"] == 5)
        if kinds != Counter(SWEEP_M5_KINDS[k]):
            problems.append(f"certificate kinds on 5 vertices {dict(kinds)}")
        for row in rows:
            kind = row["certificate"]["kind"]
            if (row["verdict"] == "not_rigid") != (kind in NOT_RIGID_KINDS):
                problems.append(f"{row['graph6']}: verdict {row['verdict']} with {kind}")
            if k == 2 and "h2" not in row:
                problems.append(f"{row['graph6']}: no h2 report")
        if k == 2:
            rigid = [r["graph6"] for r in rows if r["m"] == 5 and r["verdict"] == "rigid"]
            if rigid != [SWEEP_K2_RIGID_M5]:
                problems.append(f"rigid on 5 vertices {rigid}")
        return problems + self._check_digest(text)

    def _check_enumerate(self, text: str) -> list:
        codes = text.split("\n")
        if codes[-1] != "":
            return ["output does not end with a newline"]
        codes = codes[:-1]
        problems = []
        if len(codes) != CLASSES_ON_6 or len(set(codes)) != len(codes):
            problems.append(f"{len(codes)} codes, {len(set(codes))} distinct")
        keys = [canonical_key(*decode_graph6(c)) for c in codes]
        if len(set(keys)) != len(keys):
            problems.append("two codes are isomorphic")
        if set(keys) != self._atlas_keys():
            problems.append("classes differ from the networkx atlas on 6 vertices")
        return problems + self._check_digest(text)

    def _atlas_keys(self) -> set:
        if self._atlas is None:
            from networkx.generators.atlas import graph_atlas_g

            self._atlas = {
                canonical_key(6, [(i + 1, j + 1) for i, j in g.edges()])
                for g in graph_atlas_g() if g.number_of_nodes() == 6
            }
        return self._atlas

    def _check_classify(self, graph, classify_text: str, h2_text: str) -> list:
        m, edges = graph
        want = self.expected["classes_k2"][canonical_key(m, edges)]
        row = json.loads(classify_text)
        problems = []
        if decode_graph6(row["graph6"]) != (m, tuple(edges)) or row["m"] != m or row["k"] != 2:
            problems.append(f"row names another graph: {row['graph6']} m={row['m']} k={row['k']}")
        got = {"dim": row["dim"], "verdict": row["verdict"], "kind": row["certificate"]["kind"]}
        for key, value in got.items():
            if value != want[key]:
                problems.append(f"{key} {value!r}, expected {want[key]!r}")
        complete = len(edges) == comb(m, 2)
        if (row["verdict"] == "rigid") != complete:
            problems.append(f"verdict {row['verdict']} on a graph that is {'' if complete else 'not '}complete")
        if "h2" in row and row["h2"] != want["h2"]:
            problems.append("classify h2 report differs from the recorded one")
        if json.loads(h2_text)["h2_dim"] != want["h2"]["h2_dim"]:
            problems.append("h2nil h2_dim differs from the recorded one")
        if sha256(h2_text) != want["h2nil_sha256"]:
            problems.append("h2nil output bytes differ from the recorded digest")
        return problems


def corrupt(workload: Workload, outputs: list) -> tuple:
    """A deliberately wrong copy of one operation's outputs, with its name."""
    if workload.name == "enumerate6":
        lines = outputs[0].split("\n")
        return "dropped graph6 line", ["\n".join(lines[:3] + lines[4:])] + outputs[1:]
    doc = json.loads(outputs[0])
    row = doc[-1] if isinstance(doc, list) else doc
    row["verdict"] = "rigid" if row["verdict"] != "rigid" else "not_rigid"
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return "flipped verdict", [text] + outputs[1:]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
