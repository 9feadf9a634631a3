"""Record expected.json, the reference outputs the benchmark verifies against.

Usage, from the root of a checkout: python3 perfbench/record.py

Run once on a commit whose outputs are trusted; the file in the repository
was recorded from commit 2be51fe. It stores the sha256 of the stdout bytes
of each fixed-input workload and, for every isomorphism class of 6-vertex
graphs (taken from the networkx atlas, not from graphlie), the class
invariants of `rigidity classify --k 2` and `cohomology h2nil`, keyed by
workloads.canonical_key.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from networkx.generators.atlas import graph_atlas_g  # noqa: E402

from graphlie.cli import run_command  # noqa: E402
from workloads import EXPECTED_PATH, WORKLOADS, Op, Verifier, canonical_key, sha256  # noqa: E402


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return out.getvalue()


def main() -> None:
    fixed = {name: w for name, w in WORKLOADS.items() if not w.graphs_per_sample}
    outputs = {name: cli_stdout(w.fixed_argv) for name, w in fixed.items()}
    classes = {}
    for g in graph_atlas_g():
        if g.number_of_nodes() != 6:
            continue
        edges = sorted((i + 1, j + 1) for i, j in g.edges())
        doc = json.dumps({"m": 6, "edges": [list(e) for e in edges]})
        row = json.loads(cli_stdout(["rigidity", "classify", "--edges", doc, "--k", "2"]))
        h2_text = cli_stdout(["cohomology", "h2nil", "--edges", doc])
        classes[canonical_key(6, edges)] = {
            "dim": row["dim"],
            "verdict": row["verdict"],
            "kind": row["certificate"]["kind"],
            "h2": json.loads(h2_text),
            "h2nil_sha256": sha256(h2_text),
        }
    expected = {
        "digests": {name: sha256(text) for name, text in outputs.items()},
        "classes_k2": dict(sorted(classes.items())),
    }
    for name, w in fixed.items():
        op = Op([w.fixed_argv])
        problems = Verifier(w, expected).check(op, [0], [outputs[name]], [""])
        if problems:
            raise SystemExit(f"{name}: outputs fail the stated checks: {problems}")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}: {len(classes)} classes, digests for {sorted(outputs)}")


if __name__ == "__main__":
    main()
