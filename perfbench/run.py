"""graphlie benchmark: CLI workloads in fresh interpreters, outputs verified.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or "all", which interleaves
samples of every workload within the same S seconds and names each metric
"<workload>.<metric>". A sample is one child interpreter (child.py) that
imports graphlie.cli and runs every operation of the workload through
graphlie.cli.run_command; samples run one at a time. With --trace 0 the
end-to-end metrics of BENCHMARK.json are reported; with --trace 1 traced
and untraced samples alternate and the per-layer metrics are reported.
Metric names and units come from BENCHMARK.json. The last stdout line is
the result object; the lines before it list every metric with its unit and
sample count, the failure ratio and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import TARGETS  # noqa: E402
from workloads import WORKLOADS, Verifier, corrupt, load_expected  # noqa: E402

ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_SAMPLES = 3
SETUP_LAUNCHES = 5
# Every run, its last sample included, must end well inside 180 s.
HARD_STOP_S = 150.0
CHILD_DEADLINE_S = 170.0
PROBE_REFERENCE_S = 0.005


class SampleError(RuntimeError):
    pass


def launch(job: dict, timeout: float):
    """Run one child; returns (seconds from launch to ready, result dict)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", CHILD, ROOT],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        bufsize=0, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(job).encode() + b"\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SampleError(f"child ran past {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line != b"ready\n" or proc.returncode != 0:
        raise SampleError(f"child exit {proc.returncode}: {err.decode()[-500:]}")
    return ready, json.loads(out)


class Bench:
    """Samples, setup times and verification results of one workload."""

    def __init__(self, workload, seed: int, expected: dict, trace: bool):
        self.workload = workload
        self.ops = workload.make_ops(seed)
        self.verifier = Verifier(workload, expected)
        self.trace = trace
        self.plain = []
        self.traced = []
        self.setups = []
        self.durations = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.selftest = {}

    def measure_setup(self, deadline: float) -> None:
        for _ in range(SETUP_LAUNCHES):
            ready, result = launch({"ops": [], "trace": False}, deadline - time.perf_counter())
            self.setups.append((ready, speed_of(result)))

    def wants_sample(self, deadline: float) -> bool:
        done = len(self.durations)
        if done < MIN_SAMPLES:
            return True
        return time.perf_counter() + statistics.median(self.durations) <= deadline

    def sample(self, child_deadline: float) -> None:
        traced = self.trace and len(self.durations) % 2 == 0
        job = {"ops": [op.argvs for op in self.ops], "trace": traced}
        start = time.perf_counter()
        self.attempted += len(self.ops)
        try:
            ready, result = launch(job, max(1.0, child_deadline - start))
        except SampleError as exc:
            self.failed += len(self.ops)
            self.problems.append(str(exc))
            self.durations.append(time.perf_counter() - start)
            return
        self.durations.append(time.perf_counter() - start)
        for op, got in zip(self.ops, result["ops"]):
            problems = self.verifier.check(op, got["codes"], got["stdout"], got["stderr"])
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])
        if not self.selftest:
            self._verifier_selftest(result["ops"][0])
        if traced:
            self.traced.append(result)
        else:
            self.plain.append(result)
            self.setups.append((ready, speed_of(result)))

    def _verifier_selftest(self, got) -> None:
        """A corrupted copy of a real output must count as a failed operation."""
        name, outputs = corrupt(self.workload, got["stdout"])
        rejected = bool(self.verifier.check(self.ops[0], got["codes"], outputs, got["stderr"]))
        self.selftest = {"corruption": name, "fail_ratio": 1.0 if rejected else 0.0}

    def end_to_end(self, rescale: bool = True) -> dict:
        """name -> (value, sample count)."""
        speed = [speed_of(s) if rescale else 1.0 for s in self.plain]
        walls = [s["wall_s"] * f for s, f in zip(self.plain, speed)]
        op_ms = [op["seconds"] * 1e3 * f for s, f in zip(self.plain, speed) for op in s["ops"]]
        cuts = statistics.quantiles(op_ms, n=10, method="inclusive")
        setups = [ready * (f if rescale else 1.0) for ready, f in self.setups]
        rss = [s["peak_rss_kb"] * 1024 / 1e6 for s in self.plain]
        return {
            "wall_s": (statistics.median(walls), len(walls)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (statistics.median(rss), len(rss)),
            "op_ms.p50": (cuts[4], len(op_ms)),
            "op_ms.p90": (cuts[8], len(op_ms)),
        }

    def per_layer(self) -> dict:
        """name -> (value, sample count); medians over traced samples."""
        per_sample = [layer_metrics(s) for s in self.traced]
        out = {
            key: (statistics.median(m[key] for m in per_sample), len(per_sample))
            for key in per_sample[0]
        }
        plain = statistics.median(s["wall_s"] * speed_of(s) for s in self.plain)
        traced = statistics.median(s["wall_s"] * speed_of(s) for s in self.traced)
        out["trace.overhead_ratio"] = (traced / plain - 1, len(self.plain) + len(self.traced))
        return out

    def missing_spans(self) -> list:
        """Spans this workload should exercise that recorded no call."""
        return [
            name for name in self.workload.expected_spans
            if any(s["trace"]["spans"][name][0] == 0 for s in self.traced)
        ]


def speed_of(sample: dict) -> float:
    """Reference probe time over the child's mean probe time (see child.py).

    Multiplying a time measured in that child by this factor rescales it to
    a machine that runs the probe task in PROBE_REFERENCE_S.
    """
    return PROBE_REFERENCE_S / statistics.fmean(sample["probe_times_s"])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(sample: dict) -> dict:
    spans = sample["trace"]["spans"]
    counts = sample["trace"]["counts"]
    speed = speed_of(sample)
    out = {}
    for name in TARGETS:
        calls, total, child = spans[name]
        out[f"{name}.self_s"] = (total - child) * speed
        out[f"{name}.calls"] = calls
    out["linalg.RowReducer.pivot_ratio"] = _ratio(
        counts.get("linalg.RowReducer.kept", 0), spans["linalg.RowReducer.add"][0]
    )
    out["cohomology.cochain_cols"] = counts.get("cohomology.cochain_cols", 0)
    out["cohomology.matrix_nnz"] = counts.get("cohomology.matrix_nnz", 0)
    out["graphs.class_yield"] = _ratio(
        counts.get("graphs.classes", 0), spans["graphs.canonical_form"][0]
    )
    out["basis.structure_constants.cache_hit_ratio"] = _ratio(
        counts.get("basis.structure_constants.repeats", 0), spans["basis.structure_constants"][0]
    )
    out["basis.keep_ratio"] = _ratio(counts.get("basis.kept", 0), counts.get("basis.candidates", 0))
    out["rigidity.witness_yield"] = _ratio(
        counts.get("rigidity.witnesses", 0), spans["rigidity.find_witness"][0]
    )
    out["cli.stdout_bytes"] = sum(len(text.encode()) for op in sample["ops"] for text in op["stdout"])
    probed = sum(op["probe_s"] for op in sample["ops"])
    out["trace.top_span_coverage"] = _ratio(spans["cli.run_command"][1], sample["wall_s"] + probed)
    return out


def read_text(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def commit_of(root: str) -> str:
    head = read_text(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = read_text(os.path.join(root, ".git", ref))
    if sha is None:
        packed = read_text(os.path.join(root, ".git", "packed-refs")) or ""
        sha = next((ln.split()[0] for ln in packed.splitlines() if ln.endswith(" " + ref)), "unknown")
    return sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "graphlie", "cli.py")):
        print("error: src/graphlie is missing; run from a graphlie checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run_start = time.perf_counter()
    loadavg_before = read_text("/proc/loadavg")
    expected = load_expected()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    benches = [Bench(WORKLOADS[n], args.seed, expected, bool(args.trace)) for n in names]
    hard_stop = run_start + HARD_STOP_S
    child_deadline = run_start + CHILD_DEADLINE_S
    try:
        launch({"ops": [], "trace": False}, child_deadline - time.perf_counter())  # bytecode warm-up
        for bench in benches:
            bench.measure_setup(child_deadline)
        deadline = min(time.perf_counter() + args.seconds, hard_stop)
        busy = True
        while busy and time.perf_counter() < hard_stop:
            busy = False
            for bench in benches:
                if bench.wants_sample(deadline):
                    bench.sample(child_deadline)
                    busy = True
    except SampleError as exc:
        print(f"error: the benchmark child did not start: {exc}", file=sys.stderr)
        return 1

    correct = True
    metrics, counts, raw = {}, {}, {}
    for bench in benches:
        name = bench.workload.name
        # Quantiles need two untraced samples; a traced run needs one of each kind.
        if len(bench.plain) < 2 - args.trace or (args.trace and not bench.traced):
            print(f"error: {name}: no usable samples: {bench.problems[:3]}", file=sys.stderr)
            return 1
        values = bench.per_layer() if args.trace else bench.end_to_end()
        raw[name] = {
            "walls_s": [s["wall_s"] for s in bench.plain + bench.traced],
            "mean_probe_s": [statistics.fmean(s["probe_times_s"]) for s in bench.plain + bench.traced],
            "setups_s": [ready for ready, _ in bench.setups],
        }
        if not args.trace:
            raw[name].update({k: v for k, (v, _) in bench.end_to_end(rescale=False).items()})
        if set(values) != set(declared):
            print(f"error: metrics differ from BENCHMARK.json: {set(values) ^ set(declared)}", file=sys.stderr)
            return 1
        for key in sorted(values):
            full = key if len(benches) == 1 else f"{name}.{key}"
            value, n = values[key]
            metrics[full] = {"value": value, "unit": declared[key]}
            counts[full] = n
            print(f"{name:<13} {key:<48} {value:>14.6g} {declared[key]:<6} n={n}")
        print(f"{name:<13} {'fail_ratio':<48} {bench.failed / bench.attempted:>14.6g} ratio  "
              f"{bench.failed}/{bench.attempted} operations")
        print(f"{name:<13} verifier self-test: {bench.selftest['corruption']} gives fail_ratio "
              f"{bench.selftest['fail_ratio']}")
        for problem in bench.problems[:10]:
            print(f"{name}: FAILED: {problem}", file=sys.stderr)
        if bench.failed or bench.selftest["fail_ratio"] == 0.0:
            correct = False
        if args.trace:
            missing = bench.missing_spans()
            if missing:
                print(f"{name}: spans with no call: {missing}", file=sys.stderr)
                correct = False
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "graphs_per_sample": {b.workload.name: b.workload.graphs_per_sample for b in benches},
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit_of(ROOT),
        "loadavg_before": loadavg_before,
        "loadavg_after": read_text("/proc/loadavg"),
        "samples": counts,
        "unscaled": raw,
        "elapsed_s": time.perf_counter() - run_start,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
