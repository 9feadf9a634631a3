"""One benchmark sample, run in a fresh interpreter.

Usage: python3 -I child.py ROOT

Imports graphlie.cli from ROOT/src, writes "ready" to stdout, then reads
one JSON job line from stdin: {"ops": [[argv, ...], ...], "trace": bool}.
Each operation's argument lists go through graphlie.cli.run_command in
order, with stdout and stderr captured. Writes one JSON result line to
stdout and exits.

While the operations run, a speed probe (a fixed task that never touches
graphlie) is timed from a SIGALRM handler every PROBE_PERIOD_S, and also
four times before the operations, once between operations and four times
after them. The parent divides by the mean probe time to rescale the sample
for the machine's speed while it ran. Probe time is subtracted from each
operation's time.
"""

import os
import signal
import sys
import time

ROOT = sys.argv[1]
sys.path.insert(0, os.path.join(ROOT, "src"))

from graphlie import cli  # noqa: E402

sys.stdout.write("ready\n")
sys.stdout.flush()

PROBE_PERIOD_S = 0.2
EDGE_PROBES = 4
_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]
_ADJ = (0b000110, 0b001001, 0b010001, 0b100010, 0b100100, 0b011000)


def probe_task():
    """About 5 ms of Fraction arithmetic, dict updates and permutation codes."""
    from fractions import Fraction
    from itertools import permutations

    third = Fraction(1, 3)
    row = {}
    for i in range(1, 400):
        v = Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1) - third
        c = i % 61
        row[c] = row.get(c, 0) + v if i % 5 else v
    best = 0
    for p in permutations(range(6)):
        code = 0
        for i, j in _PAIRS:
            code = code << 1 | (_ADJ[p[i]] >> p[j] & 1)
        best = max(best, code)
    return best


class SpeedProbe:
    """Probe durations, and their running total so it can be subtracted."""

    def __init__(self):
        self.times = []
        self.total = 0.0

    def run(self, *_signal_args):
        start = time.perf_counter()
        probe_task()
        duration = time.perf_counter() - start
        self.times.append(duration)
        self.total += duration

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_kb():
    """This process's own peak resident set size (VmHWM).

    ru_maxrss is not used because Linux carries the parent's peak across
    fork and exec into the child's figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_op(argvs):
    import contextlib
    import io
    import traceback

    codes, outs, errs = [], [], []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run_command(argv)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                code = None
                traceback.print_exc(file=err)
        codes.append(code)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    return codes, outs, errs


def main():
    import json

    job = json.loads(sys.stdin.readline())
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        tracer.install()
    probe = SpeedProbe()
    for _ in range(EDGE_PROBES):
        probe.run()
    ops = []
    for argvs in job["ops"]:
        if ops:
            probe.run()
        with probe:
            probed = probe.total
            start = time.perf_counter()
            codes, outs, errs = run_op(argvs)
            elapsed = time.perf_counter() - start
            probed = probe.total - probed
        ops.append({
            "seconds": elapsed - probed,
            "probe_s": probed,
            "codes": codes, "stdout": outs, "stderr": errs,
        })
    for _ in range(EDGE_PROBES):
        probe.run()
    result = {
        "probe_times_s": probe.times,
        "wall_s": sum(op["seconds"] for op in ops),
        "ops": ops,
        "peak_rss_kb": peak_rss_kb(),
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


main()
