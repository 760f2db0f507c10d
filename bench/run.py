"""bohrad benchmark: one seeded workload, timed end to end or traced per layer.

    python3 bench/run.py --workload radius_sweep --seed 1 --seconds 36 --trace 0

Run from the repository root.  The program is imported from ``src/``.
A run builds the workload's operation list from the seed, runs it once
untimed as a warm-up whose outputs become the reference, repeats it for
``--seconds`` seconds, times each operation by its fastest sample
(min-of-k, since host slowdowns only add time), and only then checks
the reference outputs against the independent oracles in ``oracles.py``
(so oracle memory never shows in ``peak_rss_mb``).  Every later pass must reproduce the
reference outputs exactly.  CLI requests (``radius_sweep`` holds a
share of them) run as ``python -m bohrad.cli`` subprocesses in the
reference pass, and the timed passes replay the same argv through
``cli.main`` in process, so their stdout must repeat byte for byte
across processes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer counters, the
tracing overhead and (in the text lines) each layer's self time.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7          # fresh interpreters per run; setup_s is their median
IMPORT_RUNS = 3         # fresh interpreters timing `import bohrad.cli`
MIN_PASSES = 2
CLI_TIMEOUT_S = 120


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S, check=False)


# ------------------------------------------------------------ operations

def call_subprocess(op):
    proc = run_child(["-m", "bohrad.cli", *op.argv])
    return proc.returncode, proc.stdout


def call_in_process(op):
    from bohrad import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def call_timed(op):
    return call_in_process(op) if op.argv else op.run()


def call_reference(op):
    return call_subprocess(op) if op.argv else op.run()


def outcome_key(value, error):
    """Exact fingerprint of an outcome; float repr round-trips every bit."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    return repr(value)


def run_pass(ops, call, tracer=None):
    """Run every operation once: (pass seconds, latencies, outcomes)."""
    clock = time.perf_counter
    latencies, outcomes = [], []
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.set_op(i)
        t0 = clock()
        try:
            value, error = call(op), None
        except Exception as exc:  # an operation that raises is an outcome, checked below
            value, error = None, exc
        latencies.append(clock() - t0)
        outcomes.append((value, error))
    return clock() - start, latencies, outcomes


class Tally:
    """Attempted and failed operations against the reference pass."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.keys = [outcome_key(*o) for o in reference]
        self.verdicts = None
        self.attempted = 0
        self.mismatches = Counter()     # op index -> passes that differed

    def add(self, outcomes):
        self.attempted += len(outcomes)
        for i, o in enumerate(outcomes):
            if outcome_key(*o) != self.keys[i]:
                self.mismatches[i] += 1

    def check(self, reference):
        self.verdicts = []
        for op, (value, error) in zip(self.ops, reference):
            try:
                self.verdicts.append(op.check(value, error))
            except Exception as exc:  # a crashing oracle is a miss, never a pass
                self.verdicts.append(f"oracle raised {exc!r}")

    @property
    def passes(self):
        return self.attempted // len(self.ops)

    @property
    def failed(self):
        bad = sum(self.passes for v in self.verdicts if v)
        return bad + sum(n for i, n in self.mismatches.items() if not self.verdicts[i])

    def unexpected(self):
        """Failures outside the known near-1 truncation defect."""
        out = [f"{op.label}: {v}" for op, v in zip(self.ops, self.verdicts) if v and not op.near_one]
        out += [f"{self.ops[i].label}: output changed between passes" for i in self.mismatches]
        return out

    def report(self):
        lines = []
        misses = Counter(op.label for op, v in zip(self.ops, self.verdicts) if v)
        for label, n in sorted(misses.items()):
            near = sum(1 for op, v in zip(self.ops, self.verdicts)
                       if v and op.label == label and op.near_one)
            lines.append(f"  oracle misses {label}: {n} per pass ({near} in the near-1 block)")
        for op, v in zip(self.ops, self.verdicts):
            if v:
                lines.append(f"    - {op.label}{' [near-1]' if op.near_one else ''}: {v}")
        return lines


# ------------------------------------------------------------- measuring

def measure_setup(args):
    """Seconds from spawning a fresh interpreter to its operation list being built."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = run_child([str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
                          "--seed", str(args.seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def measure_import():
    code = "import time; t = time.perf_counter(); import bohrad.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_RUNS):
        proc = run_child(["-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def tail(latencies, percentile):
    """(value, percentile, n, samples above) at the nearest-rank percentile.

    Falls back to the highest percentile with ten samples above it when
    the run is too short for the workload's percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = max(math.ceil(percentile / 100.0 * n) - 1, 0)
    if n - 1 - k < 10:
        k = max(n - 11, 0)
        percentile = 100.0 * (k + 1) / n
    return xs[k], percentile, n, n - 1 - k


# Host slowdowns on a shared machine only ever add time, so an operation's
# fastest samples are the ones they missed: timings are min-of-k per
# operation, and the tail is taken over each operation's fastest few.

def fastest(per_op, percentile):
    """Each operation's fastest samples: the fewest that leave ten above the percentile."""
    keep = math.ceil(10.0 / ((1.0 - percentile / 100.0) * len(per_op)))
    return [sorted(xs)[:keep] for xs in per_op]


def list_seconds(per_op):
    """Time to run the whole list with every operation at its fastest."""
    return sum(min(xs) for xs in per_op)


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def keep_going(start, walls, seconds, minimum):
    """Start another pass unless it would end after the measuring window."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def timed_run(args, ops, tally, lines, tail_pct):
    walls, per_op = [], [[] for _ in ops]
    start = time.perf_counter()
    while keep_going(start, walls, args.seconds, MIN_PASSES):
        wall, lat, outcomes = run_pass(ops, call_timed)
        walls.append(wall)
        for samples, x in zip(per_op, lat):
            samples.append(x)
        tally.add(outcomes)
    rss = peak_rss_mb(any(op.argv for op in ops))
    kept = [x for xs in fastest(per_op, tail_pct) for x in xs]
    value, pct, n, above = tail(kept, tail_pct)
    lines.append(f"  {len(walls)} timed passes of {len(ops)} operations in "
                 f"{time.perf_counter() - start:.2f} s; pass seconds min {min(walls):.4f} "
                 f"median {statistics.median(walls):.4f} max {max(walls):.4f}")
    lines.append(f"  wall_s and op_p50_ms use each operation's fastest of {len(walls)} "
                 f"samples; op_tail_ms is the p{pct:g} of each operation's fastest "
                 f"{len(kept) // len(ops)}, {n} in all ({above} above it)")
    return {
        "wall_s": (list_seconds(per_op), "s"),
        "op_p50_ms": (1000.0 * statistics.median(min(xs) for xs in per_op), "ms"),
        "op_tail_ms": (1000.0 * value, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced_run(args, ops, tally, lines, reference_lat):
    import tracing
    tracer = tracing.Tracer()
    plain, traced, counts, self_s = [], [], [], []
    plain_op, traced_op = [[] for _ in ops], [[] for _ in ops]
    start = time.perf_counter()
    while keep_going(start, plain + traced, args.seconds, 2 * MIN_PASSES):
        is_traced = len(traced) < len(plain)
        if is_traced:
            tracer.begin_pass(record=not traced)
            with tracer:
                wall, lat, outcomes = run_pass(ops, call_timed, tracer)
            counts.append(tracer.end_pass())
            self_s.append(tracer.layer_self_s())
            traced.append(wall)
        else:
            wall, lat, outcomes = run_pass(ops, call_timed)
            plain.append(wall)
        for samples, x in zip(traced_op if is_traced else plain_op, lat):
            samples.append(x)
        tally.add(outcomes)
    deterministic = all(c == counts[0] for c in counts)
    overhead = list_seconds(traced_op) / list_seconds(plain_op) - 1.0
    OUT.mkdir(exist_ok=True)
    spans = tracer.write_spans(OUT / f"spans-{args.workload}.csv.gz")
    layer_s = {k: statistics.median(s[k] for s in self_s) for k in self_s[0]}
    lines.append(f"  {len(plain)} untraced and {len(traced)} traced passes; "
                 f"{spans} spans of the first traced pass in bench/out/spans-{args.workload}.csv.gz")
    lines.append("  self time per traced pass (median), s: "
                 + ", ".join(f"{k} {v:.6f}" for k, v in layer_s.items()))
    metrics = {name: (value, "count" if isinstance(value, int) else "ratio")
               for name, value in counts[0].items()}
    metrics["cli.import_s"] = (measure_import(), "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    extra = {}
    cli_ops = [i for i, op in enumerate(ops) if op.argv]
    if cli_ops:
        # subprocess wall minus in-process main() for the same argv
        extra["cli.proc_s"] = statistics.median(reference_lat[i] - min(plain_op[i]) for i in cli_ops)
        extra["cli.self_s"] = layer_s["cli"]
        lines.append(f"  cli.proc_s {extra['cli.proc_s']:.6f} s per invocation (median); "
                     f"cli.self_s {extra['cli.self_s']:.6f} s per pass (parse and render)")
    summary = {"workload": args.workload, "seed": args.seed, "counters": counts[0],
               "counters_repeat_exactly": deterministic, "self_s": layer_s,
               "passes": {"untraced": plain, "traced": traced},
               **{k: v for k, (v, _) in metrics.items() if k.startswith(("cli", "trace"))}, **extra}
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if not deterministic:
        lines.append("  ERROR: per-layer counters differ between traced passes")
    return metrics, deterministic


# ------------------------------------------------------------------ main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bohrad" / "__init__.py").is_file():
        print(f"error: the bohrad sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads
        workloads.build(args.workload, args.seed)
        print(repr(time.perf_counter()))
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args)
    ops = workloads.build(args.workload, args.seed)
    # the reference pass runs the real CLI, one subprocess per argv; timed
    # passes replay the same argv through cli.main in process
    _, ref_lat, reference = run_pass(ops, call_reference)
    tally = Tally(ops, reference)
    lines = [f"bohrad benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}",
             "  operation mix per pass: " + ", ".join(
                 f"{k} {v}" for k, v in sorted(Counter(op.label for op in ops).items()))]
    if args.trace:
        metrics, deterministic = traced_run(args, ops, tally, lines, ref_lat)
    else:
        metrics = timed_run(args, ops, tally, lines,
                            workloads.TAIL_PERCENTILE[args.workload])
        deterministic = True
    cli_lat = [x for op, x in zip(ops, ref_lat) if op.argv]
    if cli_lat:
        lines.append(f"  CLI subprocesses (untimed reference pass): {len(cli_lat)}, median "
                     f"{1000.0 * statistics.median(cli_lat):.1f} ms")
    tally.check(reference)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - tally.failed / tally.attempted, "ratio")
        metrics["setup_s"] = (setup_s, "s")
    lines += tally.report()
    unexpected = tally.unexpected()
    lines.append(f"  failed_frac {tally.failed / tally.attempted!r} "
                 f"({tally.failed} of {tally.attempted} operations)")
    lines += [f"  UNEXPECTED: {u}" for u in unexpected]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value!r} {unit}")
    print("\n".join(lines))
    result = {"correct": not unexpected and deterministic, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
