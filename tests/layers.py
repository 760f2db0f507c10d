"""Per-label timings of the benchmark's two workloads, written to BENCH_layers.json.

    python tests/layers.py [--out BENCH_layers.json]

Run from anywhere; the package is imported from this tree's ``src``.  It
loads ``bench/oracles.py``, ``bench/workloads.py`` and ``bench/run.py``
from their files and changes nothing there.  For each workload and seed
(seeds 1, 7 and 29) it builds the operation list, runs one warm-up
pass, then repeats the list through ``run.call_timed`` (CLI requests
through ``cli.main``, as the timed passes do) for 5 seconds, at least
three passes.
Each operation is timed by its fastest pass, as the benchmark times it.
Per label it records the number of operations, the sum and the median of
their fastest times, and the sum's share of the whole list at its
fastest; the file also holds the commit, whether ``src`` or ``bench``
differed from it, and the Python and numpy versions.  Every pass must
repeat the warm-up's outputs exactly, or the tool exits with code 1.
This is a tool, not a test: pytest does not collect it.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from linecov import load_bench  # this file's directory is on sys.path when run as a script

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7, 29)
SECONDS = 5.0  # timed seconds per workload and seed
MIN_PASSES = 3


def _git(*args):
    """Output of a git command in this tree, or None where git cannot answer."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def measure(run, ops, seconds):
    """(labels, passes, repeats): per label its operations' fastest times summed, their
    median and the sum's share of the list, the passes run, and whether every pass
    repeated the warm-up's outcomes."""
    _, _, reference = run.run_pass(ops, run.call_timed)
    keys = [run.outcome_key(*o) for o in reference]
    walls, per_op, repeats = [], [[] for _ in ops], True
    start = time.perf_counter()
    while run.keep_going(start, walls, seconds, MIN_PASSES):
        wall, latencies, outcomes = run.run_pass(ops, run.call_timed)
        walls.append(wall)
        for samples, x in zip(per_op, latencies):
            samples.append(x)
        repeats = repeats and [run.outcome_key(*o) for o in outcomes] == keys
    fastest = defaultdict(list)
    for op, samples in zip(ops, per_op):
        fastest[op.label].append(min(samples))
    whole = sum(map(sum, fastest.values()))
    labels = {label: {"ops": len(xs), "sum_ms": round(1000.0 * sum(xs), 5),
                      "median_ms": round(1000.0 * statistics.median(xs), 5),
                      "share": round(sum(xs) / whole, 4)}
              for label, xs in sorted(fastest.items())}
    return labels, len(walls), repeats


def main(argv=None):
    parser = argparse.ArgumentParser(description="per-label timings of the benchmark workloads")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    workloads, run = load_bench()
    import numpy

    changed = _git("status", "--porcelain", "--", "src", "bench")
    record = {"commit": _git("rev-parse", "HEAD"),
              "uncommitted_src_or_bench": None if changed is None else bool(changed),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "seconds": SECONDS, "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        record["workloads"][name] = by_seed = {}
        for seed in SEEDS:
            labels, passes, repeats = measure(run, workloads.build(name, seed), SECONDS)
            ok = ok and repeats
            by_seed[str(seed)] = {"passes": passes, "outcomes_repeat": repeats,
                                  "pass_ms": round(sum(v["sum_ms"] for v in labels.values()), 4),
                                  "labels": labels}
            print(f"{name} seed {seed}: {passes} passes, list at its fastest "
                  f"{by_seed[str(seed)]['pass_ms']:.3f} ms"
                  + ("" if repeats else ", OUTPUTS CHANGED BETWEEN PASSES"))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
