"""Lines of the bohrad package that a pytest run, or the benchmark's traffic, never executes.

A pytest plugin that uses only the standard library:

    PYTHONPATH=src:tests python -m pytest -q -p linecov [pytest arguments]

It traces the run with ``sys.settrace`` (and ``threading.settrace`` for
threads it starts), and at the end prints, for each module of the
``bohrad`` package, the executable lines that never ran, as ranges.  A
line counts as run when any code on it ran.  Code run in a subprocess
(the CLI smoke tests) is not seen.  Tracing makes the run several times
slower.  This is a tool, not a test: no test imports it, and pytest does
not collect it.

Run as a script, it asks the same of the benchmark's two workloads:

    PYTHONPATH=src python tests/linecov.py --workloads SEED [SEED ...]

It loads ``bench/oracles.py``, ``bench/workloads.py`` and ``bench/run.py``
from their files, with the tracer installed before they import bohrad,
runs one in-process pass of each workload per seed through
``run.call_timed`` (CLI requests through ``cli.main``, as the timed
passes do), and prints the unrun lines in the same format.
"""

import argparse
import importlib.util
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

_package = None  # the bohrad directory, with a trailing separator
_hits = defaultdict(set)


def _trace_lines(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    return _trace_lines if frame.f_code.co_filename.startswith(_package) else None


def _executable(path):
    """Line numbers that carry code in a module, from its compiled code objects.

    The first line of a nested function or class is left to the code that
    defines it, since that line runs when the definition does.
    """
    with open(path) as handle:
        module = compile(handle.read(), path, "exec")
    lines, todo = set(), [module]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}  # None, or 0 before line 1
        lines |= own if code is module else own - {code.co_firstlineno}
        todo.extend(c for c in code.co_consts if isinstance(c, type(module)))
    return lines


def _ranges(numbers):
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    spans = []
    for n in sorted(numbers):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _start():
    """Trace every later call into bohrad; find_spec locates the package without importing it."""
    global _package
    _package = os.path.dirname(importlib.util.find_spec("bohrad").origin) + os.sep
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def _unrun():
    """Stop tracing; one line per bohrad module: its executable lines that never ran."""
    sys.settrace(None)
    threading.settrace(None)
    for name in sorted(os.listdir(_package)):
        if name.endswith(".py"):
            path = _package + name
            missed = _executable(path) - _hits[path]
            yield f"{name}: {_ranges(missed) if missed else 'none'}"


def pytest_configure(config):
    _start()


def pytest_terminal_summary(terminalreporter):
    lines = list(_unrun())
    terminalreporter.write_sep("=", "bohrad lines never run")
    for line in lines:
        terminalreporter.write_line(line)


def _load(path, name):
    """The module in file path, registered as name (dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    parser = argparse.ArgumentParser(description="bohrad lines the benchmark never runs")
    parser.add_argument("--workloads", type=int, nargs="+", required=True, metavar="SEED")
    seeds = parser.parse_args(argv).workloads
    bench = Path(__file__).resolve().parent.parent / "bench"
    _start()
    _load(bench / "oracles.py", "oracles")  # workloads imports it by this name
    workloads = _load(bench / "workloads.py", "bench_workloads")
    run = _load(bench / "run.py", "bench_run")
    for seed in seeds:
        for name in workloads.WORKLOADS:
            run.run_pass(workloads.build(name, seed), run.call_timed)
    print(f"bohrad lines never run by the workloads at seeds {' '.join(map(str, seeds))}")
    for line in _unrun():
        print(line)


if __name__ == "__main__":
    main()
