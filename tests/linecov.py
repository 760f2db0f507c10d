"""Lines of the bohrad package that a pytest run never executes.

A pytest plugin that uses only the standard library:

    PYTHONPATH=src:tests python -m pytest -q -p linecov [pytest arguments]

It traces the run with ``sys.settrace`` (and ``threading.settrace`` for
threads it starts), and at the end prints, for each module of the
``bohrad`` package, the executable lines that never ran, as ranges.  A
line counts as run when any code on it ran.  Code run in a subprocess
(the CLI smoke tests) is not seen.  Tracing makes the run several times
slower.  This is a tool, not a test: no test imports it, and pytest does
not collect it.
"""

import importlib.util
import os
import sys
import threading
from collections import defaultdict

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


def pytest_configure(config):
    global _package
    _package = os.path.dirname(importlib.util.find_spec("bohrad").origin) + os.sep
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.write_sep("=", "bohrad lines never run")
    for name in sorted(os.listdir(_package)):
        if name.endswith(".py"):
            path = _package + name
            missed = _executable(path) - _hits[path]
            terminalreporter.write_line(f"{name}: {_ranges(missed) if missed else 'none'}")
