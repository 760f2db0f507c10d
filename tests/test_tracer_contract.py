"""The names bench/tracing.py wraps exist, and the scan arguments it binds keep their names.

The tracer patches the package from outside by name, so a rename or a
deletion here would otherwise surface only when the benchmark runs.
The module is loaded from its file and never installed.
"""

import inspect

import pytest

from bohrad import roots
from linecov import BENCH, _load

tracing = _load(BENCH / "tracing.py", "bench_tracing")

SPANNED = [(module, name) for module, names in tracing.SPANNED.items() for name in names]
SPANNED_METHODS = [(cls, name) for _, cls, names in tracing.SPANNED_METHODS for name in names]


@pytest.mark.parametrize("module, name", SPANNED,
                         ids=[f"{m.__name__}.{n}" for m, n in SPANNED])
def test_spanned_functions_resolve(module, name):
    assert callable(getattr(module, name))


@pytest.mark.parametrize("cls, name", SPANNED_METHODS,
                         ids=[f"{c.__name__}.{n}" for c, n in SPANNED_METHODS])
def test_spanned_methods_are_defined_on_their_class(cls, name):
    assert callable(cls.__dict__[name])  # the tracer reads the class __dict__, not getattr


def test_counted_methods_and_command_table_resolve():
    assert callable(tracing.series.CoeffSeries.norm)
    assert callable(tracing.bloch.HyperbolicDensity.on_circle)
    assert all(callable(fn) for fn in tracing.cli._COMMANDS.values())


@pytest.mark.parametrize("name", ["count_sign_changes", "min_positive_root"])
def test_scan_step_and_upper_bind_by_name(name):
    bound = inspect.signature(getattr(roots, name)).bind(lambda r: r, scan_step=0.01)
    bound.apply_defaults()
    assert (bound.arguments["scan_step"], bound.arguments["upper"]) == (0.01, 1.0)


def test_sign_count_binds_positional_scan_step():
    # the tracer binds count_sign_changes' positional arguments only, as the CLI passes them
    bound = inspect.signature(roots.count_sign_changes).bind(lambda r: r, 0.01, 0.5)
    assert (bound.arguments["scan_step"], bound.arguments["upper"]) == (0.01, 0.5)
