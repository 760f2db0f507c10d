"""Every operation of both benchmark workloads meets its oracle, near-1 block included.

The benchmark counts an oracle miss against ``ok_frac``; running its
operations here makes such a change fail the tests first.  The modules
are loaded from their files under ``bench/``, as the benchmark runs
them, and each operation runs once in process through ``run.call_timed``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(file, name):
    """The module in bench/file, registered as name (dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, BENCH / file)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_load("oracles.py", "oracles")  # workloads imports it by this name
workloads = _load("workloads.py", "bench_workloads")
run = _load("run.py", "bench_run")


@pytest.mark.parametrize("seed", [1, 7, 29])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_operation_meets_its_oracle(name, seed):
    ops = workloads.build(name, seed)
    _, _, outcomes = run.run_pass(ops, run.call_timed)
    verdicts = [(op.label, op.near_one, op.check(*outcome)) for op, outcome in zip(ops, outcomes)]
    assert [v for v in verdicts if v[2] is not None] == []
    assert any(op.near_one for op in ops) == (name == "probe_sweep")


@pytest.mark.parametrize("seed", range(1, 11))
def test_every_refined_solve_of_radius_sweep_takes_the_closed_path(seed):
    # a built-in refined radius is a certified closed root, 3 calls of G
    # (see radii.radius_refined); a silent fall-back to the search fails here
    refined = [op for op in workloads.build("radius_sweep", seed) if op.label.startswith("refined/")]
    assert refined
    assert [op.label for op in refined if op.run().iterations != 3] == []
