"""Every operation of both benchmark workloads meets its oracle, near-1 block included.

The benchmark counts an oracle miss against ``ok_frac``; running its
operations here makes such a change fail the tests first.  The modules
are loaded from their files under ``bench/``, as the benchmark runs
them, and each operation runs once in process through ``run.call_timed``.
"""

import pytest

from linecov import load_bench

workloads, run = load_bench()


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
