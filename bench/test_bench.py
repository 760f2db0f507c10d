"""Tests of the benchmark itself: deterministic counters and oracles that bite.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bohrad.functionals import FunctionalReport  # noqa: E402
from bohrad.roots import RootResult  # noqa: E402

SEED = 7


def _reference(ops):
    return run.run_pass(ops, run.call_timed)[2]


def _traced_counts(name):
    ops = workloads.build(name, SEED)
    tracer = tracing.Tracer()
    tracer.begin_pass(record=False)
    with tracer:
        run.run_pass(ops, run.call_timed, tracer)
    return tracer.end_pass()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counters_repeat_exactly(name):
    first = _traced_counts(name)
    assert first == _traced_counts(name)
    assert any(first.values())


def test_tracer_restores_every_patched_function():
    from bohrad import cli, phi, radii
    before = (radii.phi_term, phi.phi_term, dict(cli._COMMANDS))
    with tracing.Tracer():
        assert radii.phi_term is not before[0]
    assert (radii.phi_term, phi.phi_term, dict(cli._COMMANDS)) == before


def _plant(value, error):
    """A wrong outcome of the same shape as (value, error)."""
    if error is not None:
        return RootResult(0.5, (0.5, 0.5), 0.0, 1, 1e-3), None
    if isinstance(value, RootResult):
        return dataclasses.replace(value, value=value.value + 1e-6), None
    if isinstance(value, FunctionalReport):
        return dataclasses.replace(value, value=value.value + 1e-9 * max(1.0, abs(value.value))), None
    if isinstance(value, float):
        return value * (1.0 + 1e-9) + 1e-9, None
    if isinstance(value, list):   # reference-table rows
        return [dataclasses.replace(value[0], computed=value[0].computed + 1e-6)] + value[1:], None
    raise AssertionError(f"no planted value for {value!r}")


def _plant_cli(value):
    """Wrong exit code, and (for a JSON record) one number nudged in its 7th digit."""
    code, out = value
    yield (code + 1, out), None
    if out:
        record = json.loads(out)
        if "rows" in record:
            holder, key = record["rows"][0], "R_computed"
        elif "summary" in record:
            holder, key = record["summary"], "radius"
        elif "coefficients" in record:
            holder, key = record["coefficients"], 0
        else:
            holder, key = record, "radius" if "radius" in record else "lower"
        holder[key] *= 1.0 + 3e-6
        yield (code, json.dumps(record) + "\n"), None


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracles_accept_the_program_and_reject_planted_values(name):
    ops = workloads.build(name, SEED)
    for op, (value, error) in zip(ops, _reference(ops)):
        verdict = op.check(value, error)
        assert verdict is None or op.near_one, f"{op.label}: {verdict}"
        if op.argv:
            planted = list(_plant_cli(value))
        elif op.label == "sharpness_probe":
            planted = [(None if value is not None else oracles.DEFAULT_A_GRID[0], None)]
        else:
            planted = [_plant(value, error)]
        for wrong in planted:
            assert op.check(*wrong), f"{op.label} accepted a planted value {wrong!r}"


def test_near_one_block_shows_the_truncation_defect():
    ops = workloads.build("probe_sweep", SEED)
    near = [op for op in ops if op.near_one]
    misses = [op.label for op in near if op.check(*_reference([op])[0])]
    assert "s_r" in misses and misses.count("majorant") == 3


def test_root_oracle_finds_a_root_skipped_inside_one_scan_cell():
    # F > 0 except on a dip narrower than the 1e-3 scan step around 0.3005
    F = lambda R: 1.0 - 2.0 * (abs(R - 0.3005) < 2e-4) + 0.0 * R
    assert oracles.check_root(F, 0.8, 1e-3) is not None


def test_tally_counts_a_changed_output_as_failed():
    ops = [op for op in workloads.build("probe_sweep", SEED)
           if op.label in ("majorant", "s_r", "refined") and not op.near_one][:3]
    reference = _reference(ops)
    tally = run.Tally(ops, reference)
    changed = list(reference)
    changed[1] = _plant(*reference[1])
    tally.add(reference)
    tally.add(changed)
    tally.check(reference)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert tally.unexpected()


def test_timings_take_each_operations_fastest_samples():
    per_op = [[4.0, 1.0, 3.0, 2.0, 8.0, 7.0, 6.0, 5.0], [0.5, 0.25, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0]]
    # 10 / (0.25 * 2 operations) = 20 samples each would be kept; all 8 are
    assert run.fastest(per_op, 75.0) == [sorted(xs) for xs in per_op]
    assert run.fastest(per_op, 0.0) == [[1.0, 2.0, 3.0, 4.0, 5.0], [0.25, 0.5, 9.0, 9.0, 9.0]]
    assert run.list_seconds(per_op) == 1.25


def test_tail_keeps_ten_samples_above_it():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs, 75.0) == (74.0, 75.0, 100, 25)
    assert run.tail(xs, 99.0) == (89.0, 90.0, 100, 10)


def test_runner_refuses_without_the_program_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-dir")
    assert run.main(["--workload", "radius_sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
