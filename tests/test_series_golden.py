"""Exact values of the series sums, pinned in series_golden.json.

Every sum on the extremal family (two stored norms and a 64-norm
prefix), on diagonal blends and with custom weights must repeat the
stored ``repr`` bit for bit, so a faster kernel that reorders any
floating-point operation fails here.  Regenerate the file only for an
intended change of values:

    PYTHONPATH=src python tests/test_series_golden.py

It prints each label whose value it rewrote, one line each, with the old
value, the new value and the distance between them in ulp, and nothing
when no value changed.
"""

import json
import math
import struct
from pathlib import Path

import pytest

from bohrad import (BUILTIN_PHI, MatrixCoeffFn, PhiSequence, bohr_area_functional,
                    bohr_beta_functional, bohr_energy_functional, diag_blend_coeffs, majorant,
                    mobius_gamma_coeffs, refined_functional, refined_sum, rogosinski_functional,
                    s_r)

import mp_sums
from test_functionals import mp_series_sums

GOLDEN_PATH = Path(__file__).resolve().parent / "series_golden.json"

CUSTOM = {
    "custom_tail": PhiSequence("custom", custom_term=lambda n, r: (n + 1) * r**n,
                               custom_tail=lambda N, r: r**N * ((N + 1) / (1.0 - r)
                                                                + r / (1.0 - r) ** 2)),
    "custom_truncated": PhiSequence("custom", custom_term=lambda n, r: (n + 1) * r**n),
}


def _blend(params, turns):
    return MatrixCoeffFn(params, tuple(complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
                                       for t in turns))


BLENDS = {
    "equal": _blend((0.6, 0.6, 0.6), (0.0, 0.3, 0.71)),
    "distinct": _blend((0.3, 0.7, 0.5), (0.1, 0.45, 0.9)),
    "wide": _blend((0.05, 0.95, 0.9, 0.2, 0.6, 0.6, 0.995, 0.4), [k / 8 for k in range(8)]),
}
BLEND_R = {"equal": 0.3, "distinct": 0.8, "wide": 0.6}


def _sums(values, label, coeffs, disk, m, r, lam, kinds):
    """The functionals of one series: kind-free ones once, the rest per weight."""
    shifted = coeffs.shifted(m)
    values[f"{label} s_r"] = s_r(shifted, r)
    values[f"{label} energy"] = bohr_energy_functional(coeffs, r, lam).value
    values[f"{label} beta"] = bohr_beta_functional(coeffs, r, 0.25 * lam).value
    values[f"{label} area"] = bohr_area_functional(coeffs, r, lam, m + 1).value
    for kind, phi in kinds.items():
        values[f"{label} {kind} majorant"] = majorant(shifted, phi, r)
        values[f"{label} {kind} refined"] = refined_functional(shifted, phi, 1.5, m, 2.0, r).value
        values[f"{label} {kind} refined_sum"] = refined_sum(shifted, phi, m, r)
        values[f"{label} {kind} rogosinski"] = rogosinski_functional(
            disk, phi, 1.5, m + 1, m + 1, 2.0, r).value


def golden_values():
    """Label -> value of every pinned sum."""
    values = {}
    for m, r in enumerate((0.5, 0.9, 0.99, 0.75)):
        _sums(values, f"two_norm m={m}", mobius_gamma_coeffs(0.95, 0.4),
              mobius_gamma_coeffs(0.95, 0.0), m, r, 1.0 / 1.4, BUILTIN_PHI)
    for m in (0, 2):
        _sums(values, f"count64 m={m}", mobius_gamma_coeffs(0.9, 0.0, 64),
              mobius_gamma_coeffs(0.9, 0.0, 64), m, 0.7, 1.0, BUILTIN_PHI)
    for name, fn in BLENDS.items():
        coeffs = diag_blend_coeffs(fn)
        _sums(values, f"blend {name}", coeffs, coeffs, 0, BLEND_R[name], 1.0, BUILTIN_PHI)
    family = mobius_gamma_coeffs(0.9, 0.0)
    for kind, phi in CUSTOM.items():
        values[f"custom {kind} majorant"] = majorant(family, phi, 0.9)
        values[f"custom {kind} refined_sum"] = refined_sum(family, phi, 0, 0.5)
    return {label: repr(value) for label, value in values.items()}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_about_two_hundred_values():
    assert len(GOLDEN) >= 200


@pytest.fixture(scope="module")
def current():
    return golden_values()


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_sum_repeats_its_golden_value(current, label):
    assert current[label] == GOLDEN[label]


def test_no_value_is_unpinned(current):
    assert sorted(current) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(BLENDS))
def test_blend_values_are_the_40_digit_sums(name):
    # the sums on the blend's exact norms; its golden series is its own disk series
    exact, r = mp_sums.blend(BLENDS[name].params), BLEND_R[name]
    want = {}
    for kind in BUILTIN_PHI:
        sums = mp_series_sums(exact, exact, exact, 1.0, kind, 0, r)
        for label in ("majorant", "refined", "rogosinski"):
            want[f"{kind} {label}"] = sums[label]
        want[f"{kind} refined_sum"] = mp_sums.refined_sum(exact, kind, 0, r)
    want.update({label: sums[label] for label in ("s_r", "energy", "beta", "area")})
    prefix = f"blend {name} "
    assert sorted(prefix + label for label in want) == sorted(
        label for label in GOLDEN if label.startswith(prefix))
    for label, value in want.items():
        assert mp_sums.close(float(GOLDEN[prefix + label]), value, 0.0, 1e-15), label


def ulp_distance(x, y):
    """How many floats step from x to y: 0 for the same value, 1 for neighbours."""
    def ordered(v):  # the bit patterns as integers in the order of the floats
        (i,) = struct.unpack("<q", struct.pack("<d", v))
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(x) - ordered(y))


if __name__ == "__main__":
    values = golden_values()
    for label in sorted(GOLDEN.keys() | values.keys()):  # name each rewritten value
        old, new = GOLDEN.get(label), values.get(label)
        if old != new:
            ulps = (f"{ulp_distance(float(old), float(new))} ulp" if None not in (old, new)
                    else "added or removed")
            print(f"{label}: {old} -> {new} ({ulps})")
    GOLDEN_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
