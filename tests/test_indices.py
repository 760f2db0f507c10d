"""Index and count arguments, and the inputs a NaN used to slip through.

Every index or count (a term index n, a tail start N, the refinement index
m, a Schwarz order, a degree, a term count, a grid size) goes through
``series._check_index``: an int or a numpy integer at least the entry's
least value passes, and a bool, any float (2.0 included) or a smaller
value raises a DomainError that names the argument.
"""

import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest

from bohrad import (EVEN_ONLY, MONOMIAL, ODD_ONLY, WEIGHTED_LINEAR, WEIGHTED_QUADRATIC,
                    CoeffSeries, HyperbolicDensity, MatrixCoeffFn, RadiusProblem,
                    area_poly_coeffs, bloch_majorant_check, bohr_area_functional,
                    bohr_beta_functional, bohr_energy_functional, classical_functional,
                    closed_form_radius, m_integral, mobius_gamma_coeffs, mobius_partial_modulus,
                    monotonicity_check, peak_weight, per_function_radius, phi_tail, phi_term,
                    radius_refined, radius_rogosinski, refined_at, refined_functional,
                    refined_sum, rogosinski_at, rogosinski_functional, schwarz_composed_bound)
from bohrad.bloch import derivative_majorant, gamma_equation_value
from bohrad.cli import main
from bohrad.errors import DomainError
from bohrad.phi import ratio_form, tail_from, term_at
from bohrad.polynomials import area_slack, peak_point

COEFFS = mobius_gamma_coeffs(0.6, 0.2)
SMALL = CoeffSeries((0.0, 0.1))  # meets the Bloch hypothesis on the disk at nu = 1/2
DISK = HyperbolicDensity.unit_disk()
CUSTOM_DISK = HyperbolicDensity.custom(lambda z: 1.0 / (1.0 - abs(z) ** 2))
BLEND = MatrixCoeffFn((0.3, 0.5))
BLOCH_TEST = CoeffSeries((0.3, 0.5, 0.2), 0, 0.6)

# (entry, argument name, least value, a valid value, call with the index)
ENTRIES = [
    ("phi_term", "n", 0, 3, lambda n: phi_term(WEIGHTED_LINEAR, n, 0.3)),
    ("phi_tail", "N", 0, 2, lambda N: phi_tail(WEIGHTED_QUADRATIC, N, 0.3)),
    ("term_at", "n", 0, 3, lambda n: term_at(ODD_ONLY, n)(0.3)),
    ("tail_from", "N", 0, 2, lambda N: tail_from(EVEN_ONLY, N)(0.3)),
    ("ratio_form", "m", 0, 2, lambda m: ratio_form(WEIGHTED_LINEAR, m)),
    ("refined_sum", "m", 0, 1, lambda m: refined_sum(COEFFS, EVEN_ONLY, m, 0.3)),
    ("RadiusProblem.m", "m", 0, 2,
     lambda m: radius_refined(RadiusProblem(MONOMIAL, 1.0, m=m))),
    ("RadiusProblem.N", "N", 1, 2,
     lambda N: radius_rogosinski(RadiusProblem(MONOMIAL, 1.0, m=1, N=N, mu=1.0,
                                               equation_kind="rogosinski"))),
    ("RadiusProblem.schwarz_m", "m", 1, 2,
     lambda m: radius_rogosinski(RadiusProblem(ODD_ONLY, 1.0, m=m, N=1, mu=1.0,
                                               equation_kind="rogosinski"))),
    ("refined_functional", "m", 0, 2,
     lambda m: refined_functional(COEFFS.shifted(3), MONOMIAL, 1.0, m, 0.5, 0.2)),
    ("rogosinski_functional", "N", 1, 2,
     lambda N: rogosinski_functional(COEFFS, MONOMIAL, 1.0, N, 1, 1.0, 0.2)),
    ("rogosinski_functional.omega_order", "omega_order", 1, 2,
     lambda k: rogosinski_functional(COEFFS, MONOMIAL, 1.0, 1, k, 1.0, 0.2)),
    ("refined_at", "m", 0, 2, lambda m: refined_at(MONOMIAL, 1.0, m, 0.5, 0.2)(COEFFS.shifted(3))),
    ("rogosinski_at.N", "N", 1, 2, lambda N: rogosinski_at(MONOMIAL, 1.0, N, 1, 1.0, 0.2)(COEFFS)),
    ("rogosinski_at.omega_order", "omega_order", 1, 2,
     lambda k: rogosinski_at(MONOMIAL, 1.0, 1, k, 1.0, 0.2)(COEFFS)),
    ("classical_functional", "N", 1, 2,
     lambda N: classical_functional(COEFFS, 0.2, "bohr_rogosinski", N)),
    ("mobius_partial_modulus.N", "N", 1, 3, lambda N: mobius_partial_modulus(0.6, 0.2, N, 0.3)),
    ("per_function_radius", "m", 0, 1,
     lambda m: per_function_radius(COEFFS, MONOMIAL, 1.0, 1.0, m)),
    ("CoeffSeries.start_index", "start_index", 0, 2,
     lambda k: CoeffSeries((0.0, 0.0, 0.5, 0.25), k)),
    ("CoeffSeries.shifted", "k", 0, 2, lambda k: COEFFS.shifted(k)),
    ("CoeffSeries.truncated_from", "N", 0, 2, lambda N: COEFFS.truncated_from(N)),
    ("mobius_gamma_coeffs", "count", 1, 4, lambda count: mobius_gamma_coeffs(0.6, 0.2, count)),
    ("MatrixCoeffFn.entry_coefficient.i", "i", 0, 1, lambda i: BLEND.entry_coefficient(i, 3)),
    ("MatrixCoeffFn.entry_coefficient.n", "n", 0, 3, lambda n: BLEND.entry_coefficient(1, n)),
    ("schwarz_composed_bound", "omega_order", 1, 2,
     lambda k: schwarz_composed_bound(COEFFS, k, 0.4)),
    ("area_poly_coeffs", "degree", 1, 3, lambda degree: area_poly_coeffs(1.0, degree)),
    ("peak_point", "s", 2, 3, peak_point),
    ("peak_weight", "s", 2, 3, peak_weight),
    ("area_slack", "m", 1, 2, lambda m: area_slack(0.3, m)),
    ("monotonicity_check", "grid_size", 2, 10,
     lambda size: monotonicity_check("area_poly", size, m=1)),
]
IDS = [entry[0] for entry in ENTRIES]


def bad_values(least):
    # 1.5 and least + 0.5 hold the reported cases: phi_term/phi_tail at 1.5, peak_weight(2.5)
    return [1.5, 2.0, True, np.True_, least - 1, least + 0.5]


@pytest.mark.parametrize("entry, name, call, bad", [
    pytest.param(entry, name, call, bad, id=f"{entry}-{bad!r}")
    for entry, name, least, _, call in ENTRIES for bad in bad_values(least)])
def test_bad_index_raises_naming_the_argument(entry, name, call, bad):
    with pytest.raises(DomainError, match=f"^{name} must be "):
        call(bad)


def bits(x):
    """x with every float as its hex string, so == compares bit for bit."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, complex):
        return bits(x.real), bits(x.imag)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if dataclasses.is_dataclass(x):
        return tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(bits, x))
    assert x is None or isinstance(x, str), type(x)
    return x


@pytest.mark.parametrize("valid, call", [entry[3:] for entry in ENTRIES], ids=IDS)
def test_numpy_integer_index_gives_the_int_result(valid, call):
    assert bits(call(np.int64(valid))) == bits(call(valid))


def test_an_index_check_accepts_numpy_integers_of_every_width():
    for kind in (np.int8, np.int32, np.uint16, np.int64):
        assert phi_term(MONOMIAL, kind(2), 0.5) == 0.25


def test_norm_rejects_a_bool_index_and_reads_int_and_numpy_indices_as_before():
    # True < start_index compares as 1, so norm(True) read ||A_1||
    series = CoeffSeries((0.5, 0.25), 0, 0.5)
    for bad in (True, False):
        with pytest.raises(DomainError, match="^n must be an integer, got bool$"):
            series.norm(bad)
    for n, want in ((0, 0.5), (1, 0.25), (3, 0.0625), (-1, 0.0)):
        assert series.norm(n) == series.norm(np.int64(n)) == want


@pytest.mark.parametrize("bad, name", [(1.5, "float"), (2.5, "float"),
                                       (np.float64(3.0), "float64"), ("1", "str"),
                                       (True, "bool")])
def test_norm_rejects_an_index_that_is_not_an_integer(bad, name):
    # a float index read a norm between the stored ones: norm(1.5) was 0.25 * 0.5 ** 0.5
    series = CoeffSeries((0.5, 0.25), 0, 0.5)
    with pytest.raises(DomainError, match=f"^n must be an integer, got {name}$"):
        series.norm(bad)


@pytest.mark.parametrize("call, error, match", [
    # +inf passed before: an infinite report here, NaN (inf * 0.0) with no norms past the head
    pytest.param(lambda: bohr_beta_functional(COEFFS, 0.2, math.nan), DomainError,
                 r"^beta must lie in \[0, inf\), got nan$", id="beta"),
    pytest.param(lambda: bohr_beta_functional(COEFFS, 0.2, math.inf), DomainError,
                 r"^beta must lie in \[0, inf\), got inf$", id="beta-inf"),
    # lambda_h follows DomainSpec.general: finite and > 0, so +inf raises like a NaN
    *(pytest.param(lambda c=call, x=bad: c(x), DomainError,
                   rf"^lambda_h must lie in \(0, inf\), got {bad}$",
                   id=name if math.isnan(bad) else f"{name}-inf")
      for bad in (math.nan, math.inf)
      for name, call in (
          ("energy-lambda_h", lambda x: bohr_energy_functional(COEFFS, 0.2, x)),
          ("area-lambda_h", lambda x: bohr_area_functional(COEFFS, 0.2, x)),
          ("area-poly-lambda_h", lambda x: area_poly_coeffs(x, 2)),
          ("lambda_base", lambda x: closed_form_radius("lambda_base", lambda_h=x)))),
    # +inf gave a radius before, since inner**inf is 0.0 for any inner < 1
    pytest.param(lambda: per_function_radius(COEFFS, MONOMIAL, 1.0, math.nan), DomainError,
                 r"^q must lie in \(0, inf\), got nan$", id="per-function-q"),
    pytest.param(lambda: per_function_radius(COEFFS, MONOMIAL, 1.0, math.inf), DomainError,
                 r"^q must lie in \(0, inf\), got inf$", id="per-function-q-inf"),
    pytest.param(lambda: bloch_majorant_check(SMALL, math.nan, DISK, 0.5, 0.2), DomainError,
                 r"^bloch_norm_budget must lie in \[0, 1 \+ 1e-12\], got nan$",
                 id="bloch-budget"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.5, 2.0), DomainError,
                 r"^radius must lie in \[0, 1\), got 2.0$", id="gamma-equation-r"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.5, math.nan), DomainError,
                 r"^radius must lie in \[0, 1\), got nan$", id="gamma-equation-nan"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.5, True), DomainError,
                 "^radius must be a real number, got bool$", id="gamma-equation-bool"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.5, np.array([0.2, 1.0])), DomainError,
                 r"^every radius must lie in \[0, 1\)$", id="gamma-equation-array"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.5, np.array([-0.1, 0.2])), DomainError,
                 r"^every radius must lie in \[0, 1\)$", id="gamma-equation-negative"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.5, np.array([0.2, math.nan])), DomainError,
                 r"^every radius must lie in \[0, 1\)$", id="gamma-equation-array-nan"),
    *(pytest.param(call, DomainError, match, id=f"{name}-{case}")
      for name, call in (("derivative_majorant", lambda r: derivative_majorant(BLOCH_TEST, r)),
                         ("min_on_circle-disk", DISK.min_on_circle),
                         ("min_on_circle-omega", HyperbolicDensity.omega_gamma(0.3).min_on_circle),
                         ("min_on_circle-custom", CUSTOM_DISK.min_on_circle))
      for case, call, match in (
          ("above", lambda c=call: c(1.5), r"^radius must lie in \[0, 1\), got 1.5$"),
          ("negative", lambda c=call: c(-0.5), r"^radius must lie in \[0, 1\), got -0.5$"),
          ("nan", lambda c=call: c(math.nan), r"^radius must lie in \[0, 1\), got nan$"),
          ("bool", lambda c=call: c(True), "^radius must be a real number, got bool$"),
          ("array", lambda c=call: c(np.array([0.2, 1.0])), r"^every radius must lie in \[0, 1\)$"),
          ("array-nan", lambda c=call: c(np.array([[0.2], [math.nan]])),
           r"^every radius must lie in \[0, 1\)$"))),
    pytest.param(lambda: m_integral(HyperbolicDensity.omega_gamma(0.3), 0.5, False), DomainError,
                 "^radius must be a real number, got bool$", id="m_integral-bool"),
    pytest.param(lambda: m_integral(DISK, 0.5, 1.0), DomainError,
                 r"^radius must lie in \[0, 1\), got 1.0$", id="m_integral-r"),
])
def test_nan_or_out_of_range_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_verify_rejects_a_nan_beta_with_exit_2_and_no_output():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--family", "beta-square", "--gamma", "0", "--beta", "nan"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: beta must lie in [0, inf), got nan\n"
