"""Input checks: each rejected input raises its documented error type and message."""

import math
import re

import numpy as np
import pytest

from bohrad import (MONOMIAL, CoeffSeries, DomainSpec, HyperbolicDensity, MatrixCoeffFn,
                    MuFunction, PhiSequence, PolySpec, RadiusProblem, area_poly_coeffs, area_scale,
                    bloch_majorant_check, bohr_energy_functional, check_coeff_bound,
                    closed_form_radius, m_integral, mobius_gamma_coeffs, mobius_partial_modulus,
                    bohr_beta_functional, calibrate_area_poly, monotonicity_check,
                    non_improvable, operator_norm,
                    per_function_radius, point_eval_bound, radius_refined, radius_rogosinski,
                    refined_at, rogosinski_at, sharpness_probe)
from bohrad.bloch import gamma_equation_value
from bohrad.errors import ConfigurationError, DomainError, InvalidTestFunctionError
from bohrad.radii import rp_bounds, rp_lower, rp_upper
from bohrad.roots import count_sign_changes, decreasing_root, increasing_root, min_positive_root
from bohrad.series import _PARAMS, _check_param

from test_cli import run_python


def term(n, r):
    return r**n


WIDE_HEAD = CoeffSeries((1.5,))
REFINED = RadiusProblem(MONOMIAL, 1.0)
FAMILY = mobius_gamma_coeffs(0.9, 0.0)


def per_function(**kwargs):
    """per_function_radius of FAMILY with monomial weights, p = q = 1 unless given."""
    args = {"p": 1.0, "q": 1.0, **kwargs}
    return lambda: per_function_radius(FAMILY, MONOMIAL, **args)


@pytest.mark.parametrize("call, error, match", [
    # constructors reject a field that is not callable, or that their kind does not read
    pytest.param(lambda: PhiSequence("custom", custom_term=5), ConfigurationError,
                 "^custom phi requires a custom_term callable$", id="phi-term-not-callable"),
    pytest.param(lambda: PhiSequence("custom", custom_term=term, custom_tail=5),
                 ConfigurationError, "^custom_tail must be callable$",
                 id="phi-tail-not-callable"),
    pytest.param(lambda: PhiSequence("monomial", custom_term=term), ConfigurationError,
                 "^phi kind 'monomial' takes no custom_term or custom_tail$",
                 id="phi-builtin-term"),
    pytest.param(lambda: PhiSequence("even_only", custom_tail=term), ConfigurationError,
                 "^phi kind 'even_only' takes no custom_term or custom_tail$",
                 id="phi-builtin-tail"),
    pytest.param(lambda: HyperbolicDensity.custom(5), DomainError,
                 "^custom density requires a callable$", id="density-fn-not-callable"),
    # a density is given by exactly one of gamma and fn, as a DomainSpec is
    pytest.param(lambda: HyperbolicDensity(gamma=0.5, fn=abs), DomainError,
                 "^provide exactly one of gamma / fn$", id="density-both"),
    pytest.param(lambda: HyperbolicDensity(), DomainError,
                 "^provide exactly one of gamma / fn$", id="density-none"),
    pytest.param(lambda: MuFunction(fn=5), ConfigurationError,
                 "^mu fn must be callable, got int$", id="mu-fn-not-callable"),
    # input checks that no other test reaches
    # a domain is given by exactly one of lambda_h and gamma
    pytest.param(lambda: DomainSpec(lambda_h=1.0, gamma=0.5), DomainError,
                 "^provide exactly one of lambda_h / gamma$", id="domain-both"),
    pytest.param(lambda: DomainSpec(), DomainError,
                 "^provide exactly one of lambda_h / gamma$", id="domain-none"),
    pytest.param(lambda: DomainSpec.general(math.inf), DomainError,
                 r"^lambda_h must lie in \(0, inf\), got inf$", id="domain-general-inf"),
    pytest.param(lambda: DomainSpec.omega_gamma(1.0), DomainError,
                 r"^gamma must lie in \[0, 1\), got 1.0$", id="domain-gamma-range"),
    pytest.param(lambda: mobius_gamma_coeffs(0.5, 1.0), DomainError,
                 r"^gamma must lie in \[0, 1\), got 1.0$", id="family-gamma"),
    pytest.param(lambda: MatrixCoeffFn(()), DomainError,
                 "^at least one diagonal entry is required$", id="blend-empty"),
    pytest.param(lambda: MatrixCoeffFn((0.5, 1.0)), DomainError,
                 r"^a must lie in \(0, 1\), got 1.0$", id="blend-param"),
    pytest.param(lambda: MatrixCoeffFn((0.5, 0.6), (1.0,)), DomainError,
                 "^one phase per diagonal entry is required$", id="blend-phase-count"),
    pytest.param(lambda: operator_norm(np.ones(3)), DomainError,
                 "^operator_norm expects a 2-d matrix$", id="operator-norm-1d"),
    pytest.param(lambda: check_coeff_bound(WIDE_HEAD, DomainSpec.disk()), DomainError,
                 "^leading coefficient norm must be <= 1$", id="coeff-bound-head"),
    pytest.param(lambda: point_eval_bound(WIDE_HEAD, 0.5), DomainError,
                 "^point bound requires a unit-ball function$", id="point-bound-head"),
    # the first positional field is gamma: a kind name is not one
    pytest.param(lambda: HyperbolicDensity("omega_gamma"), DomainError,
                 "^gamma must be a real number, got str$", id="density-kind"),
    pytest.param(lambda: HyperbolicDensity.omega_gamma(1.0), DomainError,
                 r"^gamma must lie in \[0, 1\), got 1.0$", id="density-gamma"),
    pytest.param(lambda: HyperbolicDensity.custom(None), DomainError,
                 "^provide exactly one of gamma / fn$", id="density-custom-none"),
    pytest.param(lambda: gamma_equation_value(1.0, 0.5, 0.3), DomainError,
                 r"^gamma must lie in \[0, 1\), got 1.0$", id="gamma-equation-gamma"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.0, 0.3), DomainError,
                 r"^nu must lie in \(0, 1\], got 0.0$", id="gamma-equation-nu"),
    pytest.param(lambda: bloch_majorant_check(CoeffSeries((0.8, 0.1)), 0.5,
                                              HyperbolicDensity.unit_disk(), 0.5, 0.2),
                 InvalidTestFunctionError, r"^\|\|A_0\|\| already exceeds the norm budget$",
                 id="bloch-head-over-budget"),
    # a budget no Bloch norm can meet is the caller's fault, not the test function's
    pytest.param(lambda: bloch_majorant_check(CoeffSeries((0.0, 0.1)), -0.5,
                                              HyperbolicDensity.unit_disk(), 0.5, 0.2),
                 DomainError, r"^bloch_norm_budget must lie in \[0, 1 \+ 1e-12\], got -0.5$",
                 id="bloch-negative-budget"),
    pytest.param(lambda: RadiusProblem(MONOMIAL, 1.0, equation_kind="schwarz"),
                 ConfigurationError, "^unknown equation kind 'schwarz'$", id="problem-kind"),
    pytest.param(lambda: radius_rogosinski(REFINED), ConfigurationError,
                 "^problem is not of the rogosinski kind$", id="rogosinski-refined"),
    # a Rogosinski problem on Omega_0.9 returned the disk radius; a refined one with
    # N = 7 solved as if N were 1
    pytest.param(lambda: RadiusProblem(MONOMIAL, 1.0, m=1, domain=DomainSpec.omega_gamma(0.9),
                                       equation_kind="rogosinski"), ConfigurationError,
                 r"^the rogosinski equation is posed on the disk, got "
                 r"DomainSpec\(lambda_h=None, gamma=0.9\)$", id="problem-rogosinski-gamma"),
    # lambda_h = 1 has the disk's constant, but a domain given by lambda_h is not the disk
    pytest.param(lambda: RadiusProblem(MONOMIAL, 1.0, m=1, domain=DomainSpec.general(1.0),
                                       equation_kind="rogosinski"), ConfigurationError,
                 r"^the rogosinski equation is posed on the disk, got "
                 r"DomainSpec\(lambda_h=1.0, gamma=None\)$", id="problem-rogosinski-general"),
    *(pytest.param(lambda N=N: RadiusProblem(MONOMIAL, 1.0, N=N), ConfigurationError,
                   f"^the refined equation reads no N, got N = {N}$", id=f"problem-refined-N-{N}")
      for N in (7, 0)),
    # a value out of range raises the DomainError of every entry point; a value the case
    # needs and was not given, ConfigurationError
    pytest.param(lambda: closed_form_radius("gamma_p1", gamma=1.0), DomainError,
                 r"^gamma must lie in \[0, 1\), got 1.0$", id="closed-form-gamma"),
    pytest.param(lambda: closed_form_radius("gamma_p2"), ConfigurationError,
                 "^case 'gamma_p2' needs gamma$", id="closed-form-no-gamma"),
    pytest.param(lambda: rp_upper(2.0), DomainError,
                 r"^p must lie in \[1, 2\), got 2.0$", id="rp-upper-p"),
    pytest.param(lambda: area_scale(-0.1), DomainError,
                 r"^gamma must lie in \[0, 1\), got -0.1$", id="area-scale-gamma"),
    pytest.param(lambda: MuFunction(value=1.0, fn=abs), ConfigurationError,
                 "^provide exactly one of value / fn$", id="mu-both"),
    pytest.param(lambda: MuFunction(), ConfigurationError,
                 "^provide exactly one of value / fn$", id="mu-neither"),
    pytest.param(lambda: mobius_partial_modulus(1.0, 0.2, 3, 0.3), DomainError,
                 r"^a must lie in \(0, 1\), got 1.0$", id="partial-modulus-a"),
    pytest.param(lambda: mobius_partial_modulus(0.6, 1.0, 3, 0.3), DomainError,
                 r"^gamma must lie in \[0, 1\), got 1.0$", id="partial-modulus-gamma"),
    # p = nan and tol = nan returned 0.0, p = 5 was accepted, tol = 0 bisected forever
    *(pytest.param(per_function(p=p), DomainError, rf"^p must lie in \(0, 2\], got {p}$",
                   id=f"per-function-p-{p}") for p in (math.nan, 5.0, 0.0, -1.0)),
    *(pytest.param(per_function(tol=tol), DomainError,
                   rf"^tol must lie in \(0, inf\), got {tol}$", id=f"per-function-tol-{tol}")
      for tol in (0.0, math.nan, math.inf, -1e-10)),
    # h = 0 raised a bare ZeroDivisionError from the central difference
    *(pytest.param(lambda h=h: non_improvable(REFINED, 0.3, h), DomainError,
                   rf"^h must lie in \(0, inf\), got {h}$", id=f"non-improvable-h-{h}")
      for h in (0.0, math.nan, math.inf, -1e-6)),
])
def test_input_check_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_per_function_radius_stops_at_adjacent_floats():
    # tol = 1e-300 (and any tol below the spacing of the floats near the radius) bisected
    # forever: run it in a subprocess, so that a hang fails on the timeout
    code = ("from bohrad import MONOMIAL, mobius_gamma_coeffs, per_function_radius\n"
            "coeffs = mobius_gamma_coeffs(0.9, 0.0)\n"
            "print(repr(per_function_radius(coeffs, MONOMIAL, 1.0, 1.0, tol=1e-300)))\n"
            "print(repr(per_function_radius(coeffs, MONOMIAL, 1.0, 1.0, tol=5e-324)))")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    tiny, smallest = map(float, result.stdout.split())
    assert tiny == smallest
    assert tiny == pytest.approx(per_function_radius(FAMILY, MONOMIAL, 1.0, 1.0), abs=1e-10)


def test_constructors_keep_accepting_what_they_use():
    assert PhiSequence("custom", custom_term=term, custom_tail=None).custom_tail is None
    assert HyperbolicDensity(fn=abs).min_on_circle(0.5, 4) == 0.5
    assert RadiusProblem(MONOMIAL, 1.0, m=1, domain=DomainSpec.omega_gamma(0.0),
                         equation_kind="rogosinski").domain == DomainSpec.disk()
    assert HyperbolicDensity.custom(lambda z: 2.0).min_on_circle(0.5, 4) == 2.0
    assert MuFunction(fn=lambda r: r)(0.5) == 0.5


# each row of series._PARAMS: its interval as messages print it, the floats just past its
# two ends, and a value inside it
PARAMS = {"gamma": ("[0, 1)", -5e-324, 1.0, 0.3),
          "nu": ("(0, 1]", 0.0, math.nextafter(1.0, 2.0), 0.5),
          "p": ("(0, 2]", 0.0, math.nextafter(2.0, 3.0), 1.5),
          "p:r_p": ("[1, 2)", math.nextafter(1.0, 0.0), 2.0, 1.5),
          "lambda_h": ("(0, inf)", 0.0, math.inf, 0.75),
          "a": ("(0, 1)", 0.0, 1.0, 0.6),
          "tol": ("(0, inf)", 0.0, math.inf, 1e-10),
          "scan_step": ("(0, 1)", 0.0, 1.0, 0.01),
          "upper": ("(0, 1]", 0.0, math.nextafter(1.0, 2.0), 0.9),
          "tol:coeff_bound": ("[0, inf)", -5e-324, math.inf, 1e-12),
          "h": ("(0, inf)", 0.0, math.inf, 1e-6),
          "beta": ("[0, inf)", -5e-324, math.inf, 0.25),
          "q": ("(0, inf)", 0.0, math.inf, 1.5),
          "mu": ("[0, inf)", -5e-324, math.inf, 0.5),
          "r:probe": ("(0, 1)", 0.0, 1.0, 0.5),
          "tail_geometric_ratio": ("[0, 1)", -5e-324, 1.0, 0.5),
          "bloch_norm_budget": ("[0, 1 + 1e-12]", -5e-324, math.nextafter(1.0 + 1e-12, 2.0),
                                1.0),
          "c": ("(0, inf)", 0.0, math.inf, 0.1)}
DISK = HyperbolicDensity.unit_disk()
RISING, FALLING = (lambda r: r - 0.3), (lambda r: 0.3 - r)
# every entry point of a row, as (row key, call with that argument at x, the output that
# stores or uses x)
PARAM_SITES = {
    "DomainSpec.gamma": ("gamma", lambda x: DomainSpec(gamma=x).gamma),
    "mobius_gamma_coeffs.gamma": ("gamma", lambda x: mobius_gamma_coeffs(0.6, x).norms[0]),
    "HyperbolicDensity.gamma": ("gamma", lambda x: HyperbolicDensity(gamma=x).gamma),
    "gamma_equation_value.gamma": ("gamma", lambda x: gamma_equation_value(x, 0.5, 0.3)),
    "mobius_partial_modulus.gamma": ("gamma",
                                     lambda x: mobius_partial_modulus(0.6, x, 3, 0.3, 16)),
    "area_scale.gamma": ("gamma", area_scale),
    "closed_form_radius.gamma": ("gamma", lambda x: closed_form_radius("gamma_p1", gamma=x)),
    "m_integral.nu": ("nu", lambda x: m_integral(DISK, x, 0.3)),
    "gamma_equation_value.nu": ("nu", lambda x: gamma_equation_value(0.3, x, 0.3)),
    "bloch_majorant_check.nu": ("nu", lambda x: bloch_majorant_check(
        CoeffSeries((0.0, 0.1)), 1.0, DISK, x, 0.2).value),
    "RadiusProblem.p": ("p", lambda x: RadiusProblem(MONOMIAL, x).p),
    "closed_form_radius.p": ("p", lambda x: closed_form_radius("even_p", gamma=0.2, p=x)),
    "refined_at.p": ("p", lambda x: refined_at(MONOMIAL, x, 0, 0.0, 0.3)(FAMILY).value),
    "rogosinski_at.p": ("p", lambda x: rogosinski_at(MONOMIAL, x, 1, 1, 1.0, 0.3)(FAMILY).value),
    "per_function_radius.p": ("p", lambda x: per_function(p=x, tol=1e-6)()),
    "DomainSpec.lambda_h": ("lambda_h", lambda x: DomainSpec(lambda_h=x).lambda_h),
    "bohr_energy_functional.lambda_h": ("lambda_h",
                                        lambda x: bohr_energy_functional(FAMILY, 0.3, x).value),
    "area_poly_coeffs.lambda_h": ("lambda_h", lambda x: area_poly_coeffs(x, 2).coefficients[0]),
    "closed_form_radius.lambda_h": ("lambda_h",
                                    lambda x: closed_form_radius("lambda_base", lambda_h=x)),
    "monotonicity_check.lambda_h": ("lambda_h", lambda x: monotonicity_check(
        "beta_square", 8, lambda_h=x).value_at_0),
    "mobius_gamma_coeffs.a": ("a", lambda x: mobius_gamma_coeffs(x, 0.2).norms[0]),
    "MatrixCoeffFn.a": ("a", lambda x: MatrixCoeffFn((0.5, x)).params[1]),
    "mobius_partial_modulus.a": ("a", lambda x: mobius_partial_modulus(x, 0.2, 3, 0.3, 16)),
    **{f"{solve.__name__}.{key}": (key, lambda x, solve=solve, f=f, key=key:
                                   solve(f, **{key: x}).value)
       for solve, f in ((min_positive_root, RISING), (increasing_root, RISING),
                        (decreasing_root, FALLING))
       for key in ("tol", "scan_step", "upper")},
    "radius_refined.tol": ("tol", lambda x: radius_refined(REFINED, x).value),
    "radius_refined.scan_step": ("scan_step",
                                 lambda x: radius_refined(REFINED, 1e-12, x).scan_step),
    "per_function_radius.tol": ("tol", lambda x: per_function(tol=x)()),
    "count_sign_changes.scan_step": ("scan_step", lambda x: count_sign_changes(RISING, x)),
    "count_sign_changes.upper": ("upper", lambda x: count_sign_changes(RISING, upper=x)),
    "rp_lower.p": ("p:r_p", rp_lower),
    "rp_upper.p": ("p:r_p", rp_upper),
    "rp_bounds.p": ("p:r_p", lambda x: rp_bounds(x)[1]),
    "check_coeff_bound.tol": ("tol:coeff_bound", lambda x: check_coeff_bound(
        TestCoeffBoundTolerance.VIOLATING, DomainSpec.disk(), x).first_violation),
    "non_improvable.h": ("h", lambda x: non_improvable(REFINED, 0.3, x)),
    "bohr_beta_functional.beta": ("beta", lambda x: bohr_beta_functional(FAMILY, 0.3, x).value),
    "per_function_radius.q": ("q", lambda x: per_function(q=x, tol=1e-6)()),
    "MuFunction.value": ("mu", lambda x: MuFunction(value=x).value),
    "MuFunction.constant": ("mu", lambda x: MuFunction.constant(x).value),
    "MuFunction.of": ("mu", lambda x: MuFunction.of(x).value),
    "RadiusProblem.mu": ("mu", lambda x: RadiusProblem(MONOMIAL, 1.0, mu=x).mu.value),
    "sharpness_probe.r": ("r:probe", lambda x: sharpness_probe(REFINED, x)),
    "CoeffSeries.tail_geometric_ratio": ("tail_geometric_ratio", lambda x: CoeffSeries(
        (0.5, 0.25), 0, x).tail_geometric_ratio),
    "bloch_majorant_check.bloch_norm_budget": ("bloch_norm_budget", lambda x: bloch_majorant_check(
        CoeffSeries((0.0, 0.1)), x, DISK, 0.5, 0.2).value),
    "PolySpec.c": ("c", lambda x: PolySpec((0.5, x)).coefficients[1]),
    "calibrate_area_poly.c": ("c", lambda x: calibrate_area_poly((x,)).coefficients[1]),
}


def _bad_params():
    for site, (key, call) in PARAM_SITES.items():
        interval, below, above, _ = PARAMS[key]
        name = key.partition(":")[0]  # the argument's name, which messages print
        for label, x in (("nan", math.nan), ("below", below), ("above", above),
                         ("huge-int", 10**400)):  # no float: float(10**400) overflows
            yield pytest.param(call, x, rf"^{name} must lie in {re.escape(interval)}, got {x}$",
                               id=f"{site}-{label}")
        for x in (True, np.bool_(True), "0.5"):
            yield pytest.param(call, x, f"^{name} must be a real number, got {type(x).__name__}$",
                               id=f"{site}-{type(x).__name__}")


class TestNamedParameters:
    """Each numeric argument is decided by its one interval in series._PARAMS, with one
    message."""

    def test_every_row_is_tested_at_an_entry_point(self):
        # a row added to the table without a PARAMS row and an entry point fails here
        assert set(PARAMS) == set(_PARAMS)
        assert {key for key, _ in PARAM_SITES.values()} == set(_PARAMS)
        assert {key: row[0] for key, row in PARAMS.items()} \
            == {key: row[2] for key, row in _PARAMS.items()}

    @pytest.mark.parametrize("call, x, match", _bad_params())
    def test_a_value_outside_the_interval_raises_the_same_message_everywhere(self, call, x,
                                                                             match):
        with pytest.raises(DomainError, match=match):
            call(x)

    @pytest.mark.parametrize("site", PARAM_SITES)
    def test_a_numpy_scalar_is_stored_or_used_as_a_python_float(self, site):
        # the output of a numpy scalar has the type and value of the float's: a float
        # wherever the site returns one (count_sign_changes returns an int, non_improvable
        # a bool, check_coeff_bound's first violation an int)
        key, call = PARAM_SITES[site]
        inside = PARAMS[key][3]
        out, want = call(np.float64(inside)), call(inside)
        assert type(out) is type(want) and out == want

    @pytest.mark.parametrize("name", PARAMS)
    def test_the_floats_next_to_each_end_inside_the_interval_are_accepted(self, name):
        _, below, above, _ = PARAMS[name]
        for x in (math.nextafter(below, math.inf), math.nextafter(above, -math.inf)):
            assert _check_param(name, x) == x


class TestCoeffBoundTolerance:
    VIOLATING = CoeffSeries((0.5, 2.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
    def test_a_tolerance_that_is_not_finite_and_non_negative_raises(self, tol):
        # a NaN or infinite tol passed this series, whose max_ratio is 2.67, and a
        # negative one raised about the leading norm
        with pytest.raises(DomainError, match=rf"^tol must lie in \[0, inf\), got {tol}$"):
            check_coeff_bound(self.VIOLATING, DomainSpec.disk(), tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1.0])
    def test_a_finite_tolerance_reports_the_violation(self, tol):
        report = check_coeff_bound(self.VIOLATING, DomainSpec.disk(), tol)
        assert (report.passed, report.first_violation) == (False, 1)
        assert report.max_ratio == pytest.approx(2.0 / 0.75, rel=1e-15)
