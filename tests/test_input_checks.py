"""Input checks: each rejected input raises its documented error type and message."""

import math

import numpy as np
import pytest

from bohrad import (MONOMIAL, CoeffSeries, DomainSpec, HyperbolicDensity, MatrixCoeffFn,
                    MuFunction, PhiSequence, RadiusProblem, area_scale, bloch_majorant_check,
                    check_coeff_bound, closed_form_radius, mobius_gamma_coeffs,
                    mobius_partial_modulus, non_improvable, operator_norm, per_function_radius,
                    point_eval_bound, radius_rogosinski)
from bohrad.bloch import gamma_equation_value
from bohrad.errors import ConfigurationError, DomainError, InvalidTestFunctionError
from bohrad.radii import rp_upper

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
    # the disk is omega_gamma at gamma = 0, which HyperbolicDensity.unit_disk() builds
    pytest.param(lambda: HyperbolicDensity("unit_disk"), DomainError,
                 "^unknown density kind 'unit_disk'$", id="density-disk-kind"),
    pytest.param(lambda: HyperbolicDensity("custom", gamma=0.5, fn=abs), DomainError,
                 "^density kind 'custom' takes no gamma$", id="density-custom-gamma"),
    pytest.param(lambda: HyperbolicDensity("omega_gamma", gamma=0.5, fn=abs), DomainError,
                 "^density kind 'omega_gamma' takes no fn$", id="density-omega-fn"),
    pytest.param(lambda: MuFunction(fn=5), ConfigurationError,
                 "^mu fn must be callable, got int$", id="mu-fn-not-callable"),
    # input checks that no other test reaches
    # a domain is given by exactly one of lambda_h and gamma
    pytest.param(lambda: DomainSpec(lambda_h=1.0, gamma=0.5), DomainError,
                 "^provide exactly one of lambda_h / gamma$", id="domain-both"),
    pytest.param(lambda: DomainSpec(), DomainError,
                 "^provide exactly one of lambda_h / gamma$", id="domain-none"),
    pytest.param(lambda: DomainSpec.general(math.inf), DomainError,
                 "^lambda_h must be a positive real$", id="domain-general-inf"),
    pytest.param(lambda: DomainSpec.omega_gamma(1.0), DomainError,
                 r"^gamma must lie in \[0, 1\)$", id="domain-gamma-range"),
    pytest.param(lambda: mobius_gamma_coeffs(0.5, 1.0), DomainError,
                 r"^gamma must lie in \[0, 1\), got 1.0$", id="family-gamma"),
    pytest.param(lambda: MatrixCoeffFn(()), DomainError,
                 "^at least one diagonal entry is required$", id="blend-empty"),
    pytest.param(lambda: MatrixCoeffFn((0.5, 1.0)), DomainError,
                 r"^entry parameter must lie in \(0, 1\), got 1.0$", id="blend-param"),
    pytest.param(lambda: MatrixCoeffFn((0.5, 0.6), (1.0,)), DomainError,
                 "^one phase per diagonal entry is required$", id="blend-phase-count"),
    pytest.param(lambda: operator_norm(np.ones(3)), DomainError,
                 "^operator_norm expects a 2-d matrix$", id="operator-norm-1d"),
    pytest.param(lambda: check_coeff_bound(WIDE_HEAD, DomainSpec.disk()), DomainError,
                 "^leading coefficient norm must be <= 1$", id="coeff-bound-head"),
    pytest.param(lambda: point_eval_bound(WIDE_HEAD, 0.5), DomainError,
                 "^point bound requires a unit-ball function$", id="point-bound-head"),
    pytest.param(lambda: HyperbolicDensity("hexagon"), DomainError,
                 "^unknown density kind 'hexagon'$", id="density-kind"),
    pytest.param(lambda: HyperbolicDensity.omega_gamma(1.0), DomainError,
                 r"^gamma must lie in \[0, 1\)$", id="density-gamma"),
    pytest.param(lambda: HyperbolicDensity("custom"), DomainError,
                 "^custom density requires a callable$", id="density-custom-none"),
    pytest.param(lambda: gamma_equation_value(1.0, 0.5, 0.3), DomainError,
                 r"^gamma must lie in \[0, 1\)$", id="gamma-equation-gamma"),
    pytest.param(lambda: gamma_equation_value(0.3, 0.0, 0.3), DomainError,
                 r"^nu must lie in \(0, 1\]$", id="gamma-equation-nu"),
    pytest.param(lambda: bloch_majorant_check(CoeffSeries((0.8, 0.1)), 0.5,
                                              HyperbolicDensity.unit_disk(), 0.5, 0.2),
                 InvalidTestFunctionError, r"^\|\|A_0\|\| already exceeds the norm budget$",
                 id="bloch-head-over-budget"),
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
    pytest.param(lambda: closed_form_radius("gamma_p1", gamma=1.0), ConfigurationError,
                 r"^case 'gamma_p1' needs gamma in \[0, 1\)$", id="closed-form-gamma"),
    pytest.param(lambda: closed_form_radius("gamma_p2"), ConfigurationError,
                 r"^case 'gamma_p2' needs gamma in \[0, 1\)$", id="closed-form-no-gamma"),
    pytest.param(lambda: rp_upper(2.0), DomainError,
                 r"^p must lie in \[1, 2\)$", id="rp-upper-p"),
    pytest.param(lambda: area_scale(-0.1), DomainError,
                 r"^gamma must lie in \[0, 1\)$", id="area-scale-gamma"),
    pytest.param(lambda: MuFunction(value=1.0, fn=abs), ConfigurationError,
                 "^provide exactly one of value / fn$", id="mu-both"),
    pytest.param(lambda: MuFunction(), ConfigurationError,
                 "^provide exactly one of value / fn$", id="mu-neither"),
    pytest.param(lambda: mobius_partial_modulus(1.0, 0.2, 3, 0.3), DomainError,
                 r"^need a in \(0,1\) and gamma in \[0,1\)$", id="partial-modulus-a"),
    pytest.param(lambda: mobius_partial_modulus(0.6, 1.0, 3, 0.3), DomainError,
                 r"^need a in \(0,1\) and gamma in \[0,1\)$", id="partial-modulus-gamma"),
    # p = nan and tol = nan returned 0.0, p = 5 was accepted, tol = 0 bisected forever
    *(pytest.param(per_function(p=p), DomainError, rf"^p must lie in \(0, 2\], got {p}$",
                   id=f"per-function-p-{p}") for p in (math.nan, 5.0, 0.0, -1.0)),
    *(pytest.param(per_function(tol=tol), DomainError,
                   f"^tol must be finite and positive, got {tol}$", id=f"per-function-tol-{tol}")
      for tol in (0.0, math.nan, math.inf, -1e-10)),
    # h = 0 raised a bare ZeroDivisionError from the central difference
    *(pytest.param(lambda h=h: non_improvable(REFINED, 0.3, h), DomainError,
                   f"^h must be finite and positive, got {h}$", id=f"non-improvable-h-{h}")
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
    assert HyperbolicDensity("custom", gamma=0.0, fn=abs).min_on_circle(0.5, 4) == 0.5
    assert RadiusProblem(MONOMIAL, 1.0, m=1, domain=DomainSpec.omega_gamma(0.0),
                         equation_kind="rogosinski").domain == DomainSpec.disk()
    assert HyperbolicDensity.custom(lambda z: 2.0).min_on_circle(0.5, 4) == 2.0
    assert MuFunction(fn=lambda r: r)(0.5) == 0.5


class TestCoeffBoundTolerance:
    VIOLATING = CoeffSeries((0.5, 2.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
    def test_a_tolerance_that_is_not_finite_and_non_negative_raises(self, tol):
        # a NaN or infinite tol passed this series, whose max_ratio is 2.67, and a
        # negative one raised about the leading norm
        with pytest.raises(DomainError, match=f"^tol must be finite and >= 0, got {tol}$"):
            check_coeff_bound(self.VIOLATING, DomainSpec.disk(), tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1.0])
    def test_a_finite_tolerance_reports_the_violation(self, tol):
        report = check_coeff_bound(self.VIOLATING, DomainSpec.disk(), tol)
        assert (report.passed, report.first_violation) == (False, 1)
        assert report.max_ratio == pytest.approx(2.0 / 0.75, rel=1e-15)
