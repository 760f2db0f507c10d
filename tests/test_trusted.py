"""Values the package builds itself skip the checks their inputs already passed.

The series producers build ``CoeffSeries`` through ``series._trusted``,
without ``__post_init__``; these tests prove what that skips: every
trusted series rebuilds unchanged through the public constructor, and
the hot paths run the validator no times at all, while public
construction still checks everything.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (DEFAULT_A_GRID, EVEN_ONLY, MONOMIAL, CoeffSeries, DomainSpec,
                    FunctionalReport, MatrixCoeffFn, MuFunction, PhiSequence, RadiusProblem,
                    RootResult, diag_blend_coeffs, majorant, min_positive_root,
                    mobius_gamma_coeffs, refined_functional, rogosinski_functional, s_r,
                    sharpness_probe)
from bohrad.errors import DomainError
from bohrad import functionals

# blend parameters whose crossovers stay within a few hundred norms
BLEND_PARAMS = st.sampled_from(tuple(k / 50 for k in range(1, 50)) + (0.995,))
ANGLES = st.floats(0.0, 2.0 * math.pi)


def assert_rebuilds(s):
    """s is what the public constructor makes of its own fields, bit for bit."""
    public = CoeffSeries(s.norms, s.start_index, s.tail_geometric_ratio)
    assert s == public
    assert repr(s) == repr(public)  # signed zeros and the ratio's type included
    assert all(type(x) is float for x in s.norms)
    assert s.tail_geometric_ratio is None or type(s.tail_geometric_ratio) is float


family = st.builds(mobius_gamma_coeffs, st.floats(1e-300, 1.0, exclude_max=True),
                   st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 80))


@st.composite
def public(draw):
    """A series from the public constructor, signed zeros below its start included."""
    start = draw(st.integers(0, 4))
    norms = draw(st.lists(st.sampled_from((0.0, -0.0, 0.5, 1e-300, 3.0)), min_size=1,
                          max_size=7))
    norms = [x if n >= start else math.copysign(0.0, x) for n, x in enumerate(norms)]
    ratio = draw(st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True),
                           st.floats(0.0, 1.0, exclude_max=True).map(np.float64)))
    return CoeffSeries(tuple(norms), start, ratio)


def _blend(params, angles):
    fn = MatrixCoeffFn(params, tuple(complex(math.cos(t), math.sin(t)) for t in angles))
    return diag_blend_coeffs(fn)


# a blend's parameters: distinct, or one parameter repeated
blend_args = st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.one_of(st.lists(BLEND_PARAMS, min_size=d, max_size=d),
              BLEND_PARAMS.map(lambda a: [a] * d)).map(tuple),
    st.lists(ANGLES, min_size=d, max_size=d)))


class TestTrustedSeriesRebuild:
    @settings(max_examples=300, deadline=None)
    @given(family)
    def test_extremal_family(self, coeffs):
        assert_rebuilds(coeffs)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(family, public()), st.integers(0, 6))
    def test_shifted(self, coeffs, k):
        assert_rebuilds(coeffs.shifted(k))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(family, public()), st.integers(0, 90))
    def test_truncated_from(self, coeffs, N):
        assert_rebuilds(coeffs.truncated_from(N))

    @settings(max_examples=100, deadline=None)
    @given(blend_args)
    def test_diagonal_blend(self, args):
        assert_rebuilds(_blend(*args))

    def test_numpy_ratio_is_stored_as_a_float(self):
        wide = CoeffSeries((0.5, 0.25), 0, np.float64(0.5))
        assert repr(wide) == repr(CoeffSeries((0.5, 0.25), 0, 0.5))
        cut = wide.truncated_from(4)
        assert_rebuilds(cut)
        assert cut.norms[4] == 0.25 * 0.5**3

    @pytest.mark.parametrize("ratio, name", [
        (False, "bool"), (True, "bool"), (np.False_, "bool"), (np.True_, "bool"),
        ("0.5", "str"), ([0.5], "list"), (0.5 + 0j, "complex")])
    def test_ratio_that_is_not_a_real_number_is_refused(self, ratio, name):
        with pytest.raises(DomainError,
                           match=f"^tail_geometric_ratio must be a real number, got {name}$"):
            CoeffSeries((0.5, 0.25), 0, ratio)

    @pytest.mark.parametrize("ratio", [1.0, -0.25, math.nan, np.float64(1.5)])
    def test_ratio_outside_the_unit_interval_is_refused(self, ratio):
        with pytest.raises(DomainError,
                           match=rf"^tail_geometric_ratio must lie in \[0, 1\), got {ratio}$"):
            CoeffSeries((0.5, 0.25), 0, ratio)


class TestValidatorRunsOnlyAtTheBoundary:
    @pytest.fixture
    def post_inits(self, monkeypatch):
        calls = []
        check = CoeffSeries.__post_init__
        monkeypatch.setattr(CoeffSeries, "__post_init__",
                            lambda self: calls.append(self) or check(self))
        return calls

    # the two weights as custom kinds, which have no closed-form tail
    AS_CUSTOM = {"even_only": PhiSequence("custom", custom_term=lambda n, r: (n + 1) % 2 * r**n),
                 "monomial": PhiSequence("custom", custom_term=lambda n, r: r**n)}

    @pytest.mark.parametrize("custom", [False, True], ids=["built-in", "custom"])
    @pytest.mark.parametrize("problem", [
        RadiusProblem(EVEN_ONLY, 1.0, m=2, mu=0.5, domain=DomainSpec.omega_gamma(0.3)),
        RadiusProblem(MONOMIAL, 1.0, m=2, N=2, mu=0.3, equation_kind="rogosinski"),
    ], ids=["refined-shifted", "rogosinski"])
    def test_full_grid_sharpness_probe(self, post_inits, monkeypatch, problem, custom):
        # a custom weight builds the family at each a, a built-in one builds no series
        if custom:
            problem = dataclasses.replace(problem, phi=self.AS_CUSTOM[problem.phi.kind])
        seen = []
        build = functionals.mobius_gamma_coeffs
        monkeypatch.setattr(functionals, "mobius_gamma_coeffs",
                            lambda a, gamma: seen.append(a) or build(a, gamma))
        # r = 0.05 lies below both radii, so the probe walks the whole grid
        assert sharpness_probe(problem, 0.05) is None
        assert seen == (list(DEFAULT_A_GRID) if custom else [])
        assert post_inits == []

    def test_functionals_and_blends(self, post_inits):
        coeffs = mobius_gamma_coeffs(0.9, 0.2, 5)
        rogosinski_functional(coeffs, MONOMIAL, 1.0, 3, 2, 0.5, 0.3)
        refined_functional(coeffs.shifted(1), MONOMIAL, 1.0, 1, 0.5, 0.3)
        majorant(coeffs.truncated_from(70), MONOMIAL, 0.3)
        s_r(coeffs, 0.3)
        diag_blend_coeffs(MatrixCoeffFn((0.3, 0.6, 0.59), (1.0, 1j, -1.0)))
        diag_blend_coeffs(MatrixCoeffFn((0.7,) * 4))
        assert post_inits == []

    def test_public_construction_still_checks(self, post_inits):
        for norms in ((math.nan,), (0.5, -0.25)):
            with pytest.raises(DomainError, match="must be finite and >= 0"):
                CoeffSeries(norms)
        assert len(post_inits) == 2


class TestBoundaryFixes:
    @pytest.mark.parametrize("phase", [complex(math.nan, 0.0), complex(1.0, math.nan),
                                       complex(math.nan, math.nan), math.nan])
    def test_nan_phase_is_not_unimodular(self, phase):
        with pytest.raises(DomainError, match="^phases must be unimodular$"):
            MatrixCoeffFn((0.5, 0.6), (1.0, phase))

    def test_norm_rejects_numpy_bools(self):
        series = CoeffSeries((0.5, 0.25))
        for bad in (np.True_, np.False_, True):
            with pytest.raises(DomainError, match="^n must be an integer, got bool$"):
                series.norm(bad)
        assert series.norm(np.int32(1)) == series.norm(1) == 0.25

    @pytest.mark.parametrize("a, gamma, count", [(0.5, 0.2, 1), (0.9, 0.0, 6), (0.3, 0.7, 80)])
    def test_numpy_parameters_store_floats(self, a, gamma, count):
        plain = mobius_gamma_coeffs(a, gamma, count)
        wide = mobius_gamma_coeffs(np.float64(a), np.float64(gamma), np.int64(count))
        assert repr(wide) == repr(plain)
        assert type(wide.tail_geometric_ratio) is float
        assert all(type(x) is float for x in wide.norms)
        for make in (lambda c: majorant(c, MONOMIAL, 0.4), lambda c: s_r(c, 0.4),
                     lambda c: rogosinski_functional(c, MONOMIAL, 1.0, 2, 1, 0.5, 0.4),
                     lambda c: refined_functional(c, EVEN_ONLY, 1.5, 0, 0.5, 0.4)):
            assert repr(make(wide)) == repr(make(plain))

    def test_numpy_parameters_are_checked_before_conversion(self):
        with pytest.raises(DomainError, match=r"^a must lie in \(0, 1\), got 1.0$"):
            mobius_gamma_coeffs(np.float64(1.0))
        with pytest.raises(DomainError, match="^a must be a real number, got str$"):
            mobius_gamma_coeffs("0.5")


class TestTrustedValueObjects:
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, -math.inf])
    def test_constant_mu_is_checked_once_with_the_constructor_message(self, bad):
        for build in (MuFunction.of, MuFunction.constant, lambda v: MuFunction(value=v)):
            with pytest.raises(DomainError, match=rf"^mu must lie in \[0, inf\), got {bad}$"):
                build(bad)

    def test_constant_mu_equals_the_constructed_one(self):
        for value in (0, 0.0, 2.5, np.float64(0.75)):
            made = MuFunction.of(value)
            assert made == MuFunction(value=float(value))
            assert type(made.value) is float and made.fn is None
            assert made(0.3) == float(value)

    def test_reports_and_roots_stay_frozen_dataclasses(self):
        report = FunctionalReport.compare(0.25, 1.0)
        assert report == FunctionalReport(0.25, 1.0, True, 0.75)
        root = min_positive_root(lambda r: r - 0.5)
        for made in (report, root):
            assert dataclasses.is_dataclass(made)
            assert dataclasses.replace(made) == made
            with pytest.raises(dataclasses.FrozenInstanceError):
                made.value = 0.0
        assert isinstance(root, RootResult)
        assert repr(root) == repr(RootResult(**dataclasses.asdict(root)))
