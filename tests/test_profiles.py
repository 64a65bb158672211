"""Shear-profile evaluation, parsing, and band extrema certification."""

import math

import numpy as np
import pytest

from qgwave import (
    Bickley,
    ConcaveParabola,
    CouettePoiseuille,
    DomainError,
    Kolmogorov,
    LinearProfile,
    Polynomial,
    ProfileSpecError,
    band_extrema,
    couette,
    parse_profile,
)
from qgwave.profiles import BICKLEY_INFLECTION

from _oracles import _Scaled, scaled


class TestEval:
    def test_couette_point(self):
        u0, u0p, u0pp = couette().eval(0.5)
        assert (u0, u0p, u0pp) == (0.5, 1.0, 0.0)

    def test_bickley_at_origin(self):
        u0, u0p, u0pp = Bickley().eval(0.0)
        assert (u0, u0p, u0pp) == (-1.0, 0.0, 2.0)

    def test_parabola_point(self):
        u0, u0p, u0pp = ConcaveParabola(b=7, e=0).eval(1.0)
        assert (u0, u0p, u0pp) == (6.0, 5.0, -2.0)

    def test_cp_curvature_constant(self):
        prof = CouettePoiseuille(0.25)
        ys = np.linspace(-1, 1, 7)
        _, _, u0pp = prof.eval(ys)
        assert np.all(u0pp == 2.0 - 2.0 * 0.25)

    def test_polynomial_matches_numpy(self):
        coeffs = (0.5, -1.0, 2.0, 0.25)
        prof = Polynomial(coeffs)
        ys = np.linspace(-2, 2, 9)
        u0, u0p, u0pp = prof.eval(ys)
        assert np.allclose(u0, np.polynomial.polynomial.polyval(ys, coeffs))
        dcoef = np.polynomial.polynomial.polyder(coeffs)
        assert np.allclose(u0p, np.polynomial.polynomial.polyval(ys, dcoef))
        assert np.allclose(u0pp, np.polynomial.polynomial.polyval(ys, np.polynomial.polynomial.polyder(dcoef)))

    def test_bickley_curvature_zero_crossing(self):
        _, _, at_zero = Bickley().eval(BICKLEY_INFLECTION)
        assert abs(at_zero) < 1e-14

    def test_scaled_profile(self):
        prof = scaled(Bickley(), 0.5)
        u0, u0p, u0pp = prof.eval(0.3)
        ref = Bickley().eval(0.3)
        assert u0 == 0.5 * ref[0] and u0p == 0.5 * ref[1] and u0pp == 0.5 * ref[2]

    def test_scaled_linear_stays_linear(self):
        prof = scaled(LinearProfile(2.0, 3.0), 0.25)
        assert isinstance(prof, LinearProfile)
        assert (prof.a, prof.b) == (0.5, 0.75)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            scaled(couette(), 0.0)


class TestParse:
    @pytest.mark.parametrize(
        "spec,kind",
        [
            ("couette", LinearProfile),
            ("linear:2,3", LinearProfile),
            ("parabola:7,0", ConcaveParabola),
            ("cp:0.5", CouettePoiseuille),
            ("bickley", Bickley),
            ("kolmogorov", Kolmogorov),
            ("poly:1,0,-0.5", Polynomial),
        ],
    )
    def test_grammar(self, spec, kind):
        assert isinstance(parse_profile(spec), kind)

    def test_couette_is_unit_linear(self):
        prof = parse_profile("couette")
        assert (prof.a, prof.b) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "spec",
        ["nope", "linear:1", "parabola:1,2,3", "cp:", "poly:", "linear:a,b", "couette:1",
         "poly:nan", "linear:inf,0", "parabola:1,-inf", "cp:NaN"],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ProfileSpecError):
            parse_profile(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("couette:1", "couette takes no parameters"),
            ("bickley:1", "bickley takes no parameters"),
            ("kolmogorov:1", "kolmogorov takes no parameters"),
            ("nope", "unknown profile kind 'nope'"),
            ("linear:1", "profile 'linear:1': expected 2 parameters, got 1"),
        ],
    )
    def test_spec_error_messages(self, spec, message):
        with pytest.raises(ProfileSpecError) as err:
            parse_profile(spec)
        assert str(err.value) == message

    def test_round_trip_spec(self):
        for spec in (
            "couette", "linear:2,3", "parabola:7,0", "cp:0.5", "bickley", "kolmogorov",
            "linear:0.123456789,1", "cp:0.1234567", "poly:1e-07,3.141592653589793",
            "parabola:1.0000001,-2.5e-08",
        ):
            prof = parse_profile(spec)
            again = parse_profile(prof.spec())
            assert prof.eval(0.37)[0] == again.eval(0.37)[0], spec

    @pytest.mark.parametrize(
        "spec",
        ["linear:1,0", "parabola:7,0", "cp:0.5", "poly:1,0,-0.5",
         "linear:0.123456789,1", "cp:0.1234567", "poly:1e-07,3.141592653589793"],
    )
    def test_spec_echoes_its_numbers(self, spec):
        # short numbers keep their :g form; longer ones are written in full
        assert parse_profile(spec).spec() == spec

    def test_spec_of_computed_parameters_reads_back_exactly(self):
        prof = LinearProfile(3.0 / (np.pi * 0.1), 2.0 / 15.0)
        assert prof.spec() == f"linear:{prof.a!r},{prof.b!r}"
        again = parse_profile(prof.spec())
        assert (again.a, again.b) == (prof.a, prof.b)


class TestBandExtrema:
    def test_couette_band(self):
        band = band_extrema(couette(), 1.0)
        assert band.u0_min == -1.0 and band.u0_max == 1.0
        assert band.monotone and band.orientation == "increasing"
        assert band.u0pp_min == 0.0 == band.u0pp_max

    def test_linear_reflection_same_extrema(self):
        up = band_extrema(LinearProfile(2.0, 3.0), 1.5)
        down = band_extrema(LinearProfile(-2.0, 3.0), 1.5)
        assert up.u0_min == down.u0_min and up.u0_max == down.u0_max
        assert down.orientation == "decreasing" and down.monotone

    def test_parabola_monotone_iff_vertex_outside(self):
        assert band_extrema(ConcaveParabola(7.0), 2.0).monotone  # d < b/2
        assert not band_extrema(ConcaveParabola(7.0), 4.0).monotone
        assert not band_extrema(ConcaveParabola(2.0), 1.0).monotone  # vertex at edge

    def test_parabola_interior_max(self):
        band = band_extrema(ConcaveParabola(0.0, 1.0), 1.0)  # 1 - y^2
        assert band.u0_max == 1.0
        assert band.u0_min == 0.0

    def test_cp_constant_curvature(self):
        band = band_extrema(CouettePoiseuille(0.25), 1.0)
        assert band.u0pp_min == band.u0pp_max == 1.5

    def test_cp_poiseuille_not_monotone(self):
        assert not band_extrema(CouettePoiseuille(0.0), 1.0).monotone

    def test_bickley_curvature_min_at_walls(self):
        d = 0.5
        band = band_extrema(Bickley(), d)
        s, t = 1.0 / math.cosh(d), math.tanh(d)
        closed_form = 2.0 * s**4 - 4.0 * s**2 * t**2
        assert abs(band.u0pp_min - closed_form) < 1e-10
        assert band.u0pp_max == pytest.approx(2.0, abs=1e-10)  # at y = 0

    def test_bickley_curvature_sign_flips_with_width(self):
        assert band_extrema(Bickley(), 0.6).u0pp_min > 0.0
        assert band_extrema(Bickley(), 0.7).u0pp_min < 0.0

    def test_kolmogorov_wide_band(self):
        band = band_extrema(Kolmogorov(), math.pi)
        assert not band.monotone and band.orientation == "none"
        assert band.u0_min == pytest.approx(-1.0, abs=1e-12)
        assert band.u0_max == pytest.approx(1.0, abs=1e-12)

    def test_kolmogorov_narrow_band_monotone(self):
        band = band_extrema(Kolmogorov(), 1.0)  # inside (-pi/2, pi/2)
        assert band.monotone and band.orientation == "increasing"

    def test_rejects_nonpositive_halfwidth(self):
        with pytest.raises(DomainError):
            band_extrema(couette(), 0.0)

    def test_scan_refinement_beats_samples(self):
        # interior minimum of a quartic falls between scan nodes; golden
        # refinement must still certify it to high accuracy
        prof = Polynomial((0.0, 0.0, -1.0, 0.0, 0.5))  # -y^2 + y^4/2, min at y=+-1
        band = band_extrema(prof, 1.3)
        assert band.u0_min == pytest.approx(-0.5, abs=1e-10)

    @pytest.mark.parametrize(
        "prof,d",
        [
            (LinearProfile(2.0, 0.5), 1.3),
            (LinearProfile(-1.5, 0.2), 1.3),
            (ConcaveParabola(7.0, 1.0), 1.3),  # vertex 3.5 outside
            (ConcaveParabola(-7.0, 0.0), 1.3),  # vertex -3.5 outside
            (ConcaveParabola(1.0, 0.0), 1.3),  # vertex 0.5 inside
            (CouettePoiseuille(1.5), 0.7),  # vertex 1.5 outside
            (CouettePoiseuille(0.25), 1.0),  # vertex -1/6 inside
            (Polynomial((0.1, 1.0, 0.2)), 1.3),  # vertex -2.5 outside
            (Polynomial((0.0, -0.5, 0.4)), 1.3),  # vertex 0.625 inside
        ],
        ids=lambda v: v.spec() if hasattr(v, "spec") else str(v),
    )
    def test_degree_two_exact_matches_scan(self, prof, d):
        exact = band_extrema(prof, d)
        scan = band_extrema(_Scaled(prof, 1.0), d)  # not a Polynomial: dense scan
        assert exact.u0_min == pytest.approx(scan.u0_min, abs=1e-10)
        assert exact.u0_max == pytest.approx(scan.u0_max, abs=1e-10)
        curvature = 2.0 * (prof.coeffs + (0.0,))[2]
        assert exact.u0pp_min == exact.u0pp_max == curvature
        assert (exact.monotone, exact.orientation) == (scan.monotone, scan.orientation)
