"""Planetary beta-plane parameters and the two worked observational cases."""

import math

import pytest

from qgwave import (
    JUPITER,
    SATURN,
    DomainError,
    PlanetData,
    band_halfwidth,
    beta_plane_params,
    jupiter_band_case,
    saturn_polar_case,
)


class TestBetaPlaneParams:
    def test_jupiter_at_38_degrees(self):
        _, beta = beta_plane_params(JUPITER, 38.0)
        assert beta == pytest.approx(129.0, abs=1.0)

    def test_saturn_at_68_5_degrees(self):
        _, beta = beta_plane_params(SATURN, 68.5)
        assert beta == pytest.approx(46.0, abs=1.0)

    def test_equator_has_zero_f0(self):
        f0, _ = beta_plane_params(JUPITER, 0.0)
        assert f0 == 0.0

    @pytest.mark.parametrize("theta", [90.0, -90.0, 120.0])
    def test_rejects_polar_latitudes(self, theta):
        with pytest.raises(DomainError):
            beta_plane_params(JUPITER, theta)

    def test_pythagorean_identity(self):
        for planet in (JUPITER, SATURN):
            factor = 2.0 * planet.Omega_prime * planet.R_prime / planet.U_prime
            for theta in range(-81, 90, 18):
                f0, beta = beta_plane_params(planet, float(theta))
                assert f0 * f0 + beta * beta == pytest.approx(factor * factor, rel=1e-12)

    def test_parity_in_latitude(self):
        for theta in (10.0, 38.0, 68.5):
            f0_n, beta_n = beta_plane_params(JUPITER, theta)
            f0_s, beta_s = beta_plane_params(JUPITER, -theta)
            assert f0_s == -f0_n
            assert beta_s == beta_n


class TestBandHalfwidth:
    def test_two_degree_band(self):
        assert band_halfwidth(2.0) == pytest.approx(math.pi / 180.0, rel=1e-15)

    def test_five_degree_band(self):
        assert 2.0 * band_halfwidth(5.0) == pytest.approx(math.pi / 36.0, rel=1e-15)

    def test_full_circle(self):
        assert band_halfwidth(360.0) == pytest.approx(math.pi, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            band_halfwidth(0.0)


class TestDataTypes:
    def test_constants_serialize_back(self):
        assert JUPITER._asdict() == {
            "name": "jupiter",
            "R_prime": 69911e3,
            "Omega_prime": 1.76e-4,
            "U_prime": 150.0,
        }
        assert SATURN._asdict() == {
            "name": "saturn",
            "R_prime": 58232e3,
            "Omega_prime": 1.62e-4,
            "U_prime": 150.0,
        }

    def test_planet_validation(self):
        with pytest.raises(DomainError):
            PlanetData("x", -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def jupiter_report():
    return jupiter_band_case()


@pytest.fixture(scope="module")
def saturn_report():
    return saturn_polar_case()


class TestJupiterBandCase:
    @pytest.fixture
    def report(self, jupiter_report):
        return jupiter_report

    def test_beta_value(self, report):
        assert report["beta"] == pytest.approx(129.0, abs=1.0)

    def test_boundary_speeds(self, report):
        bv = report["boundary_values"]
        assert bv["u0_at_minus_d"] == pytest.approx(-1.0 / 30.0, rel=1e-12)
        assert bv["u0_at_plus_d"] == pytest.approx(3.0 / 10.0, rel=1e-12)

    def test_critical_beta_both_routes(self, report):
        assert report["beta_crit_scaling"] == pytest.approx(1004.0, abs=5.0)
        ratio = report["beta_crit_solver"] / report["beta_crit_scaling"]
        assert abs(ratio - 1.0) < 0.01

    def test_verdict_no_waves(self, report):
        assert report["beta_below_critical"]
        assert not report["waves_expected"]

    def test_halfwidth_scaling_law(self, report):
        # under d -> 2d the slope a = 1/(6d) halves, so a/d quarters
        d = report["half_width"]
        assert (1.0 / (6.0 * (2 * d))) / (2 * d) == pytest.approx(
            0.25 / (6.0 * d * d), rel=1e-12
        )


class TestSaturnPolarCase:
    @pytest.fixture
    def report(self, saturn_report):
        return saturn_report

    def test_beta_value(self, report):
        assert report["beta"] == pytest.approx(46.0, abs=1.0)

    def test_curvature(self, report):
        assert report["curvature_min"] == pytest.approx(175.0, abs=1.0)

    def test_boundary_values(self, report):
        bv = report["boundary_values"]
        assert bv["u0_at_minus_d"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert bv["u0_at_plus_d"] == pytest.approx(0.0, abs=1e-12)
        assert bv["u0_prime_at_plus_d"] == pytest.approx(0.0, abs=1e-12)

    def test_rigidity_hypothesis(self, report):
        assert report["rigidity_hypothesis_satisfied"]
        assert report["rigidity_threshold"] == pytest.approx(
            report["curvature_min"] - report["beta"], rel=1e-12
        )
        assert not report["waves_expected"]
