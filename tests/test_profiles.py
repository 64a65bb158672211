"""Shear-profile evaluation, parsing, and band extrema certification."""

import math
import random
from fractions import Fraction

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
    ShearProfile,
    band_extrema,
    couette,
    parse_profile,
)
from qgwave.profiles import BICKLEY_INFLECTION

from _oracles import CLOSE_ZERO_PAIR, degree_two_band, scaled


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

    def test_quartic_interior_minimum(self):
        prof = Polynomial((0.0, 0.0, -1.0, 0.0, 0.5))  # -y^2 + y^4/2, min at y=+-1
        band = band_extrema(prof, 1.3)
        assert band.u0_min == pytest.approx(-0.5, abs=1e-10)

    def test_close_zero_pair_is_not_monotone(self):
        prof = parse_profile(CLOSE_ZERO_PAIR)
        flat, _ = prof.stationary_points(1.0)
        assert [round(y, 7) for y in flat] == [1.134e-4, 3.665e-4]
        assert band_extrema(prof, 1.0).orientation == "none"

    @pytest.mark.parametrize("n", [8, 12])
    def test_chebyshev_closed_forms(self, n):
        # T_n is +-1 where its derivative vanishes, at cos(k pi / n), and its
        # second derivative peaks at the walls at n^2 (n^2 - 1) / 3
        prof = Polynomial(np.polynomial.chebyshev.cheb2poly([0] * n + [1]))
        band = band_extrema(prof, 1.0)
        assert band.orientation == "none"
        assert abs(band.u0_min + 1.0) <= 1e-13 and abs(band.u0_max - 1.0) <= 1e-13
        assert band.u0pp_max == n * n * (n * n - 1) / 3
        flat, _ = prof.stationary_points(1.0)
        want = sorted(math.cos(k * math.pi / n) for k in range(1, n))
        assert np.max(np.abs(np.subtract(flat, want))) <= 1e-15

    def test_chebyshev_25_zeros_are_bracketed_by_their_float_neighbours(self):
        # cos(k pi / 25) is itself up to 11 ulp off near pi/2, so the check is exact
        # instead: p changes sign between the floats on either side of each zero
        coeffs = np.polynomial.chebyshev.cheb2poly([0] * 25 + [1])  # integers below 2**53
        exact = [Fraction(c) for c in coeffs]
        flat, inflect = Polynomial(coeffs).stationary_points(1.0)
        for m, zeros, count in [(1, flat, 24), (3, inflect, 22)]:
            p = np.polynomial.polynomial.polyder(np.array(exact, dtype=object), m)
            assert len(zeros) == count and zeros == sorted(zeros)
            for y in zeros:
                below, above = (np.polynomial.polynomial.polyval(Fraction(math.nextafter(y, t)), p)
                                for t in (-1.0, 1.0))
                assert below * above < 0, (m, y)

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_zeros_decide_orientation(self, seed):
        # u0' is a product of planted factors, so each verdict follows from its construction
        rng = random.Random(seed)
        k = rng.choice((-1, 1)) * Fraction(rng.randint(4, 15), 8)
        d = Fraction(rng.randint(8, 31), 16)
        bump = [1, 0, Fraction(3, 2 ** rng.randint(0, 3))]  # 1 + s y^2 > 0
        sign, flip = ("increasing", "decreasing") if k > 0 else ("decreasing", "increasing")
        # two zeros less than h = 2d/4096 apart, times a positive factor that is
        # smallest at q, 2048 h away from them: only the pair of zeros makes it "none"
        h, i = 2 * d / 4096, rng.randint(200, 1800)
        r1 = -d + (i + Fraction(rng.uniform(0.2, 0.4))) * h
        r2 = -d + (i + Fraction(rng.uniform(0.6, 0.8))) * h
        q, delta = -d + (i + 2048) * h, Fraction(rng.uniform(1e-5, 4e-5)) * d
        r, eps = Fraction(rng.uniform(-1.0, 1.0)) * d, Fraction(rng.uniform(0.01, 0.1))
        beyond = d * (1 + Fraction(1, 2**40))
        cases = [  # (u0', verdict, whether u0's coefficients are exact floats)
            (_times([k], [-r1, 1], [-r2, 1], [q * q + delta**2, -2 * q, 1]), "none", False),
            (_times([k], [r * r + eps * eps, -2 * r, 1]), sign, False),  # k((y - r)^2 + eps^2)
            (_times([k], [-d, 1], bump), "none", True),  # a zero at a wall
            (_times([k], [d, 1], bump), "none", True),
            (_times([k], [-beyond, 1], bump), flip, True),  # a zero 2^-40 d beyond a wall
            (_times([k], [beyond, 1], bump), sign, True),
        ]
        for slope, verdict, exact in cases:
            u0 = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(slope)]
            prof = Polynomial(float(c) for c in u0)
            assert not exact or [Fraction(c) for c in prof.coeffs] == u0
            assert band_extrema(prof, float(d)).orientation == verdict, prof.spec()

    @pytest.mark.parametrize("d, at_walls", [(0.5, True), (1.1, True), (1.2, False), (2.0, False)])
    def test_bickley_closed_forms(self, d, at_walls):
        # u0'' = 2(1 - 4T^2 + 3T^4), T = tanh y: max 2 at y = 0, min -2/3 at
        # T^2 = 2/3 (|y| = 1.146) or at the walls when the band is narrower
        band = band_extrema(Bickley(), d)
        s, t = 1.0 / math.cosh(d), math.tanh(d)
        assert band.orientation == "none"  # u0' = 2 sech^2 tanh vanishes at 0
        assert band.u0_min == -1.0 and band.u0_max == pytest.approx(-s * s, rel=1e-15)
        assert band.u0pp_max == 2.0
        wall = 2.0 * s**4 - 4.0 * s**2 * t**2
        assert band.u0pp_min == pytest.approx(wall if at_walls else -2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize(
        "d", [1.0, math.pi / 2 - 1e-9, math.pi / 2, math.pi / 2 + 1e-9, math.pi, 4.0]
    )
    def test_kolmogorov_monotone_iff_narrower_than_half_pi(self, d):
        band = band_extrema(Kolmogorov(), d)
        narrow = d <= math.pi / 2  # the float pi/2 is below pi/2, where cos is still positive
        assert band.orientation == ("increasing" if narrow else "none")
        top = math.sin(d) if narrow else 1.0
        assert (band.u0_min, band.u0_max) == (-top, top)
        assert (band.u0pp_min, band.u0pp_max) == (-top, top)

    def test_profile_without_exact_rule_is_a_programming_error(self):
        class Bare(ShearProfile):
            def eval(self, y):
                return Kolmogorov().eval(y)

        with pytest.raises(NotImplementedError, match="Bare"):
            band_extrema(Bare(), 1.0)

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
    def test_degree_two_matches_closed_form(self, prof, d):
        # the reference is the closed form: walls plus the vertex -c1/(2 c2)
        band = band_extrema(prof, d)
        u0_min, u0_max, curvature, orientation = degree_two_band(prof, d)
        assert (band.u0_min, band.u0_max, band.orientation) == (u0_min, u0_max, orientation)
        assert band.u0pp_min == band.u0pp_max == curvature == 2.0 * (prof.coeffs + (0.0,))[2]


def _times(*factors):
    """Product of polynomials given as coefficient lists, y^0 first."""
    out = [Fraction(1)]
    for f in factors:
        out = [sum(out[i] * f[j - i] for i in range(len(out)) if 0 <= j - i < len(f))
               for j in range(len(out) + len(f) - 1)]
    return out
