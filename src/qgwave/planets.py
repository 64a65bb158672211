"""Planetary beta-plane parameters and the two observational worked cases.

The nondimensional Coriolis expansion about a reference latitude theta0 is
f0 + beta y with f0 = (2 Omega' R' / U') sin(theta0) and
beta = (2 Omega' R' / U') cos(theta0), where Omega' is the rotation rate,
R' the planetary radius, and U' the horizontal velocity scale.  Southern
latitudes enter as negative degrees; beta uses the cosine of the signed
angle and so is even in latitude.
"""

import math
from typing import NamedTuple

from .errors import DomainError
from .eigen import critical_beta
from .profiles import LinearProfile, Polynomial, band_extrema, couette, profile_rigidity_bound


class _Planet(NamedTuple):
    name: str
    R_prime: float
    Omega_prime: float
    U_prime: float


class PlanetData(_Planet):
    """Radius (m), rotation rate (rad/s), and velocity scale (m/s)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.R_prime, self.Omega_prime, self.U_prime) <= 0:
            raise DomainError("planet parameters must all be positive")
        return self


JUPITER = PlanetData("jupiter", 69911e3, 1.76e-4, 150.0)
SATURN = PlanetData("saturn", 58232e3, 1.62e-4, 150.0)

PLANETS = {"jupiter": JUPITER, "saturn": SATURN}


def beta_plane_params(planet: PlanetData, theta0_deg: float):
    """Nondimensional (f0, beta) at the reference latitude theta0 (degrees)."""
    if not abs(theta0_deg) < 90.0:
        raise DomainError(f"reference latitude must satisfy |theta0| < 90, got {theta0_deg}")
    factor = 2.0 * planet.Omega_prime * planet.R_prime / planet.U_prime
    theta = math.radians(theta0_deg)
    return factor * math.sin(theta), factor * math.cos(theta)


def band_halfwidth(band_degrees: float) -> float:
    """Nondimensional meridional half-width of a latitude band of the given width."""
    if not band_degrees > 0:
        raise DomainError(f"band width must be positive, got {band_degrees}")
    return math.radians(0.5 * band_degrees)


def jupiter_band_case() -> dict:
    """Jovian 38 degrees South band, two degrees wide, linearly sheared.

    The observed jet speeds pin the boundary values u0(-d) = -1/30 and
    u0(d) = 3/10, giving the profile a*y + b with a = 1/(6d), b = 2/15.
    The transitional beta comes out two ways: through the exact linear
    scaling law (a/d) * beta_crit(couette, 1) and through the direct solver
    on the band itself.  beta is far below either value, so no genuine
    traveling waves are expected in this band at any zonal period.
    """
    d = band_halfwidth(2.0)
    a = 1.0 / (6.0 * d)
    b = 2.0 / 15.0
    profile = LinearProfile(a, b)

    _, beta = beta_plane_params(JUPITER, 38.0)

    couette_crit = critical_beta(band_extrema(couette(), 1.0), tol=1e-5)
    beta_crit_scaling = (a / d) * couette_crit
    beta_crit_solver = critical_beta(band_extrema(profile, d), tol=1e-2)

    beta_expected = 129.0
    beta_crit_expected = 1004.0
    return {
        "case": "jupiter-band",
        "planet": JUPITER._asdict(),
        "theta0_deg": 38.0,
        "band_degrees": 2.0,
        "half_width": d,
        "profile": profile.spec(),
        "boundary_values": {"u0_at_minus_d": a * -d + b, "u0_at_plus_d": a * d + b},
        "beta": beta,
        "beta_expected": beta_expected,
        "beta_delta": beta - beta_expected,
        "couette_seed": couette_crit,
        "beta_crit_scaling": beta_crit_scaling,
        "beta_crit_solver": beta_crit_solver,
        "beta_crit_expected": beta_crit_expected,
        "beta_crit_delta": beta_crit_scaling - beta_crit_expected,
        "beta_below_critical": beta < beta_crit_solver,
        "waves_expected": beta >= beta_crit_solver,
    }


def saturn_polar_case() -> dict:
    """Saturnian circumpolar jet between 65 and 70 degrees South.

    Modeled by the convex parabola u0(y) = y^2/(6 d^2) - y/(3 d) + 1/6 on a
    five-degree band (2d = pi/36), with boundary values u0(-d) = 2/3,
    u0(d) = 0, and a flat edge u0'(d) = 0.  Its curvature 1/(3 d^2) vastly
    exceeds beta, so the shear-rigidity bound applies and no nearby genuine
    traveling waves are expected.
    """
    d = band_halfwidth(5.0)
    profile = Polynomial((1.0 / 6.0, -1.0 / (3.0 * d), 1.0 / (6.0 * d * d)))

    _, beta = beta_plane_params(SATURN, 68.5)
    threshold, satisfied = profile_rigidity_bound(profile, d, beta)
    curvature = 1.0 / (3.0 * d * d)

    u0_m, u0p_m, _ = (float(x) for x in profile.eval(-d))
    u0_p, u0p_p, _ = (float(x) for x in profile.eval(d))

    beta_expected = 46.0
    curvature_expected = 175.0
    return {
        "case": "saturn-polar",
        "planet": SATURN._asdict(),
        "theta0_deg": 68.5,
        "band_degrees": 5.0,
        "half_width": d,
        "profile": profile.spec(),
        "boundary_values": {
            "u0_at_minus_d": u0_m,
            "u0_at_plus_d": u0_p,
            "u0_prime_at_plus_d": u0p_p,
        },
        "beta": beta,
        "beta_expected": beta_expected,
        "beta_delta": beta - beta_expected,
        "curvature_min": curvature,
        "curvature_expected": curvature_expected,
        "curvature_delta": curvature - curvature_expected,
        "rigidity_threshold": threshold,
        "rigidity_hypothesis_satisfied": satisfied,
        "waves_expected": not satisfied,
    }
