"""Closed-form traveling-wave and steady solutions for classifier tests.

Every constructor samples exact velocity expressions at the grid nodes, so
diagnostic residuals measure only the discrete stencils, never a sampled
stream function's differentiation error.
"""

import math
from typing import NamedTuple

import numpy as np

from .channel import Grid2D, WaveField
from .errors import DomainError

#: beta at which the extremum/critical example has u_min = c: (pi/2)(pi^2/4 + 1).
MIN_CRITICAL_BETA0 = 0.5 * math.pi * (0.25 * math.pi**2 + 1.0)


def _require_geometry(grid: Grid2D, L: float, d_minus: float, d_plus: float, what: str):
    g = grid.geometry
    ok = (
        math.isclose(g.L, L, rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(g.d_minus, d_minus, rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(g.d_plus, d_plus, rel_tol=1e-12, abs_tol=1e-12)
    )
    if not ok:
        raise DomainError(
            f"{what} needs geometry L={L}, band [{d_minus}, {d_plus}]; "
            f"got L={g.L}, band [{g.d_minus}, {g.d_plus}]"
        )


def _require_finite(**params):
    """Reject the first non-finite parameter by name, before any array exists."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {name}={value}")


class _Example31(NamedTuple):
    n: int = 1
    k: int = 1
    A: float = 1.0
    A_tilde: float = 0.0
    B: float = 0.0
    c: float = 0.0
    beta: float = 1.0


class Example31Params(_Example31):
    """Parameters of the inflection-value wave family on T_{2pi} x [-1, 1].

    The stream function mixes a cos((2k+1) pi y / 2) sin(n x) cell with
    meridional harmonics of frequency sqrt(-lambda); lambda is pinned to
    -n^2 - (2k+1)^2 pi^2 / 4 < 0 so the whole field satisfies
    lap(psi) + beta y = lambda (psi + c y) up to a constant, which only
    shifts psi and so leaves the velocity field unchanged.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1 or self.k < 1:
            raise DomainError(f"n and k must be positive integers, got n={self.n}, k={self.k}")
        _require_finite(A=self.A, A_tilde=self.A_tilde, B=self.B, c=self.c, beta=self.beta)
        return self

    @property
    def lam(self) -> float:
        return -float(self.n**2) - (2 * self.k + 1) ** 2 * math.pi**2 / 4.0


def make_inflection_wave(p: Example31Params, grid: Grid2D) -> WaveField:
    """Wave whose speed is a generalized inflection value of u.

    The field satisfies (beta - lap u) = -lambda (u - c) pointwise, so the
    inflection set {beta - lap u = 0} coincides with the level set {u = c}.
    """
    _require_geometry(grid, 2.0 * math.pi, -1.0, 1.0, "inflection-wave example")
    X, Y = grid.x, grid.y[:, None]  # the axes; each product broadcasts to (ny, nx)
    lam = p.lam
    mu = (2 * p.k + 1) * math.pi / 2.0
    s = math.sqrt(-lam)

    u = (
        (p.A / p.n) * mu * np.sin(mu * Y) * np.sin(p.n * X)
        + p.A_tilde * s * np.sin(s * Y)
        - p.B * s * np.cos(s * Y)
        + p.c
        - p.beta / lam
    )
    v = p.A * np.cos(mu * Y) * np.cos(p.n * X)
    return WaveField(grid, u, v, p.c, p.beta)


def make_min_critical_wave(beta: float, c: float, grid: Grid2D) -> WaveField:
    """Wave illustrating the extremum / critical-value / outside categories.

    Ran(u) = [c + beta/(pi^2/4 + 1) - pi/2, c + beta/(pi^2/4 + 1) + pi/2].
    At beta = MIN_CRITICAL_BETA0 the speed c equals u_min and (pi, 1) is a
    stagnation point of u at level c; for beta > MIN_CRITICAL_BETA0 the speed
    falls strictly between c_beta_plus and u_min.
    """
    _require_finite(beta=beta, c=c)
    if beta < 0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    _require_geometry(grid, 2.0 * math.pi, -1.0, 1.0, "extremum/critical example")
    X, Y = grid.x, grid.y[:, None]
    shift = beta / (0.25 * math.pi**2 + 1.0)
    u = c + shift + (math.pi / 2.0) * np.cos(X) * np.sin(math.pi * Y / 2.0)
    v = -np.sin(X) * np.cos(math.pi * Y / 2.0)
    return WaveField(grid, u, v, c, beta)


#: geometry of the perturbed-Kolmogorov steady flow: zonal period 4 pi / sqrt(3).
KOLMOGOROV_PERIOD = 4.0 * math.pi / math.sqrt(3.0)


def make_kolmogorov_perturbed(eps: float, grid: Grid2D) -> WaveField:
    """Steady (c = 0, beta = 0) cellular perturbation of the sin(y) shear.

    Satisfies -lap u = u, so every point of the centerline y = 0 is a
    generalized inflection point at level u = 0 = c.
    """
    _require_finite(eps=eps)
    _require_geometry(grid, KOLMOGOROV_PERIOD, -math.pi, math.pi, "perturbed Kolmogorov example")
    X, Y = grid.x, grid.y[:, None]
    kx = math.sqrt(3.0) / 2.0
    u = np.sin(Y) + 0.5 * eps * np.sin(Y / 2.0) * np.sin(kx * X)
    v = kx * eps * np.cos(Y / 2.0) * np.cos(kx * X)
    return WaveField(grid, u, v, 0.0, 0.0)


class _Grs(NamedTuple):
    a: float = 2.0
    b: float = 1.0
    k: float = 3.0


class GrsParams(_Grs):
    """Vortex strength profile mu(s) = a - sqrt(a^2 - b^2 s^k).

    a > b > 0 keeps mu real near the core and k > 2 makes mu'(0) = mu''(0)
    = 0, so both u and lap u vanish at the vortex center.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_finite(**self._asdict())
        if not (self.a > self.b > 0.0):
            raise DomainError(f"need a > b > 0, got a={self.a}, b={self.b}")
        if not self.k > 2.0:
            raise DomainError(f"need k > 2, got k={self.k}")
        return self

    def mu(self, s):
        s = np.asarray(s, dtype=float)
        arg = self.a**2 - self.b**2 * np.power(s, self.k)
        if np.any(arg < 0):
            raise DomainError("mu(s) is complex: a^2 - b^2 s^k < 0 inside the requested radius")
        return self.a - np.sqrt(arg)


def make_grs_vortex(p: GrsParams, grid: Grid2D, clip_radius: float) -> WaveField:
    """Stationary vortex (u, v) = (-y, x) * mu(r) clipped at clip_radius.

    The model is local to the vortex, so the rotational field is tapered to
    zero with a smooth cosine ramp over the last 10% of the clip radius;
    x distances are taken periodically so the vortex sits centered on the
    x = 0 node.  Requires a y-band centered at the origin and a clip radius
    inside the domain of mu.
    """
    g = grid.geometry
    if not math.isclose(g.d_minus, -g.d_plus, rel_tol=1e-12, abs_tol=1e-12):
        raise DomainError("vortex example needs a band centered at y = 0")
    _require_finite(clip_radius=clip_radius)
    if not (clip_radius > 0):
        raise DomainError(f"clip radius must be positive, got {clip_radius}")
    p.mu(clip_radius)  # raises DomainError unless mu is real out to the clip radius

    X, Y = grid.x, grid.y[:, None]
    Xd = X - g.L * np.round(X / g.L)  # periodic displacement from the x = 0 node
    r = np.hypot(Xd, Y)

    inside = r < clip_radius
    mu = np.where(inside, p.mu(np.where(inside, r, 0.0)), 0.0)

    taper_start = 0.9 * clip_radius
    ramp = np.clip((r - taper_start) / (0.1 * clip_radius), 0.0, 1.0)
    weight = 0.5 * (1.0 + np.cos(math.pi * ramp))
    mu_w = mu * weight

    return WaveField(grid, -Y * mu_w, Xd * mu_w, 0.0, 0.0)
