"""Independent reference implementations that the tests check qgwave against.

* `rigidity_predicates` evaluates the rigidity theorems with its own stencil
  pass over u; `classify` must report the same verdict from its single pass.
* `witnesses` ranks classify's witness nodes from full-size score arrays.
* `level_mask` finds the zero level set's nodes with np.roll; classify's
  `_level_mask` must give the same mask from column slices.
* `scaled` and `scaling_check` state the eigenvalue scaling identity
  lambda1(beta, c; a*u0) = lambda1(beta/a, c/a; u0).
* `degree_two_band` gives the band facts of a polynomial of degree <= 2 in
  closed form; `band_extrema` must give the same bits.
* `*_on_mesh` evaluate the closed-form examples on full meshgrid arrays;
  the builders in `qgwave.flows` must give the same bits from the grid's
  1-D axes.
* `critical_beta_reference` collocates the transitional-beta problem on
  Chebyshev nodes with numpy alone; `critical_beta` must agree within its
  tolerance on every monotone band where the reference converges.
"""

import math

import numpy as np

from qgwave import DomainError, LinearProfile, Polynomial, band_extrema, principal_eigenvalue
from qgwave.channel import gradient, laplacian
from qgwave.classify import (
    _MAX_WITNESSES,
    DEFAULT_EPS_SCALE,
    HypothesisCheck,
    RigidityVerdict,
    TheoremCheck,
    c_beta_plus,
)
from qgwave.eigen import DEFAULT_EIGEN_TOL
from qgwave.profiles import ShearProfile


def _directional_margin(grad, grid, eps_scale):
    fx, fy = grad
    return (
        eps_scale
        * 0.5
        * (grid.hx * float(np.max(np.abs(fx))) + grid.hy * float(np.max(np.abs(fy))))
    )


def rigidity_predicates(field, eps_scale=DEFAULT_EPS_SCALE):
    """The rigidity sufficient conditions, from a stencil pass of their own.

    Ran(lap u) is taken over interior rows only, where the centered stencils
    apply.
    """
    grid = field.grid
    u, c, beta = field.u, field.c, field.beta

    grad_u = gradient(u, grid)
    grad_mag = np.hypot(*grad_u)
    lap_u = laplacian(u, grid)
    eps_c = _directional_margin(grad_u, grid, eps_scale)
    eps_g = _directional_margin(gradient(grad_mag, grid), grid, eps_scale)
    eps_q = _directional_margin(gradient(lap_u, grid), grid, eps_scale)

    lap_int = lap_u[1:-1]
    lap_min = float(np.min(lap_int))
    lap_max = float(np.max(lap_int))
    grad_min = float(np.min(grad_mag))
    u_min = float(np.min(u))
    u_max = float(np.max(u))
    cbp = c_beta_plus(beta, grid.geometry.d_minus, grid.geometry.d_plus, u_min, u_max)

    beta_outside_ran = HypothesisCheck(
        "beta outside Ran(lap u) with margin",
        beta < lap_min - eps_q or beta > lap_max + eps_q,
        {"beta": beta, "lap_u_min": lap_min, "lap_u_max": lap_max, "margin": eps_q},
    )
    beta_positive = HypothesisCheck("beta > 0", beta > 0.0, {"beta": beta})
    beta_zero = HypothesisCheck("beta = 0", beta == 0.0, {"beta": beta})
    speed_gap = HypothesisCheck(
        "c outside [c_beta_plus, u_min] with margin",
        c < cbp - eps_c or c > u_min + eps_c,
        {"c": c, "c_beta_plus": cbp, "u_min": u_min, "margin": eps_c},
    )
    grad_nonzero = HypothesisCheck(
        "grad u nonzero everywhere with margin",
        grad_min > eps_g,
        {"grad_u_min": grad_min, "margin": eps_g},
    )
    lap_positive = HypothesisCheck(
        "min lap u > 0 with margin",
        lap_min > eps_q,
        {"lap_u_min": lap_min, "margin": eps_q},
    )
    beta_window = HypothesisCheck(
        "0 < beta < min lap u",
        0.0 < beta < lap_min - eps_q,
        {"beta": beta, "lap_u_min": lap_min, "margin": eps_q},
    )
    lap_nonzero = HypothesisCheck(
        "lap u nonzero everywhere with margin",
        lap_min > eps_q or lap_max < -eps_q,
        {"lap_u_min": lap_min, "lap_u_max": lap_max, "margin": eps_q},
    )

    def check(name, hyps):
        ok = all(h.satisfied for h in hyps)
        return TheoremCheck(name, tuple(hyps), "shear flow" if ok else "not applicable")

    theorems = (
        check(
            "rayleigh_stable_speed_gap",
            [beta_positive, beta_outside_ran, speed_gap, grad_nonzero],
        ),
        check("rayleigh_stable_f_plane", [beta_zero, beta_outside_ran]),
        check("positive_vorticity_gradient_window", [lap_positive, beta_window]),
        check("sign_definite_laplacian_f_plane", [beta_zero, lap_nonzero]),
    )
    return RigidityVerdict(applicable_theorems=theorems)


def level_mask(f, eps):
    """Nodes with |f| <= eps or a sign change of f across a grid edge, via np.roll."""
    mask = np.abs(f) <= eps
    change_x = f * np.roll(f, -1, axis=1) < 0.0
    mask |= change_x | np.roll(change_x, 1, axis=1)
    change_y = f[:-1] * f[1:] < 0.0
    mask[:-1] |= change_y
    mask[1:] |= change_y
    return mask


def witnesses(field, report):
    """(inflection, critical) as (witnesses, count): score every node, then mask."""
    grid, tiny = field.grid, np.finfo(float).tiny
    grad_mag = np.hypot(*gradient(field.u, grid))
    quantity = field.beta - laplacian(field.u, grid)
    speed_gap = field.u - field.c
    level_u = level_mask(speed_gap, report.eps_c)
    cases = (
        (level_u & level_mask(quantity, report.eps_q), np.abs(quantity), report.eps_q),
        (level_u & (grad_mag <= report.eps_g), grad_mag, report.eps_g),
    )
    out = []
    for mask, other, eps in cases:
        score = np.abs(speed_gap) / (report.eps_c + tiny) + other / (eps + tiny)
        idx = np.argwhere(mask)
        order = np.argsort(score[mask], kind="stable")[:_MAX_WITNESSES]
        nodes = tuple(
            {"iy": int(j), "ix": int(i), "x": float(grid.x[i]), "y": float(grid.y[j])}
            for j, i in idx[order]
        )
        out.append((nodes, len(idx)))
    return tuple(out)


class _Scaled(ShearProfile):
    """a * u0 for profiles without a closed-form scaled representative."""

    def __init__(self, inner, a):
        self.inner = inner
        self.a = float(a)

    def eval(self, y):
        u0, u0p, u0pp = self.inner.eval(y)
        return self.a * u0, self.a * u0p, self.a * u0pp

    def stationary_points(self, d):
        return self.inner.stationary_points(d)

    def spec(self):
        return f"scaled:{self.a:g}*({self.inner.spec()})"


def scaled(profile, a):
    """Profile a*u0, closed-form where the profile family allows it."""
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"scale factor must be positive, got {a}")
    if isinstance(profile, LinearProfile):
        return LinearProfile(a * profile.a, a * profile.b)
    if isinstance(profile, Polynomial):
        return Polynomial(a * c for c in profile.coeffs)
    return _Scaled(profile, a)


#: u0' dips to -0.40 near y = 2.4e-4, between zeros at 1.13e-4 and 3.67e-4,
#: all between two of 4097 evenly spaced nodes on [-1, 1]
CLOSE_ZERO_PAIR = "poly:0,1.039519654178683,-6001.879039308357,8349334.586026206,-2.5012e+07,2e+07"


def degree_two_band(profile, d):
    """(u0_min, u0_max, u0'', orientation) of a polynomial of degree <= 2 on [-d, d].

    u0' is affine: u0 peaks only at the walls or the vertex -c1/(2 c2), and
    u0' takes its extremes at the walls.
    """
    u0, u0p, u0pp = profile.eval(np.array([-d, d]))
    vals = list(u0)
    c1, c2 = (profile.coeffs + (0.0, 0.0))[1:3]
    if c2 != 0.0 and -d < -c1 / (2.0 * c2) < d:
        vals.append(profile.eval(-c1 / (2.0 * c2))[0])
    if min(u0p) > 0.0:
        orientation = "increasing"
    elif max(u0p) < 0.0:
        orientation = "decreasing"
    else:
        orientation = "none"
    return float(min(vals)), float(max(vals)), float(u0pp[0]), orientation


def scaling_check(band, a, beta, c, tol=DEFAULT_EIGEN_TOL):
    """Both sides of lambda1(beta, c; a*u0) = lambda1(beta/a, c/a; u0).

    Evaluated independently (scaled profile vs scaled parameters) on the
    same grid ladder.  Requires 0 < a <= 1 and c <= a * u0_min.
    """
    if not (0.0 < a <= 1.0):
        raise DomainError(f"scale factor must lie in (0, 1], got {a}")
    scaled_band = band_extrema(scaled(band.profile, a), band.d)
    if c > scaled_band.u0_min:
        raise DomainError(
            f"wave speed c={c} exceeds the scaled profile minimum {scaled_band.u0_min}"
        )
    lhs = principal_eigenvalue(scaled_band, beta, c, tol=tol, want_vector=False).lambda1

    c_rhs = c / a
    # c was admissible for a*u0, so c/a is admissible for u0 up to roundoff of
    # the division; snap the singular endpoint back onto u0_min exactly.
    if c_rhs > band.u0_min:
        if c_rhs - band.u0_min <= 1e-12 * max(1.0, abs(band.u0_min)):
            c_rhs = band.u0_min
    rhs = principal_eigenvalue(band, beta / a, c_rhs, tol=tol, want_vector=False).lambda1
    return lhs, rhs


def inflection_wave_on_mesh(p, grid):
    X, Y = np.meshgrid(grid.x, grid.y)
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
    return u, v


def min_critical_wave_on_mesh(beta, c, grid):
    X, Y = np.meshgrid(grid.x, grid.y)
    shift = beta / (0.25 * math.pi**2 + 1.0)
    u = c + shift + (math.pi / 2.0) * np.cos(X) * np.sin(math.pi * Y / 2.0)
    v = -np.sin(X) * np.cos(math.pi * Y / 2.0)
    return u, v


def kolmogorov_perturbed_on_mesh(eps, grid):
    X, Y = np.meshgrid(grid.x, grid.y)
    kx = math.sqrt(3.0) / 2.0
    u = np.sin(Y) + 0.5 * eps * np.sin(Y / 2.0) * np.sin(kx * X)
    v = kx * eps * np.cos(Y / 2.0) * np.cos(kx * X)
    return u, v


def grs_vortex_on_mesh(p, grid, clip_radius):
    L = grid.geometry.L
    X, Y = np.meshgrid(grid.x, grid.y)
    Xd = X - L * np.round(X / L)
    r = np.hypot(Xd, Y)
    inside = r < clip_radius
    mu = np.where(inside, p.mu(np.where(inside, r, 0.0)), 0.0)
    ramp = np.clip((r - 0.9 * clip_radius) / (0.1 * clip_radius), 0.0, 1.0)
    mu_w = mu * (0.5 * (1.0 + np.cos(math.pi * ramp)))
    return -Y * mu_w, Xd * mu_w


def _cheb(n):
    """Chebyshev-Gauss-Lobatto nodes cos(pi j / n) and their differentiation matrix.

    Trefethen, Spectral Methods in MATLAB (SIAM 2000), program cheb.m.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    w = np.ones(n + 1)
    w[0] = w[-1] = 2.0
    w *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    D = np.outer(w, 1.0 / w) / (dx + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _collocated_beta_crit(band, n):
    x, D = _cheb(n)
    y = band.d * x[1:-1]
    u0, _, u0pp = band.profile.eval(y)
    D2 = (D @ D)[1:-1, 1:-1] / (band.d * band.d)
    # -g phi'' + u0'' phi = beta phi with g = u0 - u0_min, phi(+-d) = 0
    ev = np.linalg.eigvals(-(u0 - band.u0_min)[:, None] * D2 + np.diag(u0pp))
    real = ev.real[np.abs(ev.imag) <= 1e-9 * np.abs(ev)]
    return float(np.min(real))


def critical_beta_reference(band, n=48):
    """Transitional beta of a monotone band by Chebyshev collocation, numpy only.

    At c = u0_min, lambda1(beta, u0_min) = 0 reads -g phi'' + u0'' phi =
    beta phi with g = u0 - u0_min, which is invariant under y -> -y, so
    either orientation collocates as is.  The interior Gauss-Lobatto nodes
    never touch the singular wall.  Returns the smallest real eigenvalue on
    2n intervals, and refuses a band where n and 2n intervals differ by more
    than 1e-10 relative.
    """
    if not band.monotone:
        raise DomainError("critical_beta_reference needs a monotone profile on the band")
    coarse = _collocated_beta_crit(band, n)
    fine = _collocated_beta_crit(band, 2 * n)
    if not abs(fine - coarse) <= 1e-10 * abs(fine):
        raise ValueError(
            f"Chebyshev reference not converged: {coarse!r} on {n} intervals, "
            f"{fine!r} on {2 * n}"
        )
    return fine
