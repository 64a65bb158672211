"""Wave-speed classification and rigidity predicates for gridded fields.

A genuine traveling wave with beta > 0 must have its speed c in one of four
categories: a generalized inflection value ({beta - lap u = 0} meets
{u = c}), a critical value ({grad u = 0} meets {u = c}), an extremum of u,
or a speed in [c_beta_plus, u_min) below the range of u.  With beta = 0 only
the inflection category survives.  Exact zero-set intersections are
undecidable on a grid, so level sets are detected by sign changes across
grid edges together with scaled node tolerances, and every witness node is
reported so the verdict can be audited.  The same derivatives of u decide,
hypothesis by hypothesis, whether a rigidity theorem forces a shear flow.
"""

import math
from typing import NamedTuple

import numpy as np

from .channel import Grid2D, WaveField, gradient, laplacian
from .errors import DomainError

GENUINE_REL_TOL = 1e-8
DEFAULT_EPS_SCALE = 2.0
_MAX_WITNESSES = 32


def c_beta_plus(beta: float, d_minus: float, d_plus: float, u_min: float, u_max: float) -> float:
    """Lower speed bound below which no genuine wave can travel.

    c_beta_plus = u_min - beta W^2 / (2 pi^2)
                  - (W^2 / (2 pi^2)) sqrt(beta^2 + 4 pi^2 beta (u_max - u_min) / W^2)

    with W = d_plus - d_minus.  For beta = 0 this collapses to u_min.
    """
    if beta < 0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    if not d_plus > d_minus:
        raise DomainError(f"need d_minus < d_plus, got [{d_minus}, {d_plus}]")
    if u_max < u_min:
        raise DomainError(f"need u_min <= u_max, got [{u_min}, {u_max}]")
    W2 = (d_plus - d_minus) ** 2
    half = W2 / (2.0 * math.pi**2)
    disc = beta * beta + 4.0 * math.pi**2 * beta * (u_max - u_min) / W2
    return u_min - beta * half - half * math.sqrt(disc)


def _level_mask(f: np.ndarray, eps: float) -> np.ndarray:
    """Nodes on or adjacent to the zero level set of f.

    A node qualifies when |f| <= eps or when f changes sign across one of
    its grid edges (periodic in x); a sign change certifies a continuum zero
    crossing within one cell.
    """
    mask = np.abs(f) <= eps
    # x edges: the interior pairs of columns as one slice, then the wrapped pair
    for west, east in ((slice(None, -1), slice(1, None)), (-1, 0)):
        change_x = f[:, west] * f[:, east] < 0.0
        mask[:, west] |= change_x
        mask[:, east] |= change_x
    change_y = f[:-1] * f[1:] < 0.0
    mask[:-1] |= change_y
    mask[1:] |= change_y
    return mask


def _witnesses(mask: np.ndarray, grid: Grid2D, first, eps_first, second, eps_second):
    """Strongest witness nodes first: smallest first/eps_first + second/eps_second.

    Scored at the masked nodes only, in row-major order, so ties keep it.
    """
    at = np.flatnonzero(mask)
    tiny = np.finfo(float).tiny
    score = np.take(first, at)
    score /= eps_first + tiny
    part = np.take(second, at)
    part /= eps_second + tiny
    score += part
    del part
    best = at[np.argsort(score, kind="stable")[:_MAX_WITNESSES]]
    xs, ys = grid.x, grid.y
    out = tuple(
        {"iy": j, "ix": i, "x": float(xs[i]), "y": float(ys[j])}
        for j, i in (divmod(int(k), grid.nx) for k in best)
    )
    return out, int(at.size)


class HypothesisCheck(NamedTuple):
    condition: str
    satisfied: bool
    evidence: dict


class TheoremCheck(NamedTuple):
    name: str
    hypotheses: tuple
    conclusion: str


class RigidityVerdict(NamedTuple):
    """Hypothesis-by-hypothesis evaluation of the rigidity theorems.

    Each theorem concludes "shear flow" only when every one of its
    hypotheses is satisfied numerically with margin; otherwise the failed
    conditions are listed with their evidence.
    """

    applicable_theorems: tuple

    def shear_concluded(self) -> bool:
        return any(t.conclusion == "shear flow" for t in self.applicable_theorems)

    def to_dict(self) -> dict:
        """Nested records as dicts, so the JSON document holds objects, not arrays."""
        return {
            "applicable_theorems": tuple(
                {**t._asdict(), "hypotheses": tuple(h._asdict() for h in t.hypotheses)}
                for t in self.applicable_theorems
            )
        }


class ClassificationReport(NamedTuple):
    """Per-category verdicts with the numerical evidence behind each.

    theorem_consistent asserts what the classification theorem demands: a
    genuine wave with beta > 0 must land in at least one category, and a
    genuine wave with beta = 0 must have an inflection-value speed.  It is
    vacuously true for shear flows.  rigidity is the rigidity theorems'
    verdict from the same derivatives of u.
    """

    genuine: bool
    v_max: float
    u_min: float
    u_max: float
    c: float
    beta: float
    c_beta_plus: float
    category_inflection: bool
    inflection_witnesses: tuple
    inflection_count: int
    category_critical: bool
    critical_witnesses: tuple
    critical_count: int
    category_extremum: bool
    category_outside: bool
    eps_scale: float
    eps_c: float
    eps_g: float
    eps_q: float
    h_max: float
    theorem_consistent: bool
    rigidity: RigidityVerdict

    def categories(self) -> tuple:
        cats = []
        if self.category_inflection:
            cats.append("inflection")
        if self.category_critical:
            cats.append("critical")
        if self.category_extremum:
            cats.append("extremum")
        if self.category_outside:
            cats.append("outside")
        return tuple(cats)

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "rigidity": self.rigidity.to_dict(),
            "categories": list(self.categories()),
        }


def _directional_margin(fx: np.ndarray, fy: np.ndarray, grid: Grid2D, eps_scale: float) -> float:
    """Uncertainty of extending nodal extrema of f to the continuum band.

    Half-cell quantization per axis, weighted by the directional slopes
    (fx, fy) = gradient(f, grid), so fields that vary only in y are not
    penalized for a coarse x spacing.
    """
    # max |f| as max(max f, -min f): the same bits, and no full-size temporary
    sup_x, sup_y = (max(float(np.max(f)), -float(np.min(f))) for f in (fx, fy))
    return eps_scale * 0.5 * (grid.hx * sup_x + grid.hy * sup_y)


def _tolerances(field: WaveField, eps_scale: float):
    """Level-set tolerances and rigidity evidence from one pass over u's derivatives.

    Each derivative is reduced as soon as it exists, so only grad_mag and
    lap_u are kept.  Ran(lap u) is taken over interior rows only, where the
    centered stencils apply.
    """
    grid = field.grid
    u = field.u
    h_max = max(grid.hx, grid.hy)

    ux, uy = gradient(u, grid)
    margin_c = _directional_margin(ux, uy, grid, eps_scale)
    grad_mag = np.hypot(ux, uy)
    # max |.| of u_xx, u_xy, u_yx, u_yy; the inner generator ends, and drops
    # its last array, before the next gradient pair is made
    second = max(max(float(np.max(np.abs(d, out=d))) for d in gradient(f, grid)) for f in (ux, uy))
    del ux, uy
    margin_g = _directional_margin(*gradient(grad_mag, grid), grid, eps_scale)
    grad_min = float(np.min(grad_mag))

    lap_u = laplacian(u, grid)
    lap_min = float(np.min(lap_u[1:-1]))
    lap_max = float(np.max(lap_u[1:-1]))
    qx, qy = gradient(lap_u, grid)
    margin_q = _directional_margin(qx, qy, grid, eps_scale)
    third = float(np.max(np.hypot(qx, qy, out=qx)))

    eps_c = eps_scale * h_max * float(np.max(grad_mag))
    eps_g = eps_scale * h_max * second
    eps_q = eps_scale * h_max * third
    evidence = (lap_min, lap_max, grad_min, margin_c, margin_g, margin_q)
    return h_max, grad_mag, lap_u, eps_c, eps_g, eps_q, evidence


def _verdict(beta, c, cbp, u_min, lap_min, lap_max, grad_min, margin_c, margin_g, margin_q):
    """The rigidity theorems, hypothesis by hypothesis, from classify's evidence."""
    beta_outside_ran = HypothesisCheck(
        "beta outside Ran(lap u) with margin",
        beta < lap_min - margin_q or beta > lap_max + margin_q,
        {"beta": beta, "lap_u_min": lap_min, "lap_u_max": lap_max, "margin": margin_q},
    )
    beta_positive = HypothesisCheck("beta > 0", beta > 0.0, {"beta": beta})
    beta_zero = HypothesisCheck("beta = 0", beta == 0.0, {"beta": beta})
    speed_gap = HypothesisCheck(
        "c outside [c_beta_plus, u_min] with margin",
        c < cbp - margin_c or c > u_min + margin_c,
        {"c": c, "c_beta_plus": cbp, "u_min": u_min, "margin": margin_c},
    )
    grad_nonzero = HypothesisCheck(
        "grad u nonzero everywhere with margin",
        grad_min > margin_g,
        {"grad_u_min": grad_min, "margin": margin_g},
    )
    lap_positive = HypothesisCheck(
        "min lap u > 0 with margin",
        lap_min > margin_q,
        {"lap_u_min": lap_min, "margin": margin_q},
    )
    beta_window = HypothesisCheck(
        "0 < beta < min lap u",
        0.0 < beta < lap_min - margin_q,
        {"beta": beta, "lap_u_min": lap_min, "margin": margin_q},
    )
    lap_nonzero = HypothesisCheck(
        "lap u nonzero everywhere with margin",
        lap_min > margin_q or lap_max < -margin_q,
        {"lap_u_min": lap_min, "lap_u_max": lap_max, "margin": margin_q},
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


def classify(field: WaveField, eps_scale: float = DEFAULT_EPS_SCALE) -> ClassificationReport:
    """Evaluate every wave-speed category of the classification theorem."""
    if not (eps_scale > 0 and math.isfinite(eps_scale)):
        raise DomainError(f"eps_scale must be positive and finite, got {eps_scale}")
    grid = field.grid
    u, v, c, beta = field.u, field.v, field.c, field.beta

    h_max, grad_mag, lap_u, eps_c, eps_g, eps_q, evidence = _tolerances(field, eps_scale)

    v_max = float(np.max(np.abs(v)))
    u_min = float(np.min(u))
    u_max = float(np.max(u))
    genuine = v_max > GENUINE_REL_TOL * (1.0 + float(np.max(np.abs(u))))

    cbp = c_beta_plus(beta, grid.geometry.d_minus, grid.geometry.d_plus, u_min, u_max)

    speed_gap = u - c
    level_u = _level_mask(speed_gap, eps_c)
    np.abs(speed_gap, out=speed_gap)
    quantity = np.subtract(beta, lap_u, out=lap_u)  # beta - lap u, in lap_u's buffer
    level_q = _level_mask(quantity, eps_q)
    np.abs(quantity, out=quantity)

    inflection_mask = level_u & level_q
    category_inflection = bool(np.any(inflection_mask))
    inflection_witnesses, inflection_count = _witnesses(
        inflection_mask, grid, speed_gap, eps_c, quantity, eps_q
    )

    critical_mask = level_u & (grad_mag <= eps_g)
    category_critical = bool(np.any(critical_mask))
    critical_witnesses, critical_count = _witnesses(
        critical_mask, grid, speed_gap, eps_c, grad_mag, eps_g
    )

    category_extremum = abs(c - u_min) <= eps_c or abs(c - u_max) <= eps_c

    # Half-open with tolerance: the theorem states c in [c_beta_plus, u_min),
    # with u_min itself excluded.
    category_outside = (cbp - eps_c) <= c < (u_min - eps_c)

    if not genuine:
        theorem_consistent = True
    elif beta > 0:
        theorem_consistent = (
            category_inflection or category_critical or category_extremum or category_outside
        )
    else:
        theorem_consistent = category_inflection

    return ClassificationReport(
        genuine=genuine,
        v_max=v_max,
        u_min=u_min,
        u_max=u_max,
        c=c,
        beta=beta,
        c_beta_plus=cbp,
        category_inflection=category_inflection,
        inflection_witnesses=inflection_witnesses,
        inflection_count=inflection_count,
        category_critical=category_critical,
        critical_witnesses=critical_witnesses,
        critical_count=critical_count,
        category_extremum=category_extremum,
        category_outside=category_outside,
        eps_scale=eps_scale,
        eps_c=eps_c,
        eps_g=eps_g,
        eps_q=eps_q,
        h_max=h_max,
        theorem_consistent=theorem_consistent,
        rigidity=_verdict(beta, c, cbp, u_min, *evidence),
    )

