"""Closed-form shear profiles u0(y) with exact first and second derivatives.

Every profile evaluates (u0, u0', u0'') in closed form so the eigenvalue
solver never differentiates numerically.  band_extrema certifies extrema and
monotonicity of a profile over a band [-d, d]: exactly for polynomials of
degree <= 2, otherwise by a dense scan refined with golden-section search.
"""

import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, ProfileSpecError
from .golden import golden_min

_SCAN_POINTS = 4097
_REFINE_TOL = 1e-12


def _num(x: float) -> str:
    """x for a spec: the short :g form when it reads back as x, else repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


class ShearProfile:
    """Base class: subclasses provide eval() and a spec string."""

    def eval(self, y):
        """Return (u0, u0', u0'') at y; accepts scalars or arrays."""
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<ShearProfile {self.spec()}>"


class Polynomial(ShearProfile):
    """u0(y) = c0 + c1*y + c2*y^2 + ...; Horner evaluation, exact derivatives."""

    def __init__(self, coeffs: Iterable[float]):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise DomainError("polynomial profile needs at least one coefficient")
        self.coeffs = coeffs
        self._d1 = tuple(k * c for k, c in enumerate(coeffs))[1:]
        self._d2 = tuple(k * c for k, c in enumerate(self._d1))[1:]

    @staticmethod
    def _horner(coeffs, y):
        acc = np.full_like(y, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * y + c
        return acc

    def eval(self, y):
        y = np.asarray(y, dtype=float)
        return (
            self._horner(self.coeffs, y),
            self._horner(self._d1, y) if self._d1 else np.zeros_like(y),
            self._horner(self._d2, y) if self._d2 else np.zeros_like(y),
        )

    def spec(self):
        return "poly:" + ",".join(_num(c) for c in self.coeffs)


class LinearProfile(Polynomial):
    """u0(y) = a*y + b."""

    def __init__(self, a: float, b: float = 0.0):
        super().__init__((b, a))
        self.a, self.b = a, b

    def spec(self):
        return f"linear:{_num(self.a)},{_num(self.b)}"


def couette() -> LinearProfile:
    """The Couette profile u0(y) = y."""
    return LinearProfile(1.0, 0.0)


class ConcaveParabola(Polynomial):
    """u0(y) = -y^2 + b*y + e, so u0'' = -2 everywhere.

    The offset e shifts u0 but cancels from u0 - u0_min, so the eigenvalue
    problems built on this profile do not depend on it.
    """

    def __init__(self, b: float, e: float = 0.0):
        super().__init__((e, b, -1.0))
        self.b, self.e = b, e

    def spec(self):
        return f"parabola:{_num(self.b)},{_num(self.e)}"


class CouettePoiseuille(Polynomial):
    """u0(y) = gamma*y + (1 - gamma)*y^2."""

    def __init__(self, gamma: float):
        super().__init__((0.0, gamma, 1.0 - gamma))
        self.gamma = gamma

    def spec(self):
        return f"cp:{_num(self.gamma)}"


class Bickley(ShearProfile):
    """The jet profile u0(y) = -sech^2(y)."""

    def eval(self, y):
        y = np.asarray(y, dtype=float)
        s = 1.0 / np.cosh(y)
        t = np.tanh(y)
        s2 = s * s
        return -s2, 2.0 * s2 * t, 2.0 * s2 * s2 - 4.0 * s2 * t * t

    def spec(self):
        return "bickley"


#: |y| where u0'' of the Bickley jet changes sign: ln(2 + sqrt(3)) / 2.
BICKLEY_INFLECTION = 0.5 * math.log(2.0 + math.sqrt(3.0))


class Kolmogorov(ShearProfile):
    """u0(y) = sin(y)."""

    def eval(self, y):
        y = np.asarray(y, dtype=float)
        return np.sin(y), np.cos(y), -np.sin(y)

    def spec(self):
        return "kolmogorov"


#: profile kind -> (parameter count, constructor); a count of None takes any number
_KINDS = {
    "couette": (0, couette),
    "linear": (2, LinearProfile),
    "parabola": (2, ConcaveParabola),
    "cp": (1, CouettePoiseuille),
    "bickley": (0, Bickley),
    "kolmogorov": (0, Kolmogorov),
    "poly": (None, lambda *coeffs: Polynomial(coeffs)),
}


def parse_profile(spec: str) -> ShearProfile:
    """Parse the CLI grammar: couette | linear:a,b | parabola:b,e | cp:gamma
    | bickley | kolmogorov | poly:c0,c1,...
    """
    spec = spec.strip()
    head, _, arg = spec.partition(":")
    head = head.lower()
    if head not in _KINDS:
        raise ProfileSpecError(f"unknown profile kind '{head}'")
    count, make = _KINDS[head]
    if count == 0:
        if arg:
            raise ProfileSpecError(f"{head} takes no parameters")
        return make()
    if not arg:
        raise ProfileSpecError(f"profile '{spec}': missing parameters")
    try:
        vals = [float(tok) for tok in arg.split(",")]
    except ValueError as exc:
        raise ProfileSpecError(f"profile '{spec}': bad number ({exc})") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ProfileSpecError(f"profile '{spec}': parameters must be finite")
    if count is not None and len(vals) != count:
        raise ProfileSpecError(f"profile '{spec}': expected {count} parameters, got {len(vals)}")
    return make(*vals)


class ProfileOnBand(NamedTuple):
    """A profile restricted to [-d, d] with certified extrema.

    orientation is 'increasing' or 'decreasing' when u0' keeps a strict sign
    on the whole band, else 'none'.
    """

    profile: ShearProfile
    d: float
    u0_min: float
    u0_max: float
    u0pp_min: float
    u0pp_max: float
    orientation: str

    @property
    def monotone(self) -> bool:
        return self.orientation != "none"


def _refined_extrema(f, xs, vals):
    """Min/max of f over [xs[0], xs[-1]] from samples plus golden refinement."""
    lo_idx = int(np.argmin(vals))
    hi_idx = int(np.argmax(vals))
    vmin = float(vals[lo_idx])
    vmax = float(vals[hi_idx])
    if 0 < lo_idx < len(xs) - 1:
        _, v = golden_min(lambda t: float(f(t)), xs[lo_idx - 1], xs[lo_idx + 1], _REFINE_TOL)
        vmin = min(vmin, v)
    if 0 < hi_idx < len(xs) - 1:
        _, v = golden_min(lambda t: -float(f(t)), xs[hi_idx - 1], xs[hi_idx + 1], _REFINE_TOL)
        vmax = max(vmax, -v)
    return vmin, vmax


def band_extrema(profile: ShearProfile, d: float) -> ProfileOnBand:
    """Certify u0 and u0'' extrema and monotonicity over [-d, d]."""
    if not (d > 0 and math.isfinite(d)):
        raise DomainError(f"band half-width must be positive, got d={d}")

    if isinstance(profile, Polynomial) and len(profile.coeffs) <= 3:
        # u0' is affine: u0 peaks only at the walls or the vertex, and u0'
        # takes its extremes at the walls.
        u0, u0p, u0pp = profile.eval(np.array([-d, d]))
        vals = list(u0)
        c1, c2 = (profile.coeffs + (0.0, 0.0))[1:3]
        if c2 != 0.0 and -d < -c1 / (2.0 * c2) < d:
            vals.append(profile.eval(-c1 / (2.0 * c2))[0])
        u0_min, u0_max = float(min(vals)), float(max(vals))
        upp_min = upp_max = float(u0pp[0])
        slope_min, slope_max = float(min(u0p)), float(max(u0p))
    else:
        ys = np.linspace(-d, d, _SCAN_POINTS)
        u0, u0p, u0pp = profile.eval(ys)
        u0_min, u0_max = _refined_extrema(lambda t: profile.eval(t)[0], ys, u0)
        upp_min, upp_max = _refined_extrema(lambda t: profile.eval(t)[2], ys, u0pp)
        slope_min, slope_max = _refined_extrema(lambda t: profile.eval(t)[1], ys, u0p)

    if slope_min > 0.0:
        orientation = "increasing"
    elif slope_max < 0.0:
        orientation = "decreasing"
    else:
        orientation = "none"

    return ProfileOnBand(profile, d, u0_min, u0_max, upp_min, upp_max, orientation)


def profile_rigidity_bound(profile: ShearProfile, d: float, beta: float):
    """Admissible perturbation radius (u0'')_min - beta for shear rigidity.

    A traveling wave whose lap u stays within this radius of u0'' must be a
    shear flow when the radius is positive; returns (threshold, satisfied).
    """
    if not (d > 0):
        raise DomainError(f"band half-width must be positive, got d={d}")
    band = band_extrema(profile, d)
    threshold = band.u0pp_min - beta
    return threshold, threshold > 0.0
