"""Closed-form shear profiles u0(y) with exact first and second derivatives.

Every profile evaluates (u0, u0', u0'') in closed form so the eigenvalue
solver never differentiates numerically, and names the exact points of a
band [-d, d] where u0' and u0''' vanish.  band_extrema certifies extrema and
monotonicity over the band from eval at the walls and at those points.
"""

import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, ProfileSpecError


def _num(x: float) -> str:
    """x for a spec: the short :g form when it reads back as x, else repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


class ShearProfile:
    """Base class: subclasses provide eval(), stationary_points() and a spec string."""

    def eval(self, y):
        """Return (u0, u0', u0'') at y; accepts scalars or arrays."""
        raise NotImplementedError

    def stationary_points(self, d):
        """The zeros of u0' and of u0''' on [-d, d], as two lists of floats."""
        raise NotImplementedError(f"{type(self).__name__} names no stationary points")

    def spec(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<ShearProfile {self.spec()}>"


def _poly_zeros(coeffs, m, d):
    """The zeros on [-d, d] of p, the m-th derivative of sum(c_k y^k), each
    rounded to a float; a wall stands for them when p = 0.  A Sturm chain, built
    in exact rational arithmetic and evaluated in integers, counts the zeros in
    (a, b] as V(a) - V(b), V(x) its sign changes at x; bisection on the counts
    ends at neighbouring floats."""
    if len(coeffs := np.trim_zeros(coeffs, "b")) <= m + 1:  # p is a constant
        return [] if len(coeffs) > m else [-d]
    from fractions import Fraction
    from numpy.polynomial import polynomial as P

    p = P.polyder(np.array([Fraction(c) for c in coeffs], dtype=object), m)
    chain = [p, P.polyder(p)]
    while len(chain[-1]) > 1 and (rem := P.polydiv(chain[-2], chain[-1])[1]).any():
        chain.append(-rem)
    # divided by gcd(p, p'), its last member, the chain counts right at a repeated zero too;
    # times the lcm of its denominators, a positive factor, each member keeps its signs in integers
    chain = [P.polydiv(c, chain[-1])[0] for c in chain]
    chain = [[int(f) for f in c * math.lcm(*(g.denominator for g in c))] for c in chain]

    def at(x):  # (whether p(x) = 0, V(x)); at x = n/q, q > 0, each value is scaled by q**degree
        n, q = x.as_integer_ratio()
        vals = []
        for c in chain:
            acc, qk = 0, 1
            for a in reversed(c):
                acc, qk = acc * n + a * qk, qk * q
            vals.append(acc)
        signs = [v > 0 for v in vals if v]
        return vals[0] == 0, sum(s != t for s, t in zip(signs, signs[1:]))

    todo = [(-d, at(-d), d, at(d))]
    zeros = [-d] if todo[0][1][0] else []
    while todo:
        a, at_a, b, at_b = todo.pop()
        n, mid = at_a[1] - at_b[1], a / 2 + b / 2
        if n and (n == 1 and at_b[0] or not a < mid < b):  # b is the zero, or no float is between
            zeros.append(min(b, a, key=lambda x: abs(P.polyval(Fraction(x), p))))
        elif n:
            at_m = at(mid)
            todo += [(a, at_a, mid, at_m), (mid, at_m, b, at_b)]
    return sorted(zeros)


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

    def stationary_points(self, d):
        return _poly_zeros(self.coeffs, 1, d), _poly_zeros(self.coeffs, 3, d)

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

    def stationary_points(self, d):
        # u0' = 2 sech^2 tanh and u0''' = 8 tanh sech^2 (3 tanh^2 - 2)
        y = math.atanh(math.sqrt(2.0 / 3.0))
        return [0.0], [0.0] + ([-y, y] if y <= d else [])

    def spec(self):
        return "bickley"


class Kolmogorov(ShearProfile):
    """u0(y) = sin(y)."""

    def eval(self, y):
        y = np.asarray(y, dtype=float)
        return np.sin(y), np.cos(y), -np.sin(y)

    def stationary_points(self, d):
        # u0' = cos y = -u0''' vanishes at the odd multiples of pi/2, which repeat (u0, u0'')
        # at +-pi/2; the float pi/2 falls short of pi/2, so d reaches pi/2 when it exceeds it
        ys = [-0.5 * math.pi, 0.5 * math.pi] if 0.5 * math.pi < d else []
        return ys, ys

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
    """A profile restricted to [-d, d] with extrema certified by its exact stationary points.

    orientation is 'increasing' or 'decreasing' when u0' keeps a strict sign
    on the whole closed band, else 'none'.
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


def band_extrema(profile: ShearProfile, d: float) -> ProfileOnBand:
    """Certify u0 and u0'' extrema and monotonicity over [-d, d].

    u0 and u0'' peak at the walls or where u0' and u0''' vanish.  u0 is monotone
    exactly when u0' has no zero on the band; then it has the sign of u0'(0), exact in eval.
    """
    if not (d > 0 and math.isfinite(d)):
        raise DomainError(f"band half-width must be positive, got d={d}")
    flat, bends = profile.stationary_points(d)
    u0 = profile.eval(np.array([-d, d, *flat]))[0]
    u0pp = profile.eval(np.array([-d, d, *bends]))[2]
    orientation = "none" if flat else ("increasing" if profile.eval(0.0)[1] > 0 else "decreasing")
    return ProfileOnBand(profile, d, float(u0.min()), float(u0.max()), float(u0pp.min()),
                         float(u0pp.max()), orientation)


def profile_rigidity_bound(profile: ShearProfile, d: float, beta: float):
    """Admissible perturbation radius (u0'')_min - beta for shear rigidity.

    A traveling wave whose lap u stays within this radius of u0'' must be a
    shear flow when the radius is positive; returns (threshold, satisfied).
    """
    threshold = band_extrema(profile, d).u0pp_min - beta
    return threshold, threshold > 0.0
