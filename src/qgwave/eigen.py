"""Principal eigenvalue of the (singular) Rayleigh-Kuo boundary-value problem.

The problem on the band (-d, d) is

    -phi'' - (beta - u0''(y)) / (u0(y) - c) * phi = lambda * phi,
    phi(-d) = phi(d) = 0,

for wave speeds c <= u0_min.  At c = u0_min the potential blows up like
1/(y + d) at the wall where a monotone profile attains its minimum; interior
collocation nodes never touch that wall, and the Dirichlet condition keeps
the discrete quadratic form bounded, so plain second-order differences
remain usable there.

Discretization: interior nodes y_j = -d + j*h, j = 1..N-1, h = 2d/N.  Every
rung of every solve is -s phi'' + sv phi = mu phi, phi(+-d) = 0, s > 0, as
the symmetric tridiagonal S^{1/2} K S^{1/2} + diag(sv): S = diag(s(y_j)), K
the second difference (diagonal 2/h^2, off-diagonal -1/h^2), and
phi = S^{1/2} z for its ground vector z.  lambda1 is the rung s = 1, sv = V.
Its smallest eigenvalue is extracted by Sturm-sequence bisection
and inverse iteration (LAPACK dstebz + dstein, called directly on scipy's
LAPACK extension, which is loaded without importing scipy.linalg) and a
stable Rayleigh quotient; the grid is refined N -> 2N and every rung
reports the Richardson extrapolate E(2N) = (4*lambda(2N) - lambda(N)) / 3.
The ladder stops once |E(2N) - E(N)| < tol, and that difference is the
reported error estimate.
The error of lambda(N) is a clean multiple of h^2 also at c = u0_min: the
regular solution at the singular wall is a Frobenius series with indicial
roots 0 and 1 and no log term, and the raw iterates there show ratio 4.

Decreasing profiles are reflected y -> -y first, which leaves every
eigenvalue unchanged and pins the singular wall at y = -d, so a single code
path serves both orientations.

The transitional beta comes from the same rung and ladder on a symmetrized
pencil: at c = u0_min a rung's lambda1 matrix is A - beta*D with
D = diag(1/g) and g = u0 - u0_min > 0 at the interior nodes, so the discrete
beta_crit is the smallest eigenvalue of D^{-1/2} A D^{-1/2}, the rung with
s = g and sv = u0'' (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
ch. 15).
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NoRootError,
    QgwaveError,
    UnsupportedSingularityError,
)
from .profiles import ProfileOnBand

DEFAULT_EIGEN_TOL = 1e-6
DEFAULT_ROOT_TOL = 1e-4
_N_START = 256
_N_MAX = 1 << 20


def _oriented_profile(band: ProfileOnBand, beta: float, c: float) -> Callable:
    """Validate (beta, c) and return y -> (u0, u0', u0'') on the oriented band.

    A decreasing profile is read at -y so that u0 increases across the band
    and a singular wall sits at y = -d; u0' then carries the wrong sign, but
    the potential and its derivatives use only u0 and u0''.
    """
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    if c > band.u0_min:
        raise DomainError(
            f"wave speed c={c} exceeds the profile minimum u0_min={band.u0_min}"
        )
    if c == band.u0_min and not band.monotone:
        raise UnsupportedSingularityError(
            "c = u0_min needs a certified monotone profile so the potential "
            "blows up only at one wall"
        )
    prof = band.profile
    if band.orientation == "decreasing":
        return lambda y: prof.eval(-y)
    return prof.eval


class EigenResult(NamedTuple):
    """Principal eigenvalue with its ground-state vector and convergence data.

    eigvec holds the interior-node eigenfunction samples on the final grid,
    sign-normalized positive and L2-normalized by the trapezoid rule (the
    wall values are zero).  history records (intervals, raw eigenvalue) for
    each rung of the refinement ladder.  lambda1 is the Richardson extrapolate
    of the last two rungs and est_error is its difference from the previous
    rung's extrapolate.  beta and c are the parameters it was solved at.
    """

    lambda1: float
    eigvec: Optional[np.ndarray]
    n_used: int
    est_error: float
    history: tuple
    beta: float
    c: float


def _rayleigh_quotient(vec, Vy, h, weight=1.0):
    """Quadratic form of the discretization over sum(weight * vec^2), without cancellation.

    vec' T vec  ==  sum((vec_{i+1} - vec_i)^2) / h^2 + sum(V_i vec_i^2)
    with the Dirichlet zeros appended, so every term stays O(1) even though
    the matrix norm grows like 1/h^2; the bisection eigenvalue alone is only
    accurate to eps * ||T||, which would poison the refinement ladder at
    tight tolerances.
    """
    edges = np.diff(vec, prepend=0.0, append=0.0)
    num = float(edges @ edges) / (h * h) + float(Vy @ (vec * vec))
    return num / float(vec @ (weight * vec))


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, for the kernel's dstebz and dstein.

    scipy.linalg._flapack is loaded from its file alone, in about 5 ms,
    where importing scipy.linalg takes about 250 ms (2-vCPU machine,
    Python 3.11, scipy 1.17).  The extension registers itself in
    sys.modules, so a later `import scipy.linalg` in the same process reuses
    this module.  If scipy's layout has no such file, or it fails to load,
    scipy.linalg.lapack serves instead.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(spec.submodule_search_locations[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        ext = finder.find_spec("scipy.linalg._flapack")
        if ext is not None:
            try:
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module
            except ImportError:
                pass
    from scipy.linalg import lapack

    return lapack


def _check_info(info, routine):
    """Raise as scipy does for a nonzero LAPACK info."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} did not converge (LAPACK info={info})")


def _ground_vector(diag, off):
    """Ground-state eigenvector of the symmetric tridiagonal matrix (diag, off).

    dstebz and dstein with scipy.linalg.eigh_tridiagonal(select="i")'s
    arguments and checks, so bit-identical to it; one node is its own vector.
    """
    diag = np.asarray_chkfinite(diag)
    off = np.asarray_chkfinite(off)
    if len(diag) == 1:
        return np.ones(1)
    lapack = _lapack()
    # by index (range 2), il = iu = 1; vl, vu unused; abstol 0 is LAPACK's default
    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    _check_info(info, "dstebz")
    vecs, info = lapack.dstein(diag, off, w[:m], iblock, isplit)
    _check_info(info, "dstein")
    return vecs[:, 0]


def _nodes(d, n):
    """Spacing h = 2d/N and the interior nodes y_j = -d + j*h, j = 1..N-1."""
    h = 2.0 * d / n
    return h, -d + h * np.arange(1, n)


def _rung(coeffs, d, n):
    """Smallest eigenvalue of -s phi'' + sv phi = mu phi, and its phi, on N = n intervals.

    coeffs(y) gives (s, sv) at the interior nodes (module docstring).  The
    eigenvalue is phi's stable Rayleigh quotient with potential sv/s and
    weight 1/s; phi is sign-normalized positive and L2-normalized by the
    trapezoid rule.
    """
    h, y = _nodes(d, n)
    s, sv = coeffs(y)
    root_s = np.sqrt(s)
    vec = root_s * _ground_vector(2.0 * s / (h * h) + sv, -(root_s[:-1] * root_s[1:]) / (h * h))
    lam = _rayleigh_quotient(vec, sv / s, h, 1.0 / s)
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    vec = vec / math.sqrt(h * float(np.sum(vec * vec)))
    return lam, vec


def _ladder(rung, tol, n_start):
    """Refine rung(n) -> (eigenvalue, vector) from n_start by N -> 2N until |E(2N) - E(N)| < tol.

    Returns (E, |E(2N) - E(N)|, final N, final vector, (N, eigenvalue) history);
    raises ConvergenceError once N would pass _N_MAX.
    """
    n = n_start
    lam_prev, vec = rung(n)
    history = [(n, lam_prev)]
    ext_prev = None
    while True:
        n *= 2
        if n > _N_MAX:
            msg = f"eigenvalue ladder reached N={n // 2} without |E(2N)-E(N)| < {tol}"
            if len(history) >= 3:
                (_, a), (_, b), (_, z) = history[-3:]
                msg += (f"; last raw ratio (lambda(N/2)-lambda(N/4))/(lambda(N)-lambda(N/2)) = "
                        f"{(b - a) / (z - b) if z != b else math.inf:.6g} (4 for h^2 "
                        f"convergence), last |E(2N)-E(N)| = {diff:.3g}")
            raise ConvergenceError(msg, last_iterates=history[-2:])
        lam, vec = rung(n)
        history.append((n, lam))
        ext = (4.0 * lam - lam_prev) / 3.0
        if ext_prev is not None:
            diff = abs(ext - ext_prev)
            if diff < tol:
                return ext, diff, n, vec, tuple(history)
        lam_prev, ext_prev = lam, ext


def principal_eigenvalue(
    band: ProfileOnBand,
    beta: float,
    c: float,
    tol: float = DEFAULT_EIGEN_TOL,
    want_vector: bool = True,
    n_start: int = _N_START,
) -> EigenResult:
    """Solve for the principal eigenvalue at (beta, c), refined to tol.

    Raises DomainError for c > u0_min, UnsupportedSingularityError for a
    singular request on a non-monotone band, and ConvergenceError (carrying
    the last two iterates) if the ladder passes N = _N_MAX without
    |E(2N) - E(N)| < tol; its message gives the final N, the last raw ratio
    of rung differences and the last |E(2N) - E(N)|.
    """
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    u = _oriented_profile(band, beta, c)

    def coeffs(y):
        u0, _, u0pp = u(y)
        return np.ones_like(y), -(beta - u0pp) / (u0 - c)

    ext, diff, n, vec, history = _ladder(lambda n: _rung(coeffs, band.d, n), tol, n_start)
    return EigenResult(
        lambda1=ext,
        eigvec=vec if want_vector else None,
        n_used=n - 1,
        est_error=diff,
        history=history,
        beta=beta,
        c=c,
    )


def _c_slope(band: ProfileOnBand, res: EigenResult) -> float:
    """d(lambda1)/d(c) at (res.beta, res.c) by Hellmann-Feynman.

    The potential is -(beta - u0'')/(u0 - c), so the slope is
    -integral((beta - u0'') phi^2 / (u0 - c)^2), by the trapezoid rule over
    res.eigvec on its final grid.
    """
    u = _oriented_profile(band, res.beta, res.c)
    h, y = _nodes(band.d, res.n_used + 1)
    u0, _, u0pp = u(y)
    w = res.eigvec**2 / (u0 - res.c)
    return -h * float(np.sum((res.beta - u0pp) * w / (u0 - res.c)))


def critical_beta(band: ProfileOnBand, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Transitional beta: the unique root of lambda1(beta, u0_min) = 0.

    One ladder of the symmetrized pencil's smallest eigenvalue (module
    docstring), refined to |E(2N) - E(N)| < tol in beta units.  By
    Sylvester's law of inertia it is <= 0 exactly when lambda1(0, u0_min) <= 0,
    which raises ConvergenceError.
    """
    if not band.monotone:
        raise DomainError("critical_beta needs a monotone profile on the band")
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    u = _oriented_profile(band, 0.0, band.u0_min)

    def coeffs(y):
        u0, _, u0pp = u(y)
        return u0 - band.u0_min, u0pp

    beta = _ladder(lambda n: _rung(coeffs, band.d, n), tol, _N_START)[0]
    if beta <= 0.0:
        raise ConvergenceError(
            f"smallest pencil eigenvalue {beta} <= 0, so lambda1(0, u0_min) <= 0; "
            "expected positive for a monotone profile"
        )
    return beta


def _weyl_depth(band: ProfileOnBand, beta: float, level: float) -> float:
    """Depth t = u0_min - c at and past which lambda1(beta, u0_min - t) >= level.

    u0 - c >= t on the band, so the potential -(beta - u0'')/(u0 - c) is at
    least -M/t with M = max(beta - min u0'', 0), and by Weyl's inequality
    (Horn & Johnson, Matrix Analysis, Thm 4.3.1) lambda1 >= pi^2/(4 d^2) - M/t.
    Returns M / (pi^2/(4 d^2) - level), or inf when level >= pi^2/(4 d^2).
    """
    gap = math.pi**2 / (4.0 * band.d * band.d) - level
    return max(beta - band.u0pp_min, 0.0) / gap if gap > 0.0 else math.inf


def lambda_inf_over_c(band: ProfileOnBand, beta: float, tol: float = DEFAULT_EIGEN_TOL):
    """Minimize lambda1(beta, .) over wave speeds c in (-inf, u0_min].

    When beta >= max u0'' on the band, every diagonal entry
    -(beta - u0'')/(u0 - c) of each rung's matrix is non-increasing in c, so
    by Weyl's monotonicity each rung's lambda1 is too, and the infimum is
    lambda1(beta, u0_min) after one solve.  Otherwise c = u0_min - t walks
    t = 0, 1e-4, 2e-4, 4e-4, ... and stops at the first t at or past
    _weyl_depth(best - tol), past which no value beats the best sample by
    more than tol; a walk still short of it after 80 samples past t = 0
    raises ConvergenceError.  The slope d(lambda1)/dt = -_c_slope of the
    best sample picks the neighbour on the walk that brackets the minimum.
    The slope's sign at the midpoint halves the bracket until |slope| times
    the width of the bracket it halved is <= tol.  Every solve is at tol/4,
    and the lowest one is returned: lambda1 is the infimum and c one
    minimizer, with no uniqueness claim.
    """
    if not band.monotone:
        raise DomainError("lambda_inf_over_c needs a monotone profile on the band")
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")

    def solve(t):
        return principal_eigenvalue(band, beta, band.u0_min - t, tol=tol / 4.0)

    best = solve(0.0)
    if beta >= band.u0pp_max:
        return best
    ts, i = [0.0, 1e-4], 0  # ts[-1] is the next walk point, ts[i] the best so far
    while ts[-1] < _weyl_depth(band, beta, best.lambda1 - tol):
        if len(ts) > 81:
            raise ConvergenceError(
                f"inf-c walk reached t = u0_min - c = {ts[-1]:.6g} after 80 points, "
                "short of the Weyl depth"
            )
        res = solve(ts[-1])
        if res.lambda1 < best.lambda1:
            best, i = res, len(ts) - 1
        ts.append(2.0 * ts[-1])

    slope = -_c_slope(band, best)  # d(lambda1)/dt
    j = i + 1 if slope < 0.0 else i - 1
    if j >= 0:
        lo, hi = sorted((ts[i], ts[j]))
        width = hi - lo
        while abs(slope) * width > tol:
            width, mid = hi - lo, 0.5 * (lo + hi)
            res = solve(mid)
            slope = -_c_slope(band, res)
            lo, hi = (lo, mid) if slope > 0.0 else (mid, hi)
            if res.lambda1 < best.lambda1:
                best = res
    return best


def wave_speed_root(band: ProfileOnBand, beta: float, L: float, tol: float = DEFAULT_ROOT_TOL):
    """Solve at the wave speed c_L < u0_min with lambda1(beta, c_L) = -(2 pi / L)^2.

    Needs lambda1(beta, u0_min) < -(2 pi / L)^2, otherwise no root is
    guaranteed and NoRootError reports both values; if the two agree within
    tol, the solve at u0_min is returned.  Otherwise one safeguarded Newton
    loop (rtsafe, Numerical Recipes 9.4) on f = lambda1 - target with the
    slope d(lambda1)/d(c) from _c_slope starts at u0_min.  The root lies
    between u0_min and the depth t = u0_min - c = _weyl_depth(target), where
    lambda1 >= target, so that depth is the first far end.  An iterate with
    f < 0 moves the near end, one with f > 0 sets the far end, and a step
    out of the known interval becomes a bisection.  Each solve is at tol/4;
    the one with |f| <= 0.75 tol is returned.
    """
    if not band.monotone:
        raise DomainError("wave_speed_root needs a monotone profile on the band")
    if not (L > 0 and math.isfinite(L)):
        raise DomainError(f"zonal period must be positive and finite, got {L}")
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")

    target = -((2.0 * math.pi / L) ** 2)
    res = principal_eigenvalue(band, beta, band.u0_min, tol=tol / 4.0)
    f = res.lambda1 - target
    if f >= 0.0:
        if f < tol:
            return res
        raise NoRootError(
            f"lambda1(beta, u0_min) = {res.lambda1} does not reach the target {target}; "
            "no wave-speed root is guaranteed",
            lambda_end=res.lambda1,
            target=target,
        )

    # t = u0_min - c; f(t_near) < 0 <= f(t_far)
    t = t_near = 0.0
    t_far = _weyl_depth(band, beta, target)
    for _ in range(200):
        df_dt = -_c_slope(band, res)
        t = t - f / df_dt if df_dt > 0.0 else t_near  # wrong-sign slope: safeguard
        if not (t_near < t < t_far):
            t = 0.5 * (t_near + t_far)
        res = principal_eigenvalue(band, beta, band.u0_min - t, tol=tol / 4.0)
        f = res.lambda1 - target
        if abs(f) <= 0.75 * tol:
            return res
        t_near, t_far = (t, t_far) if f < 0.0 else (t_near, t)
    raise ConvergenceError(f"wave-speed Newton iteration did not reach residual {tol} in 200 steps")


class CurvePoint(NamedTuple):
    """One sample of the rigidity/existence boundary curve.

    L_crit = 2 pi / sqrt(-lambda1) is the critical zonal period separating
    rigidity (shorter channels) from existence of nearby genuine waves
    (longer channels); it is None (infinite) while lambda1 >= 0.  error
    carries a per-point solver failure without aborting the sweep.
    """

    beta: float
    lambda1_at_u0min: Optional[float]
    L_crit: Optional[float]
    error: Optional[str] = None


def boundary_curve(
    band: ProfileOnBand,
    beta_min: float,
    beta_max: float,
    n: int,
    tol: float = DEFAULT_EIGEN_TOL,
) -> list:
    """Sample (beta, lambda1(beta, u0_min), L_crit) on n evenly spaced betas.

    Points are returned ordered by beta; solver failures flag their point and
    the sweep continues.
    """
    if not (beta_min < beta_max and math.isfinite(beta_min) and math.isfinite(beta_max)):
        raise DomainError(f"need finite beta_min < beta_max, got [{beta_min}, {beta_max}]")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")

    def solve_point(beta_val: float) -> CurvePoint:
        try:
            lam = principal_eigenvalue(
                band, beta_val, band.u0_min, tol=tol, want_vector=False
            ).lambda1
        except QgwaveError as exc:  # per-point flagging, sweep continues
            return CurvePoint(float(beta_val), None, None, error=str(exc))
        L_crit = 2.0 * math.pi / math.sqrt(-lam) if lam < 0 else None
        return CurvePoint(float(beta_val), lam, L_crit)

    return [solve_point(b) for b in np.linspace(beta_min, beta_max, n)]
