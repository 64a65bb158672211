"""Principal eigenvalue of the (singular) Rayleigh-Kuo boundary-value problem.

The problem on the band (-d, d) is

    -phi'' - (beta - u0''(y)) / (u0(y) - c) * phi = lambda * phi,
    phi(-d) = phi(d) = 0,

for wave speeds c <= u0_min.  At c = u0_min the potential blows up like
1/(y + d) at the wall where a monotone profile attains its minimum; interior
collocation nodes never touch that wall, and the Dirichlet condition keeps
the discrete quadratic form bounded, so plain second-order differences
remain usable there.

Discretization: interior nodes y_j = -d + j*h, j = 1..N-1, h = 2d/N, giving
a symmetric tridiagonal matrix with diagonal 2/h^2 + V(y_j) and off-diagonal
-1/h^2.  Its smallest eigenvalue is extracted by Sturm-sequence bisection
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

The transitional beta comes from the same ladder on a symmetrized pencil:
at c = u0_min a rung's matrix is A - beta*D with D = diag(1/g) and
g = u0 - u0_min > 0 at the interior nodes, so the discrete beta_crit is the
smallest eigenvalue of the tridiagonal D^{-1/2} A D^{-1/2} (Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998, ch. 15).
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
    DivergenceError,
    DomainError,
    NoRootError,
    QgwaveError,
    UnsupportedSingularityError,
)
from .golden import golden_min
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


def _solve_rung(V, d, n):
    """Smallest eigenvalue (stable Rayleigh quotient) and ground state on N = n intervals."""
    h = 2.0 * d / n
    y = -d + h * np.arange(1, n)
    Vy = np.asarray(V(y), dtype=float)
    vec = _ground_vector(2.0 / (h * h) + Vy, np.full(n - 2, -1.0 / (h * h)))
    lam = _rayleigh_quotient(vec, Vy, h)
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    vec = vec / math.sqrt(h * float(np.sum(vec * vec)))
    return lam, vec


def _ladder(rung, tol, n_start, n_max):
    """Refine rung(n) -> (eigenvalue, vector) from n_start by N -> 2N until |E(2N) - E(N)| < tol.

    Returns (E, |E(2N) - E(N)|, final N, final vector, (N, eigenvalue) history).
    """
    n = n_start
    lam_prev, vec = rung(n)
    history = [(n, lam_prev)]
    ext_prev = None
    while True:
        n *= 2
        if n > n_max:
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
    n_max: int = _N_MAX,
) -> EigenResult:
    """Solve for the principal eigenvalue at (beta, c), refined to tol.

    Raises DomainError for c > u0_min, UnsupportedSingularityError for a
    singular request on a non-monotone band, and ConvergenceError (carrying
    the last two iterates) if the ladder reaches n_max without
    |E(2N) - E(N)| < tol; its message gives the final N, the last raw ratio
    of rung differences and the last |E(2N) - E(N)|.
    """
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    u = _oriented_profile(band, beta, c)

    def V(y):
        u0, _, u0pp = u(y)
        return -(beta - u0pp) / (u0 - c)

    ext, diff, n, vec, history = _ladder(lambda n: _solve_rung(V, band.d, n), tol, n_start, n_max)
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
    h = 2.0 * band.d / (res.n_used + 1)
    y = -band.d + h * np.arange(1, res.n_used + 1)
    u0, _, u0pp = u(y)
    w = res.eigvec**2 / (u0 - res.c)
    return -h * float(np.sum((res.beta - u0pp) * w / (u0 - res.c)))


def _pencil_rung(u, u0_min, d, n):
    """Smallest eigenvalue of the symmetrized pencil, and its phi, on N = n intervals.

    The matrix has diagonal 2 g/h^2 + u0'' and off-diagonal
    -sqrt(g_i g_{i+1})/h^2; its eigenvector z gives phi = sqrt(g) z, whose
    stable Rayleigh quotient with potential u0''/g and weight 1/g is returned.
    """
    h = 2.0 * d / n
    u0, _, u0pp = u(-d + h * np.arange(1, n))
    g = u0 - u0_min
    root_g = np.sqrt(g)
    phi = root_g * _ground_vector(2.0 * g / (h * h) + u0pp, -(root_g[:-1] * root_g[1:]) / (h * h))
    return _rayleigh_quotient(phi, u0pp / g, h, 1.0 / g), phi


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
    beta = _ladder(lambda n: _pencil_rung(u, band.u0_min, band.d, n), tol, _N_START, _N_MAX)[0]
    if beta <= 0.0:
        raise ConvergenceError(
            f"smallest pencil eigenvalue {beta} <= 0, so lambda1(0, u0_min) <= 0; "
            "expected positive for a monotone profile"
        )
    return beta


def lambda_inf_over_c(band: ProfileOnBand, beta: float, tol: float = DEFAULT_EIGEN_TOL):
    """Minimize lambda1(beta, .) over wave speeds c in (-inf, u0_min].

    When beta >= max u0'' on the band, every diagonal entry
    -(beta - u0'')/(u0 - c) of each rung's matrix is non-increasing in c, so
    by Weyl's monotonicity each rung's lambda1 is too, and the infimum is
    lambda1(beta, u0_min) after one solve.  Otherwise the search is
    parameterized as c = u0_min - t with t on {0} union a geometric grid;
    sampling stops once lambda1 is within tol of the c -> -inf limit
    pi^2/(4 d^2), after which a golden-section pass refines around the best
    sample.  Returns the solve (at tol/4) at the minimizer: lambda1 is the
    infimum and c one minimizer, with no uniqueness claim.
    """
    if not band.monotone:
        raise DomainError("lambda_inf_over_c needs a monotone profile on the band")
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")

    inner = tol / 4.0
    limit = math.pi**2 / (4.0 * band.d * band.d)
    solved = {}

    def lam_at_t(t):
        solved[t] = principal_eigenvalue(band, beta, band.u0_min - t, tol=inner, want_vector=False)
        return solved[t].lambda1

    ts = [0.0]
    vals = [lam_at_t(0.0)]
    if beta >= band.u0pp_max:
        return solved[0.0]
    t = 1e-4
    for _ in range(80):
        val = lam_at_t(t)
        ts.append(t)
        vals.append(val)
        if abs(val - limit) < tol:
            break
        t *= 2.0

    best = int(np.argmin(vals))
    t_lo = ts[best - 1] if best > 0 else ts[0]
    t_hi = ts[best + 1] if best + 1 < len(ts) else ts[-1]
    best_t, best_val = ts[best], vals[best]
    if t_hi > t_lo:
        xtol = max(1e-6 * (1.0 + best_t), 1e-3 * (t_hi - t_lo))
        g_t, g_val = golden_min(lam_at_t, t_lo, t_hi, xtol)
        if g_val < best_val:
            best_t = g_t
    return solved[best_t]


def wave_speed_root(band: ProfileOnBand, beta: float, L: float, tol: float = DEFAULT_ROOT_TOL):
    """Solve at the wave speed c_L < u0_min with lambda1(beta, c_L) = -(2 pi / L)^2.

    Needs lambda1(beta, u0_min) < -(2 pi / L)^2, otherwise no root is
    guaranteed and NoRootError reports both values; if the two agree within
    tol, the solve at u0_min is returned.  Otherwise one safeguarded Newton
    loop (rtsafe, Numerical Recipes 9.4) on f = lambda1 - target with the
    slope d(lambda1)/d(c) from _c_slope starts at u0_min.  An iterate
    with f < 0 moves the near end, one with f > 0 sets the far end, and a
    step out of the known interval becomes a bisection once a far end
    exists, else a point 4x farther from u0_min (1 below it at first).  Each
    solve is at tol/4; the one with |f| <= 0.75 tol is returned.
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

    # t = u0_min - c; f(t_near) < 0 < f(t_far), with t_far = inf until found
    t = t_near = 0.0
    t_far = math.inf
    for _ in range(200):
        df_dt = -_c_slope(band, res)
        t = t - f / df_dt if df_dt > 0.0 else t_near  # wrong-sign slope: safeguard
        if not (t_near < t < t_far):
            t = 0.5 * (t_near + t_far) if t_far < math.inf else max(4.0 * t_near, 1.0)
        if t > 1e12:
            raise DivergenceError("wave-speed search passed t = u0_min - c = 1e12")
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
