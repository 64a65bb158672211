"""Eigenvalue solver: oracles, monotonicity, limits, roots, and sweeps.

Two closed-form oracles pin the singular Couette problem independently of
the finite-difference path:

* the zero-crossing of the principal eigenvalue in beta happens at
  j_{1,1}^2 / 8, where j_{1,1} is the first positive zero of the Bessel
  function J_1 (the zero-eigenvalue equation phi'' + (beta/t) phi = 0 on
  (0, 2) is solved by sqrt(t) J_1(2 sqrt(beta t)));
* at beta = 2 the ground state is phi = t (1 - t/2) exp(-t/2) with
  eigenvalue exactly -1/4.
"""

import math
import random

import numpy as np
import pytest
from scipy.special import jn_zeros

import qgwave.eigen
from qgwave import (
    ConcaveParabola,
    ConvergenceError,
    DomainError,
    LinearProfile,
    NoRootError,
    Polynomial,
    UnsupportedSingularityError,
    band_extrema,
    boundary_curve,
    couette,
    critical_beta,
    lambda_inf_over_c,
    principal_eigenvalue,
    wave_speed_root,
)
from qgwave.profiles import Kolmogorov

from _oracles import critical_beta_reference, lambda1_reference, scaling_check

BESSEL_BETA_CRIT = float(jn_zeros(1, 1)[0]) ** 2 / 8.0  # 1.8352463302654868


def _seeded_monotone_bands(seed=20261020):
    """(profile, d) pairs that are monotone on their band by construction.

    Linear profiles of either slope sign with d in [0.5, 2]; the parabola
    table entries (7, 1) and (8, 3) scaled by k in [0.5, 2], which leaves
    beta_crit unchanged; and poly:0,1,s,t on d = 1 with 2|s| + 3|t| < 1,
    where u0' = 1 + 2 s y + 3 t y^2 > 0.
    """
    rng = random.Random(seed)
    bands = []
    for sign in (1.0, -1.0, 1.0, -1.0):
        a = sign * rng.uniform(0.2, 3.0)
        bands.append((LinearProfile(a, rng.uniform(-1.0, 1.0)), rng.uniform(0.5, 2.0)))
    for b0, d0 in ((7.0, 1.0), (8.0, 3.0)):
        k = rng.uniform(0.5, 2.0)
        bands.append((ConcaveParabola(k * b0, rng.uniform(-1.0, 1.0)), k * d0))
    for _ in range(4):
        s, t = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        shrink = rng.uniform(0.0, 1.0) / (2.0 * abs(s) + 3.0 * abs(t))
        bands.append((Polynomial((0.0, 1.0, shrink * s, shrink * t)), 1.0))
    return bands


SEEDED_BANDS = _seeded_monotone_bands()


def _seeded_lambda1_cases(seed=20261021, count=300):
    """(band, beta, c, tol) on monotone linear, parabola and cubic bands, d in [0.5, 2].

    c is u0_min, the singular wall, for about half the cases, and otherwise
    u0_min - [0.01, 2] * (u0_max - u0_min); beta spans [-2, 10] * (u0_max -
    u0_min) / d^2 and tol 1e-9 ... 1e-5 / d^2, log-uniform.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        d = rng.uniform(0.5, 2.0)
        sign = rng.choice((1.0, -1.0))
        if i % 3 == 0:
            profile = LinearProfile(sign * rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
        elif i % 3 == 1:
            # u0' = b - 2y keeps one sign on [-d, d] for |b| > 2d
            b = sign * 2.0 * d * rng.uniform(1.1, 3.0)
            profile = ConcaveParabola(b, rng.uniform(-1.0, 1.0))
        else:
            # u0' = sign + 2 s y + 3 t y^2 keeps its sign for 2|s| d + 3|t| d^2 < 1
            s, t = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            shrink = rng.uniform(0.0, 1.0) / (2.0 * abs(s) * d + 3.0 * abs(t) * d * d)
            profile = Polynomial((0.0, sign, shrink * s, shrink * t))
        band = band_extrema(profile, d)
        span = band.u0_max - band.u0_min
        beta = rng.uniform(-2.0, 10.0) * span / (d * d)
        c = band.u0_min if rng.random() < 0.5 else band.u0_min - rng.uniform(0.01, 2.0) * span
        cases.append((band, beta, c, 10.0 ** rng.uniform(-9.0, -5.0) / (d * d)))
    return cases


@pytest.fixture(scope="module")
def couette_band():
    return band_extrema(couette(), 1.0)


class TestPrincipalEigenvalue:
    def test_zero_potential_dirichlet(self, couette_band):
        res = principal_eigenvalue(couette_band, 0.0, -2.0)
        assert res.lambda1 == pytest.approx(math.pi**2 / 4.0, abs=1e-8)

    def test_singular_near_transitional_beta(self, couette_band):
        res = principal_eigenvalue(couette_band, 1.8352, -1.0)
        assert abs(res.lambda1) < 5e-3

    def test_singular_bessel_oracle(self, couette_band):
        res = principal_eigenvalue(couette_band, BESSEL_BETA_CRIT, -1.0, tol=1e-8)
        assert abs(res.lambda1) < 1e-6

    def test_singular_closed_form_ground_state(self, couette_band):
        # beta = 2: phi = t (1 - t/2) exp(-t/2), lambda = -1/4 exactly
        res = principal_eigenvalue(couette_band, 2.0, -1.0, tol=1e-8)
        assert res.lambda1 == pytest.approx(-0.25, abs=1e-6)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize(
        "beta,c,exact",
        [
            (2.0, -1.0, -0.25),
            (BESSEL_BETA_CRIT, -1.0, 0.0),
            (0.0, -2.0, math.pi**2 / 4.0),
        ],
        ids=["beta2", "bessel", "dirichlet"],
    )
    def test_extrapolate_error_bounded_by_estimate(self, couette_band, beta, c, exact, tol):
        # singular (c = u0_min = -1) and regular cases share one ladder: the
        # estimate bounds the error of the reported extrapolate, on a short ladder
        res = principal_eigenvalue(couette_band, beta, c, tol=tol)
        assert abs(res.lambda1 - exact) <= res.est_error <= tol
        assert res.n_used + 1 <= 2048

    def test_near_singular_interior_well_converges(self):
        band = band_extrema(Kolmogorov(), math.pi)
        res = principal_eigenvalue(band, 3.0, band.u0_min - 1e-4, tol=1e-6, want_vector=False)
        # reference: extrapolate of the rungs N = 2^19 and 2^20, whose raw
        # Cauchy differences have observed ratio 4.0000
        assert res.lambda1 == pytest.approx(-12757.4310567449, abs=1e-6)
        assert res.est_error < 1e-6

    def test_parabola_table_corner(self):
        band = band_extrema(ConcaveParabola(7.0), 1.0)
        res = principal_eigenvalue(band, 13.2496, band.u0_min)
        assert abs(res.lambda1) < 2e-2

    def test_rejects_c_above_minimum(self, couette_band):
        with pytest.raises(DomainError):
            principal_eigenvalue(couette_band, 1.0, -0.5)

    def test_rejects_singular_nonmonotone(self):
        band = band_extrema(Kolmogorov(), math.pi)
        with pytest.raises(UnsupportedSingularityError):
            principal_eigenvalue(band, 1.0, band.u0_min)

    def test_nonmonotone_regular_case_allowed(self):
        band = band_extrema(Kolmogorov(), math.pi)
        res = principal_eigenvalue(band, 1.0, -2.0)
        assert math.isfinite(res.lambda1)

    def test_ladder_exhaustion_raises_with_iterates(self, couette_band, monkeypatch):
        monkeypatch.setattr(qgwave.eigen, "_N_MAX", 1024)
        with pytest.raises(ConvergenceError) as err:
            principal_eigenvalue(couette_band, 1.0, -1.0, tol=1e-16)
        assert len(err.value.last_iterates) == 2

    def test_ladder_failure_message_states_ratio(self, couette_band, monkeypatch):
        # the ladder stops at _N_MAX = 2^14; its last three rungs, re-solved
        # on their own, give the raw ratio and the last extrapolate difference
        beta, c = 30.0, couette_band.u0_min - 1e-6
        monkeypatch.setattr(qgwave.eigen, "_N_MAX", 2**14)
        with pytest.raises(ConvergenceError) as err:
            principal_eigenvalue(couette_band, beta, c, tol=1e-8)
        rungs = principal_eigenvalue(couette_band, beta, c, tol=math.inf, n_start=2**12)
        (_, a), (_, b), (_, z) = rungs.history
        msg = str(err.value)
        assert "N=16384" in msg
        assert f"{(b - a) / (z - b):.6g}" in msg
        assert f"{rungs.est_error:.3g}" in msg

    def test_eigvec_positive_normalized(self, couette_band):
        res = principal_eigenvalue(couette_band, 1.0, -1.0)
        vec = res.eigvec
        assert vec is not None and len(vec) == res.n_used
        # no sign change in the discrete ground state
        big = np.abs(vec) > 1e-12 * np.max(np.abs(vec))
        assert np.all(vec[big] > 0)
        h = 2.0 * couette_band.d / (res.n_used + 1)
        assert h * float(vec @ vec) == pytest.approx(1.0, rel=1e-12)

    def test_est_error_decreases_on_smooth_case(self, couette_band):
        res = principal_eigenvalue(couette_band, 3.0, -2.0, tol=1e-9)
        lams = [lam for _, lam in res.history]
        diffs = [abs(lams[i + 1] - lams[i]) for i in range(len(lams) - 1)]
        assert all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
        assert res.est_error < 1e-9

    def test_reflection_invariance(self):
        up = band_extrema(LinearProfile(2.0, 3.0), 1.0)
        down = band_extrema(LinearProfile(-2.0, 3.0), 1.0)
        for beta, c in ((1.0, up.u0_min), (4.0, up.u0_min - 0.5)):
            lam_up = principal_eigenvalue(up, beta, c, want_vector=False).lambda1
            lam_down = principal_eigenvalue(down, beta, c, want_vector=False).lambda1
            assert lam_up == lam_down

    def test_variational_upper_bound(self, couette_band):
        # the Rayleigh quotient of any trial function bounds lambda1 above
        tol = 1e-6
        for beta, c in ((1.0, -1.0), (4.0, -1.3)):
            res = principal_eigenvalue(couette_band, beta, c, tol=tol, want_vector=False)
            n = 200001
            h = 2.0 / (n - 1)
            y = np.linspace(-1.0, 1.0, n)[1:-1]
            phi = np.sin(math.pi * (y + 1.0) / 2.0)
            dphi = (math.pi / 2.0) * np.cos(math.pi * (y + 1.0) / 2.0)
            V = -beta / (y - c)
            num = h * float(dphi @ dphi) + h * float(V @ (phi * phi))
            den = h * float(phi @ phi)
            assert num / den >= res.lambda1 - 10 * tol


def _eigh_tridiagonal_rung(coeffs, d, n):
    """A rung as scipy.linalg.eigh_tridiagonal(select="i") solves it."""
    from scipy.linalg import eigh_tridiagonal

    h = 2.0 * d / n
    s, sv = coeffs(-d + h * np.arange(1, n))
    root_s = np.sqrt(s)
    _, vecs = eigh_tridiagonal(
        2.0 * s / (h * h) + sv,
        -(root_s[:-1] * root_s[1:]) / (h * h),
        select="i",
        select_range=(0, 0),
    )
    vec = root_s * vecs[:, 0]
    lam = qgwave.eigen._rayleigh_quotient(vec, sv / s, h, 1.0 / s)
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return lam, vec / math.sqrt(h * float(np.sum(vec * vec)))


def _lambda1_coeffs(band, beta, c):
    """The lambda1 rung's coefficients (1, V)."""
    u = qgwave.eigen._oriented_profile(band, beta, c)

    def coeffs(y):
        u0, _, u0pp = u(y)
        return np.ones_like(y), -(beta - u0pp) / (u0 - c)

    return coeffs


def _pencil_coeffs(band):
    """The beta_crit rung's coefficients (u0 - u0_min, u0'')."""
    u = qgwave.eigen._oriented_profile(band, 0.0, band.u0_min)

    def coeffs(y):
        u0, _, u0pp = u(y)
        return u0 - band.u0_min, u0pp

    return coeffs


class TestLambda1Reference:
    """principal_eigenvalue against Chebyshev collocation (tests/_oracles.py)."""

    def test_reference_meets_closed_forms(self, couette_band):
        assert lambda1_reference(couette_band, 2.0, couette_band.u0_min) == pytest.approx(
            -0.25, abs=1e-11)
        assert lambda1_reference(couette_band, 0.0, -2.0) == pytest.approx(
            math.pi**2 / 4.0, abs=1e-11)
        assert lambda1_reference(couette_band, BESSEL_BETA_CRIT, couette_band.u0_min) == (
            pytest.approx(0.0, abs=1e-11))

    def test_error_within_est_error_on_seeded_bands(self):
        checked, failures = 0, []
        for band, beta, c, tol in _seeded_lambda1_cases():
            assert band.monotone
            try:
                ref = lambda1_reference(band, beta, c)
            except ValueError:  # the reference itself has not converged
                continue
            res = principal_eigenvalue(band, beta, c, tol=tol, want_vector=False)
            if abs(res.lambda1 - ref) > res.est_error + 1e-11 * (1.0 + abs(ref)):
                failures.append((band.profile.spec(), band.d, beta, c, tol, res.lambda1, ref))
            checked += 1
        assert failures == []
        assert checked >= 290


class TestLapackKernel:
    """The direct dstebz + dstein rung against scipy's eigh_tridiagonal."""

    @pytest.mark.parametrize("n", [2, 3, 256, 4096])
    @pytest.mark.parametrize(
        "case", ["couette_singular", "kolmogorov_regular", "couette_pencil", "parabola_pencil"]
    )
    def test_rung_bit_equal_to_eigh_tridiagonal(self, couette_band, case, n):
        if case == "couette_singular":
            band, coeffs = couette_band, _lambda1_coeffs(couette_band, 5.0, couette_band.u0_min)
        elif case == "kolmogorov_regular":
            band = band_extrema(Kolmogorov(), 1.2)
            coeffs = _lambda1_coeffs(band, 0.3, -1.5)
        elif case == "couette_pencil":
            band, coeffs = couette_band, _pencil_coeffs(couette_band)
        else:
            band = band_extrema(ConcaveParabola(9.0), 3.0)
            coeffs = _pencil_coeffs(band)
        lam, vec = qgwave.eigen._rung(coeffs, band.d, n)
        lam_ref, vec_ref = _eigh_tridiagonal_rung(coeffs, band.d, n)
        assert lam == lam_ref
        assert vec.tobytes() == vec_ref.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [2, 256])
    def test_nonfinite_potential_raises_as_scipy_did(self, bad, n):
        def coeffs(y):
            out = np.zeros_like(y)
            out[-1] = bad
            return np.ones_like(y), out

        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            _eigh_tridiagonal_rung(coeffs, 1.0, n)
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            qgwave.eigen._rung(coeffs, 1.0, n)

    @pytest.mark.parametrize("failure", ["no_extension_file", "load_error"])
    def test_falls_back_to_scipy_linalg_lapack(self, couette_band, monkeypatch, failure):
        from importlib import machinery

        from scipy.linalg import lapack

        assert qgwave.eigen._lapack().__name__ == "scipy.linalg._flapack"
        direct = principal_eigenvalue(couette_band, 2.0, -1.0, tol=1e-8)
        if failure == "no_extension_file":

            class NoFile(machinery.FileFinder):
                def find_spec(self, fullname, target=None):
                    return None

            monkeypatch.setattr(machinery, "FileFinder", NoFile)
        else:

            class Broken(machinery.ExtensionFileLoader):
                def exec_module(self, module):
                    raise ImportError("simulated load failure")

            monkeypatch.setattr(machinery, "ExtensionFileLoader", Broken)
        qgwave.eigen._lapack.cache_clear()
        try:
            assert qgwave.eigen._lapack() is lapack
            res = principal_eigenvalue(couette_band, 2.0, -1.0, tol=1e-8)
        finally:
            monkeypatch.undo()
            qgwave.eigen._lapack.cache_clear()
        assert (res.lambda1, res.est_error, res.n_used, res.history) == (
            direct.lambda1, direct.est_error, direct.n_used, direct.history)
        assert res.eigvec.tobytes() == direct.eigvec.tobytes()


class TestMonotonicityAndContinuity:
    def test_strictly_decreasing_in_beta(self, couette_band):
        bands = [couette_band, band_extrema(ConcaveParabola(7.0), 1.0)]
        for band in bands:
            for c in (band.u0_min, band.u0_min - 1.0):
                lams = [
                    principal_eigenvalue(band, b, c, want_vector=False).lambda1
                    for b in (0.0, 0.5, 1.0, 2.0, 4.0)
                ]
                assert all(lams[i] > lams[i + 1] for i in range(len(lams) - 1))

    def test_continuity_in_beta(self, couette_band):
        beta = 1.0
        base = principal_eigenvalue(couette_band, beta, -1.0, tol=1e-9, want_vector=False).lambda1
        diffs = []
        for delta in (1e-2, 1e-3, 1e-4):
            lam = principal_eigenvalue(
                couette_band, beta + delta, -1.0, tol=1e-9, want_vector=False
            ).lambda1
            diffs.append(abs(lam - base))
        assert diffs[0] > diffs[1] > diffs[2]
        # proportional decrease: each tenfold delta cut shrinks the move ~10x
        assert diffs[0] / diffs[1] == pytest.approx(10.0, rel=0.3)
        assert diffs[1] / diffs[2] == pytest.approx(10.0, rel=0.3)

    def test_continuity_in_profile(self, couette_band):
        # y + eps * y^3 / 6 stays monotone on [-1, 1]; lambda1 moves by O(eps)
        base = principal_eigenvalue(couette_band, 1.0, -1.0, tol=1e-9, want_vector=False).lambda1
        moves = []
        for eps in (1e-1, 1e-2, 1e-3):
            prof = Polynomial((0.0, 1.0, 0.0, eps / 6.0))
            band = band_extrema(prof, 1.0)
            lam = principal_eigenvalue(band, 1.0, band.u0_min, tol=1e-9, want_vector=False).lambda1
            moves.append(abs(lam - base))
        assert moves[0] > moves[1] > moves[2]
        assert moves[0] / moves[1] == pytest.approx(10.0, rel=0.35)

    def test_far_speed_limit(self):
        for d in (1.0, 2.0):
            band = band_extrema(couette(), d)
            lam = principal_eigenvalue(
                band, 3.0, band.u0_min - 1e6, want_vector=False
            ).lambda1
            assert lam == pytest.approx(math.pi**2 / (4 * d * d), abs=1e-3)

    def test_speed_limit_toward_minimum(self, couette_band):
        beta = 4.0
        lam_sing = principal_eigenvalue(
            couette_band, beta, -1.0, tol=1e-8, want_vector=False
        ).lambda1
        errs = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            lam = principal_eigenvalue(
                couette_band, beta, -1.0 - delta, tol=1e-8, want_vector=False
            ).lambda1
            errs.append(abs(lam - lam_sing))
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))

    def test_positive_at_beta_zero(self):
        bands = [
            band_extrema(couette(), 1.0),
            band_extrema(LinearProfile(2.0, 3.0), 1.0),
            band_extrema(ConcaveParabola(7.0), 1.0),
        ]
        for band in bands:
            lam = principal_eigenvalue(band, 0.0, band.u0_min, want_vector=False).lambda1
            assert lam > 0.0


class TestCriticalBeta:
    def test_couette_matches_reference_and_oracle(self, couette_band):
        bc = critical_beta(couette_band, tol=1e-4)
        assert bc == pytest.approx(1.8352, abs=2e-3)
        assert bc == pytest.approx(BESSEL_BETA_CRIT, abs=1e-3)

    def test_linear_scaling(self):
        band = band_extrema(LinearProfile(2.0, 3.0), 1.0)
        assert critical_beta(band, tol=1e-4) == pytest.approx(2 * 1.8352, abs=4e-3)

    def test_parabola_table_entry(self):
        band = band_extrema(ConcaveParabola(9.0), 3.0)
        assert critical_beta(band, tol=1e-4) == pytest.approx(5.8648, abs=2e-2)
        assert abs(critical_beta(band, tol=1e-10) - critical_beta_reference(band)) <= 1e-10

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    @pytest.mark.parametrize(
        "profile,d",
        SEEDED_BANDS,
        ids=[f"{p.spec().split(':')[0]}{i}" for i, (p, _) in enumerate(SEEDED_BANDS)],
    )
    def test_matches_chebyshev_reference(self, profile, d, rel_tol):
        band = band_extrema(profile, d)
        assert band.monotone
        ref = critical_beta_reference(band)
        tol = rel_tol * ref
        assert abs(critical_beta(band, tol=tol) - ref) <= tol

    def test_rejects_nonmonotone(self):
        with pytest.raises(DomainError):
            critical_beta(band_extrema(Kolmogorov(), math.pi))

    def test_decreasing_profile_same_value(self):
        up = critical_beta(band_extrema(LinearProfile(2.0, 0.0), 1.0), tol=1e-5)
        down = critical_beta(band_extrema(LinearProfile(-2.0, 0.0), 1.0), tol=1e-5)
        assert up == pytest.approx(down, abs=2e-5)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_one_ladder_within_tol(self, couette_band, monkeypatch, tol):
        # beta_crit is the smallest eigenvalue of one symmetrized pencil per
        # rung: no principal_eigenvalue solve, and one short ladder
        calls, rungs = [], []
        solve, rung = qgwave.eigen.principal_eigenvalue, qgwave.eigen._rung

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        def counted_rung(*args):
            rungs.append(args[-1])
            return rung(*args)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", counted)
        monkeypatch.setattr(qgwave.eigen, "_rung", counted_rung)
        bc = critical_beta(couette_band, tol=tol)
        assert abs(bc - BESSEL_BETA_CRIT) <= tol
        assert calls == []
        if tol >= 1e-8:
            assert len(rungs) <= 4

    def test_nonpositive_pencil_eigenvalue_raises(self, couette_band, monkeypatch):
        # by Sylvester's law of inertia the pencil's smallest eigenvalue is
        # <= 0 exactly when lambda1(0, u0_min) <= 0
        rung = qgwave.eigen._rung

        def shifted(*args):
            lam, phi = rung(*args)
            return lam - 10.0, phi

        monkeypatch.setattr(qgwave.eigen, "_rung", shifted)
        with pytest.raises(ConvergenceError, match="lambda1\\(0, u0_min\\) <= 0"):
            critical_beta(couette_band, tol=1e-6)


class TestInfOverC:
    def test_endpoint_bound(self, couette_band):
        tol = 1e-6
        inf_val = lambda_inf_over_c(couette_band, 1.0, tol=tol).lambda1
        end = principal_eigenvalue(couette_band, 1.0, -1.0, tol=tol, want_vector=False).lambda1
        assert inf_val <= end + 5 * tol

    def test_flat_curve_at_beta_zero(self, couette_band):
        inf_val = lambda_inf_over_c(couette_band, 0.0, tol=1e-6).lambda1
        assert inf_val == pytest.approx(math.pi**2 / 4.0, abs=1e-5)

    @pytest.mark.parametrize(
        "profile,d,beta,span",
        [
            # beta >= max u0'': lambda1 is concave and non-increasing in c,
            # so the infimum sits at c = u0_min
            (couette(), 1.0, 1.0, 100.0),
            # beta < max u0'': interior minimum near u0_min - 0.2, below both
            # lambda1(u0_min) and the c -> -inf limit pi^2/(4 d^2)
            (Kolmogorov(), 1.2, 0.3, 0.5),
        ],
        ids=["couette", "kolmogorov-interior"],
    )
    def test_matches_dense_scan(self, profile, d, beta, span):
        band = band_extrema(profile, d)
        tol = 1e-6
        res = lambda_inf_over_c(band, beta, tol=tol)
        inf_val, argmin_c = res.lambda1, res.c
        cs = np.linspace(band.u0_min - span, band.u0_min, 400)
        scan = min(
            principal_eigenvalue(band, beta, float(c), tol=tol, want_vector=False).lambda1
            for c in cs
        )
        assert abs(inf_val - scan) <= 5 * tol
        if band.u0pp_max > beta:
            assert argmin_c < band.u0_min

    @pytest.mark.parametrize(
        "profile,d,beta",
        [(couette(), 1.0, 5.0), (couette(), 1.0, 0.0), (Kolmogorov(), 1.2, 1.0)],
        ids=["couette-beta5", "couette-beta0", "kolmogorov-beta1"],
    )
    def test_one_solve_when_beta_above_max_curvature(self, profile, d, beta, monkeypatch):
        # beta >= max u0'': lambda1 is non-increasing in c, so the infimum is
        # the endpoint value and no sampling is needed
        band = band_extrema(profile, d)
        assert beta >= band.u0pp_max
        tol = 1e-6
        end = principal_eigenvalue(band, beta, band.u0_min, tol=tol / 4, want_vector=False)
        calls = []
        real = qgwave.eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", counted)
        res = lambda_inf_over_c(band, beta, tol=tol)
        assert (res.lambda1, res.c) == (end.lambda1, band.u0_min)
        assert calls == [band.u0_min]

    def test_minimum_at_u0_min_below_max_curvature(self, monkeypatch):
        # beta = 1 < max u0'' = 4.4, yet lambda1 rises from c = u0_min on: the walk
        # ends at the Weyl depth, and the slope at u0_min brackets nothing
        band = band_extrema(Polynomial((0.0, 1.0, 1.0, 0.4)), 1.0)
        assert band.u0pp_max > 1.0
        calls = []
        real = qgwave.eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", counted)
        res = lambda_inf_over_c(band, 1.0, tol=1e-6)
        assert res.c == band.u0_min
        assert len(calls) <= 15

    def test_dirichlet_limit_when_curvature_exceeds_beta(self):
        # u0'' = 1 > beta = 0.5 makes the potential positive, so lambda1 falls
        # towards its c -> -inf limit pi^2/(4 d^2) and never reaches it
        band = band_extrema(Polynomial((0.0, 1.0, 0.5)), 0.9)
        tol = 1e-6
        res = lambda_inf_over_c(band, 0.5, tol=tol)
        assert abs(res.lambda1 - math.pi**2 / (4.0 * 0.81)) <= tol

    def test_walk_short_of_weyl_depth_raises(self, monkeypatch):
        # values that stay above pi^2/(4 d^2) + tol leave the Weyl depth infinite
        band = band_extrema(Kolmogorov(), 1.2)
        end = principal_eigenvalue(band, 0.3, band.u0_min)
        calls = []

        def above_limit(band, beta, c, **kwargs):
            calls.append(c)
            return end._replace(lambda1=10.0, c=c)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", above_limit)
        with pytest.raises(ConvergenceError, match="after 80 points"):
            lambda_inf_over_c(band, 0.3)
        assert len(calls) == 81

    @pytest.mark.parametrize(
        "profile,d,beta",
        [
            (Kolmogorov(), 1.2, 0.3),
            (Polynomial((0.0, 1.0, 1.0, 0.4)), 1.0, 1.0),
            (Polynomial((0.0, 1.0, 0.5)), 0.9, 0.5),
        ],
        ids=["kolmogorov-interior", "cubic-at-u0min", "dirichlet-limit"],
    )
    def test_walk_stops_at_first_point_past_weyl_depth(self, profile, d, beta, monkeypatch):
        band = band_extrema(profile, d)
        tol = 1e-6
        solves = []
        real = qgwave.eigen.principal_eigenvalue

        def recorded(*args, **kwargs):
            solves.append(real(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", recorded)
        lambda_inf_over_c(band, beta, tol=tol)
        walk = [0.0] + [1e-4 * 2.0**k for k in range(80)]
        n = 0  # the walk is the leading run of solves at c = u0_min - walk[k]
        while n < len(solves) and solves[n].c == band.u0_min - walk[n]:
            n += 1

        def depth(k):  # the Weyl depth after the first k walk solves
            best = min(res.lambda1 for res in solves[:k])
            return qgwave.eigen._weyl_depth(band, beta, best - tol)

        assert all(walk[k] < depth(k) for k in range(1, n))
        assert walk[n] >= depth(n)


class TestWaveSpeedRoot:
    def test_root_found_and_certified(self, couette_band):
        beta, tol = 10.0, 1e-4
        lam_end = principal_eigenvalue(couette_band, beta, -1.0, want_vector=False).lambda1
        assert lam_end < 0.0
        L = 1.2 * 2.0 * math.pi / math.sqrt(-lam_end)
        c_L = wave_speed_root(couette_band, beta, L, tol=tol).c
        assert c_L < -1.0
        lam = principal_eigenvalue(couette_band, beta, c_L, tol=tol / 4, want_vector=False).lambda1
        assert abs(lam + (2 * math.pi / L) ** 2) < tol

    def test_no_root_below_transition(self, couette_band):
        with pytest.raises(NoRootError) as err:
            wave_speed_root(couette_band, 1.0, 10.0)
        assert err.value.lambda_end > err.value.target

    def test_boundary_target_returns_minimum(self, couette_band):
        beta = 10.0
        lam_end = principal_eigenvalue(
            couette_band, beta, -1.0, tol=1e-8, want_vector=False
        ).lambda1
        L = 2.0 * math.pi / math.sqrt(-lam_end)
        c_L = wave_speed_root(couette_band, beta, L, tol=1e-4).c
        assert c_L == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    def test_newton_few_solves_within_tol(self, couette_band, monkeypatch, tol):
        calls = []
        solve = qgwave.eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", counted)
        res = wave_speed_root(couette_band, 10.0, 4.0, tol=tol)
        assert abs(res.lambda1 + (2 * math.pi / 4.0) ** 2) <= tol
        assert res.c == calls[-1] < -1.0
        assert len(calls) <= 10
        # lambda1 >= -(2 pi / L)^2 past the Weyl depth, so no solve goes there
        depth = qgwave.eigen._weyl_depth(couette_band, 10.0, -((2 * math.pi / 4.0) ** 2))
        assert all(-1.0 - depth < c <= -1.0 for c in calls)

    @pytest.mark.parametrize(
        "L,c_bisect",
        [(2.0, -0.5119918823242187), (4.0, -0.7206939697265624), (10.0, -1.00308837890625)],
    )
    def test_matches_bisection_without_concavity(self, L, c_bisect, monkeypatch):
        # beta = 4.268 < max u0'' = 4.4, so lambda1 need not be concave in c;
        # c_bisect is the root of bracket expansion and bisection at tol 1e-4
        band = band_extrema(Polynomial([0.0, 1.0, 1.0, 0.4]), 1.0)
        assert band.u0pp_max > 4.268
        calls = []
        solve = qgwave.eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", counted)
        res = wave_speed_root(band, 4.268, L, tol=1e-4)
        assert abs(res.lambda1 + (2 * math.pi / L) ** 2) <= 1e-4
        assert res.c == pytest.approx(c_bisect, abs=1e-3)
        depth = qgwave.eigen._weyl_depth(band, 4.268, -((2 * math.pi / L) ** 2))
        assert all(band.u0_min - depth < c <= band.u0_min for c in calls)

    @pytest.mark.parametrize(
        "slope",
        [
            # a zero or wrong-sign slope: every step bisects the interval
            # from u0_min to the Weyl depth of the target
            lambda true_slope: 0.0,
            lambda true_slope: -true_slope,
            # a slope 5x too shallow: Newton steps overshoot the root, which
            # moves the far end in; later ones leave the interval (bisection)
            # or land inside it from the far side
            lambda true_slope: 0.2 * true_slope,
        ],
        ids=["zero", "wrong-sign", "shallow"],
    )
    def test_safeguards_still_find_root(self, couette_band, monkeypatch, slope):
        tol = 1e-6
        ref = wave_speed_root(couette_band, 10.0, 4.0, tol=tol)
        slopes = qgwave.eigen._c_slope
        calls = []
        solve = qgwave.eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            res = solve(*args, **kwargs)
            calls.append((res.c, res.lambda1 + (2 * math.pi / 4.0) ** 2))
            return res

        def patched(band, res):
            return slope(slopes(band, res))

        monkeypatch.setattr(qgwave.eigen, "_c_slope", patched)
        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", counted)
        res = wave_speed_root(couette_band, 10.0, 4.0, tol=tol)
        assert abs(res.lambda1 + (2 * math.pi / 4.0) ** 2) <= 0.75 * tol
        assert res.c == pytest.approx(ref.c, abs=1e-6)
        assert max(f for _, f in calls) > 0.0  # some iterate passed the root: a far end moved in
        depth = qgwave.eigen._weyl_depth(couette_band, 10.0, -((2 * math.pi / 4.0) ** 2))
        assert all(-1.0 - depth < c <= -1.0 for c, _ in calls)

    def test_search_past_bound_raises(self, couette_band, monkeypatch):
        # a target no solve reaches, with no usable slope: every step bisects
        # inside (0, Weyl depth) until no float is left between the ends,
        # and the loop stops there rather than re-solve an end
        end = principal_eigenvalue(couette_band, 10.0, -1.0)
        depth = qgwave.eigen._weyl_depth(couette_band, 10.0, -((2 * math.pi / 4.0) ** 2))
        calls = []

        def never_reaches(band, beta, c, **kwargs):
            calls.append(c)
            return end._replace(lambda1=-1e6, c=c)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", never_reaches)
        monkeypatch.setattr(qgwave.eigen, "_c_slope", lambda band, res: 0.0)
        with pytest.raises(ConvergenceError, match="holds no float between its ends"):
            wave_speed_root(couette_band, 10.0, 4.0)
        assert len(set(calls)) == len(calls) == 53
        assert calls[1:3] == [-1.0 - 0.5 * depth, -1.0 - 0.5 * (0.5 * depth + depth)]
        assert all(-1.0 - depth <= c <= -1.0 for c in calls)


class TestBoundaryCurve:
    def test_below_transition_all_infinite(self, couette_band):
        pts = boundary_curve(couette_band, 0.0, 1.8, 5)
        assert all(p.L_crit is None and p.lambda1_at_u0min > 0 for p in pts)

    def test_above_transition_decreasing(self, couette_band):
        pts = boundary_curve(couette_band, 2.0, 10.0, 5)
        lcs = [p.L_crit for p in pts]
        assert all(lc is not None for lc in lcs)
        assert all(lcs[i] > lcs[i + 1] for i in range(len(lcs) - 1))

    def test_ordered_by_beta(self, couette_band):
        pts = boundary_curve(couette_band, 0.5, 3.0, 6)
        betas = [p.beta for p in pts]
        assert betas == sorted(betas)
        assert len(betas) == 6

    def test_curves_approach_at_large_beta(self):
        # linear profile on three band widths: critical wavelengths bunch up
        # (|lambda1| grows like beta^2, so the tolerance follows that scale)
        spreads = []
        for beta in (6.0, 40.0):
            lcs = []
            for d in (1.0, 2.0, 3.0):
                band = band_extrema(LinearProfile(2.0, 3.0), d)
                lam = principal_eigenvalue(
                    band, beta, band.u0_min, tol=1e-3, want_vector=False
                ).lambda1
                assert lam < 0
                lcs.append(2.0 * math.pi / math.sqrt(-lam))
            spreads.append(max(lcs) - min(lcs))
        assert spreads[1] < 0.25 * spreads[0]

    def test_rejects_bad_range(self, couette_band):
        with pytest.raises(DomainError):
            boundary_curve(couette_band, 2.0, 1.0, 5)
        with pytest.raises(DomainError):
            boundary_curve(couette_band, 1.0, 2.0, 1)

    def test_per_point_errors_flagged_not_raised(self):
        # a non-monotone band makes every singular solve fail; the sweep
        # must flag each point and keep going
        band = band_extrema(Kolmogorov(), math.pi)
        pts = boundary_curve(band, 1.0, 2.0, 3)
        assert len(pts) == 3
        assert all(p.error is not None and p.lambda1_at_u0min is None for p in pts)

    def test_programming_errors_propagate(self, couette_band, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a solver failure")

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", broken)
        with pytest.raises(TypeError):
            boundary_curve(couette_band, 1.0, 2.0, 3)


class TestScalingIdentity:
    def test_identity_trivial_at_unit_scale(self, couette_band):
        lhs, rhs = scaling_check(couette_band, 1.0, 2.0, -1.5)
        assert lhs == rhs

    def test_half_scale(self, couette_band):
        tol = 1e-6
        lhs, rhs = scaling_check(couette_band, 0.5, 4.0, -1.0, tol=tol)
        assert abs(lhs - rhs) < 10 * tol

    def test_singular_edge_near_transition(self, couette_band):
        # c = a * u0_min with beta = a * beta_crit lands on the scaled
        # transition, so both sides sit at the zero crossing
        a = 0.9
        lhs, rhs = scaling_check(couette_band, a, a * BESSEL_BETA_CRIT, -a, tol=1e-7)
        assert abs(lhs) < 1e-4 and abs(rhs) < 1e-4

    def test_rejects_bad_scale_or_speed(self, couette_band):
        with pytest.raises(DomainError):
            scaling_check(couette_band, 1.5, 1.0, -2.0)
        with pytest.raises(DomainError):
            scaling_check(couette_band, 0.5, 1.0, -0.25)
