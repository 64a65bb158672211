"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from qgwave import (
    ConcaveParabola,
    Kolmogorov,
    LinearProfile,
    band_extrema,
    classify,
    couette,
    critical_beta,
    diagnostics,
    laplacian,
    lambda_inf_over_c,
    principal_eigenvalue,
)
from qgwave.cli import main
from qgwave.flows import (
    MIN_CRITICAL_BETA0,
    Example31Params,
    GrsParams,
    make_grs_vortex,
    make_inflection_wave,
    make_kolmogorov_perturbed,
    make_min_critical_wave,
)
from qgwave.planets import jupiter_band_case, saturn_polar_case

from _oracles import scaling_check

PARABOLA_TABLE = {
    (7, 1): 13.2496,
    (7, 2): 6.7922,
    (7, 3): 4.6236,
    (8, 1): 15.0898,
    (8, 2): 7.7176,
    (8, 3): 5.2450,
    (9, 1): 16.9289,
    (9, 2): 8.6416,
    (9, 3): 5.8648,
}


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} {detail}"


def test_criterion_01_couette_transitional_beta(capsys):
    t0 = time.perf_counter()
    code = main(["critical-beta", "--profile", "couette", "--d", "1", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    value = json.loads(out)["beta_crit"]
    with capsys.disabled():
        _report(
            1,
            "couette transitional beta = 1.8352 +- 2e-3 in under 1 s",
            code == 0 and abs(value - 1.8352) <= 2e-3 and elapsed < 1.0,
            f"value={value:.6f}, runtime={elapsed:.3f}s",
        )


def test_criterion_02_parabolic_table():
    t0 = time.perf_counter()
    worst = 0.0
    for (b, d), expected in PARABOLA_TABLE.items():
        band = band_extrema(ConcaveParabola(float(b), 0.0), float(d))
        value = critical_beta(band, tol=1e-4)
        worst = max(worst, abs(value - expected))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "all nine parabolic transitional-beta entries within 2e-2 in under 20 s",
        worst <= 2e-2 and elapsed < 20.0,
        f"worst |delta|={worst:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_03_linear_scaling_law():
    seed = critical_beta(band_extrema(couette(), 1.0), tol=1e-5)
    worst = 0.0
    for d in (1.0, 2.0, 3.0):
        direct = critical_beta(band_extrema(LinearProfile(2.0, 3.0), d), tol=1e-5)
        scaled = (2.0 / d) * seed
        worst = max(worst, abs(direct - scaled) / scaled)
    _report(
        3,
        "linear profile transitional beta matches (a/d) scaling within 0.5%",
        worst <= 5e-3,
        f"worst rel delta={worst:.2e}",
    )


def test_criterion_04_eigenvalue_scaling_identity():
    rng = np.random.default_rng(20240809)
    bands = [band_extrema(couette(), 1.0), band_extrema(ConcaveParabola(7.0, 0.5), 1.0)]
    worst = 0.0
    for band in bands:
        for _ in range(10):
            a = float(rng.uniform(0.2, 1.0))
            beta = float(rng.uniform(0.3, 6.0))
            c = a * band.u0_min - float(rng.uniform(0.05, 3.0))
            lhs, rhs = scaling_check(band, a, beta, c, tol=1e-9)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    _report(
        4,
        "scaled-profile eigenvalue identity holds to 1e-8 relative on 20 draws",
        worst <= 1e-8,
        f"worst rel delta={worst:.2e}",
    )


def test_criterion_05_wave_speed_limits():
    far_ok = True
    detail = []
    for d in (1.0, 2.0):
        band = band_extrema(couette(), d)
        lam = principal_eigenvalue(band, 3.0, band.u0_min - 1e6, want_vector=False).lambda1
        err = abs(lam - math.pi**2 / (4 * d * d))
        detail.append(f"d={d}: far-limit err={err:.1e}")
        far_ok = far_ok and err <= 1e-3

    band = band_extrema(couette(), 1.0)
    lam_end = principal_eigenvalue(band, 4.0, -1.0, tol=1e-8, want_vector=False).lambda1
    errs = [
        abs(
            principal_eigenvalue(band, 4.0, -1.0 - delta, tol=1e-8, want_vector=False).lambda1
            - lam_end
        )
        for delta in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    monotone = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    detail.append("approach errs=" + ",".join(f"{e:.1e}" for e in errs))
    _report(
        5,
        "far-speed limit pi^2/(4d^2) to 1e-3 and monotone approach to the singular value",
        far_ok and monotone,
        "; ".join(detail),
    )


def test_criterion_06_positivity_and_monotonicity():
    suite = [
        band_extrema(couette(), 1.0),
        band_extrema(LinearProfile(2.0, 3.0), 2.0),
        band_extrema(ConcaveParabola(7.0), 1.0),
        band_extrema(ConcaveParabola(9.0), 3.0),
    ]
    positive = all(
        principal_eigenvalue(band, 0.0, band.u0_min, want_vector=False).lambda1 > 0.0
        for band in suite
    )
    decreasing = True
    for band in (suite[0], suite[2]):
        lams = [
            principal_eigenvalue(band, float(b), band.u0_min, want_vector=False).lambda1
            for b in (0, 1, 2, 4, 8, 16)
        ]
        decreasing = decreasing and all(lams[i] > lams[i + 1] for i in range(len(lams) - 1))
    _report(
        6,
        "lambda1(0, u0_min) > 0 on the monotone suite; strictly decreasing in beta",
        positive and decreasing,
    )


def test_criterion_07_zero_potential_sanity():
    band = band_extrema(couette(), 1.0)
    worst = 0.0
    for c in (-1.5, -2.0, -10.0):
        res = principal_eigenvalue(band, 0.0, c)
        worst = max(worst, abs(res.lambda1 - math.pi**2 / 4.0))
    _report(
        7,
        "couette with beta=0 gives the Dirichlet eigenvalue to 1e-8 after extrapolation",
        worst <= 1e-8,
        f"worst err={worst:.1e}",
    )


def test_criterion_08_classification_of_examples():
    ok = True
    detail = []
    for nx, ny in ((128, 65), (256, 129)):
        rep = classify(make_min_critical_wave(MIN_CRITICAL_BETA0, nx, ny))
        case_ok = (
            rep.category_extremum
            and rep.category_critical
            and not rep.category_outside
            and rep.theorem_consistent
        )
        ok = ok and case_ok
        detail.append(f"{nx}x{ny} beta0:{'+' if case_ok else '-'}")

        rep = classify(make_min_critical_wave(2 * MIN_CRITICAL_BETA0, nx, ny))
        case_ok = (
            rep.categories() == ("outside",)
            and rep.c_beta_plus < rep.c < rep.u_min
            and rep.theorem_consistent
        )
        ok = ok and case_ok
        detail.append(f"2beta0:{'+' if case_ok else '-'}")

        rep = classify(make_kolmogorov_perturbed(0.1, nx, ny))
        case_ok = rep.categories() == ("inflection",) and rep.theorem_consistent
        ok = ok and case_ok
        detail.append(f"kolmogorov:{'+' if case_ok else '-'}")
    _report(
        8,
        "analytic examples classify as {extremum, critical} / {outside} / {inflection}",
        ok,
        " ".join(detail),
    )


def test_criterion_09_residual_convergence():
    ok = True
    detail = []
    makers = {
        "inflection": lambda nx, ny: make_inflection_wave(Example31Params(beta=1.0), nx, ny),
        "min-critical": lambda nx, ny: make_min_critical_wave(MIN_CRITICAL_BETA0, nx, ny),
        "kolmogorov": lambda nx, ny: make_kolmogorov_perturbed(0.1, nx, ny),
    }
    for name, maker in makers.items():
        errs = []
        for nx in (64, 128, 256):
            errs.append(diagnostics(maker(nx, nx + 1)).residual_inf)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        case_ok = min(orders) >= 1.9
        ok = ok and case_ok
        detail.append(f"{name}: orders {orders[0]:.2f},{orders[1]:.2f}")

    wf = make_grs_vortex(GrsParams(), 256, 257, 4.0, 2.0, clip_radius=1.5)
    iy = 128
    u0 = abs(wf.u[iy, 0])
    lap0 = abs(laplacian(wf.u, wf.grid)[iy, 0])
    core_ok = u0 < 1e-6 and lap0 < 1e-6
    ok = ok and core_ok
    detail.append(f"vortex core |u|={u0:.1e} |lap u|={lap0:.1e}")
    _report(9, "residual order >= 1.9 on the example ladder; vortex core clean", ok, "; ".join(detail))


def test_criterion_10_planetary_worked_examples():
    jup = jupiter_band_case()
    sat = saturn_polar_case()
    routes_rel = abs(jup["beta_crit_scaling"] / jup["beta_crit_solver"] - 1.0)
    jup_ok = (
        abs(jup["beta"] - 129.0) <= 1.0
        and abs(jup["beta_crit_scaling"] - 1004.0) <= 10.0
        and abs(jup["beta_crit_solver"] - 1004.0) <= 10.0
        and routes_rel <= 1e-2
    )
    sat_ok = (
        abs(sat["beta"] - 46.0) <= 1.0
        and abs(sat["curvature_min"] - 175.0) <= 1.0
        and sat["rigidity_hypothesis_satisfied"]
    )
    _report(
        10,
        "jovian band (beta~129 < beta_crit~1004) and saturnian polar jet (beta~46 < 175)",
        jup_ok and sat_ok,
        f"jupiter beta={jup['beta']:.2f}, beta_crit={jup['beta_crit_solver']:.1f}, "
        f"routes rel delta={routes_rel:.1e}; saturn beta={sat['beta']:.2f}, "
        f"curvature={sat['curvature_min']:.2f}",
    )


def test_criterion_11_infimum_matches_dense_scan():
    tol = 1e-6
    cases = [
        (band_extrema(couette(), 1.0), 1.0),
        (band_extrema(couette(), 1.0), 5.0),
        (band_extrema(ConcaveParabola(7.0), 1.0), 5.0),
        # beta < max u0'': the walk to the Weyl depth and the slope halving
        (band_extrema(Kolmogorov(), 1.2), 0.3),
    ]
    worst = 0.0
    for band, beta in cases:
        inf_val = lambda_inf_over_c(band, beta, tol=tol).lambda1
        cs = np.linspace(band.u0_min - 100.0, band.u0_min, 2000)
        scan = min(
            principal_eigenvalue(band, beta, float(c), tol=tol, want_vector=False).lambda1
            for c in cs
        )
        worst = max(worst, abs(inf_val - scan))
    _report(
        11,
        "speed-infimum search matches a 2000-point dense scan within 5x tolerance",
        worst <= 5 * tol,
        f"worst |delta|={worst:.2e}",
    )
