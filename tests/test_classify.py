"""Wave-speed classification, speed bound, and the rigidity verdict."""

import importlib
import json
import math

import numpy as np
import pytest

from qgwave import (
    Bickley,
    ChannelGeometry,
    CouettePoiseuille,
    DomainError,
    Grid2D,
    Polynomial,
    WaveField,
    c_beta_plus,
    classify,
    couette,
    profile_rigidity_bound,
)
from qgwave.channel import laplacian
from qgwave.classify import _level_mask
from qgwave.flows import (
    MIN_CRITICAL_BETA0,
    Example31Params,
    GrsParams,
    make_grs_vortex,
    make_inflection_wave,
    make_kolmogorov_perturbed,
    make_min_critical_wave,
)

from _oracles import level_mask, rigidity_predicates, witnesses


def channel_grid(nx, ny):
    return Grid2D(nx, ny, ChannelGeometry(2 * math.pi, -1.0, 1.0))


def shear_field(profile, beta, grid=None, c=0.0):
    grid = grid or channel_grid(128, 65)
    _, Y = grid.mesh()
    u0 = profile.eval(Y[:, 0])[0]
    u = np.repeat(u0[:, None], grid.nx, axis=1)
    return WaveField(grid, u, np.zeros(grid.shape), c, beta)


# the oracle cases: three genuine waves and four shear flows
ORACLE_FIELDS = {
    "ex31": lambda: make_inflection_wave(Example31Params(beta=1.0), 128, 65),
    "ex32": lambda: make_min_critical_wave(MIN_CRITICAL_BETA0, 128, 65),
    "grs": lambda: make_grs_vortex(GrsParams(), 128, 129, 4.0, 2.0, clip_radius=1.5),
    "poiseuille_window": lambda: shear_field(CouettePoiseuille(0.0), beta=1.0),
    "f_plane_parabola": lambda: shear_field(Polynomial((0.0, 0.0, 1.0)), beta=0.0, c=-5.0),
    "couette_speed_gap": lambda: shear_field(couette(), beta=1.0, c=-99.0),
    "bickley": lambda: shear_field(
        Bickley(), beta=0.3, grid=Grid2D(128, 65, ChannelGeometry(2 * math.pi, -0.5, 0.5))
    ),
}


class TestSpeedBound:
    def test_beta_zero_returns_u_min(self):
        assert c_beta_plus(0.0, -1.0, 1.0, -0.3, 2.0) == -0.3

    def test_flat_range_collapse(self):
        # u_max = u_min: the square root collapses to beta
        beta, w = 1.7, 2.0
        val = c_beta_plus(beta, -1.0, 1.0, 0.5, 0.5)
        assert val == pytest.approx(0.5 - beta * w**2 / math.pi**2, rel=1e-14)

    def test_monotone_decreasing_in_beta(self):
        vals = [c_beta_plus(b, -1.0, 1.0, -1.0, 1.0) for b in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_rejects_negative_beta(self):
        with pytest.raises(DomainError):
            c_beta_plus(-0.1, -1.0, 1.0, 0.0, 1.0)

    def test_example_speed_sits_between_bound_and_minimum(self):
        wf = make_min_critical_wave(2 * MIN_CRITICAL_BETA0, 256, 129)
        rep = classify(wf)
        assert rep.c_beta_plus < wf.c < rep.u_min


class TestClassify:
    def test_min_critical_example_at_beta0(self):
        wf = make_min_critical_wave(MIN_CRITICAL_BETA0, 256, 129)
        rep = classify(wf)
        assert rep.genuine
        assert rep.category_extremum
        assert rep.category_critical
        assert not rep.category_outside
        assert rep.theorem_consistent
        # the stagnation point (pi, 1) must appear among the witnesses
        assert any(
            abs(w["x"] - math.pi) < 1e-9 and abs(w["y"] - 1.0) < 1e-9
            for w in rep.critical_witnesses
        )

    def test_min_critical_example_outside_range(self):
        wf = make_min_critical_wave(2 * MIN_CRITICAL_BETA0, 256, 129)
        rep = classify(wf)
        assert rep.categories() == ("outside",)
        assert rep.theorem_consistent

    def test_kolmogorov_perturbed_inflection_only(self):
        wf = make_kolmogorov_perturbed(0.1, 256, 129)
        rep = classify(wf)
        assert rep.genuine and rep.beta == 0.0
        assert rep.categories() == ("inflection",)
        assert rep.theorem_consistent
        # witnesses live on the centerline y = 0
        assert rep.inflection_count > 0
        assert all(abs(w["y"]) < 1e-9 for w in rep.inflection_witnesses)

    def test_inflection_example_consistent(self):
        wf = make_inflection_wave(Example31Params(beta=1.0), 256, 129)
        rep = classify(wf)
        assert rep.genuine and rep.category_inflection and rep.theorem_consistent

    def test_pure_shear_not_genuine(self):
        grid = channel_grid(64, 65)
        _, Y = grid.mesh()
        wf = WaveField(grid, np.sin(Y) * np.ones(grid.shape), np.zeros(grid.shape), 0.3, 1.0)
        rep = classify(wf)
        assert not rep.genuine
        assert rep.theorem_consistent  # vacuously

    def test_shear_from_zero_amplitude_wave(self):
        wf = make_inflection_wave(Example31Params(A=0.0, beta=1.0), 64, 65)
        assert not classify(wf).genuine

    def test_galilean_relabeling_invariance(self):
        wf = make_min_critical_wave(MIN_CRITICAL_BETA0, 128, 65)
        shifted = WaveField(wf.grid, wf.u + 5.0, wf.v, wf.c + 5.0, wf.beta)
        a = classify(wf)
        b = classify(shifted)
        assert a.categories() == b.categories()
        assert a.theorem_consistent == b.theorem_consistent

    def test_stable_under_grid_doubling(self):
        for beta in (MIN_CRITICAL_BETA0, 2 * MIN_CRITICAL_BETA0):
            cats = []
            for nx, ny in ((128, 65), (256, 129)):
                wf = make_min_critical_wave(beta, nx, ny)
                cats.append(classify(wf).categories())
            assert cats[0] == cats[1]

    @pytest.mark.parametrize("name", ["ex31", "ex32", "grs"])
    def test_witnesses_match_full_array_ranking(self, name):
        wf = ORACLE_FIELDS[name]()
        rep = classify(wf)
        inflection, critical = witnesses(wf, rep)
        assert (rep.inflection_witnesses, rep.inflection_count) == inflection
        assert (rep.critical_witnesses, rep.critical_count) == critical

    @pytest.mark.parametrize("name", ["ex31", "ex32", "ex33", "grs"])
    def test_level_masks_match_roll_oracle(self, name):
        if name == "ex33":
            wf = make_kolmogorov_perturbed(0.1, 128, 65)
        else:
            wf = ORACLE_FIELDS[name]()
        rep = classify(wf)
        quantity = wf.beta - laplacian(wf.u, wf.grid)
        for f, eps in ((wf.u - wf.c, rep.eps_c), (quantity, rep.eps_q), (quantity, 0.0)):
            got = _level_mask(f, eps)
            assert got.dtype == bool and np.array_equal(got, level_mask(f, eps))

    def test_level_mask_skips_underflowing_products(self):
        # 1e-170 * -1e-170 rounds to -0.0, which is not < 0: no sign change counts
        rng = np.random.default_rng(7)
        f = rng.choice([-1.0, 1.0], (33, 16)) * 10.0 ** rng.uniform(-170, -150, (33, 16))
        f[::3, ::5] = 0.0
        opposite = np.sign(f[:, :-1]) * np.sign(f[:, 1:]) < 0.0
        assert np.any(opposite & (f[:, :-1] * f[:, 1:] == 0.0))
        for eps in (0.0, 1e-165):
            assert np.array_equal(_level_mask(f, eps), level_mask(f, eps))

    def test_eps_scale_must_be_positive(self):
        wf = make_min_critical_wave(MIN_CRITICAL_BETA0, 64, 65)
        with pytest.raises(DomainError):
            classify(wf, eps_scale=0.0)


class TestRigidityPredicates:
    """classify(...).rigidity: the rigidity theorems from classify's one derivative pass."""

    @pytest.mark.parametrize("eps_scale", [2.0, 0.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
    def test_matches_separate_pass_oracle(self, name, eps_scale):
        wf = ORACLE_FIELDS[name]()
        got = classify(wf, eps_scale=eps_scale).rigidity
        want = rigidity_predicates(wf, eps_scale=eps_scale)
        assert got == want
        assert repr(got) == repr(want)  # every evidence float bit for bit, signed zeros too

    def test_poiseuille_window_concludes_shear(self):
        # curvature 2 - 2*Gamma = 2 at Gamma = 0; beta = 1 sits inside (0, 2)
        wf = shear_field(CouettePoiseuille(0.0), beta=1.0)
        verdict = classify(wf).rigidity
        window = {t.name: t for t in verdict.applicable_theorems}[
            "positive_vorticity_gradient_window"
        ]
        assert window.conclusion == "shear flow"
        assert verdict.shear_concluded()

    def test_bickley_threshold_uses_closed_form(self):
        d = 0.5
        grid = Grid2D(128, 65, ChannelGeometry(2 * math.pi, -d, d))
        wf = shear_field(Bickley(), beta=0.3, grid=grid)
        verdict = classify(wf).rigidity
        window = {t.name: t for t in verdict.applicable_theorems}[
            "positive_vorticity_gradient_window"
        ]
        s, t = 1.0 / math.cosh(d), math.tanh(d)
        threshold = 2.0 * s**4 - 4.0 * s**2 * t**2
        lap_min = window.hypotheses[0].evidence["lap_u_min"]
        # Ran(lap u) excludes the wall rows, and u0'' decreases toward the
        # walls, so the interior minimum sits just above the closed form
        assert threshold < lap_min < threshold + 0.1
        assert window.conclusion == "shear flow"  # 0.3 < threshold ~ 0.565

    def test_genuine_wave_defeats_every_theorem(self):
        wf = make_inflection_wave(Example31Params(beta=1.0), 128, 65)
        verdict = classify(wf).rigidity
        assert not verdict.shear_concluded()
        for theorem in verdict.applicable_theorems:
            failed = [h for h in theorem.hypotheses if not h.satisfied]
            assert failed, f"{theorem.name} claims applicability on a genuine wave"

    def test_f_plane_predicates(self):
        # convex parabola shear with beta = 0: lap u = 2 is sign definite
        wf = shear_field(Polynomial((0.0, 0.0, 1.0)), beta=0.0, c=-5.0)
        verdict = classify(wf).rigidity
        names = {t.name: t for t in verdict.applicable_theorems}
        assert names["sign_definite_laplacian_f_plane"].conclusion == "shear flow"
        assert names["rayleigh_stable_f_plane"].conclusion == "shear flow"

    def test_speed_gap_theorem(self):
        # monotone shear with beta above Ran(lap u) = {0} and c far below u_min
        wf = shear_field(couette(), beta=1.0, c=-99.0)
        verdict = classify(wf).rigidity
        gap = {t.name: t for t in verdict.applicable_theorems}["rayleigh_stable_speed_gap"]
        assert gap.conclusion == "shear flow"

    def test_one_gradient_per_differentiated_field(self, monkeypatch):
        # u, u_x and u_y (second derivatives), |grad u| and lap u: five
        # gradients, and lap u once, for the categories and the verdict alike
        # (the package re-exports classify(), which shadows the module name)
        module = importlib.import_module("qgwave.classify")
        counts = {"gradient": 0, "laplacian": 0}

        def counting(name, real):
            def stencil(f, grid):
                counts[name] += 1
                return real(f, grid)

            return stencil

        for name in counts:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        classify(make_inflection_wave(Example31Params(beta=1.0), 128, 65))
        assert counts == {"gradient": 5, "laplacian": 1}


class TestProfileRigidityBound:
    def test_couette_poiseuille_half(self):
        threshold, ok = profile_rigidity_bound(CouettePoiseuille(0.5), 1.0, 0.4)
        assert threshold == pytest.approx(0.6, abs=1e-12)
        assert ok
        with pytest.raises(DomainError, match=r"^band half-width must be positive, got d=-1.0$"):
            profile_rigidity_bound(CouettePoiseuille(0.5), -1.0, 0.4)

    def test_polar_parabola(self):
        d = math.pi / 72.0
        prof = Polynomial((1.0 / 6.0, -1.0 / (3.0 * d), 1.0 / (6.0 * d * d)))
        threshold, ok = profile_rigidity_bound(prof, d, 46.0)
        assert threshold == pytest.approx(1.0 / (3.0 * d * d) - 46.0, rel=1e-9)
        assert ok

    def test_wide_bickley_never_satisfied(self):
        threshold, ok = profile_rigidity_bound(Bickley(), 0.7, 0.0)
        assert threshold < 0.0 and not ok


class TestToDict:
    """Records nest; their JSON documents hold objects, not arrays, at every level."""

    def test_rigidity_verdict_json_is_objects_all_the_way_down(self):
        verdict = classify(
            make_inflection_wave(Example31Params(beta=1.0), 64, 33)
        ).rigidity
        doc = json.loads(json.dumps(verdict.to_dict()))
        assert list(doc) == ["applicable_theorems"]
        assert len(doc["applicable_theorems"]) == len(verdict.applicable_theorems) == 4
        for entry, theorem in zip(doc["applicable_theorems"], verdict.applicable_theorems):
            assert entry.keys() == {"name", "hypotheses", "conclusion"}
            assert (entry["name"], entry["conclusion"]) == (theorem.name, theorem.conclusion)
            assert len(entry["hypotheses"]) == len(theorem.hypotheses)
            for h_doc, h in zip(entry["hypotheses"], theorem.hypotheses):
                assert h_doc == {
                    "condition": h.condition, "satisfied": h.satisfied, "evidence": h.evidence
                }

    def test_classification_report_json_is_objects(self):
        report = classify(make_min_critical_wave(MIN_CRITICAL_BETA0, 64, 33))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc.keys() == {*report._fields, "categories"}
        assert doc["categories"] == list(report.categories())
        assert doc.pop("rigidity") == json.loads(json.dumps(report.rigidity.to_dict()))
        assert doc["critical_count"] > 0
        for key in ("inflection_witnesses", "critical_witnesses"):
            assert all(w.keys() == {"iy", "ix", "x", "y"} for w in doc[key])
        scalars = {k: v for k, v in doc.items() if not isinstance(v, list)}
        assert scalars == {k: getattr(report, k) for k in scalars}
