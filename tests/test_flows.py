"""Closed-form example flows: identities, residual convergence, their channels."""

import math

import numpy as np
import pytest

from qgwave import (
    ChannelGeometry,
    DomainError,
    Grid2D,
    diagnostics,
    gradient,
    laplacian,
)
from qgwave.flows import (
    KOLMOGOROV_PERIOD,
    MIN_CRITICAL_BETA0,
    Example31Params,
    GrsParams,
    make_grs_vortex,
    make_inflection_wave,
    make_kolmogorov_perturbed,
    make_min_critical_wave,
)

from _oracles import (
    grs_vortex_on_mesh,
    inflection_wave_on_mesh,
    kolmogorov_perturbed_on_mesh,
    min_critical_wave_on_mesh,
)


class TestParams:
    def test_lambda_always_negative(self):
        for n in (1, 2, 5):
            for k in (1, 3):
                assert Example31Params(n=n, k=k).lam < 0.0

    def test_lambda_value(self):
        p = Example31Params(n=1, k=1)
        assert p.lam == pytest.approx(-1.0 - 9.0 * math.pi**2 / 4.0, rel=1e-15)

    def test_rejects_bad_integers(self):
        with pytest.raises(DomainError):
            Example31Params(n=0)
        with pytest.raises(DomainError):
            Example31Params(k=0)

    def test_grs_params_validation(self):
        with pytest.raises(DomainError):
            GrsParams(a=1.0, b=2.0)
        with pytest.raises(DomainError):
            GrsParams(k=2.0)
        assert GrsParams().mu(0.0) == 0.0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Example31Params(A=math.inf), "A must be finite, got A=inf"),
            (lambda: Example31Params(A_tilde=-math.inf),
             "A_tilde must be finite, got A_tilde=-inf"),
            (lambda: Example31Params(B=math.nan), "B must be finite, got B=nan"),
            (lambda: Example31Params(c=math.inf), "c must be finite, got c=inf"),
            (lambda: Example31Params(beta=math.nan), "beta must be finite, got beta=nan"),
            (lambda: GrsParams(a=math.inf), "a must be finite, got a=inf"),
            (lambda: GrsParams(b=math.nan), "b must be finite, got b=nan"),
            (lambda: GrsParams(k=math.inf), "k must be finite, got k=inf"),
            (lambda: make_min_critical_wave(math.nan, 16, 9),
             "beta must be finite, got beta=nan"),
            (lambda: make_min_critical_wave(1.0, 16, 9, c=math.inf),
             "c must be finite, got c=inf"),
            (lambda: make_kolmogorov_perturbed(math.inf, 16, 9),
             "eps must be finite, got eps=inf"),
            (lambda: make_grs_vortex(GrsParams(), 16, 9, 4.0, 2.0, math.inf),
             "clip_radius must be finite, got clip_radius=inf"),
            (lambda: make_grs_vortex(GrsParams(), 16, 9, 4.0, 2.0, math.nan),
             "clip_radius must be finite, got clip_radius=nan"),
            (lambda: ChannelGeometry(4.0, -math.inf, math.inf),
             "band endpoint must be finite, got d_minus=-inf"),
            (lambda: ChannelGeometry(4.0, -2.0, math.nan),
             "band endpoint must be finite, got d_plus=nan"),
        ],
    )
    def test_rejects_non_finite_parameters_by_name(self, build, message):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == message


GRID_SHAPES = [(8, 9), (64, 33), (130, 257)]


def _same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestAxesMatchMeshgrid:
    """Each builder evaluates on the grid's axes; the bits equal the meshgrid formulas."""

    @pytest.mark.parametrize("nx, ny", GRID_SHAPES)
    def test_inflection_wave(self, nx, ny):
        p = Example31Params(n=2, k=3, A=1.05, A_tilde=0.03, B=-0.02, c=0.1, beta=1.3)
        wf = make_inflection_wave(p, nx, ny)
        for actual, expected in zip((wf.u, wf.v), inflection_wave_on_mesh(p, wf.grid)):
            _same_bits(actual, expected)

    @pytest.mark.parametrize("nx, ny", GRID_SHAPES)
    def test_min_critical_wave(self, nx, ny):
        wf = make_min_critical_wave(MIN_CRITICAL_BETA0, nx, ny, c=0.3)
        for actual, expected in zip(
            (wf.u, wf.v), min_critical_wave_on_mesh(MIN_CRITICAL_BETA0, 0.3, wf.grid)
        ):
            _same_bits(actual, expected)

    @pytest.mark.parametrize("nx, ny", GRID_SHAPES)
    def test_kolmogorov_perturbed(self, nx, ny):
        wf = make_kolmogorov_perturbed(0.13, nx, ny)
        for actual, expected in zip((wf.u, wf.v), kolmogorov_perturbed_on_mesh(0.13, wf.grid)):
            _same_bits(actual, expected)

    @pytest.mark.parametrize("nx, ny", GRID_SHAPES)
    def test_grs_vortex(self, nx, ny):
        p = GrsParams(a=2.2, b=0.95, k=3.1)
        wf = make_grs_vortex(p, nx, ny, 4.0, 2.0, 1.5)
        for actual, expected in zip((wf.u, wf.v), grs_vortex_on_mesh(p, wf.grid, 1.5)):
            _same_bits(actual, expected)


@pytest.mark.parametrize(
    "make, geometry",
    [
        (lambda: make_inflection_wave(Example31Params(), 16, 9), (2 * math.pi, -1.0, 1.0)),
        (lambda: make_min_critical_wave(MIN_CRITICAL_BETA0, 16, 9), (2 * math.pi, -1.0, 1.0)),
        (lambda: make_kolmogorov_perturbed(0.1, 16, 9), (KOLMOGOROV_PERIOD, -math.pi, math.pi)),
        (lambda: make_grs_vortex(GrsParams(), 16, 9, 6.0, 3.0, 1.5), (6.0, -3.0, 3.0)),
    ],
    ids=["ex31", "ex32", "ex33", "grs"],
)
def test_each_example_builds_its_channel(make, geometry):
    assert make().grid == Grid2D(16, 9, ChannelGeometry(*geometry))


class TestBoundaryAndResiduals:
    def test_boundary_v_machine_zero(self):
        fields = [
            make_inflection_wave(Example31Params(beta=1.0), 128, 129),
            make_min_critical_wave(MIN_CRITICAL_BETA0, 128, 129),
            make_kolmogorov_perturbed(0.1, 128, 129),
        ]
        for wf in fields:
            assert diagnostics(wf).boundary_v_inf < 1e-14

    @pytest.mark.parametrize(
        "maker",
        [
            lambda nx, ny: make_inflection_wave(Example31Params(beta=1.0), nx, ny),
            lambda nx, ny: make_min_critical_wave(MIN_CRITICAL_BETA0, nx, ny),
        ],
    )
    def test_channel_examples_residual_order(self, maker):
        errs = []
        for nx in (64, 128, 256):
            errs.append(diagnostics(maker(nx, nx + 1)).residual_inf)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_kolmogorov_residual_order(self):
        errs = []
        for nx in (64, 128, 256):
            errs.append(
                diagnostics(make_kolmogorov_perturbed(0.1, nx, nx + 1)).residual_inf
            )
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_unperturbed_kolmogorov_is_shear(self):
        wf = make_kolmogorov_perturbed(0.0, 64, 65)
        assert np.all(wf.v == 0.0)


class TestInflectionIdentity:
    def test_potential_ratio_equals_minus_lambda(self):
        # (beta - lap u) / (u - c) = -lambda wherever u is away from c; the
        # mask keeps the denominator O(1) so the sup reflects the stencil
        p = Example31Params(n=1, k=1, A=1.0, beta=1.0)
        errs = []
        for nx in (64, 128, 256):
            wf = make_inflection_wave(p, nx, nx + 1)
            lap_u = laplacian(wf.u, wf.grid)
            mask = np.abs(wf.u - wf.c) > 0.5
            ratio = (wf.beta - lap_u[mask]) / (wf.u[mask] - wf.c)
            errs.append(np.max(np.abs(ratio + p.lam)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.7
        assert errs[-1] < 0.05

    def test_potential_ratio_near_level_set(self):
        # the identity also holds down to |u - c| > 0.1, with the error
        # amplified by the small denominator
        p = Example31Params(n=1, k=1, A=1.0, beta=1.0)
        wf = make_inflection_wave(p, 256, 257)
        lap_u = laplacian(wf.u, wf.grid)
        mask = np.abs(wf.u - wf.c) > 0.1
        ratio = (wf.beta - lap_u[mask]) / (wf.u[mask] - wf.c)
        assert np.max(np.abs(ratio + p.lam)) < 0.1


class TestMinCriticalRange:
    def test_velocity_range_formula(self):
        beta, c = MIN_CRITICAL_BETA0, 0.25
        wf = make_min_critical_wave(beta, 256, 129, c=c)
        shift = beta / (math.pi**2 / 4.0 + 1.0)
        assert float(wf.u.min()) == pytest.approx(c + shift - math.pi / 2.0, abs=1e-12)
        assert float(wf.u.max()) == pytest.approx(c + shift + math.pi / 2.0, abs=1e-12)

    def test_u_min_equals_c_at_beta0(self):
        wf = make_min_critical_wave(MIN_CRITICAL_BETA0, 256, 129)
        assert float(wf.u.min()) == pytest.approx(0.0, abs=1e-12)

    def test_stagnation_point_gradient(self):
        wf = make_min_critical_wave(MIN_CRITICAL_BETA0, 256, 129)
        ux, uy = gradient(wf.u, wf.grid)
        ix = wf.grid.nx // 2  # x = pi
        assert abs(ux[-1, ix]) < 1e-10
        assert abs(uy[-1, ix]) < 1e-3  # one-sided boundary stencil, O(h^2)


class TestGrsVortex:
    def make(self, nx=128, ny=129):
        wf = make_grs_vortex(GrsParams(), nx, ny, 4.0, 2.0, 1.5)
        return wf.grid, wf

    def test_velocity_and_laplacian_vanish_at_core(self):
        grid, wf = self.make(256, 257)
        iy = 128
        assert abs(wf.u[iy, 0]) < 1e-8 and abs(wf.v[iy, 0]) < 1e-8
        assert abs(laplacian(wf.u, grid)[iy, 0]) < 1e-8

    def test_divergence_free_in_untapered_core(self):
        # the rotational field has zero divergence analytically; inside the
        # untapered core the field is smooth, so the discrete divergence is
        # pure second-order stencil error
        errs = []
        for nx, ny in ((128, 129), (256, 257)):
            grid, wf = self.make(nx, ny)
            ux, _ = gradient(wf.u, grid)
            _, vy = gradient(wf.v, grid)
            X, Y = np.meshgrid(grid.x, grid.y)
            Xd = X - 4.0 * np.round(X / 4.0)
            core = np.hypot(Xd, Y) <= 0.8 * 1.5
            errs.append(np.max(np.abs((ux + vy)[core])))
        assert errs[0] < 0.01
        assert errs[0] / errs[1] >= 3.5

    def test_divergence_converges_globally(self):
        # the taper ring is only C^1, so the global sup converges at first
        # order; it must still shrink under refinement
        errs = []
        for nx, ny in ((128, 129), (256, 257)):
            _, wf = self.make(nx, ny)
            errs.append(diagnostics(wf).div_inf)
        assert errs[1] < 0.6 * errs[0]

    def test_outside_clip_is_zero(self):
        grid, wf = self.make()
        X, Y = np.meshgrid(grid.x, grid.y)
        Xd = X - 4.0 * np.round(X / 4.0)
        outside = np.hypot(Xd, Y) >= 1.5
        assert np.all(wf.u[outside] == 0.0) and np.all(wf.v[outside] == 0.0)

    def test_mu_domain_violation(self):
        with pytest.raises(DomainError):
            make_grs_vortex(GrsParams(a=2.0, b=1.0, k=3.0), 64, 65, 8.0, 4.0, clip_radius=3.0)

    def test_clip_radius_on_the_domain_boundary(self):
        # a^2 = b^2 R^k exactly: mu(R) = a is real, and so is mu at every
        # node with r < R, so the vortex is admissible
        wf = make_grs_vortex(GrsParams(a=4.0, b=1.0, k=4.0), 64, 65, 8.0, 4.0, clip_radius=2.0)
        assert np.all(np.isfinite(wf.u)) and np.all(np.isfinite(wf.v))
        assert np.max(np.abs(wf.u)) > 0.0
