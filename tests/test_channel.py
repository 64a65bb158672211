"""Grid, discrete calculus, diagnostics, and wave-field file format."""

import json
import math

import numpy as np
import pytest

from qgwave import (
    ChannelGeometry,
    DomainError,
    FieldFormatError,
    Grid2D,
    ShapeError,
    WaveField,
    diagnostics,
    field_from_dict,
    field_to_dict,
    gradient,
    laplacian,
    read_field,
    write_field,
)
from qgwave.cli import main
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


def std_grid(nx=64, ny=65, L=2 * math.pi, d=1.0):
    return Grid2D(nx, ny, ChannelGeometry(L, -d, d))


class TestGeometry:
    def test_width_and_half_width(self):
        g = ChannelGeometry(4.0, -0.5, 1.5)
        assert g.width == 2.0

    @pytest.mark.parametrize("L,dm,dp", [(0.0, -1, 1), (-2.0, -1, 1), (1.0, 1, 1), (1.0, 2, 1)])
    def test_rejects_bad_geometry(self, L, dm, dp):
        with pytest.raises(DomainError):
            ChannelGeometry(L, dm, dp)


class TestGrid:
    def test_node_placement(self):
        grid = std_grid(nx=8, ny=9, L=8.0, d=2.0)
        assert grid.hx == 1.0
        assert grid.hy == 0.5
        assert np.allclose(grid.x, np.arange(8))
        assert grid.y[0] == -2.0 and grid.y[-1] == 2.0

    def test_rejects_odd_or_small_nx(self):
        with pytest.raises(DomainError):
            std_grid(nx=9)
        with pytest.raises(DomainError):
            std_grid(nx=6)
        with pytest.raises(DomainError):
            std_grid(ny=8)


class TestGradient:
    def test_constant_field(self):
        grid = std_grid()
        fx, fy = gradient(np.full(grid.shape, 3.25), grid)
        assert np.all(fx == 0.0)
        assert np.all(fy == 0.0)

    def test_linear_in_y_exact(self):
        grid = std_grid()
        _, Y = grid.mesh()
        fx, fy = gradient(Y, grid)
        assert np.max(np.abs(fy - 1.0)) < 1e-12
        assert np.max(np.abs(fx)) < 1e-12

    def test_quadratic_in_y_exact(self):
        grid = std_grid()
        _, Y = grid.mesh()
        _, fy = gradient(Y**2, grid)
        assert np.max(np.abs(fy - 2.0 * Y)) < 1e-10

    def test_x_derivative_second_order(self):
        # error against the analytic derivative of sin(2 pi x / L) must drop
        # by at least 3.9x per nx doubling
        errs = []
        for nx in (64, 128):
            grid = std_grid(nx=nx)
            X, _ = grid.mesh()
            k = 2 * math.pi / grid.geometry.L
            fx, _ = gradient(np.sin(k * X), grid)
            errs.append(np.max(np.abs(fx - k * np.cos(k * X))))
        assert errs[0] / errs[1] >= 3.9

    def test_linearity(self):
        grid = std_grid(nx=16, ny=11)
        rng = np.random.default_rng(7)
        f = rng.normal(size=grid.shape)
        g = rng.normal(size=grid.shape)
        fx1, fy1 = gradient(2.0 * f - 3.0 * g, grid)
        fxa, fya = gradient(f, grid)
        fxb, fyb = gradient(g, grid)
        assert np.allclose(fx1, 2.0 * fxa - 3.0 * fxb, atol=1e-12)
        assert np.allclose(fy1, 2.0 * fya - 3.0 * fyb, atol=1e-12)

    def test_shape_mismatch(self):
        grid = std_grid()
        with pytest.raises(ShapeError):
            gradient(np.zeros((3, 3)), grid)


class TestLaplacian:
    def test_constant_in_x(self):
        grid = std_grid()
        assert np.max(np.abs(laplacian(np.full(grid.shape, 1.5), grid))) < 1e-10

    def test_quadratic_in_y_exact(self):
        grid = std_grid()
        _, Y = grid.mesh()
        lap = laplacian(Y**2 - 0.5 * Y, grid)
        assert np.max(np.abs(lap - 2.0)) < 1e-10

    def test_cos_y_second_order(self):
        # interior sup error against -cos(y) on [-pi, pi], three doublings
        errs = []
        for ny in (65, 129, 257, 513):
            grid = Grid2D(16, ny, ChannelGeometry(2 * math.pi, -math.pi, math.pi))
            _, Y = grid.mesh()
            lap = laplacian(np.cos(Y), grid)
            errs.append(np.max(np.abs(lap + np.cos(Y))[1:-1]))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(orders) >= 1.9

    def test_kolmogorov_field_is_eigenfunction(self):
        # -lap(u) = u for the perturbed Kolmogorov field, within O(h^2)
        from qgwave.flows import KOLMOGOROV_PERIOD, make_kolmogorov_perturbed

        errs = []
        for nx, ny in ((64, 65), (128, 129)):
            grid = Grid2D(nx, ny, ChannelGeometry(KOLMOGOROV_PERIOD, -math.pi, math.pi))
            wf = make_kolmogorov_perturbed(0.1, grid)
            errs.append(np.max(np.abs(laplacian(wf.u, grid) + wf.u)))
        assert errs[0] / errs[1] >= 3.7
        assert errs[1] < 5e-3

    def test_linearity(self):
        grid = std_grid(nx=16, ny=11)
        rng = np.random.default_rng(11)
        f = rng.normal(size=grid.shape)
        g = rng.normal(size=grid.shape)
        assert np.allclose(
            laplacian(1.5 * f + 0.25 * g, grid),
            1.5 * laplacian(f, grid) + 0.25 * laplacian(g, grid),
            atol=1e-9,
        )


class TestDiagnostics:
    def test_pure_shear_residual_exactly_zero(self):
        grid = std_grid()
        _, Y = grid.mesh()
        u = np.sin(Y) * np.ones(grid.shape)
        wf = WaveField(grid, u, np.zeros(grid.shape), c=0.3, beta=1.0)
        diag = diagnostics(wf)
        assert diag.residual_inf == 0.0
        assert diag.boundary_v_inf == 0.0
        assert diag.div_inf < 1e-10  # stencil error on a y-only field

    def test_random_field_with_zero_v_residual_zero(self):
        grid = std_grid(nx=16, ny=11)
        rng = np.random.default_rng(3)
        u = rng.normal(size=grid.shape)
        wf = WaveField(grid, u, np.zeros(grid.shape), c=-2.0, beta=0.7)
        assert diagnostics(wf).residual_inf == 0.0

    def test_inflection_wave_residual_second_order(self):
        p = Example31Params(n=1, k=1, A=1.0, beta=1.0)
        errs = []
        for nx in (64, 128):
            grid = std_grid(nx=nx, ny=nx + 1)
            wf = make_inflection_wave(p, grid)
            errs.append(diagnostics(wf).residual_inf)
        assert errs[0] / errs[1] >= 2 ** 1.9

    def test_grs_core_values(self):
        grid = Grid2D(128, 129, ChannelGeometry(4.0, -2.0, 2.0))
        wf = make_grs_vortex(GrsParams(a=2.0, b=1.0, k=3.0), grid, clip_radius=1.5)
        iy = 64  # y = 0 row
        assert abs(wf.u[iy, 0]) < 1e-8
        lap_u = laplacian(wf.u, grid)
        assert abs(lap_u[iy, 0]) < 1e-8

    def test_total_vorticity_field(self):
        grid = std_grid(nx=16, ny=11)
        _, Y = grid.mesh()
        wf = WaveField(grid, np.zeros(grid.shape), np.zeros(grid.shape), c=0.0, beta=2.0)
        diag = diagnostics(wf)
        assert np.allclose(diag.total_vorticity, 2.0 * Y)
        assert np.allclose(diag.gamma, 0.0)


class TestFieldIO:
    def make_field(self):
        grid = std_grid(nx=8, ny=9)
        X, Y = grid.mesh()
        return WaveField(grid, np.sin(X) * Y, np.cos(X) * (1 - Y**2), c=0.25, beta=1.5)

    def test_round_trip(self, tmp_path):
        wf = self.make_field()
        path = tmp_path / "field.json"
        write_field(wf, path)
        back = read_field(path)
        assert back.grid.nx == wf.grid.nx and back.grid.ny == wf.grid.ny
        assert back.c == wf.c and back.beta == wf.beta
        assert np.array_equal(back.u, wf.u)
        assert np.array_equal(back.v, wf.v)

    def test_reemit_is_byte_identical(self, tmp_path):
        wf = self.make_field()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_field(wf, p1)
        write_field(read_field(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_nan(self):
        doc = field_to_dict(self.make_field())
        doc["u"][0][0] = float("nan")
        doc_json = json.loads(json.dumps(doc).replace("NaN", '"nan"'))
        with pytest.raises(FieldFormatError):
            field_from_dict(doc_json)

    def test_rejects_missing_keys(self):
        doc = field_to_dict(self.make_field())
        del doc["beta"]
        with pytest.raises(FieldFormatError):
            field_from_dict(doc)

    def test_rejects_bad_shape(self):
        doc = field_to_dict(self.make_field())
        doc["u"] = [[0.0] * 4] * 3
        with pytest.raises(FieldFormatError):
            field_from_dict(doc)

    def test_rejects_unreadable_file(self, tmp_path):
        bad = tmp_path / "nope.json"
        with pytest.raises(FieldFormatError):
            read_field(bad)
        bad.write_text("{not json")
        with pytest.raises(FieldFormatError):
            read_field(bad)

    def test_wavefield_rejects_negative_beta(self):
        grid = std_grid(nx=8, ny=9)
        z = np.zeros(grid.shape)
        with pytest.raises(DomainError):
            WaveField(grid, z, z, c=0.0, beta=-1.0)


def _json_dumps_bytes(wf):
    """The field file as one json.dumps call writes it: the writer's reference."""
    return (json.dumps(field_to_dict(wf), sort_keys=True) + "\n").encode("ascii")


_EXAMPLES = {
    "ex31": lambda: make_inflection_wave(Example31Params(), std_grid(nx=16, ny=11)),
    "ex32": lambda: make_min_critical_wave(MIN_CRITICAL_BETA0, 0.0, std_grid(nx=16, ny=11)),
    "ex33": lambda: make_kolmogorov_perturbed(
        0.1, Grid2D(16, 11, ChannelGeometry(KOLMOGOROV_PERIOD, -math.pi, math.pi))
    ),
    "grs": lambda: make_grs_vortex(
        GrsParams(), Grid2D(32, 33, ChannelGeometry(4.0, -2.0, 2.0)), 1.5
    ),
}


class TestStreamedWriter:
    """write_field streams row by row and must keep the bytes of json.dumps."""

    @pytest.mark.parametrize("name", sorted(_EXAMPLES))
    def test_examples_match_json_dumps(self, tmp_path, name):
        wf = _EXAMPLES[name]()
        path = tmp_path / "field.json"
        write_field(wf, path)
        assert path.read_bytes() == _json_dumps_bytes(wf)

    def test_edge_values_match_json_dumps(self, tmp_path):
        # integer geometry and beta stay integers in the header
        grid = Grid2D(8, 9, ChannelGeometry(8, -4, 4))
        u = np.zeros(grid.shape)
        u[0, :5] = [-0.0, 5e-324, 1e-300, 1e300, -1e300]
        u[1, :4] = [1.0, -3.0, 2.0**53, 1e16]
        v = np.full(grid.shape, -0.0)
        v[-1, -1] = -5e-324
        wf = WaveField(grid, u, v, c=-0.0, beta=2)
        path = tmp_path / "field.json"
        write_field(wf, path)
        text = path.read_bytes()
        assert text == _json_dumps_bytes(wf)
        assert b"-0.0" in text and b"5e-324" in text and b"1e+300" in text
        back = read_field(path)
        assert np.array_equal(back.u, u) and np.array_equal(back.v, v)
        assert np.array_equal(np.signbit(back.v), np.signbit(v))

    @pytest.mark.parametrize(
        "argv",
        [
            ("--name", "ex31"),
            ("--name", "ex32", "--beta-mode", "beta0"),
            ("--name", "ex33"),
            ("--name", "grs"),
        ],
        ids=["ex31", "ex32", "ex33", "grs"],
    )
    def test_cli_file_and_stdout_are_identical(self, capsys, tmp_path, argv):
        argv = ("example", *argv, "--nx", "16", "--ny", "17")
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        path = tmp_path / "f.json"
        assert main([*argv, "-o", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("ascii")
        assert out.encode("ascii") == _json_dumps_bytes(read_field(path))
