"""Grid, discrete calculus, diagnostics, and wave-field file format."""

import io
import json
import math
import re
import tracemalloc

import numpy as np
import orjson
import pytest

from qgwave import (
    ChannelGeometry,
    DomainError,
    FieldFormatError,
    Grid2D,
    ShapeError,
    WaveField,
    classify,
    diagnostics,
    field_from_dict,
    field_to_dict,
    gradient,
    laplacian,
    read_field,
    write_field,
)
from qgwave import channel, cli
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
        wf = WaveField(grid, np.zeros(grid.shape), np.zeros(grid.shape), c=0.0, beta=2.0)
        diag = diagnostics(wf)
        # u = v = 0, so the total vorticity is beta*y and the walls bound it
        assert (diag.total_vorticity_min, diag.total_vorticity_max) == (-2.0, 2.0)


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


def _field_bits(wf):
    """A field's grid sizes and the bits of every double it holds."""
    g = wf.grid
    scalars = np.array([*g.geometry, wf.c, wf.beta], dtype=float)
    return g.nx, g.ny, scalars.tobytes(), wf.u.tobytes(), wf.v.tobytes()


def _assert_written(wf, text, tmp_path):
    """The writer's contract for wf and the text written for it: no
    whitespace but the final newline; json.loads gives the document that
    json.dumps(field_to_dict(wf), sort_keys=True) holds, every value bit for
    bit, and so does read_field; a second write gives the same bytes."""
    assert text.endswith("\n") and not re.search(r"\s", text[:-1])
    doc = json.loads(text)
    want = json.loads(json.dumps(field_to_dict(wf), sort_keys=True))
    assert list(doc) == list(want)
    assert all(_same_bits(doc[k], want[k]) for k in want)
    path = tmp_path / "again.json"
    write_field(wf, path)
    assert path.read_bytes() == text.encode("ascii")
    assert _field_bits(read_field(path)) == _field_bits(wf)


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


def _edge_field():
    """Signed zeros, subnormals, extremes and integral values; integer
    geometry and beta."""
    grid = Grid2D(8, 9, ChannelGeometry(8, -4, 4))
    u = np.zeros(grid.shape)
    u[0, :5] = [-0.0, 5e-324, 1e-300, 1e300, -1e300]
    u[1, :6] = [1.0, -3.0, 2.0**53, 1e16, -1e16, 1.7976931348623157e308]
    u[2, :4] = [1e-4, np.nextafter(1e-4, 0), -np.nextafter(1e-4, 1), -2.2250738585072014e-308]
    v = np.full(grid.shape, -0.0)
    v[-1, -1] = -5e-324
    return WaveField(grid, u, v, c=-0.0, beta=2)


class TestStreamedWriter:
    """write_field streams row by row: one compact document that decodes to
    json.dumps's document bit for bit, with the same bytes on every write."""

    @pytest.mark.parametrize("name", sorted(_EXAMPLES))
    def test_examples_match_json_dumps(self, tmp_path, name):
        wf = _EXAMPLES[name]()
        path = tmp_path / "field.json"
        write_field(wf, path)
        _assert_written(wf, path.read_text(encoding="ascii"), tmp_path)

    def test_edge_values_match_json_dumps(self, tmp_path):
        wf = _edge_field()
        path = tmp_path / "field.json"
        write_field(wf, path)
        text = path.read_text(encoding="ascii")
        _assert_written(wf, text, tmp_path)
        # integer geometry and beta stay integers in the head
        assert text.startswith('{"L":8,"beta":2,"c":-0.0,"d_minus":-4,"d_plus":4,"nx":8,"ny":9,')
        assert "5e-324" in text and "1e300" in text

    @pytest.mark.parametrize("kind", ["bits", "neighbours", "small-and-integral"])
    def test_property_values_match_json_dumps(self, tmp_path, kind):
        grid = Grid2D(64, 65, ChannelGeometry(2 * math.pi, -1, 1))
        rng = np.random.default_rng(13)
        for _ in range(4):
            values = _writer_values(kind, rng, 2 * grid.nx * grid.ny)
            u, v = values.reshape(2, *grid.shape)
            wf = WaveField(grid, u, v, c=float(values[0]), beta=abs(float(values[1])))
            buf = io.StringIO()
            channel.dump_field(wf, buf)
            _assert_written(wf, buf.getvalue(), tmp_path)

    def test_transposed_field_matches_json_dumps(self, tmp_path):
        grid = std_grid(nx=16, ny=11)
        rng = np.random.default_rng(5)
        shape = (grid.nx, grid.ny)
        u = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 20, shape)).T
        wf = WaveField(grid, u, u[::-1], c=0.5, beta=1.0)
        assert not (wf.u.flags.c_contiguous or wf.v.flags.c_contiguous)
        path = tmp_path / "field.json"
        write_field(wf, path)
        _assert_written(wf, path.read_text(encoding="ascii"), tmp_path)
        assert _same_bits(read_field(path).u, u)

    @pytest.mark.parametrize("name", [*sorted(_EXAMPLES), "edge"])
    def test_json_dumps_layout_reads_unchanged(self, tmp_path, name):
        # the layout that earlier versions wrote
        wf = _edge_field() if name == "edge" else _EXAMPLES[name]()
        path = tmp_path / "old.json"
        path.write_text(json.dumps(field_to_dict(wf), sort_keys=True) + "\n", encoding="ascii")
        assert _field_bits(read_field(path)) == _field_bits(wf)

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
        wf = cli._example_field(cli.build_parser(argv).parse_args(argv))
        _assert_written(wf, out, tmp_path)


def _writer_values(kind, rng, n):
    """n finite doubles of one kind, shuffled: the writer property test's inputs."""
    if kind == "bits":
        x = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        return np.where(np.isfinite(x), x, 0.0)
    if kind == "neighbours":
        # repr changes notation at 1e-4 and 1e16, orjson between 1e-5 and 1e-6
        x = np.concatenate([_walk(s * b, 40) for b in (1e-6, 1e-5, 1e-4, 1e16) for s in (1, -1)])
    else:
        sub = rng.integers(1, 2**52, n // 4, dtype=np.uint64).view(np.float64)
        ints = np.round(rng.standard_normal(n // 4) * 10.0 ** rng.integers(0, 22, n // 4))
        x = np.concatenate(
            [sub, -sub, ints, [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               2.225073858507201e-308, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0]]
        )
    return rng.permutation(np.resize(x, n))


def _walk(b, k):
    """The 2k + 1 doubles nearest b, b among them."""
    up, down = [np.float64(b)], [np.float64(b)]
    for _ in range(k):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return np.array(down[:0:-1] + up)


def _same_bits(a, b):
    """Equal arrays of float64, -0.0 told apart from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _small_doc():
    """A small field document whose values are short, with one -0.0."""
    grid = std_grid(nx=8, ny=9)
    X, Y = grid.mesh()
    u = np.round(np.sin(X) * Y, 2)
    u[0, 0] = -0.0
    return field_to_dict(WaveField(grid, u, np.round(np.cos(X) * (1 - Y**2), 2), c=0.25, beta=1.5))


def _read_text(tmp_path, text):
    path = tmp_path / "field.json"
    path.write_bytes(text.encode("ascii") if isinstance(text, str) else text)
    return read_field(path)


def _variants():
    """Well-formed documents written in other ways than the writer's."""
    doc = _small_doc()
    plain = json.dumps(doc, sort_keys=True)
    int_rows = dict(doc, u=[[0, 1, -2, 2**53 + 1, 10**20, True, 6, 7]] + doc["u"][1:])
    ws = plain.replace(", ", " ,\t\r\n ").replace(": ", "\n:\n ")
    return {
        "indent": json.dumps(doc, indent=2),
        "reversed-keys": json.dumps(dict(reversed(list(doc.items())))),
        "extra-key": json.dumps({"note": "x", "extra": [[1, 2], {"a": None}], **doc}),
        "duplicate-c": plain[:-1] + ', "c": 0.75}',
        "duplicate-u": '{"u": 3, ' + plain[1:],
        "integer-entries": json.dumps(int_rows),
        "compact": json.dumps(doc, separators=(",", ":")),
        "whitespace": " \n" + ws + "\r\n\t ",
        "empty-rows-key": json.dumps({"w": [], **doc}),
        "numeric-extra-keys": json.dumps({"w": [[1, 2], [3, 4]], "note": [0.5], **doc}),
    }


def _malformed():
    """Documents that json.loads or field_from_dict rejects."""
    doc = _small_doc()
    plain = json.dumps(doc, sort_keys=True)
    row0 = json.dumps(doc["u"][0])
    return {
        "trailing-data": plain + " {}",
        "missing-row-comma": plain.replace("], [", "] [", 1),
        "ragged-rows": json.dumps(dict(doc, u=[doc["u"][0][:-1]] + doc["u"][1:])),
        "nested-row": json.dumps(dict(doc, u=[[doc["u"][0]]] + doc["u"][1:])),
        "top-level-array": "[" + plain + "]",
        "u-scalar": json.dumps(dict(doc, u=3)),
        "non-ascii": plain.encode("ascii").replace(b'"beta"', b'"b\xc3\xa9ta"'),
        "string-row": json.dumps(dict(doc, u=["x"] * 9)),
        "object-entry": json.dumps(dict(doc, u=[[{}] * 8] * 9)),
        "null-entry": plain.replace(row0, "[null" + row0[row0.index(","):], 1),
        "huge-integer": plain.replace(row0, "[1" + "0" * 400 + row0[row0.index(","):], 1),
        "deep-row": plain.replace(row0, "[" * 100000 + "]" * 100000, 1),
        "trailing-comma": plain[:-1] + ",}",
        "missing-colon": plain.replace('"c": ', '"c" ', 1),
        "unquoted-key": plain.replace('"c"', "c", 1),
        "empty": "",
        "string-nx": json.dumps(dict(doc, nx="8")),
        "string-c": json.dumps(dict(doc, c="0.5")),
        "numeric-string-row": json.dumps(dict(doc, u=[doc["u"][0]] + [[" 1.5 "] * 8] * 8)),
        "array-nx": json.dumps(dict(doc, nx=[8])),
        "array-c": json.dumps(dict(doc, c=[0.5])),
    }


class TestReaderConformance:
    """read_field decodes u and v row by row, but must agree with
    field_from_dict(json.loads(text)) on every document."""

    @pytest.mark.parametrize("name", sorted(_variants()))
    def test_variant_matches_json_loads(self, tmp_path, name):
        text = _variants()[name]
        want = field_from_dict(json.loads(text))
        got = _read_text(tmp_path, text)
        assert got.grid == want.grid
        assert _same_bits([got.c, got.beta], [want.c, want.beta])
        assert _same_bits(got.u, want.u) and _same_bits(got.v, want.v)
        assert got.u.dtype == np.float64 and not got.u.flags.writeable

    def test_variants_keep_negative_zero_and_last_duplicate(self, tmp_path):
        variants = _variants()
        assert np.signbit(_read_text(tmp_path, variants["compact"]).u[0, 0])
        assert _read_text(tmp_path, variants["duplicate-c"]).c == 0.75

    def test_every_strict_prefix_is_rejected(self, tmp_path):
        text = json.dumps(_small_doc(), sort_keys=True)
        for end in range(len(text)):
            with pytest.raises(FieldFormatError):
                _read_text(tmp_path, text[:end])

    @pytest.mark.parametrize("name", sorted(_malformed()))
    def test_malformed_raises_field_format_error(self, tmp_path, name):
        data = _malformed()[name]
        data = data.encode("ascii") if isinstance(data, str) else data
        with pytest.raises(Exception):  # the json.loads route rejects it too
            doc = json.loads(data.decode("ascii"))
            if not isinstance(doc, dict):
                raise TypeError("not an object")
            field_from_dict(doc)
        with pytest.raises(FieldFormatError):
            _read_text(tmp_path, data)


def _number_literals(kind, rng, n):
    """n JSON number literals of one kind: the reader property test's inputs."""
    x = rng.integers(0, 2**64, 2 * n, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)][:n].tolist()
    if kind == "repr":
        return [repr(v) for v in x]
    if kind == "%.25g":
        return ["%.25g" % v for v in x]
    if kind == "long-digits":
        out = []
        for _ in range(n):
            digits = str(int(rng.integers(1, 10))) + "".join(
                str(d) for d in rng.integers(0, 10, int(rng.integers(16, 40)))
            )
            point = int(rng.integers(1, len(digits)))
            sign = "-" if rng.random() < 0.5 else ""
            exp = int(rng.integers(-340, 300 - point))  # finite: below 1e300
            out.append(f"{sign}{digits[:point]}.{digits[point:]}e{exp}")
        return out
    ints = [int(rng.integers(0, 2**63)) * int(rng.integers(1, 3)) for _ in range(n)]
    ints = [i if rng.random() < 0.5 else -(i // 2) for i in ints]
    return [str(i) for i in ints] + ["1E5", "1e-05", "-0", "0", "-0.0", "1e-400",
                                     str(2**64 - 1), str(2**63), str(-(2**63))]


def _rows_doc(rows):
    """A field document whose u rows are the given JSON texts."""
    doc = _small_doc()
    head = json.dumps(dict(doc, u=None), sort_keys=True)
    return head.replace('"u": null', '"u": [' + ", ".join(rows) + "]")


def _reject(text):
    raise orjson.JSONDecodeError("rejected", text, 0)


def _outcome(path):
    """read_field's verdict: its error message, or the field's bits."""
    try:
        wf = read_field(path)
    except FieldFormatError as exc:
        return str(exc)
    return wf.grid, wf.c, wf.beta, wf.u.tobytes(), wf.v.tobytes()


class TestOrjsonRows:
    """orjson parses the rows of u and v; the json module's decoder takes
    every row that orjson rejects, and both must give json.loads's answer."""

    @pytest.mark.parametrize("kind", ["repr", "%.25g", "long-digits", "integers"])
    def test_orjson_route_matches_json_loads(self, tmp_path, monkeypatch, kind):
        literals = _number_literals(kind, np.random.default_rng(len(kind)), 2000)
        rows = ["[" + ", ".join(literals[k:k + 8]) + "]" for k in range(0, len(literals) - 7, 8)]
        with monkeypatch.context() as m:
            m.setattr(json.decoder, "JSONArray", None)  # any row on the json route raises
            for text in rows:
                got, end = channel._parse_array((text, 1), None)
                assert end == len(text) and _same_bits(got, json.loads(text))
        text = _rows_doc(rows[:9])
        want = field_from_dict(json.loads(text))
        got = _read_text(tmp_path, text)
        assert _same_bits(got.u, want.u) and _same_bits(got.v, want.v)

    @pytest.mark.parametrize(
        "row, verdict",
        [
            ("[NaN, 1, 2, 3, 4, 5, 6, 7]", "u/v contain NaN or Inf"),
            ("[0, Infinity, 2, 3, 4, 5, 6, -Infinity]", "u/v contain NaN or Inf"),
            (f"[{2**64 + 1}, {-(2**70) - 3}, 2, 3, 4, 5, 6, 7]", None),
            ("[1" + "0" * 400 + ", 1, 2, 3, 4, 5, 6, 7]", "int too large to convert to float"),
            ('["a]", 1, 2, 3, 4, 5, 6, 7]', "could not convert string to float"),
            ("[[0, 1], 2, 3, 4, 5, 6, 7]", "malformed wave-field document"),
            ('["\\ud800", 1, 2, 3, 4, 5, 6, 7]', "could not convert string to float"),
        ],
        ids=["nan", "infinity", "beyond-64-bits", "huge-integer", "string-with-bracket",
             "nested", "lone-surrogate"],
    )
    def test_rejected_rows_keep_the_json_verdict(self, tmp_path, monkeypatch, row, verdict):
        doc = _small_doc()
        rows = [row] + [json.dumps(r) for r in doc["u"][1:]]
        path = tmp_path / "field.json"
        path.write_text(_rows_doc(rows), encoding="ascii")
        got = _outcome(path)
        monkeypatch.setattr(orjson, "loads", _reject)  # every row through json's decoder
        assert got == _outcome(path)
        if verdict is None:
            assert not isinstance(got, str)
        else:
            assert verdict in got

    def test_file_cut_inside_its_last_row(self, tmp_path, monkeypatch):
        text = json.dumps(_small_doc(), sort_keys=True)
        last = text.rindex("[")
        paths = []
        for k in range(last, len(text) - 2):
            paths.append(tmp_path / f"{k}.json")
            paths[-1].write_text(text[:k], encoding="ascii")
        got = [_outcome(path) for path in paths]
        monkeypatch.setattr(orjson, "loads", _reject)
        assert got == [_outcome(path) for path in paths]
        assert all(isinstance(g, str) and "cannot read wave-field file" in g for g in got)


def _roll_gradient(f, grid):
    """gradient as it was written with np.roll: the bit-for-bit oracle."""
    hx, hy = grid.hx, grid.hy
    fx = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * hx)
    fy = np.empty_like(f)
    fy[1:-1] = (f[2:] - f[:-2]) / (2.0 * hy)
    fy[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * hy)
    fy[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * hy)
    return fx, fy


def _roll_laplacian(f, grid):
    """laplacian as it was written with np.roll: the bit-for-bit oracle."""
    hx, hy = grid.hx, grid.hy
    fxx = (np.roll(f, -1, axis=1) - 2.0 * f + np.roll(f, 1, axis=1)) / (hx * hx)
    fyy = np.empty_like(f)
    fyy[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (hy * hy)
    fyy[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (hy * hy)
    fyy[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (hy * hy)
    return fxx + fyy


class TestStencilBits:
    @pytest.mark.parametrize(
        "nx, ny, L, dm, dp",
        [(8, 9, 2 * math.pi, -1, 1), (10, 200, 0.3, -5, 7), (64, 65, 17.0, 0, 1e-3),
         (256, 129, 2 * math.pi, -1, 1), (1000, 11, 4.0, -2, 2)],
    )
    def test_match_roll_oracle(self, nx, ny, L, dm, dp):
        grid = Grid2D(nx, ny, ChannelGeometry(L, dm, dp))
        rng = np.random.default_rng(nx * ny)
        fields = [
            rng.standard_normal(grid.shape) * 10.0 ** rng.uniform(-300, 300, (ny, 1)),
            np.round(rng.standard_normal(grid.shape), 1) * -0.0,
            make_inflection_wave(Example31Params(A_tilde=0.3, B=0.2), grid).u
            if (L, dm, dp) == (2 * math.pi, -1, 1) else rng.uniform(-1, 1, grid.shape),
        ]
        for f in fields:
            fx, fy = gradient(f, grid)
            ox, oy = _roll_gradient(f, grid)
            assert _same_bits(fx, ox) and _same_bits(fy, oy)
            assert _same_bits(laplacian(f, grid), _roll_laplacian(f, grid))


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestFieldMemory:
    """Peak allocations of the field commands on a 256x129 ex31 field."""

    @pytest.fixture(scope="class")
    def ex31(self, tmp_path_factory):
        wf = make_inflection_wave(Example31Params(A_tilde=0.3, B=0.2, c=0.1), std_grid(256, 129))
        path = tmp_path_factory.mktemp("mem") / "ex31.json"
        write_field(wf, path)
        return wf, path

    def test_read_field_peak_near_twice_the_file(self, ex31):
        _, path = ex31
        assert _traced_peak(lambda: read_field(path)) <= 2.1 * path.stat().st_size

    @pytest.mark.parametrize("command", [diagnostics, classify], ids=["diagnostics", "classify"])
    def test_peak_at_most_eight_field_arrays(self, ex31, command):
        wf, _ = ex31
        assert _traced_peak(lambda: command(wf)) <= 8 * wf.u.nbytes

    def test_diagnostics_peak_at_most_four_and_a_half_field_arrays(self, ex31):
        # the total vorticity is reduced to its range, not returned as a field
        wf, _ = ex31
        assert _traced_peak(lambda: diagnostics(wf)) <= 4.5 * wf.u.nbytes

    def test_classify_grs_peak_at_most_seven_field_arrays(self):
        # the inflection and critical masks cover most of a GRS field, so the
        # witness scores must be formed on the masked nodes only
        grid = Grid2D(256, 129, ChannelGeometry(6.0, -3.0, 3.0))
        wf = make_grs_vortex(GrsParams(), grid, clip_radius=1.5)
        assert _traced_peak(lambda: classify(wf)) <= 7 * wf.u.nbytes
