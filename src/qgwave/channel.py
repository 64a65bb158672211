"""Periodic-channel grids, discrete calculus, and traveling-wave diagnostics.

The channel is periodic in x with period L and bounded in y by rigid walls
at y = d_minus and y = d_plus.  Scalar fields are stored row-major with
shape (ny, nx): the y index is the outer one, so meridional slices are
contiguous.  All derivative stencils are second order: central differences
with periodic wrap in x, central differences at interior y rows, and
second-order one-sided stencils at the two boundary rows.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FieldFormatError, ShapeError

_EPS = float(np.finfo(float).eps)


# A NamedTuple class may not define __new__, so each validated record is a
# subclass of its fields' NamedTuple that checks them in __new__; the empty
# __slots__ keeps it without an instance __dict__, so it stays immutable.
class _Geometry(NamedTuple):
    L: float
    d_minus: float
    d_plus: float


class ChannelGeometry(_Geometry):
    """Zonal period L and meridional band [d_minus, d_plus]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.L > 0 and math.isfinite(self.L)):
            raise DomainError(f"zonal period must be positive and finite, got L={self.L}")
        for name, value in (("d_minus", self.d_minus), ("d_plus", self.d_plus)):
            if not math.isfinite(value):
                raise DomainError(f"band endpoint must be finite, got {name}={value}")
        if not (self.d_plus > self.d_minus):
            raise DomainError(
                f"band endpoints must satisfy d_minus < d_plus, got [{self.d_minus}, {self.d_plus}]"
            )
        return self

    @property
    def width(self) -> float:
        return self.d_plus - self.d_minus


class _Grid(NamedTuple):
    nx: int
    ny: int
    geometry: ChannelGeometry


class Grid2D(_Grid):
    """Uniform grid on the periodic channel.

    x nodes: x_i = i*hx for i = 0..nx-1 (node nx is identified with node 0).
    y nodes: y_j = d_minus + j*hy for j = 0..ny-1; both walls are nodes.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.nx < 8 or self.nx % 2 != 0:
            raise DomainError(f"nx must be even and >= 8, got {self.nx}")
        if self.ny < 9:
            raise DomainError(f"ny must be >= 9, got {self.ny}")
        return self

    @property
    def hx(self) -> float:
        return self.geometry.L / self.nx

    @property
    def hy(self) -> float:
        return self.geometry.width / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return self.hx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.geometry.d_minus + self.hy * np.arange(self.ny)

    def mesh(self):
        """Return (X, Y) coordinate arrays of shape (ny, nx)."""
        return np.meshgrid(self.x, self.y)

    @property
    def shape(self):
        return (self.ny, self.nx)


def _as_field(field, grid: Grid2D) -> np.ndarray:
    f = np.asarray(field, dtype=float)
    if f.shape != grid.shape:
        raise ShapeError(f"field shape {f.shape} does not match grid {grid.shape}")
    return f


# (output, east neighbour, west neighbour) column indices of the periodic x
# stencils: the interior columns as one slice, then the two wrapped columns.
_X_COLUMNS = ((slice(1, -1), slice(2, None), slice(None, -2)), (0, 1, -1), (-1, 0, -2))


def gradient(field, grid: Grid2D):
    """Second-order (f_x, f_y): periodic central in x, one-sided at y walls."""
    f = _as_field(field, grid)
    hx, hy = grid.hx, grid.hy

    fx = np.empty_like(f)
    for out, east, west in _X_COLUMNS:
        np.subtract(f[:, east], f[:, west], out=fx[:, out])
    fx /= 2.0 * hx

    fy = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=fy[1:-1])
    fy[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
    fy[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
    fy /= 2.0 * hy
    return fx, fy


def laplacian(field, grid: Grid2D) -> np.ndarray:
    """Five-point Laplacian, periodic in x, one-sided second-order at y walls."""
    f = _as_field(field, grid)
    hx, hy = grid.hx, grid.hy

    # fxx = (f_east - 2 f + f_west) / hx^2, evaluated left to right
    fxx = np.multiply(f, 2.0)
    for out, east, west in _X_COLUMNS:
        col = fxx[:, out]
        np.subtract(f[:, east], col, out=col)
        col += f[:, west]
    fxx /= hx * hx

    fyy = np.empty_like(f)
    inner = fyy[1:-1]
    np.multiply(f[1:-1], 2.0, out=inner)
    np.subtract(f[2:], inner, out=inner)
    inner += f[:-2]
    fyy[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
    fyy[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    fyy /= hy * hy
    fxx += fyy
    return fxx


class _Wave(NamedTuple):
    grid: Grid2D
    u: np.ndarray
    v: np.ndarray
    c: float
    beta: float


class WaveField(_Wave):
    """Gridded traveling wave: velocities (u, v), wave speed c, Coriolis gradient beta.

    The frame moves with the wave, so u and v are functions of (x - c t, y)
    sampled at t = 0.  Fields are immutable after construction.
    """

    __slots__ = ()

    def __new__(cls, grid, u, v, c, beta):
        u = _as_field(u, grid)
        v = _as_field(v, grid)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise DomainError("velocity fields must be finite")
        if not (math.isfinite(c) and math.isfinite(beta)):
            raise DomainError("c and beta must be finite")
        if beta < 0:
            raise DomainError(f"beta must be >= 0, got {beta}")
        u.setflags(write=False)
        v.setflags(write=False)
        return super().__new__(cls, grid, u, v, c, beta)


class FieldDiagnostics(NamedTuple):
    """Residual norms of the traveling-wave governing equations.

    residual_inf is the sup norm of (u - c) * lap(v) + v * (beta - lap(u)),
    which vanishes identically for an exact traveling wave; residual_rel
    divides by the natural term-by-term scale so thresholds are scale free.
    """

    div_inf: float
    residual_inf: float
    residual_rel: float
    boundary_v_inf: float
    total_vorticity_min: float
    total_vorticity_max: float


def _max_abs(a: np.ndarray) -> float:
    """max |a|, taking the absolute value in place: a is scratch afterwards."""
    return float(np.max(np.abs(a, out=a)))


def diagnostics(field: WaveField) -> FieldDiagnostics:
    """Divergence, momentum residual, boundary leakage, and total-vorticity range.

    Each intermediate is reduced as soon as it exists and its buffer is
    reused, so at most four new field-sized arrays, the four gradients, are
    alive at once; the vorticity is reduced to its range before the residual.
    """
    grid = field.grid
    u, v, c, beta = field.u, field.v, field.c, field.beta

    ux, uy = gradient(u, grid)
    vx, vy = gradient(v, grid)
    div_inf = _max_abs(np.add(ux, vy, out=ux))
    del ux, vy
    # total vorticity gamma + beta*y, gamma = v_x - u_y, in vx's buffer
    total_vorticity = np.subtract(vx, uy, out=vx)
    total_vorticity += beta * grid.y[:, None]
    vorticity_min, vorticity_max = float(total_vorticity.min()), float(total_vorticity.max())
    del vx, uy, total_vorticity

    # residual = (u - c) * lap(v) + v * (beta - lap(u)), built in place
    residual = u - c
    speed_inf = float(np.max(np.abs(residual)))
    lap_v = laplacian(v, grid)
    lap_v_inf = float(np.max(np.abs(lap_v)))
    residual *= lap_v
    del lap_v
    q = laplacian(u, grid)
    np.subtract(beta, q, out=q)
    q_inf = float(np.max(np.abs(q)))
    q *= v
    residual += q
    residual_inf = _max_abs(residual)
    scale = speed_inf * lap_v_inf + float(np.max(np.abs(v))) * q_inf + _EPS

    return FieldDiagnostics(
        div_inf=div_inf,
        residual_inf=residual_inf,
        residual_rel=residual_inf / scale,
        boundary_v_inf=float(max(np.max(np.abs(v[0])), np.max(np.abs(v[-1])))),
        total_vorticity_min=vorticity_min,
        total_vorticity_max=vorticity_max,
    )


# ----------------------------------------------------------------------
# Wave-field file format: a single JSON document with keys
# {nx, ny, L, d_minus, d_plus, c, beta, u, v}, u and v row-major
# ny rows x nx columns of finite doubles.  Every value is a JSON number,
# never a string ("8", " 1.5 "), nor an array where a scalar belongs.
# ----------------------------------------------------------------------

_FIELD_KEYS = ("nx", "ny", "L", "d_minus", "d_plus", "c", "beta", "u", "v")


def _field_scalars(field: WaveField) -> dict:
    g = field.grid
    return dict(zip(_FIELD_KEYS, (g.nx, g.ny, *g.geometry, field.c, field.beta)))


def field_to_dict(field: WaveField) -> dict:
    return {**_field_scalars(field), "u": field.u.tolist(), "v": field.v.tolist()}


def dump_field(field: WaveField, fh) -> None:
    """Write the field as one compact JSON document and a newline to fh.

    The sorted scalar keys come first, then "u" and "v"; there is no
    whitespace.  orjson formats every number with its shortest round-trip
    digits, and u and v are written one row at a time, so the whole field
    is never held as text or as Python floats.
    """
    import orjson  # on first use, so that commands without field I/O never load it

    opt = orjson.OPT_SERIALIZE_NUMPY
    head = orjson.dumps(_field_scalars(field), option=opt | orjson.OPT_SORT_KEYS)
    fh.write(head[:-1].decode("ascii"))  # the scalars without the closing brace
    for key, arr in (("u", field.u), ("v", field.v)):
        fh.write(f',"{key}":[')
        for j, row in enumerate(arr):
            if j:
                fh.write(",")
            # orjson rejects a strided row, as a transposed field has
            fh.write(orjson.dumps(np.ascontiguousarray(row), option=opt).decode("ascii"))
        fh.write("]")
    fh.write("}\n")


def _doubles(value) -> np.ndarray:
    """np.asarray(value, dtype=float), but a string entry is not a number."""
    a = np.asarray(value)
    if a.dtype.kind in "biuf":
        return a.astype(float, copy=False)
    doubles = np.asarray(value, dtype=float)  # a string that is no number raises here
    if a.dtype.kind != "O" or any(isinstance(x, str) for x in a.flat):
        raise TypeError("u/v entries must be numbers, not strings")
    return doubles


def _whole(value, key) -> int:
    """int(value), but a value that int() would truncate is not a count."""
    n = int(value)
    if n != value:
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return n


def field_from_dict(doc: dict) -> WaveField:
    missing = [k for k in _FIELD_KEYS if k not in doc]
    if missing:
        raise FieldFormatError(f"wave-field document missing keys: {missing}")
    arrays = [k for k in _FIELD_KEYS[:-2] if isinstance(doc[k], (str, list, np.ndarray))]
    if arrays:
        raise FieldFormatError(f"wave-field scalars must be numbers: {arrays}")
    try:
        nx = _whole(doc["nx"], "nx")
        ny = _whole(doc["ny"], "ny")
        geom = ChannelGeometry(float(doc["L"]), float(doc["d_minus"]), float(doc["d_plus"]))
        grid = Grid2D(nx, ny, geom)
        u = _doubles(doc["u"])
        v = _doubles(doc["v"])
    except (TypeError, ValueError, OverflowError, DomainError) as exc:
        raise FieldFormatError(f"malformed wave-field document: {exc}") from exc
    if u.shape != (ny, nx) or v.shape != (ny, nx):
        raise FieldFormatError(
            f"u/v shapes {u.shape}/{v.shape} do not match declared ({ny}, {nx})"
        )
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise FieldFormatError("u/v contain NaN or Inf")
    try:
        return WaveField(grid, u, v, float(doc["c"]), float(doc["beta"]))
    except (TypeError, ValueError, OverflowError, DomainError) as exc:
        raise FieldFormatError(f"malformed wave-field document: {exc}") from exc


def write_field(field: WaveField, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        dump_field(field, fh)


def _parse_array(s_and_end, scan_once):
    """The decoder's array hook: the array that opens at s[end - 1], as a
    float64 array if it holds only numbers, and the index just past it.

    orjson parses the text from the "[" through the next "]".  A slice that
    orjson accepts is the whole array, with json's float64 values (an
    integer beyond 64 bits comes back as the double float() makes of it).
    Any other array (NaN or Infinity literals, a nested row, a string, a
    truncated row) goes to json.decoder.JSONArray, with json's verdict.
    """
    import orjson  # on first use, as in dump_field

    s, end = s_and_end
    j = s.find("]", end) + 1  # 0 if there is none, and orjson rejects ""
    try:
        row = np.asarray(orjson.loads(s[end - 1:j]))
        if row.dtype.kind in "biuf":
            return row.astype(float, copy=False), j
    except (TypeError, ValueError, OverflowError):
        pass  # orjson's JSONDecodeError is a ValueError
    return json.decoder.JSONArray(s_and_end, scan_once)


# json.loads's decoder, but every array goes through _parse_array first.
_FIELD_DECODER = json.JSONDecoder()
_FIELD_DECODER.parse_array = _parse_array
_FIELD_DECODER.scan_once = json.scanner.py_make_scanner(_FIELD_DECODER)


def read_field(path) -> WaveField:
    """Read a wave-field file; every malformed one raises FieldFormatError.

    The text is read once and decoded by json's own parser, each row of u
    and v becoming a float64 array as it is parsed (_parse_array), and it
    is dropped before the rows are stacked.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = _FIELD_DECODER.decode(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise FieldFormatError(f"cannot read wave-field file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FieldFormatError("wave-field file must hold a JSON object")
    return field_from_dict(doc)
