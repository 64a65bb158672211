"""Command-line front end.

Exit codes: 0 success, 1 scientific failure (domain violations, lost
convergence, missing roots) with JSON error detail on stderr, 2 usage
errors.  Output is fully deterministic: identical invocations produce
identical bytes, and the only metadata is the tool name and version.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .channel import ChannelGeometry, Grid2D, diagnostics, field_to_dict, read_field, write_field
from .classify import classify
from .eigen import (
    DEFAULT_EIGEN_TOL,
    DEFAULT_ROOT_TOL,
    boundary_curve,
    critical_beta,
    lambda_inf_over_c,
    principal_eigenvalue,
    wave_speed_root,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    FieldFormatError,
    NoRootError,
    ProfileSpecError,
)
from .flows import (
    KOLMOGOROV_PERIOD,
    MIN_CRITICAL_BETA0,
    Example31Params,
    GrsParams,
    make_grs_vortex,
    make_inflection_wave,
    make_kolmogorov_perturbed,
    make_min_critical_wave,
)
from .planets import PLANETS, beta_plane_params, jupiter_band_case, saturn_polar_case
from .profiles import band_extrema, parse_profile

_USAGE_ERRORS = (ProfileSpecError, FieldFormatError)
_SCIENCE_ERRORS = (DomainError, ConvergenceError, DivergenceError, NoRootError)


@dataclass
class RunConfig:
    """One parsed invocation: the subcommand plus everything it needs."""

    subcommand: str
    mode: str = "text"  # text | json | csv
    output: Optional[str] = None
    tol: Optional[float] = None
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(config: RunConfig, payload: dict) -> None:
    doc = {"meta": {"tool": "qgwave", "version": __version__}}
    doc.update(payload)
    _emit(config, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _band_from(config: RunConfig):
    profile = parse_profile(config.params["profile"])
    d = config.params["d"]
    return band_extrema(profile, d)


def _cmd_eigen(config: RunConfig) -> int:
    band = _band_from(config)
    c_raw = config.params["c"]
    c = band.u0_min if c_raw == "min" else float(c_raw)
    res = principal_eigenvalue(band, config.params["beta"], c, tol=config.tol)
    payload = {
        "lambda1": res.lambda1,
        "n_used": res.n_used,
        "est_error": res.est_error,
        "tol": config.tol,
        "profile": band.profile.spec(),
        "d": band.d,
        "beta": config.params["beta"],
        "c": c,
        "singular": c == band.u0_min,
    }
    if config.mode == "json":
        _emit_json(config, payload)
    else:
        _emit(
            config,
            f"lambda1 = {_fmt(res.lambda1)}  (n_used={res.n_used}, "
            f"est_error={_fmt(res.est_error)})\n",
        )
    return 0


def _cmd_critical_beta(config: RunConfig) -> int:
    band = _band_from(config)
    bc = critical_beta(band, tol=config.tol)
    # achieved error proxy: the eigenvalue left at the returned root,
    # resolved in the problem's natural units pi^2/(4 d^2)
    scale = (math.pi / (2.0 * band.d)) ** 2
    res = principal_eigenvalue(band, bc, band.u0_min, tol=1e-6 * scale, want_vector=False)
    if config.mode == "json":
        _emit_json(
            config,
            {
                "beta_crit": bc,
                "residual_lambda1": res.lambda1,
                "tol": config.tol,
                "profile": band.profile.spec(),
                "d": band.d,
            },
        )
    else:
        _emit(config, f"beta_crit = {_fmt(bc)}  (residual lambda1 {_fmt(res.lambda1)})\n")
    return 0


def _cmd_inf_c(config: RunConfig) -> int:
    band = _band_from(config)
    inf_value, argmin_c = lambda_inf_over_c(band, config.params["beta"], tol=config.tol)
    res = principal_eigenvalue(
        band, config.params["beta"], argmin_c, tol=config.tol / 4.0, want_vector=False
    )
    if config.mode == "json":
        _emit_json(
            config,
            {
                "inf_lambda1": inf_value,
                "argmin_c": argmin_c,
                "est_error": res.est_error,
                "beta": config.params["beta"],
                "tol": config.tol,
                "profile": band.profile.spec(),
                "d": band.d,
            },
        )
    else:
        _emit(
            config,
            f"inf lambda1 = {_fmt(inf_value)} at c = {_fmt(argmin_c)} "
            f"(est_error {_fmt(res.est_error)})\n",
        )
    return 0


def _cmd_root_c(config: RunConfig) -> int:
    band = _band_from(config)
    beta = config.params["beta"]
    L = config.params["L"]
    c_L = wave_speed_root(band, beta, L, tol=config.tol)
    res = principal_eigenvalue(band, beta, c_L, tol=config.tol / 4.0, want_vector=False)
    residual = res.lambda1 + (2.0 * math.pi / L) ** 2
    if config.mode == "json":
        _emit_json(
            config,
            {
                "c_L": c_L,
                "residual": residual,
                "beta": beta,
                "L": L,
                "tol": config.tol,
                "profile": band.profile.spec(),
                "d": band.d,
            },
        )
    else:
        _emit(config, f"c_L = {_fmt(c_L)}  (residual {_fmt(residual)})\n")
    return 0


def _cmd_curve(config: RunConfig) -> int:
    band = _band_from(config)
    points = boundary_curve(
        band,
        config.params["beta_min"],
        config.params["beta_max"],
        config.params["n"],
        tol=config.tol,
    )
    if config.mode == "json":
        _emit_json(
            config,
            {
                "points": [
                    {
                        "beta": p.beta,
                        "lambda1": p.lambda1_at_u0min,
                        "L_crit": p.L_crit,
                        "error": p.error,
                    }
                    for p in points
                ],
                "profile": band.profile.spec(),
                "d": band.d,
                "tol": config.tol,
            },
        )
    else:
        lines = ["beta,lambda1,L_crit"]
        for p in points:
            lam = "" if p.lambda1_at_u0min is None else _fmt(p.lambda1_at_u0min)
            lc = "" if p.L_crit is None else _fmt(p.L_crit)
            lines.append(f"{_fmt(p.beta)},{lam},{lc}")
        _emit(config, "\n".join(lines) + "\n")
    return 0


def _cmd_classify(config: RunConfig) -> int:
    wf = read_field(config.params["field"])
    report = classify(wf, eps_scale=config.params["eps_scale"])
    if config.mode == "json":
        _emit_json(config, report.to_dict())
    else:
        cats = ", ".join(report.categories()) or "none"
        _emit(
            config,
            f"genuine = {report.genuine} (max|v| = {_fmt(report.v_max)})\n"
            f"categories: {cats}\n"
            f"theorem_consistent = {report.theorem_consistent}\n",
        )
    return 0


def _cmd_verify(config: RunConfig) -> int:
    wf = read_field(config.params["field"])
    diag = diagnostics(wf)
    payload = {
        "div_inf": diag.div_inf,
        "residual_inf": diag.residual_inf,
        "residual_rel": diag.residual_rel,
        "boundary_v_inf": diag.boundary_v_inf,
        "total_vorticity_min": float(diag.total_vorticity.min()),
        "total_vorticity_max": float(diag.total_vorticity.max()),
        "c": wf.c,
        "beta": wf.beta,
    }
    if config.mode == "json":
        _emit_json(config, payload)
    else:
        _emit(
            config,
            "".join(f"{k} = {_fmt(v)}\n" for k, v in payload.items()),
        )
    return 0


def _example_field(config: RunConfig):
    name = config.params["name"]
    nx, ny = config.params["nx"], config.params["ny"]
    if name == "ex31":
        grid = Grid2D(nx, ny, ChannelGeometry(2.0 * math.pi, -1.0, 1.0))
        p = Example31Params(
            n=config.params["n"],
            k=config.params["k"],
            A=config.params["A"],
            A_tilde=config.params["A_tilde"],
            B=config.params["B"],
            c=config.params["c"],
            xi=config.params["xi"],
            beta=config.params["beta"] if config.params["beta"] is not None else 1.0,
        )
        return make_inflection_wave(p, grid)
    if name == "ex32":
        grid = Grid2D(nx, ny, ChannelGeometry(2.0 * math.pi, -1.0, 1.0))
        mode = config.params["beta_mode"]
        if mode == "beta0":
            beta = MIN_CRITICAL_BETA0
        elif mode == "2beta0":
            beta = 2.0 * MIN_CRITICAL_BETA0
        else:
            if config.params["beta"] is None:
                raise ProfileSpecError("ex32 needs --beta-mode beta0|2beta0 or an explicit --beta")
            beta = config.params["beta"]
        return make_min_critical_wave(beta, config.params["c"], grid)
    if name == "ex33":
        grid = Grid2D(nx, ny, ChannelGeometry(KOLMOGOROV_PERIOD, -math.pi, math.pi))
        return make_kolmogorov_perturbed(config.params["eps"], grid)
    if name == "grs":
        grid = Grid2D(
            nx, ny, ChannelGeometry(config.params["Lx"], -config.params["d"], config.params["d"])
        )
        p = GrsParams(config.params["a"], config.params["b"], config.params["k_exp"])
        return make_grs_vortex(p, grid, config.params["clip_radius"])
    raise ProfileSpecError(f"unknown example '{name}'")


def _cmd_example(config: RunConfig) -> int:
    wf = _example_field(config)
    if config.output:
        write_field(wf, config.output)
    else:
        sys.stdout.write(json.dumps(field_to_dict(wf), sort_keys=True) + "\n")
    return 0


def _cmd_planet(config: RunConfig) -> int:
    case = config.params.get("case")
    if case == "jupiter-band":
        payload = jupiter_band_case()
    elif case == "saturn-polar":
        payload = saturn_polar_case()
    else:
        name = config.params.get("name")
        theta0 = config.params.get("theta0")
        if name is None or theta0 is None:
            raise ProfileSpecError("planet needs --case, or both --name and --theta0")
        planet = PLANETS[name]
        f0, beta = beta_plane_params(planet, theta0)
        payload = {"planet": planet.to_dict(), "theta0_deg": theta0, "f0": f0, "beta": beta}
    if config.mode == "json":
        _emit_json(config, payload)
    else:
        _emit(config, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


_DISPATCH = {
    "eigen": _cmd_eigen,
    "critical-beta": _cmd_critical_beta,
    "inf-c": _cmd_inf_c,
    "root-c": _cmd_root_c,
    "curve": _cmd_curve,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "example": _cmd_example,
    "planet": _cmd_planet,
}


def _add_output_flags(p, csv=False):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON document")
    group.add_argument("--text", action="store_true", help="emit plain text (default)")
    if csv:
        group.add_argument("--csv", action="store_true", help="emit CSV (default for curve)")
    p.add_argument("-o", "--output", help="write to this path instead of stdout")


def _add_band_flags(p):
    p.add_argument("--profile", required=True, help="profile spec, e.g. couette or parabola:7,0")
    p.add_argument("--d", type=float, required=True, help="band half-width")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgwave",
        description="Eigenvalues, transitional beta values and wave classification "
        "for shear flows in a zonal channel.",
    )
    parser.add_argument("--version", action="version", version=f"qgwave {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eigen", help="principal eigenvalue at (beta, c)")
    _add_band_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c", required=True, help="wave speed, or 'min' for the singular case")
    p.add_argument("--tol", type=float, default=DEFAULT_EIGEN_TOL)
    _add_output_flags(p)

    p = sub.add_parser("critical-beta", help="transitional beta value")
    _add_band_flags(p)
    p.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL)
    _add_output_flags(p)

    p = sub.add_parser("inf-c", help="infimum of lambda1 over wave speeds")
    _add_band_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_EIGEN_TOL)
    _add_output_flags(p)

    p = sub.add_parser("root-c", help="wave speed with lambda1 = -(2 pi / L)^2")
    _add_band_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--L", type=float, required=True, help="zonal period")
    p.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL)
    _add_output_flags(p)

    p = sub.add_parser("curve", help="rigidity/existence boundary curve over beta")
    _add_band_flags(p)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_EIGEN_TOL)
    _add_output_flags(p, csv=True)

    p = sub.add_parser("classify", help="classify the wave speed of a field file")
    p.add_argument("--field", required=True, help="wave-field JSON file")
    p.add_argument("--eps-scale", type=float, default=2.0)
    _add_output_flags(p)

    p = sub.add_parser("verify", help="residuals of the governing equations for a field file")
    p.add_argument("--field", required=True, help="wave-field JSON file")
    _add_output_flags(p)

    p = sub.add_parser("example", help="emit a closed-form example field as JSON")
    p.add_argument("--name", required=True, choices=["ex31", "ex32", "ex33", "grs"])
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--ny", type=int, default=129)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta-mode", choices=["beta0", "2beta0"], default=None)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--A-tilde", type=float, default=0.0)
    p.add_argument("--B", type=float, default=0.0)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--k-exp", type=float, default=3.0)
    p.add_argument("--clip-radius", type=float, default=1.5)
    p.add_argument("--Lx", type=float, default=4.0)
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("-o", "--output", help="write the field file here instead of stdout")

    p = sub.add_parser("planet", help="beta-plane parameters and worked cases")
    p.add_argument("--case", choices=["jupiter-band", "saturn-polar"])
    p.add_argument("--name", choices=sorted(PLANETS))
    p.add_argument("--theta0", type=float, help="reference latitude in degrees")
    _add_output_flags(p)

    return parser


def parse_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    if getattr(args, "json", False):
        mode = "json"
    elif getattr(args, "text", False):
        mode = "text"
    elif args.subcommand == "curve":
        mode = "csv"  # curve defaults to CSV
    else:
        mode = "text"

    params = {
        k: v
        for k, v in vars(args).items()
        if k not in {"subcommand", "json", "text", "csv", "output", "tol"}
    }
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise ProfileSpecError(f"--tol must be positive, got {tol}")
    return RunConfig(
        subcommand=args.subcommand,
        mode=mode,
        output=getattr(args, "output", None),
        tol=tol,
        params=params,
    )


def run(config: RunConfig) -> int:
    handler = _DISPATCH[config.subcommand]
    try:
        return handler(config)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"qgwave: {exc}\n")
        return 2
    except _SCIENCE_ERRORS as exc:
        detail = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NoRootError):
            detail["lambda_end"] = exc.lambda_end
            detail["target"] = exc.target
        if isinstance(exc, ConvergenceError) and exc.last_iterates:
            detail["last_iterates"] = [list(t) for t in exc.last_iterates]
        sys.stderr.write(json.dumps(detail, sort_keys=True) + "\n")
        return 1


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"qgwave: {exc}\n")
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
