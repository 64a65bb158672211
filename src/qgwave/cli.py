"""Command-line front end.

Each subcommand handler takes the parsed arguments and returns
(payload, text); `run` is the one place that writes.  The text is the
default output (CSV for `curve`); `--json` writes the payload as a sorted
JSON document with a `meta` block instead, and `-o` sends either to a file
rather than stdout.  `example` streams the field itself, row by row, to the
file or to stdout, and returns nothing to write.

Exit codes: 0 success, 1 scientific failure (domain violations, lost
convergence, missing roots) with JSON error detail on stderr, 2 usage
errors.  Output is fully deterministic: identical invocations produce
identical bytes, and the only metadata is the tool name and version.
"""

import argparse
import atexit
import gc
import json
import math
import re
import sys

from . import __version__
from .channel import diagnostics, dump_field, read_field, write_field
from .classify import DEFAULT_EPS_SCALE, classify
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
    DomainError,
    FieldFormatError,
    NoRootError,
    ProfileSpecError,
)
from .flows import (
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


class _CannotWrite(Exception):
    """An -o path that cannot be opened for writing: a usage error."""


_USAGE_ERRORS = (ProfileSpecError, FieldFormatError, _CannotWrite)
_SCIENCE_ERRORS = (DomainError, ConvergenceError, NoRootError)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _open_output(path):
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from exc


def _band(args):
    return band_extrema(parse_profile(args.profile), args.d)


def _band_payload(band, args, payload: dict) -> dict:
    """payload plus the band's profile spec, half-width and the tolerance."""
    payload.update(profile=band.profile.spec(), d=band.d, tol=args.tol)
    return payload


def _cmd_eigen(args):
    band = _band(args)
    c = band.u0_min if args.c == "min" else args.c
    res = principal_eigenvalue(band, args.beta, c, tol=args.tol)
    payload = {
        "lambda1": res.lambda1,
        "n_used": res.n_used,
        "est_error": res.est_error,
        "beta": args.beta,
        "c": c,
        "singular": c == band.u0_min,
    }
    text = (
        f"lambda1 = {_fmt(res.lambda1)}  (n_used={res.n_used}, "
        f"est_error={_fmt(res.est_error)})\n"
    )
    return _band_payload(band, args, payload), text


def _cmd_critical_beta(args):
    band = _band(args)
    bc = critical_beta(band, tol=args.tol)
    # check through principal_eigenvalue: lambda1 left at the returned root,
    # on the same rungs solved as lambda1 rather than as the pencil, resolved
    # in the problem's natural units pi^2/(4 d^2)
    scale = (math.pi / (2.0 * band.d)) ** 2
    res = principal_eigenvalue(band, bc, band.u0_min, tol=1e-6 * scale, want_vector=False)
    payload = {"beta_crit": bc, "residual_lambda1": res.lambda1}
    text = f"beta_crit = {_fmt(bc)}  (residual lambda1 {_fmt(res.lambda1)})\n"
    return _band_payload(band, args, payload), text


def _cmd_inf_c(args):
    band = _band(args)
    res = lambda_inf_over_c(band, args.beta, tol=args.tol)
    payload = {
        "inf_lambda1": res.lambda1,
        "argmin_c": res.c,
        "est_error": res.est_error,
        "beta": args.beta,
    }
    text = (
        f"inf lambda1 = {_fmt(res.lambda1)} at c = {_fmt(res.c)} "
        f"(est_error {_fmt(res.est_error)})\n"
    )
    return _band_payload(band, args, payload), text


def _cmd_root_c(args):
    band = _band(args)
    res = wave_speed_root(band, args.beta, args.L, tol=args.tol)
    residual = res.lambda1 + (2.0 * math.pi / args.L) ** 2
    payload = {"c_L": res.c, "residual": residual, "beta": args.beta, "L": args.L}
    text = f"c_L = {_fmt(res.c)}  (residual {_fmt(residual)})\n"
    return _band_payload(band, args, payload), text


def _cmd_curve(args):
    band = _band(args)
    points = boundary_curve(band, args.beta_min, args.beta_max, args.n, tol=args.tol)
    payload = {
        "points": [
            {"beta": p.beta, "lambda1": p.lambda1_at_u0min, "L_crit": p.L_crit, "error": p.error}
            for p in points
        ]
    }
    lines = ["beta,lambda1,L_crit"]
    for p in points:
        lam = "" if p.lambda1_at_u0min is None else _fmt(p.lambda1_at_u0min)
        lc = "" if p.L_crit is None else _fmt(p.L_crit)
        lines.append(f"{_fmt(p.beta)},{lam},{lc}")
    return _band_payload(band, args, payload), "\n".join(lines) + "\n"


def _cmd_classify(args):
    report = classify(read_field(args.field), eps_scale=args.eps_scale)
    cats = ", ".join(report.categories()) or "none"
    shear = [t.name for t in report.rigidity.applicable_theorems if t.conclusion == "shear flow"]
    text = (
        f"genuine = {report.genuine} (max|v| = {_fmt(report.v_max)})\n"
        f"categories: {cats}\n"
        f"theorem_consistent = {report.theorem_consistent}\n"
        f"rigidity: {', '.join(shear) or 'none'}\n"
    )
    return report.to_dict(), text


def _cmd_verify(args):
    wf = read_field(args.field)
    diag = diagnostics(wf)
    payload = {
        "div_inf": diag.div_inf,
        "residual_inf": diag.residual_inf,
        "residual_rel": diag.residual_rel,
        "boundary_v_inf": diag.boundary_v_inf,
        "total_vorticity_min": diag.total_vorticity_min,
        "total_vorticity_max": diag.total_vorticity_max,
        "c": wf.c,
        "beta": wf.beta,
    }
    return payload, "".join(f"{k} = {_fmt(v)}\n" for k, v in payload.items())


def _given(args, fields, dests=None):
    """{field: value} for the fields whose flags the command line gave, the
    flag of fields[i] having dest dests[i] (fields[i] itself by default)."""
    given = vars(args)
    return {f: given[dest] for f, dest in zip(fields, dests or fields) if dest in given}


def _example_field(args):
    nx, ny = args.nx, args.ny
    if args.name == "ex31":
        p = Example31Params(**_given(args, Example31Params._fields))
        return make_inflection_wave(p, nx, ny)
    if args.name == "ex32":
        if args.beta_mode == "beta0":
            beta = MIN_CRITICAL_BETA0
        elif args.beta_mode == "2beta0":
            beta = 2.0 * MIN_CRITICAL_BETA0
        elif hasattr(args, "beta"):
            beta = args.beta
        else:
            raise ProfileSpecError("ex32 needs --beta-mode beta0|2beta0 or an explicit --beta")
        return make_min_critical_wave(beta, nx, ny, **_given(args, ("c",)))
    if args.name == "ex33":
        return make_kolmogorov_perturbed(args.eps, nx, ny)
    # grs: argparse limits --name to the four examples
    p = GrsParams(**_given(args, GrsParams._fields, ("a", "b", "k_exp")))
    return make_grs_vortex(p, nx, ny, args.Lx, args.d, args.clip_radius)


def _cmd_example(args):
    wf = _example_field(args)
    if args.output:
        _open_output(args.output).close()  # an unopenable path is a usage error
        write_field(wf, args.output)
    else:
        dump_field(wf, sys.stdout)
    return None  # the field is streamed; nothing left to emit


def _cmd_planet(args):
    if args.case is not None and (args.name is not None or args.theta0 is not None):
        raise ProfileSpecError("planet takes --case, or --name and --theta0, not both")
    if args.case == "jupiter-band":
        payload = jupiter_band_case()
    elif args.case == "saturn-polar":
        payload = saturn_polar_case()
    else:
        if args.name is None or args.theta0 is None:
            raise ProfileSpecError("planet needs --case, or both --name and --theta0")
        planet = PLANETS[args.name]
        f0, beta = beta_plane_params(planet, args.theta0)
        payload = {"planet": planet.to_dict(), "theta0_deg": args.theta0, "f0": f0, "beta": beta}
    return payload, json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _add_output_flags(p):
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument("-o", "--output", help="write to this path instead of stdout")


def _add_band_flags(p):
    p.add_argument("--profile", required=True, help="profile spec, e.g. couette or parabola:7,0")
    p.add_argument("--d", type=float, required=True, help="band half-width")


def _speed(text: str):
    """--c: 'min' or a number; anything else is a usage error."""
    if text == "min":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'min' or a number, got {text!r}") from None


def _eigen_args(p):
    _add_band_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument(
        "--c", type=_speed, required=True, help="wave speed, or 'min' for the singular case"
    )
    p.add_argument("--tol", type=float, default=DEFAULT_EIGEN_TOL)
    _add_output_flags(p)


def _critical_beta_args(p):
    _add_band_flags(p)
    p.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL)
    _add_output_flags(p)


def _inf_c_args(p):
    _add_band_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_EIGEN_TOL)
    _add_output_flags(p)


def _root_c_args(p):
    _add_band_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--L", type=float, required=True, help="zonal period")
    p.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL)
    _add_output_flags(p)


def _curve_args(p):
    _add_band_flags(p)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_EIGEN_TOL)
    _add_output_flags(p)


def _classify_args(p):
    p.add_argument("--field", required=True, help="wave-field JSON file")
    p.add_argument("--eps-scale", type=float, default=DEFAULT_EPS_SCALE)
    _add_output_flags(p)


def _verify_args(p):
    p.add_argument("--field", required=True, help="wave-field JSON file")
    _add_output_flags(p)


def _example_args(p):
    p.add_argument("--name", required=True, choices=["ex31", "ex32", "ex33", "grs"])
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--ny", type=int, default=129)
    unset = argparse.SUPPRESS  # a field's flag not given leaves the field its default
    p.add_argument("--beta", type=float, default=unset)
    p.add_argument("--beta-mode", choices=["beta0", "2beta0"], default=None)
    p.add_argument("--c", type=float, default=unset)
    p.add_argument("--n", type=int, default=unset)
    p.add_argument("--k", type=int, default=unset)
    p.add_argument("--A", type=float, default=unset)
    p.add_argument("--A-tilde", type=float, default=unset)
    p.add_argument("--B", type=float, default=unset)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--a", type=float, default=unset)
    p.add_argument("--b", type=float, default=unset)
    p.add_argument("--k-exp", type=float, default=unset)
    p.add_argument("--clip-radius", type=float, default=1.5)
    p.add_argument("--Lx", type=float, default=4.0)
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("-o", "--output", help="write the field file here instead of stdout")


def _planet_args(p):
    p.add_argument("--case", choices=["jupiter-band", "saturn-polar"])
    p.add_argument("--name", choices=sorted(PLANETS))
    p.add_argument("--theta0", type=float, help="reference latitude in degrees")
    _add_output_flags(p)


# subcommand -> (help, function that adds its arguments, handler), in help order
_SUBCOMMANDS = {
    "eigen": ("principal eigenvalue at (beta, c)", _eigen_args, _cmd_eigen),
    "critical-beta": ("transitional beta value", _critical_beta_args, _cmd_critical_beta),
    "inf-c": ("infimum of lambda1 over wave speeds", _inf_c_args, _cmd_inf_c),
    "root-c": ("wave speed with lambda1 = -(2 pi / L)^2", _root_c_args, _cmd_root_c),
    "curve": ("rigidity/existence boundary curve over beta", _curve_args, _cmd_curve),
    "classify": ("classify the wave speed of a field file", _classify_args, _cmd_classify),
    "verify": ("residuals of the governing equations for a field file", _verify_args, _cmd_verify),
    "example": ("emit a closed-form example field as JSON", _example_args, _cmd_example),
    "planet": ("beta-plane parameters and worked cases", _planet_args, _cmd_planet),
}


# the start of every negative literal that float() reads
_NEGATIVE_NUMBER = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but every negative number float() reads ("-1e-3",
    "-inf", "-1.") is the value of the option before it, not an unknown
    flag; argparse's own pattern takes only "-1" and "-0.001".  Subparsers
    share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand is registered with its help,
    but only the one argv names gets its arguments.

    The top level takes no option with a value, so the subcommand is argv's
    first token that does not start with "-".
    """
    parser = _Parser(
        prog="qgwave",
        description="Eigenvalues, transitional beta values and wave classification "
        "for shear flows in a zonal channel.",
    )
    parser.add_argument("--version", action="version", version=f"qgwave {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == named:
            add_arguments(p)
    return parser


def run(args) -> int:
    """Run one parsed invocation and write its output: the one place that emits."""
    try:
        out = _SUBCOMMANDS[args.subcommand][2](args)
        if out is None:
            return 0
        payload, text = out
        if getattr(args, "json", False):
            doc = {"meta": {"tool": "qgwave", "version": __version__}, **payload}
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.output:
            with _open_output(args.output) as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
    return 0


def main(argv=None) -> int:
    """Run the CLI on argv; with no argv, as the process entry on sys.argv.

    As the process entry, main freezes every object alive at exit, so the
    interpreter's shutdown collection skips them: the process ends right
    after, and its memory goes back to the system either way.  Output is
    flushed and closed before then.  A call with an argv list leaves the
    collector as it found it.
    """
    if argv is None:
        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    else:
        argv = list(argv)
    args = build_parser(argv).parse_args(argv)
    tol = getattr(args, "tol", None)
    if tol is not None and not (tol > 0 and math.isfinite(tol)):
        need = "finite" if tol > 0 else "positive"
        sys.stderr.write(f"qgwave: --tol must be {need}, got {tol}\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
