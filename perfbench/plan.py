"""Seeded workload plans and the correctness gate for every qgwave invocation.

A plan is a JSON-serialisable list of queries.  Each query holds the argv of
one `qgwave` invocation, the name of the check that judges its output, and
the closed-form facts that check needs.  Every draw is valid by
construction; nothing is filtered after a failed run.

The seed draws the physical scales of each band (slope a, offset b,
orientation, half-width d of the tight bands, parabola scale k) and the
continuous parameters of each example field.  Everything that changes the
work a query does is held fixed or in a narrow range: the nondimensional
problem (beta*d/|a|, L/d, tolerances in the band's own units), d = 1 where a
default tolerance is absolute, the parabola-table entries, and the discrete
example parameters.  So the seed changes the bytes the program sees but
hardly its work, which keeps run-to-run spread small enough for the bounds
in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import random

#: first zero of the Bessel function J1; beta_crit(couette on [-1, 1]) = J11^2 / 8
J11 = 3.8317059702075123156
BESSEL_BETA = J11 * J11 / 8.0
#: transitional beta of parabola:b,e on [-d, d] (criterion 02 of the test suite);
#: beta_crit is invariant under (b, d) -> (k b, k d), so each entry covers a family.
#: Both entries bracket in [4, 16].
PARABOLA_TABLE = {(7, 1): 13.2496, (8, 3): 5.2450}
TABLE_ROUNDING = 5e-5
MIN_CRITICAL_BETA0 = 0.5 * math.pi * (0.25 * math.pi**2 + 1.0)
JUPITER_FACTOR = 2.0 * 1.76e-4 * 69911e3 / 150.0
FIELD_NX, FIELD_NY = 1024, 513  # pinned: the ROADMAP's field size

WORKLOADS = ("spectral", "fields")


def _r(x: float) -> str:
    return repr(float(x))


class _Linear:
    """linear:a,b on [-d, d] with d and |a|/d drawn from ranges, and a random orientation."""

    def __init__(self, rng: random.Random, d_range=(1.0, 1.0), ratio_range=(0.9, 1.1)):
        self.d = rng.uniform(*d_range)
        self.a = rng.choice((-1.0, 1.0)) * rng.uniform(*ratio_range) * self.d
        self.b = rng.uniform(-2.0, 2.0)
        self.u0_min = min(self.a * -self.d + self.b, self.a * self.d + self.b)
        self.u0_max = max(self.a * -self.d + self.b, self.a * self.d + self.b)
        self.unit_beta = abs(self.a) / self.d  # beta scale of the band
        self.unit_lam = 1.0 / (self.d * self.d)  # eigenvalue scale of the band

    def flags(self):
        return ["--profile", f"linear:{_r(self.a)},{_r(self.b)}", "--d", _r(self.d)]

    @property
    def dirichlet(self) -> float:
        return math.pi**2 / (4.0 * self.d * self.d)


def _q(qid, argv, check, **expect):
    return {"id": qid, "argv": argv, "check": check, "expect": expect}


def _critical_linear(qid, band, tol=None):
    argv = ["critical-beta", *band.flags(), "--json"]
    tol_used = 1e-4 if tol is None else tol
    if tol is not None:
        argv[-1:-1] = ["--tol", _r(tol)]
    return _q(qid, argv, "critical_beta", exact=BESSEL_BETA * band.unit_beta,
              slack=4.0 * tol_used)


def _eigen(qid, band, beta_units, c=None, tol=None):
    """eigen at beta = beta_units*|a|/d; c None means the singular c = u0_min."""
    beta = beta_units * band.unit_beta
    argv = ["eigen", *band.flags(), "--beta", _r(beta), "--c", "min" if c is None else _r(c)]
    if tol is not None:
        argv += ["--tol", _r(tol)]
    argv.append("--json")
    tol_used = 1e-6 if tol is None else tol
    if c is None:
        if beta_units == 2.0:  # exact singular ground state: lambda1 = -1/(4 d^2)
            return _q(qid, argv, "eigen_exact", exact=-0.25 * band.unit_lam, slack=tol_used,
                      tol=tol_used)
        # beta above the Bessel value (beta_units > j11^2/8): lambda1 < 0 strictly
        return _q(qid, argv, "eigen_bounds", lo=None, hi=0.0, tol=tol_used)
    # Weyl enclosure: V = -beta/(u0 - c) lies in [-beta/(u0_min-c), -beta/(u0_max-c)]
    lo = band.dirichlet - beta / (band.u0_min - c) - tol_used
    hi = band.dirichlet - beta / (band.u0_max - c) + tol_used
    return _q(qid, argv, "eigen_bounds", lo=lo, hi=hi, tol=tol_used)


def _root_c(qid, band, beta_units, l_units, tol=None):
    """c_L on a band where beta >= 2|a|/d and L > 4 pi d guarantee a root."""
    argv = ["root-c", *band.flags(), "--beta", _r(beta_units * band.unit_beta),
            "--L", _r(l_units * 4.0 * math.pi * band.d)]
    if tol is not None:
        argv += ["--tol", _r(tol)]
    argv.append("--json")
    return _q(qid, argv, "root_c", u0_min=band.u0_min, tol=1e-4 if tol is None else tol)


def _inf_c(qid, band):
    """inf over c of lambda1 at beta = 2|a|/d: -1/(4 d^2), attained at c = u0_min."""
    argv = ["inf-c", *band.flags(), "--beta", _r(2.0 * band.unit_beta), "--json"]
    return _q(qid, argv, "inf_c", exact=-0.25 * band.unit_lam, u0_min=band.u0_min, tol=1e-6)


def _curve(qid, band, n, tol):
    """n points of the boundary curve for beta in [2, 10]*|a|/d; the first is exact."""
    argv = ["curve", *band.flags(), "--beta-min", _r(2.0 * band.unit_beta),
            "--beta-max", _r(10.0 * band.unit_beta), "--n", str(n), "--tol", _r(tol), "--json"]
    return _q(qid, argv, "curve", n=n, first=-0.25 * band.unit_lam, tol=tol)


def roots_plan(rng: random.Random):
    """12 default-tolerance queries dominated by start-up and small solves."""
    # default tolerances are absolute, so d = 1 keeps every ladder depth alike
    l1 = _Linear(rng)
    l2 = _Linear(rng)
    queries = [
        _critical_linear("critical-beta.linear1", l1),
        _critical_linear("critical-beta.linear2", l2),
    ]
    for i, (b0, d0) in enumerate(PARABOLA_TABLE, start=1):
        k = rng.uniform(0.5, 2.0)
        argv = ["critical-beta", "--profile", f"parabola:{_r(k * b0)},{_r(rng.uniform(-1, 1))}",
                "--d", _r(k * d0), "--json"]
        queries.append(_q(f"critical-beta.parabola{i}", argv, "critical_beta",
                          exact=PARABOLA_TABLE[(b0, d0)], slack=TABLE_ROUNDING + 4e-4))
    queries += [
        _root_c("root-c.linear1", l1, 3.0, 1.5),
        _root_c("root-c.linear2", l2, 4.0, 2.0),
        _inf_c("inf-c.linear1", l1),
        _eigen("eigen.singular1", l1, 2.0),
        _eigen("eigen.singular2", l2, 2.0),
        _eigen("eigen.far2", l2, 3.0, c=l2.u0_min - 1e6 * abs(l2.a) * l2.d),
        _eigen("eigen.regular1", l1, 3.0, c=l1.u0_min - 0.5 * abs(l1.a) * l1.d),
        _q("planet.jupiter-band", ["planet", "--case", "jupiter-band", "--json"], "jupiter"),
    ]
    return queries


def tight_plan(rng: random.Random):
    """Tight-tolerance spectral queries: ladders up to N = 2^19."""
    l1 = _Linear(rng, (0.9, 1.1))
    l2 = _Linear(rng, (0.9, 1.1))
    return [
        _curve("tight.curve.linear2", l2, 17, 1e-8 * l2.unit_lam),
        # at 1e-8 the last rung is N = 2^18 or 2^19 by the seed's rounding, which
        # moves this query's peak RSS by 20%; at 5e-9 it is 2^19 for every seed
        _critical_linear("tight.critical-beta.linear1", l1, tol=5e-9 * l1.unit_beta),
        _eigen("tight.eigen.singular1", l1, 2.0, tol=1e-8 * l1.unit_lam),
        _eigen("tight.eigen.singular2", l2, 5.0, tol=1e-8 * l2.unit_lam),
        _root_c("tight.root-c.linear1", l1, 3.0, 1.5, tol=1e-6 * l1.unit_lam),
    ]


def spectral_plan(rng: random.Random):
    """The eigen path at tight and at default tolerance, in one workload.

    The tight queries spend about 80% of their time in principal_eigenvalue
    and dominate wall_s; the 12 default-tolerance ones dominate call_p50_s,
    so a gain for large N that adds per-solve cost still shows as a loss.
    They share one workload because, measured apart, the five tight queries
    gave too few cheap samples for a steady call_p50_s.  The longest query
    comes first, so it still fits in the last partial round.
    """
    return tight_plan(rng) + roots_plan(rng)


def fields_plan(rng: random.Random, workdir: str, nx=FIELD_NX, ny=FIELD_NY):
    """example -> classify -> verify on four seeded fields, 1024x513 by default."""
    grid = ["--nx", str(nx), "--ny", str(ny)]
    examples = {
        "ex31": (
            ["--n", "1", "--k", "1",
             "--A", _r(rng.uniform(0.9, 1.1)), "--A-tilde", _r(rng.uniform(-0.1, 0.1)),
             "--B", _r(rng.uniform(-0.1, 0.1)), "--c", _r(rng.uniform(-0.5, 0.5)),
             "--beta", _r(rng.uniform(0.5, 2.0))],
            {"categories_include": ["inflection"]},
        ),
        "ex32": (
            ["--beta-mode", "beta0", "--c", _r(rng.uniform(-1.0, 1.0))],
            {"categories_include": ["extremum", "critical"], "categories_exclude": ["outside"]},
        ),
        "ex33": (["--eps", _r(rng.uniform(0.05, 0.2))], {"categories_equal": ["inflection"]}),
        # the clip radius fixes how many nodes are exactly zero, and so the file size
        "grs": (
            ["--a", _r(rng.uniform(2.0, 2.4)), "--b", _r(rng.uniform(0.9, 1.0)),
             "--k-exp", _r(rng.uniform(2.8, 3.2)), "--clip-radius", "1.5"],
            {"categories_include": ["inflection"]},
        ),
    }
    queries = []
    for name, (params, expect) in examples.items():
        path = f"{workdir}/{name}.json"
        c = float(params[params.index("--c") + 1]) if "--c" in params else 0.0
        if name == "ex31":
            beta = float(params[params.index("--beta") + 1])
        elif name == "ex32":
            beta = MIN_CRITICAL_BETA0
        else:
            beta = 0.0
        queries += [
            _q(f"example.{name}", ["example", "--name", name, *grid, *params, "-o", path],
               "example", path=path),
            _q(f"classify.{name}", ["classify", "--field", path, "--json"], "classify",
               c=c, beta=beta, **expect),
            _q(f"verify.{name}", ["verify", "--field", path, "--json"], "verify",
               c=c, beta=beta, residual_rel=1e-2 if name == "grs" else 1e-4),
        ]
    return queries


def make_plan(workload: str, seed: int, workdir: str):
    """The query list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectral":
        return spectral_plan(rng)
    if workload == "fields":
        return fields_plan(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_query(seed: int):
    """A cheap invocation that loads every module; judged by its closed form."""
    theta = random.Random(f"warmup:{seed}").uniform(-60.0, 60.0)
    return _q("planet.warmup", ["planet", "--name", "jupiter", "--theta0", _r(theta), "--json"],
              "planet", f0=JUPITER_FACTOR * math.sin(math.radians(theta)),
              beta=JUPITER_FACTOR * math.cos(math.radians(theta)))


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------


def _close(x, y, tol):
    return isinstance(x, (int, float)) and abs(x - y) <= tol


def _check_critical_beta(doc, e):
    return _close(doc["beta_crit"], e["exact"], e["slack"])


def _check_eigen_exact(doc, e):
    return _close(doc["lambda1"], e["exact"], e["slack"]) and doc["est_error"] <= e["tol"]


def _check_eigen_bounds(doc, e):
    lam = doc["lambda1"]
    ok = doc["est_error"] <= e["tol"] and lam < e["hi"]
    return ok and (e["lo"] is None or lam > e["lo"])


def _check_root_c(doc, e):
    return abs(doc["residual"]) <= e["tol"] and doc["c_L"] < e["u0_min"]


def _check_inf_c(doc, e):
    # a linear band has lambda1 increasing in c below u0_min: the infimum sits at u0_min
    return (_close(doc["inf_lambda1"], e["exact"], e["tol"])
            and doc["argmin_c"] == e["u0_min"] and doc["est_error"] <= e["tol"])


def _check_curve(doc, e):
    pts = doc["points"]
    if len(pts) != e["n"] or any(p["error"] is not None for p in pts):
        return False
    lams = [p["lambda1"] for p in pts]
    if not _close(lams[0], e["first"], e["tol"]):
        return False
    if not all(a > b for a, b in zip(lams, lams[1:])) or lams[-1] >= 0.0:
        return False
    return all(math.isclose(p["L_crit"], 2.0 * math.pi / math.sqrt(-p["lambda1"]), rel_tol=1e-12)
               for p in pts)


def _check_jupiter(doc, e):
    routes = abs(doc["beta_crit_scaling"] / doc["beta_crit_solver"] - 1.0)
    return (abs(doc["beta"] - 129.0) <= 1.0 and routes <= 1e-2
            and doc["beta_below_critical"] is True and doc["waves_expected"] is False)


def _check_planet(doc, e):
    return (math.isclose(doc["f0"], e["f0"], rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(doc["beta"], e["beta"], rel_tol=1e-12))


def _check_classify(doc, e):
    cats = doc["categories"]
    ok = doc["theorem_consistent"] is True and doc["genuine"] is True
    ok = ok and doc["c"] == e["c"] and math.isclose(doc["beta"], e["beta"], rel_tol=1e-15)
    ok = ok and all(c in cats for c in e.get("categories_include", ()))
    ok = ok and not any(c in cats for c in e.get("categories_exclude", ()))
    if "categories_equal" in e:
        ok = ok and cats == e["categories_equal"]
    return ok


def _check_verify(doc, e):
    return (doc["residual_rel"] <= e["residual_rel"] and doc["boundary_v_inf"] <= 1e-12
            and doc["c"] == e["c"] and math.isclose(doc["beta"], e["beta"], rel_tol=1e-15))


_CHECKS = {
    "critical_beta": _check_critical_beta,
    "eigen_exact": _check_eigen_exact,
    "eigen_bounds": _check_eigen_bounds,
    "root_c": _check_root_c,
    "inf_c": _check_inf_c,
    "curve": _check_curve,
    "jupiter": _check_jupiter,
    "planet": _check_planet,
    "classify": _check_classify,
    "verify": _check_verify,
}


def judge(query, returncode: int, stdout: bytes) -> bool:
    """True when the invocation exited 0 and its answer passes its check."""
    if returncode != 0:
        return False
    if query["check"] == "example":
        path = query["expect"]["path"]
        return os.path.isfile(path) and os.path.getsize(path) > 0
    try:
        doc = json.loads(stdout)
        return bool(_CHECKS[query["check"]](doc, query["expect"]))
    except (ValueError, KeyError, TypeError):
        return False
