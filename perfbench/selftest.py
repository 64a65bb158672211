"""Self-test of the benchmark's correctness gate and metric list.

    python3 perfbench/selftest.py

Runs a few real, cheap `qgwave` invocations, one or more for every check
kind, and shows that each answer passes its check, that the same answer
perturbed fails it, that a nonzero exit fails, and that the Runner counts
as failed a wrong answer and an `example` call that leaves its output file
unwritten.  Also checks that BENCHMARK.json names exactly the metrics run.py
prints.
Exits 0 when every case holds.
"""

import copy
import json
import random
import shutil
import sys
from pathlib import Path

import plan as plans
import run

# check kind -> how to spoil an answer that passed
PERTURB = {
    "critical_beta": lambda d: d.update(beta_crit=d["beta_crit"] * (1 + 1e-3)),
    "eigen_exact": lambda d: d.update(lambda1=d["lambda1"] * (1 + 1e-4)),
    "eigen_bounds": lambda d: d.update(est_error=d["tol"] * 10),
    "root_c": lambda d: d.update(residual=d["tol"] * 10),
    "inf_c": lambda d: d.update(inf_lambda1=d["inf_lambda1"] * (1 + 1e-4)),
    "curve": lambda d: d["points"][0].update(lambda1=d["points"][0]["lambda1"] * (1 + 1e-4)),
    "jupiter": lambda d: d.update(beta_below_critical=False),
    "planet": lambda d: d.update(beta=d["beta"] * (1 + 1e-9)),
    "classify": lambda d: d.update(theorem_consistent=False),
    "verify": lambda d: d.update(residual_rel=1.0),
}


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in bench["end_to_end"]] != list(run.END_TO_END):
        problems.append("end_to_end names differ from run.END_TO_END")
    if [m["name"] for m in bench["per_layer"]] != list(run.PER_LAYER):
        problems.append("per_layer names differ from run.PER_LAYER")

    workdir = root / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(root, workdir)
    roots = {q["id"]: q for q in plans.make_plan("spectral", 7, str(workdir))}
    # a short curve and ex33 on a small grid, whose residual still meets the verify bound
    band = plans._Linear(random.Random("selftest"))
    fields = plans.fields_plan(random.Random("selftest"), str(workdir), nx=256, ny=129)
    ex33 = [q for q in fields if q["id"].endswith(".ex33")]
    small = [
        plans.warmup_query(7),
        roots["critical-beta.parabola1"],
        roots["eigen.singular1"],
        roots["eigen.regular1"],
        roots["root-c.linear1"],
        roots["inf-c.linear1"],
        roots["planet.jupiter-band"],
        plans._curve("selftest.curve", band, 5, 1e-6),
        *ex33,
    ]
    untested = set(plans._CHECKS) - (set(PERTURB) & {q["check"] for q in small})
    if untested:
        problems.append(f"checks without a perturbed case: {sorted(untested)}")
    try:
        for q in small:
            wall, code, out, _ = runner.spawn([sys.executable, "-m", "qgwave.cli", *q["argv"]])
            if not plans.judge(q, code, out):
                problems.append(f"{q['id']}: a correct answer was judged wrong")
                continue
            if plans.judge(q, 1, out):
                problems.append(f"{q['id']}: a nonzero exit was judged right")
            if q["check"] in PERTURB:
                doc = json.loads(out)
                PERTURB[q["check"]](doc)
                if plans.judge(q, 0, json.dumps(doc).encode()):
                    problems.append(f"{q['id']}: a perturbed answer was judged right")

        wrong = copy.deepcopy(roots["critical-beta.linear1"])
        wrong["expect"]["exact"] *= 1 + 1e-3  # as if the program answered 0.1% off
        before = runner.failed
        print("selftest: a deliberately wrong answer follows")
        runner.call(wrong)
        if runner.failed != before + 1:
            problems.append("a wrong answer was not counted as failed")

        # an `example` call that writes elsewhere must fail, though an old file is in place
        unwritten = copy.deepcopy(ex33[0])
        if not Path(unwritten["expect"]["path"]).is_file():
            problems.append("no earlier example output to go stale")
        out_at = unwritten["argv"].index("-o") + 1
        unwritten["argv"][out_at] = str(workdir / "elsewhere.json")
        before = runner.failed
        print("selftest: an example call that leaves its output unwritten follows")
        runner.call(unwritten)
        if runner.failed != before + 1:
            problems.append("an unwritten example output was judged right over a stale file")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print(f"selftest: {len(small)} invocations, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
