"""Check the tracer's counts against the ROADMAP baseline table.

    python3 perfbench/roadmap_check.py

Runs traced `qgwave` invocations on the couette band [-1, 1]:
`critical-beta` at tol 1e-4, 1e-6 and 1e-8 must take 22, 29 and 36 eigen
solves inside the root finder plus the CLI's one residual solve, and
`eigen --tol 1e-8` at the singular c = u0_min with beta = 5 must report
n_used = 131071 (N = 131072 intervals).  Prints the traced times beside the
table's and exits 1 on a count mismatch.
"""

import json
import shutil
import sys
from pathlib import Path

import run
import tracer

COUETTE = ["--profile", "couette", "--d", "1"]
CASES = [
    # (argv, expected root solves, expected total solves, ROADMAP time)
    (["critical-beta", *COUETTE, "--tol", "1e-4", "--json"], 22, 23, "25 ms"),
    (["critical-beta", *COUETTE, "--tol", "1e-6", "--json"], 29, 30, "0.2 s"),
    (["critical-beta", *COUETTE, "--tol", "1e-8", "--json"], 36, 37, "2.1 s"),
]
EIGEN = ["eigen", *COUETTE, "--beta", "5", "--c", "min", "--tol", "1e-8", "--json"]


def main() -> int:
    root = Path.cwd()
    workdir = root / ".perfbench_work" / "roadmap"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(root, workdir)
    ok = True
    shim = [sys.executable, str(run.HERE / "shim.py")]
    try:
        for i, (argv, roots, total, table) in enumerate(CASES):
            path = workdir / f"cb-{i}.json"
            _, code, _, _ = runner.spawn([*shim, str(path), *argv])
            m = tracer.layer_metrics([run.read_spans(path)])
            got = (m["rootfind.critical_beta.solves"], m["eigen.solves"])
            case_ok = code == 0 and got == (roots, total)
            ok &= case_ok
            print(f"{'ok  ' if case_ok else 'FAIL'} {' '.join(argv[:6])}: root solves {got[0]} "
                  f"(ROADMAP {roots}) + residual = {got[1]}; "
                  f"root finder {m['rootfind.critical_beta.s']:.3f} s (ROADMAP {table})")
        path = workdir / "eigen.json"
        _, code, out, _ = runner.spawn([*shim, str(path), *EIGEN])
        m = tracer.layer_metrics([run.read_spans(path)])
        n_used = json.loads(out)["n_used"] if code == 0 else None
        case_ok = n_used == 131071 and m["eigen.final_n_max"] == 131072
        ok &= case_ok
        print(f"{'ok  ' if case_ok else 'FAIL'} eigen couette beta=5 c=min tol 1e-8: n_used "
              f"{n_used} (ROADMAP N=131072), {m['eigen.rungs']} rungs, "
              f"{m['eigen.self_s'] + m['profiles.eval_s']:.3f} s (ROADMAP 179 ms)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
