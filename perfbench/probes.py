"""Layer probes that run outside the workloads, printed as one JSON line.

    python3 perfbench/probes.py

* kernel.us_per_point.nN: one `principal_eigenvalue(..., tol=inf, n_start=N)`
  on singular couette beta=5 solves rungs N and 2N; the time is divided by
  the summed N of `history`, so a change to the stopping rule keeps the
  figure per point.  Median of several repeats.
* eigen.err_overstatement: est_error / true error on the exact beta=2 couette
  ground state (lambda1 = -1/4) at three tolerances; the median ratio.
"""

import json
import math
import statistics
import time

from qgwave import band_extrema, couette, principal_eigenvalue

KERNEL_SIZES = {1024: 15, 16384: 7, 131072: 3}  # N -> repeats
ORACLE_TOLS = (1e-4, 1e-6, 1e-8)


def main():
    band = band_extrema(couette(), 1.0)
    out = {}
    for n, repeats in KERNEL_SIZES.items():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = principal_eigenvalue(band, 5.0, band.u0_min, tol=math.inf, n_start=n)
            times.append(time.perf_counter() - t0)
        points = sum(rung for rung, _ in res.history)
        out[f"kernel.us_per_point.n{n}"] = statistics.median(times) / points * 1e6
    ratios = []
    for tol in ORACLE_TOLS:
        res = principal_eigenvalue(band, 2.0, band.u0_min, tol=tol, want_vector=False)
        ratios.append(res.est_error / abs(res.lambda1 + 0.25))
    out["eigen.err_overstatement"] = statistics.median(ratios)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
