"""qgwave benchmark: seeded `qgwave` invocations timed end to end, or traced per layer.

    python3 perfbench/run.py --workload spectral|fields --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the program under ./src.  Load is a
closed loop: one client process runs one `qgwave` invocation at a time, each
in a fresh interpreter, and checks every answer (see plan.py).  QGWAVE_THREADS
is left unset, so `curve` uses its default pool.

--trace 0 prints the end-to-end metrics.  After an untimed set-up (repeated,
median reported as setup_s) it runs every query of the workload once, then
keeps cycling through them, skipping any whose last wall time would overrun
--seconds, until none fits:

* wall_s: one round's summed invocation wall time, each query taken as its
  median over its samples (the time of a user's scripted study);
* call_p50_s: the median over queries of those per-query medians (the
  latency of a typical interactive query, each query weighted once);
* peak_rss_mb: the largest, over queries, of each query's median child peak
  RSS (os.wait4 ru_maxrss).  `curve` is left out: its peak swings between
  about 145 and 172 MB with how its two threads overlap at their top rungs.

A failed invocation (nonzero exit, or an answer that fails its check) counts
as infinitely slow.  --trace 1 prints the per-layer metrics: each query runs
once plainly and once through shim.py, whose spans tracer.py reduces.  A
layer the workload never reaches reads 0.  Probes outside the workload add
import, kernel and error-estimate figures, and the workload's `curve` runs
once more with QGWAVE_THREADS=1 for curve.serial_s.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import plan as plans
import tracer

HERE = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 170
SETUP_REPEATS = 9
IMPORT_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    "cli.import_rss_mb": "MB",
    "profiles.band_extrema_s": "s",
    "profiles.eval_calls": "count",
    "profiles.eval_points": "count",
    "profiles.eval_s": "s",
    "eigen.solves": "count",
    "eigen.rungs": "count",
    "eigen.points": "count",
    "eigen.final_n_max": "count",
    "eigen.self_s": "s",
    "eigen.err_overstatement": "ratio",
    "kernel.us_per_point.n1024": "us",
    "kernel.us_per_point.n16384": "us",
    "kernel.us_per_point.n131072": "us",
    "rootfind.critical_beta.solves": "count",
    "rootfind.critical_beta.s": "s",
    "rootfind.wave_speed_root.solves": "count",
    "rootfind.wave_speed_root.s": "s",
    "rootfind.inf_c.solves": "count",
    "rootfind.inf_c.s": "s",
    "curve.s": "s",
    "curve.busy_s": "s",
    "curve.serial_s": "s",
    "curve.points_flagged": "count",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.bytes": "bytes",
    "io.write_mb_per_s": "MB/s",
    "io.read_mb_per_s": "MB/s",
    "stencil.gradient_calls": "count",
    "stencil.laplacian_calls": "count",
    "stencil.s": "s",
    "stencil.bytes_computed": "bytes",
    "classify.self_s": "s",
    "diagnostics.self_s": "s",
    "flows.make_s": "s",
    "trace.overhead_frac": "ratio",
}


class Runner:
    """Spawns invocations one at a time and keeps the attempted/failed tally."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("QGWAVE_THREADS", None)
        paths = [str(root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def spawn(self, cmd, env=None):
        """Run cmd to completion; return (wall_s, exit code, stdout, peak RSS in kB)."""
        self._n += 1
        out_path = self.workdir / f"stdout-{self._n}"
        err_path = self.workdir / f"stderr-{self._n}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env or self.env,
                                    cwd=self.root)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        out_path.unlink()
        err_path.unlink()
        return wall, proc.returncode, stdout, usage.ru_maxrss

    def call(self, query, trace_path=None, extra_env=None):
        """One checked invocation of `qgwave`, plain or through the tracing shim."""
        if trace_path is None:
            cmd = [sys.executable, "-m", "qgwave.cli", *query["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "shim.py"), str(trace_path), *query["argv"]]
        env = {**self.env, **extra_env} if extra_env else None
        if query["check"] == "example":  # the check must see this call's write
            Path(query["expect"]["path"]).unlink(missing_ok=True)
        wall, code, stdout, rss_kb = self.spawn(cmd, env)
        ok = plans.judge(query, code, stdout)
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"perfbench: FAILED {query['id']}: exit {code}\n")
        return {"id": query["id"], "wall": wall, "ok": ok, "rss_kb": rss_kb}


def _latency(call) -> float:
    return call["wall"] if call["ok"] else math.inf


def setup(runner: Runner, workload: str, seed: int):
    """Write the seeded inputs and warm the interpreter caches; return (seconds, plan)."""
    t0 = time.perf_counter()
    queries = plans.make_plan(workload, seed, str(runner.workdir))
    (runner.workdir / "plan.json").write_text(json.dumps(queries, indent=1))
    runner.call(plans.warmup_query(seed))
    return time.perf_counter() - t0, queries


def end_to_end(runner: Runner, queries, seconds: float, setup_times):
    """Run every query once, then cycle through them again while --seconds lasts.

    After the first round a query is skipped when its last wall time would
    overrun --seconds, and the run ends once every query would: cheap queries
    collect more samples than expensive ones.
    """
    latencies = {q["id"]: [] for q in queries}
    rss_kb = {q["id"]: [] for q in queries if q["argv"][0] != "curve"}

    def sample(q):
        call = runner.call(q)
        latencies[q["id"]].append(_latency(call))
        if q["id"] in rss_kb:
            rss_kb[q["id"]].append(call["rss_kb"])

    start = time.perf_counter()
    for q in queries:
        sample(q)
    skipped = 0
    for q in itertools.cycle(queries):
        if skipped == len(queries):
            break
        if time.perf_counter() - start + latencies[q["id"]][-1] > seconds:
            skipped += 1
            continue
        skipped = 0
        sample(q)
    per_query = [statistics.median(v) for v in latencies.values()]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(per_query),
        "call_p50_s": statistics.median(per_query),
        "peak_rss_mb": max(map(statistics.median, rss_kb.values())) / 1024.0,
    }
    samples = sum(map(len, latencies.values()))
    notes = {"queries": len(queries), "invocations": samples, "setup_repeats": len(setup_times)}
    return values, notes


def read_spans(path: Path):
    """The spans a shim invocation wrote, or none if it wrote no file."""
    if not path.is_file():
        return []
    return json.loads(path.read_text())["spans"]


def _import_probe(runner: Runner):
    """cli.import_s as fresh-interpreter `import qgwave.cli` minus `python -c pass`."""
    code = "import json, sys; import qgwave.cli; print(len(sys.modules))"
    bare, loaded = [], []
    modules, rss = 0, 0
    for _ in range(IMPORT_REPEATS):
        bare.append(runner.spawn([sys.executable, "-c", "pass"])[0])
        wall, status, out, rss_kb = runner.spawn([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError("import qgwave.cli failed")
        loaded.append(wall)
        modules, rss = int(out), max(rss, rss_kb)
    return {
        "cli.import_s": statistics.median(loaded) - statistics.median(bare),
        "cli.modules_loaded": modules,
        "cli.import_rss_mb": rss / 1024.0,
    }


def per_layer(runner: Runner, queries):
    """Layer metrics of the traced queries; a layer they never reach reads 0."""
    plain, traced, span_lists = [], [], []
    for i, q in enumerate(queries):
        path = runner.workdir / f"trace-{i}.json"
        plain.append(runner.call(q))
        traced.append(runner.call(q, trace_path=path))
        span_lists.append(read_spans(path))
    values = tracer.layer_metrics(span_lists)
    serial = []
    for i, q in enumerate(q for q in queries if q["argv"][0] == "curve"):
        path = runner.workdir / f"serial-{i}.json"
        runner.call(q, trace_path=path, extra_env={"QGWAVE_THREADS": "1"})
        serial += [s for s in read_spans(path) if s["name"] == tracer.CURVE]
    values["curve.serial_s"] = sum(s["end"] - s["start"] for s in serial)
    values["trace.overhead_frac"] = (
        sum(map(_latency, traced)) / sum(map(_latency, plain)) - 1.0)
    values.update(_import_probe(runner))
    wall, status, out, _ = runner.spawn([sys.executable, str(HERE / "probes.py")])
    if status != 0:
        raise RuntimeError("layer probes failed")
    values.update(json.loads(out.decode().splitlines()[-1]))
    return values, {"invocations": runner.attempted}


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(root: Path, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": _commit(root), "seed": seed}


def _finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qgwave" / "cli.py").is_file():
        sys.stderr.write("perfbench: no ./src/qgwave here; run from the repository root\n")
        return 2

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir)
    try:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setup_times = []
        for _ in range(repeats):
            elapsed, queries = setup(runner, args.workload, args.seed)
            setup_times.append(elapsed)
        if args.trace == 0:
            values, notes = end_to_end(runner, queries, args.seconds, setup_times)
            units = END_TO_END
        else:
            values, notes = per_layer(runner, queries)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("provenance " + json.dumps(provenance(root, args.seed), sort_keys=True))
    print(f"workload {args.workload}: " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": _finite(values[n]), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
