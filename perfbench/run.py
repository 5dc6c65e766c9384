"""slabwald benchmark: one workload per process, checked, with named metrics.

    python3 perfbench/run.py --workload md_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the gated end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The line before it holds the run
context and the ungated figures (evals_per_s, eval_s_p50, eval_s_p90 where the
run has the tail for it, eval_s_min, the calibration times, fail_frac, check
failures).  The exit code is 1 when any operation failed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Cap BLAS/OpenMP pools before numpy is imported anywhere in this process
# (and in the interpreters it starts).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("md_dense", "mc_loose", "metal_tight", "error_sweep")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports slabwald from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import slabwald"], env=env, check=True,
                   timeout=120)
    return time.perf_counter() - t0


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _context() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "slabwald").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "slabwald" / "__init__.py").is_file():
        print(f"perfbench: no slabwald sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import slabwald
    import bench
    import tracing
    import workloads
    if Path(slabwald.__file__).resolve().parent != SRC / "slabwald":
        print(f"perfbench: imported slabwald from {slabwald.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    # Each set-up: a fresh interpreter's import, then gen_system, select_all
    # and the warm-up operation in this process.
    setup_reps = []
    for _ in range(bench.SETUP_REPS):
        import_s = _import_seconds()
        if tracer:
            with tracer.installed(), tracer.span("setup"):
                setup = bench.set_up(workload, args.seed)
        else:
            setup = bench.set_up(workload, args.seed)
        setup_reps.append(import_s + setup.seconds)
    setup_s = statistics.median(setup_reps)
    run = bench.measure(workload, setup, args.seconds, tracer)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "params": vars(setup.params), "setup_reps_s": setup_reps,
            "fail_frac": run.failed / run.attempted, "failures": run.failures[:10],
            "reference_checked_ops": run.checked, **bench.latency(run),
            "context": _context()}
    if tracer:
        metrics = bench.layer_metrics(
            run, tracer, workload.work_counts(setup.params, setup.first_input))
        info["dominant_shares"] = tracing.dominant_shares(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans,
             "errors": dict(tracer.errors)}))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        units = _layer_unit
    else:
        metrics = bench.end_to_end(run, setup_s)
        units = _e2e_unit
    print(json.dumps({"info": info}))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if run.failed == 0 else 1


def _e2e_unit(name: str) -> str:
    return {"eval_cal_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}[name]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
