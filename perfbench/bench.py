"""Set-up, the closed measurement loop, and the metrics of one workload run."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

from slabwald import core

import calibrate
import tracing

SETUP_REPS = 3        # set-ups per run; setup_s reports their median
P90_TAIL = 10         # samples that must lie beyond the 90th percentile
# The calibration runs after blocks of about CAL_BLOCK_S of operations, for
# about CAL_SHARE of their time (a third of the loop), which balances the
# sampling noise of the operation and calibration means.
CAL_BLOCK_S = 1.0
CAL_SHARE = 0.5


@dataclass
class Run:
    """What one measured loop saw."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)         # untraced operations
    traced_op_s: list[float] = field(default_factory=list)  # traced operations
    cal_s: list[float] = field(default_factory=list)        # calibration computations
    ops_per_cal: int = 1  # timed operations per block ...
    cal_reps: int = 1     # ... and calibrations after each block
    loop_s: float = 0.0
    peak_rss_mb: float = 0.0
    checked: int = 0

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        self.failures.append(f"op {index}: {message}")


@dataclass
class SetUp:
    params: object
    inputs: object      # the input stream; its first item was the warm-up input
    first_input: object
    seconds: float
    warmup_s: float     # the warm-up operation alone


def set_up(workload, seed: int) -> SetUp:
    """gen_system (the first input), select_all and one warm-up operation."""
    t0 = time.perf_counter()
    inputs = workload.inputs(seed)
    x0 = next(inputs)
    params = workload.tune()
    t1 = time.perf_counter()
    workload.run(params, x0)
    t2 = time.perf_counter()
    return SetUp(params, inputs, x0, t2 - t0, t2 - t1)


def plan_calibration(run: Run, op_s: float, cal: calibrate.Calibration) -> None:
    """Fix the block size and calibration count of a run from one operation's
    time.  The counts stay fixed for the whole run: a rule that followed the
    measured times would calibrate more in slow stretches and bias the ratio."""
    cal_s = min(cal.seconds() for _ in range(2))
    run.ops_per_cal = max(1, round(CAL_BLOCK_S / op_s))
    run.cal_reps = max(1, round(CAL_SHARE * run.ops_per_cal * op_s / cal_s))


def _attempt(workload, params, x, tracer):
    """One operation: (problem or None, result, seconds spent in workload.run)."""
    violations = core.validate(workload.system(x))
    if violations:
        return f"invalid input: {violations[0].message}", None, 0.0
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = workload.run(params, x)
            dt = time.perf_counter() - t0
        else:
            with tracer.installed(), tracer.span("step"):
                t0 = time.perf_counter()
                result = workload.run(params, x)
                dt = time.perf_counter() - t0
                workload.probe(params, x)
    except Exception as exc:  # a failed operation is counted, the loop goes on
        return f"raised {exc!r}", None, 0.0
    return workload.check_result(params, x, result), result, dt


def _calibrate(run: Run, cal: calibrate.Calibration) -> None:
    run.cal_s.extend(cal.seconds() for _ in range(run.cal_reps))


def measure(workload, setup: SetUp, seconds: float,
            tracer: tracing.Tracer | None = None) -> Run:
    """Closed loop of operations for `seconds`, then the sampled reference checks.

    Without a tracer, the host-speed calibration (calibrate.py) runs
    `cal_reps` times after every `ops_per_cal` timed operations (and after the
    last ones if the loop ended between two), so each stretch of the run is
    measured at the speed the host had then.  With a tracer, operations
    alternate between untraced and traced (the traced ones also time the
    reciprocal layer alone), so the two medians give the tracing overhead
    under the same conditions.
    """
    run = Run()
    cal = calibrate.Calibration() if tracer is None else None
    if cal:
        plan_calibration(run, setup.warmup_s, cal)
    params = setup.params
    sampled: list[tuple[int, object, object]] = []
    last = None
    t_start = time.perf_counter()
    deadline = t_start + seconds
    min_ops = 2 if tracer else 1
    while run.attempted < min_ops or time.perf_counter() < deadline:
        index = run.attempted
        run.attempted += 1
        x = next(setup.inputs)
        traced = tracer is not None and index % 2 == 1
        problem, result, dt = _attempt(workload, params, x, tracer if traced else None)
        if problem:
            run.fail(index, problem)
            continue
        (run.traced_op_s if traced else run.op_s).append(dt)
        if cal and len(run.op_s) % run.ops_per_cal == 0:
            _calibrate(run, cal)
        # the first checked_ops - 1 operations and the last one meet the reference
        if len(sampled) < max(workload.checked_ops - 1, 0):
            sampled.append((index, x, result))
        else:
            last = (index, x, result)
    run.loop_s = time.perf_counter() - t_start
    if cal and len(run.op_s) % run.ops_per_cal:
        _calibrate(run, cal)
    # ru_maxrss is in KiB; the calibration's arrays are not the program's memory
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if cal:
        run.peak_rss_mb -= cal.nbytes / 2**20
    if workload.checked_ops and last is not None:
        sampled.append(last)
    for index, x, result in sampled:
        run.checked += 1
        try:
            problem = workload.check_reference(params, x, result)
        except Exception as exc:  # a reference that cannot be built fails the check
            problem = f"reference raised {exc!r}"
        if problem:
            run.fail(index, problem)
    return run


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    """The gated metrics.

    Operation time is gated as a ratio to the fixed calibration computation
    timed in the same stretches of the run (calibrate.py): mean operation time
    over mean calibration time.  On a shared host whole stretches of a run
    slow down together (by up to 1.8x for minutes), which moves the median and
    the rate from run to run by more than any useful bound; the calibration
    slows with them, so the ratio tracks the cost of the program.
    """
    ratio = statistics.fmean(run.op_s) / statistics.fmean(run.cal_s) if run.op_s else 0.0
    return {
        "eval_cal_ratio": ratio,
        "setup_s": setup_s,
        "peak_rss_mb": run.peak_rss_mb,
    }


def latency(run: Run) -> dict:
    """Rate, median and p90 of the operations, reported with units but not gated.

    p90 is given only when at least P90_TAIL samples lie beyond it.
    """
    n = len(run.op_s)
    p90 = None
    if n >= 2:
        q = statistics.quantiles(run.op_s, n=10)[-1]
        if sum(v > q for v in run.op_s) >= P90_TAIL:
            p90 = q
    return {
        "samples": n,
        "evals_per_s": {"value": n / run.loop_s, "unit": "1/s"},
        "eval_s_p50": {"value": tracing.median(run.op_s), "unit": "s"},
        "eval_s_p90": {"value": p90, "unit": "s"},
        "eval_s_min": {"value": min(run.op_s) if run.op_s else None, "unit": "s"},
        "cal_s_p50": {"value": tracing.median(run.cal_s), "unit": "s"},
        "cal_samples": len(run.cal_s),
        "cal_plan": {"ops_per_cal": run.ops_per_cal, "cal_reps": run.cal_reps},
    }


def layer_metrics(run: Run, tracer: tracing.Tracer, counts: dict) -> dict[str, float]:
    out = tracing.layer_metrics(tracer)
    out.update(counts)
    untraced = tracing.median(run.op_s)
    traced = tracing.median(run.traced_op_s)
    out["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    return out
