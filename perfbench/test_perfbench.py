"""Tests of the benchmark's checks, input generators, counts and tracer.

    python3 -m pytest perfbench
"""

import statistics
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from slabwald import harness  # noqa: E402
from slabwald.core import EnergyForces  # noqa: E402
from workloads import GEOMETRY, SWEEP_GRID, WORKLOADS  # noqa: E402

SOLVE_WORKLOADS = ("md_dense", "mc_loose", "metal_tight")


def small(name):
    """The workload on six particles, so its reference check is quick."""
    return replace(WORKLOADS[name], composition=((2, 2.0), (4, -1.0)))


class WrongEnergy:
    """A workload whose every solve returns an energy off by 1%."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run(self, params, x):
        res = self._inner.run(params, x)
        return EnergyForces(res.energy * (1.0 + 1e-2), res.forces)


@pytest.mark.parametrize("name", SOLVE_WORKLOADS)
def test_correct_solve_passes_reference_check(name):
    w = small(name)
    run = bench.measure(w, bench.set_up(w, 3), seconds=0.0)
    assert (run.attempted, run.failed, run.checked) == (1, 0, 1), run.failures


@pytest.mark.parametrize("name", SOLVE_WORKLOADS)
def test_wrong_energy_counts_as_failed(name):
    w = WrongEnergy(small(name))
    run = bench.measure(w, bench.set_up(w, 3), seconds=0.0)
    assert (run.attempted, run.failed) == (1, 1)
    assert "energy error" in run.failures[0]


class FixedCalibration:
    nbytes = 0

    def __init__(self, seconds):
        self.seconds = lambda: seconds


def test_calibration_plan_follows_operation_time():
    for op_s, plan in ((0.03, (33, 5)), (0.6, (2, 6)), (3.0, (1, 15))):
        run = bench.Run()
        bench.plan_calibration(run, op_s, FixedCalibration(0.1))
        assert (run.ops_per_cal, run.cal_reps) == plan


def test_calibration_runs_after_every_block(monkeypatch):
    monkeypatch.setattr(bench.calibrate, "Calibration", lambda: FixedCalibration(0.5))
    w = small("mc_loose")
    setup = replace(bench.set_up(w, 3), warmup_s=0.25)   # blocks of 4 ops, 1 rep
    run = bench.measure(w, setup, seconds=0.3)
    assert (run.ops_per_cal, run.cal_reps) == (4, 1)
    assert len(run.op_s) > 4
    assert len(run.cal_s) == -(-len(run.op_s) // 4)   # the tail's ops too
    ratio = bench.end_to_end(run, 1.0)["eval_cal_ratio"]
    assert ratio == pytest.approx(statistics.fmean(run.op_s) / 0.5)


def test_calibration_never_calls_the_program():
    import ast
    import calibrate
    tree = ast.parse(Path(calibrate.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("slabwald") for name in imported)
    assert calibrate.Calibration().seconds() > 0


class SyntheticSweep(workloads.SweepWorkload):
    """The sweep workload with run_sweep replaced by a given error landscape."""

    def __init__(self, landscape):
        super().__init__(name="error_sweep")
        object.__setattr__(self, "landscape", landscape)

    def run(self, params, cfg):
        return [harness.SweepRow("M", m, self.landscape(m), 0.0, 0.0)
                for m in SWEEP_GRID]


def _valley(m):
    return 1e-7 + 1e-3 * abs(m - 20.0) ** 2


@pytest.mark.parametrize("landscape, fails", [
    (_valley, False),
    (lambda m: float("nan") if m == 30 else _valley(m), True),   # non-finite row
    (lambda m: 1e-3 / (1.0 + m), True),                          # minimum at the edge
    (lambda m: 1e-4 + _valley(m), True),                         # minimum too shallow
])
def test_sweep_check_counts_wrong_landscape_as_failed(landscape, fails):
    w = SyntheticSweep(landscape)
    run = bench.measure(w, bench.set_up(w, 3), seconds=0.0)
    assert run.attempted == 1
    assert run.failed == int(fails), run.failures


def _same(a, b):
    if isinstance(a, harness.SweepConfig):
        return a == b
    return (a.cell == b.cell and a.positions.tobytes() == b.positions.tobytes()
            and a.charges.tobytes() == b.charges.tobytes())


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_repeat_bit_for_bit(name):
    w = WORKLOADS[name]
    first = list(islice(w.inputs(5), 4))
    again = list(islice(w.inputs(5), 4))
    other = list(islice(w.inputs(6), 4))
    assert all(_same(a, b) for a, b in zip(first, again))
    assert not any(_same(a, b) for a, b in zip(first, other))


@pytest.mark.parametrize("name", SOLVE_WORKLOADS)
def test_inputs_start_from_gen_system_and_stay_inside(name):
    w = WORKLOADS[name]
    systems = list(islice(w.inputs(9), 60))
    assert _same(systems[0], harness.gen_system(9, w.composition, GEOMETRY))
    z = np.concatenate([s.positions[:, 2] for s in systems])
    assert np.all((z > 0.0) & (z < GEOMETRY[2]))
    assert not _same(systems[1], systems[2])


@pytest.mark.parametrize("name", WORKLOADS)
def test_work_counts_repeat_exactly(name):
    w = WORKLOADS[name] if name == "error_sweep" else small(name)
    params = w.tune()
    first = w.work_counts(params, next(w.inputs(4)))
    assert first == w.work_counts(params, next(w.inputs(4)))
    assert all(v >= 0 for v in first.values())


def test_tracer_restores_functions_and_times_layers():
    before = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in tracing.wrap_points()]
    tracer = tracing.Tracer()
    w = small("mc_loose")
    with tracer.installed(), tracer.span("setup"):
        setup = bench.set_up(w, 1)
    run = bench.measure(w, setup, seconds=0.0, tracer=tracer)
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)
    assert (len(run.op_s), len(run.traced_op_s)) == (1, 1)
    assert run.cal_s == []          # traced runs report no gated times
    layers = tracing.layer_metrics(tracer)
    assert layers["ewald3d.solve.calls"] == 1
    assert layers["ewald3d.elc_correction.calls"] == 1
    assert layers["ewald3d.fourier3d_energy.calls"] == 1   # the probe, outside solve
    assert layers["tuner.select_all.calls"] == 1
    assert 0 < layers["ewald3d.elc_correction.busy_s"] < layers["ewald3d.solve.busy_s"]
    assert layers["errors.busy_s"] > 0 and layers["errors.calls"] > 1


def test_tracer_counts_errors_of_wrapped_calls():
    tracer = tracing.Tracer()
    bad = harness.SweepConfig(scenario="x", geometry=GEOMETRY, gamma_u=0.5,
                              gamma_d=0.5, sweep="M", grid=(0.0,))
    with tracer.installed(), pytest.raises(Exception):
        harness.run_sweep(bad)   # an M sweep without Lz or P is rejected
    assert tracing.layer_metrics(tracer)["harness.run_sweep.errors"] == 1
