"""Sweep harness: pinned RNG, system generation, CSV schema, fits, and the CLI."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slabwald
from slabwald import harness
from slabwald._threads import POOL_VARIABLES
from slabwald.cli import main as cli_main
from slabwald.core import DielectricSpec, DomainError, read_system, write_system
from slabwald.ewald3d import solve
from slabwald.harness import (CSV_HEADER, FitDegenerateError, SplitMix64,
                              SweepConfig, SweepRow, default_alpha, fit_decay,
                              force_rel_err, gen_system, parse_composition,
                              parse_config, reference_level, rows_to_csv,
                              run_sweep)
from slabwald.tuner import ToleranceRequest, select_all
from test_core import CONTRACT_CASES, contract_case


def test_splitmix64_known_vectors():
    """Bit-exact against the published splitmix64 sequence."""
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(2)] == [
        6457827717110365317, 3203168211198807973]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_splitmix64_double_range(seed):
    r = SplitMix64(seed)
    for _ in range(10):
        d = r.next_double()
        assert 0.0 <= d < 1.0


def test_parse_composition():
    assert parse_composition("13:+2,26:-1") == ((13, 2.0), (26, -1.0))
    assert parse_composition("2:0.5,1:-1") == ((2, 0.5), (1, -1.0))


def test_gen_system_deterministic_and_neutral():
    a = gen_system(5)
    b = gen_system(5)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.charges, b.charges)
    assert a.n == 39
    assert abs(a.charges.sum()) == 0.0
    # charges laid down in composition order
    assert np.all(a.charges[:13] == 2.0) and np.all(a.charges[13:] == -1.0)
    lx, ly, h = a.cell
    assert np.all(a.positions[:, 0] < lx)
    assert np.all(a.positions[:, 2] <= h)
    c = gen_system(6)
    assert not np.array_equal(a.positions, c.positions)


def test_gen_system_rejects_charged_composition():
    with pytest.raises(DomainError):
        gen_system(1, composition=((2, 1.0), (1, -1.0)))


def test_sweep_config_validation():
    base = dict(scenario="x", geometry=(10.0, 10.0, 1.0), gamma_u=0.5,
                gamma_d=0.5, sweep="M", grid=(1.0, 2.0))
    SweepConfig(**base)
    with pytest.raises(DomainError):
        SweepConfig(**{**base, "sweep": "Q"})
    with pytest.raises(DomainError):
        SweepConfig(**{**base, "grid": (2.0, 1.0)})
    with pytest.raises(DomainError):
        SweepConfig(**{**base, "quantity": "torque"})
    cfg = SweepConfig(**{**base, "P": 2.0})
    assert cfg.fixed_Lz() == pytest.approx(21.0)
    assert SweepConfig(**{**base, "Lz": 17.0}).fixed_Lz() == 17.0
    with pytest.raises(DomainError):
        SweepConfig(**base).fixed_Lz()


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "s"])
def test_sweep_config_rejects_a_split_outside_the_domain(name, value):
    """alpha = 0 is refused as EwaldParams refuses it, not run at the default alpha."""
    base = dict(scenario="x", geometry=(10.0, 10.0, 1.0), gamma_u=0.5,
                gamma_d=0.5, sweep="M", grid=(1.0, 2.0), P=2.0)
    with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
        SweepConfig(**{**base, name: value})
    with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
        parse_config(f"[x]\nsweep = M\ngrid = 1,2\nP = 2\n{name} = {value}\n")


def test_sweep_runs_at_the_alpha_it_names():
    cfg = SweepConfig(scenario="x", geometry=(10.0, 10.0, 1.0), gamma_u=0.5,
                      gamma_d=0.5, sweep="M", grid=(1.0, 2.0), P=2.0, alpha=0.3)
    assert harness._padded_params(cfg, 21.0, 2).alpha == 0.3
    default = harness._padded_params(replace(cfg, alpha=None), 21.0, 2).alpha
    assert default == default_alpha(cfg.s, cfg.geometry, 21.0) != 0.3


def test_parse_config_roundtrip():
    text = """
# comment
[fig-a]
Lx = 15
Ly = 15
H = 5
gamma_u = 0.95
gamma_d = 0.95
sweep = M
grid = 0,2,4
quantity = energy
Lz = 45
seed = 3
elc = off

[fig-b]
sweep = P
grid = 0.5,1.0
M = 2
composition = 2:+1,2:-1
"""
    cfgs = parse_config(text)
    assert [c.scenario for c in cfgs] == ["fig-a", "fig-b"]
    a, b = cfgs
    assert a.geometry == (15.0, 15.0, 5.0)
    assert a.gamma_u == 0.95 and a.quantity == "energy"
    assert a.grid == (0.0, 2.0, 4.0) and a.Lz == 45.0 and a.seed == 3
    assert b.sweep == "P" and b.M == 2
    assert b.composition == ((2, 1.0), (2, -1.0))
    with pytest.raises(DomainError):
        parse_config("key = value\n")  # assignment before any section


def test_reference_level_and_alpha():
    from slabwald.core import DielectricSpec
    assert reference_level(DielectricSpec(0.0, 0.0), (10, 10, 1)) == 0
    assert reference_level(DielectricSpec(0.0, 0.9), (10, 10, 1)) == 1
    m = reference_level(DielectricSpec(0.6, 0.6), (10, 10, 1), tol=1e-15)
    assert m > 10
    assert default_alpha(6.0, (10, 10, 1)) == pytest.approx(0.72)
    # tight padding raises alpha so the k_z remainder stays below the floor
    assert default_alpha(6.0, (10, 10, 1), L_z=3.0) > 0.72


def test_force_rel_err_skips_tiny_references():
    ref = np.array([[1.0, 0, 0], [1e-12, 0, 0]])
    got = ref + np.array([[0.01, 0, 0], [1.0, 0, 0]])
    assert force_rel_err(got, ref) == pytest.approx(0.01)


def test_rows_to_csv_exact_format():
    rows = [SweepRow("M", 1.0, 0.5, 0.25, 2.0)]
    out = rows_to_csv(rows)
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER == "sweep_var,value,rel_err,estimate,wall_ms"
    assert lines[1] == ("M,1.0000000000000000e+00,5.0000000000000000e-01,"
                        "2.5000000000000000e-01,2.0000000000000000e+00")


def test_run_sweep_truncation_mode_decays():
    cfg = SweepConfig(scenario="t", geometry=(10.0, 10.0, 1.0), gamma_u=0.6,
                      gamma_d=0.6, sweep="M", grid=(1.0, 5.0, 9.0, 13.0),
                      mode="truncation", quantity="energy", seed=1)
    rows = run_sweep(cfg)
    errs = [r.rel_err for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(r.estimate > 0 for r in rows)
    # deterministic apart from timing
    again = run_sweep(cfg)
    assert [(r.value, r.rel_err, r.estimate) for r in rows] == \
        [(r.value, r.rel_err, r.estimate) for r in again]


def test_run_sweep_bad_point_becomes_nan():
    cfg = SweepConfig(scenario="t", geometry=(10.0, 10.0, 1.0), gamma_u=0.0,
                      gamma_d=0.0, sweep="Lz", grid=(0.5, 8.0), M=0, seed=1)
    rows = run_sweep(cfg)
    assert math.isnan(rows[0].rel_err)  # L_z below H cannot be solved
    assert math.isfinite(rows[1].rel_err)


def test_run_sweep_raises_what_is_not_a_domain_error(monkeypatch):
    """Only DomainError marks a P or L_z point unsolvable; a programming error
    inside the solve propagates instead of reading as a NaN row."""
    def broken(*args, **kwargs):
        raise TypeError("broken solve")

    monkeypatch.setattr(slabwald.ewald3d, "solve", broken)
    cfg = SweepConfig(scenario="t", geometry=(10.0, 10.0, 1.0), gamma_u=0.0,
                      gamma_d=0.0, sweep="P", grid=(1.0,), M=0, seed=1)
    with pytest.raises(TypeError, match="broken solve"):
        run_sweep(cfg)


def _synthetic_rows(xs, ys):
    return [SweepRow("M", float(x), float(y), 0.0, 0.0) for x, y in zip(xs, ys)]


def test_fit_exponential_in_half_levels():
    ms = [1, 3, 5, 7, 9]
    ns = [(m + 1) // 2 for m in ms]
    rows = _synthetic_rows(ms, [3.0 * math.exp(-2.0 * n) for n in ns])
    fit = fit_decay(rows, model="exp-in-M")
    assert fit.rate == pytest.approx(-2.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.residual < 1e-12
    # the force variant divides out the known 1/n factor first
    rows_f = _synthetic_rows(ms, [3.0 * math.exp(-2.0 * n) / n for n in ns])
    fit_f = fit_decay(rows_f, model="exp-in-M-force")
    assert fit_f.rate == pytest.approx(-2.0, abs=1e-12)


def test_fit_exponential_in_padding():
    ps = [0.4, 0.6, 0.8, 1.0, 1.2]
    rows = _synthetic_rows(ps, [0.7 * math.exp(-2 * math.pi * p) for p in ps])
    fit = fit_decay(rows, model="exp-in-P")
    assert fit.rate == pytest.approx(-2 * math.pi, rel=1e-12)
    assert fit.prefactor == pytest.approx(0.7, rel=1e-10)


def test_fit_composite_recovers_amplitudes():
    from slabwald import errors as err
    cfg = SweepConfig(scenario="c", geometry=(15.0, 15.0, 5.0), gamma_u=0.95,
                      gamma_d=0.95, sweep="M", grid=tuple(range(0, 16)),
                      quantity="energy", Lz=45.0)
    ms = list(range(0, 16))
    ys = [2.0 * err.image_truncation_energy(m, 0.95, 0.95, 5.0, 15.0, 15.0)
          + 0.5 * err.elc_energy_estimate(m, 0.95, 0.95, 5.0, 15.0, 15.0, 45.0)
          for m in ms]
    fit = fit_decay(_synthetic_rows(ms, ys), model="composite", config=cfg,
                    floor=1e-300)
    assert fit.extras["A"] == pytest.approx(2.0, rel=1e-6)
    assert fit.extras["B"] == pytest.approx(0.5, rel=1e-6)
    assert fit.residual < 1e-8
    # single-term models cannot explain the two-branch curve
    t_only = fit_decay(_synthetic_rows(ms, ys), model="trunc-term", config=cfg,
                       floor=1e-300)
    assert t_only.residual > 10 * max(fit.residual, 1e-12)


def test_fit_degenerate_raises():
    rows = _synthetic_rows([1, 3, 5, 7], [1e-16, 1e-16, 1e-16, 1e-16])
    with pytest.raises(FitDegenerateError):
        fit_decay(rows, model="exp-in-M")
    with pytest.raises(DomainError):
        fit_decay(_synthetic_rows([1, 3, 5, 7], [1, 0.1, 0.01, 0.001]),
                  model="no-such-model")


# ---------------------------------------------------------------- CLI ----


def test_cli_gen_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli_main(["gen", "--seed", "11", "--out", str(out1)]) == 0
    assert cli_main(["gen", "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sys_ = read_system(out1)
    assert sys_.n == 39


def test_cli_energy_and_forces(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    cli_main(["gen", "--seed", "3", "--out", str(path)])
    capsys.readouterr()

    assert cli_main(["energy", str(path), "--gamma-u", "0.6", "--gamma-d",
                     "0.6", "--eps", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("energy ")
    e_icm = float(out.split()[1])

    assert cli_main(["energy", str(path), "--gamma-u", "0.6", "--gamma-d",
                     "0.6", "--eps", "1e-6", "--solver", "ewald3d"]) == 0
    e_3d = float(capsys.readouterr().out.split()[1])
    assert e_3d == pytest.approx(e_icm, rel=1e-5)

    assert cli_main(["forces", str(path), "--eps", "1e-6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 39 and len(lines[0].split()) == 3


def test_cli_validation_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("cell 10 10 1\n1 1 0.5 1.0\n2 2 0.5 1.0\n")  # net charge
    assert cli_main(["energy", str(path)]) == 1
    assert "neutrality" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["icm2d", "ewald3d"])
@pytest.mark.parametrize("option,value", [("--alpha", "nan"), ("--s", "inf"),
                                          ("--Lz", "nan"), ("--gamma-u", "nan")])
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, option, value, solver):
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(1))
    args = ["energy", str(path), "--solver", solver, "--alpha", "1.2", "--s", "3",
            "--Lz", "16", "--M", "9", option, value]
    assert cli_main(args) == 1
    assert "validation error" in capsys.readouterr().err


def test_cli_s_option_keeps_the_trapezoid_floor(tmp_path, capsys):
    """--s without --alpha takes the tuner's alpha, raised to the trapezoid floor
    sqrt(ln(1/eps)) / (L_z - H); an explicit --alpha is used as given.

    alpha is read back from the self term, -alpha/sqrt(pi) sum q^2.
    """
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(3))
    sum_q2 = float(np.sum(read_system(path).charges ** 2))

    def alpha_of(*extra):
        assert cli_main(["energy", str(path), "--eps", "1e-8", "--s", "4", "--Lz", "2",
                         *extra]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        return -float(next(r[1] for r in rows if r[0] == "self")) * math.sqrt(math.pi) / sum_q2

    alpha = alpha_of()
    assert alpha == pytest.approx(math.sqrt(math.log(1e8)), rel=1e-12)  # L_z - H = 1
    # the k_z remainder e^{-(alpha (L_z - H))^2} is eps; the policy's alpha alone left 7.7e-2
    assert math.exp(-alpha ** 2) == pytest.approx(1e-8, rel=1e-9)
    assert alpha_of("--alpha", "1.6") == pytest.approx(1.6, rel=1e-12)


def test_cli_s_option_floor_measures_from_the_image_stack(tmp_path, capsys):
    """With --M, the --s path's floor is sqrt(ln(1/eps)) / (L_z - (M+1)H).

    M = 9 in L_z = 11 leaves a gap of 1 above the image stack, so alpha is
    sqrt(ln 1e4), not the policy's 1 that the gap L_z - H = 10 allowed; a
    stack that reaches L_z is a validation error.
    """
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(3))
    sum_q2 = float(np.sum(read_system(path).charges ** 2))
    args = ["energy", str(path), "--solver", "ewald3d", "--gamma-u", "0.6", "--gamma-d",
            "0.6", "--eps", "1e-4", "--s", "3", "--M", "9"]
    assert cli_main(args + ["--Lz", "11"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    alpha = -float(next(r[1] for r in rows if r[0] == "self")) * math.sqrt(math.pi) / sum_q2
    assert alpha == pytest.approx(math.sqrt(math.log(1e4)), rel=1e-12)
    assert cli_main(args + ["--Lz", "10"]) == 1
    assert "no gap" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("--H", "nan"), ("--Lx", "inf"), ("--Ly", "nan")])
def test_cli_tune_rejects_non_finite_geometry(capsys, option, value):
    geometry = {"--H": "1", "--Lx": "10", "--Ly": "10", option: value}
    args = [tok for pair in geometry.items() for tok in pair]
    assert cli_main(["tune", "--eps", "1e-6", *args]) == 1
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("text,lineno", [("cell 10 10 abc\n1 1 0.5 1\n2 2 0.5 -1\n", 1),
                                         ("cell 10 10 1\n1 1 0.5 1\n2 y 0.5 -1\n", 3)],
                         ids=["cell", "particle"])
def test_cli_rejects_non_numeric_field(tmp_path, capsys, text, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli_main(["energy", str(path)]) == 1
    assert f"validation error: line {lineno}: non-numeric" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["icm2d", "ewald3d"])
@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_cli_rejects_inputs_outside_contract(tmp_path, capsys, case, solver):
    pos, q, cell = contract_case(case)
    path = tmp_path / "bad.txt"
    path.write_text("cell %.17g %.17g %.17g\n" % cell
                    + "".join("%.17g %.17g %.17g %.17g\n" % (*p, qq) for p, qq in zip(pos, q)))
    assert cli_main(["energy", str(path), "--gamma-u", "0.6", "--gamma-d", "0.6",
                     "--eps", "1e-4", "--solver", solver]) == 1
    assert CONTRACT_CASES[case][2] in capsys.readouterr().err


def test_every_public_name_resolves():
    missing = [name for name in slabwald.__all__ if not hasattr(slabwald, name)]
    assert missing == []


def test_import_leaves_scipy_optimize_out():
    src = os.path.dirname(os.path.dirname(slabwald.__file__))
    code = "import sys, slabwald; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# Prints the OPENBLAS_NUM_THREADS that numpy's import found and the thread
# count of every loaded OpenBLAS that reports one (none where /proc is absent).
THREADS_PROBE = """
import ctypes, json, os, sys
at_numpy = []
sys.addaudithook(lambda event, args: at_numpy.append(os.environ.get("OPENBLAS_NUM_THREADS"))
                 if event == "import" and args[0] == "numpy" and not at_numpy else None)
import slabwald
try:
    with open("/proc/self/maps") as maps:
        paths = sorted({w for w in maps.read().split() if "openblas" in os.path.basename(w)})
except OSError:
    paths = []
blas = []
for path in paths:
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(ctypes.CDLL(path), name, None)
        if get is not None:
            blas.append(get())
            break
print(json.dumps({"at_numpy": at_numpy[0], "blas": blas}))
"""


def _threads_probe(**env) -> dict:
    clean = {k: v for k, v in os.environ.items()
             if k not in ("SLABWALD_THREADS", *POOL_VARIABLES)}
    src = os.path.dirname(os.path.dirname(slabwald.__file__))
    out = subprocess.run([sys.executable, "-c", THREADS_PROBE], capture_output=True,
                         text=True, check=True, env={**clean, **env, "PYTHONPATH": src})
    return json.loads(out.stdout)


def test_import_applies_the_thread_cap_before_numpy_loads():
    """SLABWALD_THREADS caps the BLAS pool of `import slabwald`; an explicit
    OPENBLAS_NUM_THREADS still wins, and a malformed cap is ignored."""
    capped = _threads_probe(SLABWALD_THREADS="1")
    assert capped["at_numpy"] == "1"
    assert all(n == 1 for n in capped["blas"])
    assert _threads_probe(SLABWALD_THREADS="1", OPENBLAS_NUM_THREADS="2")["at_numpy"] == "2"
    assert _threads_probe(SLABWALD_THREADS="abc")["at_numpy"] is None


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_cli_malformed_thread_cap_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("SLABWALD_THREADS", value)
    with pytest.raises(SystemExit) as exc:
        cli_main(["table1"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: slabwald")
    assert f"SLABWALD_THREADS must be an integer, got {value!r}" in err


def test_cli_divergent_elc_exit_code(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text("cell 1 1 1\n0.2 0.3 0.3 1.0\n0.7 0.6 0.8 -1.0\n")
    args = ["energy", str(path), "--solver", "ewald3d", "--gamma-u", "0.6",
            "--gamma-d", "0.6", "--alpha", "3", "--s", "4", "--Lz", "2", "--M", "10"]
    assert cli_main(args) == 1
    assert "diverges" in capsys.readouterr().err
    assert cli_main(args + ["--no-elc"]) == 0


@pytest.mark.parametrize("m,lz", [("0", "1"), ("6", "7")], ids=["M=0,Lz=H", "Lz=(M+1)H"])
def test_cli_elc_at_image_stack_height_exit_code(tmp_path, capsys, m, lz):
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(1))
    args = ["energy", str(path), "--solver", "ewald3d", "--gamma-u", "0.6",
            "--gamma-d", "0.6", "--alpha", "1.2", "--s", "3", "--Lz", lz, "--M", m]
    assert cli_main(args) == 1
    assert "diverges" in capsys.readouterr().err
    assert cli_main(args + ["--no-elc"]) == 0


def test_cli_icm2d_ignores_a_thin_pinned_padding(tmp_path, capsys):
    """ewald2d has no padded box: an L_z below the image stack is not an error."""
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(1))
    args = ["energy", str(path), "--gamma-u", "0.6", "--gamma-d", "0.6", "--alpha", "1.2",
            "--s", "3", "--Lz", "5", "--M", "9"]
    assert cli_main(args) == 0
    assert capsys.readouterr().out.startswith("energy ")
    assert cli_main(args + ["--solver", "ewald3d"]) == 1
    assert "diverges" in capsys.readouterr().err


def test_cli_warns_of_budget_terms_above_eps(tmp_path, capsys):
    """energy and forces name on stderr the budget terms above eps; stdout and
    the exit code are those of a run within budget."""
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(1))
    walls = ["--gamma-u", "0.6", "--gamma-d", "0.6", "--eps", "1e-8"]
    pins = ["--alpha", "1.2", "--s", "3", "--Lz", "5", "--M", "9"]
    for cmd in ("energy", "forces"):
        assert cli_main([cmd, str(path), "--solver", "ewald3d", *walls]) == 0
        assert capsys.readouterr().err == ""
        assert cli_main([cmd, str(path), "--solver", "ewald3d", "--no-elc", *walls, *pins]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == (5 if cmd == "energy" else 39)  # no elc line
        assert err == ("warning: estimated error above eps = 1e-08 in: splitting, "
                       "image_truncation, elc_base, elc_image, trapezoidal\n")
    # ewald2d has no padded box: only its split and image series are reported
    assert cli_main(["energy", str(path), *walls, *pins]) == 0
    assert capsys.readouterr().err.endswith("in: splitting, image_truncation\n")


def test_cli_alpha_option_tunes_s(tmp_path, capsys):
    """--alpha alone pins alpha; --eps tunes M, L_z and s, as select_all does."""
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(3))
    spec = DielectricSpec(0.6, 0.6)
    assert cli_main(["energy", str(path), "--solver", "ewald3d", "--gamma-u", "0.6",
                     "--gamma-d", "0.6", "--eps", "1e-6", "--alpha", "1.2"]) == 0
    energy = float(capsys.readouterr().out.split()[1])
    system = read_system(path)
    params = select_all(ToleranceRequest(1e-6, system.cell, spec), alpha=1.2).params
    assert params.s == 4
    assert energy == solve(system, spec, params).energy


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli_main(["energy"])  # missing the system file
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli_main(["no-such-command"])
    assert exc.value.code == 64


def test_cli_tune_and_table(capsys):
    assert cli_main(["tune", "--eps", "1e-8", "--gamma-u", "0.6", "--gamma-d",
                     "0.6", "--H", "1", "--Lx", "10", "--Ly", "10"]) == 0
    out = capsys.readouterr().out
    assert "M      17" in out and "s      4" in out
    # the budget of the default solve: ELC's cut, below eps and not flagged
    assert "exceeds" not in next(line for line in out.splitlines() if "elc_truncation" in line)
    assert "elc_image         0.000e+00\n" in out

    assert cli_main(["table1"]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 7  # header + six rows
    assert table[1].split()[:4] == ["0.6", "0.0001", "3", "9"]


def test_cli_runs_the_lattice_between_ideal_walls(tmp_path, capsys):
    """tune names the method; energy and forces at |gamma| = 1 solve the lattice,
    --no-yb or --no-elc keeps the padded box, and table1 keeps
    the padded rule's M and L_z on its gamma = 1 rows."""
    tune = ["tune", "--eps", "1e-10", "--H", "1", "--Lx", "10", "--Ly", "10"]
    for walls, method in ((("-1", "-1"), "lattice"), (("1", "-1"), "lattice"),
                          (("0.6", "0.6"), "padded")):
        assert cli_main(tune + ["--gamma-u", walls[0], "--gamma-d", walls[1]]) == 0
        assert f"method {method}\n" in capsys.readouterr().out

    path = tmp_path / "sys.txt"
    write_system(path, gen_system(1))
    system, spec = read_system(path), DielectricSpec(-1.0, -1.0)
    req = ToleranceRequest(1e-10, system.cell, spec)
    walls = ["--solver", "ewald3d", "--gamma-u", "-1", "--gamma-d", "-1", "--eps", "1e-10"]
    cases = {(): select_all(req).params,
             ("--no-elc",): select_all(req, include_elc=False).params,
             ("--no-yb",): select_all(req, include_yb=False).params}
    assert [p.method for p in cases.values()] == ["lattice", "padded", "padded"]
    for extra, params in cases.items():
        assert cli_main(["energy", str(path), *walls, *extra]) == 0
        out, err = capsys.readouterr()
        assert float(out.split()[1]) == solve(system, spec, params).energy
        assert (" elc " in out) == (params.method == "padded" and params.include_elc)
        assert (err == "") == (extra != ("--no-elc",))  # the coupling the padding leaves
    assert cli_main(["forces", str(path), *walls]) == 0
    forces = np.array([line.split() for line in capsys.readouterr().out.splitlines()], float)
    np.testing.assert_array_equal(forces, solve(system, spec, cases[()]).forces)

    assert cli_main(["table1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[4:]]
    assert rows == [["1", "0.0001", "3", "16", "32"], ["1", "1e-08", "4", "31", "62"],
                    ["1", "1e-12", "5", "45", "90"]]


def test_cli_lattice_ignores_a_pinned_Lz_and_M(tmp_path, capsys):
    """At gamma = -1, --Lz 30 --M 38 leaves no gap above the padded box's image
    stack, but the lattice reads neither: exit 0 with the unpinned energy."""
    path = tmp_path / "sys.txt"
    write_system(path, gen_system(1))
    args = ["energy", str(path), "--solver", "ewald3d", "--gamma-u", "-1",
            "--gamma-d", "-1", "--eps", "1e-10"]
    assert cli_main(args) == 0
    unpinned = capsys.readouterr().out
    assert cli_main(args + ["--Lz", "30", "--M", "38"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (unpinned, "")


def test_cli_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweeps.cfg"
    cfg.write_text("[quick]\ngamma_u = 0.6\ngamma_d = 0.6\nsweep = M\n"
                   "grid = 1,3,5\nmode = truncation\nquantity = energy\n")
    assert cli_main(["sweep", str(cfg), "--out-dir", str(tmp_path)]) == 0
    out_file = tmp_path / "quick.csv"
    assert out_file.exists()
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 4
