"""Acceptance criteria: one test and one printed verdict line per criterion.

Each test registers a PASS/FAIL line (echoed in the terminal summary by
conftest) and then asserts, so a red test always has a matching FAIL line.
"""

import math
import time

import numpy as np
import pytest

import conftest
from slabwald.core import ChargeSystem, DielectricSpec, EwaldParams
from slabwald.ewald2d import (energy_homogeneous, energy_icm, forces_fd_check,
                              icm_level_sweep)
from slabwald.ewald3d import elc_correction, solve, yb_correction
from slabwald.harness import (SweepConfig, default_alpha, fit_decay,
                              force_rel_err, gen_system, reference_level,
                              run_sweep)
from slabwald.core import image_position, image_series
from slabwald.tuner import ToleranceRequest, select_all

GEOM = (10.0, 10.0, 1.0)


def yb_double_sum(system, spec, m, L_z):
    """O(N^2) oracle for the factored k=0-mode correction."""
    vol = system.lx * system.ly * L_z
    q, z = system.charges, system.positions[:, 2]
    a = float(np.sum(q * z))
    b = float(np.sum(q * z))
    for img in image_series(system, spec, m):
        b += img.scale * system.charges[img.source] * image_position(img, system)[2]
    return 2 * math.pi / vol * a * b


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _margin_system(seed, composition=((2, 2.0), (4, -1.0)), geometry=GEOM):
    sys_ = gen_system(seed, composition, geometry)
    pos = sys_.positions.copy()
    pos[:, 2] = 0.1 * geometry[2] + 0.8 * pos[:, 2]
    return ChargeSystem(pos, sys_.charges, sys_.cell)


def test_criterion_1_cross_solver_identity():
    t0 = time.perf_counter()
    gammas = [0.0, 0.6, 1.0]
    worst_e = worst_f = 0.0
    for seed in range(1, 11):
        g = gammas[seed % 3]
        spec = DielectricSpec(g, g)
        system = gen_system(seed, geometry=GEOM)
        ref = energy_icm(system, spec,
                         EwaldParams(alpha=0.6, s=6.0, L_z=2.0, M=30))
        # alpha = 0.5, L_z = 44: k_z-discretization remainder e^{-(0.5*43)^2}
        res = solve(system, spec, EwaldParams(alpha=0.5, s=6.0, L_z=44.0, M=30))
        de = abs(res.energy - ref.energy) / abs(ref.energy)
        df = np.abs(res.forces - ref.forces).max() / np.abs(ref.forces).max()
        worst_e, worst_f = max(worst_e, de), max(worst_f, df)
    wall = time.perf_counter() - t0
    ok = worst_e < 1e-9 and worst_f < 1e-8 and wall < 60.0
    _record(1, ok, f"10 systems, max dE={worst_e:.2e} (<1e-9), "
                   f"max dF={worst_f:.2e} (<1e-8), {wall:.1f}s (<60s)")


def test_criterion_2_force_gradient_consistency():
    t0 = time.perf_counter()
    spec = DielectricSpec(0.6, 0.6)
    worst = 0.0
    for seed in range(1, 6):
        system = _margin_system(seed)
        p2d = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=12)
        worst = max(worst, forces_fd_check(system, spec, p2d, step=1e-5))
        p3d = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)

        def efn(sys_, p=p3d):
            res = solve(sys_, spec, p)
            return res.energy, res.forces

        worst = max(worst, forces_fd_check(system, spec, p3d, step=1e-5,
                                           energy_fn=efn))
    wall = time.perf_counter() - t0
    ok = worst < 1e-6 and wall < 30.0
    _record(2, ok, f"5 systems x 2 solvers, max FD deviation={worst:.2e} "
                   f"(<1e-6), {wall:.1f}s (<30s)")


def test_criterion_3_reference_table():
    t0 = time.perf_counter()
    expected = {
        (0.6, 1e-4): (3, 9, 15), (0.6, 1e-8): (4, 17, 30),
        (0.6, 1e-12): (5, 25, 45), (1.0, 1e-4): (3, 16, 32),
        (1.0, 1e-8): (4, 31, 62), (1.0, 1e-12): (5, 45, 91),
    }
    bad = []
    for (g, eps), (s_ref, m_ref, lz_ref) in sorted(expected.items()):
        res = select_all(ToleranceRequest(eps, GEOM, DielectricSpec(g, g)))
        p = res.params
        if p.s != s_ref or p.M != m_ref or abs(p.L_z - lz_ref) > 1:
            bad.append((g, eps, p.s, p.M, p.L_z))
    wall = time.perf_counter() - t0
    ok = not bad and wall < 1.0
    _record(3, ok, f"six rows: (s, M) exact, L_z within ±1, {wall:.2f}s (<1s)"
            + (f"; mismatches {bad}" if bad else ""))


def test_criterion_4_truncation_decay_rates():
    t0 = time.perf_counter()
    # (gamma, H, grid, drop-first): the measured force error decays at the
    # pure geometric rate; the first point sits off the asymptote
    settings = [
        (1.0, 0.5, tuple(range(1, 26, 2)), 1),
        (1.0, 1.0, tuple(range(1, 18, 2)), 1),
        (1.0, 5.0, (1, 3, 5, 7), 0),
        (0.6, 1.0, tuple(range(1, 14, 2)), 1),
        (0.3, 1.0, tuple(range(1, 10, 2)), 1),
    ]
    ratios = []
    for g, h, grid, drop in settings:
        cfg = SweepConfig(scenario="f1", geometry=(10.0, 10.0, h), gamma_u=g,
                          gamma_d=g, sweep="M", grid=grid, mode="truncation",
                          quantity="force", seed=1)
        rows = run_sweep(cfg)[drop:]
        fit = fit_decay(rows, model="exp-in-M", floor=1e-12)
        target = 2.0 * math.log(g) - 4.0 * math.pi * h / 10.0
        ratios.append(fit.rate / target)
    wall = time.perf_counter() - t0
    ok = all(abs(r - 1.0) <= 0.10 for r in ratios) and wall < 300.0
    _record(4, ok, "rate/target = " + ", ".join(f"{r:.3f}" for r in ratios)
            + f" (within 10%), {wall:.1f}s (<5min)")


def test_criterion_5_padding_decay_rates():
    t0 = time.perf_counter()
    grid = tuple(round(0.7 + 0.1 * i, 2) for i in range(10))
    curves, ratios = {}, []
    for h in (0.5, 1.0, 5.0):
        cfg = SweepConfig(scenario="f2", geometry=(10.0, 10.0, h), gamma_u=0.0,
                          gamma_d=0.0, sweep="P", grid=grid, mode="ewald3d",
                          quantity="force", M=0, seed=5)
        rows = run_sweep(cfg)
        curves[h] = np.array([r.rel_err for r in rows])
        fit = fit_decay(rows, model="exp-in-P", floor=1e-13)
        ratios.append(fit.rate / (-2.0 * math.pi))
    spread = max(float((curves[a] / curves[b]).max())
                 for a in curves for b in curves)
    wall = time.perf_counter() - t0
    ok = (all(abs(r - 1.0) <= 0.05 for r in ratios) and spread <= 3.0
          and wall < 300.0)
    _record(5, ok, "rate/(-2pi) = " + ", ".join(f"{r:.3f}" for r in ratios)
            + f" (within 5%), H-curves pointwise within x{spread:.2f} (<=3), "
              f"{wall:.1f}s (<5min)")


def test_criterion_6_interior_minimum_and_growth():
    t0 = time.perf_counter()
    target = 2.0 * math.pi * 0.5 / 10.0  # (1/2) log(g_u g_d) at gamma = 1
    grids = {1.0: tuple(range(0, 23)), 3.0: tuple(range(0, 47, 2)),
             5.0: tuple(range(0, 67, 2))}
    mins, ratios, interior = [], [], []
    for p_ratio, grid in grids.items():
        cfg = SweepConfig(scenario="f4", geometry=(10.0, 10.0, 0.5),
                          gamma_u=1.0, gamma_d=1.0, sweep="M", grid=grid,
                          mode="ewald3d", quantity="force", P=p_ratio, seed=1)
        rows = run_sweep(cfg)
        m = np.array([r.value for r in rows])
        e = np.array([r.rel_err for r in rows])
        i = int(np.argmin(e))
        mins.append(float(m[i]))
        interior.append(0 < i < len(m) - 1)
        # pure growth window: clear of the minimum and of saturation
        w = (m >= m[i] + 3) & (e <= 2.0) & (e > 1e-12)
        slope = float(np.polyfit(m[w], np.log(e[w]), 1)[0])
        ratios.append(slope / target)
    wall = time.perf_counter() - t0
    shifts = all(b > a for a, b in zip(mins, mins[1:]))
    ok = (all(interior) and shifts
          and all(abs(r - 1.0) <= 0.15 for r in ratios) and wall < 300.0)
    _record(6, ok, f"minima at M={[int(v) for v in mins]} (interior, "
            "increasing with P), growth/target = "
            + ", ".join(f"{r:.3f}" for r in ratios)
            + f" (within 15%), {wall:.1f}s (<5min)")


def test_criterion_7_composite_model_fits_best():
    t0 = time.perf_counter()
    results = []
    for gamma in (0.6, 0.95, 1.0):
        for lz in (45.0, 75.0, 105.0):
            cfg = SweepConfig(scenario="f5", geometry=(15.0, 15.0, 5.0),
                              gamma_u=gamma, gamma_d=gamma, sweep="M",
                              grid=tuple(range(0, 21)), mode="ewald3d",
                              quantity="energy", Lz=lz, seed=3)
            rows = [r for r in run_sweep(cfg) if r.rel_err < 0.5]
            resid = {m: fit_decay(rows, model=m, config=cfg, floor=1e-13).residual
                     for m in ("composite", "trunc-term", "elc-term")}
            best_single = min(resid["trunc-term"], resid["elc-term"])
            results.append((gamma, lz, resid["composite"] / best_single))
    wall = time.perf_counter() - t0
    checked = [(g, lz, r) for g, lz, r in results if g in (0.95, 1.0)]
    ok = all(r <= 0.5 for _, _, r in checked) and wall < 600.0
    _record(7, ok, "composite/best-single residual on gamma in {0.95, 1}: "
            + ", ".join(f"{r:.2f}" for _, _, r in checked)
            + f" (all <=0.5), {wall:.1f}s (<10min)")


def test_criterion_8_tuner_achievement():
    t0 = time.perf_counter()
    system = _margin_system(11, composition=((13, 2.0), (26, -1.0)))
    details, ok = [], True
    for gamma in (0.6, 1.0):
        spec = DielectricSpec(gamma, gamma)
        m_ref = reference_level(spec, GEOM, tol=1e-15)
        ref = energy_icm(system, spec,
                         EwaldParams(alpha=default_alpha(6.0, GEOM), s=6.0,
                                     L_z=2.0, M=m_ref), compute_forces=False)
        for eps in (1e-4, 1e-8, 1e-12):
            # the rows' M and L_z are the padded box's: pin it, as select_all
            # picks the lattice at gamma = 1
            tuned = select_all(ToleranceRequest(eps, GEOM, spec), method="padded").params
            res = solve(system, spec, tuned, compute_forces=False)
            # relative energy error: the per-particle force normalization is
            # seed-noisy (particles whose net force nearly cancels)
            err = abs(res.energy - ref.energy) / abs(ref.energy)
            ok = ok and err <= 10.0 * eps
            details.append(f"g={gamma} eps={eps:.0e}: {err:.1e}")
    wall = time.perf_counter() - t0
    ok = ok and wall < 300.0
    _record(8, ok, "measured relative energy error <= 10*eps on all six rows: "
            + "; ".join(details) + f", {wall:.1f}s (<5min)")


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    checks = []
    sys6 = _margin_system(7)

    # image-series prefix property
    spec = DielectricSpec(0.7, -0.5)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=6)
    sweep = icm_level_sweep(sys6, spec, params, compute_forces=False)
    prefix_ok = all(
        abs(sweep.energies[m]
            - energy_icm(sys6, spec, EwaldParams(alpha=1.0, s=6.0, L_z=2.0,
                                                 M=m),
                         compute_forces=False).energy)
        <= 1e-13 * abs(sweep.energies[m])
        for m in (0, 2, 5))
    checks.append(("prefix", prefix_ok))

    # gamma = 0 reduction identity
    p0 = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=8)
    a = energy_icm(sys6, DielectricSpec(0.0, 0.0), p0)
    b = energy_homogeneous(sys6, p0)
    checks.append(("gamma0-reduction", a.energy == b.energy
                   and np.array_equal(a.forces, b.forces)))

    # one-sided wall: M = 1 already exact
    one = DielectricSpec(0.0, 0.8)
    e1 = energy_icm(sys6, one, EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=1),
                    compute_forces=False).energy
    e6 = energy_icm(sys6, one, EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=6),
                    compute_forces=False).energy
    checks.append(("one-sided-M1", abs(e1 - e6) <= 1e-14 * abs(e6)))

    # alpha-independence over a 4x range at s = 6
    spec_a = DielectricSpec(0.6, 0.6)
    ea = [energy_icm(sys6, spec_a, EwaldParams(alpha=al, s=6.0, L_z=2.0, M=25),
                     compute_forces=False).energy for al in (0.6, 1.2, 2.4)]
    checks.append(("alpha-independence",
                   (max(ea) - min(ea)) <= 1e-9 * abs(ea[0])))

    # homogeneous net force vanishes
    fh = energy_homogeneous(sys6, EwaldParams(alpha=1.0, s=6.0, L_z=2.0,
                                              M=0)).forces
    checks.append(("net-force-zero",
                   np.abs(fh.sum(axis=0)).max() <= 1e-10 * np.abs(fh).max()))

    # factored k=0 correction equals the O(N^2) double sum
    spec_yb = DielectricSpec(-1.0, 0.7)
    e_fast, _ = yb_correction(sys6, spec_yb, 8, L_z=9.0, compute_forces=False)
    e_slow = yb_double_sum(sys6, spec_yb, 8, L_z=9.0)
    checks.append(("yb-factored", abs(e_fast[-1] - e_slow)
                   <= 1e-13 * max(abs(e_slow), 1.0)))

    # inter-replica term finite at extreme aspect ratio (h L_z ~ 1e4)
    tall = ChargeSystem(np.array([[0.2, 0.3, 0.1], [0.7, 0.6, 0.4]]),
                        np.array([1.0, -1.0]), (1.0, 1.0, 0.5))
    e_elc, f_elc = elc_correction(tall, DielectricSpec(0.6, 0.6),
                                  EwaldParams(alpha=6.0, s=6.0, L_z=1600.0, M=3))
    checks.append(("elc-overflow-free",
                   math.isfinite(e_elc[-1]) and bool(np.all(np.isfinite(f_elc[-1])))))

    wall = time.perf_counter() - t0
    failed = [name for name, good in checks if not good]
    ok = not failed and wall < 60.0
    _record(9, ok, f"{len(checks)} properties"
            + (f", failed: {failed}" if failed else " all hold")
            + f", {wall:.1f}s (<60s)")
