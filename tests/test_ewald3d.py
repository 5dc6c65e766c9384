"""Padded-box solver: reciprocal sum, YB and ELC corrections, cross-solver identity."""

import math

import numpy as np
import pytest

from loop_oracles import elc_correction_loop, fourier3d_core_loop
from slabwald import ewald3d
from slabwald.core import (ChargeSystem, DielectricSpec, DomainError, EwaldParams,
                           image_position, image_series)
from slabwald.errors import trapezoid_remainder_estimate
from slabwald.ewald2d import energy_icm, forces_fd_check
from slabwald.ewald3d import (CorrectionFlags, elc_correction, elc_h_cutoff,
                              fourier3d_energy, solve, solve_levels, yb_correction)


def _reciprocal_bruteforce(system, params):
    """Textbook triply periodic reciprocal sum, direct triple loop over modes."""
    lx, ly, _ = system.cell
    lz = params.L_z
    vol = lx * ly * lz
    alpha, k_c = params.alpha, params.k_c
    pos, q = system.positions, system.charges
    nx = int(math.floor(k_c * lx / (2 * math.pi)))
    ny = int(math.floor(k_c * ly / (2 * math.pi)))
    nz = int(math.floor(k_c * lz / (2 * math.pi)))
    total = 0.0
    for ix in range(-nx, nx + 1):
        for iy in range(-ny, ny + 1):
            for iz in range(-nz, nz + 1):
                if ix == iy == iz == 0:
                    continue
                k = 2 * math.pi * np.array([ix / lx, iy / ly, iz / lz])
                k2 = float(k @ k)
                if k2 > k_c * k_c:
                    continue
                rho = np.sum(q * np.exp(1j * (pos @ k)))
                total += math.exp(-k2 / (4 * alpha * alpha)) / k2 * abs(rho) ** 2
    self_e = -alpha / math.sqrt(math.pi) * float(np.sum(q ** 2))
    return 2 * math.pi / vol * total + self_e


def test_reciprocal_sum_matches_bruteforce(small_system):
    params = EwaldParams(alpha=0.9, s=5.0, L_z=7.3, M=0)
    got, _ = fourier3d_energy(small_system, DielectricSpec(0.0, 0.0), params)
    want = _reciprocal_bruteforce(small_system, params)
    assert got == pytest.approx(want, rel=1e-13)


def _yb_bruteforce(system, spec, M, L_z):
    """O(N^2) double sum over sources and all explicit images."""
    vol = system.lx * system.ly * L_z
    q, z = system.charges, system.positions[:, 2]
    a = float(np.sum(q * z))
    b = float(np.sum(q * z))
    for img in image_series(system, spec, M):
        b += img.scale * system.charges[img.source] * image_position(img, system)[2]
    return 2 * math.pi / vol * a * b


@pytest.mark.parametrize("gu,gd,m", [(0.0, 0.0, 0), (0.6, 0.6, 5),
                                     (-1.0, 0.7, 8), (0.0, -0.5, 4)])
def test_yb_factored_equals_double_sum(small_system, gu, gd, m):
    spec = DielectricSpec(gu, gd)
    e_fast, _ = yb_correction(small_system, spec, m, L_z=9.0)
    e_slow = _yb_bruteforce(small_system, spec, m, L_z=9.0)
    assert abs(e_fast - e_slow) <= 1e-13 * max(abs(e_slow), 1.0)


@pytest.mark.parametrize("gu,gd", [(0.8, -0.6), (-1.0, 0.7), (0.0, 0.5)])
def test_yb_every_level_equals_double_sum_non_neutral(small_system, gu, gd):
    # net charge +1: the images' z offsets enter through sum_j q_j, which
    # vanishes on a neutral system
    q = small_system.charges.copy()
    q[0] += 1.0
    system = ChargeSystem(small_system.positions, q, small_system.cell)
    spec = DielectricSpec(gu, gd)
    e_lv, _ = yb_correction(system, spec, 7, L_z=9.0, per_level=True)
    want = np.array([_yb_bruteforce(system, spec, m, L_z=9.0) for m in range(8)])
    assert np.abs(e_lv - want).max() <= 1e-13 * np.abs(want).max()


def test_yb_forces_match_finite_differences(small_system):
    spec = DielectricSpec(0.8, -0.6)

    def efn(sys_):
        return yb_correction(sys_, spec, 6, L_z=9.0)

    assert forces_fd_check(small_system, spec,
                           EwaldParams(alpha=1.0, s=6.0, L_z=9.0, M=6),
                           step=1e-6, energy_fn=efn) < 1e-7


def test_elc_truncation_certified_by_extra_shells(small_system):
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=12.0, M=6)
    e0, f0, _ = elc_correction(small_system, spec, params)
    e1, f1, _ = elc_correction(small_system, spec, params, extra_shells=3)
    scale = max(abs(e1), 1e-300)
    assert abs(e0 - e1) < 1e-14 * scale
    assert np.abs(f0 - f1).max() < 1e-14 * max(np.abs(f1).max(), scale)


def test_elc_overflow_free_at_extreme_aspect():
    # first-shell h L_z ~ 1e4: the folded-denominator form must stay finite
    pos = np.array([[0.2, 0.3, 0.1], [0.7, 0.6, 0.4]])
    system = ChargeSystem(pos, np.array([1.0, -1.0]), (1.0, 1.0, 0.5))
    params = EwaldParams(alpha=6.0, s=6.0, L_z=1600.0, M=3)
    e, f, warnings = elc_correction(system, DielectricSpec(0.6, 0.6), params)
    assert math.isfinite(e)
    assert np.all(np.isfinite(f))
    assert warnings == []


def test_elc_cutoff_warns_when_stack_exceeds_padding():
    spec = DielectricSpec(0.9, 0.9)
    h_ok, warn_ok = elc_h_cutoff(spec, M=2, H=1.0, L_z=10.0)
    assert warn_ok == [] and h_ok > 0
    h_bad, warn_bad = elc_h_cutoff(spec, M=12, H=1.0, L_z=10.0)
    assert len(warn_bad) == 1 and "divergent" in warn_bad[0]
    assert math.isfinite(h_bad) and h_bad > 0


def test_elc_forces_match_finite_differences(small_system):
    spec = DielectricSpec(0.7, 0.5)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=8.0, M=4)

    def efn(sys_):
        e, f, _ = elc_correction(sys_, spec, params)
        return e, f

    assert forces_fd_check(small_system, spec, params, step=1e-6,
                           energy_fn=efn) < 1e-7


def test_trapezoid_remainder_values():
    p = EwaldParams(alpha=0.5, s=6.0, L_z=11.0, M=0)
    assert trapezoid_remainder_estimate(p, H=1.0) == pytest.approx(
        math.exp(-25.0), rel=1e-15)
    assert trapezoid_remainder_estimate(p, H=11.0) == 1.0


def test_solve_breakdown_and_flags(small_system):
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=10.0, M=8)
    full = solve(small_system, spec, params)
    assert set(full.breakdown) == {"real", "fourier3d", "self", "yb", "elc"}
    bare = solve(small_system, spec, params, CorrectionFlags(False, False))
    assert set(bare.breakdown) == {"real", "fourier3d", "self"}
    # the toggles really move the answer
    assert full.energy != pytest.approx(bare.energy, rel=1e-12)


def test_solve_levels_endpoint_matches_solve(small_system):
    spec = DielectricSpec(0.5, -0.7)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=10.0, M=6)
    for yb in (True, False):
        for elc in (True, False):
            flags = CorrectionFlags(include_yb=yb, include_elc=elc)
            energies, forces = solve_levels(small_system, spec, params, flags)
            res = solve(small_system, spec, params, flags)
            assert energies[-1] == pytest.approx(res.energy, rel=1e-13)
            np.testing.assert_allclose(forces[-1], res.forces, rtol=1e-11,
                                       atol=1e-13 * np.abs(res.forces).max())


def test_solve_rejects_elc_below_image_stack():
    # L_z = 2 below the image stack (M+1)H = 11: the ELC channels diverge
    system = ChargeSystem(np.array([[0.2, 0.3, 0.3], [0.7, 0.6, 0.8]]),
                          np.array([1.0, -1.0]), (1.0, 1.0, 1.0))
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=3.0, s=4.0, L_z=2.0, M=10)
    with pytest.raises(DomainError, match="diverges"):
        solve(system, spec, params)
    with pytest.raises(DomainError, match="diverges"):
        solve_levels(system, spec, params, CorrectionFlags(include_elc=True))
    no_elc = CorrectionFlags(include_elc=False)
    res = solve(system, spec, params, no_elc)
    assert math.isfinite(res.energy) and np.all(np.isfinite(res.forces))
    energies, forces = solve_levels(system, spec, params, no_elc)
    assert np.all(np.isfinite(energies)) and np.all(np.isfinite(forces))


def test_solve_keeps_warning_at_image_stack_height(small_system):
    params = EwaldParams(alpha=0.8, s=6.0, L_z=7.0, M=6)  # L_z = (M+1)H
    res = solve(small_system, DielectricSpec(0.6, 0.6), params)
    assert len(res.warnings) == 1 and "divergent" in res.warnings[0]
    assert math.isfinite(res.energy)


@pytest.mark.parametrize("gu,gd", [(0.0, 0.0), (0.6, 0.6), (-1.0, -1.0),
                                   (0.9, -0.4)])
def test_cross_solver_identity(small_system, gu, gd):
    """Padded-box solve with YB+ELC equals the doubly periodic reference."""
    spec = DielectricSpec(gu, gd)
    ref = energy_icm(small_system, spec,
                     EwaldParams(alpha=0.6, s=6.0, L_z=2.0, M=30))
    res = solve(small_system, spec,
                EwaldParams(alpha=0.5, s=6.0, L_z=44.0, M=30))
    assert res.energy == pytest.approx(ref.energy, rel=1e-11)
    fscale = np.abs(ref.forces).max()
    assert np.abs(res.forces - ref.forces).max() < 1e-10 * fscale


def test_padded_forces_match_finite_differences(small_system):
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)

    def efn(sys_):
        res = solve(sys_, spec, params)
        return res.energy, res.forces

    assert forces_fd_check(small_system, spec, params, step=1e-5,
                           energy_fn=efn) < 1e-6


GAMMAS = [0.0, 0.6, -1.0]


def _term_scale(cumulative):
    """Largest cumulative value or single-level term: the size of what is summed.

    With gamma = -1 consecutive levels nearly cancel, so the cumulative values
    alone understate the magnitude the rounding error is relative to.
    """
    return max(np.abs(cumulative).max(), np.abs(np.diff(cumulative, axis=0)).max())


@pytest.fixture(params=[None, 64], ids=["one-chunk", "many-chunks"])
def chunk_elements(request, monkeypatch):
    """Run a contraction in one chunk, and split into many small ones."""
    if request.param is not None:
        monkeypatch.setattr(ewald3d, "CHUNK_ELEMENTS", request.param)
    return request.param


@pytest.mark.parametrize("g", GAMMAS)
def test_reciprocal_contraction_matches_loop(small_system, g, chunk_elements):
    spec = DielectricSpec(g, g)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)
    e_ref, f_ref = fourier3d_core_loop(small_system, spec, params, True, True)
    e_scale, f_scale = _term_scale(e_ref), _term_scale(f_ref)
    for cumulative in (True, False):
        want_e, want_f = fourier3d_core_loop(small_system, spec, params, cumulative, True)
        for forces in (True, False):
            e, f = ewald3d._fourier3d_core(small_system, spec, params, cumulative, forces)
            assert e.shape == want_e.shape
            assert np.abs(e - want_e).max() <= 1e-14 * e_scale
            if forces:
                assert f.shape == want_f.shape
                assert np.abs(f - want_f).max() <= 1e-14 * f_scale
            else:
                assert f is None


# (M, L_z, extra_shells): plain; nearly divergent, L_z <= (M+1)H and
# L_z < (M+1)H; widened cutoff
ELC_CASES = [(6, 14.0, 0), (9, 10.0, 0), (9, 8.0, 0), (6, 14.0, 2)]


@pytest.mark.parametrize("g", GAMMAS)
@pytest.mark.parametrize("m,lz,extra", ELC_CASES)
def test_elc_contraction_matches_loop(small_system, g, m, lz, extra, chunk_elements):
    spec = DielectricSpec(g, g)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=lz, M=m)
    e_ref, f_ref, w_ref = elc_correction_loop(small_system, spec, params,
                                              per_level=True, extra_shells=extra)
    e_scale, f_scale = _term_scale(e_ref), _term_scale(f_ref)
    e, f, w = elc_correction(small_system, spec, params, per_level=True,
                             extra_shells=extra)
    assert w == w_ref
    assert (len(w) == 1) == (lz <= (m + 1) * small_system.height)
    assert np.abs(e - e_ref).max() <= 1e-14 * e_scale
    assert np.abs(f - f_ref).max() <= 1e-14 * f_scale
    e_only, f_none, _ = elc_correction(small_system, spec, params, compute_forces=False,
                                       per_level=True, extra_shells=extra)
    assert f_none is None
    assert np.abs(e_only - e_ref).max() <= 1e-14 * e_scale
    e_m, f_m, _ = elc_correction(small_system, spec, params, extra_shells=extra)
    assert abs(e_m - e_ref[-1]) <= 1e-14 * e_scale
    assert np.abs(f_m - f_ref[-1]).max() <= 1e-14 * f_scale


def test_solve_calls_elc_once(small_system, monkeypatch):
    calls = []
    original = ewald3d.elc_correction

    def counted(*args, **kwargs):
        calls.append(kwargs.get("per_level", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(ewald3d, "elc_correction", counted)
    solve(small_system, DielectricSpec(0.6, 0.6),
          EwaldParams(alpha=0.8, s=6.0, L_z=10.0, M=4))
    assert calls == [False]
