"""Padded-box solver: reciprocal sum, YB and ELC corrections, cross-solver identity."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loop_oracles import elc_correction_loop, fourier3d_core_loop
from slabwald import core, ewald3d
from slabwald.core import (ChargeSystem, DielectricSpec, DomainError, EwaldParams,
                           check_solvable, image_levels, image_position, image_series,
                           real_space_reach)
from slabwald.errors import (elc_cutoff, elc_truncation_energy, elc_truncation_force,
                             splitting_error, trapezoid_remainder_estimate)
from slabwald.ewald2d import (ImageTable, _half_plane_hvectors, _real_space_levels,
                              build_image_table, energy_icm, forces_fd_check)
from slabwald.harness import gen_system
from slabwald.tuner import ToleranceRequest, select_all
from slabwald.ewald3d import (elc_correction, elc_h_cutoff, fourier3d_energy, solve,
                              solve_levels, yb_correction)


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
    assert abs(e_fast[-1] - e_slow) <= 1e-13 * max(abs(e_slow), 1.0)


@pytest.mark.parametrize("gu,gd", [(0.8, -0.6), (-1.0, 0.7), (0.0, 0.5)])
def test_yb_every_level_equals_double_sum_non_neutral(small_system, gu, gd):
    # net charge +1: the images' z offsets enter through sum_j q_j, which
    # vanishes on a neutral system
    q = small_system.charges.copy()
    q[0] += 1.0
    system = ChargeSystem(small_system.positions, q, small_system.cell)
    spec = DielectricSpec(gu, gd)
    e_lv, _ = yb_correction(system, spec, 7, L_z=9.0)
    want = np.array([_yb_bruteforce(system, spec, m, L_z=9.0) for m in range(8)])
    assert np.abs(e_lv - want).max() <= 1e-13 * np.abs(want).max()


def test_yb_forces_match_finite_differences(small_system):
    spec = DielectricSpec(0.8, -0.6)

    def efn(sys_):
        e, f = yb_correction(sys_, spec, 6, L_z=9.0)
        return e[-1], f[-1]

    assert forces_fd_check(small_system, spec,
                           EwaldParams(alpha=1.0, s=6.0, L_z=9.0, M=6),
                           step=1e-6, energy_fn=efn) < 1e-7


@st.composite
def adversarial_elc_cases(draw):
    """A system, walls and padded box at the edges of ELC's certified cutoff.

    N = 2..14 neutral charges of +-1 and +-2 (pairs +q, -q, and for odd N one
    triple 2, -1, -1 of either sign); L_x and L_y in [4, 20], with
    L_y = L_x / 2 in some draws; H in [0.5, 2]; gamma_u, gamma_d from
    {-1, -0.5, 0, 0.6, 0.95, 1}; M = 0..11; a gap a_min = L_z - (M+1)H in
    [0.3, 8]; s = 2..5; and in some draws a source 1e-3 H from a wall.
    """
    n = draw(st.integers(2, 14))
    sign = draw(st.sampled_from([1.0, -1.0]))
    q = [sign * c for c in (2.0, -1.0, -1.0)] if n % 2 else []
    pairs = (n - len(q)) // 2
    for c in draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=pairs, max_size=pairs)):
        q += [c, -c]
    lx = draw(st.floats(4.0, 20.0))
    ly = lx / 2 if draw(st.booleans()) else draw(st.floats(4.0, 20.0))
    h = draw(st.floats(0.5, 2.0))
    unit = st.floats(0.0, 1.0)
    pos = np.array([[draw(unit) * lx, draw(unit) * ly, (0.05 + 0.9 * draw(unit)) * h]
                    for _ in range(len(q))])
    wall = draw(st.sampled_from([None, 0, 1]))
    if wall is not None:
        pos[0, 2] = 1e-3 * h if wall == 0 else h - 1e-3 * h
    system = ChargeSystem(pos, np.array(q), (lx, ly, h))
    gamma = st.sampled_from([-1.0, -0.5, 0.0, 0.6, 0.95, 1.0])
    spec = DielectricSpec(draw(gamma), draw(gamma))
    try:
        check_solvable(system, spec)
    except DomainError:  # hypothesis can draw two charges at one point
        assume(False)
    m = draw(st.integers(0, 11))
    s = float(draw(st.integers(2, 5)))
    lz = (m + 1) * h + draw(st.floats(0.3, 8.0))
    return system, spec, EwaldParams(alpha=s / (min(lx, ly) / 4), s=s, L_z=lz, M=m)


@settings(max_examples=40, deadline=None)
@given(case=adversarial_elc_cases())
def test_elc_certified_cutoff_meets_its_tolerance(case):
    """ELC at the certified cutoff differs from ELC at the 1e-18 floor by at most tol.

    tol = splitting_error(s), relative to the solve's |E| and max |F|, or to
    the ELC term's own when it is larger: a total that cancels far below its
    terms is no scale for any of them.  Where the forces vanish by symmetry,
    rounding is measured against the ELC energy of the same charges made
    positive, which cannot cancel, times h_max for a force.
    """
    system, spec, params = case
    tol = splitting_error(params.s)
    res = solve(system, spec, params)
    e_cut, f_cut = elc_correction(system, spec, params)
    assert e_cut[-1] == res.breakdown["elc"]
    scale = image_levels(spec, params.M, system.height)[0]
    h_floor = elc_h_cutoff(spec, params.M, system.height, params.L_z)[0]
    plan = ewald3d._elc_plan(system.cell, scale, params.L_z, h_floor, system.n,
                             ewald3d.CHUNK_ELEMENTS)
    e_ref, f_ref = ewald3d._elc_sum(system, plan, True)
    e_ref, f_ref = e_ref[-1], f_ref[-1]
    positive = ChargeSystem(system.positions, np.abs(system.charges), system.cell)
    rounding = 1e-14 * abs(ewald3d._elc_sum(positive, plan, False)[0][-1])
    assert abs(e_cut[-1] - e_ref) <= tol * max(abs(res.energy), abs(e_ref)) + rounding
    assert (np.abs(f_cut[-1] - f_ref).max()
            <= tol * max(np.abs(res.forces).max(), np.abs(f_ref).max()) + h_floor * rounding)


def test_elc_overflow_free_at_extreme_aspect():
    # first-shell h L_z ~ 1e4: the folded-denominator form must stay finite
    pos = np.array([[0.2, 0.3, 0.1], [0.7, 0.6, 0.4]])
    system = ChargeSystem(pos, np.array([1.0, -1.0]), (1.0, 1.0, 0.5))
    params = EwaldParams(alpha=6.0, s=6.0, L_z=1600.0, M=3)
    e, f = elc_correction(system, DielectricSpec(0.6, 0.6), params)
    assert math.isfinite(e[-1])
    assert np.all(np.isfinite(f[-1]))


def test_elc_cutoff_rejects_stack_at_or_above_padding():
    spec = DielectricSpec(0.9, 0.9)
    h_ok, warn_ok = elc_h_cutoff(spec, M=2, H=1.0, L_z=10.0)
    assert warn_ok == [] and h_ok == pytest.approx(math.log(1e18) / 7.0, rel=1e-15)
    # the certified cutoff: the force estimate is tol there and above it just below
    tol, geometry = splitting_error(4.0), (10.0, 10.0, 1.0)
    scale = image_levels(spec, 2, 1.0)[0]
    h_cut = elc_cutoff(tol, scale, geometry, 10.0)
    assert elc_truncation_force(h_cut, scale, geometry, 10.0) == pytest.approx(tol, rel=1e-9)
    assert elc_truncation_force(h_cut * (1 - 1e-6), scale, geometry, 10.0) > tol
    # a split so tight that its accuracy underflows still gets a finite cutoff
    assert splitting_error(30.0) == 0.0
    assert math.isfinite(elc_cutoff(0.0, scale, geometry, 10.0))
    for m in (9, 12):  # L_z = (M+1)H and L_z < (M+1)H
        scale = image_levels(spec, m, 1.0)[0]
        for call in (lambda: elc_h_cutoff(spec, M=m, H=1.0, L_z=10.0),
                     lambda: elc_cutoff(tol, scale, geometry, 10.0),
                     lambda: elc_truncation_energy(h_cut, scale, geometry, 10.0),
                     lambda: elc_truncation_force(h_cut, scale, geometry, 10.0)):
            with pytest.raises(DomainError, match="diverges"):
                call()


def test_elc_forces_match_finite_differences(small_system):
    spec = DielectricSpec(0.7, 0.5)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=8.0, M=4)

    def efn(sys_):
        e, f = elc_correction(sys_, spec, params)
        return e[-1], f[-1]

    assert forces_fd_check(small_system, spec, params, step=1e-6,
                           energy_fn=efn) < 1e-7


def test_trapezoid_remainder_values():
    p = EwaldParams(alpha=0.5, s=6.0, L_z=11.0, M=0)
    assert trapezoid_remainder_estimate(p, H=1.0) == pytest.approx(
        math.exp(-25.0), rel=1e-15)
    assert trapezoid_remainder_estimate(p, H=11.0) == 1.0
    # measured from the top of the image stack, (M+1)H, not from the slab's H
    p = EwaldParams(alpha=0.5, s=6.0, L_z=11.0, M=8)
    assert trapezoid_remainder_estimate(p, H=1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15)
    assert trapezoid_remainder_estimate(p, H=2.0) == 1.0  # stack above the box


def test_solve_breakdown_and_flags(small_system):
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=10.0, M=8)
    full = solve(small_system, spec, params)
    assert set(full.breakdown) == {"real", "fourier3d", "self", "yb", "elc"}
    bare = solve(small_system, spec,
                 dataclasses.replace(params, include_yb=False, include_elc=False))
    assert set(bare.breakdown) == {"real", "fourier3d", "self"}
    # the toggles really move the answer
    assert full.energy != pytest.approx(bare.energy, rel=1e-12)


def test_solve_levels_endpoint_matches_solve(small_system):
    spec = DielectricSpec(0.5, -0.7)
    for yb in (True, False):
        for elc in (True, False):
            params = EwaldParams(alpha=0.8, s=6.0, L_z=10.0, M=6, include_yb=yb,
                                 include_elc=elc)
            sweep = solve_levels(small_system, spec, params)
            res = solve(small_system, spec, params)
            assert sweep.energies[-1] == pytest.approx(res.energy, rel=1e-13)
            np.testing.assert_allclose(sweep.forces[-1], res.forces, rtol=1e-11,
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
        solve_levels(system, spec, params)
    no_elc = dataclasses.replace(params, include_elc=False)
    res = solve(system, spec, no_elc)
    assert math.isfinite(res.energy) and np.all(np.isfinite(res.forces))
    sweep = solve_levels(system, spec, no_elc)
    assert np.all(np.isfinite(sweep.energies)) and np.all(np.isfinite(sweep.forces))


@pytest.mark.parametrize("params", [EwaldParams(1.2, 3.0, 1.0, 0),
                                    EwaldParams(0.8, 6.0, 7.0, 6),
                                    EwaldParams(0.8, 6.0, 0.5, 0)],
                         ids=["M=0,Lz=H", "Lz=(M+1)H", "Lz<H"])
def test_elc_rejects_padding_at_or_below_image_stack(params):
    system = gen_system(1)
    spec = DielectricSpec(0.6, 0.6)
    for call in (lambda: solve(system, spec, params),
                 lambda: solve_levels(system, spec, params),
                 lambda: elc_correction(system, spec, params),
                 lambda: elc_h_cutoff(spec, params.M, system.height, params.L_z)):
        with pytest.raises(DomainError, match="diverges"):
            call()
    if params.L_z >= system.height:
        res = solve(system, spec, dataclasses.replace(params, include_elc=False))
        assert math.isfinite(res.energy) and np.all(np.isfinite(res.forces))


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
    return max(np.abs(cumulative).max(),
               np.abs(np.diff(cumulative, axis=0)).max(initial=0.0))


def _positive_charge_scale(oracle, system, spec, params):
    """Energy scale of the summed terms, from the system with positive charges.

    The terms of a neutral system can cancel exactly (opposite charges at one
    point make every structure factor 0), leaving a reference of 0 and no
    size to measure rounding against. Made positive, the same charges at the
    same places keep the terms' size without their cancellation.
    """
    positive = ChargeSystem(system.positions, np.abs(system.charges), system.cell)
    return _term_scale(oracle(positive, spec, params)[0])


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
    e_ref, f_ref = fourier3d_core_loop(small_system, spec, params, True)
    e_scale, f_scale = _term_scale(e_ref), _term_scale(f_ref)
    for forces in (True, False):
        e, f = ewald3d._fourier3d_core(small_system, spec, params, forces)
        assert e.shape == e_ref.shape
        assert np.abs(e - e_ref).max() <= 1e-14 * e_scale
        if forces:
            assert f.shape == f_ref.shape
            assert np.abs(f - f_ref).max() <= 1e-14 * f_scale
        else:
            assert f is None


@pytest.mark.parametrize("g", GAMMAS)
def test_reciprocal_sum_is_independent_of_chunk_size(small_system, g, monkeypatch):
    """Chunks that mix k_z column widths, the h = 0 block among them, sum as one chunk does."""
    spec = DielectricSpec(g, g)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)
    e_ref, f_ref = fourier3d_core_loop(small_system, spec, params, True)
    e_one, f_one = ewald3d._fourier3d_core(small_system, spec, params, True)
    # column width of each block, widest (h = 0) first, as the contraction orders them
    lx, ly, _ = small_system.cell
    h2 = np.sort(np.sum(_half_plane_hvectors(lx, ly, params.k_c) ** 2, axis=1))
    width = 2 * np.floor(np.sqrt(params.k_c ** 2 - np.append(0.0, h2))
                         * params.L_z / (2 * math.pi)) + 1
    for blocks in (16, 60):  # the first chunk holds 2 and 3 distinct widths
        assert np.unique(width[:blocks]).size == 2 + (blocks > 16)
        monkeypatch.setattr(ewald3d, "CHUNK_ELEMENTS", int(width[0]) * blocks)
        e, f = ewald3d._fourier3d_core(small_system, spec, params, True)
        for got, one, ref in ((e, e_one, e_ref), (f, f_one, f_ref)):
            assert np.abs(got - one).max() <= 1e-14 * _term_scale(ref)
            assert np.abs(got - ref).max() <= 1e-14 * _term_scale(ref)


def test_mode_plan_follows_a_patched_chunk_budget(small_system, monkeypatch):
    """A budget patched after a call at the default one gets a plan of its own."""
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)
    default = ewald3d.CHUNK_ELEMENTS
    ewald3d._mode_plan.cache_clear()
    e_one, _ = ewald3d._fourier3d_core(small_system, spec, params, True)
    monkeypatch.setattr(ewald3d, "CHUNK_ELEMENTS", 64)
    e_many, _ = ewald3d._fourier3d_core(small_system, spec, params, True)
    assert ewald3d._mode_plan.cache_info().misses == 2
    key = (small_system.cell, spec, params, small_system.n)
    one = ewald3d._mode_plan(*key, default).reciprocal.chunks
    many = ewald3d._mode_plan(*key, 64).reciprocal.chunks
    assert len(one) < len(many)
    assert np.abs(e_many - e_one).max() <= 1e-14 * _term_scale(e_one)


def test_elc_plan_follows_a_patched_chunk_budget(small_system, monkeypatch):
    """A small budget cuts ELC's modes into several chunks of its own plan, with
    the energies and forces of one chunk."""
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)
    key = (small_system.cell, spec, params, small_system.n)
    e_one, f_one = elc_correction(small_system, spec, params)
    assert len(ewald3d._mode_plan(*key, ewald3d.CHUNK_ELEMENTS).elc.chunks) == 1
    # a chunk holds budget // (2 max(N, 3 levels, 2 images)) = 156 // 52 modes
    monkeypatch.setattr(ewald3d, "CHUNK_ELEMENTS", 156)
    e_many, f_many = elc_correction(small_system, spec, params)
    chunks = ewald3d._mode_plan(*key, 156).elc.chunks
    assert len(chunks) > 1 and len(chunks[0][0]) == 3
    assert np.abs(e_many - e_one).max() <= 1e-14 * _term_scale(e_one)
    assert np.abs(f_many - f_one).max() <= 1e-14 * _term_scale(f_one)
    monkeypatch.undo()  # the width comes from the key, not from the global
    assert len(ewald3d._mode_plan(*key, 52).elc.chunks) == 3 * len(chunks)


@pytest.mark.parametrize("forces", [False, True], ids=["energy", "forces"])
def test_warm_solves_rebuild_nothing(small_system, forces, monkeypatch):
    """After one solve, solves at the same parameters build no mode list, no ELC
    offsets and no image-level table: they do only the work of the positions."""
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)
    warm = solve(small_system, spec, params, compute_forces=forces)
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(ewald3d, "_half_plane_hvectors",
                        counted("hvectors", ewald3d._half_plane_hvectors))
    monkeypatch.setattr(ewald3d, "elc_offsets", counted("offsets", ewald3d.elc_offsets))
    monkeypatch.setattr(core, "image_z_offsets", counted("levels", core.image_z_offsets))
    moved = ChargeSystem(small_system.positions + [0.3, -0.2, 0.05], small_system.charges,
                         small_system.cell)
    for system in (small_system, moved, small_system):
        got = solve(system, spec, params, compute_forces=forces)
    assert calls == []
    assert got.energy == warm.energy and got.breakdown == warm.breakdown
    np.testing.assert_array_equal(got.forces, warm.forces)


@pytest.mark.parametrize("field", ["alpha", "s", "L_z", "M", "spec", "cell"])
def test_mode_plan_of_one_parameter_set_is_not_reused_for_another(small_system, field):
    """A solve after one at other parameters matches a solve with no plan cached, bit for bit."""
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)
    lx, ly, h = small_system.cell
    wider = ChargeSystem(small_system.positions * [1.1, 1.0, 1.0], small_system.charges,
                         (1.1 * lx, ly, h))
    case = {"alpha": (small_system, spec, dataclasses.replace(params, alpha=0.72)),
            "s": (small_system, spec, dataclasses.replace(params, s=5.4)),
            "L_z": (small_system, spec, dataclasses.replace(params, L_z=15.0)),
            "M": (small_system, spec, dataclasses.replace(params, M=5)),
            "spec": (small_system, DielectricSpec(-0.5, 0.3), params),
            "cell": (wider, spec, params)}[field]
    ewald3d._mode_plan.cache_clear()
    cold = solve(*case)
    ewald3d._mode_plan.cache_clear()
    solve(small_system, spec, params)
    warm = solve(*case)
    assert warm.energy == cold.energy and warm.breakdown == cold.breakdown
    np.testing.assert_array_equal(warm.forces, cold.forces)


def test_mode_plan_is_read_only_and_bounded(small_system):
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6)
    solve(small_system, spec, params)
    plan = ewald3d._mode_plan(small_system.cell, spec, params, small_system.n,
                              ewald3d.CHUNK_ELEMENTS)
    h_max = elc_cutoff(splitting_error(params.s), image_levels(spec, params.M, 1.0)[0],
                       small_system.cell, params.L_z)
    assert plan.elc_h_max == h_max
    rec, elc = plan.reciprocal, plan.elc
    arrays = [rec.kz, rec.sa, rec.sb] + [getattr(c, f.name) for c in rec.chunks
                                        for f in dataclasses.fields(c) if f.name != "zs"]
    arrays += [elc.partner] + [arr for chunk in elc.chunks for arr in chunk]
    assert len(elc.chunks) >= 1 and len(elc.chunks[0]) == 5
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    assert ewald3d._mode_plan.cache_info().maxsize <= 8


def test_threads_share_mode_plans(small_system):
    """Threads solving at two parameter sets, and evaluating ELC alone, with the
    plan and image-level caches cleared under them, get the serial results: a
    shared plan holds no work buffer."""
    spec = DielectricSpec(0.6, 0.6)
    cases = [EwaldParams(alpha=0.8, s=6.0, L_z=14.0, M=6),
             EwaldParams(alpha=0.9, s=6.0, L_z=15.0, M=6)]
    want = [solve(small_system, spec, p) for p in cases]
    want_elc = [elc_correction(small_system, spec, p) for p in cases]
    failures = []

    def work(k):
        try:
            for r in range(8):
                if r == 4:
                    ewald3d._mode_plan.cache_clear()
                    image_levels.cache_clear()
                idx = (k + r) % 2
                got = solve(small_system, spec, cases[idx])
                ref = want[idx]
                if not (abs(got.energy - ref.energy) <= 1e-12 * abs(ref.energy)
                        and np.abs(got.forces - ref.forces).max()
                        <= 1e-12 * np.abs(ref.forces).max()):
                    failures.append((k, r, got.energy, ref.energy))
                e, f = elc_correction(small_system, spec, cases[1 - idx])
                e_ref, f_ref = want_elc[1 - idx]
                if not (np.abs(e - e_ref).max() <= 1e-12 * np.abs(e_ref).max()
                        and np.abs(f - f_ref).max() <= 1e-12 * np.abs(f_ref).max()):
                    failures.append((k, r, "elc", e[-1], e_ref[-1]))
        except Exception as exc:  # reported by the assertion below
            failures.append((k, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# (cell, alpha, s, L_z) with k_c = 2 s alpha, and whether the h = 0 block
# runs alone in the first chunk
RECIPROCAL_EDGES = {
    # k_c = 0.6 lies below the first in-plane shell 2 pi/10: only h = 0 runs;
    # a tall slab keeps its structure factors from cancelling to k_z sum(q z)
    "h0-column-only": ((10.0, 10.0, 8.0), 0.1, 3.0, 40.0, False),
    # k_c = 0.4 lies below 2 pi/L_z: no mode is live
    "no-live-mode": ((10.0, 10.0, 1.0), 0.1, 2.0, 14.0, False),
    # L_x = 3 L_y: the per-axis phase tables span different index ranges
    "elongated": ((15.0, 5.0, 1.0), 0.8, 6.0, 14.0, False),
    "h0-alone-in-chunk": ((10.0, 10.0, 1.0), 0.8, 6.0, 14.0, True),
}


@pytest.mark.parametrize("g", GAMMAS)
@pytest.mark.parametrize("case", list(RECIPROCAL_EDGES))
def test_reciprocal_edge_cases_match_loop(small_system, g, case, monkeypatch):
    (lx, ly, h), alpha, s, lz, h0_alone = RECIPROCAL_EDGES[case]
    system = ChargeSystem(small_system.positions * [lx / 10.0, ly / 10.0, h],
                          small_system.charges, (lx, ly, h))
    spec = DielectricSpec(g, g)
    params = EwaldParams(alpha=alpha, s=s, L_z=lz, M=6)
    nz_max = math.floor(params.k_c * lz / (2 * math.pi))
    n_blocks = 1 + len(_half_plane_hvectors(lx, ly, params.k_c))
    assert (n_blocks == 1) == (case in ("h0-column-only", "no-live-mode"))
    assert (nz_max == 0) == (case == "no-live-mode")
    if h0_alone:
        # room for one full-width column: h = 0 fills the first chunk, and the
        # later chunks, narrower, hold several blocks
        width = 2 * nz_max + 1
        monkeypatch.setattr(ewald3d, "CHUNK_ELEMENTS", 2 * width - 1)
        assert (2 * width - 1) // max(width, 3 * system.n) == 1
    e_ref, f_ref = fourier3d_core_loop(system, spec, params, True)
    e, f = ewald3d._fourier3d_core(system, spec, params, True)
    e_only, _ = ewald3d._fourier3d_core(system, spec, params, False)
    assert np.array_equal(e_only, e)
    assert np.abs(e - e_ref).max() <= 1e-14 * _term_scale(e_ref)
    assert np.abs(f - f_ref).max() <= 1e-14 * _term_scale(f_ref)
    if case == "no-live-mode":
        assert not e.any() and not f.any()
    else:
        assert np.abs(e).max() > 0.0 and np.abs(f).max() > 0.0


# (M, L_z, extra): plain; outside the domain, L_z = (M+1)H and L_z < (M+1)H;
# a tighter split, s = 8 against 6, whose certified ELC cutoff must lie at
# least `extra` in-plane shells beyond the plain row's
ELC_CASES = [(6, 14.0, 0), (9, 10.0, 0), (9, 8.0, 0), (6, 14.0, 2)]


@pytest.mark.parametrize("g", GAMMAS)
@pytest.mark.parametrize("m,lz,extra", ELC_CASES)
def test_elc_contraction_matches_loop(small_system, g, m, lz, extra, chunk_elements):
    spec = DielectricSpec(g, g)
    params = EwaldParams(alpha=0.8, s=8.0 if extra else 6.0, L_z=lz, M=m)
    if lz <= (m + 1) * small_system.height:
        for elc in (elc_correction_loop, elc_correction):
            with pytest.raises(DomainError, match="diverges"):
                elc(small_system, spec, params)
        return
    if extra:
        scale = image_levels(spec, m, small_system.height)[0]
        h_plain = elc_cutoff(splitting_error(6.0), scale, small_system.cell, lz)
        shell = 2 * math.pi / max(small_system.lx, small_system.ly)
        assert (elc_cutoff(splitting_error(params.s), scale, small_system.cell, lz)
                >= h_plain + extra * shell)
    e_ref, f_ref = elc_correction_loop(small_system, spec, params)
    e_scale, f_scale = _term_scale(e_ref), _term_scale(f_ref)
    e, f = elc_correction(small_system, spec, params)
    assert np.abs(e - e_ref).max() <= 1e-14 * e_scale
    assert np.abs(f - f_ref).max() <= 1e-14 * f_scale
    e_only, f_none = elc_correction(small_system, spec, params, compute_forces=False)
    assert f_none is None
    assert np.abs(e_only - e_ref).max() <= 1e-14 * e_scale


def test_solve_calls_elc_once(small_system, monkeypatch):
    calls = []
    original = ewald3d.elc_correction

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ewald3d, "elc_correction", counted)
    solve(small_system, DielectricSpec(0.6, 0.6),
          EwaldParams(alpha=0.8, s=6.0, L_z=10.0, M=4))
    assert len(calls) == 1


@st.composite
def slab_cases(draw):
    """A random neutral system with its walls, truncation level and padded box.

    N = 2..6 charges at z in (0.05, 0.95)H, gamma_u and gamma_d in [-1, 1]
    (exactly 0 and +-1 among them, for one-sided and wall-free specs), M = 0..6
    and L_z at least H above the image stack (M+1)H; contractions run in one
    chunk or in many 64-element ones.
    """
    n = draw(st.integers(2, 6))
    lx, ly = draw(st.floats(2.0, 4.0)), draw(st.floats(2.0, 4.0))
    h = draw(st.floats(0.8, 1.5))
    unit = st.floats(0.0, 1.0)
    pos = np.array([[draw(unit) * lx, draw(unit) * ly, (0.05 + 0.9 * draw(unit)) * h]
                    for _ in range(n)])
    q = np.array([draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
                  for _ in range(n - 1)])
    system = ChargeSystem(pos, np.append(q, -q.sum()), (lx, ly, h))
    gamma = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
    spec = DielectricSpec(draw(gamma), draw(gamma))
    m = draw(st.integers(0, 6))
    lz = (m + 1) * h + draw(st.floats(1.0, 4.0)) * h
    params = EwaldParams(alpha=1.0, s=5.0, L_z=lz, M=m)
    return system, spec, params, draw(st.sampled_from([ewald3d.CHUNK_ELEMENTS, 64]))


@settings(max_examples=20, deadline=None)
@given(case=slab_cases())
def test_reciprocal_contraction_matches_loop_on_random_systems(case):
    system, spec, params, chunk = case
    e_ref, f_ref = fourier3d_core_loop(system, spec, params, True)
    with mock.patch.object(ewald3d, "CHUNK_ELEMENTS", chunk):
        e, f = ewald3d._fourier3d_core(system, spec, params, True)
    # A force term is an energy term times a wavevector component of at most k_c.
    floor = _positive_charge_scale(
        lambda *a: fourier3d_core_loop(*a, False), system, spec, params)
    assert np.abs(e - e_ref).max() <= 1e-14 * max(_term_scale(e_ref), floor)
    assert np.abs(f - f_ref).max() <= 1e-14 * max(_term_scale(f_ref), params.k_c * floor)


@settings(max_examples=20, deadline=None)
@given(case=slab_cases(), data=st.data())
def test_reciprocal_sum_at_chosen_levels_matches_all_levels(case, data):
    """S_A and S_B contracted at some levels give those rows of the all-levels sum:
    at (M,), which `solve` asks for, and at a drawn subset."""
    system, spec, params, chunk = case
    drawn = data.draw(st.lists(st.integers(0, params.M), min_size=1, unique=True).map(sorted))
    # as in the test above: opposite charges can cancel the terms exactly
    floor = _positive_charge_scale(
        lambda *a: ewald3d._fourier3d_core(*a, False), system, spec, params)
    with mock.patch.object(ewald3d, "CHUNK_ELEMENTS", chunk):
        e_all, f_all = ewald3d._fourier3d_core(system, spec, params, True)
        for levels in ([params.M], drawn):
            e_scale = max(_term_scale(e_all[levels]), floor)
            f_scale = max(_term_scale(f_all[levels]), params.k_c * floor)
            for forces in (True, False):
                e, f = ewald3d._fourier3d_core(system, spec, params, forces, levels)
                assert e.shape == (len(levels),)
                assert np.abs(e - e_all[levels]).max() <= 1e-14 * e_scale
                if forces:
                    assert f.shape == (len(levels), system.n, 3)
                    assert np.abs(f - f_all[levels]).max() <= 1e-14 * f_scale
                else:
                    assert f is None


@settings(max_examples=20, deadline=None)
@given(case=slab_cases())
def test_elc_contraction_matches_loop_on_random_systems(case):
    system, spec, params, chunk = case
    e_ref, f_ref = elc_correction_loop(system, spec, params)
    with mock.patch.object(ewald3d, "CHUNK_ELEMENTS", chunk):
        e, f = elc_correction(system, spec, params)
    # A force term is an energy term times an in-plane mode |h| of at most h_max.
    floor = _positive_charge_scale(
        lambda *a: elc_correction_loop(*a, compute_forces=False), system, spec, params)
    h_max = elc_cutoff(splitting_error(params.s), image_levels(spec, params.M, system.height)[0],
                       system.cell, params.L_z)
    assert np.abs(e - e_ref).max() <= 1e-14 * max(_term_scale(e_ref), floor)
    assert np.abs(f - f_ref).max() <= 1e-14 * max(_term_scale(f_ref), h_max * floor)


@st.composite
def cutoff_cases(draw):
    """A random neutral system, walls and M, with r_c/H at a level boundary.

    r_c is below H, exactly kH, or one ulp either side of kH (k = 1..5).  H is
    dyadic so that kH is exact; s is the float nearest r_c alpha for which
    s / alpha gives back exactly that r_c.
    """
    h = draw(st.integers(40, 256)) / 128.0
    system = draw(slab_cases())[0]
    system = ChargeSystem(system.positions * [1.0, 1.0, h / system.height],
                          system.charges, system.cell[:2] + (h,))
    gamma = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    spec = DielectricSpec(draw(gamma), draw(gamma))
    k = draw(st.integers(1, 5))
    r_c = draw(st.sampled_from([draw(st.floats(0.1, 0.99)) * h, k * h,
                                np.nextafter(k * h, 0.0), np.nextafter(k * h, np.inf)]))
    alpha = draw(st.floats(0.5, 3.0))
    s = [c for c in (r_c * alpha, np.nextafter(r_c * alpha, 0.0),
                     np.nextafter(r_c * alpha, np.inf)) if c / alpha == r_c]
    assume(s)
    try:
        check_solvable(system, spec)
    except DomainError:  # hypothesis can draw two charges at one point
        assume(False)
    m = draw(st.integers(0, 40))
    return system, spec, EwaldParams(alpha, float(s[0]), (m + 2) * h, m)


def _real_space_scales(system, table, params):
    """Rounding scales of a real-space sum: the magnitudes of its summed terms.

    The energy scale is the dense reference on the same table with every
    charge and image weight made positive, so that no term cancels.  A force
    term is a pair energy term times (dphi/dr)/phi along a unit vector, with
    |dphi/dr| < phi (1/r + 2 alpha^2 r + sqrt(2) alpha) by
    erfc(x) > 2 e^{-x^2} / (sqrt(pi) (x + sqrt(x^2 + 2))); it enters a target
    row and a source row.  So twice the energy scale times that factor at the
    nearest pair and at r_c bounds the summed magnitude of the force terms.
    """
    positive = ChargeSystem(system.positions, np.abs(system.charges), system.cell)
    abs_table = dataclasses.replace(table, weight=np.abs(table.weight))
    e_abs = float(_real_space_levels(positive, abs_table, params, False)[0].sum())
    pos = system.positions
    d = pos[:, None, :2] - pos[:, :2]
    d -= np.array(system.cell[:2]) * np.round(d / system.cell[:2])
    r2 = (d * d).sum(axis=2)[:, None, :] + (pos[:, None, None, 2] - table.z) ** 2
    r2[np.arange(system.n), 0, np.arange(system.n)] = np.inf  # the self pairs
    alpha = params.alpha
    factor = 1.0 / math.sqrt(r2.min()) + 2.0 * alpha * alpha * params.r_c + math.sqrt(2.0) * alpha
    return e_abs, 2.0 * e_abs * factor


def _assert_real_space_matches_dense(system, table, params, e, f):
    """`ewald3d._real_space_pairs`' per-level results against ewald2d's dense sum."""
    e_ref, f_ref = _real_space_levels(system, table, params, True)
    e_scale, f_scale = _real_space_scales(system, table, params)
    assert np.abs(e - e_ref).max() <= 1e-14 * e_scale
    assert np.abs(f - f_ref).max() <= 1e-14 * f_scale


@settings(max_examples=100, deadline=None)
@given(case=cutoff_cases())
def test_real_space_stops_at_cutoff_level_bit_for_bit(case):
    """The real-space table stops at level floor(r_c/H)+1; every level 0..M is unchanged.

    The reciprocal sum is replaced by zeros and YB and ELC are off, so the
    sweep's forces are the real-space forces alone.  On the full M-level
    table the extra blocks hold no pair within r_c, so ewald3d's real space
    gives the capped sweep bit for bit; it matches ewald2d's dense sum to
    rounding.
    """
    system, spec, params = case
    built = []

    def table(system_, spec_, m):
        built.append(m)
        return build_image_table(system_, spec_, m)

    def no_fourier(system_, spec_, params_, compute_forces, levels):
        return (np.zeros(params_.M + 1)[levels],
                np.zeros((params_.M + 1, system_.n, 3))[levels])

    with mock.patch.object(ewald3d, "build_image_table", table), \
            mock.patch.object(ewald3d, "_fourier3d_core", no_fourier):
        sweep = solve_levels(system, spec, dataclasses.replace(
            params, include_yb=False, include_elc=False))
    assert built == [min(params.M, math.floor(params.r_c / system.height) + 1)]
    full = build_image_table(system, spec, params.M)
    e, f = ewald3d._real_space_pairs(system, full, params, True)
    np.testing.assert_array_equal(sweep.term_energies["real"], np.cumsum(e))
    np.testing.assert_array_equal(sweep.forces, np.cumsum(f, axis=0))
    _assert_real_space_matches_dense(system, full, params, e, f)


@st.composite
def replica_ring_cases(draw):
    """A random neutral system whose cutoff reaches past the primary cell.

    N = 2..6 charges, each at z in (0.05, 0.95)H or 1e-3 H or 1e-9 H from a
    wall; gamma_u and gamma_d with exactly 0 and +-1 among them, so that some
    levels have no block; r_c from min(L_x, L_y)/2 to 1.5 max(L_x, L_y), so
    that xy replica rings are summed and one (i, k, j) can lie within r_c in
    two replicas; the table holds levels 0..M, M = 0..8.  A z-periodic case
    instead puts the system between ideal walls (each sign pair) in the
    lattice cell of period 2H or 4H, whose z-replica rings are summed too.
    Returns (system, spec, params, table, period), period None for one
    z-iteration.
    """
    n = draw(st.integers(2, 6))
    lx, ly = draw(st.floats(2.0, 4.0)), draw(st.floats(2.0, 4.0))
    h = draw(st.floats(0.8, 1.5))
    unit = st.floats(0.0, 1.0)
    z = st.one_of(unit.map(lambda u: 0.05 + 0.9 * u),
                  st.sampled_from([1e-3, 1.0 - 1e-3, 1e-9, 1.0 - 1e-9]))
    pos = np.array([[draw(unit) * lx, draw(unit) * ly, draw(z) * h] for _ in range(n)])
    q = np.array([draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
                  for _ in range(n - 1)])
    system = ChargeSystem(pos, np.append(q, -q.sum()), (lx, ly, h))
    gamma = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
    z_periodic = draw(st.booleans())
    if z_periodic:
        spec = DielectricSpec(*draw(st.sampled_from([(1.0, 1.0), (-1.0, -1.0),
                                                     (1.0, -1.0), (-1.0, 1.0)])))
    else:
        spec = DielectricSpec(draw(gamma), draw(gamma))
    try:
        check_solvable(system, spec)
    except DomainError:  # hypothesis can draw two charges at one point
        assume(False)
    r_c = draw(st.floats(min(lx, ly) / 2, 1.5 * max(lx, ly)))
    alpha = draw(st.floats(0.5, 3.0))
    m = draw(st.integers(0, 8))
    if z_periodic:
        params = EwaldParams(alpha, r_c * alpha, (m + 2) * h, m, method="lattice")
        box = ewald3d._box(spec, params, h)
        return system, spec, params, ewald3d._lattice_image_table(system, box), box.period
    params = EwaldParams(alpha, r_c * alpha, (m + 2) * h, m)
    return system, spec, params, build_image_table(system, spec, m), None


def _z_replicated(table, period, r_c):
    """The table's blocks at every z shift n P that can hold a pair within
    r_c, unshifted first (so block 0 is still the sources themselves): the
    dense sum on it is the z-periodic real space."""
    reach = math.ceil((r_c + np.ptp(table.z) + period) / period)
    shifts = period * np.array([0] + [n for k in range(1, reach + 1) for n in (-k, k)])
    copies = len(shifts)
    return ImageTable(np.tile(table.level, copies), np.tile(table.weight, copies),
                      np.tile(table.parity, copies),
                      np.concatenate([table.z + shift for shift in shifts]), table.n_levels)


@settings(max_examples=60, deadline=None)
@given(case=replica_ring_cases())
def test_real_space_pairs_match_dense_reference(case):
    """ewald3d's pair-list real space against ewald2d's dense sum, level by level.

    In the lattice cell the dense sum runs on the table's explicit z-replicas.
    The energy-only path gives the same energies bit for bit and no forces.
    """
    system, spec, params, table, period = case
    e, f = ewald3d._real_space_pairs(system, table, params, True, period)
    dense = table if period is None else _z_replicated(table, period, params.r_c)
    _assert_real_space_matches_dense(system, dense, params, e, f)
    e_only, no_f = ewald3d._real_space_pairs(system, table, params, False, period)
    assert no_f is None
    np.testing.assert_array_equal(e_only, e)


@pytest.mark.parametrize("gamma", [0.0, 0.8])
def test_real_space_pairs_without_a_pair_within_cutoff_are_zero(gamma):
    """Two charges 3 apart, each 1 from its own images, with r_c = 0.4: no hit.

    Every level's energy and force is exactly 0, with or without forces, and
    no numpy warning is raised for the empty pair list.
    """
    system = ChargeSystem(np.array([[2.0, 5.0, 0.5], [5.0, 5.0, 0.5]]),
                          np.array([1.0, -1.0]), (10.0, 10.0, 1.0))
    params = EwaldParams(alpha=5.0, s=2.0, L_z=4.0, M=2)
    table = build_image_table(system, DielectricSpec(gamma, gamma), params.M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, f = ewald3d._real_space_pairs(system, table, params, True)
        e_only, _ = ewald3d._real_space_pairs(system, table, params, False)
    np.testing.assert_array_equal(e, np.zeros(3))
    np.testing.assert_array_equal(e_only, np.zeros(3))
    np.testing.assert_array_equal(f, np.zeros((3, 2, 3)))


def _md_dense_real_space():
    """N = 195 between gamma = 0.6 walls at eps = 1e-8, the tuner's parameters
    (s = 4, alpha = 1.33, M = 17) and their real-space table (levels 0..3)."""
    geometry, spec = (10.0, 10.0, 1.0), DielectricSpec(0.6, 0.6)
    system = gen_system(1, ((65, 2.0), (130, -1.0)), geometry)
    params = select_all(ToleranceRequest(1e-8, geometry, spec)).params
    table = build_image_table(system, spec, real_space_reach(params.r_c, geometry)[0])
    return system, table, params


@pytest.mark.parametrize("forces", [True, False])
def test_real_space_blocks_of_targets_sum_bit_for_bit(monkeypatch, forces):
    """Energies are bit-identical whatever the targets per block; forces agree to rounding.

    One target per block, 7 (which does not divide N = 195) and the default
    (24 at K N = 1365) against every target in one block.
    """
    system, table, params = _md_dense_real_space()
    kn = table.z.shape[0] * system.n
    assert (kn, ewald3d.CHUNK_ELEMENTS // kn) == (1365, 24)
    monkeypatch.setattr(ewald3d, "CHUNK_ELEMENTS", kn * system.n)
    e_ref, f_ref = ewald3d._real_space_pairs(system, table, params, forces)
    for width in (1, 7, 24):
        monkeypatch.setattr(ewald3d, "CHUNK_ELEMENTS", kn * width)
        e, f = ewald3d._real_space_pairs(system, table, params, forces)
        np.testing.assert_array_equal(e, e_ref)
        if forces:
            assert np.abs(f - f_ref).max() <= 1e-15 * np.abs(f_ref).max()
        else:
            assert f is None


def test_real_space_pairs_peak_memory_is_bounded():
    """The md_dense real space allocates at most 4 MB at its peak, forces included."""
    system, table, params = _md_dense_real_space()
    tracemalloc.start()
    try:
        ewald3d._real_space_pairs(system, table, params, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_elc_mode_grid_is_bounded_before_allocation(small_system, monkeypatch):
    """Just above the image stack h_max explodes; the grid size raises before np.mgrid runs.

    10 x 10 cell, H = 1, M = 6, L_z = 7.001, s = 6: the certified cutoff is
    h_max = 5.5e4, where the force estimate falls to splitting_error(6) =
    6.4e-18 across the gap of 0.001, a grid of 1.5e10 (n_x, n_y) points that
    would need about 580 GiB.
    """
    class NoGrid:
        def __getitem__(self, key):
            raise AssertionError("np.mgrid reached for an unbounded grid")

    monkeypatch.setattr(np, "mgrid", NoGrid())
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=7.001, M=6)
    for call in (solve, elc_correction):
        with pytest.raises(DomainError, match=r"in-plane mode grid of 1549\d{7} points"):
            call(small_system, spec, params)
