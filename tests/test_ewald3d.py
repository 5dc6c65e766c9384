"""Padded-box solver: reciprocal sum, YB and ELC corrections, cross-solver identity."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loop_oracles import elc_correction_loop, fourier3d_core_loop
from slabwald import ewald3d
from slabwald.core import (ChargeSystem, DielectricSpec, DomainError, EwaldParams,
                           check_solvable, image_position, image_series)
from slabwald.errors import trapezoid_remainder_estimate
from slabwald.ewald2d import (_half_plane_hvectors, _real_space_levels, build_image_table,
                              energy_icm, forces_fd_check)
from slabwald.harness import gen_system
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


def test_elc_truncation_certified_by_extra_shells(small_system, monkeypatch):
    # a floor 12 decades lower widens the cutoff by several in-plane shells
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=12.0, M=6)
    e0, f0 = elc_correction(small_system, spec, params)
    monkeypatch.setattr(ewald3d, "ELC_TERM_FLOOR", 1e-30)
    e1, f1 = elc_correction(small_system, spec, params)
    e0, f0, e1, f1 = e0[-1], f0[-1], e1[-1], f1[-1]
    scale = max(abs(e1), 1e-300)
    assert abs(e0 - e1) < 1e-14 * scale
    assert np.abs(f0 - f1).max() < 1e-14 * max(np.abs(f1).max(), scale)


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
    for m in (9, 12):  # L_z = (M+1)H and L_z < (M+1)H
        with pytest.raises(DomainError, match="diverges"):
            elc_h_cutoff(spec, M=m, H=1.0, L_z=10.0)


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
            sweep = solve_levels(small_system, spec, params, flags)
            res = solve(small_system, spec, params, flags)
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
        solve_levels(system, spec, params, CorrectionFlags(include_elc=True))
    no_elc = CorrectionFlags(include_elc=False)
    res = solve(system, spec, params, no_elc)
    assert math.isfinite(res.energy) and np.all(np.isfinite(res.forces))
    sweep = solve_levels(system, spec, params, no_elc)
    assert np.all(np.isfinite(sweep.energies)) and np.all(np.isfinite(sweep.forces))


@pytest.mark.parametrize("params", [EwaldParams(1.2, 3.0, 1.0, 0),
                                    EwaldParams(0.8, 6.0, 7.0, 6),
                                    EwaldParams(0.8, 6.0, 0.5, 0)],
                         ids=["M=0,Lz=H", "Lz=(M+1)H", "Lz<H"])
def test_elc_rejects_padding_at_or_below_image_stack(params):
    system = gen_system(1)
    spec = DielectricSpec(0.6, 0.6)
    elc_on = CorrectionFlags(include_elc=True)
    for call in (lambda: solve(system, spec, params),
                 lambda: solve_levels(system, spec, params, elc_on),
                 lambda: elc_correction(system, spec, params),
                 lambda: elc_h_cutoff(spec, params.M, system.height, params.L_z)):
        with pytest.raises(DomainError, match="diverges"):
            call()
    if params.L_z >= system.height:
        res = solve(system, spec, params, CorrectionFlags(include_elc=False))
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


# (M, L_z, extra): plain; outside the domain, L_z = (M+1)H and L_z < (M+1)H;
# ELC_TERM_FLOOR lowered to 1e-30, which must widen the cutoff by at least
# `extra` in-plane shells
ELC_CASES = [(6, 14.0, 0), (9, 10.0, 0), (9, 8.0, 0), (6, 14.0, 2)]


@pytest.mark.parametrize("g", GAMMAS)
@pytest.mark.parametrize("m,lz,extra", ELC_CASES)
def test_elc_contraction_matches_loop(small_system, g, m, lz, extra, chunk_elements,
                                      monkeypatch):
    spec = DielectricSpec(g, g)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=lz, M=m)
    if lz <= (m + 1) * small_system.height:
        for elc in (elc_correction_loop, elc_correction):
            with pytest.raises(DomainError, match="diverges"):
                elc(small_system, spec, params)
        return
    if extra:
        h_max = elc_h_cutoff(spec, m, small_system.height, lz)[0]
        monkeypatch.setattr(ewald3d, "ELC_TERM_FLOOR", 1e-30)
        shell = 2 * math.pi / max(small_system.lx, small_system.ly)
        assert elc_h_cutoff(spec, m, small_system.height, lz)[0] >= h_max + extra * shell
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
@given(case=slab_cases())
def test_elc_contraction_matches_loop_on_random_systems(case):
    system, spec, params, chunk = case
    e_ref, f_ref = elc_correction_loop(system, spec, params)
    with mock.patch.object(ewald3d, "CHUNK_ELEMENTS", chunk):
        e, f = elc_correction(system, spec, params)
    # A force term is an energy term times an in-plane mode |h| of at most h_max.
    floor = _positive_charge_scale(
        lambda *a: elc_correction_loop(*a, compute_forces=False), system, spec, params)
    h_max = elc_h_cutoff(spec, params.M, system.height, params.L_z)[0]
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


@settings(max_examples=100, deadline=None)
@given(case=cutoff_cases())
def test_real_space_stops_at_cutoff_level_bit_for_bit(case):
    """The real-space table stops at level floor(r_c/H)+1; every level 0..M is unchanged.

    The reciprocal sum is replaced by zeros and YB and ELC are off, so the
    sweep's forces are the real-space forces alone.
    """
    system, spec, params = case
    built = []

    def table(system_, spec_, m):
        built.append(m)
        return build_image_table(system_, spec_, m)

    def no_fourier(system_, spec_, params_, compute_forces):
        return np.zeros(params_.M + 1), np.zeros((params_.M + 1, system_.n, 3))

    with mock.patch.object(ewald3d, "build_image_table", table), \
            mock.patch.object(ewald3d, "_fourier3d_core", no_fourier):
        sweep = solve_levels(system, spec, params, CorrectionFlags(False, False))
    assert built == [min(params.M, math.floor(params.r_c / system.height) + 1)]
    e, f = _real_space_levels(system, build_image_table(system, spec, params.M), params, True)
    np.testing.assert_array_equal(sweep.term_energies["real"], np.cumsum(e))
    np.testing.assert_array_equal(sweep.forces, np.cumsum(f, axis=0))


def test_elc_mode_grid_is_bounded_before_allocation(small_system, monkeypatch):
    """Just above the image stack h_max explodes; the grid size raises before np.mgrid runs.

    10 x 10 cell, H = 1, M = 6, L_z = 7.001: h_max = ln(1e18) / 0.001, a grid
    of 8.7e9 (n_x, n_y) points that would need about 130 GiB.
    """
    class NoGrid:
        def __getitem__(self, key):
            raise AssertionError("np.mgrid reached for an unbounded grid")

    monkeypatch.setattr(np, "mgrid", NoGrid())
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=0.8, s=6.0, L_z=7.001, M=6)
    for call in (solve, elc_correction):
        with pytest.raises(DomainError, match=r"in-plane mode grid of 87\d{8} points"):
            call(small_system, spec, params)
