"""Doubly periodic reference solver: kernels, image sums, and symmetries."""

import math
import time
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import loop_oracles
from loop_oracles import (fourier_levels_elementwise, fourier_levels_per_mode,
                          fourier_levels_unpruned, half_plane_hvectors_loop,
                          real_space_levels_masked, spectral_image_energy)
from slabwald import ewald2d, ewald3d
from slabwald.core import (ChargeSystem, DielectricSpec, DomainError, EwaldParams,
                           check_solvable)
from slabwald.ewald2d import (_fourier_levels, _half_plane_hvectors, _real_space_levels,
                              build_image_table, energy_homogeneous, energy_icm,
                              forces_fd_check, g0_alpha, g_alpha_terms,
                              icm_level_sweep)


def g_alpha(h, z, alpha):
    """e^{hz} erfc(h/2a + a z) + e^{-hz} erfc(h/2a - a z); even in z."""
    tp, tm = g_alpha_terms(h, z, alpha)
    return tp + tm


def _g_quadrature(h, z, alpha):
    """Oracle for the planewise kernel via its cosine-transform representation.

    With b = h/(2 alpha):
    integral_0^inf e^{-t^2} cos(2 alpha z t) / (t^2 + b^2) dt
      = (pi / 4b) e^{b^2} [e^{hz} erfc(b + alpha z) + e^{-hz} erfc(b - alpha z)],
    so the kernel equals (2h / (alpha pi)) e^{-b^2} times the integral.
    """
    b = h / (2.0 * alpha)
    val, _ = quad(lambda t: math.exp(-t * t) * math.cos(2 * alpha * z * t)
                  / (t * t + b * b), 0.0, np.inf, limit=400)
    return 2.0 * h / (alpha * math.pi) * math.exp(-b * b) * val


def _g_mpmath(h, z, alpha, dps=50):
    with mpmath.workdps(dps):
        hz = mpmath.mpf(h) * z
        b = mpmath.mpf(h) / (2 * alpha)
        az = mpmath.mpf(alpha) * z
        return float(mpmath.e**hz * mpmath.erfc(b + az)
                     + mpmath.e**(-hz) * mpmath.erfc(b - az))


@pytest.mark.parametrize("h,z,alpha", [
    (0.7, 0.0, 1.0),
    (0.7, 0.4, 1.0),
    (2.0, -1.3, 0.8),
    (5.0, 2.0, 1.5),
    (0.3, 3.0, 2.0),
])
def test_g_alpha_against_quadrature(h, z, alpha):
    assert g_alpha(h, z, alpha) == pytest.approx(
        _g_quadrature(h, z, alpha), rel=1e-11)


@pytest.mark.parametrize("h,z,alpha", [
    (50.0, 30.0, 1.0),    # naive e^{hz} overflows: tests the erfcx rewrite
    (50.0, -30.0, 1.0),
    (200.0, 5.0, 0.5),
    (1.0, 40.0, 2.0),     # negative erfc argument branch
    (30.0, 0.9, 15.0),
])
def test_g_alpha_extreme_arguments_vs_mpmath(h, z, alpha):
    got = float(g_alpha(h, z, alpha))
    want = _g_mpmath(h, z, alpha)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_g_alpha_even_in_z():
    z = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(g_alpha(1.3, z, 0.9), g_alpha(1.3, -z, 0.9),
                               rtol=1e-14)


@settings(max_examples=200, deadline=None)
@given(h=st.floats(1e-3, 500.0), alpha=st.floats(0.05, 20.0), data=st.data())
def test_g_alpha_terms_swap_under_z_reflection(h, alpha, data):
    """g_alpha_terms(h, -z) is g_alpha_terms(h, z) with tp and tm swapped, bit
    for bit: every operation in it maps exactly under z -> -z.  ewald2d's
    Fourier sum evaluates the kernel on |z| only and relies on this.

    z is drawn up to |z| = 1e3, with 0, subnormals and the points around
    z = h/(2 alpha^2), where h/2a - a z changes sign, in both signs.
    """
    edge = h / (2.0 * alpha * alpha)
    special = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, edge,
                               np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)])
    values = st.one_of(st.floats(-1e3, 1e3), special, special.map(lambda v: -v))
    z = np.array(data.draw(st.lists(values, min_size=1, max_size=16)))
    tp, tm = g_alpha_terms(h, z, alpha)
    tp_neg, tm_neg = g_alpha_terms(h, -z, alpha)
    assert np.array_equal(tp_neg, tm) and np.array_equal(tm_neg, tp)


def test_g0_alpha_against_mpmath():
    for z, alpha in [(0.0, 1.0), (0.5, 0.7), (-2.0, 1.3), (30.0, 2.0)]:
        with mpmath.workdps(40):
            want = float(mpmath.mpf(z) * mpmath.erf(alpha * z)
                         + mpmath.e**(-(alpha * z) ** 2)
                         / (alpha * mpmath.sqrt(mpmath.pi)))
        assert float(g0_alpha(z, alpha)) == pytest.approx(want, rel=1e-14)
    # large-|z| asymptote: the kernel approaches |z|
    assert float(g0_alpha(50.0, 1.0)) == pytest.approx(50.0, rel=1e-15)


@pytest.mark.parametrize("lx,ly,k_c", [
    (10.0, 10.0, 9.6),                  # square cell
    (10.0, 3.7, 7.2),                   # lx != ly
    (3.7, 10.0, 7.2),
    (10.0, 10.0, 0.5),                  # below the first shell: empty
    (10.0, 10.0, 2 * math.pi * 3 / 10.0),  # exactly on the shell |n| = 3
    (6.0, 4.0, 2 * math.pi * 2 / 4.0),     # exactly on a shell along y
])
def test_half_plane_hvectors_match_loop(lx, ly, k_c):
    got = _half_plane_hvectors(lx, ly, k_c)
    want = half_plane_hvectors_loop(lx, ly, k_c)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # same vectors, bit for bit, same order


def test_build_image_table_structure(pair_system):
    spec = DielectricSpec(0.5, -0.25)
    table = build_image_table(pair_system, spec, 3)
    assert table.n_levels == 4
    assert table.level.tolist() == [0, 1, 1, 2, 2, 3, 3]  # one block per (level, side)
    assert table.z.shape == (7, pair_system.n)
    # odd levels reflect, even levels translate
    assert table.parity.tolist() == [1, -1, -1, 1, 1, -1, -1]
    # pruned wall: gamma_u = 0 keeps only the single lower reflection
    one = build_image_table(pair_system, DielectricSpec(0.0, 0.5), 3)
    assert one.level.tolist() == [0, 1] and one.n_levels == 4
    # levels 2 and 3 have no block, so every term adds exactly zero there
    sweep = icm_level_sweep(pair_system, DielectricSpec(0.0, 0.5),
                            EwaldParams(alpha=1.0, s=3.0, L_z=2.0, M=3))
    assert sweep.energies[1] != sweep.energies[0]
    assert np.all(sweep.energies[2:] == sweep.energies[1])
    assert np.all(sweep.forces[2:] == sweep.forces[1])


def test_real_space_counts_replica_pairs_at_exactly_r_c():
    """Charges L/2 apart in x sit at exactly r_c = L/2 from each other both in
    the primary cell and in one x-replica; every such pair counts, in the dense
    sum and in ewald3d's pair list."""
    lx = 4.0
    params = EwaldParams(alpha=1.5, s=3.0, L_z=2.0, M=0)
    assert params.r_c == 2.0
    pos = np.array([[1.0, 2.0, 0.5], [3.0, 2.0, 0.5]])
    q = np.array([1.0, -1.0])
    system = ChargeSystem(pos, q, (lx, lx, 1.0))
    table = build_image_table(system, DielectricSpec(0.0, 0.0), 0)
    want = 0.0
    for i in range(2):
        for j in range(2):
            for mx in range(-3, 4):
                for my in range(-3, 4):
                    r = math.hypot(pos[i, 0] - pos[j, 0] + mx * lx, my * lx)
                    if 0 < r <= params.r_c:
                        want += 0.5 * q[i] * q[j] * math.erfc(params.alpha * r) / r
    assert want == pytest.approx(-math.erfc(3.0), rel=1e-15)  # four ordered pairs
    for real_space in (_real_space_levels, ewald3d._real_space_pairs):
        e, f = real_space(system, table, params, True)
        assert e[0] == pytest.approx(want, rel=1e-15)
        np.testing.assert_array_equal(f[0], 0.0)  # the two replicas pull in opposite directions


def test_alpha_independence_homogeneous(small_system):
    vals = []
    fs = []
    for alpha in (0.5, 0.8, 1.4, 2.0):
        res = energy_homogeneous(small_system,
                                 EwaldParams(alpha=alpha, s=6.0, L_z=2.0, M=0))
        vals.append(res.energy)
        fs.append(res.forces)
    scale = abs(vals[0])
    assert max(vals) - min(vals) < 1e-11 * scale
    fscale = np.abs(fs[0]).max()
    for f in fs[1:]:
        assert np.abs(f - fs[0]).max() < 1e-10 * fscale


def test_alpha_independence_with_images(small_system):
    spec = DielectricSpec(0.6, 0.6)
    vals = [energy_icm(small_system, spec,
                       EwaldParams(alpha=a, s=6.0, L_z=2.0, M=25),
                       compute_forces=False).energy
            for a in (0.6, 1.0, 1.8)]
    assert max(vals) - min(vals) < 1e-11 * abs(vals[0])


@pytest.mark.parametrize("gu,gd", [(0.6, 0.6), (-1.0, -1.0), (0.9, -0.4),
                                   (0.0, 0.8)])
def test_image_energy_against_spectral_oracle(small_system, gu, gd):
    spec = DielectricSpec(gu, gd)
    m = 60 if abs(gu * gd) > 0.5 else 25
    params = EwaldParams(alpha=1.2, s=6.0, L_z=2.0, M=m)
    got = energy_icm(small_system, spec, params, compute_forces=False).energy
    want = spectral_image_energy(small_system, spec, M_large=m, params=params)
    assert got == pytest.approx(want, rel=1e-12)


def test_spectral_oracle_checks_the_contract_first():
    """A source on a reflecting wall raises at once, as in both solvers; the
    oracle's mode sum would otherwise run to its 20 000-shell limit."""
    system = ChargeSystem(np.array([[1.0, 1.0, 1.0], [2.0, 3.0, 0.4]]), np.array([1.0, -1.0]),
                          (4.0, 4.0, 1.0))
    with pytest.raises(DomainError, match="on-interface"):
        spectral_image_energy(system, DielectricSpec(0.5, 0.0), M_large=4)


@st.composite
def near_wall_cases(draw):
    """A random neutral system with sources near both walls, its walls, M and alpha.

    N = 3..5 charges, one within 1e-6 H of each wall and the rest anywhere
    inside; H from 0.1 to 5; gamma_u and gamma_d in [-1, 1] (exactly 0 and
    +-1 among them); M = 0..64 and alpha from 0.5 to 2.
    """
    n = draw(st.integers(3, 5))
    lx, ly = draw(st.floats(2.0, 4.0)), draw(st.floats(2.0, 4.0))
    h = draw(st.floats(0.1, 5.0))
    unit = st.floats(0.0, 1.0)
    gap = st.floats(1e-9, 1e-6)
    z = [draw(gap) * h, (1.0 - draw(gap)) * h] + [draw(unit) * h for _ in range(n - 2)]
    pos = np.array([[draw(unit) * lx, draw(unit) * ly, zi] for zi in z])
    q = np.array([draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
                  for _ in range(n - 1)])
    system = ChargeSystem(pos, np.append(q, -q.sum()), (lx, ly, h))
    gamma = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
    spec = DielectricSpec(draw(gamma), draw(gamma))
    try:
        check_solvable(system, spec)
    except DomainError:  # on a wall, or two charges at one point
        assume(False)
    params = EwaldParams(alpha=draw(st.floats(0.5, 2.0)), s=5.0, L_z=2.0 * h,
                         M=draw(st.integers(0, 64)))
    return system, spec, params


@settings(max_examples=30, deadline=None)
@given(case=near_wall_cases())
def test_fourier_skips_only_blocks_below_the_kernel_floor(case):
    """Each shell skips a block prefix's tail only where the kernel is below 3e-18.

    The sweep with skipped blocks has the unpruned sweep's energies at every
    level, bit for bit, and its forces within 1e-16 of max|F|.
    """
    system, spec, params = case
    sweep = icm_level_sweep(system, spec, params)
    with mock.patch.object(ewald2d, "_fourier_levels", fourier_levels_unpruned):
        full = icm_level_sweep(system, spec, params)
    np.testing.assert_array_equal(sweep.energies, full.energies)
    assert np.abs(sweep.forces - full.forces).max() <= 1e-16 * np.abs(full.forces).max()

    table = build_image_table(system, spec, params.M)
    with mock.patch.object(ewald2d, "g_alpha_terms", wraps=g_alpha_terms) as kernel, \
            mock.patch.object(ewald2d, "_add_shell", wraps=ewald2d._add_shell) as shell:
        _fourier_levels(system, table, params, True)
    hs = [call.args[0] for call in kernel.call_args_list]
    kept = [call.args[2].shape[1] for call in shell.call_args_list]  # g is (N, k_h, N)
    assert len(hs) == len(kept)
    zd = system.positions[:, None, None, 2] - table.z
    for h, k_h in zip(hs, kept):
        tp, tm = g_alpha_terms(h, zd[:, k_h:], params.alpha)
        assert np.abs(tp + tm).max(initial=0.0) <= 3e-18
        assert np.abs(tp - tm).max(initial=0.0) <= 3e-18  # G'(h, z) / h


@st.composite
def shell_cases(draw):
    """A random neutral system, its walls, M and alpha, in a square or oblong cell.

    The cell is 10 x 10, 10 x 3.7 (where only the +-hy mirror modes share a
    shell) or random in [2, 4]^2, with H from 0.5 to 3; N = 3..5 charges, the
    first two optionally within 1e-6 H of a wall; gamma_u and gamma_d in
    [-1, 1] (exactly 0 and +-1 among them); M = 0..16, alpha from 0.5 to 1.5.
    """
    lx, ly = draw(st.one_of(st.sampled_from([(10.0, 10.0), (10.0, 3.7)]),
                            st.tuples(st.floats(2.0, 4.0), st.floats(2.0, 4.0))))
    h = draw(st.floats(0.5, 3.0))
    n = draw(st.integers(3, 5))
    unit = st.floats(0.0, 1.0)
    near = st.one_of(st.floats(1e-9, 1e-6), unit)
    z = [draw(near) * h, (1.0 - draw(near)) * h] + [draw(unit) * h for _ in range(n - 2)]
    pos = np.array([[draw(unit) * lx, draw(unit) * ly, zi] for zi in z])
    q = np.array([draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
                  for _ in range(n - 1)])
    system = ChargeSystem(pos, np.append(q, -q.sum()), (lx, ly, h))
    gamma = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
    spec = DielectricSpec(draw(gamma), draw(gamma))
    try:
        check_solvable(system, spec)
    except DomainError:  # on a wall, or two charges at one point
        assume(False)
    params = EwaldParams(alpha=draw(st.floats(0.5, 1.5)), s=4.0, L_z=2.0 * h,
                         M=draw(st.integers(0, 16)))
    return system, spec, params


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(shell_cases(), near_wall_cases()), compute_forces=st.booleans())
def test_fourier_levels_match_the_elementwise_kernel_bit_for_bit(case, compute_forces):
    """Evaluating the kernel once per distinct |z| and gathering it onto the
    (i, k, j) entries gives the elementwise kernel's energies and forces bit
    for bit."""
    system, spec, params = case
    table = build_image_table(system, spec, params.M)
    e, f = _fourier_levels(system, table, params, compute_forces)
    e_ref, f_ref = fourier_levels_elementwise(system, table, params, compute_forces)
    assert np.array_equal(e, e_ref)
    if compute_forces:
        assert np.array_equal(f, f_ref)
    else:
        assert f is None and f_ref is None


@settings(max_examples=20, deadline=None)
@given(case=st.one_of(shell_cases(), near_wall_cases()))
def test_real_space_evaluates_erfc_only_within_r_c(case):
    """`_real_space_levels` passes erfc exactly the (pair, replica) distances
    within r_c, self pairs excluded, and its per-level results are those of
    the form that evaluates erfc everywhere and masks, bit for bit.

    The hits are counted here without the xy wrap, over every replica that
    can lie within r_c."""
    system, spec, params = case
    table = build_image_table(system, spec, params.M)
    with mock.patch.object(ewald2d, "erfc", wraps=ewald2d.erfc) as erfc:
        e, f = _real_space_levels(system, table, params, True)
    got = np.sort(np.concatenate([np.zeros(0)] + [c.args[0] for c in erfc.call_args_list]))

    pos, r_c = system.positions, params.r_c
    dz = pos[:, None, None, 2] - table.z
    diag = np.arange(system.n)
    want = []
    reach_x = math.ceil(r_c / system.lx) + 1
    reach_y = math.ceil(r_c / system.ly) + 1
    for mx in range(-reach_x, reach_x + 1):
        for my in range(-reach_y, reach_y + 1):
            dx = pos[:, None, None, 0] - pos[:, 0] + mx * system.lx
            dy = pos[:, None, None, 1] - pos[:, 1] + my * system.ly
            r2 = dx * dx + dy * dy + dz * dz
            hit = r2 <= r_c * r_c
            if mx == my == 0:
                hit[diag, 0, diag] = False
            want.append(params.alpha * np.sqrt(r2[hit]))
    want = np.sort(np.concatenate(want))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-13)

    e_ref, f_ref = real_space_levels_masked(system, table, params, True)
    assert np.array_equal(e, e_ref) and np.array_equal(f, f_ref)
    e_only, _ = _real_space_levels(system, table, params, False)
    assert np.array_equal(e_only, real_space_levels_masked(system, table, params, False)[0])


@settings(max_examples=30, deadline=None)
@given(case=shell_cases())
def test_fourier_shell_sum_matches_the_per_mode_sum(case):
    """Summing each |h| shell's modes into phase sums before the kernel multiplies
    them changes only the rounding: at every level the energies and the forces
    agree within 1e-14 of the term's scale.

    The energy scale of level l is the sum of its summands' magnitudes: the
    same sum with |q|, |gamma| and every phase 1 (all sources at x = y = 0),
    as the kernel is positive.  The force scale weights each of those summands
    by h, which bounds |hx|, |hy| and |G'| / G.  Where the summands cancel
    (sources on one z axis), these, not the level energy or max|F|, bound the
    rounding.
    """
    system, spec, params = case
    table = build_image_table(system, spec, params.M)
    e_shell, f_shell = _fourier_levels(system, table, params, True)
    e_mode, f_mode = fourier_levels_per_mode(system, table, params, True)

    on_axis = ChargeSystem(system.positions * [0.0, 0.0, 1.0], np.abs(system.charges),
                           system.cell)
    abs_table = build_image_table(on_axis, DielectricSpec(abs(spec.gamma_u),
                                                          abs(spec.gamma_d)), params.M)
    e_scale, _ = fourier_levels_per_mode(on_axis, abs_table, params, False)

    def h_weighted(h, z, alpha):
        return tuple(h * t for t in g_alpha_terms(h, z, alpha))

    with mock.patch.object(loop_oracles, "g_alpha_terms", h_weighted):
        f_scale, _ = fourier_levels_per_mode(on_axis, abs_table, params, False)
    assert (np.abs(e_shell - e_mode) <= 1e-14 * e_scale).all()
    assert (np.abs(f_shell - f_mode).max(axis=(1, 2)) <= 1e-14 * f_scale).all()


@pytest.mark.parametrize("ly,alpha,modes,shells", [(10.0, 1.08, 296, 76),
                                                   (3.7, 0.9, 79, 47)],
                         ids=["10x10,k_c=8.64", "10x3.7,k_c=7.2"])
def test_fourier_evaluates_the_kernel_once_per_shell(ly, alpha, modes, shells):
    """One `_fourier_levels` call evaluates the kernel once per distinct |h|, not
    once per half-plane mode, each time on distinct |z| values in ascending
    order."""
    system = ChargeSystem(np.array([[1.3, 2.2, 0.35], [4.1, 0.9, 0.72]]),
                          np.array([1.0, -1.0]), (10.0, ly, 1.0))
    params = EwaldParams(alpha=alpha, s=4.0, L_z=2.0, M=4)
    assert len(_half_plane_hvectors(10.0, ly, params.k_c)) == modes
    table = build_image_table(system, DielectricSpec(0.6, -0.5), params.M)
    with mock.patch.object(ewald2d, "g_alpha_terms", wraps=g_alpha_terms) as kernel:
        _fourier_levels(system, table, params, True)
    hs = [call.args[0] for call in kernel.call_args_list]
    assert len(hs) == shells and len(set(hs)) == shells
    for call in kernel.call_args_list:  # once per distinct |z|, ascending
        z = call.args[1]
        assert (z >= 0).all() and (np.diff(z) > 0).all()


def test_spectral_oracle_fails_fast_near_a_wall():
    """A source 1e-6 below a reflecting wall needs about 1e7 mode shells, past
    the 20 000-shell limit; the oracle raises before it sums any."""
    system = ChargeSystem(np.array([[1.0, 1.0, 1.0 - 1e-6], [2.0, 3.0, 0.4]]),
                          np.array([1.0, -1.0]), (4.0, 4.0, 1.0))
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"needs about 1\.03e\+07 shells"):
        spectral_image_energy(system, DielectricSpec(0.5, 0.0), M_large=4)
    assert time.perf_counter() - start < 1.0


def test_level_sweep_prefix_property(small_system):
    """Truncating the image series at m must equal a fresh solve with M = m."""
    spec = DielectricSpec(0.7, -0.5)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=6)
    sweep = icm_level_sweep(small_system, spec, params)
    for m in (0, 1, 3, 6):
        res = energy_icm(small_system, spec,
                         EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=m))
        assert sweep.energies[m] == pytest.approx(res.energy, rel=1e-14)
        np.testing.assert_allclose(sweep.forces[m], res.forces,
                                   rtol=1e-12, atol=1e-14)


def test_level_sweep_flat_on_pruned_levels(small_system):
    # one-sided wall: every level beyond the first adds exactly nothing
    spec = DielectricSpec(0.0, 0.6)
    sweep = icm_level_sweep(small_system, spec,
                            EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=5),
                            compute_forces=False)
    np.testing.assert_array_equal(sweep.energies[1:], sweep.energies[1])


def test_self_term_breakdown(small_system):
    params = EwaldParams(alpha=0.9, s=6.0, L_z=2.0, M=4)
    sweep = icm_level_sweep(small_system, DielectricSpec(0.5, 0.5), params,
                            compute_forces=False)
    expect = -params.alpha / math.sqrt(math.pi) * np.sum(
        small_system.charges ** 2)
    np.testing.assert_allclose(sweep.term_energies["self"],
                               np.full(5, expect), rtol=1e-15)


def test_homogeneous_reduction_identity(small_system):
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=8)
    a = energy_icm(small_system, DielectricSpec(0.0, 0.0), params)
    b = energy_homogeneous(small_system, params)
    assert a.energy == b.energy
    np.testing.assert_array_equal(a.forces, b.forces)


def test_homogeneous_net_force_zero(small_system):
    res = energy_homogeneous(small_system,
                             EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=0))
    net = np.abs(res.forces.sum(axis=0)).max()
    assert net < 1e-12 * np.abs(res.forces).max()


def test_exchange_symmetry(small_system):
    """Permuting particles permutes energies/forces and changes nothing else."""
    spec = DielectricSpec(0.4, 0.9)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=10)
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted = ChargeSystem(small_system.positions[perm],
                            small_system.charges[perm], small_system.cell)
    a = energy_icm(small_system, spec, params)
    b = energy_icm(permuted, spec, params)
    assert b.energy == pytest.approx(a.energy, rel=1e-14)
    np.testing.assert_allclose(b.forces, a.forces[perm], rtol=1e-11,
                               atol=1e-13 * np.abs(a.forces).max())


def test_xy_translation_invariance(small_system):
    spec = DielectricSpec(0.4, 0.9)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=10)
    shifted_pos = small_system.positions + np.array([2.345, -1.1, 0.0])
    shifted = ChargeSystem(shifted_pos, small_system.charges, small_system.cell)
    a = energy_icm(small_system, spec, params, compute_forces=False)
    b = energy_icm(shifted, spec, params, compute_forces=False)
    assert b.energy == pytest.approx(a.energy, rel=1e-12)


def test_mirror_symmetry_swaps_walls(small_system):
    """Reflecting the slab through its midplane swaps the two wall factors."""
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=12)
    pos = small_system.positions.copy()
    pos[:, 2] = small_system.height - pos[:, 2]
    mirrored = ChargeSystem(pos, small_system.charges, small_system.cell)
    a = energy_icm(small_system, DielectricSpec(0.7, -0.3), params,
                   compute_forces=False)
    b = energy_icm(mirrored, DielectricSpec(-0.3, 0.7), params,
                   compute_forces=False)
    assert b.energy == pytest.approx(a.energy, rel=1e-13)


def test_forces_match_finite_differences(small_system):
    spec = DielectricSpec(0.6, -0.8)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=12)
    assert forces_fd_check(small_system, spec, params, step=1e-5) < 1e-6


def test_fd_check_default_path_uses_energies_only(small_system):
    """The energy-only shifted evaluations give the same deviation as full ones."""
    spec = DielectricSpec(0.6, 0.6)
    params = EwaldParams(alpha=1.0, s=6.0, L_z=2.0, M=4)

    def with_forces(sys_):
        res = energy_icm(sys_, spec, params)
        return res.energy, res.forces

    assert forces_fd_check(small_system, spec, params, step=1e-5) == \
        forces_fd_check(small_system, spec, params, step=1e-5, energy_fn=with_forces)
