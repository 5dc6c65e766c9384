"""Doubly periodic reference solver: kernels, image sums, and symmetries."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from loop_oracles import half_plane_hvectors_loop
from slabwald.core import ChargeSystem, DielectricSpec, EwaldParams
from slabwald.ewald2d import (_half_plane_hvectors, _real_space_levels,
                              build_image_table, energy_homogeneous, energy_icm,
                              forces_fd_check, g0_alpha, g_alpha, icm_level_sweep,
                              spectral_image_energy)


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
    n = pair_system.n
    assert list(table.starts) == [0, n, 3 * n, 5 * n, 7 * n]
    assert set(table.level[:n]) == {0}
    # odd levels reflect, even levels translate
    assert all(table.parity[table.level % 2 == 1] == -1)
    assert all(table.parity[table.level % 2 == 0] == 1)
    # pruned wall: gamma_u = 0 keeps only the single lower reflection
    one = build_image_table(pair_system, DielectricSpec(0.0, 0.5), 3)
    assert list(one.starts) == [0, n, 2 * n, 2 * n, 2 * n]


def test_real_space_counts_replica_pairs_at_exactly_r_c():
    """Charges L/2 apart in x sit at exactly r_c = L/2 from each other both in
    the primary cell and in one x-replica; every such pair counts."""
    lx = 4.0
    params = EwaldParams(alpha=1.5, s=3.0, L_z=2.0, M=0)
    assert params.r_c == 2.0
    pos = np.array([[1.0, 2.0, 0.5], [3.0, 2.0, 0.5]])
    q = np.array([1.0, -1.0])
    system = ChargeSystem(pos, q, (lx, lx, 1.0))
    e, f = _real_space_levels(system, build_image_table(system, DielectricSpec(0.0, 0.0), 0),
                              params, True)
    want = 0.0
    for i in range(2):
        for j in range(2):
            for mx in range(-3, 4):
                for my in range(-3, 4):
                    r = math.hypot(pos[i, 0] - pos[j, 0] + mx * lx, my * lx)
                    if 0 < r <= params.r_c:
                        want += 0.5 * q[i] * q[j] * math.erfc(params.alpha * r) / r
    assert want == pytest.approx(-math.erfc(3.0), rel=1e-15)  # four ordered pairs
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
