"""Domain types, the reflected image series, and system file I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabwald.core import (MIN_SEPARATION, ChargeSystem, DielectricSpec, DomainError,
                           EnergyForces, EwaldParams, check_solvable, image_levels,
                           image_position, image_scales, image_series,
                           image_z_offsets, read_system, reflection_factors,
                           validate, write_system)
from slabwald.ewald2d import build_image_table, energy_icm
from slabwald.ewald3d import solve
from slabwald.harness import gen_system
from slabwald.tuner import ToleranceRequest, select_all


def test_charge_system_basic_properties(pair_system):
    assert pair_system.n == 2
    assert pair_system.lx == 10.0
    assert pair_system.ly == 10.0
    assert pair_system.height == 1.0


def test_charge_system_rejects_bad_shapes():
    with pytest.raises(DomainError):
        ChargeSystem(np.zeros((2, 2)), np.zeros(2), (1, 1, 1))
    with pytest.raises(DomainError):
        ChargeSystem(np.zeros((2, 3)), np.zeros(3), (1, 1, 1))
    with pytest.raises(DomainError):
        ChargeSystem(np.zeros((0, 3)), np.zeros(0), (1, 1, 1))
    with pytest.raises(DomainError):
        ChargeSystem(np.zeros((1, 3)), np.zeros(1), (1, 0, 1))


def test_charge_system_arrays_are_frozen(pair_system):
    with pytest.raises(ValueError):
        pair_system.positions[0, 0] = 5.0
    with pytest.raises(ValueError):
        pair_system.charges[0] = 5.0


def test_dielectric_spec_bounds():
    for bad in (1.5, -1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            DielectricSpec(bad, 0.0)
        with pytest.raises(DomainError):
            DielectricSpec(0.5, bad)
    assert DielectricSpec(0.0, 0.0).polarizable is False
    assert DielectricSpec(0.0, -1.0).polarizable is True


def test_reflection_factors_values():
    # matched permittivities: no reflection
    assert reflection_factors(2.0, 2.0, 2.0) == DielectricSpec(0.0, 0.0)
    # (eps_c - eps_out)/(eps_c + eps_out)
    spec = reflection_factors(3.0, 1.0, 1.0 / 3.0)
    assert spec.gamma_u == pytest.approx(-0.5)
    assert spec.gamma_d == pytest.approx(0.5)
    # ideal metal maps to exactly -1, no rounding
    assert reflection_factors(math.inf, 1.0, math.inf) == DielectricSpec(-1.0, -1.0)
    with pytest.raises(DomainError):
        reflection_factors(1.0, math.inf, 1.0)
    with pytest.raises(DomainError):
        reflection_factors(-1.0, 1.0, 1.0)


def test_image_scales_small_levels():
    spec = DielectricSpec(gamma_u=0.25, gamma_d=-0.5)
    gu, gd = spec.gamma_u, spec.gamma_d
    assert image_scales(spec, 1) == (gu, gd)
    assert image_scales(spec, 2) == (gu * gd, gu * gd)
    assert image_scales(spec, 3) == (gu**2 * gd, gu * gd**2)
    assert image_scales(spec, 4) == (gu**2 * gd**2, gu**2 * gd**2)


def test_image_z_offsets_small_levels():
    h = 0.7
    assert image_z_offsets(1, h) == (2 * h, 0.0)
    assert image_z_offsets(2, h) == (2 * h, -2 * h)
    assert image_z_offsets(3, h) == (4 * h, -2 * h)
    assert image_z_offsets(4, h) == (4 * h, -4 * h)


def _reflection_chain(z, h, gamma_u, gamma_d, m):
    """Oracle: build the two image chains by explicit alternating reflections.

    Reflecting across the upper wall maps z -> 2H - z and multiplies the scale
    by gamma_u; across the lower wall, z -> -z with factor gamma_d.
    The plus chain at level l is the upper reflection of the minus chain at
    l - 1, and vice versa.
    """
    plus = [(z, 1.0)]
    minus = [(z, 1.0)]
    for _ in range(m):
        z_m, s_m = minus[-1]
        z_p, s_p = plus[-1]
        plus.append((2 * h - z_m, gamma_u * s_m))
        minus.append((-z_p, gamma_d * s_p))
    return plus[1:], minus[1:]


@settings(max_examples=50, deadline=None)
@given(z=st.floats(0.05, 0.95),
       gu=st.floats(-1.0, 1.0),
       gd=st.floats(-1.0, 1.0),
       m=st.integers(1, 8))
def test_image_series_matches_reflection_chain(z, gu, gd, m):
    h = 1.0
    system = ChargeSystem(np.array([[0.5, 0.5, z], [0.5, 0.5, 1 - z]]),
                          np.array([1.0, -1.0]), (4.0, 4.0, h))
    spec = DielectricSpec(gu, gd)
    plus, minus = _reflection_chain(z, h, gu, gd, m)
    images = image_series(system, spec, m)
    got = {}
    for img in images:
        if img.source != 0:
            continue
        zpos = image_position(img, system)[2]
        got[(img.level, img.side)] = (zpos, img.scale)
    for lvl in range(1, m + 1):
        z_p, s_p = plus[lvl - 1]
        z_m, s_m = minus[lvl - 1]
        if s_p != 0.0:
            gz, gs = got[(lvl, "plus")]
            assert gz == pytest.approx(z_p, abs=1e-12)
            assert gs == pytest.approx(s_p, rel=1e-12)
        else:
            assert (lvl, "plus") not in got
        if s_m != 0.0:
            gz, gs = got[(lvl, "minus")]
            assert gz == pytest.approx(z_m, abs=1e-12)
            assert gs == pytest.approx(s_m, rel=1e-12)
        else:
            assert (lvl, "minus") not in got


def test_image_series_count_and_pruning(pair_system):
    full = image_series(pair_system, DielectricSpec(0.5, -0.5), 4)
    assert len(full) == 2 * pair_system.n * 4
    one_sided = image_series(pair_system, DielectricSpec(0.0, 0.5), 3)
    # only levels whose scale contains no gamma_u power survive
    assert {(i.level, i.side) for i in one_sided} == {(1, "minus")} | set()
    with pytest.raises(DomainError):
        image_series(pair_system, DielectricSpec(0.5, 0.5), -1)


_gamma = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(gu=_gamma, gd=_gamma, m=st.integers(0, 40), h=st.floats(0.05, 20.0))
def test_image_table_matches_image_series(gu, gd, m, h):
    """The array table lists exactly image_series' images, bit for bit.

    Table order is level, then plus before minus, then source; image_series
    interleaves plus and minus per source, so it is stably sorted first.
    """
    system = ChargeSystem(np.array([[0.5, 0.5, 0.3 * h], [1.5, 0.5, 0.9 * h]]),
                          np.array([1.0, -1.0]), (4.0, 4.0, h))
    spec = DielectricSpec(gu, gd)
    table = build_image_table(system, spec, m)
    want = sorted(image_series(system, spec, m), key=lambda i: (i.level, i.side != "plus"))
    n = system.n
    assert len(table.src) == n + len(want)
    np.testing.assert_array_equal(table.src[:n], np.arange(n))
    np.testing.assert_array_equal(table.z[:n], system.positions[:, 2])
    assert np.all(table.weight[:n] == 1.0) and np.all(table.level[:n] == 0)
    got = list(zip(table.src[n:], table.level[n:], table.weight[n:], table.z[n:],
                   table.parity[n:]))
    assert got == [(i.source, i.level, i.scale, image_position(i, system)[2], i.parity)
                   for i in want]
    levels = [0] * n + [i.level for i in want]
    np.testing.assert_array_equal(table.starts, np.searchsorted(levels, np.arange(m + 2)))
    scale, offset = image_levels(spec, m, h)
    assert scale.shape == offset.shape == (m + 1, 2)
    assert all(tuple(scale[l]) == image_scales(spec, l)
               and tuple(offset[l]) == image_z_offsets(l, h) for l in range(1, m + 1))


def test_image_parity():
    img_odd = image_series(
        ChargeSystem(np.zeros((1, 3)) + 0.5, np.array([0.0]), (1, 1, 1)),
        DielectricSpec(0.5, 0.5), 2)
    parities = {(i.level, i.parity) for i in img_odd}
    assert parities == {(1, -1), (2, 1)}


def test_ewald_params_derived_quantities():
    p = EwaldParams(alpha=0.8, s=4.0, L_z=12.0, M=3)
    assert p.r_c == pytest.approx(5.0)
    assert p.k_c == pytest.approx(6.4)
    with pytest.raises(DomainError):
        EwaldParams(alpha=0.0, s=4.0, L_z=12.0, M=3)
    with pytest.raises(DomainError):
        EwaldParams(alpha=1.0, s=4.0, L_z=12.0, M=-1)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("alpha", "s", "L_z"):
            with pytest.raises(DomainError):
                EwaldParams(**{"alpha": 1.0, "s": 4.0, "L_z": 12.0, "M": 3, name: bad})


def test_energy_forces_breakdown_consistency():
    EnergyForces(3.0, np.zeros((1, 3)), {"a": 1.0, "b": 2.0})
    with pytest.raises(AssertionError):
        EnergyForces(3.0, np.zeros((1, 3)), {"a": 1.0, "b": 2.5})


def test_validate_flags():
    good = ChargeSystem(np.array([[0.1, 0.1, 0.3], [0.2, 0.2, 0.7]]),
                        np.array([1.0, -1.0]), (1, 1, 1))
    assert validate(good) == []

    non_neutral = ChargeSystem(np.array([[0.1, 0.1, 0.3]]),
                               np.array([1.0]), (1, 1, 1))
    assert any(v.invariant == "neutrality" for v in validate(non_neutral))

    outside = ChargeSystem(np.array([[0.1, 0.1, 1.3], [0.2, 0.2, 0.7]]),
                           np.array([1.0, -1.0]), (1, 1, 1))
    assert any(v.invariant == "confinement" for v in validate(outside))

    on_wall = ChargeSystem(np.array([[0.1, 0.1, 0.0], [0.2, 0.2, 0.7]]),
                           np.array([1.0, -1.0]), (1, 1, 1))
    flags = validate(on_wall)
    assert any("warning" in v.invariant for v in flags)
    assert not any(v.invariant == "confinement" for v in flags)


_P1 = gen_system(1).positions[1]

# Inputs outside the solvers' contract, as changes to particle 0 of
# gen_system(1): (position column -> value, charge change, word in the error)
CONTRACT_CASES = {
    "z=0": ({2: 0.0}, 0.0, "on-interface"),
    "z=H": ({2: 1.0}, 0.0, "on-interface"),
    "z=1.5": ({2: 1.5}, 0.0, "confinement"),
    "net-charge+1": ({}, 1.0, "neutrality"),
    "nan-z": ({2: math.nan}, 0.0, "finite"),
    "inf-x": ({0: math.inf}, 0.0, "finite"),
    "nan-q": ({}, math.nan, "finite"),
    # onto particle 1, and onto its replica one cell along x
    "coincident": (dict(enumerate(_P1)), 0.0, "coincident"),
    "coincident+Lx": ({0: _P1[0] + 10.0, 1: _P1[1], 2: _P1[2]}, 0.0, "coincident"),
    # closer to its own image than MIN_SEPARATION
    "z=1e-107": ({2: 1e-107}, 0.0, "on-interface"),
}


def contract_case(case):
    """(positions, charges, cell) of gen_system(1) broken as CONTRACT_CASES says."""
    cols, dq, _ = CONTRACT_CASES[case]
    base = gen_system(1)
    pos, q = base.positions.copy(), base.charges.copy()
    for col, val in cols.items():
        pos[0, col] = val
    q[0] += dq
    return pos, q, base.cell


@pytest.mark.parametrize("solver", [solve, energy_icm], ids=["ewald3d", "ewald2d"])
@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_solvers_reject_inputs_outside_contract(case, solver):
    spec = DielectricSpec(0.6, 0.6)
    params = select_all(ToleranceRequest(1e-4, (10.0, 10.0, 1.0), spec)).params
    with pytest.raises(DomainError, match=CONTRACT_CASES[case][2]):
        solver(ChargeSystem(*contract_case(case)), spec, params)


@pytest.mark.parametrize("solver", [solve, energy_icm], ids=["ewald3d", "ewald2d"])
@pytest.mark.parametrize("dx", [1e-107, 1e-200])
def test_sources_closer_than_min_separation_are_rejected(dx, solver):
    """The real-space force's 1/r^3 overflows at 1e-107; at 1e-200 r^2 is 0 outright."""
    pos = np.array([[dx, 0.0, 0.5], [0.0, 0.0, 0.5], [5.0, 5.0, 0.3], [5.0, 2.0, 0.6]])
    system = ChargeSystem(pos, np.array([1.0, -1.0, 1.0, -1.0]), (10.0, 10.0, 1.0))
    spec = DielectricSpec(0.6, 0.6)
    params = select_all(ToleranceRequest(1e-4, (10.0, 10.0, 1.0), spec)).params
    with pytest.raises(DomainError, match="coincident: particles 0 and 1"):
        solver(system, spec, params)
    pos = pos.copy()
    pos[0, 0] = MIN_SEPARATION
    check_solvable(ChargeSystem(pos, system.charges, system.cell), spec)


def test_sources_sharing_only_xy_or_only_z_are_solvable():
    # 0 and 1 share x, y once wrapped into the cell; 1 and 2, 0 and 3 share z
    pos = np.array([[1.0, 1.0, 0.3], [11.0, 1.0, 0.7], [3.0, 4.0, 0.7], [5.0, 6.0, 0.3]])
    system = ChargeSystem(pos, np.array([1.0, -1.0, 1.0, -1.0]), (10.0, 10.0, 1.0))
    check_solvable(system, DielectricSpec(0.6, 0.6))


@pytest.mark.parametrize("solver", [solve, energy_icm], ids=["ewald3d", "ewald2d"])
@pytest.mark.parametrize("z,spec", [(0.0, DielectricSpec(0.6, 0.0)),
                                    (1.0, DielectricSpec(0.0, 0.6))])
def test_source_on_a_wall_without_its_image_is_finite(z, spec, solver):
    # the level-1 image that would coincide with the source has scale 0
    base = gen_system(1)
    pos = base.positions.copy()
    pos[0, 2] = z
    params = EwaldParams(alpha=1.2, s=3.0, L_z=16.0, M=9)
    res = solver(ChargeSystem(pos, base.charges, base.cell), spec, params)
    assert math.isfinite(res.energy) and np.all(np.isfinite(res.forces))


@pytest.mark.parametrize("solver", [solve, energy_icm], ids=["ewald3d", "ewald2d"])
@pytest.mark.parametrize("gammas,z_near,push", [((0.6, 0.0), 0.95, -1.0),
                                                ((0.0, 0.6), 0.05, 1.0)],
                         ids=["upper", "lower"])
def test_pair_is_pushed_off_the_only_polarizable_wall(gammas, z_near, push, solver):
    # gamma > 0: each charge's own image has its sign and repels it
    spec = DielectricSpec(*gammas)
    params = select_all(ToleranceRequest(1e-8, (10.0, 10.0, 1.0), spec)).params
    fz = {}
    for z in (z_near, 1.0 - z_near):
        pair = ChargeSystem(np.array([[4.85, 5.0, z], [5.15, 5.0, z]]),
                            np.array([1.0, -1.0]), (10.0, 10.0, 1.0))
        fz[z] = solver(pair, spec, params).forces[:, 2]
    assert np.all(push * fz[z_near] > 0.0)
    assert np.abs(fz[1.0 - z_near]).max() < 1e-3 * np.abs(fz[z_near]).min()


def test_charge_system_rejects_non_finite_cell():
    for cell in ((10.0, math.nan, 1.0), (10.0, 10.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            ChargeSystem(np.zeros((1, 3)), np.zeros(1), cell)


def test_system_io_roundtrip(tmp_path, small_system):
    path = tmp_path / "sys.txt"
    write_system(path, small_system)
    back = read_system(path)
    assert back.cell == small_system.cell
    np.testing.assert_array_equal(back.positions, small_system.positions)
    np.testing.assert_array_equal(back.charges, small_system.charges)


def test_read_system_comments_and_errors(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("# a comment\n\ncell 2 2 1\n0.5 0.5 0.4 1.0  # inline\n"
                    "0.6 0.6 0.6 -1.0\n")
    sys_ = read_system(path)
    assert sys_.n == 2 and sys_.cell == (2.0, 2.0, 1.0)

    path.write_text("0.5 0.5 0.4 1.0\n")
    with pytest.raises(DomainError):
        read_system(path)  # missing header
    path.write_text("cell 2 2\n")
    with pytest.raises(DomainError):
        read_system(path)
    path.write_text("cell 2 2 1\n0.5 0.5 0.4\n")
    with pytest.raises(DomainError):
        read_system(path)
