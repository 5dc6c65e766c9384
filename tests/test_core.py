"""Domain types, the reflected image series, and system file I/O."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slabwald.core import (MIN_SEPARATION, ChargeSystem, DielectricSpec, DomainError,
                           EnergyForces, EwaldParams, check_solvable, image_levels,
                           image_position, image_scales, image_series,
                           image_z_offsets, lattice_levels, lattice_period, read_system,
                           reflection_factors, validate, write_system, z_replica_reach)
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
    l - 1, and vice versa.  A scale below the smallest normal float is flushed
    to 0, as `core.image_scales` does: the chain rounds such a scale
    differently.
    """
    plus = [(z, 1.0)]
    minus = [(z, 1.0)]
    for _ in range(m):
        z_m, s_m = minus[-1]
        z_p, s_p = plus[-1]
        plus.append((2 * h - z_m, gamma_u * s_m))
        minus.append((-z_p, gamma_d * s_p))

    def flush(chain):
        return [(zz, g if abs(g) >= sys.float_info.min else 0.0) for zz, g in chain[1:]]

    return flush(plus), flush(minus)


@settings(max_examples=50, deadline=None)
@example(z=0.25, gu=0.75, gd=2.5e-162, m=5)  # level 5 plus: 0 as powers, 5e-324 as a chain
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
    """Each table block is one (level, side) group of image_series, bit for bit.

    Block 0 is the sources themselves; the image blocks follow in level order,
    plus before minus, each listing every source in index order.
    """
    system = ChargeSystem(np.array([[0.5, 0.5, 0.3 * h], [1.5, 0.5, 0.9 * h]]),
                          np.array([1.0, -1.0]), (4.0, 4.0, h))
    spec = DielectricSpec(gu, gd)
    table = build_image_table(system, spec, m)
    groups: dict = {}
    for img in image_series(system, spec, m):
        groups.setdefault((img.level, img.side), []).append(img)
    keys = sorted(groups, key=lambda key: (key[0], key[1] != "plus"))
    assert table.n_levels == m + 1
    assert table.level.tolist() == [0] + [level for level, _ in keys]
    assert table.z.shape == (1 + len(keys), system.n)
    assert table.z[0].tolist() == system.positions[:, 2].tolist()
    assert (table.weight[0], table.parity[0]) == (1.0, 1.0)
    for k, key in enumerate(keys, start=1):
        imgs = groups[key]
        assert [i.source for i in imgs] == list(range(system.n))
        assert {(i.scale, i.parity) for i in imgs} == {(table.weight[k], table.parity[k])}
        assert table.z[k].tolist() == [image_position(i, system)[2] for i in imgs]
    scale, offset = image_levels(spec, m, h)
    assert scale.shape == offset.shape == (m + 1, 2)
    assert all(tuple(scale[l]) == image_scales(spec, l)
               and tuple(offset[l]) == image_z_offsets(l, h) for l in range(1, m + 1))


def test_image_levels_are_shared_and_read_only():
    """The table is built once per (spec, M, height): every caller gets the same
    arrays, so writing to them raises."""
    spec = DielectricSpec(0.6, -0.3)
    scale, offset = image_levels(spec, 5, 1.0)
    assert image_levels(spec, 5, 1.0)[0] is scale
    for arr in (scale, offset):
        with pytest.raises(ValueError, match="read-only"):
            arr[1, 0] = 0.0
    assert scale[1, 0] == 0.6 and offset[1, 0] == 2.0
    assert 0 < image_levels.cache_info().maxsize <= 256


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


def test_ewald_params_m_must_be_an_integer(small_system):
    """A float or string M is refused at construction, not by `range` inside a
    solve; a numpy integer is kept as given and solves like the same int."""
    for bad in (2.0, 2.5, "3"):
        with pytest.raises(DomainError, match="integer"):
            EwaldParams(alpha=1.0, s=3.0, L_z=20.0, M=bad)
    spec = DielectricSpec(0.6, 0.6)
    as_np = EwaldParams(alpha=1.0, s=3.0, L_z=20.0, M=np.int64(3))
    assert type(as_np.M) is np.int64
    e_np = solve(small_system, spec, as_np, compute_forces=False).energy
    e_int = solve(small_system, spec, EwaldParams(alpha=1.0, s=3.0, L_z=20.0, M=3),
                  compute_forces=False).energy
    assert e_np == e_int


@pytest.mark.parametrize("kwargs", [{"method": "ewald"}, {"method": "Lattice"},
                                    {"method": "lattice", "include_yb": False},
                                    {"method": "lattice", "include_elc": False}],
                         ids=["unknown", "case", "lattice-no-yb", "lattice-no-elc"])
def test_ewald_params_method_contract(kwargs):
    """method is "padded" (the default) or "lattice", and the lattice is the
    full sum: it refuses either correction switched off."""
    assert EwaldParams(alpha=1.0, s=3.0, L_z=20.0, M=3).method == "padded"
    EwaldParams(alpha=1.0, s=3.0, L_z=20.0, M=3, method="lattice")
    with pytest.raises(DomainError, match="method|include_yb"):
        EwaldParams(alpha=1.0, s=3.0, L_z=20.0, M=3, **kwargs)


@pytest.mark.parametrize("gu,gd,period", [(1.0, 1.0, 2.0), (-1.0, -1.0, 2.0),
                                          (1.0, -1.0, 4.0), (-1.0, 1.0, 4.0),
                                          (0.6, 0.6, None), (1.0, 0.0, None),
                                          (-1.0, 0.999, None)])
def test_lattice_holds_one_period_of_the_image_series(gu, gd, period):
    """Every image of the series up to level 40 is one of the lattice table's
    entries plus a multiple of P, and each entry's scale is the sum over the
    images it stands for per period.  Walls without a period have no table."""
    spec, h = DielectricSpec(gu, gd), 0.75
    if period is None:
        assert lattice_period(spec, h) is None
        with pytest.raises(DomainError, match="periodic"):
            lattice_levels(spec, h)
        return
    p = period * h
    assert lattice_period(spec, h) == p
    scale, offset = lattice_levels(spec, h)
    assert not (scale.flags.writeable or offset.flags.writeable)
    # (parity, offset mod P) -> summed scale, over one period of levels
    cell = {}
    for lvl in range(scale.shape[0]):
        for side in (0, 1):
            if scale[lvl, side]:
                key = (lvl % 2, offset[lvl, side] % p)
                cell[key] = cell.get(key, 0.0) + scale[lvl, side]
    assert len(cell) == round(2 * p / (2 * h))  # 2 copies per 2H
    series_scale, series_offset = image_levels(spec, 40, h)
    for lvl in range(1, 41):
        for side in (0, 1):
            key = (lvl % 2, series_offset[lvl, side] % p)
            assert cell[key] == series_scale[lvl, side]


@settings(max_examples=300, deadline=None)
@given(r_c=st.floats(1e-3, 50.0), period=st.floats(1e-2, 10.0), d=st.floats(-30.0, 30.0))
def test_no_pair_beyond_the_z_replica_reach_lies_within_the_cutoff(r_c, period, d):
    """A z separation wrapped as the real-space sum wraps it lies farther than
    r_c in every ring beyond `z_replica_reach`, and some separation lies
    within r_c in the last ring counted."""
    reach = z_replica_reach(r_c, period)
    wrapped = d - period * np.round(d / period)
    for ring in (reach + 1, reach + 2, -reach - 1, -reach - 2):
        assert abs(wrapped + ring * period) > r_c
    if reach:
        assert abs(period / 2 - reach * period) <= r_c


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
