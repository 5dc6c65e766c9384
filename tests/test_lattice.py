"""The lattice method: the exact z-periodic image series between ideal walls."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slabwald import ewald3d
from slabwald.core import ChargeSystem, DielectricSpec, DomainError, EwaldParams, check_solvable
from slabwald.ewald2d import energy_icm
from slabwald.ewald3d import fourier3d_energy, solve, solve_levels
from slabwald.harness import default_alpha, gen_system, reference_level
from slabwald.tuner import ToleranceRequest, select_all

SIGN_PAIRS = [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]
LATTICE = EwaldParams(alpha=5 / 3, s=5.0, L_z=76.0, M=38, method="lattice")


def _reference(system, spec, compute_forces=True):
    """ewald2d at `reference_level`, as the sweeps and the benchmark build it."""
    params = EwaldParams(alpha=default_alpha(6.0, system.cell), s=6.0,
                         L_z=2.0 * system.height,
                         M=reference_level(spec, system.cell))
    return energy_icm(system, spec, params, compute_forces=compute_forces)


def _assert_close(res, ref, tol, alpha):
    """Energies within tol of the larger of |E_ref| and the largest term of the
    breakdown (the self term never cancels); forces, as max |dF_i|, within tol
    of the larger of max |F_ref,i| and that term times alpha."""
    e_scale = max(abs(v) for v in res.breakdown.values())
    assert abs(res.energy - ref.energy) <= tol * max(abs(ref.energy), e_scale)
    df = np.linalg.norm(res.forces - ref.forces, axis=1).max()
    assert df <= tol * max(np.linalg.norm(ref.forces, axis=1).max(), e_scale * alpha)


@st.composite
def ideal_wall_cases(draw):
    """N = 2..6 charges between ideal walls of each sign pair, in a 2..4 wide
    cell with H in [0.8, 1.5]; each at z in (0.05, 0.95)H, or 1e-3 H or
    1e-9 H from a wall, where the own image dominates energy and force."""
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
    spec = DielectricSpec(*draw(st.sampled_from(SIGN_PAIRS)))
    try:
        check_solvable(system, spec)
    except DomainError:  # hypothesis can draw two charges at one point
        assume(False)
    return system, spec


@settings(max_examples=25, deadline=None)
@given(case=ideal_wall_cases(), eps=st.sampled_from([1e-6, 1e-10]))
def test_tuned_lattice_meets_epsilon_and_agrees_with_the_padded_box(case, eps):
    """select_all's lattice matches ewald2d at `reference_level` within 10 eps,
    energies and forces, and so does the padded box at the tuned M, with the
    same s and alpha."""
    system, spec = case
    req = ToleranceRequest(eps, system.cell, spec)
    tuned = select_all(req).params
    assert tuned.method == "lattice"
    lattice = solve(system, spec, tuned)
    padded = solve(system, spec, dataclasses.replace(tuned, method="padded"))
    ref = _reference(system, spec)
    _assert_close(lattice, ref, 10 * eps, tuned.alpha)
    _assert_close(padded, lattice, 10 * eps, tuned.alpha)


@settings(max_examples=25, deadline=None)
@given(case=ideal_wall_cases())
def test_reference_matches_the_exact_lattice(case):
    """The lattice is a second, independent E_infinity at |gamma| = 1: ewald2d at
    `reference_level` matches it at s = 6 within 1e-11, energies and forces.
    This is the reference the truncation-decay and tuner criteria lean on."""
    system, spec = case
    ref = _reference(system, spec)
    params = EwaldParams(alpha=default_alpha(6.0, system.cell), s=6.0, L_z=0.0, M=0,
                         method="lattice")
    _assert_close(solve(system, spec, params), ref, 1e-11, params.alpha)


@pytest.mark.parametrize("gu,gd", SIGN_PAIRS, ids=["++", "--", "+-", "-+"])
def test_lattice_solve_on_the_benchmark_cell(gu, gd):
    """metal_tight's first input (seed 1, N = 39) at its tuned s and alpha: within
    1e-11 of ewald2d for every sign pair; the breakdown has YB and no ELC."""
    system, spec = gen_system(1), DielectricSpec(gu, gd)
    res = solve(system, spec, LATTICE)
    assert set(res.breakdown) == {"real", "fourier3d", "self", "yb"}
    _assert_close(res, _reference(system, spec), 1e-11, LATTICE.alpha)


@pytest.mark.parametrize("gu,gd", [(0.6, 0.6), (1.0, 0.6), (-1.0, 0.0), (0.0, 0.0)],
                         ids=["dielectric", "one-metal", "one-wall", "no-walls"])
def test_lattice_solve_refuses_walls_without_a_period(small_system, gu, gd):
    with pytest.raises(DomainError, match="periodic in z"):
        solve(small_system, DielectricSpec(gu, gd), LATTICE)
    with pytest.raises(DomainError, match="periodic in z"):
        fourier3d_energy(small_system, DielectricSpec(gu, gd), LATTICE)


def test_solve_levels_refuses_a_lattice(small_system):
    """The lattice has no truncation levels: per-level sums are the padded box's."""
    spec = DielectricSpec(-1.0, -1.0)
    with pytest.raises(DomainError, match="padded"):
        solve_levels(small_system, spec, LATTICE)
    sweep = solve_levels(small_system, spec, dataclasses.replace(LATTICE, method="padded"))
    assert sweep.energies.shape == (LATTICE.M + 1,)


@pytest.mark.parametrize("forces", [True, False])
def test_fourier3d_energy_is_the_lattice_reciprocal_sum(small_system, forces):
    """fourier3d_energy of a lattice params is the reciprocal sum and self term
    of the lattice solve, bit for bit, and not the padded box's."""
    spec = DielectricSpec(-1.0, -1.0)
    e, f = fourier3d_energy(small_system, spec, LATTICE, compute_forces=forces)
    res = solve(small_system, spec, LATTICE)
    assert e == res.breakdown["fourier3d"] + res.breakdown["self"]
    padded, _ = fourier3d_energy(small_system, spec,
                                 dataclasses.replace(LATTICE, method="padded"))
    assert e != padded
    if forces:
        assert f.shape == (small_system.n, 3) and np.abs(f).max() > 0
    else:
        np.testing.assert_array_equal(f, 0.0)


def test_lattice_plan_is_small(small_system):
    """The lattice cell's plan holds one period's levels in a box of height 2H,
    the padded box's M + 1 levels in L_z = 76."""
    spec = DielectricSpec(-1.0, -1.0)
    plans = [ewald3d._mode_plan(small_system.cell, spec, p, small_system.n,
                                ewald3d.CHUNK_ELEMENTS).reciprocal
             for p in (LATTICE, dataclasses.replace(LATTICE, method="padded"))]
    assert [(p.L_z, p.sa.shape[0]) for p in plans] == [(2.0, 2), (76.0, 39)]
