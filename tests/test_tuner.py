"""Three-step parameter selection: reference table, monotonicity, edge cases."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabwald import ewald3d, tuner
from slabwald.core import (ChargeSystem, DielectricSpec, DomainError, EwaldParams,
                           real_space_reach, real_space_step_edge)
from slabwald.errors import splitting_error, total_budget
from slabwald.ewald2d import build_image_table, energy_icm
from slabwald.harness import default_alpha, gen_system, reference_level
from slabwald.tuner import (ToleranceRequest, contracting_padding, default_alpha_policy,
                            select_all, select_alpha, select_Lz, select_M)

GEOM = (10.0, 10.0, 1.0)

# the six published reference rows: (gamma, eps) -> (s, M, L_z)
REFERENCE_ROWS = {
    (0.6, 1e-4): (3, 9, 15),
    (0.6, 1e-8): (4, 17, 30),
    (0.6, 1e-12): (5, 25, 45),
    (1.0, 1e-4): (3, 16, 32),
    (1.0, 1e-8): (4, 31, 62),
    (1.0, 1e-12): (5, 45, 91),
}


@pytest.mark.parametrize("gamma,eps", sorted(REFERENCE_ROWS))
def test_reference_table_rows(gamma, eps):
    req = ToleranceRequest(eps, GEOM, DielectricSpec(gamma, gamma))
    res = select_all(req)
    s_ref, m_ref, lz_ref = REFERENCE_ROWS[(gamma, eps)]
    assert res.params.s == s_ref
    assert res.params.M == m_ref
    assert abs(res.params.L_z - lz_ref) <= 1


def test_select_M_degenerate_cases():
    assert select_M(ToleranceRequest(1e-8, GEOM, DielectricSpec(0.0, 0.0))) == 0
    # one-sided wall: a single reflection is exact
    assert select_M(ToleranceRequest(1e-12, GEOM, DielectricSpec(0.0, 0.9))) == 1
    assert select_M(ToleranceRequest(1e-12, GEOM, DielectricSpec(-0.9, 0.0))) == 1


def test_select_M_monotone_in_epsilon():
    spec = DielectricSpec(0.8, 0.8)
    ms = [select_M(ToleranceRequest(eps, GEOM, spec))
          for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
    assert ms == sorted(ms)
    assert ms[-1] > ms[0]


def test_contracting_padding_branch():
    # |gamma^2| e^{2 pi H / max} vs 1
    assert contracting_padding(ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6)))
    assert not contracting_padding(
        ToleranceRequest(1e-8, GEOM, DielectricSpec(1.0, 1.0)))


def test_select_Lz_contracting_independent_of_M():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    assert select_Lz(req, 5) == select_Lz(req, 50)


def test_select_Lz_amplifying_grows_with_M():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(1.0, 1.0))
    assert select_Lz(req, 40) > select_Lz(req, 20)


def test_select_all_minimal_integer_s():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    s = select_all(req, L_z=30.0, M=17).params.s
    assert s == int(s)
    assert splitting_error(s) <= 1e-8 < splitting_error(s - 1)


def test_select_all_alpha_floor():
    # thin padding forces alpha above the cost-policy value
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    alpha = select_all(req, L_z=2.0, M=0).params.alpha
    assert alpha >= math.sqrt(math.log(1e8)) / 1.0
    with pytest.raises(DomainError):
        select_all(req, L_z=1.0, M=0)


def test_alpha_floor_measures_from_the_image_stack():
    """The floor is sqrt(ln(1/eps)) / a_min with a_min = L_z - (M+1)H, not L_z - H.

    A padded box that just clears its image stack (M = 20 in L_z = 22) needs
    the same alpha as a slab with a gap of 1 and no images; L_z <= (M+1)H
    leaves no gap and raises.
    """
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    floor = math.sqrt(math.log(1e8))
    assert select_alpha(req, 4, 22.0, 20) == floor
    assert select_all(req, L_z=22.0, M=20).params.alpha == floor
    for lz in (21.0, 15.0):
        with pytest.raises(DomainError, match="no gap"):
            select_alpha(req, 4, lz, 20)
        with pytest.raises(DomainError, match="no gap"):
            select_all(req, L_z=lz, M=20)


def test_alpha_floor_meets_epsilon_in_a_thin_metal_box():
    """Metal walls at eps = 1e-10 with the tuned M = 38 in a user's L_z = 40.

    The image stack reaches (M+1)H = 39, so the z-replicas of the top images
    lie a_min = 1 from the slab: the floor gives alpha = sqrt(ln 1e10) = 4.8,
    where the floor measured from L_z - H gave the policy's 5/3 and an energy
    1.9e-6 off the ewald2d reference.  First input of the metal_tight benchmark
    workload (seed 1), energy only.
    """
    spec = DielectricSpec(-1.0, -1.0)
    req = ToleranceRequest(1e-10, GEOM, spec)
    system = gen_system(1)
    m = select_M(req)
    assert m == 38
    p = select_all(req, L_z=40.0, M=m, method="padded").params
    assert (p.s, p.alpha) == (5, math.sqrt(math.log(1e10)))
    res = ewald3d.solve(system, spec, p, compute_forces=False)
    ref = energy_icm(system, spec,
                     EwaldParams(alpha=default_alpha(6.0, GEOM), s=6.0, L_z=2.0,
                                 M=reference_level(spec, GEOM)), compute_forces=False)
    assert abs(res.energy - ref.energy) <= 10 * req.epsilon * abs(ref.energy)


def test_lattice_alpha_reads_neither_the_pinned_Lz_nor_M():
    """Metal walls at eps = 1e-10: the lattice takes the policy's alpha (5/3), not
    the padded box's floor, whatever L_z and M are pinned.

    Pinned L_z = 40, M = 38 once gave the lattice the floor's alpha = 4.8, and
    L_z = 30, M = 38 (no gap above the image stack) raised.  The padded box
    keeps both the floor and the DomainError.  The solves agree with the
    unpinned lattice bit for bit (seed-1 input of metal_tight, with forces).
    """
    spec = DielectricSpec(-1.0, -1.0)
    req = ToleranceRequest(1e-10, GEOM, spec)
    tuned = select_all(req).params
    assert (tuned.method, tuned.alpha) == ("lattice", default_alpha_policy(req, 5))
    system = gen_system(1)
    ref = ewald3d.solve(system, spec, tuned)
    for lz in (40.0, 30.0):
        p = select_all(req, L_z=lz, M=38).params
        assert p == dataclasses.replace(tuned, L_z=lz)
        res = ewald3d.solve(system, spec, p)
        assert res.energy == ref.energy
        np.testing.assert_array_equal(res.forces, ref.forces)
    padded = select_all(req, L_z=40.0, M=38, method="padded").params
    assert padded.alpha == math.sqrt(math.log(1e10))
    with pytest.raises(DomainError, match="no gap"):
        select_all(req, L_z=30.0, M=38, method="padded")


@pytest.mark.parametrize("gamma,eps", [(0.6, 1e-8), (0.6, 1e-4), (-1.0, 1e-10)],
                         ids=["md_dense", "mc_loose", "metal_tight"])
def test_select_all_budget_describes_the_default_solve(gamma, eps):
    """With ELC on, the padded box's budget reports ELC's cut, not the coupling
    ELC removes.

    On the benchmark's three tuned solve workloads, with the padded box pinned,
    the ELC terms stay below epsilon, and nothing ELC-related is flagged.  The
    default solve is that padded box, except between the metal walls, where
    it is the lattice at the same alpha and s, with the splitting error as
    its whole budget.
    """
    req = ToleranceRequest(eps, GEOM, DielectricSpec(gamma, gamma))
    res = select_all(req, method="padded")
    default = select_all(req)
    if gamma == -1.0:
        assert default.params == dataclasses.replace(res.params, method="lattice")
        assert default.budget.total == default.budget.splitting == res.budget.splitting
        assert default.exceeded == ()
    else:
        assert default == res
    b = res.budget
    assert b.elc_base == b.elc_image == 0.0
    assert 0.0 < b.elc_truncation <= b.splitting <= eps
    assert not {"elc_base", "elc_image", "elc_truncation"} & set(res.exceeded)
    off = total_budget(dataclasses.replace(res.params, include_elc=False), req.spec, GEOM)
    assert off.elc_image > eps  # the coupling the padding alone leaves


def test_select_all_keeps_every_pin_and_runs_no_step():
    """Pinning every field of the tuned params returns the same params and budget,
    without running any tuning step."""
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    tuned = select_all(req)
    p = tuned.params
    steps = ("select_M", "select_Lz", "_select_s", "select_alpha", "select_method")
    with mock.patch.multiple(tuner, **{name: mock.DEFAULT for name in steps}) as called:
        pinned = select_all(req, M=p.M, L_z=p.L_z, s=p.s, alpha=p.alpha,
                            include_yb=p.include_yb, include_elc=p.include_elc,
                            method=p.method)
    assert not any(m.called for m in called.values())
    assert pinned == tuned


def test_select_all_tunes_only_the_unpinned_fields():
    """A pinned alpha leaves the s step to pick s (the CLI once fixed s = 6); a
    pinned M or s feeds the steps after it, in the order M, L_z(M), s, alpha."""
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    assert select_all(req, alpha=1.2).params.s == 4
    assert select_all(req, alpha=1.2).params.alpha == 1.2
    p = select_all(req, M=5).params
    assert (p.M, p.L_z) == (5, select_Lz(req, 5))
    assert p.alpha == select_alpha(req, p.s, p.L_z, 5)
    p = select_all(req, s=3.0, L_z=22.0, M=20).params
    assert (p.s, p.L_z, p.M) == (3.0, 22.0, 20)
    assert p.alpha == math.sqrt(math.log(1e8))  # the a_min floor, a_min = 1


@pytest.mark.parametrize("yb", [True, False])
@pytest.mark.parametrize("elc", [True, False])
def test_select_all_budget_and_solve_follow_the_switches(small_system, yb, elc):
    """The budget is total_budget of the returned params, and the solve at those
    params has a yb and an elc term exactly when they are on."""
    req = ToleranceRequest(1e-4, GEOM, DielectricSpec(0.6, 0.6))
    res = select_all(req, include_yb=yb, include_elc=elc)
    assert (res.params.include_yb, res.params.include_elc) == (yb, elc)
    assert res.budget == total_budget(res.params, req.spec, req.geometry)
    breakdown = ewald3d.solve(small_system, req.spec, res.params).breakdown
    switched = {name for name, on in (("yb", yb), ("elc", elc)) if on}
    assert set(breakdown) == {"real", "fourier3d", "self"} | switched


def test_custom_alpha_policy_is_used():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    tuned = select_all(req, L_z=30.0, M=17, alpha_policy=lambda r, s: 7.25)
    assert tuned.params.alpha == 7.25


def test_tolerance_request_validation():
    with pytest.raises(DomainError):
        ToleranceRequest(0.0, GEOM, DielectricSpec(0.0, 0.0))
    with pytest.raises(DomainError):
        ToleranceRequest(2.0, GEOM, DielectricSpec(0.0, 0.0))
    with pytest.raises(DomainError):
        ToleranceRequest(1e-8, (10.0, -1.0, 1.0), DielectricSpec(0.0, 0.0))
    for bad in (math.nan, math.inf):
        for axis in range(3):
            geometry = list(GEOM)
            geometry[axis] = bad
            with pytest.raises(DomainError):
                ToleranceRequest(1e-8, tuple(geometry), DielectricSpec(0.0, 0.0))


def test_select_all_reports_budget_and_flags():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(1.0, 1.0))
    res = select_all(req)
    assert res.budget.total > 0
    # exceed flags are informational: params are returned regardless
    for name in res.exceeded:
        assert getattr(res.budget, name) > req.epsilon
    assert res.params.L_z > GEOM[2]


def test_select_all_monotone_in_epsilon():
    spec = DielectricSpec(1.0, 1.0)
    prev = None
    for eps in (1e-4, 1e-8, 1e-12):
        res = select_all(ToleranceRequest(eps, GEOM, spec))
        trio = (res.params.s, res.params.M, res.params.L_z)
        if prev is not None:
            assert all(b >= a for a, b in zip(prev, trio))
        prev = trio


@st.composite
def policy_cases(draw):
    """A cell with L_x != L_y, H in [0.1, 6], s in 1..8, and a thin or tall padding.

    A thin padding lies below sqrt(ln(1/eps)) r_0/s, r_0 = min(L_x, L_y)/4, where
    the trapezoid floor exceeds s/r_0 and so every alpha the policy can return.
    """
    lx = draw(st.floats(4.0, 30.0))
    ly = lx * draw(st.sampled_from([0.4, 0.75, 1.3, 2.5]))
    h = draw(st.floats(0.1, 6.0))
    eps = 10.0 ** -draw(st.floats(4.0, 12.0))
    s = draw(st.integers(1, 8))
    thin = draw(st.booleans())
    if thin:
        pad = draw(st.floats(0.01, 0.99)) * math.sqrt(math.log(1.0 / eps)) * min(lx, ly) / (4 * s)
    else:
        pad = draw(st.floats(20.0, 100.0))
    req = ToleranceRequest(eps, (lx, ly, h), DielectricSpec(0.6, -0.4))
    return req, s, h + pad, thin


@settings(max_examples=200, deadline=None)
@given(case=policy_cases())
def test_default_alpha_policy_tops_the_real_space_step(case):
    """The tuned r_c has the real-space reach of min(L)/4, and only fewer k-modes.

    Checked through `core.real_space_reach` and through the level at which
    `ewald3d._terms` builds its real-space table.  A cutoff 1e-8 larger steps
    up: r_c is at the top of the step, not anywhere inside it.  The trapezoid
    floor still wins over the policy when the padding is thin.
    """
    req, s, lz, thin = case
    lx, ly, h = req.geometry
    r_0 = min(lx, ly) / 4.0
    reach = real_space_reach(r_0, req.geometry)
    alpha = default_alpha_policy(req, s)
    params = EwaldParams(alpha=alpha, s=s, L_z=lz, M=reach[0] + 1)
    old = EwaldParams(alpha=s / r_0, s=s, L_z=lz, M=reach[0] + 1)
    assert real_space_reach(params.r_c, req.geometry) == reach
    assert real_space_reach(params.r_c * (1 + 1e-8), req.geometry) != reach
    assert params.k_c <= old.k_c

    system = ChargeSystem(np.array([[0.3 * lx, 0.4 * ly, 0.3 * h],
                                    [0.7 * lx, 0.2 * ly, 0.6 * h]]),
                          np.array([1.0, -1.0]), req.geometry)
    built = []

    def table(system_, spec_, m):
        built.append(m)
        return build_image_table(system_, spec_, m)

    def no_fourier(system_, spec_, params_, compute_forces, levels):
        return (np.zeros(params_.M + 1)[levels],
                np.zeros((params_.M + 1, system_.n, 3))[levels])

    with mock.patch.object(ewald3d, "build_image_table", table), \
            mock.patch.object(ewald3d, "_fourier3d_core", no_fourier):
        for p in (params, old):
            ewald3d.solve(system, req.spec,
                          dataclasses.replace(p, include_yb=False, include_elc=False))
    assert built == [reach[0], reach[0]]

    floor = math.sqrt(math.log(1.0 / req.epsilon)) / (lz - h)
    got = select_alpha(req, s, lz, 0)
    assert got == max(alpha, floor)
    if thin:
        assert got == floor > alpha


def test_real_space_step_edge_is_the_first_cutoff_that_steps_up():
    geometry = (10.0, 12.0, 1.0)
    assert real_space_reach(2.5, geometry) == (3, 0, 0)
    assert real_space_step_edge(2.5, geometry) == 3.0
    assert real_space_reach(np.nextafter(3.0, 0.0), geometry) == (3, 0, 0)
    assert real_space_reach(3.0, geometry) == (4, 0, 0)
    # a tall slab: the replica ring of the shorter side steps up first
    geometry = (10.0, 12.0, 6.0)
    assert real_space_step_edge(2.5, geometry) == 5.0
    assert real_space_reach(5.0, geometry) == (1, 1, 0)
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    assert default_alpha_policy(req, 4) == 4 / (3.0 * (1 - 1e-9))


@pytest.mark.parametrize("eps,method", [(1e-6, "padded"), (1e-10, "padded"),
                                        (1e-6, "lattice"), (1e-10, "lattice")],
                         ids=["1e-06", "1e-10", "lattice-1e-06", "lattice-1e-10"])
def test_select_all_meets_epsilon_between_metal_walls(small_system, eps, method):
    """gamma = -1 gives the tallest padding, where the policy moves alpha most,
    and is where select_all picks the lattice unless the padded box is pinned.

    select_all's solve matches the converged ewald2d reference within 10 eps,
    in energy and in forces (max |dF_i| over max |F_ref,i|), with either method.
    """
    spec = DielectricSpec(-1.0, -1.0)
    pin = {"method": "padded"} if method == "padded" else {}
    tuned = select_all(ToleranceRequest(eps, GEOM, spec), **pin).params
    assert tuned.method == method
    ref = energy_icm(small_system, spec,
                     EwaldParams(alpha=default_alpha(6.0, GEOM), s=6.0, L_z=2.0,
                                 M=reference_level(spec, GEOM)))
    res = ewald3d.solve(small_system, spec, tuned)
    assert abs(res.energy - ref.energy) <= 10 * eps * abs(ref.energy)
    df = np.linalg.norm(res.forces - ref.forces, axis=1).max()
    assert df <= 10 * eps * np.linalg.norm(ref.forces, axis=1).max()
