"""Three-step parameter selection: reference table, monotonicity, edge cases."""

import math

import pytest

from slabwald.core import DielectricSpec, DomainError
from slabwald.errors import splitting_error
from slabwald.tuner import (ToleranceRequest, contracting_padding, select_all,
                            select_Lz, select_M, select_splitting)

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


def test_select_splitting_minimal_integer_s():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    s, alpha, r_c, k_c = select_splitting(req, L_z=30.0, H=1.0)
    assert s == int(s)
    assert splitting_error(s) <= 1e-8 < splitting_error(s - 1)
    assert r_c == pytest.approx(s / alpha)
    assert k_c == pytest.approx(2 * s * alpha)


def test_select_splitting_continuous_hits_tolerance():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    s, _, _, _ = select_splitting(req, L_z=30.0, H=1.0, continuous_s=True)
    assert splitting_error(s) == pytest.approx(1e-8, rel=1e-6)
    # continuous root is never above the integer choice
    s_int, _, _, _ = select_splitting(req, L_z=30.0, H=1.0)
    assert s <= s_int


def test_select_splitting_alpha_floor():
    # thin padding forces alpha above the cost-policy value
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    s, alpha, _, _ = select_splitting(req, L_z=2.0, H=1.0)
    assert alpha >= math.sqrt(math.log(1e8)) / 1.0
    with pytest.raises(DomainError):
        select_splitting(req, L_z=1.0, H=1.0)


def test_custom_alpha_policy_is_used():
    req = ToleranceRequest(1e-8, GEOM, DielectricSpec(0.6, 0.6))
    _, alpha, _, _ = select_splitting(req, L_z=30.0, H=1.0,
                                      alpha_policy=lambda r, s: 7.25)
    assert alpha == 7.25


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
    with pytest.raises(DomainError):
        ToleranceRequest(1e-8, GEOM, DielectricSpec(0.0, 0.0), rounding="floor")


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
