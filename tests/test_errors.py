"""Closed-form error estimators: hand-substituted values and structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabwald.core import DielectricSpec, DomainError, EwaldParams, image_levels
from slabwald.errors import (ErrorBudget, amplification_factor, classify_regime,
                             elc_energy_estimate, half_levels, image_truncation_energy,
                             image_truncation_force, leading_order, splitting_error,
                             total_budget)


def test_half_levels():
    assert [half_levels(m) for m in range(6)] == [0, 1, 1, 2, 2, 3]


def test_image_truncation_energy_hand_values():
    # M = 0: nothing discarded-yet bound, (gg)^0 e^0 = 1
    assert image_truncation_energy(0, 0.5, 0.5, 1.0, 10.0, 10.0) == 1.0
    # M = 1: n = 1 -> gg e^{-4 pi H / max}
    want = 0.25 * math.exp(-4 * math.pi / 10.0)
    assert image_truncation_energy(1, 0.5, 0.5, 1.0, 10.0, 10.0) == pytest.approx(
        want, rel=1e-15)
    # M = 3: n = 2
    assert image_truncation_energy(3, 0.5, 0.5, 1.0, 10.0, 10.0) == pytest.approx(
        0.25 ** 2 * math.exp(-8 * math.pi / 10.0), rel=1e-15)
    # max(L_x, L_y) governs the decay
    assert image_truncation_energy(1, 0.5, 0.5, 1.0, 10.0, 20.0) == pytest.approx(
        0.25 * math.exp(-4 * math.pi / 20.0), rel=1e-15)
    with pytest.raises(DomainError):
        image_truncation_energy(-1, 0.5, 0.5, 1.0, 10.0, 10.0)


def test_one_sided_series_is_exact_beyond_first_level():
    assert image_truncation_energy(1, 0.0, 0.9, 1.0, 10.0, 10.0) == 0.0
    assert image_truncation_force(2, 0.9, 0.0, 1.0, 10.0, 10.0) == 0.0


def test_force_bound_divides_by_half_levels():
    e = image_truncation_energy(5, 0.6, 0.6, 1.0, 10.0, 10.0)
    assert image_truncation_force(5, 0.6, 0.6, 1.0, 10.0, 10.0) == pytest.approx(
        e / 3.0, rel=1e-15)
    # n guard: the force bound at M = 0 equals the energy bound
    assert image_truncation_force(0, 0.6, 0.6, 1.0, 10.0, 10.0) == 1.0


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 40), gu=st.floats(0.05, 1.0), gd=st.floats(0.05, 1.0))
def test_truncation_bounds_monotone_in_M(m, gu, gd):
    args = (gu, gd, 1.0, 10.0, 10.0)
    assert image_truncation_energy(m + 1, *args) <= image_truncation_energy(m, *args)
    assert image_truncation_force(m, *args) <= image_truncation_energy(m, *args)


def test_c_gamma_values():
    """|gamma_+^(l)| + |gamma_-^(l)|, the amplitude the ELC estimate weights level l by."""
    scale, _ = image_levels(DielectricSpec(0.25, -0.5), 3, 1.0)
    np.testing.assert_allclose(np.abs(scale).sum(axis=1),
                               [1.0, 0.75, 0.25, 0.5**2 * 0.25 + 0.5 * 0.25**2],
                               rtol=1e-15)


def test_elc_estimate_hand_sum():
    gu, gd = 0.25, -0.5
    h, lx, ly, lz = 1.0, 10.0, 12.0, 12.0
    # |gamma_+^(l)| + |gamma_-^(l)|: level 0 is the source, then the image pairs
    amplitude = [1.0, 0.75, 0.25, 0.5**2 * 0.25 + 0.5 * 0.25**2]
    want = sum(c * math.exp(-2 * math.pi * (lz - (lvl + 1) * h) / 12.0)
               for lvl, c in enumerate(amplitude))
    assert elc_energy_estimate(3, gu, gd, h, lx, ly, lz) == pytest.approx(want, rel=1e-15)
    assert elc_energy_estimate(0, gu, gd, h, lx, ly, lz) == pytest.approx(
        math.exp(-2 * math.pi * (lz - h) / 12.0), rel=1e-15)
    with pytest.raises(DomainError):
        elc_energy_estimate(-1, gu, gd, h, lx, ly, lz)


def test_elc_estimate_monotone_in_Lz():
    lo = elc_energy_estimate(4, 0.8, 0.8, 1.0, 10.0, 10.0, 20.0)
    hi = elc_energy_estimate(4, 0.8, 0.8, 1.0, 10.0, 10.0, 15.0)
    assert lo < hi


def test_classify_regime():
    assert classify_regime(0.5, 0.5) == "contracting"
    assert classify_regime(2.0, 1.0) == "amplifying"
    assert classify_regime(-2.0, 0.5) == "marginal"  # |g_u g_d| = 1
    assert classify_regime(1.0, 1.0) == "marginal"


def test_amplification_factor_hand_values():
    assert amplification_factor(0, 3.0, 2.0) == 1.0
    # M = 1: (g_u + g_d + 2) - 1
    assert amplification_factor(1, 3.0, 2.0) == pytest.approx(6.0)
    # M = 2: adds the parity term 2 g_u g_d
    assert amplification_factor(2, 3.0, 2.0) == pytest.approx(6.0 + 12.0 - 0.0)
    # amplifying: strictly growing in M
    vals = [amplification_factor(m, 3.0, 2.0) for m in range(8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_leading_order_regimes():
    # contracting: M-independent uniform bound
    r1 = leading_order(2, 0.5, 0.5, 1.0, 10.0, 10.0, 15.0)
    r2 = leading_order(40, 0.5, 0.5, 1.0, 10.0, 10.0, 15.0)
    assert r1[0] == r2[0] == "contracting"
    assert r1[1] == r2[1] == pytest.approx(3.0 * math.exp(-2 * math.pi * 1.5))

    # amplifying: exact finite sum times base decay
    reg, mag = leading_order(3, 2.0, 1.5, 1.0, 10.0, 10.0, 15.0)
    assert reg == "amplifying"
    want = amplification_factor(3, 2.0, 1.5) * math.exp(-2 * math.pi * 1.4)
    assert mag == pytest.approx(want, rel=1e-15)


def test_leading_order_continuous_at_regime_boundary():
    base = dict(M=6, H=1.0, L_x=10.0, L_y=10.0, L_z=15.0)
    lo = leading_order(base["M"], 1.0 - 1e-9, 1.0 - 1e-9, base["H"],
                       base["L_x"], base["L_y"], base["L_z"])[1]
    hi = leading_order(base["M"], 1.0 + 1e-9, 1.0 + 1e-9, base["H"],
                       base["L_x"], base["L_y"], base["L_z"])[1]
    # the uniform contracting bound dominates the finite sum: no blow-up,
    # and the two sides stay within an O(1) factor of each other
    assert 0.1 < lo / hi < 10.0


def test_splitting_error_values():
    assert splitting_error(3.0) == pytest.approx(math.exp(-9.0) / 9.0, rel=1e-15)
    assert splitting_error(4.0) < splitting_error(3.0)
    with pytest.raises(DomainError):
        splitting_error(0.0)


def test_total_budget_assembly():
    params = EwaldParams(alpha=0.72, s=4.0, L_z=16.0, M=9)
    spec = DielectricSpec(0.6, 0.6)
    b = total_budget(params, spec, (10.0, 10.0, 1.0))
    assert b.total == pytest.approx(b.splitting + b.image_truncation + b.elc_base
                                    + b.elc_image + b.trapezoidal, rel=1e-15)
    assert b.splitting == pytest.approx(splitting_error(4.0), rel=1e-15)
    assert b.elc_base + b.elc_image == pytest.approx(
        elc_energy_estimate(9, 0.6, 0.6, 1.0, 10.0, 10.0, 16.0), rel=1e-13)
    assert b.g_u == pytest.approx(0.6 * math.exp(2 * math.pi / 10.0))
    assert b.regime == classify_regime(b.g_u, b.g_d)


def test_error_budget_validation():
    with pytest.raises(DomainError):
        ErrorBudget(-1.0, 0, 0, 0, 0, "contracting", 0.5, 0.5)
    with pytest.raises(DomainError):
        ErrorBudget(0, 0, 0, 0, 0, "chaotic", 0.5, 0.5)
