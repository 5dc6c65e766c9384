"""Closed-form error estimators: hand-substituted values and structure."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slabwald.core import DielectricSpec, DomainError, EwaldParams, image_levels
from slabwald.errors import (ELC_FIRST_SHELL_MARGIN, ErrorBudget, classify_regime,
                             elc_cutoff, elc_energy_estimate, elc_truncation_energy,
                             elc_truncation_force, half_levels, image_truncation_energy,
                             image_truncation_force, splitting_error, total_budget)
from slabwald.tuner import ToleranceRequest, select_all


def amplification_factor(M: int, g_u: float, g_d: float) -> float:
    """Exact finite image-sum amplification of the layer-coupling base term.

    (g_u + g_d + 2) sum_{l=0}^{floor((M-1)/2)} (g_u g_d)^l
    + ((-1)^M + 1) (g_u g_d)^{floor(M/2)} - 1; equals 1 at M = 0.
    """
    gg = g_u * g_d
    geo = sum(gg ** l for l in range(0, (M - 1) // 2 + 1)) if M >= 1 else 0.0
    parity = ((-1.0) ** M + 1.0) * gg ** (M // 2)
    return (g_u + g_d + 2.0) * geo + parity - 1.0


def leading_order(M: int, g_u: float, g_d: float, H: float,
                  L_x: float, L_y: float, L_z: float) -> tuple[str, float]:
    """Leading-order layer-coupling error magnitude and its regime label.

    Contracting systems get the M-independent uniform bound
    (g_u + g_d + 2) e^{-2 pi L_z / max}; marginal and amplifying systems use the
    exact finite amplification sum times the base decay e^{-2 pi (L_z-H)/max},
    which removes the regime-boundary discontinuity of the asymptotic shortcuts.
    """
    mx = max(L_x, L_y)
    regime = classify_regime(g_u, g_d)
    if regime == "contracting":
        mag = (g_u + g_d + 2.0) * math.exp(-2.0 * math.pi * L_z / mx)
    else:
        mag = (abs(amplification_factor(M, g_u, g_d))
               * math.exp(-2.0 * math.pi * (L_z - H) / mx))
    return regime, mag


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


def test_elc_estimate_overflow_is_inf_and_absent_images_add_zero():
    """A stack far above a thin padding: e^{2 pi ((l+1)H - L_z)/L} overflows past
    l ~ 1130 and the 0.6^l scales flush to 0 past l ~ 1386.  An overflowing live
    term makes the estimate inf, a flushed one adds exactly 0, and neither warns
    (RuntimeWarnings fail the test run)."""
    req = ToleranceRequest(1e-8, (10.0, 10.0, 1.0), DielectricSpec(0.6, 0.6))
    result = select_all(req, M=1500, L_z=5.0, s=3.0, alpha=1.2,
                        include_yb=False, include_elc=False)
    assert result.budget.elc_image == math.inf and result.budget.total == math.inf
    assert "elc_image" in result.exceeded
    # at L_z = 300 only the flushed levels overflow: the live ones sum as if M = 1386
    live = elc_energy_estimate(1386, 0.6, 0.6, 1.0, 10.0, 10.0, 300.0)
    assert math.isfinite(live)
    assert elc_energy_estimate(1500, 0.6, 0.6, 1.0, 10.0, 10.0, 300.0) == pytest.approx(
        live, rel=1e-12)


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
    geometry = (10.0, 10.0, 1.0)
    b = total_budget(dataclasses.replace(params, include_elc=False), spec, geometry)
    assert b.total == pytest.approx(b.splitting + b.image_truncation + b.elc_base
                                    + b.elc_image + b.trapezoidal, rel=1e-15)
    assert b.splitting == pytest.approx(splitting_error(4.0), rel=1e-15)
    assert b.elc_base + b.elc_image == pytest.approx(
        elc_energy_estimate(9, 0.6, 0.6, 1.0, 10.0, 10.0, 16.0), rel=1e-13)
    assert b.elc_truncation == 0.0
    assert b.g_u == pytest.approx(0.6 * math.exp(2 * math.pi / 10.0))
    assert b.regime == classify_regime(b.g_u, b.g_d)
    # with ELC on, the coupling is removed and ELC's own cut is estimated instead
    on = total_budget(params, spec, geometry)
    scale = image_levels(spec, 9, 1.0)[0]
    h_max = elc_cutoff(splitting_error(4.0), scale, geometry, 16.0)
    assert on.elc_base == on.elc_image == 0.0
    assert on.elc_truncation == elc_truncation_energy(h_max, scale, geometry, 16.0)
    assert 0.0 < on.elc_truncation <= on.splitting
    assert on.total == pytest.approx(b.total - b.elc_base - b.elc_image
                                     + on.elc_truncation, rel=1e-13)
    with pytest.raises(DomainError, match="diverges"):
        total_budget(EwaldParams(alpha=0.72, s=4.0, L_z=10.0, M=9), spec, geometry)


@pytest.mark.parametrize("gu,gd", [(-1.0, -1.0), (1.0, -1.0)], ids=["metal", "mixed"])
def test_total_budget_of_the_lattice_is_the_splitting_error(gu, gd):
    """The lattice sums the whole, exactly periodic series: no image truncation,
    no layer coupling or ELC cut, no trapezoid remainder; the regime is still
    reported."""
    spec, geometry = DielectricSpec(gu, gd), (10.0, 10.0, 1.0)
    padded = EwaldParams(alpha=5 / 3, s=5.0, L_z=76.0, M=38)
    b = total_budget(dataclasses.replace(padded, method="lattice"), spec, geometry)
    assert b.total == b.splitting == splitting_error(5.0)
    assert (b.image_truncation, b.elc_base, b.elc_image, b.elc_truncation,
            b.trapezoidal) == (0.0,) * 5
    ref = total_budget(padded, spec, geometry)
    assert (b.regime, b.g_u, b.g_d) == (ref.regime, ref.g_u, ref.g_d)


def test_elc_truncation_hand_sum():
    """One image above the source: gamma_u = 0.5, gamma_d = 0, M = 1.

    The source (level 0, scale 1) couples to both wall sides at a = L_z - H;
    its level-1 image (scale 0.5) at a = L_z and L_z - 2H.  Each side weighs
    |gamma|/2 (1 + 1/(h_1 a)) e^{-(h - h_1) a}, and a force term carries the
    extra (h + 1/a)/h_1.
    """
    geometry, lz, h = (10.0, 5.0, 1.0), 4.0, 2.0
    scale = image_levels(DielectricSpec(0.5, 0.0), 1, 1.0)[0]
    h_1 = 2 * math.pi / 10.0
    images = [(0.5, 3.0), (0.5, 3.0), (0.25, 4.0), (0.25, 2.0)]
    energy = sum(w * (1 + 1 / (h_1 * a)) * math.exp(-(h - h_1) * a) for w, a in images)
    force = sum(w * (1 + 1 / (h_1 * a)) * (h + 1 / a) / h_1 * math.exp(-(h - h_1) * a)
                for w, a in images)
    assert elc_truncation_energy(h, scale, geometry, lz) == pytest.approx(energy, rel=1e-14)
    assert elc_truncation_force(h, scale, geometry, lz) == pytest.approx(force, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(gu=st.floats(-1.0, 1.0), gd=st.floats(-1.0, 1.0), m=st.integers(0, 40),
       gap=st.floats(1e-3, 50.0), lx=st.floats(0.5, 50.0), aspect=st.floats(0.2, 5.0),
       s=st.floats(0.5, 8.0))
# elongated cells, where plain Newton stepped below h_1 and cycled between two points
@example(gu=0.0625, gd=0.0625, m=17, gap=0.001, lx=6.0, aspect=5.0, s=5.0)
@example(gu=0.0625, gd=0.0625, m=13, gap=1.0, lx=10.0, aspect=5.0, s=5.0)
@example(gu=0.125, gd=0.125, m=6, gap=1.0, lx=13.0, aspect=5.0, s=2.0)
def test_elc_cutoff_inverts_the_force_estimate(gu, gd, m, gap, lx, aspect, s):
    """The cutoff is where the force estimate reaches tol, or the first shell.

    Both estimates fall as the cutoff grows, and the energy's stays below the
    force's; 1e-7 below the cutoff the force estimate is above tol again.
    """
    geometry = (lx, lx * aspect, 1.0)
    lz = (m + 1) + gap
    scale = image_levels(DielectricSpec(gu, gd), m, 1.0)[0]
    tol = splitting_error(s)
    h = elc_cutoff(tol, scale, geometry, lz)
    h_1 = 2 * math.pi / max(geometry[:2])
    force = elc_truncation_force(h, scale, geometry, lz)
    assert h >= ELC_FIRST_SHELL_MARGIN * h_1
    if h > ELC_FIRST_SHELL_MARGIN * h_1:
        assert force == pytest.approx(tol, rel=1e-9)
        assert elc_truncation_force(h * (1 - 1e-7), scale, geometry, lz) > tol
    else:
        assert force <= tol * (1 + 1e-9)
    assert elc_truncation_energy(h, scale, geometry, lz) <= force
    assert elc_truncation_force(2 * h, scale, geometry, lz) < force


def test_error_budget_validation():
    with pytest.raises(DomainError):
        ErrorBudget(-1.0, 0, 0, 0, 0, "contracting", 0.5, 0.5)
    with pytest.raises(DomainError):
        ErrorBudget(0, 0, 0, 0, 0, "chaotic", 0.5, 0.5)
