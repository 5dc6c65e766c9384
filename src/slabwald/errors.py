"""Closed-form a-priori error estimators for each approximation step.

All estimates are magnitudes with unit constants; absolute constants are left
to empirical fitting in the sweep harness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DielectricSpec, DomainError, EwaldParams, elc_offsets, image_levels

REGIME_TOL = 1e-12
# the ELC cutoff is at least this times the first in-plane shell, so rounding keeps it
ELC_FIRST_SHELL_MARGIN = 1.001
# magnitudes an ErrorBudget sums, in report order
BUDGET_TERMS = ("splitting", "image_truncation", "elc_base", "elc_image",
                "elc_truncation", "trapezoidal")


@dataclass(frozen=True)
class ErrorBudget:
    """The estimated error magnitudes (BUDGET_TERMS) plus the amplification regime.

    With ELC off, elc_base and elc_image estimate the layer coupling the
    padding leaves and elc_truncation is 0; with ELC on, the coupling is
    removed, elc_base and elc_image are 0 and elc_truncation estimates the
    ELC mode sum's cut.
    """

    splitting: float
    image_truncation: float
    elc_base: float
    elc_image: float
    trapezoidal: float
    regime: str  # contracting | marginal | amplifying
    g_u: float
    g_d: float
    elc_truncation: float = 0.0

    def __post_init__(self):
        for name in BUDGET_TERMS:
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")
        if self.regime not in ("contracting", "marginal", "amplifying"):
            raise DomainError(f"unknown regime {self.regime!r}")

    @property
    def total(self) -> float:
        return sum(getattr(self, name) for name in BUDGET_TERMS)


def half_levels(M: int) -> int:
    """Number of discarded reflection round trips, floor((M+1)/2)."""
    return (M + 1) // 2


def image_truncation_energy(M: int, gamma_u: float, gamma_d: float,
                            H: float, L_x: float, L_y: float) -> float:
    """Magnitude of the energy error from truncating the image series at level M.

    ~ |gamma_u gamma_d|^n e^{-4 pi H n / max(L_x, L_y)} with n = floor((M+1)/2).
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    gg = abs(gamma_u * gamma_d)
    if gg == 0.0 and M >= 1:
        return 0.0  # one-sided wall: series exact after the first level
    n = half_levels(M)
    return gg ** n * math.exp(-4.0 * math.pi * H * n / max(L_x, L_y))


def image_truncation_force(M: int, gamma_u: float, gamma_d: float,
                           H: float, L_x: float, L_y: float) -> float:
    """Force variant of the truncation bound: extra factor 1/n, n guarded at 1."""
    n = max(half_levels(M), 1)
    return image_truncation_energy(M, gamma_u, gamma_d, H, L_x, L_y) / n


def elc_energy_estimate(M: int, gamma_u: float, gamma_d: float, H: float,
                        L_x: float, L_y: float, L_z: float) -> float:
    """Magnitude of the inter-replica (layer-coupling) term omitted by padding.

    sum_{l=0..M} (|gamma_+^(l)| + |gamma_-^(l)|) e^{-2 pi (L_z - (l+1)H)/max(L_x, L_y)},
    over the image series of `core.image_levels`; level 0, the source itself
    with scales (1, 0), gives the base term e^{-2 pi (L_z - H)/max}.  A level
    whose images do not exist adds exactly 0, and one whose factor overflows
    makes the estimate inf.
    """
    scale, _ = image_levels(DielectricSpec(gamma_u, gamma_d), M, H)
    weight = np.abs(scale).sum(axis=1)
    with np.errstate(over="ignore"):
        decay = np.exp(-2.0 * math.pi * (L_z - np.arange(1, M + 2) * H) / max(L_x, L_y))
        return float(weight @ np.where(weight > 0, decay, 0.0))


def classify_regime(g_u: float, g_d: float) -> str:
    """Amplification regime of the layer-coupling error vs image level count."""
    gg = abs(g_u * g_d)
    if gg > 1.0 + REGIME_TOL:
        return "amplifying"
    if gg < 1.0 - REGIME_TOL:
        return "contracting"
    return "marginal"


def splitting_error(s: float) -> float:
    """Ewald decomposition error magnitude, e^{-s^2}/s^2."""
    if s <= 0:
        raise DomainError("s must be positive")
    return math.exp(-s * s) / (s * s)


def elc_gap(M: int, H: float, L_z: float) -> float:
    """Gap a_min = L_z - (M+1)H between the image stack and its nearest z-replica.

    The inter-replica (ELC) mode series converges only while the stack fits
    inside the padding: raises DomainError unless a_min > 0.
    """
    a_min = L_z - (M + 1) * H
    if a_min <= 0:
        raise DomainError(f"L_z = {L_z:g} <= (M+1)H = {(M + 1) * H:g}: the "
                          "inter-replica correction diverges; raise L_z or lower M")
    return a_min


def _elc_terms(scale: np.ndarray, geometry: tuple[float, float, float], L_z: float):
    """Weights, offsets a and first shell h_1 of the ELC truncation estimates.

    One entry per existing image (nonzero `scale`) and wall side, with a from
    `core.elc_offsets` and weight |gamma|/2 (1 + 1/(h_1 a)), so that the
    energy estimate at h is sum weight e^{-(h - h_1) a}.
    h_1 = 2 pi / max(L_x, L_y).
    """
    L_x, L_y, H = geometry
    M = scale.shape[0] - 1
    elc_gap(M, H, L_z)
    h_1 = 2.0 * math.pi / max(L_x, L_y)
    a = elc_offsets(M, H, L_z)
    w = np.broadcast_to(0.5 * np.abs(scale)[:, :, None], a.shape)
    keep = w > 0
    a = a[keep]
    return w[keep] * (1.0 + 1.0 / (h_1 * a)), a, h_1


def elc_truncation_energy(h_max: float, scale: np.ndarray,
                          geometry: tuple[float, float, float], L_z: float) -> float:
    """Relative energy error of the ELC mode sum cut at |h| <= h_max.

    sum over the images and wall sides of
    |gamma|/2 (1 + 1/(h_1 a)) e^{-(h_max - h_1) a}, with scale the (M+1, 2)
    array of `core.image_levels`, a the image's offset (`core.elc_offsets`)
    and h_1 = 2 pi / max(L_x, L_y) the first in-plane shell.  A shell of modes
    at |h| adds about e^{-h a} per image (the mode term's 1/h cancels the
    shell's growth), so the shells beyond h_max, spaced h_1, add about
    (1 + 1/(h_1 a)) e^{-h_max a} (integral test): counted relative to the first shell's
    e^{-h_1 a}, where the sum starts.  Raises DomainError unless
    L_z > (M+1)H (`elc_gap`).
    """
    w, a, h_1 = _elc_terms(scale, geometry, L_z)
    return float(w @ np.exp(-(h_max - h_1) * a))


def elc_truncation_force(h_max: float, scale: np.ndarray,
                         geometry: tuple[float, float, float], L_z: float) -> float:
    """Relative force error of the ELC mode sum cut at |h| <= h_max.

    `elc_truncation_energy` with the force's extra factor h per mode: the
    shells beyond h_max add about (h_max + 1/a)(1 + 1/(h_1 a)) e^{-h_max a},
    counted relative to the first shell's h_1 e^{-h_1 a}.  So each term is
    the energy's times (h_max + 1/a)/h_1, which is above 1 for h_max >= h_1;
    it falls as h_max grows.
    """
    w, a, h_1 = _elc_terms(scale, geometry, L_z)
    return float((w * (h_max + 1.0 / a) / h_1) @ np.exp(-(h_max - h_1) * a))


def elc_cutoff(tol: float, scale: np.ndarray, geometry: tuple[float, float, float],
               L_z: float) -> float:
    """In-plane cutoff of the ELC mode sum certified at relative accuracy tol.

    The smallest h_max whose `elc_truncation_force`, and so also
    `elc_truncation_energy`, is <= tol (to rounding), and never below the
    first shell (times ELC_FIRST_SHELL_MARGIN).  The estimate falls strictly
    with h, so its root is kept in a bracket lo < h <= hi with the estimate
    above tol at lo and at most tol at hi; hi starts at
    h_1 + ln(sum of its weights / tol) / a_min and doubles its distance from
    h_1 until that holds.  Newton's method on the log of the estimate runs
    inside the bracket, and a step that leaves it bisects instead.  Raises
    DomainError unless L_z > (M+1)H (`elc_gap`).
    """
    w, a, h_1 = _elc_terms(scale, geometry, L_z)
    b = 1.0 / a
    log_c = np.log(w / h_1) + h_1 * a  # the estimate is sum c (h + b) e^{-h a}
    log_tol = math.log(max(tol, sys.float_info.min))

    def excess(h):
        """ln(estimate) - ln(tol) at h, and its derivative."""
        x = log_c + np.log(h + b) - h * a
        top = x.max()
        t = np.exp(x - top)  # the terms, over e^top
        sum_t = t.sum()
        # a term's derivative is -t a h / (h + b)
        return top + math.log(sum_t) - log_tol, -h * float(t @ (a / (h + b))) / sum_t

    if excess(h_1)[0] <= 0.0:
        return ELC_FIRST_SHELL_MARGIN * h_1
    lo, width = h_1, max(math.log(w.sum()) - log_tol, 1.0) / a.min()
    while excess(h_1 + width)[0] > 0.0:
        lo, width = h_1 + width, 2.0 * width
    hi = h = h_1 + width
    for _ in range(200):
        val, slope = excess(h)
        if val > 0.0:
            lo = h
        else:
            hi = h
        step = h - val / slope
        h, prev = (step if lo < step <= hi else 0.5 * (lo + hi)), h
        if abs(h - prev) <= 1e-12 * h:
            break
    return max(h, ELC_FIRST_SHELL_MARGIN * h_1)


def trapezoid_remainder_estimate(params: EwaldParams, H: float) -> float:
    """Magnitude of the continuum-vs-discrete k_z remainder, e^{-alpha^2 a_min^2}.

    a_min = L_z - (M+1)H is the gap between the image stack and its nearest
    z-replica, which the real-space sum leaves out; 1 when there is no gap.
    """
    a_min = max(params.L_z - (params.M + 1) * H, 0.0)
    return math.exp(-((params.alpha * a_min) ** 2))


def total_budget(params: EwaldParams, spec: DielectricSpec,
                 geometry: tuple[float, float, float]) -> ErrorBudget:
    """The error budget of the solve that runs at these parameters.

    A lattice params sums the whole, exactly z-periodic image series in its
    own cell: its budget is the splitting error alone, with no image
    truncation, no layer coupling or ELC cut and no k_z trapezoid remainder.
    In the padded box, with ELC on, the coupling terms elc_base and elc_image
    are 0 and elc_truncation is `elc_truncation_energy` at the solve's cutoff,
    `elc_cutoff` at the split's accuracy `splitting_error(params.s)`; then
    it raises DomainError unless L_z > (M+1)H.  With ELC off, elc_base and
    elc_image split `elc_energy_estimate` into its level-0 term and the rest.
    """
    L_x, L_y, H = geometry
    mx = max(L_x, L_y)
    g_u = spec.gamma_u * math.exp(2.0 * math.pi * H / mx)
    g_d = spec.gamma_d * math.exp(2.0 * math.pi * H / mx)
    regime = classify_regime(g_u, g_d)
    if params.method == "lattice":
        return ErrorBudget(splitting=splitting_error(params.s), image_truncation=0.0,
                           elc_base=0.0, elc_image=0.0, trapezoidal=0.0, regime=regime,
                           g_u=g_u, g_d=g_d)
    base = image = truncation = 0.0
    if params.include_elc:
        scale, _ = image_levels(spec, params.M, H)
        h_max = elc_cutoff(splitting_error(params.s), scale, geometry, params.L_z)
        truncation = elc_truncation_energy(h_max, scale, geometry, params.L_z)
    else:
        base = math.exp(-2.0 * math.pi * (params.L_z - H) / mx)
        image = max(elc_energy_estimate(params.M, spec.gamma_u, spec.gamma_d, H,
                                        L_x, L_y, params.L_z) - base, 0.0)
    return ErrorBudget(
        splitting=splitting_error(params.s),
        image_truncation=image_truncation_energy(
            params.M, spec.gamma_u, spec.gamma_d, H, L_x, L_y),
        elc_base=base,
        elc_image=image,
        trapezoidal=trapezoid_remainder_estimate(params, H),
        regime=regime,
        g_u=g_u,
        g_d=g_d,
        elc_truncation=truncation,
    )
