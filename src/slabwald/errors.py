"""Closed-form a-priori error estimators for each approximation step.

All estimates are unit-prefactor magnitudes (an optional multiplicative
prefactor is exposed); absolute constants are left to empirical fitting in the
sweep harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DielectricSpec, DomainError, EwaldParams, image_scales

REGIME_TOL = 1e-12


@dataclass(frozen=True)
class ErrorBudget:
    """The five estimated error magnitudes plus the amplification regime."""

    splitting: float
    image_truncation: float
    elc_base: float
    elc_image: float
    trapezoidal: float
    regime: str  # contracting | marginal | amplifying
    g_u: float
    g_d: float

    def __post_init__(self):
        for name in ("splitting", "image_truncation", "elc_base", "elc_image",
                     "trapezoidal"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")
        if self.regime not in ("contracting", "marginal", "amplifying"):
            raise DomainError(f"unknown regime {self.regime!r}")

    @property
    def total(self) -> float:
        return (self.splitting + self.image_truncation + self.elc_base
                + self.elc_image + self.trapezoidal)


def half_levels(M: int) -> int:
    """Number of discarded reflection round trips, floor((M+1)/2)."""
    return (M + 1) // 2


def image_truncation_energy(M: int, gamma_u: float, gamma_d: float,
                            H: float, L_x: float, L_y: float,
                            prefactor: float = 1.0) -> float:
    """Magnitude of the energy error from truncating the image series at level M.

    ~ |gamma_u gamma_d|^n e^{-4 pi H n / max(L_x, L_y)} with n = floor((M+1)/2).
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    gg = abs(gamma_u * gamma_d)
    if gg == 0.0 and M >= 1:
        return 0.0  # one-sided wall: series exact after the first level
    n = half_levels(M)
    return prefactor * gg ** n * math.exp(-4.0 * math.pi * H * n / max(L_x, L_y))


def image_truncation_force(M: int, gamma_u: float, gamma_d: float,
                           H: float, L_x: float, L_y: float,
                           prefactor: float = 1.0) -> float:
    """Force variant of the truncation bound: extra factor 1/n, n guarded at 1."""
    n = max(half_levels(M), 1)
    return image_truncation_energy(M, gamma_u, gamma_d, H, L_x, L_y,
                                   prefactor=prefactor) / n


def c_gamma(spec_or_gammas, level: int) -> float:
    """|gamma_+^(l)| + |gamma_-^(l)|, the per-level image amplitude."""
    if isinstance(spec_or_gammas, DielectricSpec):
        spec = spec_or_gammas
    else:
        spec = DielectricSpec(*spec_or_gammas)
    g_plus, g_minus = image_scales(spec, level)
    return abs(g_plus) + abs(g_minus)


def elc_energy_estimate(M: int, gamma_u: float, gamma_d: float, H: float,
                        L_x: float, L_y: float, L_z: float,
                        prefactor: float = 1.0) -> float:
    """Magnitude of the inter-replica (layer-coupling) term omitted by padding.

    e^{-2 pi (L_z - H)/max} + sum_l C_gamma^(l) e^{-2 pi (L_z - (l+1)H)/max}.
    """
    mx = max(L_x, L_y)
    total = math.exp(-2.0 * math.pi * (L_z - H) / mx)
    for l in range(1, M + 1):
        total += (c_gamma((gamma_u, gamma_d), l)
                  * math.exp(-2.0 * math.pi * (L_z - (l + 1) * H) / mx))
    return prefactor * total


def classify_regime(g_u: float, g_d: float) -> str:
    """Amplification regime of the layer-coupling error vs image level count."""
    gg = abs(g_u * g_d)
    if gg > 1.0 + REGIME_TOL:
        return "amplifying"
    if gg < 1.0 - REGIME_TOL:
        return "contracting"
    return "marginal"


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


def splitting_error(s: float) -> float:
    """Ewald decomposition error magnitude, e^{-s^2}/s^2."""
    if s <= 0:
        raise DomainError("s must be positive")
    return math.exp(-s * s) / (s * s)


def trapezoid_remainder_estimate(params: EwaldParams, H: float) -> float:
    """Magnitude of the continuum-vs-discrete k_z remainder, e^{-a^2 (L_z - H)^2}."""
    return math.exp(-((params.alpha * (params.L_z - H)) ** 2))


def total_budget(params: EwaldParams, spec: DielectricSpec,
                 geometry: tuple[float, float, float],
                 prefactor: float = 1.0) -> ErrorBudget:
    """Assemble the full five-term error budget for given parameters."""
    L_x, L_y, H = geometry
    mx = max(L_x, L_y)
    g_u = spec.gamma_u * math.exp(2.0 * math.pi * H / mx)
    g_d = spec.gamma_d * math.exp(2.0 * math.pi * H / mx)
    base = math.exp(-2.0 * math.pi * (params.L_z - H) / mx)
    elc_total = elc_energy_estimate(params.M, spec.gamma_u, spec.gamma_d, H,
                                    L_x, L_y, params.L_z, prefactor=prefactor)
    return ErrorBudget(
        splitting=prefactor * splitting_error(params.s),
        image_truncation=image_truncation_energy(
            params.M, spec.gamma_u, spec.gamma_d, H, L_x, L_y,
            prefactor=prefactor),
        elc_base=prefactor * base,
        elc_image=max(elc_total - prefactor * base, 0.0),
        trapezoidal=trapezoid_remainder_estimate(params, H),
        regime=classify_regime(g_u, g_d),
        g_u=g_u,
        g_d=g_d,
    )
