"""Three-step parameter selection: image level M, padded height L_z, splitting.

Given a tolerance, the steps pick (in order) the image-series truncation level,
the padded box height, and the splitting parameters (s, alpha, r_c, k_c), each
by inverting the corresponding closed-form error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .core import DielectricSpec, DomainError, EwaldParams
from .errors import ErrorBudget, splitting_error, total_budget


@dataclass(frozen=True)
class ToleranceRequest:
    epsilon: float
    geometry: tuple[float, float, float]  # (L_x, L_y, H)
    spec: DielectricSpec
    rounding: str = "ceil"  # or "nearest"

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")
        if self.rounding not in ("ceil", "nearest"):
            raise DomainError("rounding must be 'ceil' or 'nearest'")
        if any(g <= 0 for g in self.geometry):
            raise DomainError("geometry lengths must be positive")


def _round_up(value: float, mode: str) -> int:
    if mode == "nearest":
        return int(round(value))
    return int(math.ceil(value - 1e-9))  # absorb float fuzz at exact integers


def select_M(req: ToleranceRequest) -> int:
    """Step 1: image level from a closed-form inversion of the truncation bound.

    No walls -> 0; one wall -> 1 (a single reflection is exact, no multiple
    bounces exist); otherwise, with r = log|gamma_u gamma_d| - 4 pi H / max,
    M = (2 log eps - 4 pi H / max - log|gamma_u gamma_d|) / r, rounded per
    req.rounding.  This is not the smallest M whose
    `errors.image_truncation_energy` is <= epsilon: that estimate falls only
    at odd M, so the M returned is often larger and sometimes one level short
    (gamma = 0.1, H = 1, 10 x 10, eps = 1e-8 gives M = 6, estimate 2.3e-8).
    """
    gu, gd = req.spec.gamma_u, req.spec.gamma_d
    if gu == 0.0 and gd == 0.0:
        return 0
    if gu == 0.0 or gd == 0.0:
        return 1
    L_x, L_y, H = req.geometry
    rate = math.log(abs(gu * gd)) - 4.0 * math.pi * H / max(L_x, L_y)
    m = (2.0 * math.log(req.epsilon) - 4.0 * math.pi * H / max(L_x, L_y)
         - math.log(abs(gu * gd))) / rate
    return max(_round_up(m, req.rounding), 0)


def contracting_padding(req: ToleranceRequest) -> bool:
    """Whether extra image levels leave the layer-coupling error bounded.

    Branch on |gamma_u gamma_d| e^{2 pi H / max} < 1.  This is not the test
    g_u g_d < 1 of `errors.classify_regime`: g_u g_d = |gamma_u gamma_d|
    e^{4 pi H / max}, so for gamma = 0.6, H = 1, 10 x 10 this branch pads as
    contracting while `total_budget` reports "amplifying".
    """
    L_x, L_y, H = req.geometry
    gg = abs(req.spec.gamma_u * req.spec.gamma_d)
    return gg * math.exp(2.0 * math.pi * H / max(L_x, L_y)) < 1.0


def select_Lz(req: ToleranceRequest, M: int) -> int:
    """Step 2: padded height controlling the layer-coupling error to epsilon.

    Contracting: L_z = H + (max/2 pi) log(1/eps), independent of M.  Otherwise
    the image stack must fit inside the padding:
    L_z = (M+1)H + (max/2 pi)(log(1/eps) + log|gamma_u gamma_d|).
    Rounded up to integer lengths; reproduces the reference table within +-1.
    """
    L_x, L_y, H = req.geometry
    mx = max(L_x, L_y)
    log_inv_eps = math.log(1.0 / req.epsilon)
    if contracting_padding(req):
        lz = H + mx / (2.0 * math.pi) * log_inv_eps
    else:
        gg = abs(req.spec.gamma_u * req.spec.gamma_d)
        lz = (M + 1) * H + mx / (2.0 * math.pi) * (log_inv_eps + math.log(gg))
    return _round_up(lz, req.rounding)


def default_alpha_policy(req: ToleranceRequest, s: float) -> float:
    """alpha = s / r_c_target with r_c_target = min(L_x, L_y)/4."""
    L_x, L_y, _ = req.geometry
    return s / (min(L_x, L_y) / 4.0)


def select_splitting(req: ToleranceRequest, L_z: float, H: float,
                     alpha_policy: Callable[[ToleranceRequest, float], float] | None = None,
                     continuous_s: bool = False):
    """Step 3: splitting accuracy s and the (alpha, r_c, k_c) triple.

    s is the smallest integer with e^{-s^2}/s^2 <= epsilon (or the continuous
    bisection root when requested); alpha comes from the pluggable cost policy,
    then is raised if needed so the k_z-discretization remainder stays below
    epsilon: alpha >= sqrt(log(1/eps)) / (L_z - H).
    """
    if L_z <= H:
        raise DomainError("L_z must exceed H (no padding: splitting infeasible)")
    eps = req.epsilon
    if continuous_s:
        lo, hi = 1.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if splitting_error(mid) > eps:
                lo = mid
            else:
                hi = mid
        s = hi
    else:
        s = 1
        while splitting_error(s) > eps:
            s += 1
    policy = alpha_policy or default_alpha_policy
    alpha = policy(req, s)
    alpha_min = math.sqrt(math.log(1.0 / eps)) / (L_z - H)
    alpha = max(alpha, alpha_min)
    return s, alpha, s / alpha, 2.0 * s * alpha


@dataclass(frozen=True)
class TuneResult:
    params: EwaldParams
    budget: ErrorBudget
    exceeded: tuple[str, ...] = field(default=())  # budget fields above epsilon


def select_all(req: ToleranceRequest,
               alpha_policy: Callable[[ToleranceRequest, float], float] | None = None,
               continuous_s: bool = False) -> TuneResult:
    """Run all three steps and report the predicted budget.

    Budget fields above epsilon are flagged informationally (magnitudes with
    unit constants routinely exceed a tight tolerance by a bounded constant; the
    achievement criterion is order-of-magnitude).
    """
    L_x, L_y, H = req.geometry
    m = select_M(req)
    lz = select_Lz(req, m)
    s, alpha, _, _ = select_splitting(req, lz, H, alpha_policy=alpha_policy,
                                      continuous_s=continuous_s)
    params = EwaldParams(alpha=alpha, s=s, L_z=float(lz), M=m)
    budget = total_budget(params, req.spec, req.geometry)
    exceeded = tuple(
        name for name in ("splitting", "image_truncation", "elc_base",
                          "elc_image", "trapezoidal")
        if getattr(budget, name) > req.epsilon)
    return TuneResult(params, budget, exceeded)
