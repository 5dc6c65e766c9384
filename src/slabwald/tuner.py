"""Three-step parameter selection: image level M, padded height L_z, splitting.

Given a tolerance, the steps pick (in order) the image-series truncation level,
the padded box height, and the splitting (s, alpha), each by inverting the
corresponding closed-form error estimate: M and L_z are rounded up, and s is
the smallest integer that meets it.  The method is picked from the walls
before alpha: the exact z-periodic lattice at |gamma_u| = |gamma_d| = 1 with
both corrections on, the padded box otherwise; only the padded box needs
alpha's a_min floor.  `select_all` runs the steps whose
fields the caller does not pin (a non-integer s is a pin), and returns the
`EwaldParams` that `ewald3d.solve` runs, YB/ELC switches and method included,
with that solve's budget.

At fixed s the split is a choice of r_c = s/alpha, and it trades real-space
against reciprocal work.  The real-space distance arrays depend on r_c only
through `core.real_space_reach` (its image-level cap and replica rings): they
are the same for every r_c up to that reach's next step edge, and only the
pairs within r_c, where erfc runs, grow inside the step.  A larger r_c lowers
k_c = 2 s^2 / r_c, and the reciprocal mode count with it (as k_c^3), so the
default policy takes the top of the step that min(L_x, L_y)/4 falls in.
Choosing a different step would need N and calibrated per-term costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .core import (DielectricSpec, DomainError, EwaldParams, lattice_period,
                   real_space_step_edge)
from .errors import BUDGET_TERMS, ErrorBudget, splitting_error, total_budget

# relative gap kept below a real-space step edge; it dwarfs the rounding of s / alpha
STEP_EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class ToleranceRequest:
    epsilon: float
    geometry: tuple[float, float, float]  # (L_x, L_y, H)
    spec: DielectricSpec

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")
        if not all(0 < g < math.inf for g in self.geometry):  # NaN fails too
            raise DomainError("geometry lengths must be positive and finite")


def _round_up(value: float) -> int:
    return int(math.ceil(value - 1e-9))  # absorb float fuzz at exact integers


def select_M(req: ToleranceRequest) -> int:
    """Step 1: image level from a closed-form inversion of the truncation bound.

    No walls -> 0; one wall -> 1 (a single reflection is exact, no multiple
    bounces exist); otherwise, with r = log|gamma_u gamma_d| - 4 pi H / max,
    M = (2 log eps - 4 pi H / max - log|gamma_u gamma_d|) / r, rounded up.
    This is not the smallest M whose `errors.image_truncation_energy` is
    <= epsilon: that estimate falls only at odd M, so the M returned is often
    larger and sometimes one level short (gamma = 0.1, H = 1, 10 x 10,
    eps = 1e-8 gives M = 6, estimate 2.3e-8).
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
    return max(_round_up(m), 0)


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
    return _round_up(lz)


def default_alpha_policy(req: ToleranceRequest, s: float) -> float:
    """alpha = s / r_c, with r_c at the top of the real-space step of min(L_x, L_y)/4.

    r_0 = min(L_x, L_y)/4 picks the step: every cutoff from r_0 up to
    `core.real_space_step_edge` builds the same real-space table and replica
    rings, so the largest of them adds only pairs within r_c and gives the
    fewest reciprocal modes.  r_c stays strictly below the edge (by STEP_EDGE_MARGIN),
    because the level cap and the ring count step up at it; it is never below
    r_0.  For a 10 x 10 cell with H = 1 that is r_c = 3 (1 - 1e-9), the level
    edge, where r_0 = 2.5.
    """
    L_x, L_y, _ = req.geometry
    r_0 = min(L_x, L_y) / 4.0
    edge = real_space_step_edge(r_0, req.geometry)
    return s / max(r_0, edge * (1.0 - STEP_EDGE_MARGIN))


def select_alpha(req: ToleranceRequest, s: float, L_z: float, M: int,
                 alpha_policy: Callable[[ToleranceRequest, float], float] | None = None
                 ) -> float:
    """alpha from the cost policy, raised if needed so the k_z-discretization
    remainder stays below epsilon: alpha >= sqrt(log(1/eps)) / a_min.

    a_min = L_z - (M+1)H (H from req) is the gap between the image stack and its
    nearest z-replica: the real-space sum leaves the replicas out, and drops
    about erfc(alpha a_min) / a_min.  Raises DomainError unless a_min > 0.
    """
    H = req.geometry[2]
    a_min = L_z - (M + 1) * H
    if a_min <= 0:
        raise DomainError(f"L_z = {L_z:g} <= (M+1)H = {(M + 1) * H:g}: no gap between "
                          "the image stack and its replicas (splitting infeasible)")
    alpha = (alpha_policy or default_alpha_policy)(req, s)
    return max(alpha, math.sqrt(math.log(1.0 / req.epsilon)) / a_min)


def _select_s(req: ToleranceRequest) -> int:
    """Step 3: the smallest integer s with e^{-s^2}/s^2 <= epsilon."""
    s = 1
    while splitting_error(s) > req.epsilon:
        s += 1
    return s


def select_method(req: ToleranceRequest, include_yb: bool, include_elc: bool) -> str:
    """The step before alpha: "lattice" iff |gamma_u| = |gamma_d| = 1 and both
    corrections are on.

    There the image series is exactly periodic in z (`core.lattice_period`),
    and one period in a cell of height 2H or 4H replaces M levels in a box of
    height L_z.  Anything else, or either switch off, keeps the padded box.
    """
    ideal = lattice_period(req.spec, req.geometry[2]) is not None
    return "lattice" if ideal and include_yb and include_elc else "padded"


@dataclass(frozen=True)
class TuneResult:
    params: EwaldParams
    budget: ErrorBudget  # `total_budget` of params, switches included
    exceeded: tuple[str, ...] = field(default=())  # budget fields above epsilon


def select_all(req: ToleranceRequest,
               alpha_policy: Callable[[ToleranceRequest, float], float] | None = None,
               *, M: int | None = None, L_z: float | None = None,
               s: float | None = None, alpha: float | None = None,
               include_yb: bool = True, include_elc: bool = True,
               method: str | None = None) -> TuneResult:
    """Tune the parameters that are not pinned, and report the budget of the solve.

    The keyword pins are named after the `EwaldParams` fields.  A pinned value
    is kept as given, and only the remaining steps run, in order: M, L_z(M),
    s (the smallest integer), the method (`select_method`), then alpha
    (`alpha_policy` replaces the default policy).  The padded box raises
    alpha to `select_alpha`'s a_min floor; a lattice takes the policy's
    alpha alone, as its cell has no gap and it reads neither L_z nor M.  A
    lattice keeps the M and L_z of the padded rule, so method="padded"
    returns the padded box with the same M, L_z and s, and the same alpha
    wherever the floor does not bind.  The budget is `total_budget` of the
    returned params, which `ewald3d.solve` runs as they are, switches and
    method included.  Budget fields above epsilon are flagged
    informationally (magnitudes with unit constants routinely exceed a tight
    tolerance by a bounded constant; the achievement criterion is
    order-of-magnitude).
    """
    if M is None:
        M = select_M(req)
    if L_z is None:
        L_z = select_Lz(req, M)
    if s is None:
        s = _select_s(req)
    if method is None:
        method = select_method(req, include_yb, include_elc)
    if alpha is None:
        alpha = ((alpha_policy or default_alpha_policy)(req, s) if method == "lattice"
                 else select_alpha(req, s, L_z, M, alpha_policy))
    params = EwaldParams(alpha=alpha, s=s, L_z=float(L_z), M=M, include_yb=include_yb,
                         include_elc=include_elc, method=method)
    budget = total_budget(params, req.spec, req.geometry)
    exceeded = tuple(name for name in BUDGET_TERMS
                     if getattr(budget, name) > req.epsilon)
    return TuneResult(params, budget, exceeded)
