"""Exact doubly periodic Ewald solver, with and without image charges.

This is the O(N^2) reference: every quantity is summed pairwise over dense
(target i, image block k, source j) arrays, where a block is all N sources
under one level's affine z-map (`ImageTable`), and replicas are iterated
explicitly.  Results are produced per image level so that truncation sweeps
cost one full evaluation: `icm_level_sweep` returns a `core.LevelSweep` and
`energy_icm` reads level M from it.

The Fourier sum runs over shells of equal |h|, not over in-plane modes: the
planewise kernel G(h, z) depends on |h| only, so each shell evaluates it once
and folds its modes into (N, N) phase sums (one shell per distinct
floating-point |h|, so this is the per-mode sum up to rounding).  Each shell
skips the image blocks whose kernel is provably below a floor: both summands
of G(h, z) are at most 2 e^{-h|z|}, so |G| and |G'/h| are at most
3 e^{-h|z|}, and a level-l image lies at least (l-1)H from every target.
Only levels l <= 1 + ln(1e18)/(hH) can add more than 3e-18 of the kernel's
scale, and since the blocks are ordered by level they are a prefix of the
block axis.

All routines are pure functions of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, erfcx

from .core import (ChargeSystem, DielectricSpec, DomainError, EnergyForces,
                   EwaldParams, LevelSweep, check_solvable, image_levels,
                   real_space_reach)

SQRT_PI = math.sqrt(math.pi)
MAX_HVECTOR_GRID = 1 << 22  # (nx, ny) points `_half_plane_hvectors` may allocate, ~40 B each
# ln(1/floor) of the Fourier sum's skipped blocks: a skipped kernel value is below 3e-18,
# under 1/70 of an ulp of the kernel's O(1) scale
LOG_INV_KERNEL_FLOOR = math.log(1e18)


def g_alpha_terms(h, z, alpha):
    """The two summands of the planewise kernel, evaluated overflow-free.

    Returns (tp, tm) with tp = e^{hz} erfc(h/2a + a z), tm = e^{-hz} erfc(h/2a - a z).
    Each is rewritten as e^{-h^2/4a^2 - a^2 z^2} erfcx(|x|) when the erfc argument
    x is positive; for negative x, erfc(x) = 2 - erfc(-x) and the leftover
    exponential e^{+-hz} is then guaranteed decaying.
    """
    h = np.asarray(h, dtype=float)
    z = np.asarray(z, dtype=float)
    xp = h / (2.0 * alpha) + alpha * z
    xm = h / (2.0 * alpha) - alpha * z
    damp = np.exp(-((h / (2.0 * alpha)) ** 2) - (alpha * z) ** 2)
    rp = damp * erfcx(np.abs(xp))
    rm = damp * erfcx(np.abs(xm))
    hz = h * z
    tp = np.where(xp >= 0, rp, 2.0 * np.exp(np.minimum(hz, 0.0)) - rp)
    tm = np.where(xm >= 0, rm, 2.0 * np.exp(np.minimum(-hz, 0.0)) - rm)
    return tp, tm


def g0_alpha(z, alpha):
    """Zero-mode kernel z erf(a z) + e^{-a^2 z^2}/(a sqrt(pi)); even in z."""
    z = np.asarray(z, dtype=float)
    return z * erf(alpha * z) + np.exp(-((alpha * z) ** 2)) / (alpha * SQRT_PI)


@dataclass(frozen=True)
class ImageTable:
    """The sources (block 0) and their images up to level M, one row per image block.

    A block is all N sources under one affine z-map: one (level, side) of
    `core.image_levels` with a non-zero scale, in its order (by level, plus
    before minus).  Block k places source j at z[k, j] = parity[k] z_j + offset.
    A level whose images do not exist has no block.
    """

    level: np.ndarray   # (K,) int
    weight: np.ndarray  # (K,) image scale, 1 for block 0
    parity: np.ndarray  # (K,) +-1
    z: np.ndarray       # (K, N) image z positions
    n_levels: int       # M + 1 output levels


def build_image_table(system: ChargeSystem, spec: DielectricSpec, M: int) -> ImageTable:
    scale, offset = image_levels(spec, M, system.height)
    level, side = np.nonzero(scale)  # existing images, by level then plus/minus
    parity = 1.0 - 2.0 * (level % 2)
    z = parity[:, None] * system.positions[:, 2] + offset[level, side][:, None]
    return ImageTable(level, scale[level, side], parity, z, M + 1)


def self_energy(system: ChargeSystem, alpha: float) -> float:
    """Ewald self-interaction term, -alpha/sqrt(pi) sum_i q_i^2."""
    return -alpha / SQRT_PI * float(np.sum(system.charges ** 2))


def _half_plane_hvectors(lx: float, ly: float, k_c: float) -> np.ndarray:
    """In-plane reciprocal vectors with 0 < |h| <= k_c, one of each +-h pair."""
    nx_max = int(math.floor(k_c * lx / (2 * math.pi)))
    ny_max = int(math.floor(k_c * ly / (2 * math.pi)))
    if (nx_max + 1) * (2 * ny_max + 1) > MAX_HVECTOR_GRID:
        raise DomainError(f"in-plane mode grid of {(nx_max + 1) * (2 * ny_max + 1)} points "
                          f"exceeds {MAX_HVECTOR_GRID}: cutoff |h| <= {k_c:g} is too large")
    nx, ny = np.mgrid[0:nx_max + 1, -ny_max:ny_max + 1]  # nx-major, as in a double loop
    hx = 2 * math.pi * nx / lx
    hy = 2 * math.pi * ny / ly
    h2 = hx * hx + hy * hy
    keep = ((nx > 0) | (ny > 0)) & (0 < h2) & (h2 <= k_c * k_c)
    return np.column_stack([hx[keep], hy[keep]])


def _level_sums(table, coeff, kernel, grad):
    """Per-level energies and forces of a pair sum over (target i, block k, source j).

    coeff (N, K, N) holds the charge products, kernel (N, K, N) the pair
    energy kernel, and grad, when forces are wanted, the per-axis (N, K, N)
    kernel gradients with respect to r_i (None for an axis with no force).
    Each gradient acts on its target i and, since the separation depends on
    the source position through the affine image map, on the source j, with
    the sign of the block's z-parity along z.  Blocks are summed per level by
    one (M+1, K) indicator product; a level with no block is a zero row.
    """
    to_level = (table.level == np.arange(table.n_levels)[:, None]).astype(float)
    e_levels = to_level @ (coeff * kernel).sum(axis=0).sum(axis=1)
    if grad is None:
        return e_levels, None
    f_levels = np.zeros((table.n_levels, coeff.shape[0], 3))
    for ax, g_ax in enumerate(grad):
        if g_ax is None:
            continue
        g_ax = coeff * g_ax
        src_sum = g_ax.sum(axis=0)  # (K, N)
        if ax == 2:
            src_sum *= table.parity[:, None]
        f_levels[:, :, ax] = to_level @ (src_sum - g_ax.sum(axis=2).T)
    return e_levels, f_levels


def _real_space_levels(system, table, params, compute_forces):
    """Per-level real-space energies and forces (short-range erfc sum)."""
    lx, ly = system.lx, system.ly
    alpha, r_c = params.alpha, params.r_c
    pos = system.positions
    q = system.charges
    coeff = 0.5 * q[:, None, None] * (table.weight[:, None] * q)

    # pair arrays are (target i, block k, source j); xy separations depend on (i, j) only
    dx0 = pos[:, None, None, 0] - pos[:, 0]
    dy0 = pos[:, None, None, 1] - pos[:, 1]
    dz = pos[:, None, None, 2] - table.z
    # wrap xy into the primary cell: replica m is then >= |m| L - L/2 away
    dx0 = dx0 - lx * np.round(dx0 / lx)
    dy0 = dy0 - ly * np.round(dy0 / ly)
    _, mx_max, my_max = real_space_reach(r_c, system.cell)
    diag = np.arange(system.n)  # the self pairs: block 0, i == j

    pair_e = np.zeros_like(dz)
    grad = np.zeros((3,) + dz.shape) if compute_forces else None

    for mx in range(-mx_max, mx_max + 1):
        for my in range(-my_max, my_max + 1):
            dx = dx0 + mx * lx
            dy = dy0 + my * ly
            r2 = dx * dx + dy * dy + dz * dz
            mask = r2 <= r_c * r_c
            if mx == 0 and my == 0:
                mask[diag, 0, diag] = False
            if not mask.any():
                continue
            r = np.sqrt(r2, where=mask, out=np.ones_like(r2))
            phi = np.where(mask, erfc(alpha * r) / r, 0.0)
            pair_e += phi
            if compute_forces:
                # d(phi)/dr / r, applied to the separation vector
                safe_r2 = np.where(mask, r2, 1.0)
                dphi_over_r = np.where(
                    mask,
                    -(phi + (2 * alpha / SQRT_PI) * np.exp(-(alpha * r) ** 2)) / safe_r2,
                    0.0)
                grad[0] += dphi_over_r * dx
                grad[1] += dphi_over_r * dy
                grad[2] += dphi_over_r * dz

    return _level_sums(table, coeff, pair_e, grad)


def _add_shell(h, modes, pos, zd, alpha, pref, acc_e, acc):
    """Add one shell of equal |h| to the Fourier accumulators over the blocks of zd.

    modes (m, 2) holds the shell's (hx, hy); zd (N, K', N) the z separations
    and acc_e (N, K', N), acc (3, N, K', N) or None the matching accumulator
    views.  The kernel is evaluated once; the modes enter through the phase
    sums C = sum cos(a_i - a_j) and S = sum (hx, hy) sin(a_i - a_j), with
    a = hx x + hy y, each one small matmul over the shell's cos/sin table.
    """
    a = pos[:, :2] @ modes.T  # (N, m)
    ca, sa = np.cos(a), np.sin(a)
    c = pref * (ca @ ca.T + sa @ sa.T)[:, None]
    tp, tm = g_alpha_terms(h, zd, alpha)
    g = tp + tm
    acc_e += c * g
    if acc is not None:
        for ax in (0, 1):
            s_ax = (sa * modes[:, ax]) @ ca.T  # sum h_ax sin a_i cos a_j
            acc[ax] -= (pref * (s_ax - s_ax.T))[:, None] * g
        acc[2] += c * (h * (tp - tm))  # dG/dz = h (tp - tm)


def _fourier_levels(system, table, params, compute_forces):
    """Per-level k!=0 Fourier energies/forces (planewise kernel sum).

    The modes are grouped into shells by the bitwise value of |h|.  Shell h
    evaluates only the blocks [:, :k_h] at levels <= 1 + ln(1e18)/(hH); the
    kernel of every later block is below 3e-18 (module docstring).
    """
    lx, ly = system.lx, system.ly
    pos = system.positions
    q = system.charges
    # full ordered double sum over (i, k, j): no 1/2 here, unlike the real-space term
    coeff = q[:, None, None] * (table.weight[:, None] * q)
    zd = pos[:, None, None, 2] - table.z

    hvecs = _half_plane_hvectors(lx, ly, params.k_c)
    shells, shell_of = np.unique(np.hypot(hvecs[:, 0], hvecs[:, 1]), return_inverse=True)
    acc_e = np.zeros_like(zd)
    acc = np.zeros((3,) + zd.shape) if compute_forces else None

    base = 2.0 * math.pi / (2.0 * lx * ly)  # pi/(2 Lx Ly) times half-plane factor 2
    for n, h in enumerate(shells):
        # blocks at levels above l_h lie >= (l_h - 1)H away: their kernel is below the floor
        l_h = 1.0 + LOG_INV_KERNEL_FLOOR / (h * system.height)
        k_h = np.searchsorted(table.level, l_h, side="right")
        _add_shell(h, hvecs[shell_of == n], pos, zd[:, :k_h], params.alpha, base / h,
                   acc_e[:, :k_h], None if acc is None else acc[:, :, :k_h])

    return _level_sums(table, coeff, acc_e, acc)


def _j0_levels(system, table, params, compute_forces):
    """Per-level zero-mode correction (h = 0 term of the Fourier sum)."""
    lx, ly = system.lx, system.ly
    alpha = params.alpha
    q = system.charges
    coeff = -(math.pi / (lx * ly)) * q[:, None, None] * (table.weight[:, None] * q)
    zd = system.positions[:, None, None, 2] - table.z

    grad = (None, None, erf(alpha * zd)) if compute_forces else None  # d/dz of g0_alpha
    return _level_sums(table, coeff, g0_alpha(zd, alpha), grad)


def icm_level_sweep(system: ChargeSystem, spec: DielectricSpec,
                    params: EwaldParams, compute_forces: bool = True) -> LevelSweep:
    """Evaluate the image-charge Ewald sum once, reporting every truncation level.

    The returned arrays are cumulative: entry [m] is the full result with the
    image series truncated at level m <= params.M.  Levels with zero image
    scale contribute nothing, so the arrays are flat there.  Raises DomainError
    for an input outside the solvers' contract (`core.check_solvable`).
    """
    check_solvable(system, spec)
    m = params.M
    table = build_image_table(system, spec, m)
    e_real, f_real = _real_space_levels(system, table, params, compute_forces)
    e_four, f_four = _fourier_levels(system, table, params, compute_forces)
    e_j0, f_j0 = _j0_levels(system, table, params, compute_forces)
    self_e = self_energy(system, params.alpha)

    term_e = {"real": e_real, "fourier": e_four, "j0": e_j0,
              "self": np.zeros(m + 1)}
    term_e["self"][0] = self_e
    phys = term_e["real"] + term_e["fourier"] + term_e["j0"] + term_e["self"]
    forces = (np.cumsum(f_real + f_four + f_j0, axis=0) if compute_forces
              else np.zeros((m + 1, system.n, 3)))
    term_cum = {k: np.cumsum(v) for k, v in term_e.items()}
    return LevelSweep(np.cumsum(phys), forces, term_cum)


def energy_icm(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
               compute_forces: bool = True) -> EnergyForces:
    """Image-charge Ewald2D energy and forces, truncated at params.M levels."""
    return icm_level_sweep(system, spec, params, compute_forces).at(params.M)


def energy_homogeneous(system: ChargeSystem, params: EwaldParams,
                       compute_forces: bool = True) -> EnergyForces:
    """Ewald2D energy and forces for matched dielectrics (no images)."""
    no_walls = DielectricSpec(0.0, 0.0)
    return energy_icm(system, no_walls, params, compute_forces=compute_forces)


def forces_fd_check(system: ChargeSystem, spec: DielectricSpec,
                    params: EwaldParams, step: float = 1e-5,
                    energy_fn=None) -> float:
    """Max relative deviation of analytic forces from central finite differences.

    ``energy_fn(system) -> (energy, forces)`` defaults to the image-charge
    Ewald2D solver; pass a different closure to check another solver.  Only
    the energies of the 6N shifted systems are used, so the default solver
    evaluates them without forces.
    """
    if energy_fn is None:
        forces = energy_icm(system, spec, params).forces

        def shifted_energy(sys_):
            return energy_icm(sys_, spec, params, compute_forces=False).energy
    else:
        _, forces = energy_fn(system)

        def shifted_energy(sys_):
            return energy_fn(sys_)[0]
    worst = 0.0
    base = system.positions
    for i in range(system.n):
        fnorm = float(np.linalg.norm(forces[i]))
        for ax in range(3):
            shift = np.zeros_like(base)
            shift[i, ax] = step
            ep = shifted_energy(ChargeSystem(base + shift, system.charges, system.cell))
            em = shifted_energy(ChargeSystem(base - shift, system.charges, system.cell))
            fd = -(ep - em) / (2 * step)
            dev = abs(fd - forces[i, ax]) / max(fnorm, 1e-300)
            worst = max(worst, dev)
    return worst
