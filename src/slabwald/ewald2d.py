"""Exact doubly periodic Ewald solver, with and without image charges.

This is the O(N^2) reference: every quantity is summed pairwise, replicas are
iterated explicitly, and results are produced per image level so that
truncation sweeps cost one full evaluation: `icm_level_sweep` returns a
`core.LevelSweep` and `energy_icm` reads level M from it.

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
                   image_scales)

SQRT_PI = math.sqrt(math.pi)
MAX_HVECTOR_GRID = 1 << 22  # (nx, ny) points `_half_plane_hvectors` may allocate, ~40 B each


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


def g_alpha(h, z, alpha):
    """e^{hz} erfc(h/2a + a z) + e^{-hz} erfc(h/2a - a z); even in z."""
    tp, tm = g_alpha_terms(h, z, alpha)
    return tp + tm


def g0_alpha(z, alpha):
    """Zero-mode kernel z erf(a z) + e^{-a^2 z^2}/(a sqrt(pi)); even in z."""
    z = np.asarray(z, dtype=float)
    return z * erf(alpha * z) + np.exp(-((alpha * z) ** 2)) / (alpha * SQRT_PI)


@dataclass(frozen=True)
class ImageTable:
    """Flat arrays describing source charges (level 0) plus all images up to M.

    Entries are ordered by level; `starts[l]` is the first entry of level l and
    `starts[M+1]` == E.  Image z follows z_e = parity * z_source + z_offset.
    """

    src: np.ndarray      # (E,) int
    weight: np.ndarray   # (E,) image scale, 1 for level 0
    z: np.ndarray        # (E,) current z position
    z_offset: np.ndarray # (E,)
    parity: np.ndarray   # (E,) +-1
    level: np.ndarray    # (E,) int
    starts: np.ndarray   # (M+2,) int


def build_image_table(system: ChargeSystem, spec: DielectricSpec, M: int) -> ImageTable:
    n = system.n
    scale, offset = image_levels(spec, M, system.height)
    level, side = np.nonzero(scale)  # existing images, by level then plus/minus
    parity = np.repeat(1.0 - 2.0 * (level % 2), n)
    z_off = np.repeat(offset[level, side], n)
    src = np.tile(np.arange(n), len(level))
    starts = n * np.concatenate([[0], np.cumsum(np.count_nonzero(scale, axis=1))])
    return ImageTable(src, np.repeat(scale[level, side], n),
                      parity * system.positions[src, 2] + z_off, z_off, parity,
                      np.repeat(level, n), starts)


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
    """Per-level energies and forces of a pair sum over (particle i, table entry).

    coeff (N, E) holds the charge products, kernel (N, E) the pair energy
    kernel, and grad, when forces are wanted, the per-axis (N, E) kernel
    gradients with respect to r_i (None for an axis with no force).  Each
    gradient acts on its target particle i and, since the separation depends
    on the source position through the affine image map, on the entry's
    source, with the sign of the image's z-parity along z.
    """
    levels = [slice(a, b) for a, b in zip(table.starts[:-1], table.starts[1:])]
    per_entry = (coeff * kernel).sum(axis=0)
    e_levels = np.array([per_entry[sl].sum() for sl in levels])
    if grad is None:
        return e_levels, None
    f_levels = np.zeros((len(levels), coeff.shape[0], 3))
    for ax, g_ax in enumerate(grad):
        if g_ax is None:
            continue
        g_ax = coeff * g_ax
        for l, sl in enumerate(levels):
            src_sum = g_ax[:, sl].sum(axis=0)
            if ax == 2:
                src_sum *= table.parity[sl]
            f_levels[l, :, ax] -= g_ax[:, sl].sum(axis=1)
            np.add.at(f_levels[l, :, ax], table.src[sl], src_sum)
    return e_levels, f_levels


def _real_space_levels(system, table, params, compute_forces):
    """Per-level real-space energies and forces (short-range erfc sum)."""
    lx, ly = system.lx, system.ly
    alpha, r_c = params.alpha, params.r_c
    n = system.n
    pos = system.positions
    q = system.charges
    qi = q[:, None]
    qe = (table.weight * q[table.src])[None, :]

    dx0 = pos[:, 0:1] - pos[table.src, 0][None, :]
    dy0 = pos[:, 1:2] - pos[table.src, 1][None, :]
    dz = pos[:, 2:3] - table.z[None, :]
    # wrap xy into the primary cell; replicas then cover the cutoff sphere
    dx0 = dx0 - lx * np.round(dx0 / lx)
    dy0 = dy0 - ly * np.round(dy0 / ly)
    mx_max = int(math.ceil((r_c + lx / 2) / lx))
    my_max = int(math.ceil((r_c + ly / 2) / ly))

    self_mask = (table.level[None, :] == 0) & (np.arange(n)[:, None] == table.src[None, :])

    pair_e = np.zeros_like(dz)
    grad = np.zeros((3,) + dz.shape) if compute_forces else None

    for mx in range(-mx_max, mx_max + 1):
        for my in range(-my_max, my_max + 1):
            dx = dx0 + mx * lx
            dy = dy0 + my * ly
            r2 = dx * dx + dy * dy + dz * dz
            mask = r2 <= r_c * r_c
            if mx == 0 and my == 0:
                mask &= ~self_mask
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

    return _level_sums(table, 0.5 * qi * qe, pair_e, grad)


def _fourier_levels(system, table, params, compute_forces):
    """Per-level k!=0 Fourier energies/forces (planewise kernel sum)."""
    lx, ly = system.lx, system.ly
    alpha = params.alpha
    pos = system.positions
    q = system.charges
    # full ordered double sum (i, entry): no 1/2 here, unlike the real-space term
    coeff = q[:, None] * (table.weight * q[table.src])[None, :]
    zd = pos[:, 2:3] - table.z[None, :]
    exy = pos[table.src][:, :2]

    hvecs = _half_plane_hvectors(lx, ly, params.k_c)
    acc_e = np.zeros_like(zd)
    if compute_forces:
        acc = np.zeros((3,) + zd.shape)

    base = 2.0 * math.pi / (2.0 * lx * ly)  # pi/(2 Lx Ly) times half-plane factor 2
    for hx, hy in hvecs:
        h = math.hypot(hx, hy)
        a = hx * pos[:, 0] + hy * pos[:, 1]
        b = hx * exy[:, 0] + hy * exy[:, 1]
        ca, sa = np.cos(a), np.sin(a)
        cb, sb = np.cos(b), np.sin(b)
        cphase = ca[:, None] * cb[None, :] + sa[:, None] * sb[None, :]
        tp, tm = g_alpha_terms(h, zd, alpha)
        g = tp + tm
        pref = base / h
        acc_e += (pref * cphase) * g
        if compute_forces:
            sphase = sa[:, None] * cb[None, :] - ca[:, None] * sb[None, :]
            gm = tp - tm  # dG/dz = h * gm
            s_g = pref * sphase * g
            acc[0] += -hx * s_g
            acc[1] += -hy * s_g
            acc[2] += pref * cphase * (h * gm)

    return _level_sums(table, coeff, acc_e, acc if compute_forces else None)


def _j0_levels(system, table, params, compute_forces):
    """Per-level zero-mode correction (h = 0 term of the Fourier sum)."""
    lx, ly = system.lx, system.ly
    alpha = params.alpha
    q = system.charges
    coeff = -(math.pi / (lx * ly)) * q[:, None] * (table.weight * q[table.src])[None, :]
    zd = system.positions[:, 2:3] - table.z[None, :]

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

    # table blocks are indexed by physical level directly (empty blocks allowed)
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


def spectral_image_energy(system: ChargeSystem, spec: DielectricSpec,
                          M_large: int, params: EwaldParams | None = None,
                          shell_rtol: float = 1e-14) -> float:
    """Independent oracle for the image contribution via planewise plane-wave sums.

    The homogeneous part is the ordinary Ewald2D energy; the image part is the
    lattice Fourier expansion of the reflected-series Green's function, summed
    as scalar geometric-type series per in-plane mode.  Convergence in the mode
    sum is certified adaptively (three consecutive quiet shells), on top of the
    e^{-2hH} < 1e-18 baseline; truncating on the baseline alone under-resolves
    sources close to a wall.
    """
    lx, ly, H = system.cell
    if H <= 0 or (abs(spec.gamma_u * spec.gamma_d) >= 1.0 and H == 0.0):
        raise DomainError("non-convergent configuration")
    if abs(spec.gamma_u * spec.gamma_d) >= 1.0 and M_large < 1:
        raise DomainError("M_large too small")
    if params is None:
        alpha = 6.0 / (min(lx, ly) / 2.0)
        params = EwaldParams(alpha=alpha, s=6.0, L_z=H * 2, M=0)
    homo = energy_homogeneous(system, params, compute_forces=False).energy
    if not spec.polarizable:
        return homo

    q = system.charges
    pos = system.positions
    z = pos[:, 2]
    gp = [image_scales(spec, l) for l in range(0, M_large + 1)]  # gp[l] = (g+, g-)

    h_base = math.log(1e18) / (2.0 * H)
    total = 0.0
    quiet = 0
    shell = 0
    prev_total = 0.0
    while True:
        shell += 1
        # ring of index-space radius `shell`
        pts = []
        for nx in range(-shell, shell + 1):
            for ny in range(-shell, shell + 1):
                if max(abs(nx), abs(ny)) == shell:
                    pts.append((nx, ny))
        contrib = 0.0
        for nx, ny in pts:
            hx = 2 * math.pi * nx / lx
            hy = 2 * math.pi * ny / ly
            h = math.hypot(hx, hy)
            phase = np.exp(1j * (hx * pos[:, 0] + hy * pos[:, 1]))
            a = np.sum(q * phase * np.exp(-h * (H - z)))   # bounded
            b = np.sum(q * phase * np.exp(-h * z))         # bounded
            aa = abs(a) ** 2
            bb = abs(b) ** 2
            ab2 = 2.0 * (a * np.conj(b)).real
            t = math.exp(-2.0 * h * H)
            val = 0.0
            decay = 1.0  # e^{-(l-1) h H} stepped by sqrt(t) per level
            for l in range(1, M_large + 1):
                g_plus, g_minus = gp[l]
                if l % 2 == 1:
                    val += decay * (g_plus * aa + g_minus * bb)
                else:
                    val += decay * g_plus * ab2  # g_plus == g_minus for even l
                decay *= math.exp(-h * H)
            contrib += val / h
        contrib *= math.pi / (lx * ly)
        total += contrib
        h_min_next = 2 * math.pi * shell / max(lx, ly)
        converged_baseline = math.exp(-2 * h_min_next * H) < 1e-18
        if abs(total - prev_total) <= shell_rtol * max(abs(total), abs(homo)):
            quiet += 1
        else:
            quiet = 0
        prev_total = total
        if converged_baseline and quiet >= 3:
            break
        if shell > 20000:
            raise DomainError("mode sum failed to converge")
    return homo + total
