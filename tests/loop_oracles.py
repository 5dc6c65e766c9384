"""Loop forms of the in-plane mode list, the padded-box reciprocal sum and ELC,
the ewald2d Fourier sum (per mode, elementwise, and unpruned), ewald2d's
masked real space, and the spectral image-energy oracle.

These are the per-mode Python loops that `ewald2d` and `ewald3d` replaced
with array code (a masked grid, chunked contractions).  They are kept here,
for tests only, as oracles: each walks one in-plane mode (and, for ELC, one
channel) at a time, so the summation is plain to read and independent of the
contraction's chunking and coefficient folding.  Both sums return cumulative
per-level results exactly as the library routines do.  The in-plane modes,
per-level structure factors and ELC channels they use are built here too,
level by level from the scalar image scales and offsets, so the oracles share
nothing with the array code they check but ELC's cutoff: the ELC loop sums
the modes up to `errors.elc_cutoff`, as `ewald3d.elc_correction` does.

`fourier_levels_per_mode` is the loop form of `ewald2d._fourier_levels`:
it evaluates the kernel once per in-plane mode of the loop mode list, on
the same block prefix, instead of once per shell of equal |h|.  It shares
the kernel, the floor and the per-level reduction with the library, but not
the shell grouping or the phase sums.

`fourier_levels_elementwise` is `ewald2d._fourier_levels` with the kernel
evaluated on every (i, k, j) entry of each shell's block prefix
(`add_shell_elementwise`), instead of once per distinct |z| and gathered.
It shares the library's mode list, shell grouping, floor, phase sums
(`ewald2d._add_shell`) and per-level reduction on purpose, so that a
comparison isolates the gathering, which must be exact.
`fourier_levels_unpruned` is the same loop without the block prefix: it
evaluates every (shell, image block) pair, so that a comparison with the
library isolates the skipped blocks.

`real_space_levels_masked` is `ewald2d._real_space_levels` with erfc and
the force factor evaluated on every distance and the entries beyond r_c
masked to zero afterwards, instead of evaluated only within r_c.

`spectral_image_energy` is an independent oracle for ewald2d's image
contribution: the lattice Fourier expansion of the reflected-series Green's
function, summed shell by shell as a scalar series over levels per in-plane
mode, on top of ewald2d's homogeneous energy.  It checks the solvers' input
contract first, and raises `DomainError` before its mode sum when that sum
would need more than MAX_SPECTRAL_SHELLS shells (a source very close to a
reflecting wall).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from slabwald.core import (DomainError, EwaldParams, check_solvable, image_levels,
                           image_scales, image_z_offsets, real_space_reach)
from slabwald.errors import elc_cutoff, splitting_error
from slabwald.ewald2d import (LOG_INV_KERNEL_FLOOR, SQRT_PI, _add_shell, _half_plane_hvectors,
                              _level_sums, energy_homogeneous, g_alpha_terms)

MAX_SPECTRAL_SHELLS = 20000  # mode shells `spectral_image_energy` sums before it gives up


def half_plane_hvectors_loop(lx, ly, k_c):
    """In-plane reciprocal vectors with 0 < |h| <= k_c, one of each +-h pair."""
    nx_max = int(math.floor(k_c * lx / (2 * math.pi)))
    ny_max = int(math.floor(k_c * ly / (2 * math.pi)))
    out = []
    for nx in range(0, nx_max + 1):
        ny_lo = 1 if nx == 0 else -ny_max
        for ny in range(ny_lo, ny_max + 1):
            hx = 2 * math.pi * nx / lx
            hy = 2 * math.pi * ny / ly
            if 0 < hx * hx + hy * hy <= k_c * k_c:
                out.append((hx, hy))
    return np.array(out) if out else np.zeros((0, 2))


def level_structure_factors_loop(spec, M, kz, H):
    """S_A (even levels) and S_B (odd levels) per truncation level, level by level."""
    nz = len(kz)
    levels = M + 1
    sa = np.zeros((levels, nz), dtype=complex)
    sb = np.zeros((levels, nz), dtype=complex)
    sa[0] = 1.0
    for l in range(1, M + 1):
        g_plus, g_minus = image_scales(spec, l)
        c_plus, c_minus = image_z_offsets(l, H)
        if g_plus == 0.0 and g_minus == 0.0:
            continue
        if l % 2 == 0:
            sa[l] = g_plus * np.exp(-1j * kz * c_plus) + g_minus * np.exp(-1j * kz * c_minus)
        else:
            sb[l] = g_plus * np.exp(-1j * kz * c_plus) + g_minus * np.exp(-1j * kz * c_minus)
    return np.cumsum(sa, axis=0), np.cumsum(sb, axis=0)


def elc_channels_loop(spec, M, H, L_z):
    """ELC channels as (level, weight, offset a, side_i, side_j), level by level."""
    ch = [(0, 0.5, L_z - H, "u", "v"), (0, 0.5, L_z - H, "v", "u")]
    for l in range(1, M + 1):
        g_plus, g_minus = image_scales(spec, l)
        a_hi = L_z + (l - 1) * H
        a_lo = L_z - (l + 1) * H
        if l % 2 == 0:
            if g_plus != 0.0:
                ch += [(l, 0.5 * g_plus, a_hi, "u", "v"), (l, 0.5 * g_plus, a_lo, "v", "u")]
            if g_minus != 0.0:
                ch += [(l, 0.5 * g_minus, a_lo, "u", "v"), (l, 0.5 * g_minus, a_hi, "v", "u")]
        else:
            if g_plus != 0.0:
                ch += [(l, 0.5 * g_plus, a_hi, "u", "u"), (l, 0.5 * g_plus, a_lo, "v", "v")]
            if g_minus != 0.0:
                ch += [(l, 0.5 * g_minus, a_lo, "u", "u"), (l, 0.5 * g_minus, a_hi, "v", "v")]
    return ch


def fourier3d_core_loop(system, spec, params, compute_forces):
    """k != 0 reciprocal-space sum, one in-plane block at a time."""
    lx, ly, H = system.cell
    lz = params.L_z
    if lz < H:
        raise DomainError("padded height L_z must be at least the slab height H")
    alpha, k_c = params.alpha, params.k_c
    vol = lx * ly * lz
    pos = system.positions
    q = system.charges
    n = system.n

    nz_max = int(math.floor(k_c * lz / (2 * math.pi)))
    kz = 2 * math.pi * np.arange(-nz_max, nz_max + 1) / lz
    nzed = len(kz)
    center = nz_max
    ez = np.exp(1j * np.outer(kz, pos[:, 2]))  # (NZ, N)

    sa, sb = level_structure_factors_loop(spec, params.M, kz, H)

    p_acc = np.zeros(nzed, dtype=complex)
    q_acc = np.zeros(nzed, dtype=complex)
    if compute_forces:
        acc_a = np.zeros((3, nzed, n), dtype=complex)
        acc_b = np.zeros((3, nzed, n), dtype=complex)

    blocks = np.vstack([[0.0, 0.0], half_plane_hvectors_loop(lx, ly, k_c)])
    inv4a2 = 1.0 / (4.0 * alpha * alpha)
    for hx, hy in blocks:
        hrho2 = hx * hx + hy * hy
        rem = k_c * k_c - hrho2
        if rem < 0:
            continue
        dz = int(math.floor(math.sqrt(rem) * lz / (2 * math.pi)))
        lo, hi = center - dz, center + dz + 1
        kzs = kz[lo:hi]
        k2 = hrho2 + kzs * kzs
        coef = np.exp(-k2 * inv4a2)
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(k2 > 0, coef / np.where(k2 > 0, k2, 1.0), 0.0)
        if hrho2 == 0.0:
            coef = np.where(kzs > 0, coef, 0.0)
        phase = np.exp(1j * (hx * pos[:, 0] + hy * pos[:, 1]))
        e = (q * phase)[None, :] * ez[lo:hi]
        rho = e.sum(axis=1)
        if hrho2 == 0.0:
            lam, etil = rho, e
        else:
            etil = (q * np.conj(phase))[None, :] * ez[lo:hi]
            lam = etil.sum(axis=1)
        p_acc[lo:hi] += coef * (rho * np.conj(rho))
        q_acc[lo:hi] += coef * rho * lam
        if compute_forces:
            ta = (1j * coef)[:, None] * (e * np.conj(rho)[:, None] - np.conj(e) * rho[:, None])
            tb_e = (1j * coef)[:, None] * e * lam[:, None]
            tb_t = (1j * coef)[:, None] * etil * rho[:, None]
            acc_a[0, lo:hi] += hx * ta
            acc_a[1, lo:hi] += hy * ta
            acc_a[2, lo:hi] += kzs[:, None] * ta
            diff = tb_e - tb_t
            acc_b[0, lo:hi] += hx * diff
            acc_b[1, lo:hi] += hy * diff
            acc_b[2, lo:hi] += kzs[:, None] * (tb_e + tb_t)

    pref = 2.0 * math.pi / vol
    energies = 2.0 * pref * np.real(sa @ p_acc + sb @ q_acc)
    forces = None
    if compute_forces:
        levels = sa.shape[0]
        forces = np.zeros((levels, n, 3))
        for ax in range(3):
            forces[:, :, ax] = -2.0 * pref * np.real(sa @ acc_a[ax] + sb @ acc_b[ax])
    return energies, forces


def elc_correction_loop(system, spec, params, compute_forces=True):
    """Inter-replica coupling along z, one mode and one channel at a time."""
    lx, ly, H = system.cell
    L_z = params.L_z
    M = params.M
    pos = system.positions
    q = system.charges
    n = system.n
    channels = elc_channels_loop(spec, M, H, L_z)
    h_max = elc_cutoff(splitting_error(params.s), image_levels(spec, M, H)[0],
                       system.cell, L_z)

    levels = M + 1
    e_lv = np.zeros(levels)
    f_lv = np.zeros((levels, n, 3)) if compute_forces else None
    z = pos[:, 2]
    base = -(2.0 * math.pi / (lx * ly)) * 2.0
    for hx, hy in half_plane_hvectors_loop(lx, ly, h_max):
        h = math.hypot(hx, hy)
        denom = h * (1.0 - math.exp(-h * L_z))
        cc0 = base / denom
        phase = np.exp(1j * (hx * pos[:, 0] + hy * pos[:, 1]))
        g = {"u": q * phase * np.exp(-h * (H - z)), "v": q * phase * np.exp(-h * z)}
        asum = {s: g[s].sum() for s in ("u", "v")}
        sig = {"u": 1.0, "v": -1.0}
        for lvl, w, a, p, qq in channels:
            cc = cc0 * w * math.exp(-h * a)
            cross = asum[p] * np.conj(asum[qq])
            e_lv[lvl] += cc * cross.real
            if compute_forces:
                t_p = g[p] * np.conj(asum[qq])
                t_q = asum[p] * np.conj(g[qq])
                gxy = 1j * (t_p - t_q)
                f_lv[lvl, :, 0] -= cc * hx * gxy.real
                f_lv[lvl, :, 1] -= cc * hy * gxy.real
                f_lv[lvl, :, 2] -= cc * h * (sig[p] * t_p + sig[qq] * t_q).real
    if compute_forces:
        f_lv = np.cumsum(f_lv, axis=0)
    return np.cumsum(e_lv), f_lv


def fourier_levels_per_mode(system, table, params, compute_forces):
    """Per-level k != 0 Fourier energies/forces, one in-plane mode at a time.

    Mode h evaluates the kernel on the block prefix [:, :k_h] at levels
    <= 1 + ln(1e18)/(hH), as `ewald2d._fourier_levels` does per shell.
    """
    lx, ly = system.lx, system.ly
    alpha = params.alpha
    pos = system.positions
    q = system.charges
    coeff = q[:, None, None] * (table.weight[:, None] * q)
    zd = pos[:, None, None, 2] - table.z

    acc_e = np.zeros_like(zd)
    acc = np.zeros((3,) + zd.shape) if compute_forces else None
    base = 2.0 * math.pi / (2.0 * lx * ly)
    for hx, hy in half_plane_hvectors_loop(lx, ly, params.k_c):
        h = math.hypot(hx, hy)
        l_h = 1.0 + LOG_INV_KERNEL_FLOOR / (h * system.height)
        k_h = np.searchsorted(table.level, l_h, side="right")
        a = hx * pos[:, 0] + hy * pos[:, 1]
        ca, sa = np.cos(a), np.sin(a)
        cphase = (ca[:, None] * ca + sa[:, None] * sa)[:, None]  # cos(a_i - a_j), (N, 1, N)
        tp, tm = g_alpha_terms(h, zd[:, :k_h], alpha)
        g = tp + tm
        pref = base / h
        acc_e[:, :k_h] += (pref * cphase) * g
        if compute_forces:
            sphase = (sa[:, None] * ca - ca[:, None] * sa)[:, None]
            s_g = pref * sphase * g
            acc[0, :, :k_h] += -hx * s_g
            acc[1, :, :k_h] += -hy * s_g
            acc[2, :, :k_h] += pref * cphase * (h * (tp - tm))
    return _level_sums(table, coeff, acc_e, acc)


def add_shell_elementwise(h, modes, pos, zd, alpha, pref, acc_e, acc):
    """`ewald2d._add_shell` on the kernel evaluated at every entry of zd (N, K', N)."""
    tp, tm = g_alpha_terms(h, zd, alpha)
    dg = None if acc is None else h * (tp - tm)  # dG/dz
    _add_shell(modes, pos, tp + tm, dg, pref, acc_e, acc)


def fourier_levels_elementwise(system, table, params, compute_forces, pruned=True):
    """Per-level k != 0 Fourier energies/forces, the kernel evaluated per (i, k, j).

    Shell h takes the block prefix [:, :k_h] of `ewald2d._fourier_levels`, or,
    unless pruned, every block.
    """
    lx, ly = system.lx, system.ly
    pos = system.positions
    q = system.charges
    coeff = q[:, None, None] * (table.weight[:, None] * q)
    zd = pos[:, None, None, 2] - table.z

    hvecs = _half_plane_hvectors(lx, ly, params.k_c)
    shells, shell_of = np.unique(np.hypot(hvecs[:, 0], hvecs[:, 1]), return_inverse=True)
    acc_e = np.zeros_like(zd)
    acc = np.zeros((3,) + zd.shape) if compute_forces else None
    base = 2.0 * math.pi / (2.0 * lx * ly)
    for n, h in enumerate(shells):
        k_h = len(table.level)
        if pruned:
            l_h = 1.0 + LOG_INV_KERNEL_FLOOR / (h * system.height)
            k_h = np.searchsorted(table.level, l_h, side="right")
        add_shell_elementwise(h, hvecs[shell_of == n], pos, zd[:, :k_h], params.alpha,
                              base / h, acc_e[:, :k_h], None if acc is None else acc[:, :, :k_h])
    return _level_sums(table, coeff, acc_e, acc)


def fourier_levels_unpruned(system, table, params, compute_forces):
    """Per-level k != 0 Fourier energies/forces, every image block for every shell."""
    return fourier_levels_elementwise(system, table, params, compute_forces, pruned=False)


def real_space_levels_masked(system, table, params, compute_forces):
    """Per-level real-space energies and forces, erfc evaluated on every distance."""
    lx, ly = system.lx, system.ly
    alpha, r_c = params.alpha, params.r_c
    pos = system.positions
    q = system.charges
    coeff = 0.5 * q[:, None, None] * (table.weight[:, None] * q)

    dx0 = pos[:, None, None, 0] - pos[:, 0]
    dy0 = pos[:, None, None, 1] - pos[:, 1]
    dz = pos[:, None, None, 2] - table.z
    dx0 = dx0 - lx * np.round(dx0 / lx)
    dy0 = dy0 - ly * np.round(dy0 / ly)
    _, mx_max, my_max = real_space_reach(r_c, system.cell)
    diag = np.arange(system.n)

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
                safe_r2 = np.where(mask, r2, 1.0)
                dphi_over_r = np.where(
                    mask,
                    -(phi + (2 * alpha / SQRT_PI) * np.exp(-(alpha * r) ** 2)) / safe_r2,
                    0.0)
                grad[0] += dphi_over_r * dx
                grad[1] += dphi_over_r * dy
                grad[2] += dphi_over_r * dz
    return _level_sums(table, coeff, pair_e, grad)


def spectral_image_energy(system, spec, M_large, params=None, shell_rtol=1e-14):
    """Independent oracle for the image contribution via planewise plane-wave sums.

    The homogeneous part is the ordinary Ewald2D energy; the image part is the
    lattice Fourier expansion of the reflected-series Green's function, summed
    as scalar geometric-type series per in-plane mode.  Convergence in the mode
    sum is certified adaptively (three consecutive quiet shells), on top of the
    e^{-2hH} < 1e-18 baseline; truncating on the baseline alone under-resolves
    sources close to a wall.  Raises DomainError for an input outside the
    solvers' contract (`core.check_solvable`), and before the mode sum when it
    would need more than MAX_SPECTRAL_SHELLS shells: for a source too close to
    a reflecting wall, or a slab too thin for its cell.
    """
    check_solvable(system, spec)
    lx, ly, H = system.cell
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
    # A source d from a reflecting wall adds terms of order e^{-2hd}, and shell s has
    # h >= 2 pi s / max(Lx, Ly): about the shells the stopping rule below needs.
    d = min(H - z.max() if spec.gamma_u else math.inf, z.min() if spec.gamma_d else math.inf)
    shells = max(math.log(1.0 / shell_rtol) / d, math.log(1e18) / H) * max(lx, ly) / (4 * math.pi)
    if shells > MAX_SPECTRAL_SHELLS:
        raise DomainError(f"mode sum needs about {shells:.3g} shells, more than "
                          f"{MAX_SPECTRAL_SHELLS}: a source is {d:.3g} from a reflecting "
                          f"wall, in a slab of height {H:.3g}")
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
        if shell > MAX_SPECTRAL_SHELLS:
            raise DomainError("mode sum failed to converge")
    return homo + total
