"""Loop forms of the in-plane mode list, the padded-box reciprocal sum and ELC.

These are the per-mode Python loops that `ewald2d` and `ewald3d` replaced
with array code (a masked grid, chunked contractions).  They are kept here,
for tests only, as oracles: each walks one in-plane mode (and, for ELC, one
channel) at a time, so the summation is plain to read and independent of the
contraction's chunking and coefficient folding.  Both sums return cumulative
per-level results exactly as the library routines do.  The in-plane modes,
per-level structure factors and ELC channels they use are built here too,
level by level from the scalar image scales and offsets, so the oracles share
nothing with the array code they check.
"""

from __future__ import annotations

import math

import numpy as np

from slabwald.core import DomainError, image_scales, image_z_offsets
from slabwald.ewald3d import elc_h_cutoff


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
    h_max, _ = elc_h_cutoff(spec, M, H, L_z)
    h_max = max(h_max, 2 * math.pi / max(lx, ly) * 1.001)

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
