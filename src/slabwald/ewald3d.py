"""Reformulated solver: triply periodic Ewald sum on a padded box plus corrections.

The quasi-2D Fourier part is rewritten as a standard 3D reciprocal sum over the
padded cell (L_x, L_y, L_z) against image-aware structure factors, plus a
k=0-mode (YB) term and an inter-replica coupling (ELC) term, each independently
switchable.  The real-space and self terms are shared with the reference solver;
real space stops at image level floor(r_c/H)+1, as no later level is within r_c.

Every term reads the image series from one per-level table,
`core.image_levels` (scale and z offset per level and plus/minus side), with no
loop over levels of its own, and reports its cumulative values at every level
0..M.  `_terms` assembles them into one `core.LevelSweep`: `solve_levels`
returns it and `solve` reads level M from it.

Everything is factored through per-particle structure factors, so cost is
O(N · #k) rather than O(N^2 · #k), and per-image-level reductions come for free.
The reciprocal sum orders its in-plane blocks by |h| and trims each chunk's k_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ChargeSystem, DielectricSpec, DomainError, EnergyForces,
                   EwaldParams, LevelSweep, check_solvable, image_levels)
from .ewald2d import (_half_plane_hvectors, _real_space_levels, build_image_table,
                      self_energy)

ELC_TERM_FLOOR = 1e-18
# complex elements per chunk of modes: bounds the temporaries of the contractions
CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class CorrectionFlags:
    include_yb: bool = True
    include_elc: bool = True


def _level_structure_factors(spec: DielectricSpec, M: int, kz: np.ndarray, H: float):
    """S_A, S_B at every cumulative truncation level 0..M.

    The image-aware structure factor factorizes as
    rho_tilde(k) = S_A(k_z) conj(rho(k)) + S_B(k_z) lambda(k), where lambda is
    rho evaluated at (-k_x, -k_y, k_z): even image levels flip nothing in z,
    odd levels reflect z and so pair with the in-plane-conjugated sum.
    """
    scale, offset = image_levels(spec, M, H)
    terms = (scale[:, 0, None] * np.exp(-1j * kz * offset[:, 0, None])
             + scale[:, 1, None] * np.exp(-1j * kz * offset[:, 1, None]))
    odd = (np.arange(M + 1) % 2 == 1)[:, None]
    sa = np.cumsum(np.where(odd, 0.0, terms), axis=0)
    sb = np.cumsum(np.where(odd, terms, 0.0), axis=0)
    return sa, sb


def _fourier3d_core(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
                    compute_forces: bool):
    """k != 0 reciprocal-space sum; returns cumulative per-level (energies, forces).

    Modes are enumerated as in-plane blocks (one of each +-h pair) times the
    k_z column |k| <= k_c allows.  The structure factors of a chunk of blocks
    are one matrix product, rho = (q XY) @ ez^T with lambda from conj(XY); the
    force sums are the same products transposed, weights^T @ XY, accumulated
    over chunks and multiplied by ez once at the end.
    """
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
    kz_index = np.arange(-nz_max, nz_max + 1)
    kz = 2 * math.pi * kz_index / lz
    nzed = len(kz)
    ez = np.exp(1j * np.outer(kz, pos[:, 2]))  # (NZ, N)

    sa, sb = _level_structure_factors(spec, params.M, kz, H)

    blocks = np.vstack([[0.0, 0.0], _half_plane_hvectors(lx, ly, k_c)])
    hrho2 = blocks[:, 0] * blocks[:, 0] + blocks[:, 1] * blocks[:, 1]
    order = np.argsort(hrho2, kind="stable")  # widest k_z column first, h = 0 leading
    blocks, hrho2 = blocks[order], hrho2[order]
    # k_z column of each block: |k_z index| <= dz, i.e. |k| <= k_c
    dz = np.floor(np.sqrt(k_c * k_c - hrho2) * lz / (2 * math.pi))
    inv4a2 = 1.0 / (4.0 * alpha * alpha)

    p_acc = np.zeros(nzed, dtype=complex)
    q_acc = np.zeros(nzed, dtype=complex)
    if compute_forces:
        # (NZ, 3N): column blocks for x, y, z weighted by h_x, h_y and 1 (k_z
        # applied last).  t_b pairs lambda with XY and rho with conj(XY): the
        # two enter x and y with opposite signs, z with the same sign.
        t_a = np.zeros((nzed, 3 * n), dtype=complex)
        t_b = np.zeros((nzed, 3 * n), dtype=complex)
        flip = np.repeat([-1.0, -1.0, 1.0], n)

    lo = 0
    while lo < len(blocks):
        # k_z beyond the chunk's first (widest) column are dead for all its blocks
        zs = slice(nz_max - int(dz[lo]), nz_max + int(dz[lo]) + 1)
        hi = lo + max(1, CHUNK_ELEMENTS // max(zs.stop - zs.start, 3 * n))
        hx = blocks[lo:hi, 0:1]
        hy = blocks[lo:hi, 1:2]
        h2 = hrho2[lo:hi, None]
        # the (0,0,-k_z) mirrors live in the h = 0 block: keep k_z > 0 only,
        # the global half-plane factor 2 supplies them
        live = (np.abs(kz_index[zs]) <= dz[lo:hi, None]) & ((h2 > 0) | (kz[zs] > 0))
        k2 = np.where(live, h2 + kz[zs] * kz[zs], 1.0)
        coef = np.where(live, np.exp(-k2 * inv4a2) / k2, 0.0)  # (B, NZ)
        qxy = q * np.exp(1j * (hx * pos[:, 0] + hy * pos[:, 1]))  # (B, N)
        rho = qxy @ ez[zs].T
        lam = np.conj(qxy) @ ez[zs].T
        p_acc[zs] += np.sum(coef * (rho * np.conj(rho)), axis=0)
        q_acc[zs] += np.sum(coef * rho * lam, axis=0)
        if compute_forces:
            rhs = np.hstack([hx * qxy, hy * qxy, qxy])
            t_a[zs] += (coef * np.conj(rho)).T @ rhs
            t_b[zs] += (coef * lam).T @ rhs + (coef * rho).T @ (np.conj(rhs) * flip)
        lo = hi

    # half-plane of in-plane modes was enumerated; mirrors contribute the
    # complex conjugate, hence the overall 2 Re(...)
    pref = 2.0 * math.pi / vol
    energies = 2.0 * pref * np.real(sa @ p_acc + sb @ q_acc)
    forces = None
    if compute_forces:
        forces = np.zeros((sa.shape[0], n, 3))
        for ax in range(3):
            cols = slice(ax * n, (ax + 1) * n)
            # i (e conj(rho) - conj(e) rho), summed over modes
            acc_a = -2.0 * np.imag(ez * t_a[:, cols])
            acc_b = 1j * ez * t_b[:, cols]
            wa, wb = (sa * kz, sb * kz) if ax == 2 else (sa, sb)
            forces[:, :, ax] = -2.0 * pref * np.real(wa @ acc_a + wb @ acc_b)
    return energies, forces


def fourier3d_energy(system: ChargeSystem, spec: DielectricSpec,
                     params: EwaldParams, compute_forces: bool = True):
    """Padded-box reciprocal energy against image structure factors, plus self term.

    Returns (energy, forces).
    """
    energies, forces = _fourier3d_core(system, spec, params, compute_forces)
    f = forces[-1] if compute_forces else np.zeros((system.n, 3))
    return float(energies[-1]) + self_energy(system, params.alpha), f


def yb_correction(system: ChargeSystem, spec: DielectricSpec, M: int, L_z: float,
                  compute_forces: bool = True):
    """k=0-mode dipole correction of the padded-box sum, factored to O(N).

    U = (2 pi / V) A B with A = sum_i q_i z_i and B = sum_j q_j [z_j + images].
    Level-l images sit at (-1)^l z_j + c_+-, so the level's share of B is
    beta A + (gamma_+ c_+ + gamma_- c_-) sum_j q_j, with
    beta = (-1)^l (gamma_+ + gamma_-).  Returns (energies, forces) over
    cumulative levels 0..M; forces is None without compute_forces.
    """
    lx, ly, H = system.cell
    pref = 2.0 * math.pi / (lx * ly * L_z)
    q = system.charges
    a = float(np.sum(q * system.positions[:, 2]))
    scale, offset = image_levels(spec, M, H)
    beta = (1.0 - 2.0 * (np.arange(M + 1) % 2)) * scale.sum(axis=1)
    b = beta * a + (scale * offset).sum(axis=1) * float(np.sum(q))
    e_lv = np.cumsum(pref * a * b)
    f_lv = None
    if compute_forces:
        f_lv = np.zeros((M + 1, system.n, 3))
        # dU/dz_i = pref (q_i B + A q_i beta); beta is d(b_i)/dz_i
        f_lv[:, :, 2] = -pref * (q * b[:, None] + a * q * beta[:, None])
        f_lv = np.cumsum(f_lv, axis=0)
    return e_lv, f_lv


def elc_h_cutoff(spec: DielectricSpec, M: int, H: float, L_z: float):
    """Adaptive in-plane cutoff: largest term magnitude below the 1e-18 floor.

    The mode series converges only while the image stack fits inside the
    padding, L_z > (M+1)H; every image offset a is then at least
    L_z - (M+1)H > 0.  Raises DomainError otherwise.  Returns (h_max, warnings);
    warnings is always empty and is kept for callers that unpack two values.
    """
    a_min = L_z - (M + 1) * H
    if a_min <= 0:
        raise DomainError(f"L_z = {L_z:g} <= (M+1)H = {(M + 1) * H:g}: the "
                          "inter-replica correction diverges; raise L_z or lower M")
    return math.log(1.0 / ELC_TERM_FLOOR) / a_min, []


def elc_correction(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
                   compute_forces: bool = True):
    """Inter-replica coupling along z of the padded-box sum, O(N) per mode.

    Per in-plane mode h the coupling is a sum of decaying exponentials with
    per-particle factors u_i = e^{-h(H - z_i)} (side p = 0) and v_i = e^{-h z_i}
    (side 1), both bounded by 1, with side sums S_u, S_v.  Every image of scale
    gamma in `core.image_levels` adds gamma/2 e^{-h a} to a coefficient C[l, p]
    per side, with offsets a = L_z + (l-1)H and L_z - (l+1)H for p = 0, 1
    (swapped for the minus image); an image that does not exist has scale 0 and
    adds exactly 0.  C[l, p] couples side p with side q = 1 - p on even levels
    and q = p on odd ones, and the energy is the sum of C[l, p] S_p conj(S_q).
    C[l, p] = C[l, q] (on even levels gamma_+ = gamma_- and the offsets swap),
    so the two conjugate halves of each force are equal and only one is
    contracted with the per-particle factors.  The exponentially growing
    denominator 1 - e^{h L_z} is folded in analytically, so every retained
    factor decays.

    Returns (energies, forces) over cumulative levels 0..M; forces is None
    without compute_forces.  Raises DomainError unless L_z > (M+1)H
    (`elc_h_cutoff`).
    """
    lx, ly, H = system.cell
    L_z = params.L_z
    M = params.M
    pos = system.positions
    q = system.charges
    n = system.n
    h_max, _ = elc_h_cutoff(spec, M, H, L_z)
    h_max = max(h_max, 2 * math.pi / max(lx, ly) * 1.001)  # at least one shell

    levels = M + 1
    scale, _ = image_levels(spec, M, H)
    l = np.arange(levels)[:, None]
    a_hi, a_lo = L_z + (l - 1) * H, L_z - (l + 1) * H
    a = np.stack([np.hstack([a_hi, a_lo]), np.hstack([a_lo, a_hi])], axis=1)  # (l, image, p)
    w = 0.5 * scale[:, :, None, None]
    partner = np.arange(2) ^ (l % 2 == 0)  # side q that side p couples with, (l, p)
    sig = np.array([[1.0], [-1.0]])  # sign of d/dz of the u and v factors, per h

    e_lv = np.zeros(levels)
    f_lv = np.zeros((levels, n, 3)) if compute_forces else None
    z = pos[:, 2]
    base = -(2.0 * math.pi / (lx * ly)) * 2.0  # sign from folded denominator; 2 = half-plane
    hvecs = _half_plane_hvectors(lx, ly, h_max)
    chunk = max(1, CHUNK_ELEMENTS // (2 * max(n, 3 * levels, 2 * np.count_nonzero(scale))))
    for lo in range(0, len(hvecs), chunk):
        hx, hy = hvecs[lo:lo + chunk].T
        h = np.hypot(hx, hy)
        cc0 = base / (h * (1.0 - np.exp(-h * L_z)))
        coeff = (cc0 * w * np.exp(-a[..., None] * h)).sum(axis=1)  # C[l, p, modes]

        phase = q * np.exp(1j * (hx[:, None] * pos[:, 0] + hy[:, None] * pos[:, 1]))
        g = np.stack([phase * np.exp(-h[:, None] * (H - z)), phase * np.exp(-h[:, None] * z)])
        s = g.sum(axis=2)  # (2, modes)
        d = coeff * np.conj(s)[partner]  # C[l, p] conj(S_q)
        e_lv += np.einsum("lph,ph->l", d, s).real
        if compute_forces:
            # the conj(S_q) half of the force is the conjugate of this S_p half
            wts = np.stack(np.broadcast_arrays(hx, hy, sig * h))[:, None]  # (3, 1, side, modes)
            t = ((d * wts).reshape(3 * levels, -1) @ g.reshape(-1, n)).reshape(3, levels, n)
            f_lv[:, :, 0] += 2.0 * t[0].imag
            f_lv[:, :, 1] += 2.0 * t[1].imag
            f_lv[:, :, 2] -= 2.0 * t[2].real
    if compute_forces:
        f_lv = np.cumsum(f_lv, axis=0)
    return np.cumsum(e_lv), f_lv


def _terms(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
           flags: CorrectionFlags, compute_forces: bool) -> LevelSweep:
    """One padded-box evaluation, every term at every level 0..M.

    Raises DomainError for an input outside the solvers' contract
    (`core.check_solvable`) and, with ELC on, unless L_z > (M+1)H
    (`elc_h_cutoff`).  ELC runs first, so that check comes before the
    costlier terms.
    """
    check_solvable(system, spec)
    if flags.include_elc:
        e_elc, f_elc = elc_correction(system, spec, params, compute_forces=compute_forces)
    # a level-l image (l >= 2) is >= (l-1)H from every source: rows past m_real are 0
    m_real = min(params.M, math.floor(params.r_c / system.height) + 1)
    table = build_image_table(system, spec, m_real)
    e_real, f_real = _real_space_levels(system, table, params, compute_forces)
    e_four, f_four = _fourier3d_core(system, spec, params, compute_forces)
    upto = np.minimum(np.arange(params.M + 1), m_real)  # repeats level m_real above it
    energies = {"real": np.cumsum(e_real)[upto], "fourier3d": e_four,
                "self": np.full(params.M + 1, self_energy(system, params.alpha))}
    forces = [np.cumsum(f_real, axis=0)[upto], f_four] if compute_forces else []
    if flags.include_yb:
        energies["yb"], f_yb = yb_correction(system, spec, params.M, params.L_z,
                                             compute_forces=compute_forces)
        forces.append(f_yb)
    if flags.include_elc:
        energies["elc"] = e_elc
        forces.append(f_elc)
    total_f = sum(forces) if compute_forces else np.zeros((params.M + 1, system.n, 3))
    return LevelSweep(sum(energies.values()), total_f, energies)


def solve(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
          flags: CorrectionFlags = CorrectionFlags(),
          compute_forces: bool = True) -> EnergyForces:
    """Full padded-box solve: real + reciprocal + self (+ YB, + ELC per flags).

    Raises DomainError for an input outside `core.check_solvable`'s contract,
    and when ELC is on and L_z <= (M+1)H.
    """
    return _terms(system, spec, params, flags, compute_forces).at(params.M)


def solve_levels(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
                 flags: CorrectionFlags = CorrectionFlags(),
                 compute_forces: bool = True) -> LevelSweep:
    """One padded-box evaluation reported at every truncation level 0..params.M.

    Used for sweeps over M at the cost of a single converged solve.  Raises
    DomainError as `solve` does.
    """
    return _terms(system, spec, params, flags, compute_forces)
