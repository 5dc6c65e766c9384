"""Work counts computed from a workload's inputs and parameters.

These are not measured inside the program: they restate how much work the
solver's loops cover for the given system and EwaldParams, so they repeat
exactly for a seed and are reported as counts, never as times.
"""

from __future__ import annotations

import math

import numpy as np

from slabwald import core, ewald3d, harness
from slabwald.core import ChargeSystem, DielectricSpec, EwaldParams

ELC_EXP_LIMIT = 690.0   # ELC skips channel terms with h * a above this
ROW_BLOCK = 64          # particles per block when counting real-space hits


def half_plane_modes(lx: float, ly: float, kmax: float) -> list[tuple[float, float]]:
    """In-plane vectors 0 < |h| <= kmax, one of each +-h pair."""
    nx_max = int(math.floor(kmax * lx / (2 * math.pi)))
    ny_max = int(math.floor(kmax * ly / (2 * math.pi)))
    out = []
    for nx in range(nx_max + 1):
        for ny in range(1 if nx == 0 else -ny_max, ny_max + 1):
            hx, hy = 2 * math.pi * nx / lx, 2 * math.pi * ny / ly
            if 0 < hx * hx + hy * hy <= kmax * kmax:
                out.append((hx, hy))
    return out


def image_entries(system: ChargeSystem, spec: DielectricSpec, M: int) -> int:
    """Sources plus their images up to level M."""
    return system.n + len(core.image_series(system, spec, M))


def fourier_modes(system: ChargeSystem, params: EwaldParams) -> int:
    """(h, k_z) modes of the padded-box sum within k_c, half space only."""
    lx, ly, _ = system.cell
    kc, lz = params.k_c, params.L_z

    def n_kz(h2):
        return int(math.floor(math.sqrt(kc * kc - h2) * lz / (2 * math.pi)))

    return n_kz(0.0) + sum(2 * n_kz(hx * hx + hy * hy) + 1
                           for hx, hy in half_plane_modes(lx, ly, kc))


def _image_coords(system: ChargeSystem, spec: DielectricSpec, M: int):
    pos = system.positions
    imgs = core.image_series(system, spec, M)
    src = np.concatenate([np.arange(system.n),
                          np.array([im.source for im in imgs], dtype=int)])
    z = np.concatenate([pos[:, 2], np.array(
        [im.parity * pos[im.source, 2] + im.z_offset for im in imgs])])
    return pos[src, 0], pos[src, 1], z


def real_space_counts(system: ChargeSystem, spec: DielectricSpec,
                      params: EwaldParams) -> dict[str, float]:
    """Pair entries the dense real-space sum evaluates, and the share within r_c."""
    lx, ly, _ = system.cell
    r_c = params.r_c
    ex, ey, ez = _image_coords(system, spec, params.M)
    n, e = system.n, len(ez)
    mx_max = int(math.ceil((r_c + lx / 2) / lx))
    my_max = int(math.ceil((r_c + ly / 2) / ly))
    replicas = (2 * mx_max + 1) * (2 * my_max + 1)
    pos = system.positions
    hits = 0
    for lo in range(0, n, ROW_BLOCK):
        p = pos[lo:lo + ROW_BLOCK]
        dx0 = p[:, 0:1] - ex[None, :]
        dy0 = p[:, 1:2] - ey[None, :]
        dz2 = (p[:, 2:3] - ez[None, :]) ** 2
        dx0 -= lx * np.round(dx0 / lx)
        dy0 -= ly * np.round(dy0 / ly)
        for mx in range(-mx_max, mx_max + 1):
            for my in range(-my_max, my_max + 1):
                r2 = (dx0 + mx * lx) ** 2 + (dy0 + my * ly) ** 2 + dz2
                hits += int(np.count_nonzero(r2 <= r_c * r_c))
    hits -= n  # each source paired with itself in the central replica
    pairs = n * e * replicas
    return {"ewald3d.real.pair_entries": float(pairs),
            "ewald3d.real.cutoff_hit_ratio": hits / pairs,
            "ewald3d.real.array_bytes": float(8 * n * e)}


def elc_counts(system: ChargeSystem, spec: DielectricSpec,
               params: EwaldParams) -> dict[str, float]:
    """In-plane modes below the ELC cutoff times the channels each evaluates."""
    lx, ly, h_slab = system.cell
    lz, M = params.L_z, params.M
    h_max, warnings = ewald3d.elc_h_cutoff(spec, M, h_slab, lz)
    h_max = max(h_max, 2 * math.pi / max(lx, ly) * 1.001)
    offsets = [lz - h_slab] * 2
    for level in range(1, M + 1):
        nonzero = sum(g != 0.0 for g in core.image_scales(spec, level))
        offsets += [lz + (level - 1) * h_slab, lz - (level + 1) * h_slab] * nonzero
    terms = 0
    for hx, hy in half_plane_modes(lx, ly, h_max):
        h = math.hypot(hx, hy)
        terms += sum(h * a <= ELC_EXP_LIMIT for a in offsets)
    return {"ewald3d.elc.mode_terms": float(terms),
            "ewald3d.elc.warnings": float(len(warnings))}


def solve_counts(system: ChargeSystem, spec: DielectricSpec,
                 params: EwaldParams, elc: bool) -> dict[str, float]:
    out = {"core.image_entries": float(image_entries(system, spec, params.M)),
           "ewald3d.fourier3d.modes": float(fourier_modes(system, params))}
    out.update(real_space_counts(system, spec, params))
    out.update(elc_counts(system, spec, params) if elc else
               {"ewald3d.elc.mode_terms": 0.0, "ewald3d.elc.warnings": 0.0})
    return out


def icm_reference_params(system: ChargeSystem, spec: DielectricSpec) -> EwaldParams:
    """Parameters of the converged ewald2d reference, as run_sweep builds it."""
    return EwaldParams(alpha=harness.default_alpha(6.0, system.cell), s=6.0,
                       L_z=2.0 * system.height,
                       M=harness.reference_level(spec, system.cell))


def reference_pair_mode_terms(system: ChargeSystem, spec: DielectricSpec) -> float:
    """N * E_ref * h-modes of the ewald2d reference run_sweep evaluates."""
    lx, ly, _ = system.cell
    ref = icm_reference_params(system, spec)
    e_ref = image_entries(system, spec, ref.M)
    return float(system.n * e_ref * len(half_plane_modes(lx, ly, ref.k_c)))
