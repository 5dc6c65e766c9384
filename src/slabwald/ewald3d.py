"""Reformulated solver: triply periodic Ewald sum on a padded box plus corrections.

The quasi-2D Fourier part is rewritten as a standard 3D reciprocal sum over the
padded cell (L_x, L_y, L_z) against image-aware structure factors, plus a
k=0-mode (YB) term and an inter-replica coupling (ELC) term, each switched by
an `EwaldParams` field (include_yb, include_elc).  The self term is shared
with the reference solver.  Real space is ewald3d's own: it stops at image
level floor(r_c/H)+1, as no later level is within r_c, and evaluates erfc
only on the pairs within r_c, where ewald2d's reference evaluates every dense
entry.  It forms the distances for a block of targets at a time, so its
temporaries stay within CHUNK_ELEMENTS entries.

Between ideal walls (|gamma_u| = |gamma_d| = 1) the image series is exactly
periodic in z, and `EwaldParams.method = "lattice"` sums all of it: the same
terms run on one period of the series (`core.lattice_levels`) in a cell of
height P = 2H or 4H (`core.lattice_period`), with tin-foil boundaries plus
YB, which is there exactly the dipole term, and no ELC, as nothing couples
across replicas.  Real space then also sums the z-replicas of period P, up
to `core.z_replica_reach`.  M and L_z are not read.  This is the method of
Hautman, Halley & Rhee (1989) and Takae & Onuki (2013) for charges between
metal plates.  `_box` says which cell a parameter set evaluates.

Every term reads the image series from one per-level table, the box's
(`core.image_levels` in the padded box; scale and z offset per level and
plus/minus side), with no loop over levels of its own.  `_terms` assembles
the terms at the levels the caller reads into one `core.LevelSweep`:
`solve_levels` asks for every level 0..M of the padded box, `solve` and
`fourier3d_energy` for the top level alone.  Real space, YB and ELC
report their cumulative values at every level, which are indexed; the
reciprocal sum contracts its level structure factors at the asked levels only.

Everything is factored through per-particle structure factors, so cost is
O(N · #k) rather than O(N^2 · #k), and per-image-level reductions come for free.
The reciprocal sum orders its in-plane blocks by |h| and trims each chunk's k_z.
Each chunk costs one structure-factor product, one z force product and, with
forces, one x/y force product: the energy is read off the z force sums, and
with coefficients even in k_z, lambda's share of the energy and the force
sums' lambda half are read off their k_z mirror.

A run of solves at fixed parameters builds what depends only on them once: a
small cache of `_mode_plan`s, keyed by the cell, the walls, the parameters,
N and CHUNK_ELEMENTS, holds the k_z grid, the level structure factors, the
chunks with their coefficients, and ELC's certified cutoff, in-plane modes and
per-level coefficients: a solve does only the work that depends on positions.
`solve`, `solve_levels`, `fourier3d_energy` and `elc_correction` share it; its
arrays are read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .core import (ChargeSystem, DielectricSpec, DomainError, EnergyForces, EwaldParams,
                   LevelSweep, check_solvable, elc_offsets, image_levels, lattice_levels,
                   lattice_period, real_space_reach, z_replica_reach)
from .errors import elc_cutoff, elc_gap, splitting_error
from .ewald2d import SQRT_PI, ImageTable, _half_plane_hvectors, build_image_table, self_energy

# the fixed term floor of `elc_h_cutoff`; the solve cuts ELC at `errors.elc_cutoff`
ELC_TERM_FLOOR = 1e-18
# elements per chunk of modes, or per block of real-space targets: bounds the
# temporaries of the contractions and of the pair search
CHUNK_ELEMENTS = 1 << 15


class _Box(NamedTuple):
    """The triply periodic cell a solve evaluates, and the image table in it."""

    scale: np.ndarray      # (levels, 2) and offset (levels, 2), as `core.image_levels`
    offset: np.ndarray
    L_z: float             # the cell's height
    period: float | None   # z-period of the real-space sum; None: one z-iteration


def _box(spec: DielectricSpec, params: EwaldParams, H: float) -> _Box:
    """The padded box of height L_z holding image_levels(spec, M, H), or the
    lattice cell of height P holding `core.lattice_levels`, whose real space
    also sums the z-replicas of period P.  Raises DomainError for a lattice on
    walls without a z-period."""
    if params.method == "lattice":
        scale, offset = lattice_levels(spec, H)
        period = lattice_period(spec, H)
        return _Box(scale, offset, period, period)
    return _Box(*image_levels(spec, params.M, H), params.L_z, None)


def _lattice_image_table(system: ChargeSystem, box: _Box) -> ImageTable:
    """The `ewald2d.ImageTable` of the lattice cell's levels, as `build_image_table`
    forms it from `core.image_levels`."""
    level, side = np.nonzero(box.scale)
    parity = 1.0 - 2.0 * (level % 2)
    z = parity[:, None] * system.positions[:, 2] + box.offset[level, side][:, None]
    return ImageTable(level, box.scale[level, side], parity, z, box.scale.shape[0])


def _real_space_pairs(system: ChargeSystem, table, params: EwaldParams,
                      compute_forces: bool, period: float | None = None):
    """Per-level real-space energies and forces, evaluated on the pairs within r_c.

    The (target i, block k, source j) separations of `table` (an
    `ewald2d.ImageTable`) are formed for blocks of targets, c at a time with
    c K N <= CHUNK_ELEMENTS (at least one target), and within a block once per
    xy replica, with xy wrapped into the primary cell.  Given a z-period, z is
    wrapped too, and every z-replica within `core.z_replica_reach` is summed
    (outermost); without one there is a single z-iteration.  erfc and the force
    factor are evaluated only on the hits r <= r_c, without the self pairs
    (block 0, i == j, in the primary cell).  The hits are reduced per
    (level, target) and per (level, source) by `np.bincount` over
    level[k] N + i (or + j); a source's z-force carries its block's z-parity.
    A (level, target) row takes its replicas in the same order whatever the
    block size, and each level's energy sums its N per-target rows pairwise.
    Returns (energies, forces) per level 0..n_levels-1, not cumulative; forces
    is None without compute_forces.
    """
    n, levels = system.n, table.n_levels
    alpha, r_c = params.alpha, params.r_c
    pos, q = system.positions, system.charges
    dx0 = pos[:, None, 0] - pos[:, 0]
    dy0 = pos[:, None, 1] - pos[:, 1]
    dx0 = dx0 - system.lx * np.round(dx0 / system.lx)
    dy0 = dy0 - system.ly * np.round(dy0 / system.ly)
    _, mx_max, my_max = real_space_reach(r_c, system.cell)
    mz_max = 0 if period is None else z_replica_reach(r_c, period)
    kn = table.z.shape[0] * n
    width = max(1, CHUNK_ELEMENTS // kn)  # targets per block

    e_rows = np.zeros(levels * n)
    f_rows = np.zeros((levels * n, 3)) if compute_forces else None
    for i0 in range(0, n, width):
        blk = slice(i0, i0 + width)
        dz_cell = pos[blk, None, None, 2] - table.z  # (c, K, N)
        if period is not None:
            dz_cell -= period * np.round(dz_cell / period)
        for mz in range(-mz_max, mz_max + 1):
            dz = dz_cell + mz * period if mz else dz_cell
            dz2 = dz * dz
            for mx, my in itertools.product(range(-mx_max, mx_max + 1),
                                            range(-my_max, my_max + 1)):
                dx = dx0[blk] + mx * system.lx  # (c, N)
                dy = dy0[blk] + my * system.ly
                r2 = (dx * dx + dy * dy)[:, None, :] + dz2
                hit = r2 <= r_c * r_c
                if mx == my == mz == 0:
                    own = np.arange(len(dx))
                    hit[own, 0, own + i0] = False
                flat = np.flatnonzero(hit)  # ((i - i0) K + k) N + j
                ib, kj = np.divmod(flat, kn)
                k, j = np.divmod(kj, n)
                i = ib + i0
                r2 = r2.take(flat)
                r = np.sqrt(r2)
                cq = 0.5 * q[i] * (table.weight[k] * q[j])
                phi = erfc(alpha * r) / r
                row_i = table.level[k] * n + i
                e_rows += np.bincount(row_i, cq * phi, minlength=levels * n)
                if compute_forces:
                    # d(phi)/dr / r, applied to the separation vector
                    dphi_over_r = -(phi + (2 * alpha / SQRT_PI) * np.exp(-(alpha * r) ** 2)) / r2
                    row_j = table.level[k] * n + j
                    ij = ib * n + j
                    for ax, d in enumerate((dx.take(ij), dy.take(ij), dz.take(flat))):
                        g = cq * (dphi_over_r * d)
                        src = g * table.parity[k] if ax == 2 else g
                        f_rows[:, ax] += (np.bincount(row_j, src, minlength=levels * n)
                                          - np.bincount(row_i, g, minlength=levels * n))
    energies = e_rows.reshape(levels, n).sum(axis=1)
    return energies, (f_rows.reshape(levels, n, 3) if compute_forces else None)


def _level_structure_factors(box: _Box, kz: np.ndarray):
    """S_A, S_B at every cumulative truncation level of the box's image table.

    The image-aware structure factor factorizes as
    rho_tilde(k) = S_A(k_z) conj(rho(k)) + S_B(k_z) lambda(k), where lambda is
    rho evaluated at (-k_x, -k_y, k_z): even image levels flip nothing in z,
    odd levels reflect z and so pair with the in-plane-conjugated sum.
    """
    scale, offset = box.scale, box.offset
    terms = (scale[:, 0, None] * np.exp(-1j * kz * offset[:, 0, None])
             + scale[:, 1, None] * np.exp(-1j * kz * offset[:, 1, None]))
    odd = (np.arange(scale.shape[0]) % 2 == 1)[:, None]
    sa = np.cumsum(np.where(odd, 0.0, terms), axis=0)
    sb = np.cumsum(np.where(odd, terms, 0.0), axis=0)
    return sa, sb


@dataclass(frozen=True, eq=False)
class _Chunk:
    """One chunk of in-plane blocks of the reciprocal sum, and its k_z window."""

    zs: slice         # the window, symmetric about k_z = 0, of the widest column
    ix: np.ndarray    # (B,) row of each block in the x phase table
    iy: np.ndarray    # (B,) row of each block in the y phase table
    h: np.ndarray     # (B, 2) the blocks' in-plane vectors
    coef: np.ndarray  # (B, window // 2 + 1) the k_z >= 0 half of the coefficients


@dataclass(frozen=True, eq=False)
class _Reciprocal:
    """The position-independent part of the reciprocal sum at one parameter set."""

    L_z: float           # the height of the box the modes live in (`_box`)
    kz: np.ndarray       # (NZ,) the k_z grid, symmetric about 0
    sa: np.ndarray       # (levels, NZ) `_level_structure_factors`
    sb: np.ndarray
    mx_max: int          # the x phase table holds m_x = 0..mx_max
    my_max: int          # the y phase table holds m_y = -my_max..my_max
    chunks: tuple[_Chunk, ...]


class _ModePlan:
    """What the solve needs of one parameter set, whatever the positions.

    A trajectory or a series of trial moves solves thousands of times at the
    parameters the tuner chose once.  Each part is built on first use, so a
    solve with ELC off never asks for ELC's cutoff or modes, nor an ELC-only
    call for the reciprocal modes; a plan is shared by every solve at its key,
    and every array it holds (`_Reciprocal`, `_Elc`) is read-only.
    """

    def __init__(self, cell: tuple[float, float, float], spec: DielectricSpec,
                 params: EwaldParams, n: int, chunk_elements: int):
        self._key = (cell, spec, params, n, chunk_elements)

    @functools.cached_property
    def elc_h_max(self) -> float:
        """`errors.elc_cutoff` at splitting_error(s); its root search would cost
        about a tenth of a small solve.  Raises DomainError unless L_z > (M+1)H."""
        cell, spec, params = self._key[:3]
        return elc_cutoff(splitting_error(params.s), image_levels(spec, params.M, cell[2])[0],
                          cell, params.L_z)

    @functools.cached_property
    def reciprocal(self) -> _Reciprocal:
        return _reciprocal_plan(*self._key)

    @functools.cached_property
    def elc(self) -> _Elc:
        """`_elc_plan` up to `elc_h_max`; raises, and caches nothing, as it does."""
        cell, spec, params, n, chunk_elements = self._key
        return _elc_plan(cell, image_levels(spec, params.M, cell[2])[0], params.L_z,
                         self.elc_h_max, n, chunk_elements)


# one plan per (cell, spec, params, N, CHUNK_ELEMENTS); a sweep over P or L_z
# makes one-off plans, so only a few are kept
_mode_plan = functools.lru_cache(maxsize=4)(_ModePlan)


def _reciprocal_plan(cell: tuple[float, float, float], spec: DielectricSpec,
                     params: EwaldParams, n: int, chunk_elements: int) -> _Reciprocal:
    """The k_z grid, S_A and S_B, and the chunks of in-plane blocks, in the
    box of `_box` (the padded box, or the lattice cell).

    The blocks are ordered by |h| (widest k_z column first, h = 0 leading)
    and cut into chunks of at most chunk_elements complex elements, or one
    block; each chunk evaluates only the window of its first block's column.
    The coefficients weight e^{-k^2/4 alpha^2}/k^2, 0 where a mode is not
    live, are even in k_z, so only their k_z >= 0 half is kept.
    """
    lx, ly, H = cell
    box = _box(spec, params, H)
    lz, alpha, k_c = box.L_z, params.alpha, params.k_c
    if lz < H:
        raise DomainError("padded height L_z must be at least the slab height H")
    nz_max = int(math.floor(k_c * lz / (2 * math.pi)))
    kz_index = np.arange(-nz_max, nz_max + 1)
    kz = 2 * math.pi * kz_index / lz
    sa, sb = _level_structure_factors(box, kz)

    blocks = np.vstack([[0.0, 0.0], _half_plane_hvectors(lx, ly, k_c)])
    hrho2 = blocks[:, 0] * blocks[:, 0] + blocks[:, 1] * blocks[:, 1]
    order = np.argsort(hrho2, kind="stable")  # widest k_z column first, h = 0 leading
    blocks, hrho2 = blocks[order], hrho2[order]
    # k_z column of each block: |k_z index| <= dz, i.e. |k| <= k_c
    dz = np.floor(np.sqrt(k_c * k_c - hrho2) * lz / (2 * math.pi))
    weight = np.where(hrho2 > 0, 1.0, 0.5)
    inv4a2 = 1.0 / (4.0 * alpha * alpha)
    # every h lies on the 2 pi/L lattice: XY = (q ex)[m_x] ey[m_y], m_x >= 0
    m = np.rint(blocks * [lx / (2 * math.pi), ly / (2 * math.pi)]).astype(int)
    my_max = int(np.abs(m[:, 1]).max())

    chunks = []
    lo = 0
    while lo < len(blocks):
        # k_z beyond the chunk's first (widest) column are dead for all its blocks
        zs = slice(nz_max - int(dz[lo]), nz_max + int(dz[lo]) + 1)
        hi = lo + max(1, chunk_elements // max(zs.stop - zs.start, 3 * n))
        half = slice(nz_max, zs.stop)
        h2 = hrho2[lo:hi, None]
        live = (np.abs(kz_index[half]) <= dz[lo:hi, None]) & ((h2 > 0) | (kz_index[half] != 0))
        k2 = np.where(live, h2 + kz[half] * kz[half], 1.0)
        coef = np.where(live, weight[lo:hi, None] * np.exp(-k2 * inv4a2) / k2, 0.0)
        chunks.append(_Chunk(zs, m[lo:hi, 0], m[lo:hi, 1] + my_max, blocks[lo:hi], coef))
        lo = hi

    arrays = [kz, sa, sb] + [a for c in chunks for a in (c.ix, c.iy, c.h, c.coef)]
    for arr in arrays:
        arr.flags.writeable = False
    return _Reciprocal(lz, kz, sa, sb, int(m[:, 0].max()), my_max, tuple(chunks))


def _fourier3d_core(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
                    compute_forces: bool, levels=slice(None)):
    """k != 0 reciprocal-space sum: cumulative (energies, forces) at `levels`.

    `levels` indexes the levels of the box's image table (`_box`: 0..M in the
    padded box), as a slice or a sequence of levels; only those rows of S_A
    and S_B are contracted.  Modes are enumerated as in-plane
    blocks (one of each +-h pair) times the k_z column |k| <= k_c allows, in
    the chunks of the parameters' cached `_mode_plan`; the h = 0 block carries
    both signs of k_z at half weight (its two halves are conjugates), so every
    coefficient is even in k_z and a chunk mirrors its stored k_z >= 0 half.
    A chunk of blocks costs one product for its structure factors,
    rho = (q XY) @ ez^T with XY read from per-axis phase tables, and one for
    its z force sums t_z = w^T @ (q XY), w = coef conj(rho); with forces, one
    more gives the x and y sums w^T @ (h_x q XY, h_y q XY).  The energy is read
    off t_z: sum_h coef |rho|^2 = sum_j ez t_z, and lambda(h, k_z) =
    conj(rho(h, -k_z)) pairs ez with t_z's k_z mirror.  The force sums' lambda
    half is also their k_z mirror and conjugate.  The k_z and y phase tables
    are built from their k >= 0 halves, as e^{-ikx} = conj(e^{ikx}).
    """
    lx, ly, _ = system.cell
    plan = _mode_plan(system.cell, spec, params, system.n, CHUNK_ELEMENTS).reciprocal
    kz, sa, sb = plan.kz, plan.sa[levels], plan.sb[levels]
    vol = lx * ly * plan.L_z
    pos = system.positions
    q = system.charges
    n = system.n

    nzed = len(kz)
    ez = _mirror_phases(np.exp(1j * np.outer(kz[nzed // 2:], pos[:, 2])))  # (NZ, N)
    qex = q * np.exp(2j * math.pi / lx * np.outer(np.arange(plan.mx_max + 1), pos[:, 0]))
    ey = _mirror_phases(np.exp(2j * math.pi / ly * np.outer(np.arange(plan.my_max + 1),
                                                            pos[:, 1])))

    t_z = np.zeros((nzed, n), dtype=complex)
    if compute_forces:
        t_xy = np.zeros((nzed, 2, n), dtype=complex)  # weighted by h_x, h_y

    for chunk in plan.chunks:
        zs = chunk.zs
        coef = np.concatenate([chunk.coef[:, :0:-1], chunk.coef], axis=1)  # (B, NZ)
        qxy = qex[chunk.ix] * ey[chunk.iy]  # (B, N)
        w = qxy @ ez[zs].T  # rho, then coef conj(rho) in place
        np.conj(w, out=w)
        w *= coef
        t_z[zs] += w.T @ qxy
        if compute_forces:
            hxy = (chunk.h[:, :, None] * qxy[:, None, :]).reshape(len(qxy), 2 * n)
            t_xy[zs] += (w.T @ hxy).reshape(-1, 2, n)

    # half-plane of in-plane modes was enumerated; mirrors contribute the
    # complex conjugate, hence the overall 2 Re(...)
    pref = 2.0 * math.pi / vol
    # sum_h rho w = sum_j ez t_z; coef lambda = coef conj(rho(-k_z)) is w
    # reversed in k_z, as coef is even, so lambda pairs ez with t_z reversed
    p_acc = np.sum(ez * t_z, axis=1)
    q_acc = np.sum(ez * t_z[::-1], axis=1)
    energies = 2.0 * pref * np.real(sa @ p_acc + sb @ q_acc)
    forces = None
    if compute_forces:
        forces = np.zeros((sa.shape[0], n, 3))
        ezc = np.conj(ez)
        for ax, t_a in enumerate((t_xy[:, 0], t_xy[:, 1], t_z)):
            wa, wb = (sa * kz, sb * kz) if ax == 2 else (sa, sb)
            # The force is -2 pref Re(wa @ (-2 Im(ez t_a)) + wb @ (i ez t_b)),
            # -2 Im(ez t_a) being i (e conj(rho) - conj(e) rho) summed over
            # modes, with the lambda sums t_b = (coef lambda)^T @ XY +
            # (coef rho)^T @ conj(XY) = t_a[::-1] -+ conj(t_a): lambda and
            # conj(XY) enter x and y with opposite signs, z with the same sign.
            # As ez(-k_z) = conj(ez(k_z)), t_b's mirror and conjugate move onto
            # wb, and both halves meet conj(ez) t_a.
            wb = wb[:, ::-1] - np.conj(wb) if ax == 2 else wb[:, ::-1] + np.conj(wb)
            forces[:, :, ax] = 2.0 * pref * np.imag((wa + np.conj(wa)) @ (ez * t_a)
                                                    + wb @ (ezc * t_a))
    return energies, forces


def _mirror_phases(half: np.ndarray) -> np.ndarray:
    """Rows k = -K..K of e^{ikx} from its rows k = 0..K: e^{-ikx} = conj(e^{ikx})."""
    return np.concatenate([np.conj(half[:0:-1]), half])


def fourier3d_energy(system: ChargeSystem, spec: DielectricSpec,
                     params: EwaldParams, compute_forces: bool = True):
    """Reciprocal energy against image structure factors, plus self term.

    The sum of the box `solve` evaluates: the padded box at level M, or the
    lattice cell.  Returns (energy, forces).
    """
    energies, forces = _fourier3d_core(system, spec, params, compute_forces, [-1])
    f = forces[0] if compute_forces else np.zeros((system.n, 3))
    return float(energies[0]) + self_energy(system, params.alpha), f


def yb_correction(system: ChargeSystem, spec: DielectricSpec, M: int, L_z: float,
                  compute_forces: bool = True):
    """k=0-mode dipole correction of the padded-box sum, factored to O(N).

    U = (2 pi / V) A B with A = sum_i q_i z_i and B = sum_j q_j [z_j + images].
    Level-l images sit at (-1)^l z_j + c_+-, so the level's share of B is
    beta A + (gamma_+ c_+ + gamma_- c_-) sum_j q_j, with
    beta = (-1)^l (gamma_+ + gamma_-).  Returns (energies, forces) over
    cumulative levels 0..M; forces is None without compute_forces.
    """
    return _yb_levels(system, _Box(*image_levels(spec, M, system.height), L_z, None),
                      compute_forces)


def _yb_levels(system: ChargeSystem, box: _Box, compute_forces: bool):
    """`yb_correction` over the levels of the box's image table, in its volume.

    In the lattice cell it is exactly the dipole term that turns the cell's
    tin-foil sum into the layer-by-layer sum of the image series.
    """
    lx, ly, _ = system.cell
    pref = 2.0 * math.pi / (lx * ly * box.L_z)
    q = system.charges
    a = float(np.sum(q * system.positions[:, 2]))
    scale, offset = box.scale, box.offset
    beta = (1.0 - 2.0 * (np.arange(scale.shape[0]) % 2)) * scale.sum(axis=1)
    b = beta * a + (scale * offset).sum(axis=1) * float(np.sum(q))
    e_lv = np.cumsum(pref * a * b)
    f_lv = None
    if compute_forces:
        f_lv = np.zeros((scale.shape[0], system.n, 3))
        # dU/dz_i = pref (q_i B + A q_i beta); beta is d(b_i)/dz_i
        f_lv[:, :, 2] = -pref * (q * b[:, None] + a * q * beta[:, None])
        f_lv = np.cumsum(f_lv, axis=0)
    return e_lv, f_lv


def elc_h_cutoff(spec: DielectricSpec, M: int, H: float, L_z: float):
    """The fixed-floor cutoff ln(1/ELC_TERM_FLOOR) / (L_z - (M+1)H) and no warnings.

    Where the slowest image factor e^{-h a} of the ELC mode sum falls to
    1e-18, whatever accuracy the split has.  `elc_correction` cuts at
    `errors.elc_cutoff` instead, so this overstates its modes; it stays for
    callers that count modes at the floor and unpack (h_max, warnings),
    warnings being always empty.  Raises DomainError unless L_z > (M+1)H
    (`errors.elc_gap`).
    """
    return math.log(1.0 / ELC_TERM_FLOOR) / elc_gap(M, H, L_z), []


def elc_correction(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
                   compute_forces: bool = True):
    """Inter-replica coupling along z of the padded-box sum, O(N) per mode.

    The in-plane modes are summed up to `errors.elc_cutoff` at the split's
    accuracy splitting_error(params.s): the relative truncation of energies
    and forces is estimated below it.  Returns (energies, forces) over
    cumulative levels 0..M; forces is None without compute_forces.  Raises
    DomainError unless L_z > (M+1)H (`errors.elc_gap`).
    """
    plan = _mode_plan(system.cell, spec, params, system.n, CHUNK_ELEMENTS).elc
    return _elc_sum(system, plan, compute_forces)


@dataclass(frozen=True, eq=False)
class _Elc:
    """The position-independent part of the ELC mode sum at one parameter set."""

    partner: np.ndarray  # (levels, 2) the side q that side p couples with
    # per chunk of B modes: h_x, h_y, |h| (B,), C[l, p, h] (levels, 2, B) and
    # the force weights h_x, h_y, +-h per side p (3, 1, 2, B)
    chunks: tuple[tuple[np.ndarray, ...], ...]


def _elc_plan(cell: tuple[float, float, float], scale: np.ndarray, L_z: float,
              h_max: float, n: int, chunk_elements: int) -> _Elc:
    """The modes 0 < |h| <= h_max of the ELC sum and their coefficients, in chunks.

    Per in-plane mode h the coupling is a sum of decaying exponentials with
    per-particle factors u_i = e^{-h(H - z_i)} (side p = 0) and v_i = e^{-h z_i}
    (side 1), both bounded by 1, with side sums S_u, S_v.  Every image of scale
    gamma in `core.image_levels` adds gamma/2 e^{-h a} to a coefficient C[l, p]
    per side, with the offsets a of `core.elc_offsets`; an image that does not
    exist has scale 0 and adds exactly 0.  C[l, p] couples side p with side
    q = 1 - p on even levels and q = p on odd ones, and the energy is the sum
    of C[l, p] S_p conj(S_q).  The exponentially growing denominator
    1 - e^{h L_z} is folded in analytically, so every retained factor decays.
    A chunk holds at most chunk_elements // (2 max(n, 3 levels, 2 images))
    modes, or one.
    """
    lx, ly, H = cell
    levels = scale.shape[0]
    l = np.arange(levels)[:, None]
    a = elc_offsets(levels - 1, H, L_z)  # (l, image, p)
    w = 0.5 * scale[:, :, None, None]
    partner = np.arange(2) ^ (l % 2 == 0)  # side q that side p couples with, (l, p)
    sig = np.array([[1.0], [-1.0]])  # sign of d/dz of the u and v factors, per h
    base = -(2.0 * math.pi / (lx * ly)) * 2.0  # sign from folded denominator; 2 = half-plane
    hvecs = _half_plane_hvectors(lx, ly, h_max)
    width = max(1, chunk_elements // (2 * max(n, 3 * levels, 2 * np.count_nonzero(scale))))
    chunks = []
    for lo in range(0, len(hvecs), width):
        hx, hy = np.ascontiguousarray(hvecs[lo:lo + width].T)
        h = np.hypot(hx, hy)
        cc0 = base / (h * (1.0 - np.exp(-h * L_z)))
        coeff = (cc0 * w * np.exp(-a[..., None] * h)).sum(axis=1)  # C[l, p, modes]
        wts = np.stack(np.broadcast_arrays(hx, hy, sig * h))[:, None]  # (3, 1, side, modes)
        chunks.append((hx, hy, h, coeff, wts))
    for arr in [partner] + [arr for chunk in chunks for arr in chunk]:
        arr.flags.writeable = False
    return _Elc(partner, tuple(chunks))


def _elc_sum(system: ChargeSystem, plan: _Elc, compute_forces: bool):
    """`_elc_plan`'s mode sum at the positions: cumulative per-level (energies, forces).

    C[l, p] = C[l, q] (on even levels gamma_+ = gamma_- and the offsets swap),
    so the two conjugate halves of each force are equal and only one is
    contracted with the per-particle factors.
    """
    H, pos, q, n = system.height, system.positions, system.charges, system.n
    levels = plan.partner.shape[0]
    e_lv = np.zeros(levels)
    f_lv = np.zeros((levels, n, 3)) if compute_forces else None
    z = pos[:, 2]
    for hx, hy, h, coeff, wts in plan.chunks:
        phase = q * np.exp(1j * (hx[:, None] * pos[:, 0] + hy[:, None] * pos[:, 1]))
        g = np.stack([phase * np.exp(-h[:, None] * (H - z)), phase * np.exp(-h[:, None] * z)])
        s = g.sum(axis=2)  # (2, modes)
        d = coeff * np.conj(s)[plan.partner]  # C[l, p] conj(S_q)
        e_lv += np.einsum("lph,ph->l", d, s).real
        if compute_forces:
            # the conj(S_q) half of the force is the conjugate of this S_p half
            t = ((d * wts).reshape(3 * levels, -1) @ g.reshape(-1, n)).reshape(3, levels, n)
            f_lv[:, :, 0] += 2.0 * t[0].imag
            f_lv[:, :, 1] += 2.0 * t[1].imag
            f_lv[:, :, 2] -= 2.0 * t[2].real
    if compute_forces:
        f_lv = np.cumsum(f_lv, axis=0)
    return np.cumsum(e_lv), f_lv


def _terms(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
           compute_forces: bool, levels) -> LevelSweep:
    """One evaluation of the box `_box` builds, every term at `levels`.

    `levels` indexes the levels of the box's image table (0..M in the padded
    box; a slice, or a sequence of levels), and row r of the returned sweep is
    the r-th level it selects.  Only the reciprocal sum costs less for fewer
    levels; the other terms are indexed.  The lattice cell runs the padded
    box's terms on its own table, height and z-period, with YB (its dipole
    term) and without ELC (it has no inter-replica coupling).  Raises
    DomainError for an input outside the solvers' contract
    (`core.check_solvable`), for a lattice on walls without a z-period and,
    with ELC on in the padded box, unless L_z > (M+1)H (`errors.elc_gap`).
    ELC runs first, so that check comes before the costlier terms.
    """
    check_solvable(system, spec)
    box = _box(spec, params, system.height)
    elc = params.include_elc and box.period is None
    if elc:
        e_elc, f_elc = elc_correction(system, spec, params, compute_forces=compute_forces)
    top = box.scale.shape[0] - 1
    if box.period is None:
        # no pair past level m_real lies within r_c: its rows are 0
        m_real = min(top, real_space_reach(params.r_c, system.cell)[0])
        table = build_image_table(system, spec, m_real)
    else:
        m_real, table = top, _lattice_image_table(system, box)
    e_real, f_real = _real_space_pairs(system, table, params, compute_forces, box.period)
    e_four, f_four = _fourier3d_core(system, spec, params, compute_forces, levels)
    # repeats level m_real above it
    upto = np.minimum(np.arange(top + 1), m_real)[levels]
    energies = {"real": np.cumsum(e_real)[upto], "fourier3d": e_four,
                "self": np.full(len(e_four), self_energy(system, params.alpha))}
    forces = [np.cumsum(f_real, axis=0)[upto], f_four] if compute_forces else []
    if params.include_yb:
        e_yb, f_yb = (yb_correction(system, spec, params.M, params.L_z,
                                    compute_forces=compute_forces)
                      if box.period is None else _yb_levels(system, box, compute_forces))
        energies["yb"] = e_yb[levels]
        if compute_forces:
            forces.append(f_yb[levels])
    if elc:
        energies["elc"] = e_elc[levels]
        if compute_forces:
            forces.append(f_elc[levels])
    total_f = sum(forces) if compute_forces else np.zeros((len(e_four), system.n, 3))
    return LevelSweep(sum(energies.values()), total_f, energies)


def solve(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
          compute_forces: bool = True) -> EnergyForces:
    """Full solve: real + reciprocal + self, + YB and + ELC where
    params.include_yb and params.include_elc switch them on.

    method "padded" sums the images up to level M in the box of height L_z;
    method "lattice" sums the whole series at |gamma_u| = |gamma_d| = 1 as
    one z-period (`core.lattice_levels`), YB and ELC being part of it.
    Raises DomainError for an input outside `core.check_solvable`'s contract,
    for a lattice on other walls, and when ELC is on in the padded box and
    L_z <= (M+1)H.
    """
    return _terms(system, spec, params, compute_forces, [-1]).at(0)


def solve_levels(system: ChargeSystem, spec: DielectricSpec, params: EwaldParams,
                 compute_forces: bool = True) -> LevelSweep:
    """One padded-box evaluation reported at every truncation level 0..params.M.

    Used for sweeps over M at the cost of a single converged solve.  Raises
    DomainError as `solve` does, and for a lattice params: it has no
    truncation levels, so per-level sums belong to the padded box.
    """
    if params.method != "padded":
        raise DomainError("solve_levels sums the padded box's levels: it needs "
                          f"method='padded', got {params.method!r}")
    return _terms(system, spec, params, compute_forces, slice(None))
