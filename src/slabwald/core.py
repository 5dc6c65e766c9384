"""Domain types for slab-confined Coulomb systems and the reflected image-charge series.

Unit convention: the Coulomb constant is absorbed, so the bare pair energy is
q_i q_j / r.  Callers working in Gaussian/SI units apply their own 1/(4 pi eps_c)
scale on top.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

NEUTRALITY_RTOL = 1e-12
# Closest two charges may sit, a source to a source or to its own image: the
# real-space force forms erfc(alpha r) / r^3, which overflows below r ~ 5e-103.
MIN_SEPARATION = 1e-100


class DomainError(ValueError):
    """Raised when inputs violate a physical-domain precondition."""


@dataclass(frozen=True)
class ChargeSystem:
    """Point charges in a doubly periodic cell (L_x, L_y) confined to 0 <= z <= H."""

    positions: np.ndarray  # (N, 3)
    charges: np.ndarray    # (N,)
    cell: tuple[float, float, float]  # (L_x, L_y, H)

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(self.positions), dtype=float)
        q = np.ascontiguousarray(np.atleast_1d(self.charges), dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", q)
        object.__setattr__(self, "cell", tuple(float(c) for c in self.cell))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise DomainError("positions must be an (N, 3) array")
        if q.shape != (pos.shape[0],):
            raise DomainError("charges length must match positions")
        if pos.shape[0] < 1:
            raise DomainError("system must contain at least one particle")
        if not all(0 < c < math.inf for c in self.cell):
            raise DomainError("cell lengths must be positive and finite")
        if not (np.isfinite(pos).all() and np.isfinite(q).all()):
            raise DomainError("positions and charges must be finite")
        pos.flags.writeable = False
        q.flags.writeable = False

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def lx(self) -> float:
        return self.cell[0]

    @property
    def ly(self) -> float:
        return self.cell[1]

    @property
    def height(self) -> float:
        return self.cell[2]


@dataclass(frozen=True)
class DielectricSpec:
    """Reflection factors of the upper (z=H) and lower (z=0) walls."""

    gamma_u: float
    gamma_d: float

    def __post_init__(self):
        if not (abs(self.gamma_u) <= 1 and abs(self.gamma_d) <= 1):  # NaN fails too
            raise DomainError("reflection factors must satisfy |gamma| <= 1")

    @property
    def polarizable(self) -> bool:
        return self.gamma_u != 0.0 or self.gamma_d != 0.0


def reflection_factors(eps_u: float, eps_c: float, eps_d: float) -> DielectricSpec:
    """Build a DielectricSpec from layer permittivities.

    gamma = (eps_c - eps_out) / (eps_c + eps_out) at each wall; an ideal metal is
    passed as eps = math.inf and maps to gamma = -1 exactly.
    """
    if not (eps_c > 0 and math.isfinite(eps_c)):
        raise DomainError("eps_c must be finite and positive")
    for name, val in (("eps_u", eps_u), ("eps_d", eps_d)):
        if not val > 0:
            raise DomainError(f"{name} must be positive (or +inf for a metal)")

    def gamma(eps_out: float) -> float:
        if math.isinf(eps_out):
            return -1.0
        return (eps_c - eps_out) / (eps_c + eps_out)

    return DielectricSpec(gamma_u=gamma(eps_u), gamma_d=gamma(eps_d))


def image_scales(spec: DielectricSpec, level: int) -> tuple[float, float]:
    """Scales (gamma_plus, gamma_minus) of the level-l images of a unit source.

    The plus chain starts across the upper wall (z = H, gamma_u), the minus
    chain across the lower wall (z = 0, gamma_d); the walls then alternate.
    A scale below the smallest normal float is flushed to 0: it weighs
    nothing, and its rounding depends on the order of the factors (at
    gamma_u = 0.75, gamma_d = 2.5e-162 the level-5 plus scale is 0 as powers
    but 5e-324 as a chain of single reflections).
    """
    hi = (level + 1) // 2  # ceil(l/2)
    lo = level // 2        # floor(l/2)
    scales = (spec.gamma_u ** hi * spec.gamma_d ** lo,
              spec.gamma_u ** lo * spec.gamma_d ** hi)
    return tuple(g if abs(g) >= sys.float_info.min else 0.0 for g in scales)


def image_z_offsets(level: int, height: float) -> tuple[float, float]:
    """Constant c of the affine map z -> (-1)^l z + c for the plus/minus image."""
    hi = (level + 1) // 2
    lo = level // 2
    return (2.0 * hi * height, -2.0 * lo * height)


# a solve reads a few (spec, M, height) tables; a sweep over M reads one per M
@functools.lru_cache(maxsize=64)
def image_levels(spec: DielectricSpec, M: int, height: float) -> tuple[np.ndarray, np.ndarray]:
    """The image series as (M+1, 2) arrays scale[l, side] and offset[l, side].

    side 0 is the plus image, side 1 the minus image; level l maps z to
    (-1)^l z + offset.  Level 0 is the source itself, an ordinary image with
    scale (1, 0) and offset 0.  Entries with scale 0 are images that do not
    exist; callers prune them.  The table is built once per (spec, M, height)
    and shared by every caller, so both arrays are read-only.
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    scale = np.array([(1.0, 0.0)] + [image_scales(spec, l) for l in range(1, M + 1)])
    offset = np.array([image_z_offsets(l, height) for l in range(M + 1)])
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def lattice_period(spec: DielectricSpec, height: float) -> float | None:
    """The z-period P of the whole image series, or None where it has none.

    With |gamma_u| = |gamma_d| = 1 a reflection round trip (two levels) keeps
    the images' magnitude and moves them by 2H, so the series repeats in z:
    P = 2H when gamma_u = gamma_d (a cell holds the source at z and its image
    gamma_d at -z), and P = 4H with mixed signs (then also gamma_u at 2H - z
    and gamma_u gamma_d at 2H + z).
    """
    if abs(spec.gamma_u) != 1.0 or abs(spec.gamma_d) != 1.0:
        return None
    return (2.0 if spec.gamma_u == spec.gamma_d else 4.0) * height


@functools.lru_cache(maxsize=8)
def lattice_levels(spec: DielectricSpec, height: float) -> tuple[np.ndarray, np.ndarray]:
    """One period of the image series at ideal walls, as an `image_levels` table.

    The table is image_levels(spec, P/2H, height), P = `lattice_period`,
    except at its top level: the two images there coincide modulo P, and one
    period holds them once, so they are merged into the minus side at half
    their summed scale (for gamma_u = gamma_d this is spec (0, gamma_d) at
    M = 1).  Every other image of the series is one of these plus a multiple
    of P.  Raises DomainError unless |gamma_u| = |gamma_d| = 1.  The arrays
    are shared and read-only.
    """
    period = lattice_period(spec, height)
    if period is None:
        raise DomainError("the image series is periodic in z only with |gamma_u| = "
                          f"|gamma_d| = 1, got ({spec.gamma_u:g}, {spec.gamma_d:g})")
    scale, offset = image_levels(spec, round(period / (2.0 * height)), height)
    scale = scale.copy()
    scale[-1] = (0.0, 0.5 * scale[-1].sum())
    scale.flags.writeable = False
    return scale, offset


def elc_offsets(M: int, height: float, L_z: float) -> np.ndarray:
    """Offsets a[l, image, side] of the inter-replica (ELC) coupling, shape (M+1, 2, 2).

    The coupling of an `image_levels` entry with the particles' wall side p
    (p = 0 the upper wall, 1 the lower) falls as e^{-h a} per in-plane mode h,
    with a = L_z + (l-1)H for p = 0 and L_z - (l+1)H for p = 1 on the plus
    image, swapped on the minus image.  The smallest, L_z - (M+1)H, is the gap
    between the image stack and its nearest z-replica.
    """
    l = np.arange(M + 1)
    a = np.empty((M + 1, 2, 2))
    a[:, 0, 0] = a[:, 1, 1] = L_z + (l - 1) * height
    a[:, 0, 1] = a[:, 1, 0] = L_z - (l + 1) * height
    return a


def real_space_reach(r_c: float, cell: tuple[float, float, float]) -> tuple[int, int, int]:
    """(level, x rings, y rings): how far a pair within r_c can reach.

    A level-l image (l >= 2) lies at least (l-1)H from every source, so no
    level above floor(r_c/H) + 1 holds a pair within r_c.  With xy separations
    wrapped into the primary cell, replica m along an axis of length L lies at
    least |m|L - L/2 away, so no ring beyond floor((r_c + L/2)/L) does.  Each
    count includes its edge: it steps up at r_c = kH and at r_c = (m + 1/2)L.
    """
    lx, ly, h = cell
    return (math.floor(r_c / h) + 1, math.floor((r_c + lx / 2) / lx),
            math.floor((r_c + ly / 2) / ly))


def z_replica_reach(r_c: float, period: float) -> int:
    """z rings of a cell of z-period P that a pair within r_c can reach.

    With z separations wrapped into [-P/2, P/2], replica n lies at least
    |n|P - P/2 away, so no ring beyond floor((r_c + P/2)/P) holds a pair
    within r_c; as `real_space_reach`'s rings, the count steps up at
    r_c = (n + 1/2)P.
    """
    return math.floor((r_c + period / 2) / period)


def real_space_step_edge(r_c: float, cell: tuple[float, float, float]) -> float:
    """The smallest cutoff above r_c at which `real_space_reach` steps up.

    Every cutoff in [r_c, edge) has the reach of r_c.
    """
    level, mx, my = real_space_reach(r_c, cell)
    lx, ly, h = cell
    return min(level * h, (mx + 0.5) * lx, (my + 0.5) * ly)


@dataclass(frozen=True)
class ImageCharge:
    """One reflected image of a source particle.

    The image sits at (x, y, parity*z + z_offset) with charge scale*q, where
    (x, y, z) is the source position and parity = (-1)^level.
    """

    source: int
    level: int
    side: str  # 'plus' (upper half-space images) or 'minus' (lower)
    scale: float
    z_offset: float

    @property
    def parity(self) -> int:
        return -1 if self.level % 2 else 1


def image_series(system: ChargeSystem, spec: DielectricSpec, M: int) -> list[ImageCharge]:
    """All images of every source for levels 1..M, pruning exact zero scales."""
    if M < 0:
        raise DomainError("M must be >= 0")
    h = system.height
    out: list[ImageCharge] = []
    for level in range(1, M + 1):
        g_plus, g_minus = image_scales(spec, level)
        c_plus, c_minus = image_z_offsets(level, h)
        for j in range(system.n):
            if g_plus != 0.0:
                out.append(ImageCharge(j, level, "plus", g_plus, c_plus))
            if g_minus != 0.0:
                out.append(ImageCharge(j, level, "minus", g_minus, c_minus))
    return out


def image_position(img: ImageCharge, system: ChargeSystem) -> np.ndarray:
    x, y, z = system.positions[img.source]
    return np.array([x, y, img.parity * z + img.z_offset])


# how `ewald3d.solve` sums the image series: the padded box, or the exact z-periodic lattice
METHODS = ("padded", "lattice")


@dataclass(frozen=True)
class EwaldParams:
    """A solve's configuration: the split alpha, s (r_c = s/alpha, k_c = 2 s alpha),
    L_z, M, the YB/ELC switches and the method; ewald2d reads alpha, s, M.

    method "padded" sums images up to level M in a box of height L_z, with the
    YB and ELC corrections where switched on.  method "lattice" sums the whole
    series at ideal walls (|gamma| = 1 at both) as one z-period
    (`core.lattice_period`); it needs both switches on, as the exact sum has
    no inter-replica coupling and its dipole term is exactly YB, and it does
    not read M or L_z, which keep the padded rule's values.
    """

    alpha: float
    s: float
    L_z: float
    M: int
    include_yb: bool = True
    include_elc: bool = True
    method: str = "padded"

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "lattice" and not (self.include_yb and self.include_elc):
            raise DomainError("the lattice is the full sum: include_yb and include_elc "
                              "must be on (switching one off needs method='padded')")
        if not (0 < self.alpha < math.inf and 0 < self.s < math.inf):
            raise DomainError("alpha and s must be positive and finite")
        if not math.isfinite(self.L_z):
            raise DomainError("L_z must be finite")
        try:
            operator.index(self.M)  # int or numpy integer; a float or str is refused
        except TypeError:
            raise DomainError(f"M must be an integer, got {self.M!r}") from None
        if self.M < 0:
            raise DomainError("M must be >= 0")

    @property
    def r_c(self) -> float:
        return self.s / self.alpha

    @property
    def k_c(self) -> float:
        return 2.0 * self.s * self.alpha


@dataclass(frozen=True)
class EnergyForces:
    """Total energy, per-particle forces, and a per-term energy breakdown."""

    energy: float
    forces: np.ndarray  # (N, 3)
    breakdown: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.forces, dtype=float)
        object.__setattr__(self, "forces", f)
        if self.breakdown:
            total = sum(self.breakdown.values())
            scale = max(abs(self.energy), 1.0)
            if abs(total - self.energy) > 1e-12 * scale:
                raise AssertionError(
                    f"breakdown sums to {total!r}, energy is {self.energy!r}")


@dataclass(frozen=True)
class LevelSweep:
    """Cumulative results of one evaluation at every truncation level 0..M.

    Entry [m] of each array is the result with the image series truncated at
    level m; forces are zero where they were not computed.
    """

    energies: np.ndarray                  # (M+1,)
    forces: np.ndarray                    # (M+1, N, 3)
    term_energies: dict[str, np.ndarray]  # term name -> (M+1,)

    def at(self, m: int) -> EnergyForces:
        """The result truncated at level m."""
        breakdown = {name: float(e[m]) for name, e in self.term_energies.items()}
        return EnergyForces(float(self.energies[m]), self.forces[m], breakdown)


@dataclass(frozen=True)
class Violation:
    invariant: str
    index: int | None
    message: str


def validate(system: ChargeSystem) -> list[Violation]:
    """Check ChargeSystem invariants; empty list means ok.

    Sources exactly on a wall (z = 0 or z = H) are legal but reported as a
    warning-grade violation, since their images then coincide with them.
    """
    out: list[Violation] = []
    q = system.charges
    qmax = np.max(np.abs(q))
    total = float(np.sum(q))
    if abs(total) > NEUTRALITY_RTOL * max(qmax, 1e-300):
        out.append(Violation("neutrality", None,
                             f"total charge {total:g} is not zero"))
    z = system.positions[:, 2]
    bad = np.where((z < 0) | (z > system.height))[0]
    if bad.size:
        i = int(bad[0])
        out.append(Violation("confinement", i,
                             f"z[{i}] = {z[i]:g} outside [0, {system.height:g}]"))
    on_wall = np.where((z == 0.0) | (z == system.height))[0]
    if on_wall.size:
        i = int(on_wall[0])
        out.append(Violation("on-interface (warning)", i,
                             f"z[{i}] lies exactly on a dielectric interface"))
    return out


def check_solvable(system: ChargeSystem, spec: DielectricSpec) -> None:
    """The solvers' input contract: raise DomainError on a violation they cannot evaluate.

    A non-neutral or unconfined system is rejected, and so is a source exactly
    on a wall that reflects it: there it coincides with its own level-1 image
    -z + c (at z = c/2), and the pair energy is infinite.  So are two sources
    at one position once x and y are wrapped into the cell, with the
    minimum-image arithmetic of the real-space sum.  "At" means closer than
    MIN_SEPARATION, where the pair force would overflow.
    """
    for v in validate(system):
        if v.invariant in ("neutrality", "confinement"):
            raise DomainError(f"{v.invariant}: {v.message}")
    scale, offset = image_levels(spec, 1, system.height)
    z = system.positions[:, 2]
    # a source's level-1 image sits |2z - c| away from it
    on_wall = (np.abs(2 * z[:, None] - offset[1, scale[1] != 0]) < MIN_SEPARATION).any(axis=1)
    if on_wall.any():
        i = int(np.argmax(on_wall))
        raise DomainError(f"on-interface: z[{i}] = {z[i]:g} lies on a wall that "
                          "reflects it onto itself (gamma != 0)")
    if (np.diff(np.sort(z)) < MIN_SEPARATION).any():  # only sources this close in z can coincide
        d = system.positions[:, None, :] - system.positions
        d[..., :2] -= np.array(system.cell[:2]) * np.round(d[..., :2] / system.cell[:2])
        close = np.einsum("ijk,ijk->ij", d, d) < MIN_SEPARATION ** 2
        i, j = np.nonzero(np.triu(close, k=1))
        if i.size:
            raise DomainError(f"coincident: particles {i[0]} and {j[0]} share a position")


def read_system(path) -> ChargeSystem:
    """Parse the plain-text system format: 'cell Lx Ly H' header, then 'x y z q' rows."""
    cell = None
    pos: list[list[float]] = []
    q: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            kind = "cell" if tok[0] == "cell" else "particle"
            if len(tok) != 4:
                raise DomainError(f"bad {kind} line: {raw!r}")
            try:
                vals = [float(t) for t in (tok[1:] if kind == "cell" else tok)]
            except ValueError:
                raise DomainError(f"line {lineno}: non-numeric field in {kind} line "
                                  f"{raw!r}") from None
            if kind == "cell":
                cell = tuple(vals)
            else:
                pos.append(vals[:3])
                q.append(vals[3])
    if cell is None:
        raise DomainError("missing 'cell Lx Ly H' header line")
    return ChargeSystem(np.array(pos), np.array(q), cell)


def write_system(path, system: ChargeSystem) -> None:
    with open(path, "w") as fh:
        fh.write("cell %.17g %.17g %.17g\n" % system.cell)
        for (x, y, z), qq in zip(system.positions, system.charges):
            fh.write("%.17g %.17g %.17g %.17g\n" % (x, y, z, qq))
