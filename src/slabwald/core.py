"""Domain types for slab-confined Coulomb systems and the reflected image-charge series.

Unit convention: the Coulomb constant is absorbed, so the bare pair energy is
q_i q_j / r.  Callers working in Gaussian/SI units apply their own 1/(4 pi eps_c)
scale on top.
"""

from __future__ import annotations

import math
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
    """
    hi = (level + 1) // 2  # ceil(l/2)
    lo = level // 2        # floor(l/2)
    return (spec.gamma_u ** hi * spec.gamma_d ** lo,
            spec.gamma_u ** lo * spec.gamma_d ** hi)


def image_z_offsets(level: int, height: float) -> tuple[float, float]:
    """Constant c of the affine map z -> (-1)^l z + c for the plus/minus image."""
    hi = (level + 1) // 2
    lo = level // 2
    return (2.0 * hi * height, -2.0 * lo * height)


def image_levels(spec: DielectricSpec, M: int, height: float) -> tuple[np.ndarray, np.ndarray]:
    """The image series as (M+1, 2) arrays scale[l, side] and offset[l, side].

    side 0 is the plus image, side 1 the minus image; level l maps z to
    (-1)^l z + offset.  Level 0 is the source itself, an ordinary image with
    scale (1, 0) and offset 0.  Entries with scale 0 are images that do not
    exist; callers prune them.
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    scale = np.array([(1.0, 0.0)] + [image_scales(spec, l) for l in range(1, M + 1)])
    offset = np.array([image_z_offsets(l, height) for l in range(M + 1)])
    return scale, offset


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


@dataclass(frozen=True)
class EwaldParams:
    """Tunable parameters of the split: alpha, s with r_c = s/alpha and k_c = 2 s alpha."""

    alpha: float
    s: float
    L_z: float
    M: int

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.s < math.inf):
            raise DomainError("alpha and s must be positive and finite")
        if not math.isfinite(self.L_z):
            raise DomainError("L_z must be finite")
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
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if tok[0] == "cell":
                if len(tok) != 4:
                    raise DomainError(f"bad cell line: {raw!r}")
                cell = (float(tok[1]), float(tok[2]), float(tok[3]))
            else:
                if len(tok) != 4:
                    raise DomainError(f"bad particle line: {raw!r}")
                vals = [float(t) for t in tok]
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
