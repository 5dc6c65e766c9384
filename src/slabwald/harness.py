"""Sweep harness: seeded test systems, error sweeps over M / padding, decay fits.

The random generator is pinned bit-exactly (splitmix64) so generated fixtures
are portable across platforms and implementations.  Sweep output is a fixed CSV
schema: ``sweep_var,value,rel_err,estimate,wall_ms`` with 17-significant-digit
scientific notation; everything except wall_ms is deterministic for a given
config and seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import errors as err
from . import ewald3d
from .core import ChargeSystem, DielectricSpec, DomainError, EnergyForces, EwaldParams
from .ewald2d import icm_level_sweep

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
NOISE_FLOOR = 1e-14
TRAP_TOL = 1e-14


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; z ^= z>>30; z *= 0xBF58476D1CE4E5B9;
    z ^= z>>27; z *= 0x94D049BB133111EB; z ^= z>>31.  Doubles are (z >> 11) * 2^-53.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


DEFAULT_COMPOSITION = ((13, 2.0), (26, -1.0))


def parse_composition(text: str) -> tuple[tuple[int, float], ...]:
    """Parse '13:+2,26:-1' into ((13, 2.0), (26, -1.0))."""
    out = []
    for part in text.split(","):
        count, valence = part.split(":")
        out.append((int(count), float(valence)))
    return tuple(out)


def gen_system(seed: int, composition=DEFAULT_COMPOSITION,
               geometry=(10.0, 10.0, 1.0)) -> ChargeSystem:
    """Deterministic uniform random system; charges in composition order,
    coordinates drawn x, y, z per particle."""
    total = sum(c * v for c, v in composition)
    if abs(total) > 1e-12 * max(abs(v) for _, v in composition):
        raise DomainError(f"composition not charge-neutral (sum {total:g})")
    lx, ly, h = geometry
    rng = SplitMix64(seed)
    charges = []
    for count, valence in composition:
        charges.extend([valence] * count)
    pos = np.empty((len(charges), 3))
    for i in range(len(charges)):
        pos[i, 0] = rng.next_double() * lx
        pos[i, 1] = rng.next_double() * ly
        pos[i, 2] = rng.next_double() * h
    return ChargeSystem(pos, np.array(charges), geometry)


@dataclass(frozen=True)
class SweepConfig:
    scenario: str
    geometry: tuple[float, float, float]
    gamma_u: float
    gamma_d: float
    sweep: str                      # M | P | Lz
    grid: tuple[float, ...]
    mode: str = "ewald3d"           # ewald3d | truncation
    quantity: str = "force"         # force | energy
    s: float = 6.0
    M: int = 0                      # fixed M for P/Lz sweeps
    Lz: float | None = None         # fixed L_z for M sweeps (else from P)
    P: float | None = None          # fixed padding ratio for M sweeps
    include_yb: bool = True
    include_elc: bool = False
    seed: int = 1
    composition: tuple[tuple[int, float], ...] = DEFAULT_COMPOSITION
    alpha: float | None = None

    def __post_init__(self):
        if self.sweep not in ("M", "P", "Lz"):
            raise DomainError(f"unknown sweep variable {self.sweep!r}")
        if self.mode not in ("ewald3d", "truncation"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.quantity not in ("force", "energy"):
            raise DomainError(f"unknown quantity {self.quantity!r}")
        if list(self.grid) != sorted(self.grid) or len(set(self.grid)) != len(self.grid):
            raise DomainError("grid must be strictly increasing")
        for name in ("s", "alpha"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")

    @property
    def spec(self) -> DielectricSpec:
        return DielectricSpec(self.gamma_u, self.gamma_d)

    def fixed_Lz(self) -> float:
        if self.Lz is not None:
            return float(self.Lz)
        if self.P is not None:
            return self.geometry[2] + self.P * self.geometry[0]
        raise DomainError("M sweep in ewald3d mode needs a fixed Lz or P")


@dataclass(frozen=True)
class SweepRow:
    sweep_var: str
    value: float
    rel_err: float
    estimate: float
    wall_ms: float

    def __post_init__(self):
        if not (math.isnan(self.rel_err) or self.rel_err >= 0):
            raise DomainError("rel_err must be nonnegative")


def parse_config(text: str) -> list[SweepConfig]:
    """Flat key=value scenarios under [name] sections; '#' starts a comment."""
    sections: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections.append((line[1:-1].strip(), current))
            continue
        if current is None or "=" not in line:
            raise DomainError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        current[key.strip()] = val.strip()
    out = []
    for name, kv in sections:
        sweep = kv.get("sweep", "M")
        grid_vals = tuple(float(v) for v in kv["grid"].split(","))
        out.append(SweepConfig(
            scenario=name,
            geometry=(float(kv.get("Lx", 10)), float(kv.get("Ly", 10)),
                      float(kv.get("H", 1))),
            gamma_u=float(kv.get("gamma_u", 0)),
            gamma_d=float(kv.get("gamma_d", 0)),
            sweep=sweep,
            grid=grid_vals,
            mode=kv.get("mode", "ewald3d"),
            quantity=kv.get("quantity", "force"),
            s=float(kv.get("s", 6)),
            M=int(kv.get("M", 0)),
            Lz=float(kv["Lz"]) if "Lz" in kv else None,
            P=float(kv["P"]) if "P" in kv else None,
            include_yb=kv.get("yb", "on") == "on",
            include_elc=kv.get("elc", "off") == "on",
            seed=int(kv.get("seed", 1)),
            composition=parse_composition(kv["composition"])
            if "composition" in kv else DEFAULT_COMPOSITION,
            alpha=float(kv["alpha"]) if "alpha" in kv else None,
        ))
    return out


def reference_level(spec: DielectricSpec, geometry, tol: float = 1e-15) -> int:
    """Smallest M whose truncation estimate falls below tol (converged reference)."""
    lx, ly, h = geometry
    if spec.gamma_u == 0.0 and spec.gamma_d == 0.0:
        return 0
    if spec.gamma_u == 0.0 or spec.gamma_d == 0.0:
        return 1
    for m in range(0, 5001):
        if err.image_truncation_energy(m, spec.gamma_u, spec.gamma_d, h, lx, ly) < tol:
            return m
    raise DomainError("image series converges too slowly for a reference")


def default_alpha(s: float, geometry, L_z: float | None = None) -> float:
    """alpha of the ewald2d references and sweeps: the fixed rule
    r_c = min(L_x, L_y)/1.2, not a cost balance (`tuner.default_alpha_policy`
    picks the tuned solves' alpha).  Given L_z, alpha is raised if needed so
    the k_z-discretization remainder stays below TRAP_TOL."""
    lx, ly, h = geometry
    alpha = 1.2 * s / min(lx, ly)
    if L_z is not None:
        alpha = max(alpha, math.sqrt(math.log(1.0 / TRAP_TOL)) / (L_z - h))
    return alpha


def force_rel_err(forces: np.ndarray, ref: np.ndarray) -> float:
    """max_i |F_i - F_ref,i| / |F_ref,i|, skipping near-zero reference forces."""
    dev = np.linalg.norm(forces - ref, axis=1)
    mag = np.linalg.norm(ref, axis=1)
    keep = mag > 1e-9 * mag.max()
    return float(np.max(dev[keep] / mag[keep]))


def _reference_params(config) -> EwaldParams:
    return EwaldParams(alpha=default_alpha(6.0, config.geometry), s=6.0,
                       L_z=2.0 * config.geometry[2],
                       M=reference_level(config.spec, config.geometry))


def _padded_params(config, L_z: float, M: int) -> EwaldParams:
    alpha = (default_alpha(config.s, config.geometry, L_z) if config.alpha is None
             else config.alpha)
    return EwaldParams(alpha=alpha, s=config.s, L_z=L_z, M=M, include_yb=config.include_yb,
                       include_elc=config.include_elc)


def _measure(config, res: EnergyForces, ref: EnergyForces) -> float:
    if config.quantity == "energy":
        return abs(res.energy - ref.energy) / abs(ref.energy)
    return force_rel_err(res.forces, ref.forces)


def _estimate(config, m: int, L_z: float | None) -> float:
    lx, ly, h = config.geometry
    gu, gd = config.gamma_u, config.gamma_d
    if config.quantity == "force":
        trunc = err.image_truncation_force(m, gu, gd, h, lx, ly)
    else:
        trunc = err.image_truncation_energy(m, gu, gd, h, lx, ly)
    elc = err.elc_energy_estimate(m, gu, gd, h, lx, ly, L_z) if L_z is not None else 0.0
    if config.mode == "truncation":
        return trunc
    if config.sweep == "M":
        return trunc + elc
    return elc


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Execute one sweep; a P or L_z point that raises DomainError becomes a NaN
    row, and the sweep continues."""
    system = gen_system(config.seed, config.composition, config.geometry)
    spec = config.spec
    want_f = config.quantity == "force"
    ref_params = _reference_params(config)
    truncation = config.sweep == "M" and config.mode == "truncation"
    if not truncation:
        ref = icm_level_sweep(system, spec, ref_params, compute_forces=want_f).at(ref_params.M)
    rows: list[SweepRow] = []

    if config.sweep == "M":
        grid = [int(v) for v in config.grid]
        lz = None if truncation else config.fixed_Lz()
        t1 = time.perf_counter()
        if truncation:
            # the reference run on: a level's result does not depend on the levels after it
            params = replace(ref_params, M=max(ref_params.M, *grid))
            sweep = icm_level_sweep(system, spec, params, compute_forces=want_f)
            ref = sweep.at(ref_params.M)
        else:
            sweep = ewald3d.solve_levels(system, spec, _padded_params(config, lz, max(grid)),
                                         compute_forces=want_f)
        per_point = (time.perf_counter() - t1) * 1000.0 / len(grid)
        for m in grid:
            rows.append(SweepRow("M", float(m), _measure(config, sweep.at(m), ref),
                                 _estimate(config, m, lz), per_point))
    else:  # P or Lz sweep at fixed M
        lx, ly, h = config.geometry
        for v in config.grid:
            lz = h + v * lx if config.sweep == "P" else float(v)
            t1 = time.perf_counter()
            try:
                res = ewald3d.solve(system, spec, _padded_params(config, lz, config.M),
                                    compute_forces=want_f)
                rel = _measure(config, res, ref)
            except DomainError:
                rel = math.nan
            wall = (time.perf_counter() - t1) * 1000.0
            rows.append(SweepRow(config.sweep, float(v), rel,
                                 _estimate(config, config.M, lz), wall))
    return rows


CSV_HEADER = "sweep_var,value,rel_err,estimate,wall_ms"


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append("%s,%.16e,%.16e,%.16e,%.16e"
                     % (r.sweep_var, r.value, r.rel_err, r.estimate, r.wall_ms))
    return "\n".join(lines) + "\n"


class FitDegenerateError(ValueError):
    """All rows at or below the noise floor: nothing to fit."""


@dataclass(frozen=True)
class FitResult:
    model: str
    rate: float          # decay rate in the model's regressor (nan for composite)
    prefactor: float
    residual: float      # rms log-space misfit
    extras: dict = field(default_factory=dict)


def _loglinear(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    ly = np.log(y)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = float(np.sqrt(np.mean((ly - a @ coef) ** 2)))
    return float(coef[0]), float(math.exp(coef[1])), resid


def fit_decay(rows: list[SweepRow], model: str,
              config: SweepConfig | None = None,
              floor: float = NOISE_FLOOR) -> FitResult:
    """Fit a decay model to sweep rows (log-space least squares).

    Models: 'exp-in-M' / 'exp-in-M-force' regress on the half-level count
    floor((M+1)/2) (the force variant divides out the known 1/n factor first);
    'exp-in-P' regresses on the padding ratio; 'composite' fits amplitudes
    (A, B) of truncation-term + layer-coupling-term with relative weighting
    (needs the sweep config for geometry).
    """
    pts = [(r.value, r.rel_err) for r in rows
           if math.isfinite(r.rel_err) and r.rel_err > floor]
    if len(pts) < 4:
        raise FitDegenerateError("fewer than 4 rows above the noise floor")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])

    if model == "exp-in-M":
        n = np.maximum((x.astype(int) + 1) // 2, 1).astype(float)
        rate, pref, resid = _loglinear(n, y)
        return FitResult(model, rate, pref, resid)
    if model == "exp-in-M-force":
        n = np.maximum((x.astype(int) + 1) // 2, 1).astype(float)
        rate, pref, resid = _loglinear(n, y * n)
        return FitResult(model, rate, pref, resid)
    if model == "exp-in-P":
        rate, pref, resid = _loglinear(x, y)
        return FitResult(model, rate, pref, resid)
    if model in ("composite", "trunc-term", "elc-term"):
        if config is None:
            raise DomainError(f"{model} fit needs the sweep config")
        lx, ly_, h = config.geometry
        lz = config.fixed_Lz()
        gu, gd = config.gamma_u, config.gamma_d
        t = np.array([err.image_truncation_energy(int(m), gu, gd, h, lx, ly_)
                      for m in x])
        e = np.array([err.elc_energy_estimate(int(m), gu, gd, h, lx, ly_, lz)
                      for m in x])
        cols = {"composite": (t, e), "trunc-term": (t,), "elc-term": (e,)}[model]
        # Amplitudes are fitted in log space so rows near a deep interior
        # minimum do not dominate the objective.
        logy = np.log(y)

        def resid_fn(logc):
            pred = sum(np.exp(c) * col for c, col in zip(logc, cols))
            return np.log(np.maximum(pred, 1e-300)) - logy

        x0 = np.array([np.mean(logy - np.log(np.maximum(col, 1e-300)))
                       for col in cols])
        from scipy import optimize  # lazily: a large share of `import slabwald`
        sol = optimize.least_squares(resid_fn, x0)
        coef = np.exp(sol.x)
        resid = float(np.sqrt(np.mean(resid_fn(sol.x) ** 2)))
        extras = {"A": float(coef[0])}
        if model == "composite":
            extras["B"] = float(coef[1])
        return FitResult(model, math.nan, float(coef[0]), resid, extras=extras)
    raise DomainError(f"unknown fit model {model!r}")
