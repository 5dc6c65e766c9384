"""The benchmark's workloads: seeded inputs, the timed operation and its checks.

Each workload is driven as a closed loop by one caller: the next input is made
only after the previous operation returned.  Inputs depend on the seed alone
(never on a computed energy), so the same seed gives the same input sequence
on every commit.  The program under test receives only ChargeSystems (or, for
the sweep workload, the SweepConfig that names one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from slabwald import core, ewald2d, ewald3d, harness, tuner
from slabwald.core import ChargeSystem, DielectricSpec, EwaldParams

import counts

GEOMETRY = (10.0, 10.0, 1.0)
# N = 195 rather than 390: a solve takes about 0.8 s instead of 3 s, so one run
# holds a dozen of them; its 10.6 MB pair arrays still dwarf the caches.
DENSE_COMPOSITION = ((65, 2.0), (130, -1.0))
# N = 21 rather than the default 39: a sweep takes about 1.3 s instead of 4.5 s,
# so one run holds several of them.
SWEEP_COMPOSITION = ((7, 2.0), (14, -1.0))

# Correctness criteria.  A solve must match its reference within
# CHECK_FACTOR * epsilon (relative energy; forces as max |dF_i| / max |F_ref,i|).
CHECK_FACTOR = 10.0
# alpha-independence check: re-solve at epsilon / ALPHA_CHECK_TIGHTEN with
# alpha = s / ALPHA_CHECK_RC, a different split than the tuned one.
ALPHA_CHECK_TIGHTEN = 100.0
ALPHA_CHECK_RC = 3.5
SWEEP_GRID = tuple(float(m) for m in range(0, 61, 2))
# The landscape minimum must lie this far below the M = 0 (no image) error.
# A ratio, not an absolute level: rel_err is a per-particle maximum, so a
# particle with a small force scales every row of a sweep by the same factor.
SWEEP_MIN_DEPTH = 1e-5


def _continue_after_gen(seed: int, n: int) -> harness.SplitMix64:
    """SplitMix64(seed) advanced past the 3n draws gen_system(seed) consumed."""
    rng = harness.SplitMix64(seed)
    for _ in range(3 * n):
        rng.next_u64()
    return rng


def _move_z(z: float, d: float, height: float) -> float:
    """z + d, or z - d when that leaves (0, H); |d| < H/2 keeps either inside."""
    znew = z + d
    return znew if 0.0 < znew < height else z - d


def random_walk(seed: int, composition, step: float,
                single: bool) -> Iterator[ChargeSystem]:
    """gen_system(seed), then displacements of up to `step` per axis: of every
    particle each step (a trajectory), or of one random particle (a trial move).

    Every move is kept, so the sequence does not depend on computed energies.
    """
    system = harness.gen_system(seed, composition, GEOMETRY)
    yield system
    rng = _continue_after_gen(seed, system.n)
    lx, ly, h = GEOMETRY
    n = system.n
    pos = system.positions.copy()
    while True:
        movers = [min(int(rng.next_double() * n), n - 1)] if single else range(n)
        for i in movers:
            dx, dy, dz = ((2.0 * rng.next_double() - 1.0) * step for _ in range(3))
            pos[i, 0] = (pos[i, 0] + dx) % lx
            pos[i, 1] = (pos[i, 1] + dy) % ly
            pos[i, 2] = _move_z(pos[i, 2], dz, h)
        yield ChargeSystem(pos.copy(), system.charges, GEOMETRY)


def force_error(forces: np.ndarray, ref: np.ndarray) -> float:
    """max_i |F_i - F_ref,i| / max_i |F_ref,i|."""
    return float(np.linalg.norm(forces - ref, axis=1).max()
                 / np.linalg.norm(ref, axis=1).max())


def icm_reference(system: ChargeSystem, spec: DielectricSpec,
                  compute_forces: bool) -> core.EnergyForces:
    """Converged ewald2d image-charge reference, as the sweep harness builds it."""
    return ewald2d.energy_icm(system, spec, counts.icm_reference_params(system, spec),
                              compute_forces=compute_forces)


@dataclass(frozen=True)
class SolveWorkload:
    """Repeated ewald3d.solve calls at parameters tuned once for epsilon."""

    name: str
    composition: tuple
    gamma: float
    epsilon: float
    compute_forces: bool
    moves: str               # "trajectory" (all particles) | "trial" (one particle)
    step: float
    reference: str           # "icm" (ewald2d) | "alpha" (alpha independence)
    checked_ops: int         # measured operations compared with the reference

    @property
    def spec(self) -> DielectricSpec:
        return DielectricSpec(self.gamma, self.gamma)

    def system(self, x: ChargeSystem) -> ChargeSystem:
        return x

    def inputs(self, seed: int) -> Iterator[ChargeSystem]:
        return random_walk(seed, self.composition, self.step,
                           single=self.moves == "trial")

    def tune(self) -> EwaldParams:
        req = tuner.ToleranceRequest(self.epsilon, GEOMETRY, self.spec)
        return tuner.select_all(req).params

    def run(self, params: EwaldParams, system: ChargeSystem):
        return ewald3d.solve(system, self.spec, params,
                             compute_forces=self.compute_forces)

    def probe(self, params: EwaldParams, system: ChargeSystem):
        """The reciprocal layer alone, on the inputs the solve just used."""
        return ewald3d.fourier3d_energy(system, self.spec, params,
                                        compute_forces=self.compute_forces)

    def work_counts(self, params: EwaldParams, system: ChargeSystem) -> dict:
        out = counts.solve_counts(system, self.spec, params, elc=True)
        out["ewald2d.pair_mode_terms"] = 0.0
        return out

    def check_result(self, params, system, result) -> str | None:
        """Cheap check applied to every operation."""
        if not math.isfinite(result.energy):
            return f"energy {result.energy!r} is not finite"
        if self.compute_forces and (result.forces.shape != (system.n, 3)
                                    or not np.isfinite(result.forces).all()):
            return "forces missing or not finite"
        return None

    def check_reference(self, params, system, result) -> str | None:
        """Expensive check against an independent evaluation."""
        tol = CHECK_FACTOR * self.epsilon
        if self.reference == "icm":
            ref = icm_reference(system, self.spec, self.compute_forces)
        else:
            req = tuner.ToleranceRequest(self.epsilon / ALPHA_CHECK_TIGHTEN,
                                         GEOMETRY, self.spec)
            alt = tuner.select_all(req, alpha_policy=lambda _req, s: s / ALPHA_CHECK_RC)
            ref = ewald3d.solve(system, self.spec, alt.params,
                                compute_forces=self.compute_forces)
        de = abs(result.energy - ref.energy) / abs(ref.energy)
        if not de <= tol:
            return f"relative energy error {de:.3e} > {tol:.1e}"
        if self.compute_forces:
            df = force_error(result.forces, ref.forces)
            if not df <= tol:
                return f"force error {df:.3e} > {tol:.1e}"
        return None


@dataclass(frozen=True)
class SweepWorkload:
    """One harness.run_sweep per operation: error vs M against ewald2d."""

    name: str
    gamma: float = 0.95
    P: float = 4.0
    composition: tuple = SWEEP_COMPOSITION
    checked_ops: int = 0     # every operation is fully checked by check_result

    @property
    def spec(self) -> DielectricSpec:
        return DielectricSpec(self.gamma, self.gamma)

    def config(self, seed: int) -> harness.SweepConfig:
        return harness.SweepConfig(
            scenario=self.name, geometry=GEOMETRY, gamma_u=self.gamma,
            gamma_d=self.gamma, sweep="M", grid=SWEEP_GRID, P=self.P,
            quantity="force", seed=seed, composition=self.composition)

    def inputs(self, seed: int) -> Iterator[harness.SweepConfig]:
        rng = harness.SplitMix64(seed)
        while True:
            yield self.config(rng.next_u64())

    def tune(self) -> EwaldParams:
        """The padded-box parameters run_sweep derives for this config."""
        cfg = self.config(0)
        lz = cfg.fixed_Lz()
        return EwaldParams(alpha=harness.default_alpha(cfg.s, GEOMETRY, lz),
                           s=cfg.s, L_z=lz, M=int(max(SWEEP_GRID)))

    def run(self, params, cfg):
        return harness.run_sweep(cfg)

    def system(self, cfg) -> ChargeSystem:
        return harness.gen_system(cfg.seed, cfg.composition, cfg.geometry)

    def probe(self, params, cfg):
        return None

    def work_counts(self, params: EwaldParams, cfg) -> dict:
        system = self.system(cfg)
        out = counts.solve_counts(system, self.spec, params, elc=cfg.include_elc)
        out["ewald2d.pair_mode_terms"] = counts.reference_pair_mode_terms(system, self.spec)
        return out

    def check_result(self, params, cfg, rows) -> str | None:
        if len(rows) != len(SWEEP_GRID):
            return f"{len(rows)} rows for a {len(SWEEP_GRID)}-point grid"
        errs = np.array([r.rel_err for r in rows])
        if not np.isfinite(errs).all():
            return "non-finite rel_err in the sweep"
        best = int(np.argmin(errs))
        m_best = rows[best].value
        if not SWEEP_GRID[0] < m_best < SWEEP_GRID[-1]:
            return f"landscape minimum at the grid edge (M = {m_best:g})"
        if not errs[best] <= SWEEP_MIN_DEPTH * errs[0]:
            return (f"landscape minimum {errs[best]:.3e} is not {SWEEP_MIN_DEPTH:g} "
                    f"of the M = 0 error {errs[0]:.3e}")
        return None

    def check_reference(self, params, cfg, rows) -> str | None:
        return None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        SolveWorkload(
            name="md_dense", composition=DENSE_COMPOSITION, gamma=0.6,
            epsilon=1e-8, compute_forces=True, moves="trajectory", step=0.01,
            reference="alpha", checked_ops=1),
        SolveWorkload(
            name="mc_loose", composition=harness.DEFAULT_COMPOSITION, gamma=0.6,
            epsilon=1e-4, compute_forces=False, moves="trial", step=0.2,
            reference="icm", checked_ops=2),
        SolveWorkload(
            name="metal_tight", composition=harness.DEFAULT_COMPOSITION,
            gamma=-1.0, epsilon=1e-10, compute_forces=True, moves="trajectory",
            step=0.01, reference="icm", checked_ops=1),
        SweepWorkload(name="error_sweep"),
    )
}
