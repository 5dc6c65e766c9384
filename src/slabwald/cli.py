"""Command-line interface: energy, forces, tune, sweep, table1, gen.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 64 usage error.
`import slabwald` applies SLABWALD_THREADS (0 = auto, i.e. no cap) before numpy
is loaded; `main` rejects a value that is not an integer as a usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ._threads import thread_cap

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="slabwald",
                description="Image-charge Ewald solvers for dielectric slab systems")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_gamma(sp):
        sp.add_argument("--gamma-u", type=float, default=0.0)
        sp.add_argument("--gamma-d", type=float, default=0.0)

    def add_solver(sp):
        sp.add_argument("system", help="system file (cell header + x y z q rows)")
        add_gamma(sp)
        sp.add_argument("--eps", type=float, default=1e-8,
                        help="tolerance used to auto-tune unset parameters")
        sp.add_argument("--solver", choices=("icm2d", "ewald3d"), default="icm2d")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--s", type=float)
        sp.add_argument("--M", type=int)
        sp.add_argument("--Lz", type=float)
        sp.add_argument("--no-yb", action="store_true")
        sp.add_argument("--no-elc", action="store_true")

    add_solver(sub.add_parser("energy", help="total electrostatic energy"))
    add_solver(sub.add_parser("forces", help="per-particle forces"))

    t = sub.add_parser("tune", help="select (M, L_z, s, alpha, method) for a tolerance")
    t.add_argument("--eps", type=float, required=True)
    add_gamma(t)
    t.add_argument("--H", type=float, required=True)
    t.add_argument("--Lx", type=float, required=True)
    t.add_argument("--Ly", type=float, required=True)

    sw = sub.add_parser("sweep", help="run sweep scenarios from a config file")
    sw.add_argument("config")
    sw.add_argument("--out-dir", default=".")

    sub.add_parser("table1", help="print the six tuned reference rows")

    g = sub.add_parser("gen", help="generate a seeded random system file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--Lx", type=float, default=10.0)
    g.add_argument("--Ly", type=float, default=10.0)
    g.add_argument("--H", type=float, default=1.0)
    g.add_argument("--composition", default="13:+2,26:-1")
    return p


def _run_solver(args):
    import numpy as np

    from . import ewald2d, ewald3d
    from .core import DielectricSpec, read_system
    from .tuner import ToleranceRequest, select_all

    system = read_system(args.system)
    spec = DielectricSpec(args.gamma_u, args.gamma_d)
    # ewald2d has no padded box, so neither correction applies to it
    padded = args.solver == "ewald3d"
    tuned = select_all(ToleranceRequest(args.eps, system.cell, spec), M=args.M,
                       L_z=args.Lz, s=args.s, alpha=args.alpha,
                       include_yb=padded and not args.no_yb,
                       include_elc=padded and not args.no_elc)
    if padded:
        res = ewald3d.solve(system, spec, tuned.params)
    else:
        res = ewald2d.energy_icm(system, spec, tuned.params)
    if not (math.isfinite(res.energy) and np.all(np.isfinite(res.forces))):
        print("numerical failure: non-finite result", file=sys.stderr)
        return None, None, 2
    # of the padded box's budget, only the split and the image series apply to ewald2d
    over = [t for t in tuned.exceeded if padded or t in ("splitting", "image_truncation")]
    if over:
        print(f"warning: estimated error above eps = {args.eps:g} in: {', '.join(over)}",
              file=sys.stderr)
    return system, res, 0


def _cmd_energy(args) -> int:
    _, res, status = _run_solver(args)
    if status:
        return status
    print("energy %.17g" % res.energy)
    for name, val in res.breakdown.items():
        print("  %-10s %.17g" % (name, val))
    return 0


def _cmd_forces(args) -> int:
    _, res, status = _run_solver(args)
    if status:
        return status
    for f in res.forces:
        print("%.17g %.17g %.17g" % (f[0], f[1], f[2]))
    return 0


def _cmd_tune(args) -> int:
    from .core import DielectricSpec
    from .errors import BUDGET_TERMS
    from .tuner import ToleranceRequest, select_all

    spec = DielectricSpec(args.gamma_u, args.gamma_d)
    result = select_all(ToleranceRequest(args.eps, (args.Lx, args.Ly, args.H), spec))
    p, b = result.params, result.budget
    print("s      %.6g" % p.s)
    print("M      %d" % p.M)
    print("L_z    %.6g" % p.L_z)
    print("alpha  %.6g" % p.alpha)
    print("r_c    %.6g" % p.r_c)
    print("k_c    %.6g" % p.k_c)
    print("method %s" % p.method)
    print("budget regime=%s g_u=%.6g g_d=%.6g" % (b.regime, b.g_u, b.g_d))
    for name in BUDGET_TERMS:
        marker = " (exceeds eps)" if name in result.exceeded else ""
        print("  %-17s %.3e%s" % (name, getattr(b, name), marker))
    return 0


def _cmd_sweep(args) -> int:
    from .harness import parse_config, rows_to_csv, run_sweep

    with open(args.config) as fh:
        configs = parse_config(fh.read())
    os.makedirs(args.out_dir, exist_ok=True)
    for cfg in configs:
        rows = run_sweep(cfg)
        path = os.path.join(args.out_dir, f"{cfg.scenario}.csv")
        with open(path, "w") as fh:
            fh.write(rows_to_csv(rows))
        print(path)
    return 0


def _cmd_table1(args) -> int:
    from .core import DielectricSpec
    from .tuner import ToleranceRequest, select_all

    print("gamma  eps      s  M   L_z")
    for gamma in (0.6, 1.0):
        for eps in (1e-4, 1e-8, 1e-12):
            spec = DielectricSpec(gamma, gamma)
            res = select_all(ToleranceRequest(eps, (10.0, 10.0, 1.0), spec))
            p = res.params
            print("%-6g %-8g %-2g %-3d %g" % (gamma, eps, p.s, p.M, p.L_z))
    return 0


def _cmd_gen(args) -> int:
    from .core import write_system
    from .harness import gen_system, parse_composition

    system = gen_system(args.seed, parse_composition(args.composition),
                        (args.Lx, args.Ly, args.H))
    write_system(args.out, system)
    print(args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        thread_cap()
    except ValueError:
        parser.error("SLABWALD_THREADS must be an integer, got "
                     f"{os.environ['SLABWALD_THREADS']!r}")
    args = parser.parse_args(argv)
    handlers = {"energy": _cmd_energy, "forces": _cmd_forces, "tune": _cmd_tune,
                "sweep": _cmd_sweep, "table1": _cmd_table1, "gen": _cmd_gen}
    from .core import DomainError
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
