"""Command-line front end: every computation as a subcommand.

Subcommands emit CSV (default) or JSON.  Both formats carry the full
parameter set that produced them, so any table can be regenerated from
its own metadata.  Floats are printed with 17 significant digits and
round-trip exactly.

Exit codes: 0 success, 2 bad flags or domain errors, 3 quadrature or
eigensolver non-convergence, 4 grid-resolution refusal.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .gridsolver import Grid, solve
from .potentials import PotentialSpec
from .quadrature import ConvergenceError
from .regularized import (GridResolutionError, care_interleaving,
                          check_soft_core_radius, half_line_spectrum,
                          required_points, soft_core_ground_scan)
from .spectrum import exact_energy, node_count, normalize, wavefunction
from .wkb import WKBConfig, action, wkb_energy

SCHEMA_VERSION = 1


@dataclass
class OutputRecord:
    """A table plus the metadata needed to reproduce it."""

    schema: str
    columns: dict
    metadata: dict = field(default_factory=dict)

    def _meta(self):
        meta = {"schema": self.schema, "schema_version": SCHEMA_VERSION,
                "version": __version__}
        meta.update(self.metadata)
        return meta

    def to_csv(self):
        lines = [f"# {key} = {_fmt(val)}" for key, val in self._meta().items()]
        names = list(self.columns)
        lines.append(",".join(names))
        for row in zip(*self.columns.values()):
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self):
        names = list(self.columns)
        rows = [dict(zip(names, row)) for row in zip(*self.columns.values())]
        return json.dumps({"metadata": self._meta(), "rows": rows}, indent=2) + "\n"


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(record, args):
    text = record.to_json() if args.format == "json" else record.to_csv()
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _stamp(meta, args):
    if args.timestamp:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if args.tolerance is not None:
        meta["tolerance"] = args.tolerance
    return meta


def _cmd_spectrum(args):
    cfg = WKBConfig(quadrature_tolerance=args.tolerance) if args.tolerance \
        else WKBConfig()
    ns, exact, semi, parity, nodes = [], [], [], [], []
    for n in range(args.n_max + 1):
        ns.append(n)
        exact.append(exact_energy(n))
        semi.append(wkb_energy(n, cfg))
        parity.append("odd" if n % 2 else "even")
        nodes.append(node_count(n))
    return OutputRecord(
        schema="spectrum",
        columns={"n": ns, "exact_energy": exact, "wkb_energy": semi,
                 "parity": parity, "nodes": nodes},
        metadata=_stamp({"n_max": args.n_max}, args))


def _cmd_wavefunction(args):
    if args.points < 2:
        raise ValueError("need at least 2 sample points")
    if args.x_min >= args.x_max:
        raise ValueError("x-min must lie below x-max")
    xs = np.linspace(args.x_min, args.x_max, args.points)
    rtol = args.tolerance if args.tolerance else 1e-11
    psi = wavefunction(args.n, xs, rtol=rtol)
    scale = 1.0
    if args.normalized:
        scale = normalize(args.n).norm
    meta = _stamp({"n": args.n, "x_min": args.x_min, "x_max": args.x_max,
                   "points": args.points, "normalized": args.normalized,
                   "energy": exact_energy(args.n)}, args)
    return OutputRecord(schema="samples",
                        columns={"x": list(xs), "psi": list(scale * psi)},
                        metadata=meta)


def _cmd_wkb(args):
    cfg = WKBConfig(quadrature_tolerance=args.tolerance) if args.tolerance \
        else WKBConfig()
    if args.n is not None:
        energy = wkb_energy(args.n, cfg)
        meta = {"n": args.n, "maslov_offset": cfg.maslov_offset}
    else:
        energy = args.energy
        meta = {"maslov_offset": cfg.maslov_offset}
    res = action(energy, rtol=cfg.quadrature_tolerance)
    return OutputRecord(
        schema="action",
        columns={"energy": [energy], "action": [res.action],
                 "turning_point_lower": [res.turning_points[0]],
                 "turning_point_upper": [res.turning_points[1]]},
        metadata=_stamp(meta, args))


def _cmd_scan(args):
    if args.family == "soft-core":
        if not args.a:
            raise ValueError("soft-core scan requires --a")
        radii = [float(s) for s in args.a.split(",")]
        for a in radii:  # all of them before any solve
            check_soft_core_radius(a)
        half_width = args.half_width if args.half_width else 30.0
        if args.points:
            points = [args.points] * len(radii)
            rows = soft_core_ground_scan(radii, Grid(half_width, args.points))
        else:
            # one grid per radius, so a row does not depend on the others
            points = [required_points(half_width, a) for a in radii]
            rows = [soft_core_ground_scan([a], Grid(half_width, n))[0]
                    for a, n in zip(radii, points)]
        meta = _stamp({"family": args.family, "half_width": half_width,
                       "points": max(points)}, args)
        return OutputRecord(
            schema="scan",
            columns={"a": [r.a for r in rows],
                     "e0": [r.e0 for r in rows],
                     "loudon_estimate": [r.loudon for r in rows],
                     "ratio": [r.e0 / r.loudon for r in rows],
                     "points": points},
            metadata=meta)
    if args.family == "care":
        if not args.a or args.b is None:
            raise ValueError("care scan requires --a and --b")
        a = float(args.a)
        half_width = args.half_width if args.half_width else 54.0
        points = args.points if args.points else required_points(half_width, a)
        k_max = args.k_max if args.k_max else 6
        g = Grid(half_width=half_width, points=points)
        res = care_interleaving(a, args.b, g, k_max)
        meta = _stamp({"family": args.family, "a": a, "b": args.b,
                       "half_width": half_width, "points": points,
                       "interleaved": res.interleaved}, args)
        return OutputRecord(
            schema="scan",
            columns={"k": [lv.index for lv in res.levels],
                     "energy": [lv.energy for lv in res.levels],
                     "parity": [lv.parity for lv in res.levels],
                     "nodes": [lv.nodes for lv in res.levels]},
            metadata=meta)
    if args.family == "half-line":
        half_width = args.half_width if args.half_width else 60.0
        points = args.points if args.points else 12000
        k_max = args.k_max if args.k_max else 3
        g = Grid(half_width=half_width, points=points)
        energies = half_line_spectrum(g, k_max)
        ks = list(range(1, k_max + 1))
        exact = [-0.5 / (k * k) for k in ks]
        meta = _stamp({"family": args.family, "half_width": half_width,
                       "points": points}, args)
        return OutputRecord(
            schema="scan",
            columns={"k": ks, "energy": energies, "exact_energy": exact,
                     "relative_error": [abs(e - t) / abs(t)
                                        for e, t in zip(energies, exact)]},
            metadata=meta)
    raise ValueError(f"unknown scan family {args.family!r}")


def _cmd_solve(args):
    kwargs = {}
    if args.a is not None:
        kwargs["a"] = float(args.a)
    if args.b is not None:
        kwargs["b"] = args.b
    spec = PotentialSpec(args.family, **kwargs)
    g = Grid(half_width=args.half_width, points=args.points,
             staggered=not args.no_stagger)
    res = solve(spec, g, args.k_max)
    meta = _stamp({"family": args.family, "half_width": args.half_width,
                   "points": args.points, "staggered": not args.no_stagger,
                   **kwargs}, args)
    return OutputRecord(
        schema="spectrum",
        columns={"k": [lv.index for lv in res.levels],
                 "energy": [lv.energy for lv in res.levels],
                 "parity": [str(lv.parity) for lv in res.levels],
                 "nodes": [lv.nodes for lv in res.levels]},
        metadata=meta)


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")
    sp.add_argument("--tolerance", type=float, default=None,
                    help="override the default numeric tolerance")
    sp.add_argument("--timestamp", action="store_true",
                    help="include a UTC timestamp in the metadata")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coulomb1d",
        description="Bound states of the 1D Coulomb potential: exact "
                    "spectrum, WKB quantization, and regularized variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="exact and WKB energies side by side")
    sp.add_argument("--n-max", type=int, default=10)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_spectrum)

    sp = sub.add_parser("wavefunction", help="sample an eigenfunction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x-min", type=float, default=-10.0)
    sp.add_argument("--x-max", type=float, default=10.0)
    sp.add_argument("--points", type=int, default=2001)
    sp.add_argument("--normalized", action="store_true",
                    help="scale to unit L2 norm instead of the bare "
                         "Whittaker value")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_wavefunction)

    sp = sub.add_parser("wkb", help="action integral and quantization")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--energy", type=float, help="evaluate S(E) at this E < 0")
    group.add_argument("--n", type=int, help="solve S(E) = (n+1) pi for E")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_wkb)

    sp = sub.add_parser("scan", help="regularized-potential studies")
    sp.add_argument("--family", choices=("soft-core", "care", "half-line"),
                    required=True)
    sp.add_argument("--a", help="core radius; comma list for soft-core")
    sp.add_argument("--b", type=float, help="repulsive-core offset")
    sp.add_argument("--half-width", type=float, help="box size L")
    sp.add_argument("--points", type=int, help="mesh points (default: auto)")
    sp.add_argument("--k-max", type=int, help="levels to compute")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("solve", help="raw grid eigensolve of one potential")
    sp.add_argument("--family", choices=("pure-coulomb", "soft-core",
                                         "repulsive-core", "half-line"),
                    required=True)
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--half-width", type=float, required=True)
    sp.add_argument("--points", type=int, required=True)
    sp.add_argument("--k-max", type=int, default=4)
    sp.add_argument("--no-stagger", action="store_true",
                    help="place mesh points on, not between, lattice lines")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_solve)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
        _emit(record, args)
    except GridResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
