"""Command-line front end: every computation as a subcommand.

Subcommands emit CSV (default) or JSON.  Both formats carry the full
parameter set that produced them, so any table can be regenerated from
its own metadata.  Floats are printed with 17 significant digits and
round-trip exactly.

Exit codes: 0 success, 2 bad flags, domain errors (a grid too coarse
for its core radius among them) or an output file that cannot be
written, 3 quadrature or eigensolver non-convergence.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .gridsolver import Grid, solve
from .potentials import FAMILIES, PotentialSpec
from .quadrature import ConvergenceError, _check_tolerance
from .regularized import (care_interleaving, half_line_spectrum,
                          soft_core_ground_scan)
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
    if getattr(args, "tolerance", None) is not None:
        meta["tolerance"] = args.tolerance
    return meta


def _given_tolerance(args, keyword):
    """``{keyword: --tolerance}`` if the flag is given, else no keyword,
    so that the library's own default holds."""
    return {} if args.tolerance is None else {keyword: args.tolerance}


def _level_columns(levels):
    """The k, energy, parity and nodes columns of grid levels."""
    return {"k": [lv.index for lv in levels],
            "energy": [lv.energy for lv in levels],
            "parity": [str(lv.parity) for lv in levels],
            "nodes": [lv.nodes for lv in levels]}


def _cmd_spectrum(args):
    if args.n_max < 0:
        raise ValueError(f"n-max must be non-negative, got {args.n_max}")
    cfg = WKBConfig(**_given_tolerance(args, "quadrature_tolerance"))
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
    psi = wavefunction(args.n, xs, **_given_tolerance(args, "rtol"))
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
    cfg = WKBConfig(**_given_tolerance(args, "quadrature_tolerance"))
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


# the scan families, each with the flags that it does not read, refused
# rather than dropped
_UNREAD = {"soft-core": ("b", "k_max"), "care": (), "half-line": ("a", "b")}


def _cmd_scan(args):
    for name in _UNREAD[args.family]:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} is not read by "
                             f"scan --family {args.family}")
    if args.family == "soft-core":
        if not args.a:
            raise ValueError("soft-core scan requires --a")
        half_width = 30.0 if args.half_width is None else args.half_width
        radii = [float(s) for s in args.a.split(",")]
        rows = soft_core_ground_scan(radii, half_width, args.points)
        meta = _stamp({"family": args.family, "half_width": half_width,
                       "points": max(r.points for r in rows)}, args)
        return OutputRecord(
            schema="scan",
            columns={"a": [r.a for r in rows], "e0": [r.e0 for r in rows],
                     "e0_error": [r.error for r in rows],
                     "loudon_estimate": [r.loudon for r in rows],
                     "ratio": [r.e0 / r.loudon for r in rows],
                     "points": [r.points for r in rows]},
            metadata=meta)
    if args.family == "care":
        if not args.a or args.b is None:
            raise ValueError("care scan requires --a and --b")
        a = float(args.a)
        half_width = 54.0 if args.half_width is None else args.half_width
        g = (Grid.uniform(half_width, a) if args.points is None
             else Grid(half_width=half_width, points=args.points))
        k_max = 6 if args.k_max is None else args.k_max
        res = care_interleaving(a, args.b, g, k_max)
        meta = _stamp({"family": args.family, "a": a, "b": args.b,
                       "half_width": half_width, "points": g.points,
                       "interleaved": res.interleaved}, args)
        return OutputRecord(schema="scan", columns=_level_columns(res.levels),
                            metadata=meta)
    # half-line, the last of the family choices argparse accepts
    half_width = 60.0 if args.half_width is None else args.half_width
    points = 12000 if args.points is None else args.points
    k_max = 3 if args.k_max is None else args.k_max
    g = Grid(half_width=half_width, points=points)
    energies = half_line_spectrum(g, k_max)
    ks = list(range(1, k_max + 1))
    exact = [exact_energy(2 * k - 1) for k in ks]  # odd state n = 2k - 1
    meta = _stamp({"family": args.family, "half_width": half_width,
                   "points": points}, args)
    return OutputRecord(
        schema="scan",
        columns={"k": ks, "energy": energies, "exact_energy": exact,
                 "relative_error": [abs(e - t) / abs(t)
                                    for e, t in zip(energies, exact)]},
        metadata=meta)


def _cmd_solve(args):
    kwargs = {}
    if args.a is not None:
        kwargs["a"] = float(args.a)
    if args.b is not None:
        kwargs["b"] = args.b
    spec = PotentialSpec(args.family, **kwargs)
    g = Grid(half_width=args.half_width, points=args.points)
    res = solve(spec, g, args.k_max)
    meta = _stamp({"family": args.family, "half_width": args.half_width,
                   "points": args.points, **kwargs}, args)
    return OutputRecord(schema="spectrum", columns=_level_columns(res.levels),
                        metadata=meta)


def _tolerance(text):
    value = float(text)
    try:
        return _check_tolerance(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}") from None


def _add_tolerance(sp):
    sp.add_argument("--tolerance", type=_tolerance, default=None,
                    help="override the default numeric tolerance")


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")
    sp.add_argument("--timestamp", action="store_true",
                    help="include a UTC timestamp in the metadata")


class _Parser(argparse.ArgumentParser):
    """Reads -1e-3 as a number, not a flag: argparse's own negative-number
    pattern has no exponent form.  Subparsers are built from this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser():
    parser = _Parser(
        prog="coulomb1d",
        description="Bound states of the 1D Coulomb potential: exact "
                    "spectrum, WKB quantization, and regularized variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="exact and WKB energies side by side")
    sp.add_argument("--n-max", type=int, default=10)
    _add_tolerance(sp)
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
    _add_tolerance(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_wavefunction)

    sp = sub.add_parser("wkb", help="action integral and quantization")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--energy", type=float, help="evaluate S(E) at this E < 0")
    group.add_argument("--n", type=int, help="solve S(E) = (n+1) pi for E")
    _add_tolerance(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_wkb)

    sp = sub.add_parser(
        "scan", help="regularized-potential studies",
        description="Regularized-potential studies.  A flag that the "
                    "family does not read is refused (exit 2): --b and "
                    "--k-max for soft-core, --a and --b for half-line.")
    sp.add_argument("--family", choices=list(_UNREAD), required=True)
    sp.add_argument("--a", help="core radius; comma list for soft-core")
    sp.add_argument("--b", type=float, help="repulsive-core offset")
    sp.add_argument("--half-width", type=float, help="box size L")
    sp.add_argument("--points", type=int,
                    help="soft-core: points of the coarsest of the three "
                         "grids graded toward each radius (default: "
                         "Grid.graded's count); care and half-line: uniform "
                         "mesh points (default for care: Grid.uniform(L, a), "
                         "the fewest with h <= a/5)")
    sp.add_argument("--k-max", type=int, help="levels to compute")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("solve", help="raw grid eigensolve of one potential")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--half-width", type=float, required=True)
    sp.add_argument("--points", type=int, required=True)
    sp.add_argument("--k-max", type=int, default=4)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_solve)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
        _emit(record, args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
