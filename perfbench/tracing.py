"""Spans at the coulomb1d module boundaries, recorded from outside the package.

``Tracer.install`` rebinds, in every module of the package, each public
function of the eight layer modules and the cross-module names in
``EXTRA`` to a wrapper that records one span per call.  ``uninstall``
puts the original objects back.  Spans stay in memory until the run
ends and are then written out in one file.

A span is ``[name, start, end, parent, op]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at
top level), and ``op`` the id of the benchmark operation that caused it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "specfun", "spectrum", "wkb", "potentials",
          "gridsolver", "regularized", "cli")

# names a module takes from another module, or from numpy/scipy, that are
# not public functions of a layer: (module holding the name, name, span)
EXTRA = (
    ("spectrum", "_u_array", "specfun._u_array"),
    ("quadrature", "leggauss", "quadrature.leggauss"),
    ("gridsolver", "eigh_tridiagonal", "gridsolver.eigh_tridiagonal"),
    ("wkb", "brentq", "wkb.brentq"),
    ("cli", "_emit", "cli._emit"),
)


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._saved = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- per-name hooks: span naming and counters ---------------------------

    def _counting(self, key, f):
        counts = self.counts

        def integrand(x):
            counts[key] += np.size(x)
            return f(x)
        return integrand

    def _hook(self, span_name):
        """(name_of(args, kwargs), before(args, kwargs) -> args) for a span."""
        if span_name == "spectrum.wavefunction":
            def name_of(args, kwargs):
                n = args[0] if args else kwargs["n"]
                return "spectrum.wavefunction_odd" if n % 2 else \
                    "spectrum.wavefunction_even"
            return name_of, None
        if span_name in ("quadrature.adaptive", "quadrature.gauss_legendre"):
            key = span_name + "_points"

            def before(args, kwargs):
                return (self._counting(key, args[0]),) + tuple(args[1:])
            return None, before
        if span_name == "specfun._u_array":
            def before(args, kwargs):
                z = args[2] if len(args) > 2 else kwargs["z"]
                self.counts["specfun.u_batch_points"] += np.size(z)
                return args
            return None, before
        if span_name == "gridsolver.solve":
            def before(args, kwargs):
                g = args[1] if len(args) > 1 else kwargs["g"]
                k = args[2] if len(args) > 2 else kwargs["k_max"]
                n = g.points if g.staggered else g.points - 1
                self.counts["gridsolver.mesh_points"] += g.points
                # diagonal, off-diagonal and the returned eigenvectors
                self.counts["gridsolver.matrix_bytes"] += 8 * (n + (n - 1) + n * k)
                return args
            return None, before
        if span_name == "cli._emit":
            def before(args, kwargs):
                record = args[0]
                if record.schema == "scan":
                    self.counts["cli.scan_points"] += record.metadata["points"]
                return args
            return None, before
        return None, None

    def _wrap(self, span_name, fn):
        name_of, before = self._hook(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            name = name_of(args, kwargs) if name_of is not None else span_name
            return self.call(name, fn, args, kwargs)
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self):
        mods = [importlib.import_module("coulomb1d")]
        mods += [importlib.import_module(f"coulomb1d.{m}") for m in LAYERS]
        targets = {}  # id(original) -> (original, span name)
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(mod):
                targets[id(fn)] = (fn, f"{short}.{name}")
        for modname, name, span_name in EXTRA:
            fn = getattr(importlib.import_module(f"coulomb1d.{modname}"), name)
            targets[id(fn)] = (fn, span_name)
        wrappers = {key: self._wrap(span, fn) for key, (fn, span) in targets.items()}
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets and obj is targets[id(obj)][0]:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved = []

    def write(self, path, extra):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def _durations(spans):
    """Inclusive and self time of every span, in seconds."""
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, dur - child


def layer_metrics(spans, counts):
    """Per-layer totals over a traced run, keyed by metric name (no units)."""
    dur, self_t = _durations(spans)
    names = np.array([s[0] for s in spans], dtype=object)

    def total(name, own=False):
        sel = names == name
        return float(np.sum((self_t if own else dur)[sel]))

    def outer_total(name):
        # inclusive time of spans with no enclosing span of the same name
        t = 0.0
        for i in np.flatnonzero(names == name):
            p = spans[i][3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                t += dur[i]
        return t

    def mean_us(name):
        sel = names == name
        return float(np.mean(dur[sel]) * 1e6) if sel.any() else 0.0

    def under(name, ancestor):
        n = 0
        for i in np.flatnonzero(names == name):
            p = spans[i][3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            n += p >= 0
        return n

    n_energy = int(np.sum(names == "wkb.wkb_energy"))
    return {
        "quadrature.rule_build_ms": total("quadrature.leggauss") * 1e3,
        "quadrature.rule_builds": int(np.sum(names == "quadrature.leggauss")),
        "quadrature.adaptive_ms": outer_total("quadrature.adaptive") * 1e3,
        "quadrature.adaptive_points": int(counts.get("quadrature.adaptive_points", 0)),
        "quadrature.gauss_legendre_points":
            int(counts.get("quadrature.gauss_legendre_points", 0)),
        "specfun.u_batch_ms": outer_total("specfun._u_array") * 1e3,
        "specfun.u_batch_points": int(counts.get("specfun.u_batch_points", 0)),
        "spectrum.wavefunction_even_ms":
            total("spectrum.wavefunction_even", own=True) * 1e3,
        "spectrum.wavefunction_odd_ms":
            total("spectrum.wavefunction_odd", own=True) * 1e3,
        "spectrum.normalize_ms": total("spectrum.normalize", own=True) * 1e3,
        "spectrum.node_count_ms": total("spectrum.node_count", own=True) * 1e3,
        "wkb.action_us": mean_us("wkb.action"),
        "wkb.wkb_energy_ms": outer_total("wkb.wkb_energy") * 1e3,
        "wkb.actions_per_energy":
            under("wkb.action", "wkb.wkb_energy") / n_energy if n_energy else 0.0,
        "potentials.evaluate_ms": outer_total("potentials.evaluate") * 1e3,
        "gridsolver.eigh_tridiagonal_ms":
            total("gridsolver.eigh_tridiagonal") * 1e3,
        "gridsolver.solve_self_ms": total("gridsolver.solve", own=True) * 1e3,
        "gridsolver.mesh_points": int(counts.get("gridsolver.mesh_points", 0)),
        "gridsolver.matrix_mb": counts.get("gridsolver.matrix_bytes", 0) / 2**20,
        "regularized.soft_core_scan_ms":
            total("regularized.soft_core_ground_scan") * 1e3,
        "regularized.care_ms": total("regularized.care_interleaving") * 1e3,
        "regularized.half_line_ms": total("regularized.half_line_spectrum") * 1e3,
        "cli.scan_points": int(counts.get("cli.scan_points", 0)),
        "cli.emit_ms": total("cli._emit") * 1e3,
    }
