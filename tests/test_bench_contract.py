"""The names the benchmark's tracer binds must exist and be called.

``perfbench/tracing.py`` wraps, besides every public function, a fixed
list of cross-module names (its ``EXTRA``) and reads argument positions
and attributes in its hooks.  A rename in the package would leave a
traced run silently short of spans; this test loads the tracer as it is,
runs one operation of each kind through it and checks what it recorded.
"""

import importlib.util
from pathlib import Path

import numpy as np

import coulomb1d
from coulomb1d import cli, quadrature

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_operations_reach_every_bound_name(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    quadrature._rule.cache_clear()  # so the rule build is traced, not cached
    xs = np.linspace(-10.0, 10.0, 2001)
    tracer.install()
    try:
        coulomb1d.wavefunction(0, xs)
        coulomb1d.normalize(2)
        coulomb1d.wkb_energy(3)
        coulomb1d.solve(coulomb1d.pure_coulomb(),
                        coulomb1d.Grid(half_width=60.0, points=800), 2)
        assert cli.main(["scan", "--family", "half-line", "--points", "800"]) == 0
        assert cli.main(["scan", "--family", "soft-core", "--a", "1e-2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    names = {span[0] for span in tracer.spans}
    # wkb.brentq is bound by the tracer but no longer called
    assert callable(coulomb1d.wkb.brentq)
    assert "wkb.brentq" not in names
    missing = [span for _, _, span in tracing.EXTRA
               if span not in names and span != "wkb.brentq"]
    assert not missing
    assert {"spectrum.wavefunction_even", "wkb.wkb_energy", "wkb.action",
            "gridsolver.solve", "regularized.soft_core_ground_scan"} <= names
    assert tracer.counts["specfun.u_batch_points"] == np.count_nonzero(xs)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    # the half-line grid, and the finest of the three graded soft-core grids
    assert metrics["cli.scan_points"] == 800 + 10248
    assert metrics["wkb.actions_per_energy"] == 1

    # the norm is a closed form: no quadrature and no U beneath normalize
    norms = [i for i, span in enumerate(tracer.spans)
             if span[0] == "spectrum.normalize"]
    assert norms

    def under_normalize(span):
        parent = span[3]
        while parent >= 0 and parent not in norms:
            parent = tracer.spans[parent][3]
        return parent >= 0

    assert not [span[0] for span in tracer.spans if under_normalize(span)
                and (span[0].startswith("quadrature.")
                     or span[0] == "specfun._u_array")]


def test_one_action_span_under_each_wkb_energy():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for n in range(201):
            coulomb1d.wkb_energy(n)
    finally:
        tracer.uninstall()

    outer = [i for i, span in enumerate(tracer.spans) if span[0] == "wkb.wkb_energy"]
    assert len(outer) == 201
    children = {i: 0 for i in outer}
    for span in tracer.spans:
        if span[0] == "wkb.action":
            children[span[3]] += 1
    assert set(children.values()) == {1}
