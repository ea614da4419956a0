"""Potential families: the bare 1D Coulomb well and its regularized variants.

The four families share one tagged spec type so the eigensolver and the
parameter scans can dispatch on them:

    pure-coulomb     V(x) = -1/|x|
    soft-core        V(x) = -1/(|x|+a),           a > 0
    repulsive-core   V(x) = -(|x|-b)/(|x|+a)^2,   a > 0, b >= 0
    half-line        V(x) = -1/x for x > 0, infinite wall at x <= 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "PotentialSpec",
    "evaluate",
    "half_line",
    "loudon_estimate",
    "pure_coulomb",
    "repulsive_core",
    "soft_core",
]

FAMILIES = ("pure-coulomb", "soft-core", "repulsive-core", "half-line")


@dataclass(frozen=True)
class PotentialSpec:
    """Tagged potential family with its core parameters.

    Attributes
    ----------
    family : str
        One of ``FAMILIES``.
    a : float or None
        Core radius for soft-core and repulsive-core, positive and finite.
    b : float or None
        Offset of the repulsive-core zero crossing, non-negative and
        finite.
    """

    family: str
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}")
        # the chained bounds refuse NaN and +-inf too; a bool compares as
        # 0 or 1 but is no length, so it is read as NaN
        a, b = (math.nan if isinstance(p, (bool, np.bool_)) else p
                for p in (self.a, self.b))
        if self.family == "soft-core":
            if a is None or not 0 < a < math.inf:
                raise ValueError("soft-core requires a core radius a > 0")
            if b is not None:
                raise ValueError("soft-core takes no offset b")
        elif self.family == "repulsive-core":
            if a is None or not 0 < a < math.inf:
                raise ValueError("repulsive-core requires a core radius a > 0")
            if b is None or not 0 <= b < math.inf:
                raise ValueError("repulsive-core requires an offset b >= 0")
        elif a is not None or b is not None:
            raise ValueError(f"{self.family} takes no parameters")


def pure_coulomb():
    return PotentialSpec("pure-coulomb")


def soft_core(a):
    return PotentialSpec("soft-core", a=a)


def repulsive_core(a, b):
    return PotentialSpec("repulsive-core", a=a, b=b)


def half_line():
    return PotentialSpec("half-line")


def _points(x):
    """x as a float array; ``ValueError`` for a bool, a numpy.bool_ or a
    boolean array.  The one check of evaluation points, psi's too."""
    xs = np.asarray(x)
    # a bool compares as 0 or 1, and is no position
    if xs.dtype == bool:
        raise ValueError("evaluation points must be numbers, got booleans")
    return xs.astype(float, copy=False)


def evaluate(spec, x):
    """Evaluate the potential at x (scalar or array).

    The half-line wall is reported as the +inf sentinel for x <= 0.
    The pure Coulomb potential refuses x = 0, and any x refuses bools.
    """
    xs = _points(x)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if not np.all(np.isfinite(xs)):
        raise ValueError("non-finite evaluation point")
    fam = spec.family
    if fam == "pure-coulomb":
        if np.any(xs == 0.0):
            raise ValueError("pure Coulomb potential is singular at x = 0")
        out = -1.0 / np.abs(xs)
    elif fam == "soft-core":
        out = -1.0 / (np.abs(xs) + spec.a)
    elif fam == "repulsive-core":
        ax = np.abs(xs)
        out = -(ax - spec.b) / (ax + spec.a) ** 2
    else:  # half-line
        out = np.full_like(xs, np.inf)
        pos = xs > 0.0
        out[pos] = -1.0 / xs[pos]
    return float(out[0]) if scalar else out


def loudon_estimate(a):
    """Logarithmic estimate -2 ln^2(1/a) of the soft-core ground energy.

    Reliable only to logarithmic accuracy; used as a divergence-rate
    yardstick, not as a converged value.
    """
    if not 0 < a < 1:  # NaN too
        raise ValueError(f"core radius must lie in (0, 1), got {a}")
    return -2.0 * math.log(1.0 / a) ** 2
