"""Local Lorentz-invariant mass density of an electromagnetic field from
sampled field strengths, with the dual-form identity as a built-in check.

Note: the volume integral of this density is NOT the pulse invariant mass
and is not boost-invariant; the two concepts are deliberately unrelated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .constants import C

_MU_UNIT = 8.0 * math.pi * C * C

# Veltkamp's splitting constant 2^27 + 1: c*x - (c*x - x) keeps the upper
# 26 bits of x, so products of the halves are exact in double
_SPLIT = 134217729.0

# Product operands as row indices into the stacked components [E, H, -H, 0]:
# _OPERANDS[0] and [1] are the left and right factors, one row per term,
# one column per sum.  Column 0 sums E_i^2 and -H_i^2, ordered so that the
# first pairwise level of the summation meets E_i^2 with -H_i^2; column 1
# sums E_i*H_i, zero-padded to the same 8 terms.
_OPERANDS = np.array([
    [[0, 0], [1, 1], [2, 2], [9, 9], [3, 9], [4, 9], [5, 9], [9, 9]],
    [[0, 3], [1, 4], [2, 5], [9, 9], [6, 9], [7, 9], [8, 9], [9, 9]],
])


@dataclass(frozen=True)
class FieldSample:
    """Electric (statvolt/cm) and magnetic (gauss) field vectors at a point."""

    e: tuple[float, float, float]
    h: tuple[float, float, float]

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (*self.e, *self.h)):
            raise ValueError("field components must be finite")
        object.__setattr__(self, "e", tuple(float(x) for x in self.e))
        object.__setattr__(self, "h", tuple(float(x) for x in self.h))


def _two_sum(a, b):
    """Knuth's TwoSum: s + err == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def mass_density_array(e, h) -> np.ndarray:
    """Invariant mass density in g/cm^3 of each row of (N, 3) arrays e, h,

        mu = hypot(E^2 - H^2, 2 E.H) / (8 pi c^2),

    equal to sqrt(u^2 - S^2/c^2)/c^2 with u = (E^2 + H^2)/8pi and
    S = (c/4pi) E x H.  E^2 - H^2 and E.H are formed from error-free
    products (Veltkamp split) and a TwoSum-compensated pairwise sum, as
    if in twice double precision: the relative error of mu is about
    1e-16 + 1e-30 (E^2 + H^2)/(8 pi c^2 mu), full double precision unless
    the field is within ~1e-14 of null.  Each row is first scaled by an
    exact power of two, so squares neither overflow nor underflow while
    mu itself is finite.  Raises ValueError naming the first non-finite row.
    """
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)
    if e.ndim != 2 or e.shape[1] != 3 or e.shape != h.shape:
        raise ValueError("e and h must both have shape (N, 3)")
    f = np.concatenate([e.T, h.T, -h.T, np.zeros((1, len(e)))])   # (10, N)
    top = np.abs(f).max(axis=0)       # NaN propagates through max
    bad = ~np.isfinite(top)
    if bad.any():
        raise ValueError(f"sample {int(np.argmax(bad))}: field components must be finite")
    _, k = np.frexp(top)
    f = np.ldexp(f, -k)
    g = f[_OPERANDS]                                              # (2, 8, 2, N)
    c = _SPLIT * g
    gh = c - (c - g)
    (x, y), (xh, yh), (xl, yl) = g, gh, g - gh
    p = x * y
    err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    # Dot2 of Ogita, Rump and Oishi in pairwise order: p + err holds the
    # exact products, the rounding errors of the p sums collect in err
    while len(p) > 1:
        m = len(p) // 2
        p, q = _two_sum(p[:m], p[m:])
        err = err[:m] + err[m:] + q
    d, eh = p[0] + err[0]
    with np.errstate(over="ignore"):
        return np.ldexp(np.hypot(d, 2.0 * eh) / _MU_UNIT, 2 * k)


def mass_density(sample: FieldSample) -> float:
    """Invariant mass density of one sample in g/cm^3; see mass_density_array."""
    return float(mass_density_array([sample.e], [sample.h])[0])


def mass_density_invariant_form(sample: FieldSample) -> float:
    """The same density via the field invariants; kept as the self-check."""
    ex, ey, ez = sample.e
    hx, hy, hz = sample.h
    e2 = ex * ex + ey * ey + ez * ez
    h2 = hx * hx + hy * hy + hz * hz
    eh = ex * hx + ey * hy + ez * hz
    return math.sqrt((e2 - h2) ** 2 + 4.0 * eh * eh) / _MU_UNIT


def mass_density_grid(samples: Iterable[FieldSample]) -> list[float]:
    """Element-wise mass_density in input order."""
    samples = list(samples)
    if not samples:
        return []
    return mass_density_array([s.e for s in samples], [s.h for s in samples]).tolist()
