"""Continuum spectral photon density of a Gaussian pulse and its k-space
quadrature: total energy, momentum, photon number, invariant mass, and the
boundary-field reconstruction.

The quadrature keeps the exact (c^2 k_z/omega_k) Jacobian and the exact
dispersion omega_k = c|k| on one rule in |k| and k_perp = min(s_max, |k|) sin phi
(_nodes), which holds the photon shell and its edge k_perp = |k| at any
lambda/w and lambda/(c tau), so it is the un-approximated oracle for the
closed paraxial forms in ``pulsemass.analytic`` and answers where they refuse.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .constants import C, HBAR
from .kinematics import FourMomentum, invariant_mass
from .pulse import GaussianPulseParams, QuadratureError, validity_ratio  # noqa: F401


class ForwardClipWarning(UserWarning):
    """The shell rule drops rows of |k| <= 0 that hold non-negligible weight."""


# s w and y = (|k| - k0) c tau run over [0, _Y] and [-_Y, _Y], where the
# amplitude's exp(-s^2 w^2/2) and exp(-y^2/2) have fallen to exp(-36).
_Y = 6.0 * math.sqrt(2.0)

# Both drivers double the nodes per axis from _BASE_N (below 32 the trapezoidal
# error is 2e-7 or more: no level could stop) until two levels agree, at most
# _MAX_N.  The oracle asks _QUAD_REL_TOL of every observable, the boundary field
# _FIELD_ABS_TOL * e0 at every time (criterion 10 asks for 1e-4 * e0); field
# time chunks hold _FIELD_CHUNK phases.
_MAX_N = 256
_BASE_N = 32
_QUAD_REL_TOL = 1e-10
_FIELD_ABS_TOL = 1e-9
_FIELD_CHUNK = 1 << 18

# J0 below _J0_X by the midpoint rule on Bessel's integral
# J0(x) = (1/pi) int_0^pi cos(x cos phi) dphi with _J0_M nodes: for this
# periodic integrand the error is ~J_{2 _J0_M}(x) (Trefethen & Weideman, SIAM
# Rev. 56, 2014), and 2 _J0_M >= x + 10 x^(1/3) + 30 makes it negligible.
# From _J0_X on, Hankel's expansion (Abramowitz & Stegun 9.2.5, 9.2.9-10).
_J0_X = 25.0
_J0_M = math.ceil((_J0_X + 10.0 * _J0_X ** (1.0 / 3.0) + 30.0) / 2.0)
_J0_COS = np.cos((np.arange(_J0_M) + 0.5) * (math.pi / _J0_M))


def _hankel_series():
    """P(x) = sum_j (-1)^j a_2j y^j and x Q(x) = sum_j (-1)^j a_(2j+1) y^j,
    y = 1/x^2, as coefficient lists highest first, with a_0 = 1 and
    a_k = -a_(k-1) (2k - 1)^2/(8k) up to the first a_k/_J0_X^k below 2^-60."""
    a = [1.0]
    while abs(a[-1]) >= 2.0**-60 * _J0_X ** (len(a) - 1):
        k = len(a)
        a.append(-a[-1] * (2 * k - 1) ** 2 / (8.0 * k))
    signed = [c if k % 4 < 2 else -c for k, c in enumerate(a)]
    return signed[0::2][::-1], signed[1::2][::-1]


_J0_P, _J0_Q = _hankel_series()


def _j0(x: np.ndarray) -> np.ndarray:
    """Bessel J0 elementwise, within 6e-16 absolute; J0(-x) = J0(x).  Each value
    depends on its own argument only, with at most _J0_M temporaries each."""
    x = np.abs(x)
    out = np.empty_like(x)
    near = x < _J0_X
    out[near] = np.cos(np.multiply.outer(x[near], _J0_COS)).mean(axis=-1)
    if not near.all():
        far = x[~near]
        r = 1.0 / far
        y = r * r  # underflows quietly for huge x, where only P = 1 is left
        cos, sin = np.cos(far), np.sin(far)
        # sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)) with the shift
        # expanded, cos(x - pi/4) = (cos x + sin x)/sqrt(2), never subtracted
        out[~near] = np.sqrt(r / math.pi) * (np.polyval(_J0_P, y) * (cos + sin)
                                             + np.polyval(_J0_Q, y) * r * (cos - sin))
    return out


@dataclass(frozen=True)
class EnergyMomentum:
    """Totals from the spectral integrals; p_x = p_y = 0 by symmetry."""

    energy: float
    pz: float
    photon_count: float
    deficit: float  # epsilon - c*p_z, integrated directly


def _rule(params: GaussianPulseParams) -> tuple[float, float, float]:
    """(k0, c tau, s_max): the shell rule's centre, its |k| scale and its
    k_perp range _Y/w, the one spectral description of the oracle and the
    field, checked once per call.  It refuses extreme |k| nodes k0 -+
    _Y/(c tau) or an s_max not finite, k0 <= 0, or |k| nodes that coincide:
    a pulse of extreme tau, w or omega0."""
    k0 = params.omega0 / C
    # weight of the density's exp(-y^2) below u = 0, where rows are dropped
    lost = 0.5 * math.erfc(k0 * C * params.tau)
    if lost > 1e-12:
        warnings.warn(
            f"nodes of |k| <= 0 dropped; {lost:.3e} of the spectral weight "
            "violates the forward-propagation assumption (pulse too short "
            "or too wide)", ForwardClipWarning)
    ct = C * params.tau
    dy, s_max = _Y / ct, _Y / params.w  # in Python floats: an overflow is inf, not an error
    if not all(map(math.isfinite, (k0 - dy, k0 + dy, s_max))):
        raise ValueError("support window must be finite")
    if k0 <= 0.0:
        raise ValueError("support must lie in the forward half-space k_z > 0")
    if k0 + dy <= k0 - dy:
        raise ValueError("degenerate support window")
    return k0, ct, s_max


def _amplitude(params: GaussianPulseParams, s, kz, u):
    """Spectral field amplitude of the boundary pulse at k_perp = s, k_z, |k| = u,
    a(k) = E0 w^2 exp(-s^2 w^2/2) (c^2 k_z/omega_k) exp(-y^2/2), y = (omega_k -
    omega0) tau, less the rule's weight exp(-y^2/2); shared by density and field."""
    e0, w = params.e0, params.w
    return e0 * w * w * np.exp(-s * s * w * w / 2.0) * (C * kz / u)


def _density(params: GaussianPulseParams, s, kz, u, y):
    """Photon number per unit exp(-y^2/2) d^3k (polarization summed out):
    rho(k) = tau^2 a(k)^2/(8 pi hbar omega_k) less the rule's weight."""
    a = _amplitude(params, s, kz, u)
    return (params.tau * params.tau / (8.0 * math.pi * HBAR * C)
            * a * a * np.exp(-0.5 * y * y) / u)


_legendre = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


def _nodes(k0: float, ct: float, s_max: float, n: int):
    """The shell rule at n nodes per axis: u = k0 + y/(c tau) at n evenly
    spaced y over [-_Y, _Y] of weight h exp(-y^2/2), h = 2 _Y/(n - 1) (the
    trapezoidal rule: error ~exp(-2 pi^2/h^2), Trefethen & Weideman 2014),
    rows u <= 0 dropped, times s = cap sin phi, cap = min(s_max, u), with phi
    on Gauss-Legendre nodes over [0, pi/2]: the shell's edge s = u is an end
    of the phi axis, and rows of cap s_max share their s.  Returns, s-major,
    s, k_z = sqrt((u - cap)(u + cap) + (cap cos phi)^2), u, y, the deficit
    omega_k - c k_z as c s^2/(u + k_z), and d3k, each node's share of exp(-y^2/2)
    d^3k, d^3k = 2 pi s ds du u/k_z, ds = cap cos phi dphi: the measure's home."""
    x, wphi = _legendre(n)
    y = np.linspace(-_Y, _Y, n)
    u = k0 + y / ct
    y, u = y[u > 0.0], u[u > 0.0]
    wu = (2.0 * _Y / (n - 1)) * np.exp(-0.5 * y * y)
    phi = (0.25 * math.pi) * (x[:, None] + 1.0)
    cap = np.minimum(s_max, u)
    s, ds = cap * np.sin(phi), cap * np.cos(phi)
    kz = np.sqrt((u - cap) * (u + cap) + ds * ds)  # u cos phi on an edge row
    d3k = (0.5 * math.pi**2 / ct) * s * ds * wphi[:, None] * wu * u / kz
    return tuple(a.ravel() for a in np.broadcast_arrays(s, kz, u, y, C * s * s / (u + kz), d3k))


@np.errstate(over="raise", invalid="raise")
def _refine(estimate: Callable[[int], np.ndarray], rtol: float, atol: float) -> np.ndarray:
    """estimate(n) for n doubling from _BASE_N up to _MAX_N >= 2 _BASE_N until
    two levels agree to atol + rtol*|cur| in each component; overflow or NaN
    is FloatingPointError."""
    n = _BASE_N
    cur = estimate(n)
    while 2 * n <= _MAX_N:
        n *= 2
        prev, cur = cur, estimate(n)
        delta, tol = np.abs(cur - prev), atol + rtol * np.abs(cur)
        if np.all(delta <= tol):
            return cur
    worst = int(np.argmax(delta - tol))
    raise QuadratureError(
        f"quadrature unresolved at {n} nodes per axis: successive levels "
        f"differ by {delta[worst]:.3g} > {tol[worst]:.3g}")


def integrate_observables(params: GaussianPulseParams) -> EnergyMomentum:
    """Energy, z-momentum, photon number and the deficit epsilon - c*p_z of
    the pulse by one adaptive quadrature of _density on the shell rule.

    The transverse momentum components vanish identically by azimuthal
    symmetry and are never computed.  The deficit integrand omega_k - c*k_z
    is _nodes' cancellation-free deficit.
    """
    rule = _rule(params)

    def estimate(n):
        S, KZ, U, Y, deficit, d3k = _nodes(*rule, n)
        photons = _density(params, S, KZ, U, Y) * d3k

        # numpy's pairwise sums, each within a few ulp, one integrand at a time
        return np.array([(HBAR * (C * U) * photons).sum(), (HBAR * KZ * photons).sum(),
                         photons.sum(), (HBAR * deficit * photons).sum()])

    totals = _refine(estimate, _QUAD_REL_TOL, _QUAD_REL_TOL * np.finfo(float).tiny)
    return EnergyMomentum(*map(float, totals))


def pulse_mass_quadrature(params: GaussianPulseParams) -> float:
    """Invariant mass in g by kinematics.invariant_mass, the one mass formula,
    with the deficit epsilon - c*p_z from its own integral."""
    obs = integrate_observables(params)
    return invariant_mass(FourMomentum(obs.energy / C, 0.0, 0.0, obs.pz, obs.deficit / C))


def field_profile(params: GaussianPulseParams, r_perp: float, z: float,
                  times: np.ndarray) -> np.ndarray:
    """Scalar field strength (statvolt/cm) at (r_perp, z) and each of the
    times, z >= 0: the forward-propagating k-integral of
    J0(k_perp r_perp) a(k) sin(omega t - k_z z) tau/(2 pi sqrt(2 pi)) d^3k on
    the shell rule, one node count for all times.  J0 is _j0 in numpy: the
    midpoint rule on Bessel's integral, Hankel's expansion past _J0_X.

    From _BASE_N nodes per axis the count doubles until two levels agree to
    _FIELD_ABS_TOL * e0 at every time, up to _MAX_N; past that, or for a
    time too far from z/c, QuadratureError is raised.  A phase that
    overflows is a FloatingPointError naming the first of the times, in
    their given order, at which it overflows.
    """
    if not (math.isfinite(r_perp) and math.isfinite(z)):
        raise ValueError("r_perp and z must be finite")
    if z < 0.0:
        raise ValueError("the boundary problem defines the field for z >= 0 only")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    rule = _rule(params)

    def estimate(n):
        S, kz, U, _, deficit, d3k = _nodes(*rule, n)
        # one J0 per distinct k_perp: rows of cap s_max repeat each s
        s, of_node = np.unique(S, return_inverse=True)
        static = _j0(s * r_perp)[of_node] * _amplitude(params, S, kz, U) * d3k
        static *= params.tau / (2.0 * math.pi) ** 1.5
        # the phase omega*t - k_z*z as (omega - c k_z) t + k_z (c t - z), whose
        # spread over the nodes stays small near t ~ z/c out to the Rayleigh
        # range; times go in chunks of at most _FIELD_CHUNK phases, each
        # contracted on its own so its bits do not depend on the chunking
        out = np.empty(len(times))
        step = max(1, _FIELD_CHUNK // len(static))
        for i in range(0, len(times), step):
            t = times[i:i + step, None]
            with np.errstate(over="ignore", invalid="ignore"):
                phase = t * deficit + (C * t - z) * kz
            # each node's phase is monotone in t, so the rows of least and
            # greatest t overflow if any row does
            if not np.isfinite(phase[[t.argmin(), t.argmax()]]).all():
                bad = ~np.isfinite(phase).all(axis=1)
                raise FloatingPointError(
                    "the phase (omega - c k_z) t + k_z (c t - z) overflows at "
                    f"t = {float(t[np.argmax(bad), 0])!r} s")
            out[i:i + step] = [row @ static for row in np.sin(phase, out=phase)]
        return out

    try:
        field = _refine(estimate, 0.0, _FIELD_ABS_TOL * params.e0)
    except QuadratureError as exc:
        raise QuadratureError(
            f"boundary field {exc} statvolt/cm; |t - z/c| or r_perp too large "
            "for the shell rule") from None
    # the phase turns by (t - z/c)/tau per unit y, sampled twice per turn at
    # _MAX_N nodes out to `reach`; past it levels can agree on one alias
    reach = math.pi * (_MAX_N - 1) / (2.0 * _Y)
    far = np.abs(times - z / C) > reach * params.tau
    if far.any():
        raise QuadratureError(
            f"boundary field unresolved at {_MAX_N} nodes per axis: t = {float(times[far][0])!r}"
            f" s lies more than {reach:.3g} tau from t = z/c")
    return field
