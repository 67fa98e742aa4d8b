"""Continuum spectral photon density of a Gaussian pulse and its k-space
quadrature: total energy, momentum, photon number, invariant mass, and the
boundary-field reconstruction.

The quadrature keeps the exact (c^2 k_z/omega_k) Jacobian and the exact
dispersion omega_k = c*sqrt(k_z^2 + k_perp^2), so it serves as the
un-approximated oracle against which the closed paraxial forms in
``pulsemass.analytic`` are checked.
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
    """The k_z > 0 clip discards non-negligible spectral weight."""


# Spectral windows extend to +-6 standard deviations of the respective
# Gaussian factors; the discarded tails are ~exp(-36).
_WINDOW_SIGMAS = 6.0

# The oracle doubles nodes per axis from _QUAD_BASE_N until two levels agree
# to _QUAD_REL_TOL in every observable, at most _QUAD_MAX_N.
_QUAD_BASE_N = 8
_QUAD_MAX_N = 4096
_QUAD_REL_TOL = 1e-10

# Boundary-field refinement: nodes per axis double from _FIELD_BASE_N until
# successive levels agree to _FIELD_ABS_TOL * e0 (criterion 10 asks for
# 1e-4 * e0), at most _FIELD_MAX_N; time chunks hold _FIELD_CHUNK phases.
_FIELD_BASE_N = 32
_FIELD_MAX_N = 512
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


def _window(params: GaussianPulseParams) -> tuple[float, float, float]:
    """(kz_min, kz_max, kperp_max): k_z in k0 +- _WINDOW_SIGMAS/(c tau),
    clipped at 1e-9 k0, and k_perp up to _WINDOW_SIGMAS/w; the one spectral
    window of the oracle and the field, checked by _support."""
    k0 = params.omega0 / C
    dk = _WINDOW_SIGMAS / (C * params.tau)
    kz_lo = k0 - dk
    if kz_lo <= 0.0:
        # weight of the k_z Gaussian exp(-(kz-k0)^2 (c tau)^2) below zero
        lost = 0.5 * math.erfc(k0 * C * params.tau)
        if lost > 1e-12:
            warnings.warn(
                f"k_z window clipped at zero; {lost:.3e} of the spectral weight "
                "violates the forward-propagation assumption (pulse too short "
                "or too wide)", ForwardClipWarning)
        kz_lo = 1e-9 * k0
    return _support(kz_lo, k0 + dk, _WINDOW_SIGMAS / params.w)


def _support(kz_min: float, kz_max: float, kperp_max: float) -> tuple[float, float, float]:
    """The window, once it is finite, forward and of nonzero extent: a pulse
    of extreme tau or omega0 gives one that is not."""
    if not all(map(math.isfinite, (kz_min, kz_max, kperp_max))):
        raise ValueError("support window must be finite")
    if kz_min <= 0.0:
        raise ValueError("support must lie in the forward half-space k_z > 0")
    if kz_max <= kz_min or kperp_max <= 0.0:
        raise ValueError("degenerate support window")
    return kz_min, kz_max, kperp_max


def _amplitude(params: GaussianPulseParams, kperp, kz, k):
    """Spectral field amplitude of the Gaussian boundary pulse at nodes of
    norm k = |k|,

    a(k) = E0 w^2 exp(-k_perp^2 w^2/2) * (c^2 k_z/omega_k)
           * exp(-(omega_k - omega0)^2 tau^2/2),

    shared by the photon density and the boundary-field reconstruction.
    """
    e0, tau, w, omega0 = params.e0, params.tau, params.w, params.omega0
    omega = C * k
    return (e0 * w * w * np.exp(-kperp * kperp * w * w / 2.0)
            * (C * C * kz / omega)
            * np.exp(-((omega - omega0) * tau) ** 2 / 2.0))


def _density(params: GaussianPulseParams, kperp, kz, k):
    """Photon number per unit k^3-volume (polarization summed out),
    rho(k) = tau^2 a(k)^2/(8 pi hbar omega_k) with a(k) from _amplitude."""
    a = _amplitude(params, kperp, kz, k)
    return params.tau * params.tau / (8.0 * math.pi * HBAR * C) * a * a / k


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _grid(a: float, b: float, n: int):
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _nodes(kz_min: float, kz_max: float, kperp_max: float, n: int):
    """Gauss-Legendre tensor nodes KP, KZ (n x n, k_perp first) over the
    window, |k|, the dispersion deficit omega_k - c*k_z in its exact,
    cancellation-free form c*k_perp^2/(|k| + k_z), and d3k, each node's share
    of d^3k = 2 pi k_perp dk_perp dk_z: the one home of the measure."""
    kz, wz = _grid(kz_min, kz_max, n)
    kp, wp = _grid(0.0, kperp_max, n)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    K = np.hypot(KZ, KP)
    return KP, KZ, K, C * KP * KP / (K + KZ), np.outer(2.0 * math.pi * kp * wp, wz)


@np.errstate(over="raise", invalid="raise")
def _refine(estimate: Callable[[int], np.ndarray], n: int, n_max: int,
            rtol: float, atol: float) -> np.ndarray:
    """estimate(n) for n doubling up to n_max >= 2n, until two successive
    levels agree to atol + rtol*|cur| in every component; an overflow or
    invalid operation raises FloatingPointError at once."""
    cur = estimate(n)
    while 2 * n <= n_max:
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
    the pulse by one adaptive k-space quadrature of _density over _window.

    The transverse momentum components vanish identically by azimuthal
    symmetry and are never computed.  The deficit integrand omega_k - c*k_z
    is _nodes' cancellation-free deficit.
    """
    window = _window(params)

    def estimate(n):
        KP, KZ, k, deficit, d3k = _nodes(*window, n)
        photons = _density(params, KP, KZ, k) * d3k

        def total(integrand):
            # fixed contraction order keeps the result deterministic per level
            return np.einsum("ij,ij->", integrand, photons)

        # each integrand is contracted as soon as it is built, so only one
        # is held at a time
        return np.array([total(HBAR * (C * k)), total(HBAR * KZ), photons.sum(),
                         total(HBAR * deficit)])

    totals = _refine(estimate, _QUAD_BASE_N, _QUAD_MAX_N,
                     _QUAD_REL_TOL, _QUAD_REL_TOL * np.finfo(float).tiny)
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
    Gauss-Legendre nodes, one node count for all times.  J0 is _j0 in numpy:
    the midpoint rule on Bessel's integral, Hankel's expansion past _J0_X.

    Starting from _FIELD_BASE_N nodes per axis, the count doubles until two
    successive levels agree to _FIELD_ABS_TOL * e0 at every time, up to
    _FIELD_MAX_N; beyond that QuadratureError is raised.
    """
    if not (math.isfinite(r_perp) and math.isfinite(z)):
        raise ValueError("r_perp and z must be finite")
    if z < 0.0:
        raise ValueError("the boundary problem defines the field for z >= 0 only")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    window = _window(params)

    def estimate(n):
        KP, KZ, k, deficit, d3k = _nodes(*window, n)
        # one J0 per k_perp node, broadcast over k_z
        static = (_j0(KP[:, :1] * r_perp) * _amplitude(params, KP, KZ, k) * d3k).ravel()
        static *= params.tau / (2.0 * math.pi) ** 1.5
        kz, deficit = KZ.ravel(), deficit.ravel()
        # the phase omega*t - k_z*z as (omega - c k_z) t + k_z (c t - z), whose
        # spread over the nodes stays small near the pulse, t ~ z/c, out to
        # the Rayleigh range; times go in chunks of at most _FIELD_CHUNK phases,
        # each time contracted on its own so that its bits do not depend on
        # the chunk it falls in (a matrix-vector product's do)
        out = np.empty(len(times))
        step = max(1, _FIELD_CHUNK // len(static))
        for i in range(0, len(times), step):
            t = times[i:i + step, None]
            phase = t * deficit + (C * t - z) * kz
            out[i:i + step] = [row @ static for row in np.sin(phase, out=phase)]
        return out

    try:
        return _refine(estimate, _FIELD_BASE_N, _FIELD_MAX_N,
                       0.0, _FIELD_ABS_TOL * params.e0)
    except QuadratureError as exc:
        raise QuadratureError(
            f"boundary field {exc} statvolt/cm; |t - z/c| or r_perp too large "
            "for the spectral window") from None
