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


@dataclass(frozen=True)
class SpectralDensity:
    """Azimuthally symmetric photon density over forward-propagating k-space.

    amplitude(k_perp, k_z) must accept and return numpy arrays and yield the
    photon number per unit k^3-volume (polarization already summed out).
    """

    amplitude: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kz_min: float
    kz_max: float
    kperp_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kz_min, self.kz_max, self.kperp_max))):
            raise ValueError("support window must be finite")
        if self.kz_min <= 0.0:
            raise ValueError("support must lie in the forward half-space k_z > 0")
        if self.kz_max <= self.kz_min or self.kperp_max <= 0.0:
            raise ValueError("degenerate support window")


@dataclass(frozen=True)
class EnergyMomentum:
    """Totals from the spectral integrals; p_x = p_y = 0 by symmetry."""

    energy: float
    pz: float
    photon_count: float
    deficit: float  # epsilon - c*p_z, integrated directly


def _window(params: GaussianPulseParams) -> tuple[float, float, float]:
    """(kz_min, kz_max, kperp_max): k_z in k0 +- _WINDOW_SIGMAS/(c tau),
    clipped at 1e-9 k0, and k_perp up to _WINDOW_SIGMAS/w."""
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
    return kz_lo, k0 + dk, _WINDOW_SIGMAS / params.w


def _amplitude(params: GaussianPulseParams, kperp, kz):
    """Spectral field amplitude of the Gaussian boundary pulse,

    a(k) = E0 w^2 exp(-k_perp^2 w^2/2) * (c^2 k_z/omega_k)
           * exp(-(omega_k - omega0)^2 tau^2/2),

    shared by the photon density and the boundary-field reconstruction.
    """
    e0, tau, w, omega0 = params.e0, params.tau, params.w, params.omega0
    omega = C * np.hypot(kz, kperp)
    return (e0 * w * w * np.exp(-kperp * kperp * w * w / 2.0)
            * (C * C * kz / omega)
            * np.exp(-((omega - omega0) * tau) ** 2 / 2.0))


def gaussian_spectral_density(params: GaussianPulseParams) -> SpectralDensity:
    """Photon density of the Gaussian boundary pulse,
    rho(k) = tau^2 a(k)^2/(8 pi hbar omega_k) with a(k) from _amplitude."""
    scale = params.tau * params.tau / (8.0 * math.pi * HBAR * C)

    def rho(kperp, kz):
        a = _amplitude(params, kperp, kz)
        return scale * a * a / np.hypot(kz, kperp)

    return SpectralDensity(rho, *_window(params))


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
    cancellation-free form c*k_perp^2/(|k| + k_z), and the axis weights wp, wz."""
    kz, wz = _grid(kz_min, kz_max, n)
    kp, wp = _grid(0.0, kperp_max, n)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    K = np.hypot(KZ, KP)
    return KP, KZ, K, C * KP * KP / (K + KZ), wp, wz


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


def integrate_observables(density: SpectralDensity) -> EnergyMomentum:
    """Energy, z-momentum, photon number and the deficit epsilon - c*p_z by
    one adaptive k-space quadrature.

    d^3k = 2 pi k_perp dk_perp dk_z under azimuthal symmetry; the transverse
    momentum components vanish identically and are never computed.  The
    deficit integrand omega_k - c*k_z is _nodes' cancellation-free deficit.
    """
    def estimate(n):
        KP, KZ, k, deficit, wp, wz = _nodes(density.kz_min, density.kz_max, density.kperp_max, n)
        rho = density.amplitude(KP, KZ)
        base = 2.0 * math.pi * KP * rho

        def total(integrand):
            # fixed contraction order keeps the result deterministic per level
            return np.einsum("ij,i,j->", integrand, wp, wz)

        # each integrand is contracted as soon as it is built, so only one
        # is held at a time
        return np.array([total(HBAR * (C * k) * base), total(HBAR * KZ * base),
                         total(base), total(2.0 * math.pi * KP * HBAR * deficit * rho)])

    totals = _refine(estimate, _QUAD_BASE_N, _QUAD_MAX_N,
                     _QUAD_REL_TOL, _QUAD_REL_TOL * np.finfo(float).tiny)
    return EnergyMomentum(*map(float, totals))


def energy_momentum_deficit(density: SpectralDensity) -> float:
    """epsilon - c*p_z in erg, as a single integral of a positive integrand."""
    return integrate_observables(density).deficit


def pulse_mass_quadrature(density: SpectralDensity) -> float:
    """Invariant mass in g by kinematics.invariant_mass, the one mass formula,
    with the deficit epsilon - c*p_z from its own integral."""
    obs = integrate_observables(density)
    return invariant_mass(FourMomentum(obs.energy / C, 0.0, 0.0, obs.pz, obs.deficit / C))


def _field_static(params: GaussianPulseParams, r_perp: float, window, n: int):
    """Boundary-field integrand on n x n Gauss-Legendre nodes over window,
    flattened: the time-independent amplitude times the weights and the
    prefactor tau/sqrt(2 pi), k_z, and the dispersion deficit omega_k - c*k_z
    from _nodes."""
    # imported here so that only field reconstruction pays for scipy
    from scipy.special import j0

    KP, KZ, _, deficit, wp, wz = _nodes(*window, n)
    static = KP * j0(KP * r_perp) * _amplitude(params, KP, KZ)
    static *= np.outer(wp, wz) * (params.tau / math.sqrt(2.0 * math.pi))
    return static.ravel(), KZ.ravel(), deficit.ravel()


def _field_sum(level, z: float, times: np.ndarray) -> np.ndarray:
    """The boundary-field integral at each time on one _field_static level.

    The phase omega*t - k_z*z is taken as (omega - c k_z) t + k_z (c t - z),
    whose spread over the nodes stays small near the pulse, t ~ z/c, out to
    the Rayleigh range; times go in chunks of at most _FIELD_CHUNK phases.
    """
    static, kz, deficit = level
    out = np.empty(len(times))
    step = max(1, _FIELD_CHUNK // len(static))
    for i in range(0, len(times), step):
        t = times[i:i + step, None]
        phase = t * deficit + (C * t - z) * kz
        out[i:i + step] = np.sin(phase, out=phase) @ static
    return out


def field_profile(params: GaussianPulseParams, r_perp: float, z: float,
                  times: np.ndarray) -> np.ndarray:
    """Scalar field strength (statvolt/cm) at (r_perp, z) and each of the
    times, z >= 0: the forward-propagating k-integral on Gauss-Legendre
    nodes, one node count for all times.

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
        return _field_sum(_field_static(params, r_perp, window, n), z, times)

    try:
        return _refine(estimate, _FIELD_BASE_N, _FIELD_MAX_N,
                       0.0, _FIELD_ABS_TOL * params.e0)
    except QuadratureError as exc:
        raise QuadratureError(
            f"boundary field {exc} statvolt/cm; |t - z/c| or r_perp too large "
            "for the spectral window") from None
