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


class QuadratureError(RuntimeError):
    """Dyadic refinement failed to converge."""


class ForwardClipWarning(UserWarning):
    """The k_z > 0 clip discards non-negligible spectral weight."""


# Spectral windows extend to +-6 standard deviations of the respective
# Gaussian factors; the discarded tails are ~exp(-36).
_WINDOW_SIGMAS = 6.0

_QUAD_BASE_N = 8
_QUAD_MAX_LEVELS = 10
_QUAD_REL_TOL = 1e-10

# Boundary-field refinement: nodes per axis double from _FIELD_BASE_N until
# successive levels agree to _FIELD_ABS_TOL * e0 (criterion 10 asks for
# 1e-4 * e0), at most _FIELD_MAX_N; time chunks hold _FIELD_CHUNK phases.
_FIELD_BASE_N = 32
_FIELD_MAX_N = 512
_FIELD_ABS_TOL = 1e-9
_FIELD_CHUNK = 1 << 18


@dataclass(frozen=True)
class GaussianPulseParams:
    """Classical description of a Gaussian pulse at the z = 0 boundary.

    e0: field amplitude (statvolt/cm); tau: duration (s);
    w: waist (cm); omega0: carrier angular frequency (rad/s).
    """

    e0: float
    tau: float
    w: float
    omega0: float

    def __post_init__(self):
        for name in ("e0", "tau", "w", "omega0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in cm; the one canonical omega0 -> lambda spot."""
        return 2.0 * math.pi * C / self.omega0

    @classmethod
    def from_energy(cls, energy: float, tau: float, w: float,
                    omega0: float) -> "GaussianPulseParams":
        """Pick e0 so the paraxial pulse energy sqrt(pi)*c*tau*w^2*e0^2/8
        equals the given value in erg."""
        if not 0.0 < energy < math.inf:
            raise ValueError("energy must be finite and strictly positive")
        e0 = math.sqrt(8.0 * energy / (math.sqrt(math.pi) * C * tau * w * w))
        return cls(e0, tau, w, omega0)


def validity_ratio(params: GaussianPulseParams) -> tuple[float, float]:
    """The two paraxial small parameters (lambda/w, lambda/(c*tau))."""
    lam = params.wavelength
    return lam / params.w, lam / (C * params.tau)


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


def gaussian_spectral_density(params: GaussianPulseParams) -> SpectralDensity:
    """Photon density of the Gaussian boundary pulse.

    rho(k) = tau^2/(8 pi hbar omega_k) * |E0 w^2 exp(-k_perp^2 w^2/2)|^2
             * (c^2 k_z/omega_k)^2 * exp(-(omega_k - omega0)^2 tau^2).
    """
    e0, tau, w, omega0 = params.e0, params.tau, params.w, params.omega0
    k0 = omega0 / C
    dk = _WINDOW_SIGMAS / (C * tau)
    kz_lo = k0 - dk
    kz_hi = k0 + dk
    if kz_lo <= 0.0:
        # weight of the k_z Gaussian exp(-(kz-k0)^2 (c tau)^2) below zero
        lost = 0.5 * math.erfc(k0 * C * tau)
        if lost > 1e-12:
            warnings.warn(
                f"k_z window clipped at zero; {lost:.3e} of the spectral weight "
                "violates the forward-propagation assumption (pulse too short "
                "or too wide)", ForwardClipWarning)
        kz_lo = 1e-9 * k0

    def rho(kperp, kz):
        omega = C * np.hypot(kz, kperp)
        amp2 = (e0 * w * w) ** 2 * np.exp(-kperp * kperp * w * w)
        return (tau * tau / (8.0 * math.pi * HBAR)
                * amp2 * (C * C * kz) ** 2 / omega**3
                * np.exp(-((omega - omega0) * tau) ** 2))

    return SpectralDensity(rho, kz_lo, kz_hi, _WINDOW_SIGMAS / w)


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _grid(a: float, b: float, n: int):
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _tensor_estimate(components, density: SpectralDensity, n: int) -> np.ndarray:
    """Gauss-Legendre tensor product on n x n nodes over the support window."""
    kz, wz = _grid(density.kz_min, density.kz_max, n)
    kp, wp = _grid(0.0, density.kperp_max, n)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    vals = components(KP, KZ)  # shape (ncomp, n, n)
    # fixed contraction order keeps the result deterministic per level
    return np.einsum("cij,i,j->c", vals, wp, wz)


def _dyadic_quad(components, density: SpectralDensity,
                 rel_tol: float = _QUAD_REL_TOL) -> np.ndarray:
    """Refine by doubling nodes per axis until successive estimates agree."""
    prev = None
    n = _QUAD_BASE_N
    for _ in range(_QUAD_MAX_LEVELS):
        cur = _tensor_estimate(components, density, n)
        if prev is not None:
            scale = np.maximum(np.abs(cur), np.finfo(float).tiny)
            if np.all(np.abs(cur - prev) <= rel_tol * scale):
                return cur
        prev = cur
        n *= 2
    delta = np.abs(cur - prev) / np.maximum(np.abs(cur), np.finfo(float).tiny)
    raise QuadratureError(
        f"quadrature did not converge after {_QUAD_MAX_LEVELS} levels "
        f"(last n per axis {n // 2}, relative deltas {delta})")


def integrate_observables(density: SpectralDensity) -> EnergyMomentum:
    """Energy, z-momentum and photon number by k-space quadrature.

    d^3k = 2 pi k_perp dk_perp dk_z under azimuthal symmetry; the transverse
    momentum components vanish identically and are never computed.
    """
    def components(kp, kz):
        rho = density.amplitude(kp, kz)
        omega = C * np.hypot(kz, kp)
        base = 2.0 * math.pi * kp * rho
        return np.stack([HBAR * omega * base, HBAR * kz * base, base])

    energy, pz, count = _dyadic_quad(components, density)
    return EnergyMomentum(float(energy), float(pz), float(count))


def energy_momentum_deficit(density: SpectralDensity) -> float:
    """epsilon - c*p_z in erg, as a single integral of a positive integrand.

    omega_k - c*k_z is evaluated as c*k_perp^2/(|k| + k_z), which is exact
    and free of the catastrophic cancellation of the naive difference.
    """
    def components(kp, kz):
        k = np.hypot(kz, kp)
        deficit = C * kp * kp / (k + kz)
        return (2.0 * math.pi * kp * HBAR * deficit * density.amplitude(kp, kz))[None]

    return float(_dyadic_quad(components, density)[0])


def pulse_mass_quadrature(density: SpectralDensity) -> float:
    """Invariant mass in g: m^2 c^4 = (eps + c p_z)(eps - c p_z), with the
    second factor taken from the dedicated deficit integral."""
    obs = integrate_observables(density)
    deficit = energy_momentum_deficit(density)
    return math.sqrt(max((obs.energy + C * obs.pz) * deficit, 0.0)) / C**2


def _field_static(params: GaussianPulseParams, r_perp: float, n: int):
    """Boundary-field integrand on n x n Gauss-Legendre nodes, flattened:
    the time-independent amplitude times the weights and the prefactor
    tau/sqrt(2 pi), k_z, and the dispersion deficit omega_k - c*k_z in its
    cancellation-free form."""
    # imported here so that only field reconstruction pays for scipy
    from scipy.special import j0

    e0, tau, w, omega0 = params.e0, params.tau, params.w, params.omega0
    k0 = omega0 / C
    dk = _WINDOW_SIGMAS / (C * tau)
    kz, wz = _grid(max(k0 - dk, 1e-9 * k0), k0 + dk, n)
    kp, wp = _grid(0.0, _WINDOW_SIGMAS / w, n)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    k = np.hypot(KZ, KP)
    omega = C * k
    static = (KP * j0(KP * r_perp) * e0 * w * w * np.exp(-KP * KP * w * w / 2.0)
              * (C * C * KZ / omega)
              * np.exp(-((omega - omega0) * tau) ** 2 / 2.0))
    static *= np.outer(wp, wz) * (tau / math.sqrt(2.0 * math.pi))
    return static.ravel(), KZ.ravel(), (C * KP * KP / (k + KZ)).ravel()


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


def field_at(params: GaussianPulseParams, r_perp: float, z: float,
             t: float) -> float:
    """Scalar field strength (statvolt/cm) at (r_perp, z, t), z >= 0.

    Gauss-Legendre evaluation of the forward-propagating k-integral, refined
    until converged; raises QuadratureError where it cannot be resolved.
    """
    return float(field_profile(params, r_perp, z, np.asarray([t]))[0])


def field_profile(params: GaussianPulseParams, r_perp: float, z: float,
                  times: np.ndarray) -> np.ndarray:
    """field_at over an array of times, on one node count for all of them.

    Starting from _FIELD_BASE_N nodes per axis, the count doubles until two
    successive levels agree to _FIELD_ABS_TOL * e0 at every time, up to
    _FIELD_MAX_N; beyond that QuadratureError is raised.
    """
    if z < 0.0:
        raise ValueError("the boundary problem defines the field for z >= 0 only")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    # the phase span over the spectral window is convex in t, so the
    # earliest and latest times need the most nodes: refine on those two,
    # then confirm every time between the last two levels
    probe = times[[times.argmin(), times.argmax()]] if len(times) > 2 else times
    n = _FIELD_BASE_N
    coarse = _field_static(params, r_perp, n)
    prev = _field_sum(coarse, z, probe)
    while 2 * n <= _FIELD_MAX_N:
        n *= 2
        fine = _field_static(params, r_perp, n)
        cur = _field_sum(fine, z, probe)
        delta = float(np.max(np.abs(cur - prev), initial=0.0))
        if delta <= _FIELD_ABS_TOL * params.e0 and probe is not times:
            probe = times
            prev = _field_sum(coarse, z, times)
            cur = _field_sum(fine, z, times)
            delta = float(np.max(np.abs(cur - prev), initial=0.0))
        if delta <= _FIELD_ABS_TOL * params.e0:
            return cur
        prev, coarse = cur, fine
    raise QuadratureError(
        f"boundary field unresolved at {n} nodes per axis (successive levels "
        f"differ by {delta / params.e0:.3g} e0 > {_FIELD_ABS_TOL:g} e0); "
        "|t - z/c| or r_perp too large for the spectral window")
