"""Closed-form paraxial results for diffracting Gaussian pulses: energy,
photon number, invariant mass (three equivalent forms), speed deficit,
rest-frame energy, and the wide-beam limiting scalings.

Valid when lambda/w and lambda/(c*tau) are small; outside that regime use
the quadrature oracle in ``pulsemass.spectral``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .constants import C, HBAR
from .spectral import GaussianPulseParams, validity_ratio


class ParaxialError(ValueError):
    """Inputs outside the validity range of the closed forms."""


class ParaxialWarning(UserWarning):
    """Paraxial small parameters are getting large; accuracy degrades."""


WARN_RATIO = 0.05
ERROR_RATIO = 0.5


@dataclass(frozen=True)
class PulseSummary:
    """Paraxial pulse observables; rest_energy = mass*c^2 and
    speed_deficit/c = mass^2 c^4/(2 energy^2) hold by construction."""

    energy: float         # erg
    photon_count: float
    mass: float           # g
    speed_deficit: float  # cm/s, c - v
    rest_energy: float    # erg
    wavelength: float     # cm


def _check_paraxial(params: GaussianPulseParams) -> tuple[float, float]:
    rw, rt = validity_ratio(params)
    worst = max(rw, rt)
    if worst > ERROR_RATIO:
        raise ParaxialError(
            f"closed forms invalid (lambda/w = {rw:.3g}, lambda/ctau = {rt:.3g}); "
            "use spectral oracle")
    if worst > WARN_RATIO:
        warnings.warn(
            f"paraxial ratios large (lambda/w = {rw:.3g}, lambda/ctau = {rt:.3g}); "
            "closed forms degrade quadratically", ParaxialWarning)
    return rw, rt


def _squared(name: str, value: float, unit: str) -> float:
    """value^2, with an OverflowError that names the quantity where it
    leaves the range."""
    try:
        return value**2
    except OverflowError:
        raise OverflowError(
            f"{name} = {value:.6g} {unit}: {name}^2 overflows, so the pulse "
            "energy and mass are out of floating-point range") from None


def pulse_energy(params: GaussianPulseParams) -> float:
    """Paraxial pulse energy sqrt(pi)*c*tau*w^2*E0^2/8 in erg."""
    energy = (math.sqrt(math.pi) * C * params.tau * _squared("w", params.w, "cm")
              * _squared("e0", params.e0, "statvolt/cm") / 8.0)
    if not math.isfinite(energy):
        raise OverflowError(f"e0 = {params.e0:.6g} statvolt/cm, w = {params.w:.6g} cm, tau = "
                            f"{params.tau:.6g} s: the pulse energy is out of floating-point range")
    return energy


def speed_deficit(mass: float, energy: float) -> float:
    """c - v = c (m c^2)^2/(2 energy^2) in cm/s."""
    try:
        dv = C * (mass * C * C) ** 2 / (2.0 * energy * energy)
    except OverflowError:
        dv = math.inf
    if not (dv < math.inf and energy * energy < math.inf):
        raise OverflowError(f"mass = {mass:.6g} g, energy = {energy:.6g} erg: "
                            "c - v = c (m c^2)^2/(2 energy^2) overflows")
    return dv


def _closed_forms(params: GaussianPulseParams) -> PulseSummary:
    """summarize without the paraxial check; pulse_energy names any overflow of e0^2."""
    energy = pulse_energy(params)
    mass = math.sqrt(math.pi) * params.tau * params.w * params.e0**2 / (8.0 * params.omega0)
    return PulseSummary(
        energy=energy,
        photon_count=energy / (HBAR * params.omega0),
        mass=mass,
        speed_deficit=speed_deficit(mass, energy),
        rest_energy=mass * C * C,
        wavelength=params.wavelength,
    )


def summarize(params: GaussianPulseParams) -> PulseSummary:
    """All closed-form observables of a paraxial Gaussian pulse."""
    _check_paraxial(params)
    return _closed_forms(params)


def mass_from_energy(energy: float, lam: float, w: float) -> float:
    """m = energy/(2 pi c^2) * lambda/w, in g."""
    if not (0.0 <= energy < math.inf and 0.0 < lam < math.inf and 0.0 < w < math.inf):
        raise ValueError("energy must be finite and nonnegative, lambda and w "
                         "finite and strictly positive")
    return energy * lam / (2.0 * math.pi * C * C * w)


def mass_from_photon_number(n: float, omega0: float, w: float) -> float:
    """m = N hbar omega0/(2 pi c^2) * lambda/w, in g."""
    if not 0.0 <= n < math.inf:
        raise ValueError("photon number must be finite and nonnegative")
    if not 0.0 < omega0 < math.inf:
        raise ValueError("omega0 must be finite and strictly positive")
    return mass_from_energy(n * HBAR * omega0, 2.0 * math.pi * C / omega0, w)


def w_limit_scaling(params: GaussianPulseParams, mode: str,
                    waists: list[float]) -> list[tuple[float, float, float]]:
    """(w, mass, c - v) at each waist under the two wide-beam limits.

    mode "fixed_E0": amplitude held constant, m grows linearly in w.
    mode "fixed_N": photon number held constant, m falls as 1/w.
    """
    if not all(0.0 < w < math.inf for w in waists):
        raise ValueError("waists must be finite and strictly positive")
    if mode == "fixed_E0":
        summaries = [_closed_forms(replace(params, w=w)) for w in waists]
        return [(w, s.mass, s.speed_deficit) for w, s in zip(waists, summaries)]
    if mode == "fixed_N":
        energy = pulse_energy(params)
        n = energy / (HBAR * params.omega0)
        masses = [mass_from_photon_number(n, params.omega0, w) for w in waists]
        return [(w, m, speed_deficit(m, energy)) for w, m in zip(waists, masses)]
    raise ValueError(f"unknown scaling mode {mode!r}")
