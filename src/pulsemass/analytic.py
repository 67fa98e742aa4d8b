"""Closed-form paraxial results for diffracting Gaussian pulses: energy,
photon number, the (energy, q) -> (mass, c - v) relation every closed form
goes through, rest-frame energy, and the wide-beam limiting scalings.

Valid when lambda/w and lambda/(c*tau) are small; outside that regime use
the quadrature oracle in ``pulsemass.spectral``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .constants import C, HBAR
from .pulse import GaussianPulseParams, validity_ratio


class ParaxialError(ValueError):
    """Inputs outside the validity range of the closed forms."""


class ParaxialWarning(UserWarning):
    """Paraxial small parameters are getting large; accuracy degrades."""


WARN_RATIO = 0.05
ERROR_RATIO = 0.5


@dataclass(frozen=True)
class PulseSummary:
    """Paraxial pulse observables; rest_energy = mass*c^2 and
    speed_deficit = c q/2, q = (lambda/(2 pi w))^2 = (mass c^2/energy)^2,
    hold by construction."""

    energy: float         # erg
    photon_count: float
    mass: float           # g
    speed_deficit: float  # cm/s, c - v
    rest_energy: float    # erg
    wavelength: float     # cm


def pulse_energy(params: GaussianPulseParams) -> float:
    """Paraxial pulse energy sqrt(pi)*c*tau*w^2*E0^2/8 in erg."""
    w, e0 = params.w, params.e0
    energy = math.sqrt(math.pi) * C * params.tau * (w * w) * (e0 * e0) / 8.0
    if not math.isfinite(energy):
        raise OverflowError(f"e0 = {e0:.6g} statvolt/cm, w = {w:.6g} cm, tau = "
                            f"{params.tau:.6g} s: the pulse energy is out of floating-point range")
    return energy


def mass_and_speed_deficit(energy: float, q: float) -> tuple[float, float]:
    """The one link between mass and slowing, q = <k_perp^2>/k^2 = (m c^2/energy)^2:
    m = energy sqrt(q)/c^2 in g and, to leading order, c - v = c q/2 in cm/s,
    for energy >= 0 in erg and q >= 0.  c - v depends on q alone."""
    mass, deficit = energy * math.sqrt(q) / (C * C), C * q / 2.0
    if not (mass < math.inf and deficit < math.inf):
        raise OverflowError(f"energy = {energy:.6g} erg, q = {q:.6g}: m = energy sqrt(q)/c^2 "
                            "or c - v = c q/2 is out of floating-point range")
    return mass, deficit


def _waist_q(lam_over_w: float) -> float:
    """q = (lambda/w)^2/(4 pi^2) = 1/(k0 w)^2 of a Gaussian waist w, at most 1."""
    q = lam_over_w * lam_over_w / (4.0 * math.pi * math.pi)
    if q > 1.0:
        raise ValueError(f"lambda/w = {lam_over_w:.6g} > 2 pi: a waist below lambda/(2 pi) "
                         "gives q > 1, a mass above energy/c^2")
    return q


def summarize(params: GaussianPulseParams) -> PulseSummary:
    """All closed-form observables of a paraxial Gaussian pulse: ParaxialError
    past ERROR_RATIO, one ParaxialWarning past WARN_RATIO."""
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
    energy = pulse_energy(params)  # its range check covers e0^2
    mass, deficit = mass_and_speed_deficit(energy, _waist_q(rw))
    return PulseSummary(
        energy=energy,
        photon_count=energy / (HBAR * params.omega0),
        mass=mass,
        speed_deficit=deficit,
        rest_energy=mass * C * C,
        wavelength=params.wavelength,
    )


def mass_from_energy(energy: float, lam: float, w: float) -> float:
    """m = energy/(2 pi c^2) * lambda/w, in g."""
    if not (0.0 <= energy < math.inf and 0.0 < lam < math.inf and 0.0 < w < math.inf):
        raise ValueError("energy must be finite and nonnegative, lambda and w "
                         "finite and strictly positive")
    return mass_and_speed_deficit(energy, _waist_q(lam / w))[0]


def w_limit_scaling(params: GaussianPulseParams, mode: str,
                    waists: list[float]) -> list[tuple[float, float, float]]:
    """(w, mass, c - v) at each waist under the two wide-beam limits.

    mode "fixed_E0": amplitude held constant, m grows linearly in w.
    mode "fixed_N": photon number held constant, m falls as 1/w.
    """
    if not all(0.0 < w < math.inf for w in waists):
        raise ValueError("waists must be finite and strictly positive")
    if mode == "fixed_E0":
        energy_at = lambda w: pulse_energy(replace(params, w=w))
    elif mode == "fixed_N":
        energy = pulse_energy(params)
        energy_at = lambda w: energy
    else:
        raise ValueError(f"unknown scaling mode {mode!r}")
    lam = params.wavelength
    return [(w, *mass_and_speed_deficit(energy_at(w), _waist_q(lam / w))) for w in waists]
