"""Design calculations for slow-light measurement schemes: the SPDC
transverse-momentum speed, the mass <-> <k_perp^2> correspondence, and the
two-channel confocal focusing-defocusing delay experiment.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import C
from .analytic import pulse_energy
from .pulse import GaussianPulseParams


class GeometryWarning(UserWarning):
    """Lens geometry approaching the limit of the thin-pencil approximation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Confocal-lens geometry plus the source pulse.

    w_half is the per-channel waist outside the focusing-defocusing region
    (roughly half the source waist); f the focal length of each lens.
    """

    w_half: float
    f: float
    source: GaussianPulseParams

    def __post_init__(self):
        if not (0.0 < self.w_half < math.inf and 0.0 < self.f < math.inf):
            raise ValueError("w_half and f must be finite and strictly positive")
        ratio = self.w_half / self.f
        if ratio > 0.2:
            raise ValueError(f"w_half/f = {ratio:.3g} too large; need w_half << f")
        if ratio > 0.1:
            warnings.warn(f"w_half/f = {ratio:.3g} stretches the w_half << f "
                          "assumption", GeometryWarning)


@dataclass(frozen=True)
class DelayReport:
    """Per-channel speed, accumulated spatial delay, and the in-region mass.

    delta_l = 2f(1 - v/c) holds exactly; separated flags delta_l > c*tau.
    gain_over_intrinsic = L_D/f = 2 pi w_half^2/(f lambda); above 1 the
    lenses, not intrinsic divergence, dominate the slow-down.  It is computed
    as written, not as 1/f_over_ld, which rounds differently.
    """

    v_channel: float   # cm/s
    delta_l: float     # cm
    separated: bool
    m_fdr: float       # g
    f_over_ld: float
    gain_over_intrinsic: float


def spdc_speed(k_perp_sq_mean: float, k_abs: float) -> float:
    """Axial propagation speed v = c(1 - <k_perp^2>/(2 k^2)) in cm/s."""
    if not (0.0 <= k_perp_sq_mean < math.inf and 0.0 < k_abs < math.inf):
        raise ValueError("need finite <k_perp^2> >= 0 and |k| > 0")
    ratio = k_perp_sq_mean / (2.0 * k_abs * k_abs)
    if ratio >= 1.0:
        raise ValueError("k_perp^2 >= 2 k^2: outside paraxial validity")
    return C * (1.0 - ratio)


def mass_kperp_correspondence(mass: float, energy: float) -> float:
    """<k_perp^2>/|k|^2 = (m c^2/energy)^2 for the matching ensemble."""
    if not (0.0 <= mass < math.inf and 0.0 < energy < math.inf):
        raise ValueError("need finite mass >= 0 and energy > 0")
    if mass * C * C > energy:
        raise ValueError("mass c^2 exceeds energy")
    return (mass * C * C / energy) ** 2


def kperp_ratio_to_mass(ratio: float, energy: float) -> float:
    """Inverse map: mass in g from <k_perp^2>/|k|^2 and energy."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    if not 0.0 < energy < math.inf:
        raise ValueError("energy must be finite and strictly positive")
    return energy * math.sqrt(ratio) / (C * C)


def channel_delay(config: ExperimentConfig) -> DelayReport:
    """Speed, spatial delay and invariant mass inside the 2f region.

    The focused Gaussian beam has <k_perp^2> = (w_half/f)^2 |k|^2, so
    v = c[1 - (w_half/f)^2/2] and delta_l = 2f(1 - v/c) = w_half^2/f.
    The separation flag uses the Gaussian 1/e half-duration tau (the FWHM
    alternative would be 2*sqrt(ln 2)*tau).
    """
    r = config.w_half / config.f
    half_deficit = 0.5 * r * r
    v = C * (1.0 - half_deficit)
    delta_l = 2.0 * config.f * half_deficit
    energy = pulse_energy(config.source)
    lam = config.source.wavelength
    f_over_ld = config.f * lam / (2.0 * math.pi * config.w_half**2)
    if f_over_ld >= 0.1:
        warnings.warn(f"f/L_D = {f_over_ld:.3g}: focusing gain not dominant "
                      "over intrinsic diffraction", GeometryWarning)
    return DelayReport(
        v_channel=v,
        delta_l=delta_l,
        separated=delta_l > C * config.source.tau,
        m_fdr=energy / (C * C) * r,
        f_over_ld=f_over_ld,
        gain_over_intrinsic=2.0 * math.pi * config.w_half**2 / (config.f * lam),
    )

