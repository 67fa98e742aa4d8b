"""Design calculations for slow-light measurement schemes: the SPDC
transverse-momentum speed, the mass <-> <k_perp^2> correspondence, and the
two-channel confocal focusing-defocusing delay experiment.
"""
from __future__ import annotations

import math
import warnings
from collections import namedtuple

from .constants import C
from .analytic import mass_and_speed_deficit, pulse_energy
from .pulse import GaussianPulseParams, _checked_record


class GeometryWarning(UserWarning):
    """Lens geometry approaching the limit of the thin-pencil approximation."""


class ExperimentConfig(_checked_record("ExperimentConfig", "w_half f source")):
    """Confocal-lens geometry plus the source pulse.

    w_half is the per-channel waist outside the focusing-defocusing region
    (roughly half the source waist); f the focal length of each lens.
    """

    __slots__ = ()

    def __new__(cls, w_half: float, f: float, source: GaussianPulseParams):
        if not (0.0 < w_half < math.inf and 0.0 < f < math.inf):
            raise ValueError("w_half and f must be finite and strictly positive")
        ratio = w_half / f
        if ratio > 0.2:
            raise ValueError(f"w_half/f = {ratio:.3g} too large; need w_half << f")
        if ratio > 0.1:
            warnings.warn(f"w_half/f = {ratio:.3g} stretches the w_half << f "
                          "assumption", GeometryWarning)
        return super().__new__(cls, w_half, f, source)


class DelayReport(namedtuple("DelayReport", "v_channel delta_l separated m_fdr "
                                             "f_over_ld gain_over_intrinsic")):
    """Per-channel speed v_channel (cm/s), accumulated spatial delay delta_l
    (cm), and the in-region mass m_fdr (g).

    delta_l = 2f(1 - v/c) = w_half^2/f holds exactly at leading order in
    q = (w_half/f)^2; separated flags delta_l > c*tau.  v_channel, delta_l
    and m_fdr count the lens angle w_half/f only, not the beam's own
    divergence, f/L_D times it (see channel_delay).
    gain_over_intrinsic = L_D/f = 2 pi w_half^2/(f lambda); above 1 the
    lenses, not intrinsic divergence, dominate the slow-down.  It is computed
    as written, not as 1/f_over_ld, which rounds differently.
    """

    __slots__ = ()


def spdc_speed(k_perp_sq_mean: float, k_abs: float) -> float:
    """Axial propagation speed v = c - c q/2, q = <k_perp^2>/k^2, in cm/s, with k^2
    and <k_perp^2> times 2^-2x, x = frexp(k)[1]: the unscaled bits where k^2 is normal."""
    if not (0.0 <= k_perp_sq_mean < math.inf and 0.0 < k_abs < math.inf):
        raise ValueError("need finite <k_perp^2> >= 0 and |k| > 0")
    k, x = math.frexp(k_abs)
    try:
        q = math.ldexp(k_perp_sq_mean, -2 * x) / (k * k)
    except OverflowError:  # <k_perp^2> past 2^2x times the float range: >> k^2
        q = math.inf
    if q > 1.0:  # no slack: where k^2 is normal, <k_perp^2> = k^2 gives q = 1 exactly
        raise ValueError(f"<k_perp^2>/k^2 = {q:.6g} > 1: no photon has k_perp > |k|")
    return C - mass_and_speed_deficit(0.0, q)[1]  # c - v needs no energy


def mass_kperp_correspondence(mass: float, energy: float) -> float:
    """<k_perp^2>/|k|^2 = (m c^2/energy)^2 for the matching ensemble."""
    if not (0.0 <= mass < math.inf and 0.0 < energy < math.inf):
        raise ValueError("need finite mass >= 0 and energy > 0")
    # the kernel's m = energy sqrt(q)/c^2 rounds monotonically in q, subnormal m
    # included, so none exceeds its own at q = 1; m c^2/energy may round past 1
    if mass > energy / (C * C):
        raise ValueError("mass c^2 exceeds energy")
    ratio = min(mass * C * C / energy, 1.0)
    return ratio * ratio


def kperp_ratio_to_mass(ratio: float, energy: float) -> float:
    """Inverse map: mass in g from <k_perp^2>/|k|^2 and energy."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    if not 0.0 < energy < math.inf:
        raise ValueError("energy must be finite and strictly positive")
    return mass_and_speed_deficit(energy, ratio)[0]


def channel_delay(config: ExperimentConfig) -> DelayReport:
    """Speed, spatial delay and invariant mass inside the 2f region.

    The focused beam is taken to have <k_perp^2> = (w_half/f)^2 |k|^2, so
    q = (w_half/f)^2 gives v = c - c q/2, delta_l = 2f(1 - v/c) = f q and
    m_fdr = energy (w_half/f)/c^2.  That counts the lens angle w_half/f only,
    not the beam's own divergence 1/(k w_half), which is f/L_D times it;
    GeometryWarning flags f/L_D >= 0.1, where the latter is no longer small.
    The separation flag uses the Gaussian 1/e half-duration tau (the FWHM
    alternative would be 2*sqrt(ln 2)*tau).
    """
    r = config.w_half / config.f
    q = r * r
    m_fdr, deficit = mass_and_speed_deficit(pulse_energy(config.source), q)
    delta_l = config.f * q
    lam = config.source.wavelength
    w_half_sq = config.w_half * config.w_half
    try:
        f_over_ld = config.f * lam / (2.0 * math.pi * w_half_sq)
    except ZeroDivisionError:
        raise FloatingPointError(f"w_half = {config.w_half:.6g} cm: w_half^2 underflows, "
                                 "so f/L_D = f lambda/(2 pi w_half^2) is undefined") from None
    if f_over_ld >= 0.1:
        warnings.warn(f"f/L_D = {f_over_ld:.3g}: focusing gain not dominant "
                      "over intrinsic diffraction", GeometryWarning)
    return DelayReport(
        v_channel=C - deficit,
        delta_l=delta_l,
        separated=delta_l > C * config.source.tau,
        m_fdr=m_fdr,
        f_over_ld=f_over_ld,
        gain_over_intrinsic=2.0 * math.pi * w_half_sq / (config.f * lam),
    )
