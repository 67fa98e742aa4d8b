"""Tests for the closed-form paraxial pulse results."""

import dataclasses
import math
import re
import sys
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pulsemass.constants import C, HBAR
from pulsemass.analytic import (
    ParaxialError,
    ParaxialWarning,
    mass_and_speed_deficit,
    mass_from_energy,
    pulse_energy,
    summarize,
    w_limit_scaling,
)
from pulsemass.experiment import (
    ExperimentConfig,
    GeometryWarning,
    channel_delay,
    mass_kperp_correspondence,
)
from pulsemass.kinematics import BoostFrame
from pulsemass.spectral import GaussianPulseParams

LAM = 1e-4
OMEGA0 = 2 * math.pi * C / LAM

# the paper's worked example: 10 mJ, 1 ps, w = 1 cm, lambda = 1 um
PAPER_PULSE = GaussianPulseParams.from_energy(1e5, 1e-12, 1.0, OMEGA0)


def waist_q(w, lam=LAM):
    """q = <k_perp^2>/k^2 = (lambda/(2 pi w))^2 of a Gaussian waist."""
    r = lam / (2 * math.pi * w)
    return r * r


class TestSummarize:
    def test_paper_photon_number(self):
        s = summarize(PAPER_PULSE)
        # 1e5 erg / (hbar * 2 pi c / 1e-4 cm); hand-computed with CODATA hbar
        assert s.photon_count == pytest.approx(5.0341e16, rel=2e-5, abs=0)

    def test_paper_mass_example(self):
        # formula-normative: Eq-by-substitution value, not the quoted 1e-20 g
        s = summarize(PAPER_PULSE)
        assert s.mass == pytest.approx(1.77e-21, rel=1e-2, abs=0)

    def test_speed_deficit_value(self):
        s = summarize(PAPER_PULSE)
        assert s.speed_deficit / C == pytest.approx(1.2665e-10, rel=1e-4, abs=0)

    def test_internal_consistency(self):
        s = summarize(PAPER_PULSE)
        assert s.rest_energy == s.mass * C * C
        assert s.speed_deficit / C == pytest.approx(
            (s.mass * C * C) ** 2 / (2 * s.energy**2), rel=1e-15, abs=0)
        assert s.mass <= s.energy / C**2

    def test_speed_deficit_identity(self):
        s = summarize(PAPER_PULSE)
        assert s.speed_deficit / C == pytest.approx(
            (s.wavelength / PAPER_PULSE.w) ** 2 / (8 * math.pi**2), rel=1e-12, abs=0)

    def test_energy_matches_from_energy_constructor(self):
        assert summarize(PAPER_PULSE).energy == pytest.approx(1e5, rel=1e-14, abs=0)

    def test_nonparaxial_error(self):
        with pytest.raises(ParaxialError, match="spectral oracle"):
            summarize(GaussianPulseParams(1.0, 1e-15, 1e-4, OMEGA0))

    def test_marginal_warns(self):
        p = GaussianPulseParams(1.0, 1e-12, LAM / 0.1, OMEGA0)  # lambda/w = 0.1
        with pytest.warns(ParaxialWarning):
            summarize(p)

    def test_mass_monotonic_in_amplitude(self):
        masses = [summarize(GaussianPulseParams(e0, 1e-12, 1.0, OMEGA0)).mass
                  for e0 in (1.0, 2.0, 3.0)]
        assert masses[0] < masses[1] < masses[2]
        assert masses[1] / masses[0] == pytest.approx(4.0, rel=1e-14, abs=0)


class TestMassForms:
    def test_mass_from_energy_plug_in(self):
        assert mass_from_energy(1e5, 1e-4, 1.0) == pytest.approx(1.77e-21, rel=1e-2, abs=0)

    def test_plane_wave_limit(self):
        assert mass_from_energy(1e5, 1e-12, 1.0) < 1e-28

    def test_doubling_w_halves_mass(self):
        m1 = mass_from_energy(1e5, 1e-4, 1.0)
        m2 = mass_from_energy(1e5, 1e-4, 2.0)
        assert m1 / m2 == pytest.approx(2.0, rel=1e-14, abs=0)

    def test_cross_form_consistency(self):
        p = PAPER_PULSE
        s = summarize(p)
        assert mass_from_energy(pulse_energy(p), p.wavelength, p.w) == pytest.approx(
            s.mass, rel=1e-12, abs=0)

    def test_mass_from_photon_number(self):
        # the paper's photon-number form m = N hbar omega0/(2 pi c^2) * lambda/w
        n = 5.0341e16
        m, _ = mass_and_speed_deficit(n * HBAR * OMEGA0, waist_q(1.0))
        assert m == pytest.approx(1.77e-21, rel=1e-2, abs=0)
        assert m == pytest.approx(mass_from_energy(n * HBAR * OMEGA0, LAM, 1.0), rel=1e-15, abs=0)

    def test_zero_photons_zero_mass(self):
        assert mass_and_speed_deficit(0.0, waist_q(1.0)) == (0.0, C * waist_q(1.0) / 2)

    def test_two_beam_model_coincidence(self):
        # two beams of N/2 photons each at theta = lambda/(2 pi w), i.e.
        # <k_perp^2> = 1/w^2, reproduce the diffracting-pulse mass
        n = 5.0e16
        w = 1.0
        theta = LAM / (2 * math.pi * w)
        m_beams = 2 * (n / 2) * HBAR * OMEGA0 / C**2 * math.sin(theta)
        m, _ = mass_and_speed_deficit(n * HBAR * OMEGA0, waist_q(w))
        assert m == pytest.approx(m_beams, rel=1e-9, abs=0)


class TestScalingAndRestFrame:
    def test_fixed_e0_scaling(self):
        rows = w_limit_scaling(PAPER_PULSE, "fixed_E0", [1.0, 2.0, 4.0])
        masses = [m for _, m, _ in rows]
        assert masses[1] / masses[0] == pytest.approx(2.0, rel=1e-14, abs=0)
        assert masses[2] / masses[0] == pytest.approx(4.0, rel=1e-14, abs=0)

    def test_fixed_n_scaling(self):
        rows = w_limit_scaling(PAPER_PULSE, "fixed_N", [1.0, 2.0, 4.0])
        masses = [m for _, m, _ in rows]
        assert masses[0] / masses[1] == pytest.approx(2.0, rel=1e-14, abs=0)
        assert masses[0] / masses[2] == pytest.approx(4.0, rel=1e-14, abs=0)

    def test_single_factor_is_baseline(self):
        rows = w_limit_scaling(PAPER_PULSE, "fixed_E0", [PAPER_PULSE.w])
        assert rows[0][1] == pytest.approx(summarize(PAPER_PULSE).mass, rel=1e-14, abs=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            w_limit_scaling(PAPER_PULSE, "fixed_tau", [1.0])
        with pytest.raises(ValueError, match="unknown scaling mode"):
            w_limit_scaling(PAPER_PULSE, "fixed_tau", [])  # refused before any row

    def test_rest_frame_energy_plug_in(self):
        assert mass_from_energy(1e5, 1e-4, 1.0) * C**2 == pytest.approx(
            1e5 * 1e-4 / (2 * math.pi), rel=1e-14, abs=0)
        assert mass_from_energy(1e5, 1e-4, 1.0) * C**2 == pytest.approx(
            1.59, rel=1e-2, abs=0)

    def test_rest_frame_energy_formula_boundary(self):
        # lambda/(2 pi w) = 1: rest energy equals lab energy (outside paraxial
        # validity but the formula itself is exact algebra)
        lam = 1.0
        w = 1.0 / (2 * math.pi)
        assert mass_from_energy(1e5, lam, w) * C**2 == pytest.approx(
            1e5, rel=1e-14, abs=0)

    @pytest.mark.parametrize("mode", ["fixed_E0", "fixed_N"])
    def test_waist_below_a_reduced_wavelength_is_refused(self, mode):
        # lambda/w = 100: q = (lambda/w)^2/(4 pi^2) ~ 253 would give m > E/c^2
        with pytest.raises(ValueError, match=r"^lambda/w = 100 > 2 pi: "):
            w_limit_scaling(PAPER_PULSE, mode, [1.0, LAM / 100])

    def test_mass_from_energy_refuses_a_waist_below_a_reduced_wavelength(self):
        with pytest.raises(ValueError, match=r"^lambda/w = 100 > 2 pi: "):
            mass_from_energy(1e5, LAM, LAM / 100)

    def test_rest_energy_equals_mass_c_squared(self):
        s = summarize(PAPER_PULSE)
        assert s.rest_energy == s.mass * C * C
        assert s.rest_energy == pytest.approx(
            mass_from_energy(s.energy, LAM, PAPER_PULSE.w) * C**2, rel=1e-14, abs=0)


class TestOneMassFormula:
    def test_photon_number_form_is_the_energy_form(self):
        # fixed_N holds the photon number, so the energy: each row's mass is
        # mass_from_energy's at that waist, with no photon-number round trip
        energy = pulse_energy(PAPER_PULSE)
        for w, m, _ in w_limit_scaling(PAPER_PULSE, "fixed_N", [0.5, 2.0, 3.0]):
            assert m == mass_from_energy(energy, PAPER_PULSE.wavelength, w)

    def test_fixed_e0_matches_summarize_at_each_waist(self):
        for (w, m, dv), waist in zip(w_limit_scaling(PAPER_PULSE, "fixed_E0", [0.5, 3.0]),
                                     [0.5, 3.0]):
            s = summarize(dataclasses.replace(PAPER_PULSE, w=waist))
            assert (w, m, dv) == (waist, s.mass, s.speed_deficit)

    def test_fixed_e0_sweep_past_paraxial_limit_is_silent(self):
        # lambda/w = 1: summarize would raise ParaxialError here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(w, m, _)] = w_limit_scaling(PAPER_PULSE, "fixed_E0", [LAM])
        assert m == pytest.approx(summarize(PAPER_PULSE).mass * LAM, rel=1e-14, abs=0)

    def test_fixed_e0_rejects_a_waist_that_overflows(self):
        with pytest.raises(OverflowError, match=(
                rf"^e0 = {PAPER_PULSE.e0:.6g} statvolt/cm, w = 1e\+200 cm, tau = 1e-12 s: "
                r"the pulse energy is out of floating-point range$")):
            w_limit_scaling(PAPER_PULSE, "fixed_E0", [1e200])

    @pytest.mark.parametrize("mode", ["fixed_E0", "fixed_N"])
    def test_rows_carry_the_speed_deficit(self, mode):
        waists = [0.3, 0.7, 1.0, 2.5]
        for w, m, dv in w_limit_scaling(PAPER_PULSE, mode, waists):
            at = dataclasses.replace(PAPER_PULSE, w=w) if mode == "fixed_E0" else PAPER_PULSE
            lam_over_w = PAPER_PULSE.wavelength / w
            q = lam_over_w * lam_over_w / (4.0 * math.pi * math.pi)
            assert (m, dv) == mass_and_speed_deficit(pulse_energy(at), q)
            assert dv / C == pytest.approx(waist_q(w) / 2, rel=1e-15, abs=0)

    def test_waists_are_returned_as_given(self):
        # a waist is not rebuilt from a factor of the base waist
        base = dataclasses.replace(PAPER_PULSE, w=0.3)
        for mode in ("fixed_E0", "fixed_N"):
            assert [w for w, _, _ in w_limit_scaling(base, mode, [0.7])] == [0.7]


class TestNonFiniteArguments:
    @pytest.mark.parametrize("args", [
        (math.nan, LAM, 1.0), (math.inf, LAM, 1.0), (-1.0, LAM, 1.0),
        (1e5, math.nan, 1.0), (1e5, 0.0, 1.0), (1e5, LAM, math.nan),
        (1e5, LAM, math.inf)])
    def test_mass_from_energy(self, args):
        with pytest.raises(ValueError, match="finite"):
            mass_from_energy(*args)

    @pytest.mark.parametrize("args", [
        (math.inf, 0.25), (1e5, math.inf), (0.0, math.inf),
        (1e308, 1e250),    # m = energy sqrt(q)/c^2 overflows, c q/2 does not
        (1e-300, 1e299),   # c q/2 overflows, m does not
        (1e300, 1e300)])
    def test_mass_and_speed_deficit(self, args):
        with pytest.raises(OverflowError, match="^" + re.escape(
                f"energy = {args[0]:.6g} erg, q = {args[1]:.6g}: m = energy sqrt(q)/c^2 "
                "or c - v = c q/2 is out of floating-point range") + "$"):
            mass_and_speed_deficit(*args)

    @pytest.mark.parametrize("mode", ["fixed_E0", "fixed_N"])
    @pytest.mark.parametrize("waist", [math.nan, math.inf, 0.0, -1.0])
    def test_w_limit_scaling_factors(self, mode, waist):
        with pytest.raises(ValueError, match="waists must be finite"):
            w_limit_scaling(PAPER_PULSE, mode, [1.0, waist])


class TestOverflowNamesTheQuantity:
    def test_pulse_energy_product(self):
        # e0^2 and w^2 are in range; sqrt(pi) c tau w^2 e0^2/8 is not
        p = GaussianPulseParams(1e150, 1e-12, 1e5, OMEGA0)
        with pytest.raises(OverflowError, match="the pulse energy is out of floating-point range"):
            pulse_energy(p)

    # (m c^2)^2 or energy^2 is out of range at these pairs; the kernel forms
    # neither, so it gives c - v = c q/2 and the mass back
    @pytest.mark.parametrize("mass, energy", [
        (1e190, 1e220),   # (m c^2)^2 overflows
        (1e-10, 1e160),   # energy^2 overflows
        (1e129, 1e150),   # (m c^2)^2 is finite, c (m c^2)^2 is not
    ])
    def test_speed_deficit(self, mass, energy):
        q = mass_kperp_correspondence(mass, energy)
        m, dv = mass_and_speed_deficit(energy, q)
        assert dv == C * q / 2.0
        assert m == pytest.approx(mass, rel=1e-15, abs=0)

    def test_in_range_values_are_unchanged(self):
        for energy, q in [(1e5, 2.5e-11), (1e-130, 1e-8), (1e300, 0.5), (7.0, 0.0), (0.0, 1.0)]:
            assert mass_and_speed_deficit(energy, q) == (energy * math.sqrt(q) / (C * C),
                                                         C * q / 2.0)
        w, e0 = PAPER_PULSE.w, PAPER_PULSE.e0
        assert pulse_energy(PAPER_PULSE) == (math.sqrt(math.pi) * C * PAPER_PULSE.tau
                                             * (w * w) * (e0 * e0) / 8.0)


class TestMassSpeedKernel:
    """Properties of mass_and_speed_deficit over the float range."""

    ENERGY = st.floats(min_value=1e-300, max_value=1e300)
    Q = st.floats(min_value=0.0, max_value=1.0)

    @settings(max_examples=500, deadline=None)
    @given(energy=ENERGY, q=Q)
    @example(energy=101206381365159.0, q=1.0)  # m c^2 exceeds the energy by one ulp
    def test_mass_gives_q_back(self, energy, q):
        m, _ = mass_and_speed_deficit(energy, q)
        assume(m >= sys.float_info.min)  # a subnormal mass has lost bits of sqrt(q)
        # sqrt, *energy, /c^2 (and c^2's own rounding), then *c, *c, /energy:
        # seven roundings of sqrt(q), so at most 15 of q with its square
        back = mass_kperp_correspondence(m, energy)
        assert abs(back - q) <= 15 * 2.0**-53 * q + 2.0**-1074

    @settings(max_examples=500, deadline=None)
    @given(energy=ENERGY, q=Q, k=st.integers(min_value=-60, max_value=60))
    def test_speed_deficit_ignores_the_energy(self, energy, q, k):
        assume(-1000 < math.frexp(energy)[1] + k < 1000)
        assert (mass_and_speed_deficit(math.ldexp(energy, k), q)[1]
                == mass_and_speed_deficit(energy, q)[1])

    @settings(max_examples=200, deadline=None)
    @given(w_half=st.floats(min_value=1e-3, max_value=1e3),
           ratio=st.floats(min_value=0.02, max_value=0.19))
    def test_channel_delay_keeps_the_delay_identity(self, w_half, ratio):
        # below w_half/f ~ 0.016, 1 - v/c itself keeps fewer than 12 digits
        f = w_half / ratio
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GeometryWarning)
            report = channel_delay(ExperimentConfig(w_half, f, PAPER_PULSE))
        assert report.delta_l == pytest.approx(2 * f * (1 - report.v_channel / C),
                                               rel=1e-12, abs=0)
        r = w_half / f
        m, dv = mass_and_speed_deficit(pulse_energy(PAPER_PULSE), r * r)
        assert (report.m_fdr, report.v_channel, report.delta_l) == (m, C - dv, f * (r * r))


class TestSquaresAreProducts:
    # x**2 on a float goes through libm pow, which need not round x^2
    # correctly: glibc 2.36's misses the correctly rounded x*x on 1752 of
    # 2e6 random x in [0.5, 1) and on these three.  Where libm pow is
    # correctly rounded, this test also passes with ** squares.
    @pytest.mark.parametrize("x", [float.fromhex(h) for h in [
        "0x1.b270af43db484p-1", "0x1.f6d080d409077p-1", "0x1.1a17246eb275fp-1"]])
    def test_squares_round_as_products(self, x):
        p = dataclasses.replace(PAPER_PULSE, w=x)
        energy = math.sqrt(math.pi) * C * p.tau * (x * x) * (p.e0 * p.e0) / 8.0
        assert pulse_energy(p).hex() == energy.hex()
        assert BoostFrame(x).gamma.hex() == (1.0 / math.sqrt(1.0 - x * x)).hex()
