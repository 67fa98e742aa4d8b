"""Tests for the closed-form paraxial pulse results."""

import dataclasses
import math
import warnings

import pytest

from pulsemass.constants import C, HBAR
from pulsemass.analytic import (
    ParaxialError,
    ParaxialWarning,
    mass_from_energy,
    mass_from_photon_number,
    pulse_energy,
    speed_deficit,
    summarize,
    w_limit_scaling,
)
from pulsemass.spectral import GaussianPulseParams

LAM = 1e-4
OMEGA0 = 2 * math.pi * C / LAM

# the paper's worked example: 10 mJ, 1 ps, w = 1 cm, lambda = 1 um
PAPER_PULSE = GaussianPulseParams.from_energy(1e5, 1e-12, 1.0, OMEGA0)


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
        m = mass_from_photon_number(5.0341e16, OMEGA0, 1.0)
        assert m == pytest.approx(1.77e-21, rel=1e-2, abs=0)
        # consistent with the energy form via epsilon = N hbar omega0
        n = 3.7e15
        assert mass_from_photon_number(n, OMEGA0, 1.0) == pytest.approx(
            mass_from_energy(n * HBAR * OMEGA0, LAM, 1.0), rel=1e-13, abs=0)

    def test_zero_photons_zero_mass(self):
        assert mass_from_photon_number(0.0, OMEGA0, 1.0) == 0.0

    def test_two_beam_model_coincidence(self):
        # two beams of N/2 photons each at theta = lambda/(2 pi w), i.e.
        # <k_perp^2> = 1/w^2, reproduce the diffracting-pulse mass
        n = 5.0e16
        w = 1.0
        theta = LAM / (2 * math.pi * w)
        m_beams = 2 * (n / 2) * HBAR * OMEGA0 / C**2 * math.sin(theta)
        assert mass_from_photon_number(n, OMEGA0, w) == pytest.approx(
            m_beams, rel=1e-9, abs=0)


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

    def test_rest_energy_equals_mass_c_squared(self):
        s = summarize(PAPER_PULSE)
        assert s.rest_energy == s.mass * C * C
        assert s.rest_energy == pytest.approx(
            mass_from_energy(s.energy, LAM, PAPER_PULSE.w) * C**2, rel=1e-14, abs=0)


class TestOneMassFormula:
    def test_photon_number_form_is_the_energy_form(self):
        n = 5.0341e16
        assert mass_from_photon_number(n, OMEGA0, 2.0) == mass_from_energy(
            n * HBAR * OMEGA0, 2 * math.pi * C / OMEGA0, 2.0)

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
        with pytest.raises(OverflowError, match=r"w = 1e\+200 cm: w\^2 overflows"):
            w_limit_scaling(PAPER_PULSE, "fixed_E0", [1e200])

    @pytest.mark.parametrize("mode", ["fixed_E0", "fixed_N"])
    def test_rows_carry_the_speed_deficit(self, mode):
        waists = [0.3, 0.7, 1.0, 2.5]
        for w, m, dv in w_limit_scaling(PAPER_PULSE, mode, waists):
            at = dataclasses.replace(PAPER_PULSE, w=w) if mode == "fixed_E0" else PAPER_PULSE
            assert dv == speed_deficit(m, pulse_energy(at))

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
        (math.nan, OMEGA0, 1.0), (math.inf, OMEGA0, 1.0), (-1.0, OMEGA0, 1.0),
        (1e16, math.nan, 1.0), (1e16, 0.0, 1.0), (1e16, OMEGA0, math.nan)])
    def test_mass_from_photon_number(self, args):
        with pytest.raises(ValueError, match="finite"):
            mass_from_photon_number(*args)

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

    @pytest.mark.parametrize("mass, energy", [
        (1e190, 1e220),   # (m c^2)^2 raises
        (1e-10, 1e160),   # energy^2 is inf, which made c - v a silent 0
        (1e129, 1e150),   # (m c^2)^2 is finite, c (m c^2)^2 is not
    ])
    def test_speed_deficit(self, mass, energy):
        with pytest.raises(OverflowError, match=r"c - v = c \(m c\^2\)\^2/\(2 energy\^2\)"):
            speed_deficit(mass, energy)

    def test_in_range_values_are_unchanged(self):
        mass, energy = 1.7e-21, 1e5
        assert speed_deficit(mass, energy) == C * (mass * C * C) ** 2 / (2.0 * energy * energy)
        assert pulse_energy(PAPER_PULSE) == (math.sqrt(math.pi) * C * PAPER_PULSE.tau
                                             * PAPER_PULSE.w**2 * PAPER_PULSE.e0**2 / 8.0)
