"""Tests for the slow-light experiment design calculations."""

import math
import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from pulsemass.constants import C
from pulsemass.analytic import mass_and_speed_deficit, summarize
from pulsemass.experiment import (
    ExperimentConfig,
    GeometryWarning,
    channel_delay,
    kperp_ratio_to_mass,
    mass_kperp_correspondence,
    spdc_speed,
)
from pulsemass.spectral import GaussianPulseParams

LAM = 1e-4
OMEGA0 = 2 * math.pi * C / LAM
SOURCE = GaussianPulseParams.from_energy(1e5, 1e-12, 1.0, OMEGA0)


def config(w_half=0.5, f=5.0):
    return ExperimentConfig(w_half=w_half, f=f, source=SOURCE)


class TestSpdcSpeed:
    def test_zero_kperp_gives_c(self):
        assert spdc_speed(0.0, 1.0) == C

    def test_plug_in(self):
        k = OMEGA0 / C
        # (C - v)/C itself keeps only ~7 digits after the subtraction
        assert spdc_speed(2e-10 * k * k, k) == pytest.approx(C * (1 - 1e-10), rel=1e-15, abs=0)

    def test_outside_validity(self):
        with pytest.raises(ValueError):
            spdc_speed(2.0, 1.0)

    # no photon has k_perp > |k|, so q = <k_perp^2>/k^2 > 1 is no ensemble's
    @pytest.mark.parametrize("k_perp_sq", [1.5, 1.999])
    def test_kperp_above_k_refused(self, k_perp_sq):
        with pytest.raises(ValueError, match=f"^<k_perp\\^2>/k\\^2 = {k_perp_sq} > 1: "):
            spdc_speed(k_perp_sq, 1.0)

    def test_kperp_equal_to_k_gives_half_c(self):
        assert spdc_speed(1.0, 1.0) == C / 2

    # unscaled, k^2 = 1e-340 underflows to 0 and 1e320 overflows to inf
    def test_k_squared_below_the_float_range_is_outside_validity(self):
        with pytest.raises(ValueError, match="^<k_perp\\^2>/k\\^2 = inf > 1: "
                                             "no photon has k_perp > \\|k\\|$"):
            spdc_speed(1.0, 1e-170)
        assert spdc_speed(0.0, 1e-170) == C

    def test_k_squared_above_the_float_range_keeps_the_ratio(self):
        # <k_perp^2>/(2 k^2) = 1e308/(2 1e320) = 5e-13; unscaled it read 0 and gave c
        assert spdc_speed(1e308, 1e160) == pytest.approx(C * (1 - 5e-13), rel=1e-15, abs=0)

    # at 2^500 the unscaled k^2 ~ 2^1032 overflows; <k_perp^2> ~ 2^1012 does not
    @pytest.mark.parametrize("scale", [-500, -250, 0, 250, 500])
    def test_scales_exactly(self, scale):
        k = OMEGA0 / C
        v = spdc_speed(1e-6 * k * k, k)
        assert spdc_speed(math.ldexp(1e-6 * k * k, 2 * scale), math.ldexp(k, scale)) == v


class TestCorrespondence:
    def test_massless_ratio_zero(self):
        assert mass_kperp_correspondence(0.0, 1e5) == 0.0

    def test_gaussian_pulse_ratio(self):
        s = summarize(SOURCE)
        ratio = mass_kperp_correspondence(s.mass, s.energy)
        assert ratio == pytest.approx((LAM / (2 * math.pi * SOURCE.w)) ** 2, rel=1e-12, abs=0)

    def test_round_trip_identity(self):
        m = 1.77e-21
        energy = 1e5
        ratio = mass_kperp_correspondence(m, energy)
        assert kperp_ratio_to_mass(ratio, energy) == pytest.approx(m, rel=1e-12, abs=0)

    def test_overweight_rejected(self):
        with pytest.raises(ValueError):
            mass_kperp_correspondence(1.0, 1e5)

    def test_overweight_subnormal_mass_rejected(self):
        # one subnormal ulp, 2^-1074 g, is twice the rounding a subnormal mass can carry
        with pytest.raises(ValueError, match="mass c\\^2 exceeds energy"):
            mass_kperp_correspondence(2.0**-1074, 1e-310)

    # below E ~ 2e-287 erg the kernel's mass at q = 1 is subnormal and has lost bits
    @settings(max_examples=500, deadline=None)
    @given(log_energy=st.floats(min_value=-323.0, max_value=-280.0),
           q=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)))
    @example(log_energy=-290.0, q=1.0)
    @example(log_energy=-295.0, q=1.0)
    def test_kernel_subnormal_mass_accepted(self, log_energy, q):
        energy = 10.0**log_energy
        m, _ = mass_and_speed_deficit(energy, q)
        assert 0.0 <= mass_kperp_correspondence(m, energy) <= 1.0

    def test_closure_with_analytic_speed(self):
        # the SPDC speed fed the matched <k_perp^2> reproduces the closed-form
        # speed deficit: the two formulas are the same algebra
        s = summarize(SOURCE)
        k = OMEGA0 / C
        ratio = mass_kperp_correspondence(s.mass, s.energy)
        v = spdc_speed(ratio * k * k, k)
        assert v == pytest.approx(C - s.speed_deficit, rel=1e-12, abs=0)
        # the deficit itself only survives to ~C*eps/deficit after the
        # subtraction from C, hence the looser relative tolerance
        assert C - v == pytest.approx(s.speed_deficit, rel=1e-6, abs=0)


class TestChannelDelay:
    def test_paper_delay_example(self):
        report = channel_delay(config())
        assert report.delta_l == pytest.approx(0.05, rel=1e-12, abs=0)

    def test_separated_for_picosecond_pulse(self):
        report = channel_delay(config())  # c*tau = 0.03 cm < 0.05 cm
        assert report.separated is True

    def test_velocity(self):
        report = channel_delay(config())
        assert report.v_channel / C == pytest.approx(0.995, rel=1e-12, abs=0)

    def test_delay_identity(self):
        for w_half, f in ((0.5, 5.0), (0.3, 7.0), (0.1, 2.0)):
            r = channel_delay(config(w_half=w_half, f=f))
            assert r.delta_l == pytest.approx(
                2 * f * (1 - r.v_channel / C), rel=1e-12, abs=0)
            assert r.delta_l == pytest.approx(w_half**2 / f, rel=1e-12, abs=0)

    def test_delay_monotonicity(self):
        d1 = channel_delay(config(w_half=0.3, f=5.0)).delta_l
        d2 = channel_delay(config(w_half=0.3, f=7.0)).delta_l
        d3 = channel_delay(config(w_half=0.4, f=5.0)).delta_l
        assert d2 < d1 < d3

    def test_fdr_mass_exceeds_intrinsic_when_gain_large(self):
        cfg = config()
        report = channel_delay(cfg)
        assert report.gain_over_intrinsic > 1.0
        assert report.m_fdr >= summarize(SOURCE).mass

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            config(w_half=2.0, f=5.0)
        with pytest.warns(GeometryWarning):
            config(w_half=0.75, f=5.0)

    @pytest.mark.parametrize("w_half, f", [
        (math.nan, 5.0), (0.5, math.nan), (0.5, math.inf), (math.inf, math.inf)])
    def test_non_finite_geometry_rejected(self, w_half, f):
        with pytest.raises(ValueError, match="finite"):
            config(w_half=w_half, f=f)


class TestGain:
    def test_plug_in(self):
        got = channel_delay(config()).gain_over_intrinsic
        assert got == pytest.approx(2 * math.pi * 0.25 / (1e-4 * 5.0), rel=1e-12, abs=0)
        assert got == pytest.approx(3.14e3, rel=1e-2, abs=0)

    def test_f_equal_ld_gives_unity(self):
        w_half = 0.5
        ld = 2 * math.pi * w_half**2 / LAM
        # f = L_D violates w_half << f by construction of a huge L_D, so use
        # a longer wavelength source to keep the geometry valid
        lam = 0.02
        src = GaussianPulseParams.from_energy(1e5, 1e-9, 50.0, 2 * math.pi * C / lam)
        ld = 2 * math.pi * w_half**2 / lam
        cfg = ExperimentConfig(w_half=w_half, f=ld, source=src)
        with pytest.warns(GeometryWarning, match="f/L_D = 1"):
            report = channel_delay(cfg)
        assert report.gain_over_intrinsic == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_gain_is_written_out_not_a_reciprocal(self):
        # 2 pi w_half^2/(f lambda) and 1/f_over_ld differ in the last digit
        # for a share of geometries; the report keeps the former
        rng = random.Random(7)
        for _ in range(200):
            w_half = rng.uniform(0.05, 1.0)
            f = w_half * rng.uniform(10.0, 100.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GeometryWarning)
                report = channel_delay(config(w_half=w_half, f=f))
            lam = SOURCE.wavelength
            assert report.gain_over_intrinsic == 2.0 * math.pi * w_half**2 / (f * lam)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("args", [
        (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
        (0.0, math.nan), (0.0, math.inf), (0.0, 0.0)])
    def test_spdc_speed(self, args):
        with pytest.raises(ValueError, match="finite"):
            spdc_speed(*args)

    @pytest.mark.parametrize("args", [
        (math.nan, 1e5), (math.inf, 1e5), (-1.0, 1e5),
        (0.0, math.nan), (0.0, math.inf), (0.0, 0.0)])
    def test_mass_kperp_correspondence(self, args):
        with pytest.raises(ValueError, match="finite"):
            mass_kperp_correspondence(*args)

    @pytest.mark.parametrize("args", [
        (math.nan, 1e5), (1.5, 1e5), (0.5, math.nan), (0.5, math.inf), (0.5, 0.0)])
    def test_kperp_ratio_to_mass(self, args):
        with pytest.raises(ValueError):
            kperp_ratio_to_mass(*args)
