"""Tests for the spectral photon density and its k-space quadrature."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad

from pulsemass import spectral
from pulsemass.constants import C, HBAR
from pulsemass.kinematics import (
    FourMomentum,
    PhotonEnsemble,
    PhotonMode,
    invariant_mass,
    total_four_momentum,
)
from pulsemass.spectral import (
    ForwardClipWarning,
    GaussianPulseParams,
    QuadratureError,
    SpectralDensity,
    energy_momentum_deficit,
    field_profile,
    gaussian_spectral_density,
    integrate_observables,
    pulse_mass_quadrature,
    validity_ratio,
)

LAM = 1e-4  # 1 um in cm


def params_for(ratio_w, ratio_tau, e0=1.0):
    """Pulse with lambda/w = ratio_w and lambda/(c tau) = ratio_tau."""
    return GaussianPulseParams(
        e0=e0, tau=LAM / (C * ratio_tau), w=LAM / ratio_w,
        omega0=2 * math.pi * C / LAM)


def closed_energy(p):
    return math.sqrt(math.pi) * C * p.tau * p.w**2 * p.e0**2 / 8.0


def closed_deficit(p):
    return math.sqrt(math.pi) * C * p.tau * p.e0**2 / (16.0 * (p.omega0 / C) ** 2)


def closed_mass(p):
    return math.sqrt(math.pi) * p.tau * p.w * p.e0**2 / (8.0 * p.omega0)


class TestGaussianDensity:
    def test_value_at_carrier(self):
        p = params_for(1e-4, 3e-3, e0=2.0)
        d = gaussian_spectral_density(p)
        k0 = p.omega0 / C
        got = float(d.amplitude(np.array(0.0), np.array(k0)))
        # tau^2 E0^2 w^4 / (8 pi hbar omega0) times the exact Jacobian
        # factor (c^2 k_z/omega_k)^2 = c^2 at this point
        expected = p.tau**2 * p.e0**2 * p.w**4 * C**2 / (8 * math.pi * HBAR * p.omega0)
        assert got == pytest.approx(expected, rel=1e-13, abs=0)

    def test_transverse_gaussian_rolloff(self):
        p = params_for(1e-4, 3e-3)
        d = gaussian_spectral_density(p)
        k0 = p.omega0 / C
        kp = 6.0 / p.w
        kz = math.sqrt(k0**2 - kp**2)  # same omega_k as the on-axis point
        ratio = float(d.amplitude(np.array(kp), np.array(kz))) / float(
            d.amplitude(np.array(0.0), np.array(k0)))
        assert ratio == pytest.approx(math.exp(-36.0) * (kz / k0) ** 2, rel=1e-12, abs=0)

    def test_forward_clip_warning(self):
        # c*tau = lambda/2: a sizable part of the k_z Gaussian sits below zero
        with pytest.warns(ForwardClipWarning):
            gaussian_spectral_density(params_for(1e-4, 2.0))

    def test_support_is_forward(self):
        d = gaussian_spectral_density(params_for(1e-2, 1e-2))
        assert d.kz_min > 0.0
        assert d.kz_max > d.kz_min

    def test_rejects_backward_support(self):
        with pytest.raises(ValueError):
            SpectralDensity(lambda kp, kz: kz, -1.0, 1.0, 1.0)


class TestIntegrateObservables:
    def test_energy_against_closed_form(self):
        # spec operating point: lambda/w = 1e-4, lambda/ctau ~ 3.3e-3
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        obs = integrate_observables(gaussian_spectral_density(p))
        assert obs.energy == pytest.approx(closed_energy(p), rel=1e-5, abs=0)

    def test_photon_count_against_closed_form(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        obs = integrate_observables(gaussian_spectral_density(p))
        n_closed = closed_energy(p) / (HBAR * p.omega0)
        assert obs.photon_count == pytest.approx(n_closed, rel=1e-5, abs=0)

    def test_energy_exceeds_c_pz_by_paraxial_deficit(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        obs = integrate_observables(gaussian_spectral_density(p))
        rel = (obs.energy - C * obs.pz) / obs.energy
        assert rel == pytest.approx(LAM**2 / (8 * math.pi**2 * p.w**2), rel=1e-2, abs=0)

    def test_zero_amplitude_gives_zeros(self):
        d = SpectralDensity(lambda kp, kz: np.zeros_like(kp), 1.0, 2.0, 1.0)
        obs = integrate_observables(d)
        assert obs.energy == 0.0 and obs.pz == 0.0 and obs.photon_count == 0.0

    def test_against_scipy_dblquad(self):
        # independent route: adaptive scipy quadrature of the same integrand
        p = params_for(3e-2, 3e-2)
        d = gaussian_spectral_density(p)

        def integrand(kp, kz):
            omega = C * math.hypot(kz, kp)
            return 2 * math.pi * kp * HBAR * omega * float(
                d.amplitude(np.array(kp), np.array(kz)))

        ref, err = dblquad(integrand, d.kz_min, d.kz_max,
                           0.0, d.kperp_max, epsabs=0.0, epsrel=1e-11)
        obs = integrate_observables(d)
        assert obs.energy == pytest.approx(ref, rel=1e-8, abs=0)


class TestDeficit:
    def test_matches_paper_closed_form(self):
        p = params_for(1e-2, 1e-2)
        got = energy_momentum_deficit(gaussian_spectral_density(p))
        assert got == pytest.approx(closed_deficit(p), rel=1e-3, abs=0)

    def test_deficit_positive(self):
        p = params_for(1e-2, 1e-2)
        assert energy_momentum_deficit(gaussian_spectral_density(p)) > 0.0

    def test_deficit_shrinks_as_inverse_w_squared(self):
        # collinear limit: widen the beam, deficit falls off as 1/w^2 at fixed N
        deficits = []
        for ratio in (1e-2, 5e-3, 2.5e-3):
            p = params_for(ratio, 1e-2)
            n = closed_energy(p) / (HBAR * p.omega0)
            d = energy_momentum_deficit(gaussian_spectral_density(p))
            deficits.append(d / n)  # per photon, N-independent comparison
        assert deficits[0] / deficits[1] == pytest.approx(4.0, rel=1e-3, abs=0)
        assert deficits[1] / deficits[2] == pytest.approx(4.0, rel=1e-3, abs=0)


class TestMassQuadrature:
    def test_matches_closed_form_within_paraxial_tolerance(self):
        for rw, rt in ((1e-2, 1e-2), (3e-3, 3e-3)):
            p = params_for(rw, rt)
            m = pulse_mass_quadrature(gaussian_spectral_density(p))
            tol = 5.0 * (rw**2 + rt**2)
            assert abs(m / closed_mass(p) - 1.0) < tol

    def test_amplitude_scaling(self):
        p1 = params_for(1e-2, 1e-2, e0=1.0)
        p2 = params_for(1e-2, 1e-2, e0=2.0)
        m1 = pulse_mass_quadrature(gaussian_spectral_density(p1))
        m2 = pulse_mass_quadrature(gaussian_spectral_density(p2))
        assert m2 / m1 == pytest.approx(4.0, rel=1e-9, abs=0)

    def test_mass_to_energy_ratio(self):
        p = params_for(1e-2, 1e-2)
        d = gaussian_spectral_density(p)
        m = pulse_mass_quadrature(d)
        obs = integrate_observables(d)
        assert m / (obs.energy / C**2) == pytest.approx(
            LAM / (2 * math.pi * p.w), rel=1e-4, abs=0)

    def test_consistency_with_subtraction_form(self):
        # lambda/w = 1e-2 leaves ~10 digits in the naive subtraction
        p = params_for(1e-2, 1e-2)
        d = gaussian_spectral_density(p)
        obs = integrate_observables(d)
        m = pulse_mass_quadrature(d)
        sub = obs.energy**2 - (C * obs.pz) ** 2
        assert sub == pytest.approx((m * C**2) ** 2, rel=1e-9, abs=0)


class TestPulseAsPhotonEnsemble:
    """The oracle's nodes are a weighted photon ensemble: its mass, by the
    one mass formula, is the quadrature mass."""

    @pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.3])
    def test_node_ensemble_mass_is_the_quadrature_mass(self, ratio):
        d = gaussian_spectral_density(params_for(ratio, ratio))
        kp, kz, k, _, wp, wz = spectral._nodes(d.kz_min, d.kz_max, d.kperp_max, 128)
        # each node at azimuth 0 and pi, with half of its 2 pi k_perp rho wp wz photons
        half = (math.pi * kp * d.amplitude(kp, kz) * np.outer(wp, wz)).ravel().tolist()
        modes = []
        for p, z, norm, w in zip(kp.ravel().tolist(), kz.ravel().tolist(),
                                 k.ravel().tolist(), half):
            modes += [PhotonMode(C * norm, (s * p / norm, 0.0, z / norm), w) for s in (1.0, -1.0)]
        m = invariant_mass(total_four_momentum(PhotonEnsemble(modes)))
        assert m == pytest.approx(pulse_mass_quadrature(d), rel=1e-12, abs=0)


class TestFieldAt:
    def test_zero_at_time_zero(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        assert abs(field_profile(p, 0.0, 0.0, [0.0])[0]) < 1e-6 * p.e0

    def test_quarter_period_peak(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        t = math.pi / (2 * p.omega0)
        expected = p.e0 * math.exp(-t * t / (2 * p.tau**2))
        assert field_profile(p, 0.0, 0.0, [t])[0] == pytest.approx(expected, abs=1e-4 * p.e0)

    def test_boundary_reproduction_grid(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        for r in np.linspace(0.0, 1.5 * p.w, 5):
            ts = np.linspace(-1.5 * p.tau, 1.5 * p.tau, 5)
            got = field_profile(p, float(r), 0.0, ts)
            for t, v in zip(ts, got):
                exact = (p.e0 * math.exp(-r * r / (2 * p.w**2))
                         * math.sin(p.omega0 * t) * math.exp(-t * t / (2 * p.tau**2)))
                assert abs(v - exact) <= 1e-4 * p.e0

    def test_pulse_arrives_at_z_over_c(self):
        p = GaussianPulseParams(1.0, 1e-13, 1.0, 2 * math.pi * C / LAM)
        z = 0.3  # 100 c*tau, inside the documented validity range
        t_c = z / C
        ts = np.linspace(t_c - 2 * p.tau, t_c + 2 * p.tau, 1200)
        vals = field_profile(p, 0.0, z, ts)
        t_peak = ts[int(np.argmax(np.abs(vals)))]
        assert abs(t_peak - t_c) < 0.5 * p.tau
        assert np.max(np.abs(vals)) == pytest.approx(p.e0, rel=1e-3, abs=0)

    def test_negative_z_rejected(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        with pytest.raises(ValueError):
            field_profile(p, 0.0, -1.0, [0.0])[0]

    def test_unresolved_field_raises(self):
        # c t = 1e6 c tau: the phase across the spectral window is ~1e7 rad
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        with pytest.raises(QuadratureError, match="unresolved"):
            field_profile(p, 0.0, 0.0, [1e-6])[0]

    def test_far_propagation_resolved(self):
        # z = 1e4 c tau: the phase is taken relative to t - z/c, so the pulse
        # centre needs no more nodes than at the boundary.  On axis the field
        # is the retarded boundary pulse with the Gouy phase atan(z/z_R),
        # z_R = k0 w^2 for the exp(-r^2/2w^2) profile.
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        z = 1e4 * C * p.tau
        z_r = p.omega0 / C * p.w**2
        s = np.linspace(-2 * p.tau, 2 * p.tau, 41)
        vals = field_profile(p, 0.0, z, z / C + s)
        exact = (p.e0 * np.exp(-s * s / (2 * p.tau**2))
                 * np.sin(p.omega0 * s + math.atan(z / z_r)) / math.hypot(1.0, z / z_r))
        assert np.max(np.abs(vals - exact)) <= 1e-5 * p.e0

    def test_non_finite_time_rejected(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        with pytest.raises(ValueError, match="finite"):
            field_profile(p, 0.0, 0.0, np.array([0.0, math.nan, 1e-12]))

    def test_empty_times(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        assert field_profile(p, 0.0, 0.0, np.array([])).shape == (0,)

    def test_criterion_10_converges_within_128_nodes(self, monkeypatch):
        grid = spectral._grid
        nodes = []

        def counting_grid(a, b, n):
            nodes.append(n)
            return grid(a, b, n)

        monkeypatch.setattr(spectral, "_grid", counting_grid)
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        for r in np.linspace(0.0, 1.5 * p.w, 5):
            field_profile(p, float(r), 0.0, np.linspace(-1.5 * p.tau, 1.5 * p.tau, 5))
        assert nodes
        assert max(nodes) <= 128


class TestParams:
    def test_validity_ratio_paper_example(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        rw, rt = validity_ratio(p)
        assert rw == pytest.approx(1e-4, rel=1e-12, abs=0)
        assert rt == pytest.approx(LAM / (C * 1e-12), rel=1e-12, abs=0)
        assert rt == pytest.approx(3.336e-3, rel=1e-3, abs=0)

    def test_validity_ratio_unity(self):
        p = GaussianPulseParams(1.0, LAM / C, 1.0, 2 * math.pi * C / LAM)
        _, rt = validity_ratio(p)
        assert rt == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_from_energy_round_trip(self):
        p = GaussianPulseParams.from_energy(1e5, 1e-12, 1.0, 2 * math.pi * C / LAM)
        assert closed_energy(p) == pytest.approx(1e5, rel=1e-14, abs=0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            GaussianPulseParams(0.0, 1e-12, 1.0, 1e15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_rejected(self, slot, bad):
        args = [1.0, 1e-12, 1.0, 1e15]
        args[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianPulseParams(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GaussianPulseParams.from_energy(bad, 1e-12, 1.0, 1e15)

    @pytest.mark.parametrize("w", [1e200, 1e-200])
    def test_from_energy_out_of_range_names_w_and_tau(self, w):
        # sqrt(pi) c tau w^2 overflows to inf or underflows to 0
        with pytest.raises(OverflowError, match="^" + re.escape(f"w = {w:g} cm, tau = 1e-12 s")):
            GaussianPulseParams.from_energy(1e5, 1e-12, w, 1e15)

    @pytest.mark.parametrize("slot", range(2))
    def test_from_energy_rejects_a_non_positive_shape(self, slot):
        args = [1e-12, 1.0]
        args[slot] = 0.0
        with pytest.raises(ValueError, match="must be finite and strictly positive"):
            GaussianPulseParams.from_energy(1e5, *args, 1e15)


class TestOneAmplitude:
    def test_density_is_the_squared_amplitude(self):
        # rho = tau^2 |E0 w^2 exp(-k_perp^2 w^2/2) (c^2 k_z/omega)
        #       exp(-(omega - omega0)^2 tau^2/2)|^2/(8 pi hbar omega), written out
        p = params_for(0.05, 0.05, e0=3.0)
        d = gaussian_spectral_density(p)
        rng = np.random.default_rng(3)
        kp = rng.uniform(0.0, d.kperp_max, 200)
        kz = rng.uniform(d.kz_min, d.kz_max, 200)
        omega = C * np.hypot(kz, kp)
        expected = (p.tau**2 / (8 * math.pi * HBAR * omega)
                    * (p.e0 * p.w**2) ** 2 * np.exp(-kp**2 * p.w**2)
                    * (C**2 * kz / omega) ** 2 * np.exp(-((omega - p.omega0) * p.tau) ** 2))
        np.testing.assert_allclose(d.amplitude(kp, kz), expected, rtol=1e-14, atol=0)

    def test_density_and_field_share_the_amplitude(self, monkeypatch):
        calls = []
        amplitude = spectral._amplitude

        def counting(params, kperp, kz):
            calls.append(kperp.shape)
            return amplitude(params, kperp, kz)

        monkeypatch.setattr(spectral, "_amplitude", counting)
        p = params_for(1e-3, 1e-2)
        gaussian_spectral_density(p).amplitude(np.ones(3), np.ones(3))
        assert calls == [(3,)]
        field_profile(p, 0.0, 0.0, [0.0])
        assert calls[1:3] == [(32, 32), (64, 64)]

    def test_amplitude_overflow_is_an_arithmetic_error(self):
        # (e0 w^2)^2 overflows: the oracle fails at once, not on infinities
        p = GaussianPulseParams(1e150, 1e-12, 1e5, 2 * math.pi * C / LAM)
        with pytest.raises(FloatingPointError):
            pulse_mass_quadrature(gaussian_spectral_density(p))


class TestQuadratureEngine:
    def test_oracle_evaluates_amplitude_once_per_level(self):
        # one 4-component pass: 8, 16, 32 and 64 nodes per axis
        d = gaussian_spectral_density(params_for(1e-3, 1e-2))
        calls = []

        def counting(kp, kz):
            calls.append(kp.shape)
            return d.amplitude(kp, kz)

        pulse_mass_quadrature(dataclasses.replace(d, amplitude=counting))
        assert calls == [(8, 8), (16, 16), (32, 32), (64, 64)]

    def test_deficit_is_a_component_of_the_one_pass(self):
        d = gaussian_spectral_density(params_for(1e-2, 1e-2))
        obs = integrate_observables(d)
        assert obs.deficit == energy_momentum_deficit(d)
        assert pulse_mass_quadrature(d) == invariant_mass(
            FourMomentum(obs.energy / C, 0.0, 0.0, obs.pz, obs.deficit / C))

    def test_node_limit_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_QUAD_MAX_N", 16)
        d = gaussian_spectral_density(params_for(1e-3, 1e-2))
        with pytest.raises(QuadratureError, match="unresolved at 16 nodes"):
            integrate_observables(d)

    def test_field_shares_the_density_window(self):
        # a pulse of a few cycles clips the k_z window at zero for both
        p = GaussianPulseParams(1.0, 0.3 * LAM / C, 1.0, 2 * math.pi * C / LAM)
        with pytest.warns(ForwardClipWarning):
            d = gaussian_spectral_density(p)
        with pytest.warns(ForwardClipWarning):
            field_profile(p, 0.0, 0.0, [0.0])[0]
        with pytest.warns(ForwardClipWarning):
            assert spectral._window(p) == (d.kz_min, d.kz_max, d.kperp_max)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_support_window_must_be_finite(self, slot, bad):
        window = [1.0, 2.0, 1.0]  # kz_min, kz_max, kperp_max
        window[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            SpectralDensity(lambda kp, kz: kz, *window)

    @pytest.mark.parametrize("window", [(2.0, 2.0, 1.0), (2.0, 1.0, 1.0),
                                        (1.0, 2.0, 0.0), (1.0, 2.0, -1.0)])
    def test_degenerate_support_window(self, window):
        with pytest.raises(ValueError, match="degenerate support window"):
            SpectralDensity(lambda kp, kz: kz, *window)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", ["r_perp", "z"])
    def test_field_position_must_be_finite(self, monkeypatch, position, bad):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran on a non-finite position")

        monkeypatch.setattr(spectral, "_amplitude", no_quadrature)
        p = params_for(1e-3, 1e-2)
        at = {"r_perp": 0.0, "z": 0.0, position: bad}
        with pytest.raises(ValueError, match="finite"):
            field_profile(p, at["r_perp"], at["z"], [0.0])


class TestRefineFailsAtOnce:
    def test_field_overflow_stops_at_the_first_level(self, monkeypatch):
        # e0 w^2 overflows to inf: the first level already holds inf - inf
        calls = []
        amplitude = spectral._amplitude

        def counting(params, kperp, kz):
            calls.append(kperp.shape)
            return amplitude(params, kperp, kz)

        monkeypatch.setattr(spectral, "_amplitude", counting)
        p = GaussianPulseParams(1e300, 1e-12, 1e5, 2 * math.pi * C / LAM)
        with pytest.raises(FloatingPointError):
            field_profile(p, 0.0, 0.0, np.linspace(-1e-12, 1e-12, 3))
        assert calls == [(32, 32)]


class TestNodes:
    def test_deficit_is_exact_near_the_axis(self):
        # k_perp/k_z down to ~1e-9: c(|k| - k_z) would lose every digit
        KP, KZ, _, deficit, _, _ = spectral._nodes(6e4, 7e4, 6e-5, 4)
        with mpmath.workdps(50):
            for kp, kz, got in zip(KP.ravel(), KZ.ravel(), deficit.ravel()):
                kp, kz = mpmath.mpf(float(kp)), mpmath.mpf(float(kz))
                exact = mpmath.mpf(C) * (mpmath.sqrt(kz * kz + kp * kp) - kz)
                assert abs(got - exact) <= 4e-16 * exact
