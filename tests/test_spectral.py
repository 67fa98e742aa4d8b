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
    field_profile,
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


def rho(p, kp, kz):
    """The oracle's photon density at (k_perp, k_z)."""
    return spectral._density(p, kp, kz, np.hypot(kz, kp))


class TestGaussianDensity:
    def test_value_at_carrier(self):
        p = params_for(1e-4, 3e-3, e0=2.0)
        k0 = p.omega0 / C
        got = float(rho(p, np.array(0.0), np.array(k0)))
        # tau^2 E0^2 w^4 / (8 pi hbar omega0) times the exact Jacobian
        # factor (c^2 k_z/omega_k)^2 = c^2 at this point
        expected = p.tau**2 * p.e0**2 * p.w**4 * C**2 / (8 * math.pi * HBAR * p.omega0)
        assert got == pytest.approx(expected, rel=1e-13, abs=0)

    def test_transverse_gaussian_rolloff(self):
        p = params_for(1e-4, 3e-3)
        k0 = p.omega0 / C
        kp = 6.0 / p.w
        kz = math.sqrt(k0**2 - kp**2)  # same omega_k as the on-axis point
        ratio = float(rho(p, np.array(kp), np.array(kz))) / float(
            rho(p, np.array(0.0), np.array(k0)))
        assert ratio == pytest.approx(math.exp(-36.0) * (kz / k0) ** 2, rel=1e-12, abs=0)

    def test_forward_clip_warning(self):
        # c*tau = lambda/2: a sizable part of the k_z Gaussian sits below zero
        with pytest.warns(ForwardClipWarning):
            spectral._window(params_for(1e-4, 2.0))

    def test_support_is_forward(self):
        kz_min, kz_max, _ = spectral._window(params_for(1e-2, 1e-2))
        assert kz_min > 0.0
        assert kz_max > kz_min

    def test_rejects_backward_support(self):
        with pytest.raises(ValueError, match="forward half-space"):
            spectral._support(-1.0, 1.0, 1.0)


class TestIntegrateObservables:
    def test_energy_against_closed_form(self):
        # spec operating point: lambda/w = 1e-4, lambda/ctau ~ 3.3e-3
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        obs = integrate_observables(p)
        assert obs.energy == pytest.approx(closed_energy(p), rel=1e-5, abs=0)

    def test_photon_count_against_closed_form(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        obs = integrate_observables(p)
        n_closed = closed_energy(p) / (HBAR * p.omega0)
        assert obs.photon_count == pytest.approx(n_closed, rel=1e-5, abs=0)

    def test_energy_exceeds_c_pz_by_paraxial_deficit(self):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        obs = integrate_observables(p)
        rel = (obs.energy - C * obs.pz) / obs.energy
        assert rel == pytest.approx(LAM**2 / (8 * math.pi**2 * p.w**2), rel=1e-2, abs=0)

    def test_zero_amplitude_gives_zeros(self, monkeypatch):
        monkeypatch.setattr(spectral, "_amplitude", lambda params, kp, kz, k: np.zeros_like(kp))
        obs = integrate_observables(params_for(1e-2, 1e-2))
        assert obs.energy == 0.0 and obs.pz == 0.0 and obs.photon_count == 0.0

    def test_against_scipy_dblquad(self):
        # independent route: adaptive scipy quadrature of the same integrand
        p = params_for(3e-2, 3e-2)
        kz_min, kz_max, kperp_max = spectral._window(p)

        def integrand(kp, kz):
            omega = C * math.hypot(kz, kp)
            return 2 * math.pi * kp * HBAR * omega * float(rho(p, np.array(kp), np.array(kz)))

        ref, err = dblquad(integrand, kz_min, kz_max,
                           0.0, kperp_max, epsabs=0.0, epsrel=1e-11)
        obs = integrate_observables(p)
        assert obs.energy == pytest.approx(ref, rel=1e-8, abs=0)


class TestDeficit:
    def test_matches_paper_closed_form(self):
        p = params_for(1e-2, 1e-2)
        got = integrate_observables(p).deficit
        assert got == pytest.approx(closed_deficit(p), rel=1e-3, abs=0)

    def test_deficit_positive(self):
        p = params_for(1e-2, 1e-2)
        assert integrate_observables(p).deficit > 0.0

    def test_deficit_shrinks_as_inverse_w_squared(self):
        # collinear limit: widen the beam, deficit falls off as 1/w^2 at fixed N
        deficits = []
        for ratio in (1e-2, 5e-3, 2.5e-3):
            p = params_for(ratio, 1e-2)
            n = closed_energy(p) / (HBAR * p.omega0)
            d = integrate_observables(p).deficit
            deficits.append(d / n)  # per photon, N-independent comparison
        assert deficits[0] / deficits[1] == pytest.approx(4.0, rel=1e-3, abs=0)
        assert deficits[1] / deficits[2] == pytest.approx(4.0, rel=1e-3, abs=0)


class TestMassQuadrature:
    def test_matches_closed_form_within_paraxial_tolerance(self):
        for rw, rt in ((1e-2, 1e-2), (3e-3, 3e-3)):
            p = params_for(rw, rt)
            m = pulse_mass_quadrature(p)
            tol = 5.0 * (rw**2 + rt**2)
            assert abs(m / closed_mass(p) - 1.0) < tol

    def test_amplitude_scaling(self):
        p1 = params_for(1e-2, 1e-2, e0=1.0)
        p2 = params_for(1e-2, 1e-2, e0=2.0)
        m1 = pulse_mass_quadrature(p1)
        m2 = pulse_mass_quadrature(p2)
        assert m2 / m1 == pytest.approx(4.0, rel=1e-9, abs=0)

    def test_mass_to_energy_ratio(self):
        p = params_for(1e-2, 1e-2)
        m = pulse_mass_quadrature(p)
        obs = integrate_observables(p)
        assert m / (obs.energy / C**2) == pytest.approx(
            LAM / (2 * math.pi * p.w), rel=1e-4, abs=0)

    def test_consistency_with_subtraction_form(self):
        # lambda/w = 1e-2 leaves ~10 digits in the naive subtraction
        p = params_for(1e-2, 1e-2)
        obs = integrate_observables(p)
        m = pulse_mass_quadrature(p)
        sub = obs.energy**2 - (C * obs.pz) ** 2
        assert sub == pytest.approx((m * C**2) ** 2, rel=1e-9, abs=0)


class TestPulseAsPhotonEnsemble:
    """The oracle's nodes are a weighted photon ensemble: its mass, by the
    one mass formula, is the quadrature mass."""

    @pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.3])
    def test_node_ensemble_mass_is_the_quadrature_mass(self, ratio):
        p = params_for(ratio, ratio)
        kp, kz, k, _, d3k = spectral._nodes(*spectral._window(p), 128)
        # each node at azimuth 0 and pi, with half of its rho d3k photons
        half = (0.5 * spectral._density(p, kp, kz, k) * d3k).ravel().tolist()
        modes = []
        for x, z, norm, w in zip(kp.ravel().tolist(), kz.ravel().tolist(),
                                 k.ravel().tolist(), half):
            modes += [PhotonMode(C * norm, (s * x / norm, 0.0, z / norm), w) for s in (1.0, -1.0)]
        m = invariant_mass(total_four_momentum(PhotonEnsemble(modes)))
        assert m == pytest.approx(pulse_mass_quadrature(p), rel=1e-12, abs=0)


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
        kz_min, kz_max, kperp_max = spectral._window(p)
        rng = np.random.default_rng(3)
        kp = rng.uniform(0.0, kperp_max, 200)
        kz = rng.uniform(kz_min, kz_max, 200)
        omega = C * np.hypot(kz, kp)
        expected = (p.tau**2 / (8 * math.pi * HBAR * omega)
                    * (p.e0 * p.w**2) ** 2 * np.exp(-kp**2 * p.w**2)
                    * (C**2 * kz / omega) ** 2 * np.exp(-((omega - p.omega0) * p.tau) ** 2))
        np.testing.assert_allclose(rho(p, kp, kz), expected, rtol=1e-14, atol=0)

    def test_density_and_field_share_the_amplitude(self, monkeypatch):
        calls = []
        amplitude = spectral._amplitude

        def counting(params, kperp, kz, k):
            calls.append(kperp.shape)
            return amplitude(params, kperp, kz, k)

        monkeypatch.setattr(spectral, "_amplitude", counting)
        p = params_for(1e-3, 1e-2)
        rho(p, np.ones(3), np.ones(3))
        assert calls == [(3,)]
        field_profile(p, 0.0, 0.0, [0.0])
        assert calls[1:3] == [(32, 32), (64, 64)]

    def test_amplitude_overflow_is_an_arithmetic_error(self):
        # (e0 w^2)^2 overflows: the oracle fails at once, not on infinities
        p = GaussianPulseParams(1e150, 1e-12, 1e5, 2 * math.pi * C / LAM)
        with pytest.raises(FloatingPointError):
            pulse_mass_quadrature(p)


class TestQuadratureEngine:
    def test_oracle_evaluates_amplitude_once_per_level(self, monkeypatch):
        # one 4-component pass: 8, 16, 32 and 64 nodes per axis
        calls = []
        amplitude = spectral._amplitude

        def counting(params, kperp, kz, k):
            calls.append(kperp.shape)
            return amplitude(params, kperp, kz, k)

        monkeypatch.setattr(spectral, "_amplitude", counting)
        pulse_mass_quadrature(params_for(1e-3, 1e-2))
        assert calls == [(8, 8), (16, 16), (32, 32), (64, 64)]

    def test_deficit_is_a_component_of_the_one_pass(self):
        p = params_for(1e-2, 1e-2)
        obs = integrate_observables(p)
        assert pulse_mass_quadrature(p) == invariant_mass(
            FourMomentum(obs.energy / C, 0.0, 0.0, obs.pz, obs.deficit / C))

    def test_node_limit_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_QUAD_MAX_N", 16)
        with pytest.raises(QuadratureError, match="unresolved at 16 nodes"):
            integrate_observables(params_for(1e-3, 1e-2))

    def test_field_shares_the_density_window(self, monkeypatch):
        # a pulse of a few cycles clips the k_z window at zero for both
        p = GaussianPulseParams(1.0, 0.3 * LAM / C, 1.0, 2 * math.pi * C / LAM)
        windows = []

        class FirstLevel(Exception):
            pass

        def first_level(*args):
            windows.append(args[:3])
            raise FirstLevel

        monkeypatch.setattr(spectral, "_nodes", first_level)
        for driver in (integrate_observables, lambda p: field_profile(p, 0.0, 0.0, [0.0])):
            with pytest.warns(ForwardClipWarning), pytest.raises(FirstLevel):
                driver(p)
        with pytest.warns(ForwardClipWarning):
            assert windows == [spectral._window(p)] * 2


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_support_window_must_be_finite(self, slot, bad):
        window = [1.0, 2.0, 1.0]  # kz_min, kz_max, kperp_max
        window[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            spectral._support(*window)

    @pytest.mark.parametrize("window", [(2.0, 2.0, 1.0), (2.0, 1.0, 1.0),
                                        (1.0, 2.0, 0.0), (1.0, 2.0, -1.0)])
    def test_degenerate_support_window(self, window):
        with pytest.raises(ValueError, match="degenerate support window"):
            spectral._support(*window)

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


# pulses whose k_z window collapses to a point, overflows, or reaches k_z = 0
WINDOW_FAULTS = [({"tau": 1000.0}, "degenerate support window"),
                 ({"tau": 1e-320}, "support window must be finite"),
                 ({"omega0": 1e-320}, "support must lie in the forward half-space k_z > 0")]


class TestOneWindow:
    @pytest.mark.filterwarnings("ignore::pulsemass.spectral.ForwardClipWarning")
    @pytest.mark.parametrize("change, message", WINDOW_FAULTS, ids=["tau=1000", "tau=1e-320",
                                                                    "omega0=1e-320"])
    def test_oracle_and_field_refuse_the_same_window(self, change, message):
        p = dataclasses.replace(params_for(1e-3, 1e-2), **change)
        for driver in (integrate_observables, lambda p: field_profile(p, 0.0, 0.0, [0.0])):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                driver(p)


class TestRefineFailsAtOnce:
    def test_field_overflow_stops_at_the_first_level(self, monkeypatch):
        # e0 w^2 overflows to inf: the first level already holds inf - inf
        calls = []
        amplitude = spectral._amplitude

        def counting(params, kperp, kz, k):
            calls.append(kperp.shape)
            return amplitude(params, kperp, kz, k)

        monkeypatch.setattr(spectral, "_amplitude", counting)
        p = GaussianPulseParams(1e300, 1e-12, 1e5, 2 * math.pi * C / LAM)
        with pytest.raises(FloatingPointError):
            field_profile(p, 0.0, 0.0, np.linspace(-1e-12, 1e-12, 3))
        assert calls == [(32, 32)]


class TestNodes:
    def test_deficit_is_exact_near_the_axis(self):
        # k_perp/k_z down to ~1e-9: c(|k| - k_z) would lose every digit
        KP, KZ, _, deficit, _ = spectral._nodes(6e4, 7e4, 6e-5, 4)
        with mpmath.workdps(50):
            for kp, kz, got in zip(KP.ravel(), KZ.ravel(), deficit.ravel()):
                kp, kz = mpmath.mpf(float(kp)), mpmath.mpf(float(kz))
                exact = mpmath.mpf(C) * (mpmath.sqrt(kz * kz + kp * kp) - kz)
                assert abs(got - exact) <= 4e-16 * exact

    @pytest.mark.parametrize("window", [(1.0, 2.0, 1.0), (6e4, 7e4, 6e-5), (1e-5, 3e5, 40.0)])
    def test_d3k_integrates_the_window_exactly(self, window):
        # 8 Gauss-Legendre nodes per axis are exact for these low-degree integrands
        kz_min, kz_max, kperp_max = window
        KP, KZ, _, _, d3k = spectral._nodes(*window, 8)
        volume = math.pi * kperp_max**2 * (kz_max - kz_min)
        assert d3k.sum() == pytest.approx(volume, rel=1e-14, abs=0)
        assert (KZ * d3k).sum() == pytest.approx(volume * (kz_min + kz_max) / 2, rel=1e-14, abs=0)
        assert (KP**2 * d3k).sum() == pytest.approx(volume * kperp_max**2 / 2, rel=1e-14, abs=0)

    def test_drivers_take_the_measure_from_nodes_alone(self, monkeypatch):
        p = params_for(1e-2, 1e-2)
        times = np.linspace(-1.5 * p.tau, 1.5 * p.tau, 5)
        obs = dataclasses.astuple(integrate_observables(p))
        field = field_profile(p, 0.5 * p.w, 0.0, times)
        nodes = spectral._nodes

        def doubled_measure(*args):
            *rest, d3k = nodes(*args)
            return (*rest, 2.0 * d3k)

        monkeypatch.setattr(spectral, "_nodes", doubled_measure)
        assert dataclasses.astuple(integrate_observables(p)) == tuple(2.0 * x for x in obs)
        assert np.array_equal(field_profile(p, 0.5 * p.w, 0.0, times), 2.0 * field)


class TestFieldChunks:
    def test_chunked_times_are_bit_identical(self, monkeypatch):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        times = np.linspace(-1.5 * p.tau, 1.5 * p.tau, 7)
        whole = field_profile(p, 0.3, 0.0, times)
        grid = spectral._grid
        nodes = []

        def counting_grid(a, b, n):
            nodes.append(n)
            return grid(a, b, n)

        monkeypatch.setattr(spectral, "_grid", counting_grid)
        monkeypatch.setattr(spectral, "_FIELD_CHUNK", 2 * 64 * 64)
        chunked = field_profile(p, 0.3, 0.0, times)
        # the last level has 64^2 nodes, so two times per chunk: four chunks
        assert max(nodes) == 64
        assert chunked.tobytes() == whole.tobytes()


def besselj0(x):
    """J0 at the float x in 40-digit mpmath, rounded to a float."""
    with mpmath.workdps(40):
        return float(mpmath.besselj(0, mpmath.mpf(float(x))))


def j0_error(xs):
    xs = np.asarray(xs, dtype=float)
    return max(abs(got - besselj0(x)) for got, x in zip(spectral._j0(xs).tolist(), xs))


class TestJ0:
    """spectral._j0 against mpmath: the midpoint rule below _J0_X is within
    6e-16 (measured 5.5e-16 on a 2e4-point grid over [0, 100]), Hankel's
    expansion past it within 1e-16 (measured 5.6e-17 out to 1e6)."""

    MIDPOINT_TOL = 6e-16
    HANKEL_TOL = 1e-16

    def test_one_at_zero(self):
        assert spectral._j0(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]

    def test_first_zeros(self):
        with mpmath.workdps(40):
            zeros = [float(mpmath.besseljzero(0, k)) for k in range(1, 41)]
        near = [z for z in zeros if z < spectral._J0_X]
        assert near and j0_error(near) <= self.MIDPOINT_TOL
        assert j0_error([z for z in zeros if z >= spectral._J0_X]) <= self.HANKEL_TOL

    def test_dense_grid_to_100(self):
        xs = np.linspace(0.0, 100.0, 2001)
        assert j0_error(xs[xs < spectral._J0_X]) <= self.MIDPOINT_TOL
        assert j0_error(xs[xs >= spectral._J0_X]) <= self.HANKEL_TOL

    def test_log_grid_to_1e6(self):
        assert j0_error(np.geomspace(1e-6, spectral._J0_X, 200, endpoint=False)) <= self.MIDPOINT_TOL
        assert j0_error(np.geomspace(spectral._J0_X, 1e6, 400)) <= self.HANKEL_TOL

    def test_across_the_crossover(self):
        x = spectral._J0_X
        below = [x - d for d in (1e-3, 1e-9)] + [np.nextafter(x, 0.0)]
        above = [x, np.nextafter(x, 2 * x), x + 1e-9, x + 1e-3]
        assert j0_error(below) <= self.MIDPOINT_TOL
        assert j0_error(above) <= self.HANKEL_TOL

    def test_even(self):
        xs = np.concatenate([np.linspace(0.0, 100.0, 1001), np.geomspace(1e-8, 1e300, 200)])
        assert spectral._j0(-xs).tobytes() == spectral._j0(xs).tobytes()

    def test_huge_arguments_stay_finite(self):
        # 1/x^2 underflows quietly and leaves J0 ~ sqrt(2/(pi x)) cos(x - pi/4)
        xs = [1e154, 1e200, 1e300, 1.7e308]
        with np.errstate(over="raise", invalid="raise"):
            got = spectral._j0(np.array(xs))
        with mpmath.workdps(400):
            for value, x in zip(got.tolist(), xs):
                x = mpmath.mpf(x)
                exact = mpmath.sqrt(2 / (mpmath.pi * x)) * mpmath.cos(x - mpmath.pi / 4)
                assert abs(value - float(exact)) <= 1e-15 * float(mpmath.sqrt(1 / x))

    def test_each_value_depends_on_its_own_argument(self):
        xs = np.array([0.0, 3.0, 24.9, 25.0, 80.0, 1e6])
        whole = spectral._j0(xs)
        for i, x in enumerate(xs):
            assert spectral._j0(np.array([x]))[0] == whole[i]

    def test_field_takes_one_j0_per_kperp_node(self, monkeypatch):
        shapes, j0 = [], spectral._j0

        def recording_j0(x):
            shapes.append(x.shape)
            return j0(x)

        monkeypatch.setattr(spectral, "_j0", recording_j0)
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        field_profile(p, -0.75, 0.0, np.linspace(-1.5 * p.tau, 1.5 * p.tau, 5))
        assert shapes and all(shape[1] == 1 for shape in shapes)

    # k_perp r reaches 1.8 and 30: both branches
    @pytest.mark.parametrize("r_perp", [0.3, 5.0])
    def test_field_is_even_in_r_perp(self, r_perp):
        p = GaussianPulseParams(1.0, 1e-12, 1.0, 2 * math.pi * C / LAM)
        t = np.linspace(-1.5 * p.tau, 1.5 * p.tau, 5)
        field = field_profile(p, r_perp, 0.0, t)
        assert np.array_equal(field_profile(p, -r_perp, 0.0, t), field)
        exact = (np.exp(-r_perp**2 / (2 * p.w**2)) * np.sin(p.omega0 * t)
                 * np.exp(-t * t / (2 * p.tau**2)))
        # the boundary field to 1e-8 e0 (criterion 10 asks for 1e-4 e0)
        assert np.max(np.abs(field - exact)) <= 1e-8 * p.e0
