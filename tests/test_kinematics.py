"""Tests for discrete photon four-momentum kinematics."""

import math

import numpy as np
import pytest

from pulsemass.constants import C, HBAR
from pulsemass.kinematics import (
    BoostFrame,
    FourMomentum,
    PhotonEnsemble,
    PhotonMode,
    boost_ensemble,
    collinear_energy_deficit,
    ensemble_velocity,
    invariant_mass,
    pairwise_invariant_mass,
    rest_frame,
    total_four_momentum,
)

OMEGA = 1.88e15  # ~1 um photon, rad/s


def symmetric_pair(theta, omega=OMEGA, weight=1.0):
    return PhotonEnsemble((
        PhotonMode.from_angles(omega, theta, 0.0, weight),
        PhotonMode.from_angles(omega, -theta, 0.0, weight),
    ))


def random_ensemble(rng, n_modes):
    modes = []
    for _ in range(n_modes):
        omega = OMEGA * rng.uniform(0.5, 2.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        weight = rng.uniform(0.0, 5.0)
        modes.append(PhotonMode.from_angles(omega, theta, phi, weight))
    return PhotonEnsemble(tuple(modes))


class TestTotalFourMomentum:
    def test_single_photon_is_null(self):
        ens = PhotonEnsemble((PhotonMode(OMEGA, (0.0, 0.0, 1.0)),))
        p = total_four_momentum(ens)
        scale = HBAR * OMEGA / C
        assert p.e_over_c == pytest.approx(scale, rel=1e-15, abs=0)
        assert p.px == 0.0 and p.py == 0.0
        assert p.pz == pytest.approx(scale, rel=1e-15, abs=0)

    def test_symmetric_pair_hand_sum(self):
        theta = 0.3
        p = total_four_momentum(symmetric_pair(theta))
        assert p.pz == pytest.approx(2 * HBAR * OMEGA / C * math.cos(theta), rel=1e-14, abs=0)
        assert p.px == pytest.approx(0.0, abs=1e-30)

    def test_linearity_in_weights(self):
        n = 7
        ens1 = PhotonEnsemble((PhotonMode.from_angles(OMEGA, 0.4, 0.1),))
        ensn = PhotonEnsemble((PhotonMode.from_angles(OMEGA, 0.4, 0.1, float(n)),))
        p1 = total_four_momentum(ens1)
        pn = total_four_momentum(ensn)
        assert pn.e_over_c == pytest.approx(n * p1.e_over_c, rel=1e-15, abs=0)
        assert pn.pz == pytest.approx(n * p1.pz, rel=1e-15, abs=0)

    def test_empty_ensemble_raises(self):
        with pytest.raises(ValueError):
            total_four_momentum(PhotonEnsemble(()))


class TestInvariantMass:
    @pytest.mark.parametrize("theta_deg", [1.0, 15.0, 45.0, 89.0])
    def test_two_photon_pair(self, theta_deg):
        theta = math.radians(theta_deg)
        m = invariant_mass(total_four_momentum(symmetric_pair(theta)))
        assert m == pytest.approx(2 * HBAR * OMEGA / C**2 * math.sin(theta), rel=1e-12, abs=0)

    def test_n_plus_n_scaling(self):
        theta = math.radians(20.0)
        m1 = invariant_mass(total_four_momentum(symmetric_pair(theta, weight=1.0)))
        mn = invariant_mass(total_four_momentum(symmetric_pair(theta, weight=1e6)))
        assert mn / m1 == pytest.approx(1e6, rel=1e-12, abs=0)

    def test_collinear_is_massless(self):
        ens = PhotonEnsemble((
            PhotonMode(OMEGA, (0.0, 0.0, 1.0), 1.0),
            PhotonMode(2 * OMEGA, (0.0, 0.0, 1.0), 3.5),
        ))
        assert invariant_mass(total_four_momentum(ens)) == 0.0

    def test_spacelike_raises(self):
        with pytest.raises(ValueError):
            FourMomentum(1.0, 0.0, 0.0, 2.0)


class TestPairwiseMass:
    def test_two_photon_matches_closed_form(self):
        theta = math.radians(30.0)
        m = pairwise_invariant_mass(symmetric_pair(theta))
        assert m == pytest.approx(2 * HBAR * OMEGA / C**2 * math.sin(theta), rel=1e-12, abs=0)

    def test_single_mode_zero(self):
        ens = PhotonEnsemble((PhotonMode(OMEGA, (0.0, 0.0, 1.0)),))
        assert pairwise_invariant_mass(ens) == 0.0

    @pytest.mark.parametrize("theta", [1e-6, 1e-8])
    def test_near_collinear_pair_is_exact(self, theta):
        # 1 - cos(theta) rounds away here; the closed forms do not
        ens = symmetric_pair(theta)
        assert pairwise_invariant_mass(ens) == pytest.approx(
            2 * HBAR * OMEGA / C**2 * math.sin(theta), rel=1e-15, abs=0)
        assert collinear_energy_deficit(ens) == pytest.approx(
            4 * HBAR * OMEGA * math.sin(theta / 2) ** 2, rel=1e-15, abs=0)

    def test_matches_total_form_on_random_ensembles(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ens = random_ensemble(rng, int(rng.integers(2, 101)))
            m_pair = pairwise_invariant_mass(ens)
            m_total = invariant_mass(total_four_momentum(ens))
            assert m_pair == pytest.approx(m_total, rel=1e-12, abs=0)


class TestVelocity:
    def test_single_photon_moves_at_c(self):
        p = total_four_momentum(
            PhotonEnsemble((PhotonMode(OMEGA, (0.0, 0.0, 1.0)),)))
        assert ensemble_velocity(p) == pytest.approx(C, rel=1e-15, abs=0)

    def test_symmetric_pair(self):
        theta = 0.7
        v = ensemble_velocity(total_four_momentum(symmetric_pair(theta)))
        assert v == pytest.approx(C * math.cos(theta), rel=1e-14, abs=0)

    def test_head_on_pair_is_at_rest(self):
        v = ensemble_velocity(total_four_momentum(symmetric_pair(math.pi / 2)))
        assert abs(v) < 1e-6 * C

    def test_zero_energy_raises(self):
        with pytest.raises(ValueError):
            ensemble_velocity(FourMomentum(0.0, 0.0, 0.0, 0.0))

    def test_velocity_mass_link(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ens = random_ensemble(rng, 5)
            p = total_four_momentum(ens)
            if invariant_mass(p) > 0:
                assert abs(ensemble_velocity(p)) < C


class TestBoost:
    def test_identity_at_zero_beta(self):
        mode = PhotonMode.from_angles(OMEGA, 0.9, 1.1, 2.0)
        out = boost_ensemble(PhotonEnsemble((mode,)), BoostFrame(0.0)).modes[0]
        assert out.omega == pytest.approx(mode.omega, rel=1e-15, abs=0)
        assert out.direction == pytest.approx(mode.direction, rel=1e-14, abs=0)
        assert out.weight == mode.weight

    def test_forward_photon_never_reversed(self):
        mode = PhotonMode(OMEGA, (0.0, 0.0, 1.0))
        for beta in np.linspace(-0.99, 0.99, 41):
            out = boost_ensemble(PhotonEnsemble((mode,)), BoostFrame(float(beta))).modes[0]
            assert out.direction[2] > 0.0

    def test_null_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mode = PhotonMode.from_angles(
                OMEGA * rng.uniform(0.5, 2.0), rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi))
            frame = BoostFrame(rng.uniform(-0.99, 0.99))
            out = boost_ensemble(PhotonEnsemble((mode,)), frame).modes[0]
            n = out.direction
            assert math.sqrt(sum(x * x for x in n)) == pytest.approx(1.0, abs=1e-12)

    def test_pair_boosted_by_its_velocity_has_zero_pz(self):
        theta = 0.5
        ens = symmetric_pair(theta)
        boosted = boost_ensemble(ens, BoostFrame(math.cos(theta)))
        p = total_four_momentum(boosted)
        assert abs(p.pz) <= 1e-12 * p.e_over_c

    def test_superluminal_raises(self):
        with pytest.raises(ValueError):
            BoostFrame(1.0)

    def test_mass_invariance_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ens = random_ensemble(rng, int(rng.integers(2, 21)))
            m0 = invariant_mass(total_four_momentum(ens))
            beta = rng.uniform(-0.99, 0.99)
            m1 = invariant_mass(total_four_momentum(boost_ensemble(ens, BoostFrame(beta))))
            assert m1 == pytest.approx(m0, rel=1e-10, abs=0)


class TestRestFrame:
    def test_symmetric_pair_beta(self):
        theta = 0.8
        frame = rest_frame(total_four_momentum(symmetric_pair(theta)))
        assert frame.beta == pytest.approx(math.cos(theta), rel=1e-14, abs=0)

    def test_head_on_pair(self):
        p = total_four_momentum(symmetric_pair(math.pi / 2))
        frame = rest_frame(p)
        assert frame.beta == pytest.approx(0.0, abs=1e-15)
        m = invariant_mass(p)
        assert m * C**2 == pytest.approx(2 * HBAR * OMEGA, rel=1e-12, abs=0)

    def test_single_photon_has_no_rest_frame(self):
        p = total_four_momentum(
            PhotonEnsemble((PhotonMode(OMEGA, (0.0, 0.0, 1.0)),)))
        with pytest.raises(ValueError, match="no rest frame"):
            rest_frame(p)

    def test_rest_frame_contract_axisymmetric(self):
        # zero transverse momentum: boosting to the rest frame recovers
        # p_z' = 0 and epsilon' = m c^2
        rng = np.random.default_rng(19)
        for _ in range(50):
            theta = rng.uniform(0.1, math.pi - 0.1)
            ens = symmetric_pair(theta, omega=OMEGA * rng.uniform(0.5, 2.0),
                                 weight=rng.uniform(0.1, 10.0))
            p = total_four_momentum(ens)
            m = invariant_mass(p)
            boosted = total_four_momentum(boost_ensemble(ens, rest_frame(p)))
            assert abs(boosted.pz) <= 1e-10 * p.e_over_c
            assert boosted.e_over_c * C == pytest.approx(m * C**2, rel=1e-10, abs=0)

    def test_rest_frame_zeroes_pz_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ens = random_ensemble(rng, 8)
            p = total_four_momentum(ens)
            try:
                frame = rest_frame(p)
            except ValueError:
                continue
            boosted = total_four_momentum(boost_ensemble(ens, frame))
            assert abs(boosted.pz) <= 1e-10 * p.e_over_c
            assert abs(ensemble_velocity(boosted)) <= 1e-10 * C


class TestInvariantsAndHelpers:
    def test_cauchy_schwarz_positivity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = total_four_momentum(random_ensemble(rng, int(rng.integers(1, 30))))
            assert p.e_over_c >= p.p_abs * (1.0 - 1e-12)

    def test_collinear_deficit_matches_subtraction(self):
        ens = symmetric_pair(0.4, weight=2.0)
        p = total_four_momentum(ens)
        assert collinear_energy_deficit(ens) == pytest.approx(
            (p.e_over_c - p.pz) * C, rel=1e-12, abs=0)

    def test_collinear_deficit_keeps_tiny_angles(self):
        # theta ~ 1e-5: relative deficit ~ 5e-11, still exact via per-mode sum;
        # 1 - cos(theta) itself would be off by ~1e-7 here
        theta = 1e-5
        ens = symmetric_pair(theta)
        deficit = collinear_energy_deficit(ens)
        expected = 2 * HBAR * OMEGA * 2 * math.sin(theta / 2) ** 2
        assert deficit == pytest.approx(expected, rel=1e-12, abs=0)

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            PhotonMode(OMEGA, (0.0, 0.0, 1.1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PhotonMode(OMEGA, (0.0, 0.0, 1.0), -1.0)

    @pytest.mark.parametrize("omega, direction, weight", [
        (math.nan, (0.0, 0.0, 1.0), 1.0),
        (math.inf, (0.0, 0.0, 1.0), 1.0),
        (OMEGA, (0.0, 0.0, 1.0), math.nan),
        (OMEGA, (0.0, 0.0, 1.0), math.inf),
        (OMEGA, (math.nan, 0.0, 1.0), 1.0),
    ])
    def test_non_finite_mode_rejected(self, omega, direction, weight):
        with pytest.raises(ValueError):
            PhotonMode(omega, direction, weight)

    def test_nan_angle_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            PhotonMode.from_angles(OMEGA, math.nan)

    @pytest.mark.parametrize("components", [
        (math.nan, 0.0, 0.0, 0.0),
        (math.inf, 0.0, 0.0, 1.0),
        (1.0, 0.0, math.nan, 0.0),
        (math.inf, math.inf, 0.0, 0.0),
    ])
    def test_non_finite_four_momentum_rejected(self, components):
        with pytest.raises(FloatingPointError, match="non-finite"):
            FourMomentum(*components)

    @pytest.mark.parametrize("theta2", [0.5, -0.3])
    def test_overflowing_sum_is_floating_point_error(self, theta2):
        # each mode is finite, its momentum weight*hbar*omega/c is not
        ens = PhotonEnsemble((PhotonMode.from_angles(1e308, 0.3, 0.0, 1e308),
                              PhotonMode.from_angles(1e308, theta2, 0.0, 1e308)))
        with pytest.raises(FloatingPointError, match="non-finite"):
            total_four_momentum(ens)

    def test_invariant_mass_rejects_non_finite(self):
        class Momentum:  # a duck-typed momentum that skipped validation
            e_over_c, p_abs = math.inf, math.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            invariant_mass(Momentum())

    def test_boost_frame_gamma(self):
        frame = BoostFrame(0.6)
        assert frame.gamma * math.sqrt(1 - 0.6**2) == pytest.approx(1.0, abs=1e-12)
