"""Tests for discrete photon four-momentum kinematics."""

import copy
import dataclasses
import math
import pickle
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsemass.constants import C, HBAR
from pulsemass.kinematics import (
    BoostFrame,
    FourMomentum,
    PhotonEnsemble,
    PhotonMode,
    boost_ensemble,
    ensemble_velocity,
    invariant_mass,
    rest_frame,
    total_four_momentum,
)

OMEGA = 1.88e15  # ~1 um photon, rad/s


def pairwise_mass(ens):
    """Reference mass in g from m^2 c^2 = sum_{i<j} 2 p_i . p_j, each
    1 - n_i.n_j taken as |n_i - n_j|^2/2: the scalar pairwise loop, O(N^2),
    exact per pair and summed by fsum."""
    ks = [w * HBAR * o / C for w, o in zip(ens.weight.tolist(), ens.omega.tolist())]
    ns = ens.n.tolist()
    terms = []
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            dx, dy, dz = (a - b for a, b in zip(ns[i], ns[j]))
            terms.append(ks[i] * ks[j] * (dx * dx + dy * dy + dz * dz))
    return math.sqrt(math.fsum(terms)) / C


def pairwise_mass_mp(ens):
    """pairwise_mass in 60-digit mpmath arithmetic on the ensemble's floats."""
    with mpmath.workdps(60):
        hbar_over_c = mpmath.mpf(HBAR) / mpmath.mpf(C)
        ks = [mpmath.mpf(w) * mpmath.mpf(o) * hbar_over_c
              for w, o in zip(ens.weight.tolist(), ens.omega.tolist())]
        ns = [[mpmath.mpf(x) for x in n] for n in ens.n.tolist()]
        total = mpmath.mpf(0)
        for i in range(len(ks)):
            xi, yi, zi = ns[i]
            for j in range(i + 1, len(ks)):
                xj, yj, zj = ns[j]
                total += ks[i] * ks[j] * ((xi - xj) ** 2 + (yi - yj) ** 2 + (zi - zj) ** 2)
        return mpmath.sqrt(total) / mpmath.mpf(C)


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

    @pytest.mark.parametrize("scale", [0, -600])
    def test_spacelike_raises(self, scale):
        # at 2^-600 the unscaled squares of |p| underflow to 0
        with pytest.raises(ValueError, match="^spacelike four-momentum: corrupted ensemble$"):
            FourMomentum(math.ldexp(1.0, scale), 0.0, 0.0, math.ldexp(2.0, scale))


class TestPairwiseMass:
    """The one mass formula against the pairwise reference."""

    def test_two_photon_matches_closed_form(self):
        theta = math.radians(30.0)
        ens = symmetric_pair(theta)
        expected = 2 * HBAR * OMEGA / C**2 * math.sin(theta)
        assert pairwise_mass(ens) == pytest.approx(expected, rel=1e-12, abs=0)
        assert invariant_mass(total_four_momentum(ens)) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_single_mode_zero(self):
        ens = PhotonEnsemble((PhotonMode(OMEGA, (0.0, 0.0, 1.0)),))
        assert total_four_momentum(ens).deficit == 0.0
        assert invariant_mass(total_four_momentum(ens)) == 0.0

    @pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-8])
    def test_near_collinear_pair_is_exact(self, theta):
        # e/c - |p| cancels here; the deficit summed per mode does not
        ens = symmetric_pair(theta)
        p = total_four_momentum(ens)
        assert invariant_mass(p) == pytest.approx(
            2 * HBAR * OMEGA / C**2 * math.sin(theta), rel=1e-15, abs=0)
        assert p.deficit * C == pytest.approx(
            4 * HBAR * OMEGA * math.sin(theta / 2) ** 2, rel=1e-15, abs=0)

    def test_matches_total_form_on_random_ensembles(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ens = random_ensemble(rng, int(rng.integers(2, 101)))
            m_pair = pairwise_mass(ens)
            m_total = invariant_mass(total_four_momentum(ens))
            assert m_pair == pytest.approx(m_total, rel=1e-12, abs=0)


def rotated(axis_theta, axis_phi, theta, phi):
    """Unit vector at polar angle theta, azimuth phi about the axis at
    (axis_theta, axis_phi)."""
    sa, ca = math.sin(axis_theta), math.cos(axis_theta)
    sp, cp = math.sin(axis_phi), math.cos(axis_phi)
    a = (sa * cp, sa * sp, ca)
    b = (ca * cp, ca * sp, -sa)  # a, b, c orthonormal
    c = (-sp, cp, 0.0)
    s, co = math.sin(theta), math.cos(theta)
    u, v = s * math.cos(phi), s * math.sin(phi)
    return tuple(co * x + u * y + v * z for x, y, z in zip(a, b, c))


@st.composite
def cones(draw):
    """2 to 50 modes in a cone of half-angle 1e-8..pi about a random axis,
    their azimuths spread so that no two coincide."""
    n = draw(st.integers(2, 50))
    spread = 10.0 ** draw(st.floats(-8.0, math.log10(math.pi)))
    axis = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    modes = []
    for i in range(n):
        theta = spread * draw(st.floats(0.25, 1.0))
        phi = 2.0 * math.pi * (i + draw(st.floats(0.0, 0.5))) / n
        modes.append(PhotonMode(OMEGA * draw(st.floats(0.5, 2.0)), rotated(*axis, theta, phi),
                                draw(st.floats(0.1, 10.0))))
    return PhotonEnsemble(modes)


@settings(max_examples=60, deadline=None)
@given(cones())
def test_mass_matches_mpmath_pairwise_down_to_1e_8(ens):
    ref = pairwise_mass_mp(ens)
    assert abs(invariant_mass(total_four_momentum(ens)) - ref) <= 1e-12 * ref


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

    def test_null_sets_have_no_rest_frame(self):
        # rounding leaves a few ulps of deficit on a null sum; that is not mass
        rng = np.random.default_rng(5)
        for size in (1, 3):
            for _ in range(2000):
                theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
                ens = PhotonEnsemble([PhotonMode.from_angles(OMEGA * u, theta, phi, w)
                                      for u, w in zip(rng.uniform(0.5, 2.0, size).tolist(),
                                                      rng.uniform(0.1, 10.0, size).tolist())])
                with pytest.raises(ValueError, match="no rest frame"):
                    rest_frame(total_four_momentum(ens))

    @pytest.mark.parametrize("tilt", [0.0, 1.0])
    def test_narrow_pair_has_a_rest_frame(self, tilt):
        # a symmetric pair about an axis tilted from z: beta = cos(theta) cos(tilt)
        def pair(theta):
            return PhotonEnsemble([PhotonMode(OMEGA, rotated(tilt, 0.0, theta, phi))
                                   for phi in (0.0, math.pi)])

        frame = rest_frame(total_four_momentum(pair(1e-7)))
        assert frame.beta == pytest.approx(math.cos(1e-7) * math.cos(tilt), rel=1e-15, abs=0)
        with pytest.raises(ValueError, match="no rest frame"):  # beta = cos(theta) rounds to 1
            rest_frame(total_four_momentum(pair(3e-8)))

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
        # where nothing cancels, the summed deficit is e/c - |p|, the
        # default of a four-momentum built from its components alone
        ens = symmetric_pair(0.4, weight=2.0)
        p = total_four_momentum(ens)
        hand_built = FourMomentum(p.e_over_c, p.px, p.py, p.pz)
        assert hand_built.deficit == p.e_over_c - p.p_abs
        assert p.deficit == pytest.approx(hand_built.deficit, rel=1e-12, abs=0)

    def test_collinear_deficit_keeps_tiny_angles(self):
        # theta ~ 1e-5: relative deficit ~ 5e-11, still exact via per-mode sum;
        # 1 - cos(theta) itself would be off by ~1e-7 here
        theta = 1e-5
        p = total_four_momentum(symmetric_pair(theta))
        expected = 2 * HBAR * OMEGA * 2 * math.sin(theta / 2) ** 2
        assert p.deficit * C == pytest.approx(expected, rel=1e-12, abs=0)

    def test_deficit_about_a_tilted_axis(self):
        # the deficit is taken about the total momentum, not about z
        theta, tilt = 1e-6, 1.0
        ens = PhotonEnsemble([PhotonMode(OMEGA, rotated(tilt, 0.3, theta, phi))
                              for phi in (0.0, math.pi)])
        p = total_four_momentum(ens)
        assert p.deficit * C == pytest.approx(
            4 * HBAR * OMEGA * math.sin(theta / 2) ** 2, rel=1e-12, abs=0)

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match=r"^direction must be a unit vector \(\|n\| = 1\.1\)$"):
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

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FourMomentum(-1.0, 0.0, 0.0, 0.0)

    # a 1e200 component's unscaled square overflows; scaled to e/c in [0.5, 1) it does not
    def test_timelike_momentum_of_1e200_has_its_exact_mass(self):
        assert invariant_mass(FourMomentum(1e200, 0.0, 0.0, 0.0)) == 1e200 / C

    @pytest.mark.parametrize("slot", [1, 2, 3], ids=["px", "py", "pz"])
    def test_spacelike_component_of_1e200_is_refused(self, slot):
        components = [1.0, 0.0, 0.0, 0.0]
        components[slot] = 1e200
        with pytest.raises(ValueError, match="^spacelike four-momentum"):
            FourMomentum(*components)

    # the component far past a faint e/c sets the scale, where e/c is 0 or near it
    @pytest.mark.parametrize("components", [(1e-300, 0.0, 0.0, 1e10),
                                            (5e-324, 1e300, 0.0, 0.0),
                                            (5e-324, 0.0, -1e300, 0.0)],
                             ids=["pz-1e10", "px-1e300", "py-minus-1e300"])
    def test_component_past_the_scaled_range_is_refused(self, components):
        with pytest.raises(ValueError, match="^spacelike four-momentum: corrupted ensemble$"):
            FourMomentum(*components)

    @pytest.mark.parametrize("slot", [1, 2, 3], ids=["px", "py", "pz"])
    def test_zero_energy_with_a_faint_component_is_refused(self, slot):
        # the component sets the scale, so its square does not underflow to 0
        components = [0.0, 0.0, 0.0, 0.0]
        components[slot] = 1e-200
        with pytest.raises(ValueError, match="^spacelike four-momentum"):
            FourMomentum(*components)

    def test_zero_momentum_is_null(self):
        p = FourMomentum(0.0, -0.0, 0.0, -0.0)
        assert (p.p_abs, p.deficit, invariant_mass(p)) == (0.0, 0.0, 0.0)

    # a given deficit is checked where the components are
    @pytest.mark.parametrize("deficit", [math.nan, math.inf, -math.inf])
    def test_non_finite_deficit_rejected(self, deficit):
        with pytest.raises(FloatingPointError, match="non-finite"):
            FourMomentum(1.0, 0.0, 0.0, 0.5, deficit)

    # 1e10 is far past e/c = 1e-300 and 1e300 past e/c = 0; 0.9 is not 1 - 0.5
    @pytest.mark.parametrize("components", [(1e-300, 0.0, 0.0, 0.0, 1e10),
                                            (1.0, 0.0, 0.0, 0.5, 0.9),
                                            (0.0, 0.0, 0.0, 0.0, 1e300)],
                             ids=["past-the-scaled-range", "off-e-minus-p", "zero-energy"])
    def test_deficit_off_e_minus_p_is_refused(self, components):
        with pytest.raises(ValueError, match=r"^deficit .* SPACELIKE_TOL \* e/c$"):
            FourMomentum(*components)

    def test_deficit_within_the_tolerance_is_kept(self):
        # a deficit a rounding below 0 is held, and its mass is null
        p = FourMomentum(1.0, 0.0, 0.0, 1.0, -1e-10)
        assert (p.deficit, invariant_mass(p)) == (-1e-10, 0.0)
        with pytest.raises(ValueError, match="^no rest frame"):
            rest_frame(p)

    def test_boost_frame_gamma(self):
        frame = BoostFrame(0.6)
        assert frame.gamma * math.sqrt(1 - 0.6**2) == pytest.approx(1.0, abs=1e-12)


class TestPhotonModeBehaviour:
    """The public face of PhotonMode: a frozen dataclass of three fields."""

    MODE = PhotonMode(OMEGA, (0.0, 0.6, 0.8), 2.5)

    def test_repr_bytes(self):
        assert repr(self.MODE) == (
            "PhotonMode(omega=1880000000000000.0, direction=(0.0, 0.6, 0.8), weight=2.5)")

    def test_eq_and_hash(self):
        twin = PhotonMode(OMEGA, [0.0, 0.6, 0.8], 2.5)
        assert twin == self.MODE and twin is not self.MODE
        assert hash(twin) == hash(self.MODE) == hash((OMEGA, (0.0, 0.6, 0.8), 2.5))
        assert self.MODE != PhotonMode(OMEGA, (0.0, 0.6, 0.8))
        assert self.MODE != (OMEGA, (0.0, 0.6, 0.8), 2.5)

    @pytest.mark.parametrize("name", ["omega", "direction", "weight"])
    def test_fields_are_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.MODE, name, 1.0)

    def test_fields_and_default_weight(self):
        fields = dataclasses.fields(PhotonMode)
        assert [f.name for f in fields] == ["omega", "direction", "weight"]
        assert fields[2].default == 1.0
        assert PhotonMode(OMEGA, (0.0, 0.0, 1.0)).weight == 1.0

    def test_replace_validates_and_keeps_the_other_fields(self):
        out = dataclasses.replace(self.MODE, weight=0.5)
        assert out == PhotonMode(OMEGA, (0.0, 0.6, 0.8), 0.5)
        with pytest.raises(ValueError, match="^mode weight must be finite and nonnegative$"):
            dataclasses.replace(self.MODE, weight=-1.0)

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy,
                                       copy.copy])
    def test_copies_round_trip(self, clone):
        out = clone(self.MODE)
        assert out == self.MODE and repr(out) == repr(self.MODE)
        assert type(out.direction) is tuple

    def test_stored_types(self):
        mode = PhotonMode(2, (np.float64(0.0), 0, np.float64(1.0)), 3)
        assert type(mode.omega) is int and mode.omega == 2
        assert type(mode.weight) is int and mode.weight == 3
        assert mode.direction == (0.0, 0.0, 1.0)
        assert [type(c) for c in mode.direction] == [float, float, float]

    @pytest.mark.parametrize("args, message", [
        ((10**400, (0.0, 0.0, 1.0)), "mode frequency must be finite and positive"),
        ((OMEGA, (0.0, 0.0, 1.0), 10**400), "mode weight must be finite and nonnegative"),
    ])
    def test_int_past_float_range_rejected(self, args, message):
        # such an int passed a comparison with inf, then failed to pack
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            PhotonMode(*args)

    def test_large_int_in_float_range_stored_as_given(self):
        mode = PhotonMode(10**300, (0.0, 0.0, 1.0), 10**300)
        assert type(mode.omega) is int and mode.omega == 10**300
        assert type(mode.weight) is int and mode.weight == 10**300
        assert PhotonEnsemble((mode,)).omega.tolist() == [1e300]

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (0.0, 0.0, 1.0, 0.0)])
    def test_direction_must_have_three_components(self, direction):
        with pytest.raises(ValueError):
            PhotonMode(OMEGA, direction)

    @pytest.mark.parametrize("args, message", [
        ((OMEGA, math.nan), "direction must be a unit vector (|n| = nan)"),
        ((math.nan, 0.3), "mode frequency must be finite and positive"),
        ((math.inf, 0.3), "mode frequency must be finite and positive"),
        ((-OMEGA, 0.3), "mode frequency must be finite and positive"),
        ((0.0, 0.3), "mode frequency must be finite and positive"),
        ((OMEGA, 0.3, 0.0, math.nan), "mode weight must be finite and nonnegative"),
        ((OMEGA, 0.3, 0.0, math.inf), "mode weight must be finite and nonnegative"),
        ((OMEGA, 0.3, 0.0, -1.0), "mode weight must be finite and nonnegative"),
        ((math.nan, math.nan, 0.0, -1.0), "mode frequency must be finite and positive"),
        ((OMEGA, math.nan, 0.0, -1.0), "mode weight must be finite and nonnegative"),
    ])
    def test_from_angles_error_messages(self, args, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            PhotonMode.from_angles(*args)


class TestPhotonModeBuiltOnce:
    """Each mode is validated and stored by one __init__: no instance dict
    to fill and no __post_init__ pass after it."""

    def test_no_instance_dict(self):
        mode = PhotonMode.from_angles(OMEGA, 0.3)
        assert not hasattr(mode, "__dict__")
        assert PhotonMode.__slots__ == ("omega", "direction", "weight")

    def test_no_post_init(self):
        assert not hasattr(PhotonMode, "__post_init__")


class TestFaintMomenta:
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    def test_subnormal_momentum_is_held_to_its_rounding(self, theta):
        # weight 9.8e-296 gives hbar omega/c = 3.3e-318 g cm/s, subnormal:
        # p_x and p_z keep ~20 bits, so |p| misses e/c by ~1e-6 of it
        modes = [PhotonMode(9.4e14, (0.0, 0.0, 1.0), 0.0)] * 5
        modes.append(PhotonMode.from_angles(9.4e14, theta, 0.0, 9.777781515452674e-296))
        assert invariant_mass(total_four_momentum(PhotonEnsemble(modes))) == 0.0

    def test_mass_scales_exactly_with_the_weights(self):
        # at 2^-900 the weights give e/c ~ 1e-293 g cm/s: (e/c + |p|) * deficit
        # and the squares of |p| would underflow without the rescaling
        modes = [PhotonMode.from_angles(OMEGA * (1 + i), theta, 0.7 * i, 1.0 + i)
                 for i, theta in enumerate([0.1, -0.2, 0.05, 1e-3])]
        faint = [PhotonMode(m.omega, m.direction, math.ldexp(m.weight, -900)) for m in modes]
        m = invariant_mass(total_four_momentum(PhotonEnsemble(modes)))
        m_faint = invariant_mass(total_four_momentum(PhotonEnsemble(faint)))
        assert m > 0.0
        assert m_faint.hex() == math.ldexp(m, -900).hex()

    # |p|, the deficit, the mass and the velocity are formed with e/c scaled
    # to [0.5, 1): unscaled, the squares of |p| are subnormal below 2^-511
    # and the mass^2 here below ~2^-500, the squares overflow above 2^512 and
    # c p_z above ~2^989; at 2^-1000 the deficit ~2^-1021.6 is still normal
    @pytest.mark.parametrize("scale", [-1000, -900, -600, -510, -400, -257, -256, -100, 0, 300,
                                       600, 900, 1000])
    @pytest.mark.parametrize("components", [(5.0, 0.6, -0.8, 4.0), (1.0, 0.0, 0.0, 1 - 2**-20 / 3)])
    def test_hand_built_momentum_scales_exactly(self, scale, components):
        p = FourMomentum(*components)
        q = FourMomentum(*(math.ldexp(v, scale) for v in components))
        assert invariant_mass(q).hex() == math.ldexp(invariant_mass(p), scale).hex()
        assert q.deficit.hex() == math.ldexp(p.deficit, scale).hex()
        assert q.p_abs.hex() == math.ldexp(p.p_abs, scale).hex()
        assert ensemble_velocity(q).hex() == ensemble_velocity(p).hex()
