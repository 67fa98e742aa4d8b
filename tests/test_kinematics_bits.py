"""The array kinematics against the scalar per-mode formulas they replace.

The reference functions below are the per-PhotonMode loops the array code
was written from.  Each array result must equal them bit for bit: the same
per-mode operations in the same order, and the same exact math.fsum.
"""

import math
import warnings

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
    total_four_momentum,
)

OMEGA = 1.88e15  # ~1 um photon, rad/s


# -- scalar reference formulas ------------------------------------------------

def ref_total(modes):
    ks = [m.weight * HBAR * m.omega / C for m in modes]
    e = math.fsum(ks)
    px = math.fsum(k * m.direction[0] for k, m in zip(ks, modes))
    py = math.fsum(k * m.direction[1] for k, m in zip(ks, modes))
    pz = math.fsum(k * m.direction[2] for k, m in zip(ks, modes))
    return FourMomentum(e, px, py, pz)


def ref_boost(mode, frame):
    b = frame.beta
    g = frame.gamma
    k = mode.omega / C
    kx = k * mode.direction[0]
    ky = k * mode.direction[1]
    kz = k * mode.direction[2]
    k_new = g * (k - b * kz)
    kz_new = g * (kz - b * k)
    omega_new = C * k_new
    nx, ny, nz = kx / k_new, ky / k_new, kz_new / k_new
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    return PhotonMode(omega_new, (nx / norm, ny / norm, nz / norm), mode.weight)


def bits(values):
    """Floats as hex strings, so == also tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def assert_same_bits(modes, beta):
    ens = PhotonEnsemble(modes)
    p, ref = total_four_momentum(ens), ref_total(modes)
    assert bits((p.e_over_c, p.px, p.py, p.pz)) == bits((ref.e_over_c, ref.px, ref.py, ref.pz))
    frame = BoostFrame(beta)
    boosted = boost_ensemble(ens, frame)
    expected = [ref_boost(m, frame) for m in modes]
    assert bits(boosted.omega) == bits(m.omega for m in expected)
    assert bits(boosted.n.ravel()) == bits(x for m in expected for x in m.direction)
    assert bits(boosted.weight) == bits(m.weight for m in expected)


# -- inputs ---------------------------------------------------------------------

weights = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(1e-3, 1e6))
omegas = st.floats(0.5 * OMEGA, 2.0 * OMEGA)
phis = st.floats(0.0, 2.0 * math.pi)


@st.composite
def ensembles(draw):
    """1 to 40 modes, either in a cone of half-angle 1e-8..pi about +z or -z,
    or spread over the full sphere."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        spread = 10.0 ** draw(st.floats(-8.0, math.log10(math.pi)))
        axis = draw(st.sampled_from([0.0, math.pi]))
        thetas = [abs(axis - t) for t in draw(st.lists(st.floats(0.0, spread),
                                                        min_size=n, max_size=n))]
    else:
        thetas = draw(st.lists(st.floats(0.0, math.pi), min_size=n, max_size=n))
    return [PhotonMode.from_angles(draw(omegas), theta, draw(phis), draw(weights))
            for theta in thetas]


betas = st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True)


# -- tests ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(ensembles(), betas)
def test_array_kinematics_match_scalar_formulas(modes, beta):
    assert_same_bits(modes, beta)


def test_large_rng_ensemble_matches_scalar_formulas():
    rng = np.random.default_rng(2024)
    n = 10_000
    modes = [PhotonMode.from_angles(OMEGA * u, th, ph, wt) for u, th, ph, wt in zip(
        rng.uniform(0.5, 2.0, n).tolist(), rng.uniform(0.0, math.pi, n).tolist(),
        rng.uniform(0.0, 2 * math.pi, n).tolist(), rng.uniform(0.0, 5.0, n).tolist())]
    assert_same_bits(modes, 0.37)


def ref_pack(modes):
    """The list the ensemble arrays were first packed from: omegas, weights,
    then the directions, in one np.array call."""
    n = len(modes)
    a = np.array([m.omega for m in modes] + [m.weight for m in modes]
                 + [c for m in modes for c in m.direction], dtype=float)
    return a[:n], a[2 * n:].reshape(n, 3), a[n:2 * n]


def mixed_modes(n, seed=7):
    """n modes whose omega and weight cycle through int, float and np.float64."""
    rng = np.random.default_rng(seed)
    us, thetas, phis, ws = (rng.uniform(lo, hi, n).tolist() for lo, hi in
                            [(0.5, 2.0), (0.0, math.pi), (0.0, 2 * math.pi), (0.0, 5.0)])
    modes = []
    for i, (u, theta, phi, w) in enumerate(zip(us, thetas, phis, ws)):
        kind = (round, float, np.float64)[i % 3]
        modes.append(PhotonMode.from_angles(kind(OMEGA * u), theta, phi, kind(w)))
    return modes


@pytest.mark.parametrize("n", [0, 1, 2, 10_000])
def test_pack_matches_the_list_reference(n):
    modes = mixed_modes(n)
    omega, direction, weight = ref_pack(modes)
    for ens in (PhotonEnsemble(modes), PhotonEnsemble(m for m in modes)):
        assert ens.n.shape == (n, 3)
        assert bits(ens.omega) == bits(omega)
        assert bits(ens.n.ravel()) == bits(direction.ravel())
        assert bits(ens.weight) == bits(weight)
        for a in (ens.omega, ens.n, ens.weight):
            assert a.dtype == np.float64 and not a.flags.writeable


class TestEdges:
    def test_modes_round_trip(self):
        modes = [PhotonMode.from_angles(OMEGA * (1 + i), 0.3 * i, 0.7 * i, 0.5 * i)
                 for i in range(5)]
        ens = PhotonEnsemble(iter(modes))
        assert len(ens.modes) == 5
        assert list(ens.modes) == modes
        assert ens.modes[-1] == modes[-1]
        assert ens.n.shape == (5, 3)

    def test_arrays_are_read_only(self):
        ens = PhotonEnsemble((PhotonMode(OMEGA, (0.0, 0.0, 1.0)),))
        for a in (ens.omega, ens.n, ens.weight):
            with pytest.raises(ValueError):
                a[0] = 2.0
        boosted = boost_ensemble(ens, BoostFrame(0.5))
        with pytest.raises(ValueError):
            boosted.omega[0] = 2.0

    def test_empty_ensemble(self):
        ens = PhotonEnsemble(())
        assert len(ens.modes) == 0 and ens.n.shape == (0, 3)
        with pytest.raises(ValueError, match="empty ensemble"):
            total_four_momentum(ens)
        assert len(boost_ensemble(ens, BoostFrame(0.5)).modes) == 0

    def test_boost_past_float_range_is_the_mode_error(self):
        ens = PhotonEnsemble((PhotonMode(1e308, (0.0, 0.0, -1.0)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode frequency must be finite and positive"):
                boost_ensemble(ens, BoostFrame(0.99))

    def test_boost_to_zero_frequency_is_the_mode_error(self):
        # omega/c underflows to 0; the scalar loop divided by it
        ens = PhotonEnsemble((PhotonMode(5e-324, (0.0, 0.0, 1.0)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode frequency must be finite and positive"):
                boost_ensemble(ens, BoostFrame(0.5))

    def test_backward_mode_deficit_is_two_hbar_omega(self):
        # a head-on pair has p = 0, so the deficit is taken about z: the
        # backward mode carries 2 hbar omega/c of it, the forward mode none
        ens = PhotonEnsemble((PhotonMode(OMEGA, (0.0, 0.0, -1.0)),
                              PhotonMode(OMEGA, (0.0, 0.0, 1.0))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = total_four_momentum(ens)
        assert (p.px, p.py, p.pz) == (0.0, 0.0, 0.0)
        assert p.deficit == p.e_over_c == 2.0 * (HBAR * OMEGA / C)

    def test_overflowing_momenta_warn_nothing(self):
        ens = PhotonEnsemble((PhotonMode(1e308, (0.0, 0.0, 1.0), 1e308),
                              PhotonMode(1e308, (1.0, 0.0, 0.0), 1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite"):
                total_four_momentum(ens)
