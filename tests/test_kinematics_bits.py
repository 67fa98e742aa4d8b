"""The array kinematics against the scalar per-mode formulas they replace.

The reference functions below are the per-PhotonMode loops the array code
was written from.  Each array result must equal them bit for bit: the same
per-mode operations in the same order, and totals correctly rounded, so
math.fsum's bits.  total_four_momentum takes them from math.fsum below
_EXACT_SUMS_MIN modes and from the binned kernel _exact_sums from there to
the 2^27 terms its bins sum exactly, so the tests run on both sides of the
switch.  The mass is held to the unscaled formula, which invariant_mass
scales by a power of two.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsemass import kinematics
from pulsemass.constants import C, HBAR
from pulsemass.kinematics import (
    _EXACT_SUMS_MIN,
    BoostFrame,
    FourMomentum,
    PhotonEnsemble,
    PhotonMode,
    boost_ensemble,
    invariant_mass,
    _exact_sums,
    rest_frame,
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


def ref_mass_squared(p):
    """(m c)^2 = (e/c + |p|) * deficit, unscaled, with |p| from its squares."""
    return (p.e_over_c + math.sqrt(p.px * p.px + p.py * p.py + p.pz * p.pz)) * p.deficit


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
    s = ref_mass_squared(p)
    if p.deficit == 0.0 or s >= sys.float_info.min:  # else s lost bits the scaled one keeps
        assert invariant_mass(p).hex() == (math.sqrt(s) / C).hex()
    frame = BoostFrame(beta)
    boosted = boost_ensemble(ens, frame)
    expected = [ref_boost(m, frame) for m in modes]
    assert bits(boosted.omega) == bits(m.omega for m in expected)
    assert bits(boosted.n.ravel()) == bits(x for m in expected for x in m.direction)
    assert bits(boosted.weight) == bits(m.weight for m in expected)
    return boosted, expected


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


@pytest.mark.parametrize("n", [_EXACT_SUMS_MIN - 1, _EXACT_SUMS_MIN])
def test_tight_backward_cone_on_both_sides_of_the_switch(n, monkeypatch):
    # the strategy's hard case, a cone of spread 1e-8 about -z with some
    # zero weights, at the last fsum size and the first binned one
    calls = []
    monkeypatch.setattr(kinematics, "_exact_sums", lambda rows: calls.append(1) or _exact_sums(rows))
    rng = np.random.default_rng(27)
    weight = rng.uniform(0.0, 5.0, n)
    weight[rng.random(n) < 0.1] = 0.0
    modes = [PhotonMode.from_angles(OMEGA * u, math.pi - th, ph, wt) for u, th, ph, wt in zip(
        rng.uniform(0.5, 2.0, n).tolist(), rng.uniform(0.0, 1e-8, n).tolist(),
        rng.uniform(0.0, 2 * math.pi, n).tolist(), weight.tolist())]
    assert_same_bits(modes, -0.37)
    assert len(calls) == (n >= _EXACT_SUMS_MIN)


def kernel_rows():
    """Rows whose fsum is hard: exact cancellation, signed zeros, subnormal
    terms and sums, the whole exponent range, single terms, zeros."""
    rng = np.random.default_rng(1505)
    r = rng.standard_normal(700) * np.ldexp(1.0, rng.integers(-60, 60, 700))
    yield rng.permutation(np.concatenate([r, -r]))  # cancels to 0 exactly
    yield np.full(9, -0.0)
    yield np.array([-0.0])
    tiny = rng.integers(-2**20, 2**20, 600) * 5e-324  # subnormal terms
    yield tiny
    yield np.concatenate([tiny, -tiny[:-1]])  # a subnormal sum
    yield np.array([2.0**-1022, -2.0**-1074, -2.0**-1023])  # normal terms, subnormal sum
    x = np.arange(-1074, 1001)  # terms from 2^-1074 to 2^1000, random signs
    yield rng.permutation(np.ldexp(rng.choice([-1.0, 1.0], x.size) * rng.uniform(1.0, 2.0, x.size), x))
    yield np.array([2.0**1000, 2.0**-1074, -2.0**1000])
    yield np.array([1.0, 2.0**-53, 2.0**-1074])  # a tie broken by the last term
    yield np.array([0.5 + 5 * 2.0**-53, -0.5 - 3 * 2.0**-53])  # one bin: hi sums to 0, lo not
    for v in (3.0, -5e-324, 1.7976931348623157e308, 0.0):  # a single term
        yield np.array([v])
    mixed = np.zeros(800)  # zeros mixed with tiny terms
    mixed[rng.choice(800, 40, replace=False)] = rng.uniform(-1.0, 1.0, 40) * 1e-310
    yield mixed
    yield np.concatenate([np.zeros(5), [1e-300, -1e-300], np.zeros(5)])
    k = rng.uniform(0.0, 5.0, 3000) * 1e-22  # a bench-like row, and its p_x
    yield k
    yield k * np.sin(rng.uniform(0.0, 1e-8, 3000)) * np.cos(rng.uniform(0.0, 2 * math.pi, 3000))


def test_kernel_sums_are_fsums():
    rows = list(kernel_rows())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = _exact_sums(rows)
    assert bits(sums) == bits(math.fsum(row.tolist()) for row in rows)


@pytest.mark.parametrize("spread", [math.pi, 1e-4])
def test_rest_frame_chain_matches_scalar_formulas(spread):
    # build, total, rest frame, boost, total: the chain of the ensemble-large
    # bench op, on a full sphere and on a cone about +z
    rng = np.random.default_rng(25)
    n = 10_000
    modes = [PhotonMode.from_angles(OMEGA * u, th, ph, wt) for u, th, ph, wt in zip(
        rng.uniform(0.5, 2.0, n).tolist(), rng.uniform(0.0, spread, n).tolist(),
        rng.uniform(0.0, 2 * math.pi, n).tolist(), rng.uniform(0.0, 5.0, n).tolist())]
    frame = rest_frame(total_four_momentum(PhotonEnsemble(modes)))
    boosted, expected = assert_same_bits(modes, frame.beta)
    p, ref = total_four_momentum(boosted), ref_total(expected)
    assert bits((p.e_over_c, p.px, p.py, p.pz)) == bits((ref.e_over_c, ref.px, ref.py, ref.pz))


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

    @pytest.mark.parametrize("bad, beta", [(PhotonMode(1e308, (0.0, 0.0, -1.0)), 0.99),
                                           (PhotonMode(5e-324, (0.0, 0.0, 1.0)), 0.5)])
    def test_one_bad_mode_inside_a_large_ensemble_is_the_mode_error(self, bad, beta):
        # the range check reads the whole array, not its ends
        modes = [PhotonMode.from_angles(OMEGA, 0.001 * i, 0.1 * i) for i in range(1200)]
        modes[617] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode frequency must be finite and positive"):
                boost_ensemble(PhotonEnsemble(modes), BoostFrame(beta))

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
        for n in (2, _EXACT_SUMS_MIN):  # math.fsum's side of the switch and the kernel's
            ens = PhotonEnsemble((PhotonMode(1e308, (0.0, 0.0, 1.0), 1e308),
                                  PhotonMode(1e308, (1.0, 0.0, 0.0), 1e308))
                                 + (PhotonMode(OMEGA, (0.0, 1.0, 0.0), 0.0),) * (n - 2))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError, match="non-finite"):
                    total_four_momentum(ens)
