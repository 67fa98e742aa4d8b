"""Tests for the local invariant mass density."""

import math

import mpmath
import numpy as np
import pytest

from pulsemass.constants import C
from pulsemass.density import (
    FieldSample,
    mass_density,
    mass_density_array,
    mass_density_invariant_form,
)


class TestMassDensity:
    def test_plane_wave_is_massless(self):
        s = FieldSample((3.0, 0.0, 0.0), (0.0, 3.0, 0.0))
        assert mass_density(s) == pytest.approx(0.0, abs=1e-15 / (8 * math.pi * C * C))

    def test_pure_electric_sample(self):
        e0 = 2.5
        s = FieldSample((e0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert mass_density(s) == pytest.approx(e0**2 / (8 * math.pi * C * C), rel=1e-14, abs=0)

    def test_crossed_unequal_fields(self):
        s = FieldSample((2.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert mass_density(s) == pytest.approx(3.0 / (8 * math.pi * C * C), rel=1e-14, abs=0)

    def test_dual_form_identity_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            e = tuple(rng.normal(scale=10.0, size=3))
            h = tuple(rng.normal(scale=10.0, size=3))
            s = FieldSample(e, h)
            a = mass_density(s)
            b = mass_density_invariant_form(s)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-30)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            s = FieldSample(tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
            assert mass_density(s) >= 0.0

    def test_null_field_detection(self):
        # mu vanishes iff E^2 = H^2 and E.H = 0
        rng = np.random.default_rng(8)
        for _ in range(200):
            e = rng.normal(size=3)
            # random h orthogonal to e with |h| = |e|: a null sample
            v = rng.normal(size=3)
            h = np.cross(e, v)
            h *= np.linalg.norm(e) / np.linalg.norm(h)
            s = FieldSample(tuple(e), tuple(h))
            scale = np.dot(e, e) / (8 * math.pi * C * C)
            # rounding the inputs perturbs nullness by ~eps, and mu scales
            # as the square root of that perturbation
            assert mass_density(s) <= 1e-7 * scale
        # and does not vanish otherwise
        s = FieldSample((1.0, 0.0, 0.0), (0.0, 0.5, 0.0))
        assert mass_density(s) > 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FieldSample((math.nan, 0.0, 0.0), (0.0, 0.0, 0.0))


class TestGrid:
    def test_plane_wave_grid_all_zero(self):
        s = FieldSample((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        out = mass_density_array([s.e] * 10, [s.h] * 10)
        assert out.tolist() == [0.0] * 10

    def test_standing_wave_at_t0(self):
        # E = E0 cos(kz) x_hat, H = 0 at t = 0: mu(z) = E0^2 cos^2(kz)/(8 pi c^2)
        e0 = 3.0
        k = 2 * math.pi
        zs = np.linspace(0.0, 1.0, 21)
        samples = [FieldSample((e0 * math.cos(k * z), 0.0, 0.0), (0.0, 0.0, 0.0))
                   for z in zs]
        out = mass_density_array([s.e for s in samples], [s.h for s in samples]).tolist()
        for z, mu in zip(zs, out):
            assert mu == pytest.approx(
                e0**2 * math.cos(k * z) ** 2 / (8 * math.pi * C * C), abs=1e-35)

    def test_empty_grid(self):
        out = mass_density_array(np.empty((0, 3)), np.empty((0, 3)))
        assert out.shape == (0,)

    def test_order_preserved(self):
        samples = [FieldSample((float(i), 0.0, 0.0), (0.0, 0.0, 0.0))
                   for i in range(1, 5)]
        out = mass_density_array([s.e for s in samples], [s.h for s in samples]).tolist()
        assert out == sorted(out)


def mu_mpmath(e, h):
    """Field-invariant form in 50-digit arithmetic on the exact input doubles."""
    with mpmath.workdps(50):
        e = [mpmath.mpf(float(x)) for x in e]
        h = [mpmath.mpf(float(x)) for x in h]
        d = sum(x * x for x in e) - sum(x * x for x in h)
        eh = sum(x * y for x, y in zip(e, h))
        return mpmath.sqrt(d * d + 4 * eh * eh) / (8 * mpmath.pi * mpmath.mpf(C) ** 2)


def near_null(rng, delta, scale=5.0):
    """E and H perpendicular with |H| = |E|(1 + delta)."""
    e = rng.normal(scale=scale, size=3)
    a = rng.normal(size=3)
    a -= a @ e / (e @ e) * e
    return e, a * (np.linalg.norm(e) * (1.0 + delta) / np.linalg.norm(a))


class TestArrayKernel:
    def test_near_null_matches_mpmath(self):
        rng = np.random.default_rng(11)
        rows = [near_null(rng, d) for d in np.logspace(-9, -3, 300)]
        # the same near-null structure far outside the range of E^2 in double
        rows += [near_null(rng, d, scale=1e150) for d in (1e-9, 1e-6, 1e-3)]
        rows += [near_null(rng, d, scale=1e-100) for d in (1e-9, 1e-6, 1e-3)]
        e, h = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        got = mass_density_array(e, h)
        for mu, ei, hi in zip(got, e, h):
            ref = mu_mpmath(ei, hi)
            assert ref > 0
            assert abs(mu - ref) <= 1e-12 * ref

    def test_plane_wave_at_1e200_is_finite(self):
        # E^2 overflows in double; the scaled kernel still finds the null field
        e = np.array([[1e200, 0.0, 0.0], [3e199, -4e199, 0.0]])
        h = np.array([[0.0, 1e200, 0.0], [4e199, 3e199, 0.0]])
        assert mass_density_array(e, h).tolist() == [0.0, 0.0]
        assert mass_density(FieldSample(tuple(e[0]), tuple(h[0]))) == 0.0

    def test_large_non_null_row_matches_mpmath(self):
        e, h = (1e160, 2e159, -3e158), (5e158, 1e159, 7e159)
        mu = mass_density_array([e], [h])[0]
        ref = mu_mpmath(e, h)
        assert math.isfinite(mu)
        assert abs(mu - ref) <= 1e-12 * ref

    def test_overflowing_density_is_inf(self):
        mu = mass_density_array([(1e200, 0.0, 0.0)], [(0.0, 0.0, 0.0)])
        assert mu.tolist() == [math.inf]

    def test_empty(self):
        assert mass_density_array(np.empty((0, 3)), np.empty((0, 3))).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_named(self, bad):
        e = np.ones((4, 3))
        h = np.zeros((4, 3))
        h[2, 1] = bad
        with pytest.raises(ValueError, match="sample 2"):
            mass_density_array(e, h)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            mass_density_array(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            mass_density_array(np.ones(3), np.ones(3))
