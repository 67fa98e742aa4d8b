"""Exact special-relativistic arithmetic on discrete photon four-momenta.

All quantities are Gaussian-CGS: energies in erg, momenta in g*cm/s,
frequencies in rad/s.  Boosts are along the z axis only, which is the
propagation axis of every pulse considered here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C, HBAR

# Relative slack for the timelike-or-null check.  A spacelike photon sum
# indicates a bug upstream, not numerical noise, so beyond this we raise.
SPACELIKE_TOL = 1e-9

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class FourMomentum:
    """A four-momentum (e/c, px, py, pz); all components in g*cm/s."""

    e_over_c: float
    px: float
    py: float
    pz: float

    def __post_init__(self):
        e2 = self.e_over_c**2
        gap = e2 - (self.px**2 + self.py**2 + self.pz**2)
        # a non-finite component makes gap infinite or NaN
        if not math.isfinite(gap):
            raise FloatingPointError(
                f"non-finite four-momentum component in {(self.e_over_c, self.px, self.py, self.pz)}")
        if not self.e_over_c >= 0.0:
            raise ValueError("four-momentum energy must be nonnegative")
        if not gap >= -SPACELIKE_TOL * e2:
            raise ValueError("spacelike four-momentum: corrupted ensemble")

    @property
    def p_abs(self) -> float:
        return math.sqrt(self.px**2 + self.py**2 + self.pz**2)


@dataclass(frozen=True)
class PhotonMode:
    """A single photon mode: angular frequency, unit direction, mean occupation.

    The implied four-momentum is null by construction (epsilon = c|p|).
    """

    omega: float
    direction: tuple[float, float, float]
    weight: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 < self.omega < math.inf:
            raise ValueError("mode frequency must be finite and positive")
        if not 0.0 <= self.weight < math.inf:
            raise ValueError("mode weight must be finite and nonnegative")
        nx, ny, nz = self.direction
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if not abs(norm - 1.0) <= _UNIT_TOL:
            raise ValueError(f"direction must be a unit vector (|n| = {norm})")
        object.__setattr__(self, "direction", (float(nx), float(ny), float(nz)))

    @classmethod
    def from_angles(cls, omega: float, theta: float, phi: float = 0.0,
                    weight: float = 1.0) -> "PhotonMode":
        """Mode at polar angle theta from +z, azimuth phi (radians)."""
        st = math.sin(theta)
        n = (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
        return cls(omega, n, weight)


@dataclass(frozen=True)
class PhotonEnsemble:
    """A finite, ordered collection of weighted photon modes."""

    modes: tuple[PhotonMode, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))


@dataclass(frozen=True)
class BoostFrame:
    """A boost along z with velocity fraction beta, |beta| < 1."""

    beta: float

    def __post_init__(self):
        if not abs(self.beta) < 1.0:
            raise ValueError("|beta| must be < 1")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.beta**2)


def total_four_momentum(ensemble: PhotonEnsemble) -> FourMomentum:
    """Weighted component-wise sum of hbar*omega/c * (1, n) over all modes."""
    if not ensemble.modes:
        raise ValueError("empty ensemble")
    ks = [m.weight * HBAR * m.omega / C for m in ensemble.modes]
    e = math.fsum(ks)
    if not math.isfinite(e):
        # some weight*hbar*omega/c overflowed; the p sums would report its
        # inf - inf as a ValueError, not as arithmetic
        raise FloatingPointError("non-finite photon momentum weight*hbar*omega/c")
    px = math.fsum(k * m.direction[0] for k, m in zip(ks, ensemble.modes))
    py = math.fsum(k * m.direction[1] for k, m in zip(ks, ensemble.modes))
    pz = math.fsum(k * m.direction[2] for k, m in zip(ks, ensemble.modes))
    return FourMomentum(e, px, py, pz)


def invariant_mass(p: FourMomentum) -> float:
    """Invariant mass in g, via the factored form.

    epsilon^2 - c^2 p^2 is evaluated as (e/c - |p|)(e/c + |p|).  This is not
    cancellation-safe: e/c - |p| still subtracts two totals, so for an
    ensemble of opening angle theta the relative error is about
    1e-16/theta^2 (6e-11 at theta = 1e-3, 8e-6 at 1e-6, total at 1e-8).
    collinear_energy_deficit and pairwise_invariant_mass keep small angles.
    """
    pa = p.p_abs
    s = (p.e_over_c - pa) * (p.e_over_c + pa)
    if not math.isfinite(s):
        raise FloatingPointError(f"non-finite mass^2 {s!r} from four-momentum {p}")
    if not s >= -SPACELIKE_TOL * p.e_over_c**2:
        raise ValueError("spacelike four-momentum: corrupted ensemble")
    return math.sqrt(max(s, 0.0)) / C


def pairwise_invariant_mass(ensemble: PhotonEnsemble) -> float:
    """Mass in g from the sum of pairwise four-products.

    m^2 c^2 = sum_{i,j} (p_i . p_j); the diagonal terms vanish identically
    for null photons, so only i < j pairs are accumulated (doubled).  Each
    1 - n_i.n_j is taken as |n_i - n_j|^2/2, which keeps it exact for
    near-collinear pairs.
    """
    if not ensemble.modes:
        raise ValueError("empty ensemble")
    modes = ensemble.modes
    terms = []
    for i in range(len(modes)):
        mi = modes[i]
        pi = mi.weight * HBAR * mi.omega / C
        for j in range(i + 1, len(modes)):
            mj = modes[j]
            pj = mj.weight * HBAR * mj.omega / C
            dx, dy, dz = (a - b for a, b in zip(mi.direction, mj.direction))
            terms.append(pi * pj * (dx * dx + dy * dy + dz * dz))  # 2(1 - n_i.n_j)
    s = math.fsum(terms)
    return math.sqrt(max(s, 0.0)) / C


def collinear_energy_deficit(ensemble: PhotonEnsemble) -> float:
    """epsilon - c*p_z in erg, as a direct sum of per-mode deficits.

    Each mode contributes weight * hbar*omega * (1 - n_z), taken as
    (n_x^2 + n_y^2)/(1 + n_z) for a forward mode; for a near-collinear
    ensemble this keeps the O(theta^2) deficit exactly where 1 - n_z, or
    the subtraction of two large totals, would not.
    """
    if not ensemble.modes:
        raise ValueError("empty ensemble")
    return math.fsum(m.weight * HBAR * m.omega * _one_minus_nz(m.direction)
                     for m in ensemble.modes)


def _one_minus_nz(n: tuple[float, float, float]) -> float:
    nx, ny, nz = n
    return (nx * nx + ny * ny) / (1.0 + nz) if nz > 0.0 else 1.0 - nz


def ensemble_velocity(p: FourMomentum) -> float:
    """Centroid propagation speed v = c^2 <p_z>/<epsilon> in cm/s."""
    if p.e_over_c <= 0.0:
        raise ValueError("zero-energy four-momentum has no velocity")
    v = C * p.pz / p.e_over_c
    return max(-C, min(C, v))


def boost_photon(mode: PhotonMode, frame: BoostFrame) -> PhotonMode:
    """Standard null-vector boost along z; occupation is Lorentz-invariant."""
    b = frame.beta
    g = frame.gamma
    k = mode.omega / C
    kx = k * mode.direction[0]
    ky = k * mode.direction[1]
    kz = k * mode.direction[2]
    k_new = g * (k - b * kz)          # omega'/c
    kz_new = g * (kz - b * k)
    omega_new = C * k_new
    nx, ny, nz = kx / k_new, ky / k_new, kz_new / k_new
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    return PhotonMode(omega_new, (nx / norm, ny / norm, nz / norm), mode.weight)


def boost_ensemble(ensemble: PhotonEnsemble, frame: BoostFrame) -> PhotonEnsemble:
    return PhotonEnsemble(tuple(boost_photon(m, frame) for m in ensemble.modes))


def rest_frame(p: FourMomentum) -> BoostFrame:
    """Frame in which p_z vanishes; only massive momenta have one."""
    pa = p.p_abs
    s = (p.e_over_c - pa) * (p.e_over_c + pa)
    if s <= SPACELIKE_TOL * p.e_over_c**2:
        raise ValueError("no rest frame for null momentum")
    return BoostFrame(p.pz / p.e_over_c)
