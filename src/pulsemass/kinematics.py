"""Exact special-relativistic arithmetic on discrete photon four-momenta.

All quantities are Gaussian-CGS: energies in erg, momenta in g*cm/s,
frequencies in rad/s.  Boosts are along the z axis only, which is the
propagation axis of every pulse considered here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, init=False, eq=False)
class PhotonEnsemble:
    """Weighted photon modes as three read-only arrays.  PhotonEnsemble(modes)
    packs validated PhotonModes; indexing builds them back, one per access."""

    omega: np.ndarray   # (N,) rad/s
    n: np.ndarray       # (N, 3) unit directions
    weight: np.ndarray  # (N,)

    def __init__(self, modes=()):
        modes = tuple(modes)
        n = len(modes)
        a = np.array([m.omega for m in modes] + [m.weight for m in modes]
                     + [c for m in modes for c in m.direction], dtype=float)
        a.flags.writeable = False  # and so are its views
        vars(self).update(omega=a[:n], n=a[2 * n:].reshape(n, 3), weight=a[n:2 * n])

    def __len__(self) -> int:
        return len(self.omega)

    def __getitem__(self, i: int) -> PhotonMode:
        return PhotonMode(float(self.omega[i]), tuple(self.n[i].tolist()), float(self.weight[i]))

    modes = property(lambda self: self)  # the API edge: a sequence of PhotonMode


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


@np.errstate(over="ignore")
def _energies(ensemble: PhotonEnsemble) -> np.ndarray:
    """weight*hbar*omega per mode in erg; overflows to inf as a float would."""
    if not ensemble.omega.size:
        raise ValueError("empty ensemble")
    return ensemble.weight * HBAR * ensemble.omega


def total_four_momentum(ensemble: PhotonEnsemble) -> FourMomentum:
    """Weighted component-wise sum of hbar*omega/c * (1, n) over all modes."""
    k = _energies(ensemble) / C
    e = math.fsum(k.tolist())
    if not math.isfinite(e):  # the p sums would call inf - inf a ValueError
        raise FloatingPointError("non-finite photon momentum weight*hbar*omega/c")
    return FourMomentum(e, *map(math.fsum, (ensemble.n.T * k).tolist()))


def _mass_squared(p: FourMomentum) -> float:
    pa = p.p_abs
    return (p.e_over_c - pa) * (p.e_over_c + pa)


def invariant_mass(p: FourMomentum) -> float:
    """Invariant mass in g from (e/c - |p|)(e/c + |p|).  Not cancellation-safe:
    at opening angle theta the relative error is about 1e-16/theta^2 (total at
    1e-8); collinear_energy_deficit and pairwise_invariant_mass stay exact."""
    s = _mass_squared(p)
    if not math.isfinite(s):
        raise FloatingPointError(f"non-finite mass^2 {s!r} from four-momentum {p}")
    if not s >= -SPACELIKE_TOL * p.e_over_c**2:
        raise ValueError("spacelike four-momentum: corrupted ensemble")
    return math.sqrt(max(s, 0.0)) / C


def pairwise_invariant_mass(ensemble: PhotonEnsemble) -> float:
    """Mass in g from m^2 c^2 = sum_{i<j} 2 p_i . p_j (null diagonal), each
    1 - n_i.n_j taken as |n_i - n_j|^2/2 so near-collinear pairs stay exact.
    The pairs are summed row by row, in O(N) memory."""
    k, n = _energies(ensemble) / C, ensemble.n

    def row(i: int) -> list[float]:  # 2 p_i.p_j = p_i p_j |n_i - n_j|^2 for j > i
        dx, dy, dz = (n[i] - n[i + 1:]).T
        return (k[i] * k[i + 1:] * (dx * dx + dy * dy + dz * dz)).tolist()

    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as in floats
        s = math.fsum(t for i in range(len(k)) for t in row(i))
    return math.sqrt(max(s, 0.0)) / C


def collinear_energy_deficit(ensemble: PhotonEnsemble) -> float:
    """epsilon - c*p_z in erg, summed per mode as weight*hbar*omega*(1 - n_z)
    with 1 - n_z = (n_x^2 + n_y^2)/(1 + n_z) for forward modes, so an
    O(theta^2) deficit stays exact where two large totals would cancel."""
    nx, ny, nz = ensemble.n.T
    one_minus_nz = np.divide(nx * nx + ny * ny, 1.0 + nz, out=1.0 - nz, where=nz > 0.0)
    with np.errstate(invalid="ignore"):  # an inf energy times 0 is NaN, as in floats
        return math.fsum((_energies(ensemble) * one_minus_nz).tolist())


def ensemble_velocity(p: FourMomentum) -> float:
    """Centroid propagation speed v = c^2 <p_z>/<epsilon> in cm/s."""
    if p.e_over_c <= 0.0:
        raise ValueError("zero-energy four-momentum has no velocity")
    v = C * p.pz / p.e_over_c
    return max(-C, min(C, v))


def boost_ensemble(ensemble: PhotonEnsemble, frame: BoostFrame) -> PhotonEnsemble:
    """Standard null-vector boost along z; occupation is Lorentz-invariant."""
    b, g = frame.beta, frame.gamma
    k = ensemble.omega / C
    kv = ensemble.n.T * k             # (kx, ky, kz) rows, then the new direction
    k_new = g * (k - b * kv[2])       # omega'/c, at most 2^26 * 2k: finite
    # C * max(ks) overflows iff C * k_new does; past it no step overflows or divides by 0
    ks = k_new.tolist()
    if ks and not (0.0 < min(ks) and C * max(ks) < math.inf):
        raise ValueError("mode frequency must be finite and positive")
    kv[2] = g * (kv[2] - b * k)
    kv /= k_new
    sq = kv * kv
    kv /= np.sqrt(sq[0] + sq[1] + sq[2])
    omega = C * k_new
    omega.flags.writeable = kv.flags.writeable = False
    boosted = object.__new__(PhotonEnsemble)
    vars(boosted).update(omega=omega, n=kv.T, weight=ensemble.weight)
    return boosted


def rest_frame(p: FourMomentum) -> BoostFrame:
    """Frame in which p_z vanishes; only massive momenta have one."""
    if _mass_squared(p) <= SPACELIKE_TOL * p.e_over_c**2:
        raise ValueError("no rest frame for null momentum")
    return BoostFrame(p.pz / p.e_over_c)
