"""Exact special-relativistic arithmetic on discrete photon four-momenta.

All quantities are Gaussian-CGS: energies in erg, momenta in g*cm/s,
frequencies in rad/s.  Boosts are along the z axis only, which is the
propagation axis of every pulse considered here.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .constants import C, HBAR

# Relative slack for the timelike-or-null check.  A spacelike photon sum
# indicates a bug upstream, not numerical noise, so beyond this we raise.
SPACELIKE_TOL = 1e-9

# rest_frame takes a deficit within a few ulps of e/c for rounding, not mass
_NULL_DEFICIT = 4.0 * 2.0**-52

_UNIT_TOL = 1e-12

_FLOAT_MAX = sys.float_info.max  # an int past it cannot become a float

_set = object.__setattr__  # the one way past a frozen dataclass's guard


@dataclass(frozen=True)
class FourMomentum:
    """A four-momentum (e/c, px, py, pz), its deficit e/c - |p| and its
    p_abs = |p|; all in g*cm/s.

    |p| = sqrt(px^2 + py^2 + pz^2) is formed once, here, on the components
    times 2^-x, x = frexp(e/c)[1], so e/c is in [0.5, 1), and scaled back:
    exact, so the bits are the unscaled formula's wherever its squares are
    normal, and scale with the momentum from the faintest finite one to the
    largest.  The spacelike test and a hand-built momentum's default deficit
    use that |p|; total_four_momentum sums the deficit per mode, so it does
    not cancel.
    """

    e_over_c: float
    px: float
    py: float
    pz: float
    deficit: float | None = None

    def __post_init__(self):
        e, px, py, pz = self.e_over_c, self.px, self.py, self.pz
        if not (math.isfinite(e) and math.isfinite(px) and math.isfinite(py)
                and math.isfinite(pz)):
            raise FloatingPointError(f"non-finite four-momentum component in {(e, px, py, pz)}")
        if not e >= 0.0:
            raise ValueError("four-momentum energy must be nonnegative")
        e, x = math.frexp(e)  # e/c = e 2^x, e in [0.5, 1)
        px, py, pz = math.ldexp(px, -x), math.ldexp(py, -x), math.ldexp(pz, -x)
        e2, p2 = e * e, px * px + py * py + pz * pz
        # frexp(0) gives no scale, so an e/c of 0 leaves p unscaled and p^2
        # may underflow to 0: any nonzero component is spacelike
        if not e2 - p2 >= -SPACELIKE_TOL * e2 or (e == 0.0 and (px or py or pz)):
            raise ValueError("spacelike four-momentum: corrupted ensemble")
        p_abs = math.sqrt(p2)
        _set(self, "p_abs", math.ldexp(p_abs, x))
        if self.deficit is None:
            _set(self, "deficit", math.ldexp(e - p_abs, x))


@dataclass(frozen=True, init=False, slots=True)
class PhotonMode:
    """A single photon mode: angular frequency, unit direction, mean occupation.

    The implied four-momentum is null by construction (epsilon = c|p|).
    Slotted; __init__ validates the mode and sets each field once.
    """

    omega: float
    direction: tuple[float, float, float]
    weight: float = 1.0

    def __init__(self, omega: float, direction: tuple[float, float, float],
                 weight: float = 1.0) -> None:
        # written so that NaN fails every check
        if not 0.0 < omega <= _FLOAT_MAX:
            raise ValueError("mode frequency must be finite and positive")
        if not 0.0 <= weight <= _FLOAT_MAX:
            raise ValueError("mode weight must be finite and nonnegative")
        nx, ny, nz = direction
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if not abs(norm - 1.0) <= _UNIT_TOL:
            raise ValueError(f"direction must be a unit vector (|n| = {norm})")
        _set(self, "omega", omega)
        _set(self, "direction", (float(nx), float(ny), float(nz)))
        _set(self, "weight", weight)

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
        a = np.fromiter(chain((m.omega for m in modes), (m.weight for m in modes),
                              chain.from_iterable(m.direction for m in modes)), float, 5 * n)
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
        return 1.0 / math.sqrt(1.0 - self.beta * self.beta)


@np.errstate(over="ignore")
def _energies(ensemble: PhotonEnsemble) -> np.ndarray:
    """weight*hbar*omega per mode in erg; overflows to inf as a float would."""
    if not ensemble.omega.size:
        raise ValueError("empty ensemble")
    return ensemble.weight * HBAR * ensemble.omega


def total_four_momentum(ensemble: PhotonEnsemble) -> FourMomentum:
    """Weighted component-wise sum of hbar*omega/c * (1, n) over all modes,
    with the deficit e/c - |p| = sum k |n - u|^2/2 about the total-momentum
    axis u (z when p = 0): every term is >= 0, and an error in u enters it
    at second order only."""
    k = _energies(ensemble) / C
    e = math.fsum(k.tolist())
    if not math.isfinite(e):  # the p sums would call inf - inf a ValueError
        raise FloatingPointError("non-finite photon momentum weight*hbar*omega/c")
    px, py, pz = map(math.fsum, (ensemble.n.T * k).tolist())
    p_abs = math.hypot(px, py, pz)
    d = ensemble.n - ([px / p_abs, py / p_abs, pz / p_abs] if p_abs else [0.0, 0.0, 1.0])
    d *= d
    return FourMomentum(e, px, py, pz, 0.5 * sum(np.dot(k, d).tolist()))


def invariant_mass(p: FourMomentum) -> float:
    """Invariant mass in g, sqrt((e/c + |p|) * deficit)/c: the one mass
    formula, for photon ensembles and the spectral oracle alike.  It is
    formed on e/c, |p| and the deficit times the 2^-x of FourMomentum, so
    that the product does not underflow, and scaled back by 2^x."""
    e, x = math.frexp(p.e_over_c)
    s = (e + math.ldexp(p.p_abs, -x)) * math.ldexp(p.deficit, -x)
    if not math.isfinite(s):
        raise FloatingPointError(f"non-finite mass^2 {s!r} from four-momentum {p}")
    if not s >= -SPACELIKE_TOL * (e * e):
        raise ValueError("spacelike four-momentum: corrupted ensemble")
    return math.ldexp(math.sqrt(max(s, 0.0)) / C, x)


def ensemble_velocity(p: FourMomentum) -> float:
    """Centroid propagation speed v = c^2 <p_z>/<epsilon> in cm/s, formed
    as c p_z/(e/c) on p_z and e/c times the 2^-x of FourMomentum: the bits
    of the unscaled quotient, without its overflow of c p_z."""
    if p.e_over_c <= 0.0:
        raise ValueError("zero-energy four-momentum has no velocity")
    e, x = math.frexp(p.e_over_c)
    v = C * math.ldexp(p.pz, -x) / e
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
    """Frame in which p_z vanishes; only massive momenta have one.  A deficit
    of a few ulps of e/c is rounding, so such a momentum counts as null."""
    if p.deficit <= _NULL_DEFICIT * p.e_over_c:
        raise ValueError("no rest frame for null momentum")
    return BoostFrame(p.pz / p.e_over_c)
