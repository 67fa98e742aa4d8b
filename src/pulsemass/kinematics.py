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

_set = object.__setattr__  # past a frozen dataclass's guard, for the fields FourMomentum derives

# total_four_momentum's sizes for _exact_sums: from its crossover with
# math.fsum (about 550 modes on a 2-vCPU Xeon) to where its bins stop being exact
_EXACT_SUMS_MIN = 512
_EXACT_SUMS_MAX = 2**27


@dataclass(frozen=True)
class FourMomentum:
    """A four-momentum (e/c, px, py, pz), its deficit e/c - |p| and its
    p_abs = |p|; all in g*cm/s.

    The one place that checks and scales a four-momentum: |p| is formed
    on the components times 2^-x, x = frexp(e/c)[1], so e/c is in [0.5, 1),
    and scaled back: exact, so the bits are the unscaled formula's wherever
    its squares are normal.  A given deficit (total_four_momentum sums it
    per mode, so it does not cancel) must be within SPACELIKE_TOL * e/c of
    e/c - |p|, the default.  The readers use the scaled values kept here.
    """

    e_over_c: float
    px: float
    py: float
    pz: float
    deficit: float | None = None

    def __post_init__(self):
        e, px, py, pz, d = self.e_over_c, self.px, self.py, self.pz, self.deficit
        if not all(map(math.isfinite, (e, px, py, pz, 0.0 if d is None else d))):
            raise FloatingPointError(f"non-finite four-momentum component in {(e, px, py, pz, d)}")
        if not e >= 0.0:
            raise ValueError("four-momentum energy must be nonnegative")
        e, x = math.frexp(e)  # e/c = e 2^x, e in [0.5, 1)
        # a subnormal component is good to 2^-1074 = 2^(-1074 - x) e/c: allow 2^10
        tol = SPACELIKE_TOL + math.ldexp(1.0, -1064 - x)
        try:
            px, py, pz = math.ldexp(px, -x), math.ldexp(py, -x), math.ldexp(pz, -x)
        except OverflowError:  # a component past 2^x times the float range: |p| >> e/c
            raise ValueError("spacelike four-momentum: corrupted ensemble") from None
        e2, p2 = e * e, px * px + py * py + pz * pz
        # frexp(0) gives no scale, so an e/c of 0 leaves p unscaled and p^2
        # may underflow to 0: any nonzero component is spacelike
        if not e2 - p2 >= -tol * e2 or (e == 0.0 and (px or py or pz)):
            raise ValueError("spacelike four-momentum: corrupted ensemble")
        p_abs = math.sqrt(p2)
        try:
            d = e - p_abs if d is None else math.ldexp(d, -x)
        except OverflowError:  # a deficit past 2^x times the float range: >> e/c
            d = math.inf
        if not abs(d - (e - p_abs)) <= tol * e:
            raise ValueError(f"deficit {self.deficit!r} is not e/c - |p| to SPACELIKE_TOL * e/c")
        _set(self, "p_abs", math.ldexp(p_abs, x))
        _set(self, "deficit", math.ldexp(d, x) if self.deficit is None else self.deficit)
        _set(self, "_scaled", (x, e, pz, p_abs, d))  # e/c in [0.5, 1), the rest at its scale


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
        _set_omega(self, omega)
        _set_direction(self, (float(nx), float(ny), float(nz)))
        _set_weight(self, weight)

    @classmethod
    def from_angles(cls, omega: float, theta: float, phi: float = 0.0,
                    weight: float = 1.0) -> "PhotonMode":
        """Mode at polar angle theta from +z, azimuth phi (radians)."""
        st = math.sin(theta)
        n = (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
        return cls(omega, n, weight)


# the slots' own setters: no frozen guard and no name lookup per mode
_set_omega = PhotonMode.omega.__set__
_set_direction = PhotonMode.direction.__set__
_set_weight = PhotonMode.weight.__set__


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


def _exact_sums(rows) -> list[float]:
    """math.fsum of each row of finite floats, from a few numpy calls per
    row, in the style of Neal's superaccumulators (arXiv:1505.05571).

    frexp gives each term as M 2^(x - 53), M an integer below 2^53, which
    splits exactly into hi 2^27 + lo with |hi|, |lo| <= 2^26.  One bincount
    per half sums it by exponent, exactly for rows below 2^27 terms; the
    bins whose sum is not 0 join as one Python int from the top, which is
    rounded once: correctly, so the bits are fsum's, subnormal sums and 0.0
    included."""
    sums = []
    for row in rows:
        m, x = np.frexp(row)  # row = m 2^x, 0.5 <= |m| < 1, or m = x = 0
        m *= 2.0**26  # M 2^-27
        hi = np.rint(m)
        m -= hi  # lo 2^-27
        x0 = int(x.min())
        x -= x0
        h, lo = np.bincount(x, hi), np.bincount(x, m)
        # h + lo is 0 only where the bin sums to 0 exactly, a zero term's
        # bin included: the walk skips them
        b = np.flatnonzero(h + lo)[::-1]
        t, top = 0, h.size  # above every bin: 0 << (top - i) is 0
        for i, hb, lb in zip(b.tolist(), h[b].astype(np.int64).tolist(),
                             (lo[b] * 2.0**27).astype(np.int64).tolist()):
            t = (t << (top - i)) + (hb << 27) + lb
            top = i
        s = top + x0 - 53
        sums.append(float(t << s) if s >= 0 else t / (1 << -s))
    return sums


@np.errstate(over="ignore")  # weight*hbar*omega overflows to inf as a float would
def total_four_momentum(ensemble: PhotonEnsemble) -> FourMomentum:
    """Weighted component-wise sum of hbar*omega/c * (1, n) over all modes,
    with the deficit e/c - |p| = sum k |n - u|^2/2 about the total-momentum
    axis u (z when p = 0): every term is >= 0, and an error in u enters it
    at second order only.  The four totals are correctly rounded, so they
    are math.fsum's bits on either path: math.fsum below _EXACT_SUMS_MIN
    modes, where it beats the kernel's fixed numpy cost, and _exact_sums
    from there to the 2^27 terms below which its bin sums are exact."""
    if not ensemble.omega.size:
        raise ValueError("empty ensemble")
    k = ensemble.weight * HBAR * ensemble.omega / C
    exact = _EXACT_SUMS_MIN <= k.size < _EXACT_SUMS_MAX
    e = k.max() if exact else math.fsum(k.tolist())  # k >= 0: finite iff its max is
    if not math.isfinite(e):  # the p sums would call inf - inf a ValueError
        raise FloatingPointError("non-finite photon momentum weight*hbar*omega/c")
    if exact:
        e, px, py, pz = _exact_sums((k, *(ensemble.n.T * k)))
    else:
        px, py, pz = map(math.fsum, (ensemble.n.T * k).tolist())
    p_abs = math.hypot(px, py, pz)
    d = ensemble.n - ([px / p_abs, py / p_abs, pz / p_abs] if p_abs else [0.0, 0.0, 1.0])
    d *= d
    return FourMomentum(e, px, py, pz, 0.5 * sum(np.dot(k, d).tolist()))


def invariant_mass(p: FourMomentum) -> float:
    """Invariant mass in g, sqrt((e/c + |p|) * deficit)/c: the one mass
    formula, for photon ensembles and the spectral oracle alike, formed at
    FourMomentum's scale, where the product is finite and does not
    underflow, and scaled back by 2^x; one below 0 is null."""
    x, e, _, p_abs, d = p._scaled
    return math.ldexp(math.sqrt(max((e + p_abs) * d, 0.0)) / C, x)


def ensemble_velocity(p: FourMomentum) -> float:
    """Centroid propagation speed v = c^2 <p_z>/<epsilon> in cm/s, formed
    as c p_z/(e/c) on FourMomentum's scaled p_z and e/c: the bits of the
    unscaled quotient, without its overflow of c p_z."""
    if p.e_over_c <= 0.0:
        raise ValueError("zero-energy four-momentum has no velocity")
    _, e, pz, _, _ = p._scaled
    return max(-C, min(C, C * pz / e))


def boost_ensemble(ensemble: PhotonEnsemble, frame: BoostFrame) -> PhotonEnsemble:
    """Standard null-vector boost along z; occupation is Lorentz-invariant."""
    b, g = frame.beta, frame.gamma
    k = ensemble.omega / C
    kv = ensemble.n.T * k             # (kx, ky, kz) rows, then the new direction
    k_new = g * (k - b * kv[2])       # omega'/c, at most 2^26 * 2k: finite
    # C * max overflows iff C * k_new does; past it no step overflows or divides by 0.
    # float(): a Python float product overflows to inf silently, np.float64 warns
    if k_new.size and not (0.0 < k_new.min() and C * float(k_new.max()) < math.inf):
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
    _, e, pz, _, d = p._scaled
    if d <= _NULL_DEFICIT * e:
        raise ValueError("no rest frame for null momentum")
    return BoostFrame(pz / e)
