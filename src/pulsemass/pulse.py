"""Gaussian pulse parameters, their paraxial small parameters and the
quadrature failure, free of numpy for the closed forms."""
import math
from collections import namedtuple

from .constants import C


class QuadratureError(RuntimeError):
    """Dyadic refinement failed to converge."""


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and strictly positive")


def _checked_record(name: str, fields: str) -> type:
    """A named tuple base whose _make, and so _replace, copy and unpickling,
    build through the subclass's validating __new__."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


class GaussianPulseParams(_checked_record("GaussianPulseParams", "e0 tau w omega0")):
    """Classical description of a Gaussian pulse at the z = 0 boundary.

    e0: field amplitude (statvolt/cm); tau: duration (s);
    w: waist (cm); omega0: carrier angular frequency (rad/s).
    A named tuple: change a field by _replace, not dataclasses.replace.
    """

    __slots__ = ()

    def __new__(cls, e0: float, tau: float, w: float, omega0: float):
        _require_positive(e0=e0, tau=tau, w=w, omega0=omega0)
        return super().__new__(cls, e0, tau, w, omega0)

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in cm; the one canonical omega0 -> lambda spot."""
        return 2.0 * math.pi * C / self.omega0

    @classmethod
    def from_energy(cls, energy: float, tau: float, w: float,
                    omega0: float) -> "GaussianPulseParams":
        """Pick e0 so the paraxial pulse energy sqrt(pi)*c*tau*w^2*e0^2/8
        equals the given value in erg; OverflowError where that e0 is out of
        floating-point range."""
        _require_positive(energy=energy, tau=tau, w=w)
        area = math.sqrt(math.pi) * C * tau * w * w
        e0 = math.sqrt(8.0 * energy / area) if 0.0 < area < math.inf else 0.0
        if not 0.0 < e0 < math.inf:
            raise OverflowError(
                f"w = {w:.6g} cm, tau = {tau:.6g} s, energy = {energy:.6g} erg: "
                "e0 = sqrt(8 energy/(sqrt(pi) c tau w^2)) is out of "
                "floating-point range")
        return cls(e0, tau, w, omega0)


def validity_ratio(params: GaussianPulseParams) -> tuple[float, float]:
    """The two paraxial small parameters (lambda/w, lambda/(c*tau))."""
    lam = params.wavelength
    return lam / params.w, lam / (C * params.tau)
