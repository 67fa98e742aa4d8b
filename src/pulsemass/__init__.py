"""Invariant mass, propagation speed, rest-frame properties and
focus-induced delay of photon ensembles and Gaussian light pulses."""
import importlib

# exported name -> its submodule, imported on first access: numpy loads only if used
_OWNER = {name: module for module, names in (
    ("constants", "C HBAR"),
    ("pulse", "GaussianPulseParams QuadratureError validity_ratio"),
    ("kinematics", "BoostFrame FourMomentum PhotonEnsemble PhotonMode boost_ensemble "
                   "ensemble_velocity invariant_mass rest_frame total_four_momentum"),
    ("spectral", "EnergyMomentum ForwardClipWarning field_profile integrate_observables "
                 "pulse_mass_quadrature"),
    ("analytic", "ParaxialError ParaxialWarning PulseSummary mass_from_energy "
                 "mass_from_photon_number pulse_energy summarize w_limit_scaling"),
    ("density", "FieldSample mass_density mass_density_array mass_density_invariant_form"),
    ("experiment", "DelayReport ExperimentConfig GeometryWarning channel_delay "
                   "kperp_ratio_to_mass mass_kperp_correspondence spdc_speed"),
    ("units", "convert_units"),
) for name in names.split()}
__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _OWNER.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_OWNER.values()})
