"""The package surface: every exported name, the star import and the
submodules, whether they load eagerly or on first access."""

import importlib
import os
import subprocess
import sys

import pytest

import pulsemass
from pulsemass import spectral

# Every name pulsemass exports, with the submodule that defines it.
EXPORTS = {
    "constants": ["C", "HBAR"],
    "kinematics": ["BoostFrame", "FourMomentum", "PhotonEnsemble", "PhotonMode",
                   "boost_ensemble", "ensemble_velocity", "invariant_mass", "rest_frame",
                   "total_four_momentum"],
    "spectral": ["EnergyMomentum", "ForwardClipWarning", "GaussianPulseParams",
                 "QuadratureError", "field_profile", "integrate_observables",
                 "pulse_mass_quadrature", "validity_ratio"],
    "analytic": ["ParaxialError", "ParaxialWarning", "PulseSummary", "mass_and_speed_deficit",
                 "mass_from_energy", "pulse_energy", "summarize", "w_limit_scaling"],
    "density": ["FieldSample", "mass_density", "mass_density_array",
                "mass_density_invariant_form"],
    "experiment": ["DelayReport", "ExperimentConfig", "GeometryWarning", "channel_delay",
                   "kperp_ratio_to_mass", "mass_kperp_correspondence", "spdc_speed"],
    "units": ["convert_units"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_export_is_the_submodule_object(module, name):
    owner = importlib.import_module(f"pulsemass.{module}")
    assert getattr(pulsemass, name) is getattr(owner, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pulsemass import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(pulsemass, name)


def test_submodule_resolves_after_a_bare_import():
    src = os.path.dirname(os.path.dirname(pulsemass.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import pulsemass; print(pulsemass.kinematics.__name__, "
         "pulsemass.invariant_mass.__module__)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pulsemass.kinematics", "pulsemass.kinematics"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        getattr(pulsemass, "no_such_name")
    assert not hasattr(pulsemass, "no_such_name")


@pytest.mark.parametrize("name", ["GaussianPulseParams", "validity_ratio", "QuadratureError"])
def test_spectral_keeps_the_pulse_names(name):
    assert getattr(spectral, name) is getattr(pulsemass, name)
