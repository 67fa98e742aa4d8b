"""Invariant mass, propagation speed, rest-frame properties and
focus-induced delay of photon ensembles and Gaussian light pulses."""

from .constants import C, HBAR
from .kinematics import (
    BoostFrame,
    FourMomentum,
    PhotonEnsemble,
    PhotonMode,
    boost_ensemble,
    collinear_energy_deficit,
    ensemble_velocity,
    invariant_mass,
    pairwise_invariant_mass,
    rest_frame,
    total_four_momentum,
)
from .spectral import (
    EnergyMomentum,
    ForwardClipWarning,
    GaussianPulseParams,
    QuadratureError,
    SpectralDensity,
    energy_momentum_deficit,
    field_profile,
    gaussian_spectral_density,
    integrate_observables,
    pulse_mass_quadrature,
    validity_ratio,
)
from .analytic import (
    ParaxialError,
    ParaxialWarning,
    PulseSummary,
    mass_from_energy,
    mass_from_photon_number,
    pulse_energy,
    summarize,
    w_limit_scaling,
)
from .density import (
    FieldSample,
    mass_density,
    mass_density_array,
    mass_density_invariant_form,
)
from .experiment import (
    DelayReport,
    ExperimentConfig,
    GeometryWarning,
    channel_delay,
    focus_kperp,
    kperp_ratio_to_mass,
    mass_kperp_correspondence,
    spdc_speed,
)
from .units import convert_units

__version__ = "0.1.0"
