"""Phonon-radiation loss of microwave modes with piezoelectric inclusions.

The package computes the rate at which a microwave resonator mode loses
photons by radiating acoustic waves from embedded piezoelectric material,
the resulting quality factor, two mitigation schemes (antiparallel pair
interference and acoustic Bragg mirrors), and the electro-optic figure of
merit that trades coupling against loss.
"""

from .coupling import (
    Inclusion,
    MicrowaveMode,
    default_eps_eff,
    geometry_factor,
    induced_strain,
)
from .elastodynamics import MaterialInstabilityError
from .materials import (
    CONSTANTS,
    MaterialError,
    MaterialSpec,
    Orientation,
    default_materials,
    isotropic_stiffness,
    load_materials,
    rotate_piezo,
    rotate_stiffness,
)
from .mitigation import (
    BraggLayer,
    BraggStack,
    DualWaveguideResult,
    bragg_transmission,
    dual_waveguide_rate,
    dual_waveguide_sweep,
    mitigated_rate,
    transfer_matrix,
)
from .radiation import (
    NumericFailure,
    QuadratureDiagnostics,
    QuadratureSpec,
    RadiationResult,
    SweepResult,
    brute_force_rate,
    derived_material_constant,
    mie_rate,
    min_phase_velocity,
    rayleigh_rate,
    refined_rate,
    regime_label,
    sweep,
)
from .transducer import (
    EoModel,
    OrientationSweep,
    emission_weighted_overlap,
    figure_of_merit,
    sweep_orientation,
)

__version__ = "0.1.0"

__all__ = [
    "BraggLayer",
    "BraggStack",
    "CONSTANTS",
    "DualWaveguideResult",
    "EoModel",
    "Inclusion",
    "MaterialError",
    "MaterialInstabilityError",
    "MaterialSpec",
    "MicrowaveMode",
    "NumericFailure",
    "Orientation",
    "OrientationSweep",
    "QuadratureDiagnostics",
    "QuadratureSpec",
    "RadiationResult",
    "SweepResult",
    "bragg_transmission",
    "brute_force_rate",
    "default_eps_eff",
    "default_materials",
    "derived_material_constant",
    "dual_waveguide_rate",
    "dual_waveguide_sweep",
    "emission_weighted_overlap",
    "figure_of_merit",
    "geometry_factor",
    "induced_strain",
    "isotropic_stiffness",
    "load_materials",
    "mie_rate",
    "min_phase_velocity",
    "mitigated_rate",
    "rayleigh_rate",
    "refined_rate",
    "regime_label",
    "rotate_piezo",
    "rotate_stiffness",
    "sweep",
    "sweep_orientation",
    "transfer_matrix",
]
