"""Electro-optic transduction model and the g^2 Q figure of merit.

The electro-optic coupling is scaled from a reference value at a reference
mode volume, ``g_MO = g0 * xi * sqrt(V_ref / V_E)``: shrinking the microwave
mode concentrates its zero-point field and strengthens the coupling, while
the radiated phonon rate grows by exactly the same factor.  The figure of
merit eta = (g_MO / 2 pi)^2 * Q is therefore independent of the mode volume
in this model, which is the point of computing it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .coupling import Inclusion, MicrowaveMode, geometry_factor
from .elastodynamics import angular_table
from .materials import MaterialSpec, Orientation
from .radiation import QuadratureSpec, RadiationResult, SweepResult, _rates


@dataclass(frozen=True)
class EoModel:
    """Electro-optic coupling scaled from a reference mode volume.

    ``g0`` is the angular-frequency coupling (rad/s) measured or assumed at
    mode volume ``v_ref``; ``overlap`` is the fraction xi in [0, 1] of the
    microwave field overlapping the optical mode.
    """

    g0: float  # rad/s at v_ref
    v_ref: float  # m^3
    overlap: float = 1.0

    def __post_init__(self):
        if not self.g0 > 0:
            raise ValueError("reference coupling g0 must be positive")
        if not self.v_ref > 0:
            raise ValueError("reference mode volume must be positive")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap fraction must lie in [0, 1]")

    def g_mo(self, mode_volume: float) -> float:
        """Microwave-optical coupling (rad/s) at the given mode volume."""
        if not mode_volume > 0:
            raise ValueError("mode volume must be positive")
        return self.g0 * self.overlap * np.sqrt(self.v_ref / mode_volume)


def figure_of_merit(eo: EoModel, mode: MicrowaveMode, radiation: RadiationResult) -> float:
    """eta = (g_MO / 2 pi)^2 * Q in Hz^2, ordinary-frequency convention.

    ``radiation`` must have been computed for the same ``mode`` so that the
    mode-volume dependences of g_MO and Q refer to the same resonator.
    """
    g = eo.g_mo(mode.mode_volume)
    return (g / (2 * np.pi)) ** 2 * radiation.q_factor


@dataclass(frozen=True)
class OrientationSweep(SweepResult):
    """Q and alignment diagnostic versus crystal rotation angle (``values``, radians)."""

    axis: np.ndarray
    overlaps: np.ndarray  # emission-weighted alignment factor G in [0, 1]


def emission_weighted_overlap(
    mode: MicrowaveMode, inclusion: Inclusion, substrate: MaterialSpec
) -> float:
    """Alignment factor G in [0, 1] between field, piezo tensor and emission.

    Averages the pointwise tensor alignment |e_E . d : T_hat|^2 / |d|_F^2
    over propagation directions and branches, weighted by the point-source
    emission measure 1 / v_q^5.  G = 0 for a non-piezoelectric inclusion.
    """
    grid = angular_table(substrate, 16, 32)
    d_lab = inclusion.d_lab
    num = 0.0
    den = 0.0
    for q in range(3):
        tau = grid.stress(q)
        w = grid.weights / grid.velocities[:, q] ** 5
        g = geometry_factor(mode.field_direction, d_lab, tau)
        num += float(np.sum(w * g))
        den += float(np.sum(w))
    return num / den


def sweep_orientation(
    mode: MicrowaveMode,
    inclusion: Inclusion,
    substrate: MaterialSpec,
    angles,
    axis=(0.0, 0.0, 1.0),
    quad: QuadratureSpec | None = None,
) -> OrientationSweep:
    """Spin the inclusion crystal about ``axis`` and track G, Gamma and Q.

    Each angle applies an additional laboratory-frame rotation on top of the
    inclusion's base orientation; the cuboid geometry itself stays fixed, as
    for a film whose crystal axes are rotated about the film normal.  All
    angles go to ``radiation._rates`` in one call, like the points of
    ``sweep``: each rate is converged, or the scan raises NumericFailure.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("angle grid must not be empty")
    axis = np.asarray(axis, dtype=float)
    spins = [Orientation.about_axis(axis, float(angle)) for angle in angles]
    incs = [dataclasses.replace(inclusion, orientation=s.compose(inclusion.orientation)) for s in spins]
    results = _rates(substrate, [(mode, [inc]) for inc in incs], quad)
    overlaps = np.array([emission_weighted_overlap(mode, inc, substrate) for inc in incs])
    return OrientationSweep("angle", angles, tuple(results), axis=axis, overlaps=overlaps)
