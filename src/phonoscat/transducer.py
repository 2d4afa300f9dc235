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

from .coupling import Inclusion, MicrowaveMode, _alignment, _stress_norms
from .elastodynamics import angular_table
from .materials import MaterialSpec, Orientation, ParameterError, piezo_voigt_to_tensor, unit_vector
from .radiation import NumericFailure, QuadratureSpec, RadiationResult, SweepResult, _rates


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
        if not 0 < self.g0 < np.inf:
            raise ParameterError("g0", "reference coupling g0 must be positive and finite")
        if not 0 < self.v_ref < np.inf:
            raise ParameterError("v_ref", "reference mode volume must be positive and finite")
        if not 0.0 <= self.overlap <= 1.0:
            raise ParameterError("overlap", "overlap fraction must lie in [0, 1]")

    def g_mo(self, mode_volume: float) -> float:
        """Microwave-optical coupling (rad/s) at the given mode volume, or
        NumericFailure when it is not finite (V_ref / V_E past the float
        range makes it inf, or nan at a zero overlap)."""
        if not mode_volume > 0:
            raise ValueError("mode volume must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.g0 * self.overlap * np.sqrt(self.v_ref / mode_volume)
        if not np.isfinite(g):
            raise NumericFailure(
                f"non-finite coupling g_MO = {g:.3g} rad/s: V_ref / V_E = {self.v_ref:.3g} / {mode_volume:.3g} m^3"
            )
        return g


def figure_of_merit(eo: EoModel, mode: MicrowaveMode, radiation: RadiationResult) -> float:
    """eta = (g_MO / 2 pi)^2 * Q in Hz^2, ordinary-frequency convention.

    ``radiation`` must have been computed for the same ``mode`` so that the
    mode-volume dependences of g_MO and Q refer to the same resonator.  An
    eta that is not finite (past the float range, or the Q of a zero rate)
    raises NumericFailure.
    """
    g = eo.g_mo(mode.mode_volume)
    q = radiation.q_factor
    with np.errstate(over="ignore", invalid="ignore"):
        g_sq = (g / (2 * np.pi)) ** 2
        eta = g_sq * q
    if not np.isfinite(eta):
        raise NumericFailure(f"non-finite figure of merit: (g_MO / 2 pi)^2 = {g_sq:.3g} Hz^2, Q = {q:.3g}")
    return eta


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
    return _overlaps(mode, [inclusion], substrate)[0]


def _overlaps(mode: MicrowaveMode, inclusions, substrate: MaterialSpec) -> list[float]:
    """``emission_weighted_overlap`` of each inclusion.  The 16x32 table's
    emission weights, their sum and its stress norms depend on the substrate
    alone and are computed once; each inclusion pays for its d tensor and
    one alignment contraction over all three branches."""
    grid = angular_table(substrate, 16, 32)
    w = grid.weights / grid.velocities ** 5
    w_total = sum(float(np.sum(w[q])) for q in range(3))
    norms = _stress_norms(grid.stresses)
    e = unit_vector(mode.field_direction, "field direction")  # normalised again, as geometry_factor does, so G keeps its bits
    out = []
    for inc in inclusions:
        g = _alignment(e, piezo_voigt_to_tensor(inc.d_lab), grid.stresses, norms)
        # a sum per branch, added in branch order: one sum of all three moves G by ~1e-14
        out.append(sum(float(np.sum(w[q] * g[q])) for q in range(3)) / w_total)
    return out


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
    G's substrate factors are computed once per scan, so an angle pays only
    for what the rotation changes: its piezo tensor and one contraction.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("angle grid must not be empty")
    axis = np.asarray(axis, dtype=float)
    spins = [Orientation.about_axis(axis, float(angle)) for angle in angles]
    incs = [dataclasses.replace(inclusion, orientation=s.compose(inclusion.orientation)) for s in spins]
    results = _rates(substrate, [(mode, [inc]) for inc in incs], quad)
    overlaps = np.array(_overlaps(mode, incs, substrate))
    return OrientationSweep("angle", angles, tuple(results), axis=axis, overlaps=overlaps)
