"""Suppression of phonon radiation: pair interference and Bragg mirrors.

Two mitigation schemes share this module.  The first places a congruent copy
of an inclusion at the mirrored position with an inverted coupling sign, so
the two emission amplitudes interfere; in the long-wavelength limit the pair
radiates like a difference of dipoles and the rate falls as the square of the
separation.  The second inserts a stack of alternating acoustic-impedance
quarter-wave layers between the source and the bulk, modelled by the standard
one-dimensional lossless transfer matrix at normal incidence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .coupling import Inclusion, MicrowaveMode
from .elastodynamics import christoffel_many
from .materials import MaterialSpec
from .radiation import QuadratureSpec, RadiationResult, _CouplingTable, _result, refined_rate


@dataclass(frozen=True)
class DualWaveguideResult:
    """Coherent two-inclusion rate next to its incoherent baseline.

    ``suppression_ratio`` is Gamma_pair / (2 Gamma_single): the coherent pair
    rate relative to two independent copies.  ``q_gain`` is its inverse, the
    quality-factor gain interference buys over the incoherent pair (infinite
    for exact cancellation).
    """

    pair: RadiationResult
    single: RadiationResult
    separation: np.ndarray
    relative_sign: int
    suppression_ratio: float
    q_gain: float

    def __post_init__(self):
        sep = np.asarray(self.separation, dtype=float)
        sep.setflags(write=False)
        object.__setattr__(self, "separation", sep)


def _check_pair_geometry(dimensions: np.ndarray, separation: np.ndarray) -> None:
    """Reject partially overlapping boxes; coincident centers are allowed.

    Two congruent axis-aligned boxes with center offset ``separation``
    intersect when every offset component is smaller than the matching edge
    length.  Zero separation is accepted as the idealized limit of perfectly
    interleaved opposite-sign domains; anything between coincident and
    disjoint is a physically ambiguous geometry and raises.
    """
    if separation.shape != (3,):
        raise ValueError("separation must be a 3-vector in meters")
    sep = np.abs(separation)
    if np.all(sep == 0.0):
        return
    if np.all(sep < dimensions):
        raise ValueError(
            f"separation {separation.tolist()} m: inclusion pair overlaps: every "
            f"center-offset component is smaller than the box edges "
            f"{dimensions.tolist()}; separate them along at least one axis"
        )


def dual_waveguide_sweep(
    mode: MicrowaveMode,
    inclusion: Inclusion,
    substrate: MaterialSpec,
    separations,
    relative_sign: int = -1,
    quad: QuadratureSpec | None = None,
) -> tuple[DualWaveguideResult, ...]:
    """``dual_waveguide_rate`` at each separation (3-vectors, meters).

    Every separation is checked before any rate is computed.  The
    single-inclusion baseline does not depend on the separation, so it is
    computed once and shared by all results.  Neither does the coupling: the
    two copies have the strain of ``inclusion``, so the baseline and every
    pair read one coupling table.  Rates go through ``refined_rate``:
    converged, or NumericFailure.
    """
    if relative_sign not in (1, -1):
        raise ValueError("relative_sign must be +1 or -1")
    seps = [np.asarray(s, dtype=float) for s in separations]
    for sep in seps:
        _check_pair_geometry(inclusion.dimensions, sep)
    couplings = _CouplingTable(substrate)
    single = refined_rate(mode, inclusion, substrate, quad, couplings=couplings)
    results = []
    for sep in seps:
        first = dataclasses.replace(inclusion, center=inclusion.center + sep / 2)
        second = dataclasses.replace(
            inclusion,
            center=inclusion.center - sep / 2,
            sign=inclusion.sign * relative_sign,
        )
        pair = refined_rate(mode, [first, second], substrate, quad, couplings=couplings)
        ratio = pair.total_rate / (2 * single.total_rate)
        results.append(
            DualWaveguideResult(
                pair=pair,
                single=single,
                separation=sep,
                relative_sign=relative_sign,
                suppression_ratio=ratio,
                q_gain=np.inf if ratio == 0 else 1.0 / ratio,
            )
        )
    return tuple(results)


def dual_waveguide_rate(
    mode: MicrowaveMode,
    inclusion: Inclusion,
    substrate: MaterialSpec,
    separation,
    relative_sign: int = -1,
    quad: QuadratureSpec | None = None,
) -> DualWaveguideResult:
    """Radiated rate of two congruent inclusions at ``center +- separation/2``.

    The first copy keeps the sign of ``inclusion``; the second is multiplied
    by ``relative_sign`` (-1 models the inverted crystal orientation of an
    antiparallel pair).  Emission amplitudes are summed coherently, so
    opposite signs cancel exactly at zero separation and the ratio
    Gamma_pair / (2 Gamma_single) grows from 0 toward 2 with separation.
    """
    return dual_waveguide_sweep(mode, inclusion, substrate, [separation], relative_sign, quad)[0]


@dataclass(frozen=True)
class BraggLayer:
    """One lossless mirror layer: acoustic impedance, sound speed, thickness.

    The impedance Z = rho * v sets the interface reflections and the speed
    sets the phase accumulated across the layer, phi = omega * thickness / v;
    both are needed to propagate the (stress, velocity) pair.
    """

    name: str
    impedance: float  # Pa s / m
    speed: float  # m/s
    thickness: float  # m

    def __post_init__(self):
        if not (self.impedance > 0 and self.speed > 0 and self.thickness > 0):
            raise ValueError(f"layer '{self.name}': impedance, speed and thickness must be positive")


@dataclass(frozen=True)
class BraggStack:
    """A repeated period of layers between two semi-infinite media."""

    period: tuple
    n_periods: int
    z_in: float  # impedance of the incidence medium
    z_out: float  # impedance of the exit medium

    def __post_init__(self):
        period = tuple(self.period)
        if not all(isinstance(l, BraggLayer) for l in period):
            raise ValueError("stack period must contain BraggLayer entries")
        object.__setattr__(self, "period", period)
        if self.n_periods < 0 or self.n_periods != int(self.n_periods):
            raise ValueError("n_periods must be a nonnegative integer")
        if not (self.z_in > 0 and self.z_out > 0):
            raise ValueError("media impedances must be positive")

    @property
    def layers(self) -> tuple:
        """The period repeated n_periods times, incidence side first."""
        return self.period * self.n_periods

    @staticmethod
    def quarter_wave(
        substrate: MaterialSpec,
        low: MaterialSpec,
        high: MaterialSpec,
        center_frequency: float,
        n_periods: int,
        normal=(0.0, 0.0, 1.0),
    ) -> "BraggStack":
        """Alternating quarter-wave mirror embedded in ``substrate``.

        Layer speeds are the longitudinal phase velocities along ``normal``
        (branch 3 of the acoustic spectrum) and each thickness is v / (4 f_c),
        a quarter wavelength at the center frequency ``center_frequency`` (Hz).
        The incidence and exit media are both the substrate.
        """
        if not center_frequency > 0:
            raise ValueError("center frequency must be positive")
        normal = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(normal)
        if norm == 0:
            raise ValueError("stack normal must be nonzero")
        khat = normal / norm

        def longitudinal_speed(mat: MaterialSpec) -> float:
            return float(christoffel_many(mat, khat[None, :])[0][0, 2])

        def layer(mat: MaterialSpec) -> BraggLayer:
            v = longitudinal_speed(mat)
            return BraggLayer(
                name=mat.name,
                impedance=mat.rho * v,
                speed=v,
                thickness=v / (4 * center_frequency),
            )

        z_sub = substrate.rho * longitudinal_speed(substrate)
        return BraggStack(
            period=(layer(low), layer(high)),
            n_periods=n_periods,
            z_in=z_sub,
            z_out=z_sub,
        )


def transfer_matrix(stack: BraggStack, omega: float) -> np.ndarray:
    """Total 2x2 matrix taking (stress, velocity) across the stack.

    Each lossless layer contributes [[cos phi, i Z sin phi],
    [i sin phi / Z, cos phi]] with phi = omega d / v; the product is ordered
    so the matrix maps field values on the incidence face to the exit face.
    """
    if not omega > 0:
        raise ValueError("frequency must be positive")
    m = np.eye(2, dtype=complex)
    for layer in stack.layers:
        phi = omega * layer.thickness / layer.speed
        c, s = np.cos(phi), np.sin(phi)
        m = np.array([[c, 1j * layer.impedance * s], [1j * s / layer.impedance, c]]) @ m
    return m


def bragg_transmission(stack: BraggStack, omega: float) -> tuple[float, float]:
    """Power reflectance and transmittance (R, T) at normal incidence.

    Continuity of stress and particle velocity at every interface fixes the
    reflected and transmitted amplitudes; R and T are computed independently
    (T carries the impedance ratio of the outer media) so that R + T = 1 is a
    genuine check of losslessness rather than an identity.
    """
    m = transfer_matrix(stack, omega)
    a, b = m[0]
    c, d = m[1]
    p = a - stack.z_out * c
    s = (stack.z_out * d - b) / stack.z_in
    r = (s - p) / (s + p)
    t = a * (1 + r) + b * (1 - r) / stack.z_in
    reflectance = float(np.abs(r) ** 2)
    transmittance = float((stack.z_in / stack.z_out) * np.abs(t) ** 2)
    return reflectance, transmittance


def mitigated_rate(result: RadiationResult, transmittance: float) -> RadiationResult:
    """Rate behind the mirror: every branch scaled by the transmittance.

    ``transmittance`` is the mirror's T at the mode frequency, the second
    value of ``bragg_transmission(stack, result.omega0)``.  This is a
    one-dimensional normal-incidence approximation: the angular emission
    pattern is collapsed onto the stack normal and the whole rate is
    multiplied by T(omega0).  It captures the stopband trend, not the full
    angle-resolved mode-density modification.
    """
    branch_rates = np.asarray(result.branch_rates) * transmittance
    return _result(result.omega0, branch_rates, result.regime, result.diagnostics)
