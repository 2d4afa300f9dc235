"""Suppression of phonon radiation: pair interference and Bragg mirrors.

Two mitigation schemes share this module.  The first places a congruent copy
of an inclusion at the mirrored position with an inverted coupling sign, so
the two emission amplitudes interfere; in the long-wavelength limit the pair
radiates like a difference of dipoles and the rate falls as the square of the
separation.  For copies about the origin the real part of the coherent sum
cancels exactly (the imaginary part, for equal signs), so the engine's
coherent-sum kernel evaluates one phase part, sin or cos, per node for the
pair.  The second inserts a stack of alternating acoustic-impedance
quarter-wave layers between the source and the bulk, modelled by the standard
one-dimensional lossless transfer matrix at normal incidence.  Each layer's
2x2 matrix at a frequency is built once, by ``_layer_matrices``, which also
owns the check of the layer phase omega d / v: the command line calls it at
parse time, and every transfer matrix multiplies its result.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .coupling import Inclusion, MicrowaveMode
from .elastodynamics import christoffel_many
from .materials import MaterialSpec, unit_vector
from .radiation import NumericFailure, QuadratureSpec, RadiationResult, _rates, _require_nonzero

# How far R + T may miss 1 before bragg_transmission calls a mirror not lossless.
_LOSSLESS_ATOL = 1e-12


@dataclass(frozen=True)
class DualWaveguideResult:
    """Coherent two-inclusion rate next to its incoherent baseline.

    ``suppression_ratio`` is Gamma_pair / (2 Gamma_single): the coherent pair
    rate relative to two independent copies.  ``q_gain`` is its inverse, the
    quality-factor gain interference buys over the incoherent pair (infinite
    for exact cancellation).  A zero single rate raises NumericFailure.
    """

    pair: RadiationResult
    single: RadiationResult
    separation: np.ndarray
    relative_sign: int

    def __post_init__(self):
        _require_nonzero(
            self.single.total_rate, "the single-inclusion rate", "the suppression ratio is undefined"
        )
        sep = np.asarray(self.separation, dtype=float)
        sep.setflags(write=False)
        object.__setattr__(self, "separation", sep)

    @property
    def suppression_ratio(self) -> float:
        return self.pair.total_rate / (2 * self.single.total_rate)

    @property
    def q_gain(self) -> float:
        ratio = self.suppression_ratio
        return np.inf if ratio == 0 else 1.0 / ratio


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
    computed once and shared by all results.  The baseline and the pairs go
    to ``_rates`` as one list, baseline first: the two copies have the
    strain and the dimensions of ``inclusion``, so every point reads the
    baseline's couplings and sinc columns.  Each rate is converged and the
    baseline is not zero, or NumericFailure.
    """
    if relative_sign not in (1, -1):
        raise ValueError("relative_sign must be +1 or -1")
    seps = [np.asarray(s, dtype=float) for s in separations]
    for sep in seps:
        _check_pair_geometry(inclusion.dimensions, sep)
    points = [(mode, [inclusion])]
    for sep in seps:
        first = dataclasses.replace(inclusion, center=inclusion.center + sep / 2)
        second = dataclasses.replace(
            inclusion,
            center=inclusion.center - sep / 2,
            sign=inclusion.sign * relative_sign,
        )
        points.append((mode, [first, second]))
    single, *pairs = _rates(substrate, points, quad)
    return tuple(DualWaveguideResult(pair, single, sep, relative_sign) for sep, pair in zip(seps, pairs))


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
        if not all(0 < x < np.inf for x in (self.impedance, self.speed, self.thickness)):
            raise ValueError(f"layer '{self.name}': impedance, speed and thickness must be positive and finite")


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
        if not 0 < center_frequency < np.inf:
            raise ValueError("center frequency must be positive and finite")
        khat = unit_vector(normal, "stack normal")

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

    Each lossless layer contributes its ``_layer_matrices`` entry; the
    product is ordered so the matrix maps field values on the incidence face
    to the exit face.  A frequency that is not positive, or a layer phase
    that overflows, raises ValueError; a product that overflows raises
    NumericFailure.
    """
    return next(_transfer_matrices(stack, omega, [stack.n_periods]))


def _layer_matrices(stack: BraggStack, omega: float) -> list[np.ndarray]:
    """The 2x2 matrix [[cos phi, i Z sin phi], [i sin phi / Z, cos phi]] of
    each layer of one period at ``omega`` (rad/s), with phi = omega d / v.

    A frequency that is not positive raises ValueError, and so does a phase
    that overflows although the thickness is finite, naming the layer.
    """
    if not omega > 0:
        raise ValueError("frequency must be positive")
    matrices = []
    for layer in stack.period:
        phi = omega * layer.thickness / layer.speed
        if not phi < np.inf:
            raise ValueError(f"layer '{layer.name}': phase omega d / v overflows at omega = {omega:g} rad/s")
        c, s = np.cos(phi), np.sin(phi)
        matrices.append(np.array([[c, 1j * layer.impedance * s], [1j * s / layer.impedance, c]]))
    return matrices


def _transfer_matrices(stack: BraggStack, omega: float, counts):
    """Yield ``transfer_matrix`` of the stack at each period count, in order.

    The layer matrices are built once.  One running product over the
    sorted distinct counts: the matrix at n periods continues the product at
    the previous count with the same ``L @ m`` products in the same order as
    a product built for n alone, so each matrix is the same bit for bit, and
    a sweep over N counts costs O(N) layer products, not O(N^2).  The
    ``_layer_matrices`` ValueError comes first; a product that overflows
    raises NumericFailure when its count is reached in ``counts``.
    """
    products = {}
    m = np.eye(2, dtype=complex)
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        layers = _layer_matrices(stack, omega)
        for n in sorted(set(counts)):
            for layer in layers * (n - done):
                m = layer @ m
            products[n], done = m, n
    for n in counts:
        if not np.all(np.isfinite(products[n])):
            raise NumericFailure(f"the mirror's transfer matrix overflows at {n} periods")
        yield products[n]


def bragg_transmission(stack: BraggStack, omega: float) -> tuple[float, float]:
    """Power reflectance and transmittance (R, T) at normal incidence.

    Continuity of stress and particle velocity at every interface fixes the
    reflected and transmitted amplitudes.  A lossless stack has det M = 1, so
    ``t = 2 z_out / (z_in (s + p))`` does not cancel deep in a stopband, where
    the entries of M grow exponentially with the period count.  R and T are
    computed independently, so an (R, T) whose sum misses 1 by more than
    ``_LOSSLESS_ATOL`` raises NumericFailure, and so does a T below the
    smallest normal double (from about 430 periods of silicon/sapphire).
    """
    return _reflectance_transmittance(stack, transfer_matrix(stack, omega))


def _bragg_sweep(stack: BraggStack, omega: float, counts):
    """Yield ``bragg_transmission`` of the stack at each period count, in order.

    The stack's own ``n_periods`` is ignored.  Every count is checked as a
    stack's ``n_periods`` before any product is built.  The transfer matrices
    come from one running product over the counts, so each (R, T) is the same
    bit for bit as a ``bragg_transmission`` call for that count alone, and
    each count raises what that call would raise, when it is reached.
    """
    stacks = [dataclasses.replace(stack, n_periods=n) for n in counts]
    for one, m in zip(stacks, _transfer_matrices(stack, omega, [one.n_periods for one in stacks])):
        yield _reflectance_transmittance(one, m)


def _reflectance_transmittance(stack: BraggStack, m: np.ndarray) -> tuple[float, float]:
    """(R, T) of the stack from its transfer matrix, checked as ``bragg_transmission`` says."""
    a, b = m[0]
    c, d = m[1]
    with np.errstate(over="ignore", invalid="ignore"):
        p = a - stack.z_out * c
        s = (stack.z_out * d - b) / stack.z_in
        r = (s - p) / (s + p)
        t = 2 * stack.z_out / (stack.z_in * (s + p))
        reflectance = float(np.abs(r) ** 2)
        transmittance = float((stack.z_in / stack.z_out) * np.abs(t) ** 2)
    if not transmittance >= np.finfo(float).tiny:
        raise NumericFailure(f"the mirror's transmittance underflows at {stack.n_periods} periods")
    miss = abs(reflectance + transmittance - 1.0)
    if not miss <= _LOSSLESS_ATOL:
        raise NumericFailure(f"the mirror's R + T misses 1 by {miss:.2g} at {stack.n_periods} periods")
    return reflectance, transmittance


def mitigated_rate(result: RadiationResult, transmittance: float) -> RadiationResult:
    """Rate behind the mirror: every branch scaled by the transmittance.

    ``transmittance`` is the mirror's T at the mode frequency, the second
    value of ``bragg_transmission(stack, result.omega0)``.  This is a
    one-dimensional normal-incidence approximation: the angular emission
    pattern is collapsed onto the stack normal and the whole rate is
    multiplied by T(omega0).  It captures the stopband trend, not the full
    angle-resolved mode-density modification.  A Q that overflows raises NumericFailure.
    """
    mitigated = dataclasses.replace(result, branch_rates=result.branch_rates * transmittance)
    if result.total_rate > 0 and mitigated.q_factor == np.inf:
        raise NumericFailure(f"the rate behind the mirror underflows at T = {transmittance:.3g}")
    return mitigated
