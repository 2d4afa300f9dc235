"""Piezoelectric coupling between a microwave mode and cuboid inclusions.

A uniform microwave field of zero-point amplitude
``E_zp = sqrt(hbar omega0 / (2 eps0 eps_eff V_E))`` induces the static strain
``S = d . E`` inside a piezoelectric inclusion.  The coupling amplitude to a
phonon plane wave is the overlap of that strain with the mode's zero-point
stress over the inclusion volume:

    hbar g = V_int (S : T_zp) * FF(k)

The cuboid faces are aligned with the laboratory axes; the ``orientation``
field of an inclusion rotates its crystal tensors (the piezo matrix) into the
lab frame and leaves the geometry untouched.  The form factor of a cuboid is
separable, ``FF(k) = s * e^{i k . r0} * prod_i sinc(k_i L_i / 2)``;
``radiation._coherent_power`` evaluates it at the quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .materials import (
    CONSTANTS, MaterialSpec, Orientation, ParameterError, piezo_voigt_to_tensor, rotate_piezo,
    strain_voigt_to_tensor, unit_vector,
)


@dataclass(frozen=True)
class MicrowaveMode:
    """Uniform-field model of the microwave mode near the inclusions."""

    omega0: float  # rad/s
    mode_volume: float  # m^3 (V_E)
    field_direction: np.ndarray  # unit vector of E
    eps_eff: float  # effective relative permittivity

    def __post_init__(self):
        if not 0 < self.omega0 < np.inf:
            raise ParameterError("omega0", "mode frequency must be positive and finite")
        if not 0 < self.mode_volume < np.inf:
            raise ParameterError("mode_volume", "mode volume must be positive and finite")
        if not 0 < self.eps_eff < np.inf:
            raise ParameterError("eps_eff", "effective permittivity must be positive and finite")
        e = unit_vector(self.field_direction, "field direction", partial(ParameterError, "field_direction"))
        e.setflags(write=False)
        object.__setattr__(self, "field_direction", e)
        denominator = 2 * CONSTANTS.eps0 * self.eps_eff * self.mode_volume  # may underflow to zero
        if not (denominator > 0 and np.isfinite(self.field_zp)):
            # blame the permittivity when its factor 2 eps0 eps_eff alone leaves the normal range
            if not 2 * CONSTANTS.eps0 * self.eps_eff >= np.finfo(float).tiny:
                culprit, what = "eps_eff", f"effective permittivity {self.eps_eff:.3g}"
            else:
                culprit, what = "mode_volume", f"mode volume {self.mode_volume:.3g} m^3"
            raise ParameterError(culprit, f"{what} is too small for a finite zero-point field")

    @property
    def field_zp(self) -> float:
        """Zero-point field amplitude E_zp, V/m."""
        return np.sqrt(
            CONSTANTS.hbar * self.omega0 / (2 * CONSTANTS.eps0 * self.eps_eff * self.mode_volume)
        )


def default_eps_eff(substrate: MaterialSpec) -> float:
    """Default effective permittivity: substrate average of the diagonal."""
    return float(np.mean(np.diag(substrate.eps_r)))


@dataclass(frozen=True)
class Inclusion:
    """Axis-aligned piezoelectric cuboid embedded in the substrate.

    ``dimensions`` are the edge lengths (Lx, Ly, Lz) in meters, ``center`` the
    cuboid center r0.  ``sign`` flips the coupling amplitude as a whole and
    models an inverted crystal orientation in interference arrangements.
    """

    dimensions: np.ndarray
    center: np.ndarray
    material: MaterialSpec
    orientation: Orientation = field(default_factory=Orientation.identity)
    sign: int = 1

    def __post_init__(self):
        L = np.asarray(self.dimensions, dtype=float)
        r0 = np.asarray(self.center, dtype=float)
        if L.shape != (3,) or not np.all((L > 0) & (L < np.inf)):
            raise ParameterError("dimensions", "inclusion dimensions must be three positive finite lengths")
        volume = math.prod(L.tolist())  # Python floats: no warning when it leaves the float range
        if not volume < math.inf:
            raise ParameterError("dimensions", "inclusion volume must be finite")
        if not volume > 0:
            raise ParameterError("dimensions", "inclusion volume underflows to 0 m^3")
        if r0.shape != (3,) or not np.all(np.isfinite(r0)):
            raise ParameterError("center", "inclusion center must be a finite 3-vector")
        if self.sign not in (1, -1):
            raise ParameterError("sign", "inclusion sign must be +1 or -1")
        for a in (L, r0):
            a.setflags(write=False)
        object.__setattr__(self, "dimensions", L)
        object.__setattr__(self, "center", r0)

    @property
    def volume(self) -> float:
        return float(np.prod(self.dimensions))

    @cached_property
    def d_lab(self) -> np.ndarray:
        """Strain-form piezo matrix rotated into the laboratory frame."""
        d = rotate_piezo(self.material.d, self.orientation)
        d.setflags(write=False)
        return d


def induced_strain(d: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Strain tensor induced by a field, honoring engineering shear.

    ``d`` is the 3x6 strain-form piezo matrix; the Voigt strain is
    ``S_voigt = d.T @ E`` and is returned as the symmetric 3x3 tensor.
    """
    s_voigt = np.asarray(d, dtype=float).T @ np.asarray(E, dtype=float)
    return strain_voigt_to_tensor(s_voigt)


def geometry_factor(field_direction, d, stress_directions) -> float | np.ndarray:
    """Normalized tensor alignment G in [0, 1].

    ``G = |e_E . d : T_hat|^2 / |d|_F^2`` with ``e_E`` and the stress
    direction normalized (Frobenius for the stress).  G = 1 when the piezo
    tensor is a single entry perfectly aligned with field and stress; G = 0
    for orthogonal arrangements or a vanishing piezo tensor.

    ``stress_directions`` is one 3x3 stress or a stack of shape (..., 3, 3),
    and G has the stack's leading shape: a scalar for a single stress.
    """
    e = unit_vector(field_direction, "field direction")
    dt = piezo_voigt_to_tensor(d)
    T = np.asarray(stress_directions, dtype=float)
    return _alignment(e, dt, T, _stress_norms(T))


def _stress_norms(T: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each 3x3 stress of a (..., 3, 3) stack, or
    ValueError when one is zero."""
    Tn = np.sqrt(np.sum(T * T, axis=(-2, -1)))
    if np.any(Tn == 0):
        raise ValueError("stress direction must be nonzero")
    return Tn


def _alignment(e: np.ndarray, dt: np.ndarray, T: np.ndarray, Tn: np.ndarray) -> float | np.ndarray:
    """``geometry_factor``'s G of the unit field ``e`` and the d_ijk tensor
    ``dt`` over the stress stack ``T`` of norms ``Tn`` (``_stress_norms``)."""
    dn2 = float(np.sum(dt * dt))
    num = np.einsum("i,ijk,...jk->...", e, dt, T) / Tn
    return num * num / dn2 if dn2 else 0.0 * num
