"""Elastic and piezoelectric material tensors, rotations, and the material database.

Conventions used throughout the package:

* Voigt index pairs are ordered ``(11, 22, 33, 23, 13, 12)``.
* Stiffness ``C`` is the 6x6 Voigt matrix in Pa.  No engineering factors
  appear in stiffness entries.
* Strain vectors in Voigt form carry engineering shear, ``gamma = 2*eps``.
* The piezoelectric matrix ``d`` is the 3x6 strain form in m/V: the strain
  induced by a field ``E`` is ``S_voigt = d.T @ E`` with engineering shear
  components.  The equivalent third-rank tensor ``d_ijk`` (symmetric in jk)
  satisfies ``d[i, J] = d_ijk`` for normal J and ``d[i, J] = 2*d_ijk`` for
  shear J.
* Rotations map the crystal frame into the laboratory frame.  Stiffness
  rotates through the stress Bond matrix, ``C' = M C M^T``; the strain-form
  piezo matrix rotates as ``d' = R d N^T`` with the strain Bond matrix N.
  Both routes agree with the full-index tensor rotations
  ``c'_ijkl = R_ia R_jb R_kc R_ld c_abcd`` and ``d'_ijk = R_ia R_jb R_kc d_abc``.
* ``N = D M D^-1`` with ``D = diag(1, 1, 1, 2, 2, 2)``, but N's normal block
  ``R_ik^2`` is libm ``pow``: ``x * x`` misses it by an ulp in about 0.1% of
  entries, an ulp in every rate that ``oracle_check`` amplifies 1e4-fold.

All quantities are SI.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

# voigt index of the tensor pair (i, j)
VOIGT_OF_PAIR = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])

# tensor strain or d_ijk entry over its Voigt entry: 1/2 for engineering shear
_UNPACK_SHEAR = np.where(np.eye(3, dtype=bool), 1.0, 0.5)

_ORTHONORMALITY_TOL = 1e-12
_SYMMETRY_RTOL = 1e-9
_ISOTROPY_RTOL = 1e-9


class MaterialError(ValueError):
    """Raised for invalid material data or invalid rotations."""


class ParameterError(ValueError):
    """An input value out of range; ``parameter`` names the argument at fault.

    Raised by the constructors that take a run's values (``MicrowaveMode``,
    ``Inclusion``, ``EoModel``, ``QuadratureSpec`` and
    ``BraggStack.quarter_wave``), so a caller can name the input it came from.
    """

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants (CODATA).  Instances are read-only."""

    hbar: float = 1.054571817e-34  # J s
    eps0: float = 8.8541878128e-12  # F/m


CONSTANTS = PhysicalConstants()


def unit_vector(v, what: str, error: Callable[[str], ValueError] = ValueError) -> np.ndarray:
    """``v / np.linalg.norm(v)``, or ``error(message)`` naming ``what`` when
    that length is zero or not finite (a component past about 1e154
    overflows it), with no numpy warning."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        raise error(f"{what} must be finite and nonzero in length")
    return v / norm


def _as_matrix(x, shape, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise MaterialError(f"{what}: expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MaterialError(f"{what}: contains non-finite entries")
    return a


def _check_rotation(R) -> np.ndarray:
    R = _as_matrix(R, (3, 3), "rotation matrix")
    # an entry past 1 + tol fails either way; checked first, R.T @ R cannot overflow
    if np.abs(R).max() > 1 + _ORTHONORMALITY_TOL or np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHONORMALITY_TOL:
        raise MaterialError("rotation matrix is not orthonormal to 1e-12")
    if abs(np.linalg.det(R) - 1.0) > _ORTHONORMALITY_TOL:
        raise MaterialError("rotation matrix must be proper (det = +1)")
    return R


@dataclass(frozen=True)
class Orientation:
    """A proper rotation taking crystal-frame components into the lab frame."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        R = _check_rotation(self.matrix)
        R.setflags(write=False)
        object.__setattr__(self, "matrix", R)

    @staticmethod
    def identity() -> "Orientation":
        return Orientation(np.eye(3))

    @staticmethod
    def about_axis(axis, angle: float) -> "Orientation":
        """Right-handed rotation by ``angle`` (radians) about ``axis``."""
        n = unit_vector(axis, "rotation axis", MaterialError)
        K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
        R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
        return Orientation(R)

    def compose(self, other: "Orientation") -> "Orientation":
        """Rotation equivalent to applying ``other`` first, then ``self``."""
        return Orientation(self.matrix @ other.matrix)


def stiffness_voigt_to_tensor(C) -> np.ndarray:
    """Expand a 6x6 Voigt stiffness matrix to the full c_ijkl tensor."""
    C = _as_matrix(C, (6, 6), "stiffness")
    return C[VOIGT_OF_PAIR[:, :, None, None], VOIGT_OF_PAIR[None, None, :, :]]


def piezo_voigt_to_tensor(d) -> np.ndarray:
    """Expand the 3x6 strain-form d matrix to d_ijk (symmetric in jk).

    Engineering shear is unpacked here: shear columns are halved so that
    ``S_jk = d_ijk E_i`` holds for the tensor strain.
    """
    d = _as_matrix(d, (3, 6), "piezo matrix")
    # np.take: fancy indexing returns an F-ordered array, on which einsum picks another kernel and moves G by an ulp
    return np.take(d, VOIGT_OF_PAIR.ravel(), axis=1).reshape(3, 3, 3) * _UNPACK_SHEAR


def strain_voigt_to_tensor(s) -> np.ndarray:
    """Engineering-shear Voigt strain vector to the symmetric 3x3 tensor."""
    s = np.asarray(s, dtype=float)
    if s.shape != (6,):
        raise MaterialError(f"strain vector: expected shape (6,), got {s.shape}")
    return s[VOIGT_OF_PAIR] * _UNPACK_SHEAR


def _bond_stress(R: np.ndarray) -> np.ndarray:
    """6x6 Bond matrix M transforming Voigt stress vectors, T' = M T, of a
    rotation matrix that is already checked."""
    k, l = np.array(VOIGT_PAIRS).T  # column J is the pair (k, l), row I the pair (i, j)
    i, j = k[:, None], l[:, None]
    M = R[i, k] * R[j, l] + R[i, l] * R[j, k]
    M[:, :3] /= 2  # a normal column (k == l) added the same product twice
    return M


def _bond_strain(R: np.ndarray) -> np.ndarray:
    """6x6 Bond matrix N transforming engineering-shear strain vectors, of a
    rotation matrix that is already checked."""
    D = np.repeat([1.0, 2.0], 3)
    N = _bond_stress(R) * (D[:, None] / D)
    N[:3, :3] = np.float_power(R, 2)  # libm pow, not x * x: see the module docstring
    return N


def _rotation_of(R) -> np.ndarray:
    """The checked matrix of ``R``: an Orientation's was checked when it was made."""
    if isinstance(R, Orientation):
        return R.matrix
    return _check_rotation(R)


def rotate_stiffness(C, R) -> np.ndarray:
    """Rotate a Voigt stiffness matrix into the frame defined by ``R``."""
    C = _as_matrix(C, (6, 6), "stiffness")
    M = _bond_stress(_rotation_of(R))
    return M @ C @ M.T


def rotate_piezo(d, R) -> np.ndarray:
    """Rotate a 3x6 strain-form piezoelectric matrix by ``R``."""
    d = _as_matrix(d, (3, 6), "piezo matrix")
    Rm = _rotation_of(R)
    return Rm @ d @ _bond_strain(Rm).T


def rotate_permittivity(eps, R) -> np.ndarray:
    eps = _as_matrix(eps, (3, 3), "permittivity")
    Rm = _rotation_of(R)
    return Rm @ eps @ Rm.T


def isotropic_stiffness(lam: float, mu: float) -> np.ndarray:
    """Voigt stiffness of an isotropic solid with Lame parameters (Pa)."""
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[0, 0] = C[1, 1] = C[2, 2] = lam + 2 * mu
    C[3, 3] = C[4, 4] = C[5, 5] = mu
    return C


def is_isotropic_stiffness(C) -> bool:
    """True when C matches the isotropic pattern with C11 - C12 = 2 C44."""
    C = np.asarray(C, dtype=float)
    lam, mu = C[0, 1], C[3, 3]
    target = isotropic_stiffness(lam, mu)
    return bool(np.max(np.abs(C - target)) <= _ISOTROPY_RTOL * max(np.max(np.abs(C)), 1.0))


def _validate_spd(A: np.ndarray, what: str) -> None:
    scale = np.max(np.abs(A))
    if scale == 0 or np.max(np.abs(A - A.T)) > _SYMMETRY_RTOL * scale:
        raise MaterialError(f"{what} must be symmetric")
    if np.min(np.linalg.eigvalsh(A)) <= 0:
        raise MaterialError(f"{what} must be positive definite")


@dataclass(frozen=True)
class MaterialSpec:
    """Immutable description of one material.

    Parameters
    ----------
    name:
        Database key.
    rho:
        Mass density, kg/m^3.
    C:
        6x6 Voigt stiffness, Pa.  Symmetric positive definite.
    d:
        3x6 strain-form piezoelectric matrix, m/V.  All zero unless the
        material is flagged piezoelectric.
    eps_r:
        3x3 relative permittivity.  Symmetric positive definite.
    piezoelectric:
        Permits nonzero ``d``.
    """

    name: str
    rho: float
    C: np.ndarray
    d: np.ndarray
    eps_r: np.ndarray
    piezoelectric: bool = False

    def __post_init__(self):
        if not self.name:
            raise MaterialError("material name must be non-empty")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise MaterialError(f"material '{self.name}': density must be positive")
        C = _as_matrix(self.C, (6, 6), f"material '{self.name}': stiffness")
        d = _as_matrix(self.d, (3, 6), f"material '{self.name}': piezo matrix")
        eps = _as_matrix(self.eps_r, (3, 3), f"material '{self.name}': permittivity")
        try:
            _validate_spd(C, "stiffness")
            _validate_spd(eps, "relative permittivity")
        except MaterialError as exc:
            raise MaterialError(f"material '{self.name}': {exc}") from None
        # rho times a Christoffel entry, sum_jk c_ijkl n_j n_k for a unit n, and
        # each of its partial sums are at most 3 max|c_ijkl| <= 3 |c|, the root
        # sum of squares of the tensor entries, which no rotation changes
        scale = float(np.abs(C).max())
        bound = 3 * scale * float(np.linalg.norm(stiffness_voigt_to_tensor(C) / scale))
        if not bound / min(float(self.rho), 1.0) < np.inf:
            raise MaterialError(f"material '{self.name}': stiffness over density overflows the Christoffel matrix")
        if not self.piezoelectric and np.any(d != 0):
            raise MaterialError(
                f"material '{self.name}': nonzero piezo matrix requires the piezoelectric flag"
            )
        for a in (C, d, eps):
            a.setflags(write=False)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "eps_r", eps)

    @cached_property
    def stiffness_tensor(self) -> np.ndarray:
        c = stiffness_voigt_to_tensor(self.C)
        c.setflags(write=False)
        return c

    @cached_property
    def isotropic(self) -> bool:
        """Whether the stiffness has the isotropic pattern; computed from C alone."""
        return is_isotropic_stiffness(self.C)

    def lame(self) -> tuple[float, float]:
        """Lame parameters (lambda, mu) for an isotropic stiffness."""
        if not self.isotropic:
            raise MaterialError(f"material '{self.name}' is not isotropic")
        return float(self.C[0, 1]), float(self.C[3, 3])

    def rotated(self, orientation: Orientation) -> "MaterialSpec":
        """The same material expressed in a rotated frame."""
        return MaterialSpec(
            name=self.name,
            rho=self.rho,
            C=rotate_stiffness(self.C, orientation),
            d=rotate_piezo(self.d, orientation),
            eps_r=rotate_permittivity(self.eps_r, orientation),
            piezoelectric=self.piezoelectric,
        )


_RECORD_KEYS = {"name", "rho", "C", "d", "eps_r", "isotropic", "piezoelectric"}


def _record_to_spec(rec: dict, idx: int) -> MaterialSpec:
    if not isinstance(rec, dict):
        raise MaterialError(f"record {idx}: expected an object")
    label = rec.get("name", f"record {idx}")
    missing = {"name", "rho", "C", "d", "eps_r"} - rec.keys()
    if missing:
        raise MaterialError(f"material '{label}': missing keys {sorted(missing)}")
    unknown = rec.keys() - _RECORD_KEYS
    if unknown:
        raise MaterialError(f"material '{label}': unknown keys {sorted(unknown)}")

    shapes = {"C": (6, 6), "d": (3, 6), "eps_r": (3, 3)}
    for key, (rows, cols) in shapes.items():
        if not isinstance(rec[key], list) or len(rec[key]) != rows * cols:
            raise MaterialError(
                f"material '{label}': key '{key}' must be a flat row-major list of {rows * cols} numbers"
            )
    try:
        rho = float(rec["rho"])
        C, d, eps_r = (np.asarray(rec[key], dtype=float).reshape(shape) for key, shape in shapes.items())
    except (TypeError, ValueError, OverflowError):
        raise MaterialError(f"material '{label}': rho, C, d and eps_r must hold numbers only") from None
    piezo = bool(rec.get("piezoelectric", False))
    spec = MaterialSpec(name=str(rec["name"]), rho=rho, C=C, d=d, eps_r=eps_r, piezoelectric=piezo)
    if rec.get("isotropic") and not spec.isotropic:
        raise MaterialError(
            f"material '{spec.name}': flagged isotropic but stiffness violates "
            "C11 - C12 = 2*C44 (relative tolerance 1e-9)"
        )
    return spec


def load_materials(path) -> dict[str, MaterialSpec]:
    """Load a material database (JSON array of records) keyed by name."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise MaterialError(f"material database {path}: invalid JSON ({exc})") from None
    if not isinstance(raw, list):
        raise MaterialError(f"material database {path}: top level must be an array")
    db: dict[str, MaterialSpec] = {}
    for idx, rec in enumerate(raw):
        spec = _record_to_spec(rec, idx)
        if spec.name in db:
            raise MaterialError(f"material '{spec.name}': duplicate record")
        db[spec.name] = spec
    return db


def default_materials() -> dict[str, MaterialSpec]:
    """The database shipped with the package."""
    with resources.as_file(resources.files("phonoscat") / "data" / "materials.json") as p:
        return load_materials(p)
