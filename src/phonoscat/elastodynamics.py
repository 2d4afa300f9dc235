"""Bulk acoustic plane waves of an anisotropic elastic medium.

The Christoffel matrix for a propagation direction ``khat`` is
``Gamma_il = c_ijkl khat_j khat_k / rho``; its eigenvalues are the squared
phase velocities of the three branches and its eigenvectors their
polarizations.  Branches are indexed 1..3 in ascending phase velocity, so
branch 3 is the (quasi-)longitudinal one.  Dispersion is linear,
``Omega_q(k) = v_q(khat) |k|``, and the group velocity follows analytically
from the eigenpair:

    v_g,m = e_i c_imkl khat_k e_l / (rho v_q)

which satisfies the homogeneity relation ``v_g . khat = v_q`` exactly.

The quadrature engine needs the Christoffel solution at every node of an
angular grid, and that solution depends only on the substrate and the grid.
``angular_table`` solves it once per (substrate, n_theta, n_phi) and keeps the
read-only result on the ``MaterialSpec`` instance, so its lifetime is the
substrate object's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import CONSTANTS, MaterialSpec

_DEGENERACY_RTOL = 1e-8

# Fixed span of one batched solve when a table is built, so a node's
# arithmetic does not depend on the size of the grid it belongs to.
_CHUNK = 2048


class MaterialInstabilityError(ValueError):
    """Christoffel matrix not positive definite: the medium is unstable."""


@dataclass(frozen=True)
class AcousticBranch:
    """One acoustic branch at a fixed propagation direction."""

    direction: np.ndarray
    branch: int  # 1, 2, 3 in ascending phase velocity
    phase_velocity: float  # m/s
    polarization: np.ndarray  # unit vector
    group_velocity: np.ndarray  # m/s, analytic


@dataclass(frozen=True)
class PhononPlaneWave:
    """Zero-point amplitude data of one phonon mode in quantization volume V_T."""

    wavevector: np.ndarray
    branch: int
    quantization_volume: float
    omega: float
    phase_velocity: float
    polarization: np.ndarray
    displacement_zp: float  # u0 = sqrt(hbar / (2 rho Omega V_T))
    stress_zp: np.ndarray  # complex 3x3, phase +i from the e^{ik.r} strain


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("direction vector must be nonzero")
    return v / n


def christoffel_matrix(material: MaterialSpec, khat) -> np.ndarray:
    khat = _unit(khat)
    return np.einsum("ijkl,j,k->il", material.stiffness_tensor, khat, khat) / material.rho


def christoffel_many(
    material: MaterialSpec,
    khats: np.ndarray,
    degenerate_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Christoffel solve.

    Parameters
    ----------
    khats:
        (N, 3) array of unit propagation directions.
    degenerate_rng:
        Testing hook.  When given, polarization pairs belonging to
        degenerate eigenvalues are remixed by a random in-plane rotation;
        complete branch sums must not change.

    Returns
    -------
    velocities:
        (N, 3) phase velocities, ascending.
    polarizations:
        (N, 3, 3) with ``polarizations[n, :, q]`` the unit polarization of
        branch q.
    """
    khats = np.asarray(khats, dtype=float)
    G = np.einsum("ijkl,nj,nk->nil", material.stiffness_tensor, khats, khats) / material.rho
    w, vec = np.linalg.eigh(G)
    if np.min(w) <= 0:
        raise MaterialInstabilityError(
            f"material '{material.name}': non-positive Christoffel eigenvalue"
        )
    if degenerate_rng is not None:
        scale = w[:, 2]
        for a, b in ((0, 1), (1, 2)):
            mask = np.abs(w[:, b] - w[:, a]) <= _DEGENERACY_RTOL * scale
            if np.any(mask):
                ang = degenerate_rng.uniform(0, 2 * np.pi, size=int(np.sum(mask)))
                ca, sa = np.cos(ang), np.sin(ang)
                va = vec[mask, :, a].copy()
                vb = vec[mask, :, b].copy()
                vec[mask, :, a] = ca[:, None] * va + sa[:, None] * vb
                vec[mask, :, b] = -sa[:, None] * va + ca[:, None] * vb
    return np.sqrt(w), vec


@dataclass(frozen=True)
class AngularTable:
    """Christoffel solution of one substrate on one angular quadrature grid.

    Nodes follow the theta-major order of the Gauss-Legendre x uniform grid.
    All arrays are read-only.
    """

    khats: np.ndarray  # (N, 3) unit propagation directions
    weights: np.ndarray  # (N,) solid-angle weights, summing to 4 pi
    velocities: np.ndarray  # (N, 3) phase velocities, ascending
    polarizations: np.ndarray  # (N, 3, 3), [n, :, q] the polarization of branch q


def _angular_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre x uniform product grid; theta-major fixed node order."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - x * x)
    kx = st[:, None] * np.cos(phi)[None, :]
    ky = st[:, None] * np.sin(phi)[None, :]
    kz = np.broadcast_to(x[:, None], kx.shape)
    khats = np.stack([kx, ky, kz], axis=-1).reshape(-1, 3)
    weights = np.repeat(w, n_phi) * (2 * np.pi / n_phi)
    return khats, weights


def _build_table(
    material: MaterialSpec, n_theta: int, n_phi: int, degenerate_rng
) -> AngularTable:
    khats, weights = _angular_grid(n_theta, n_phi)
    n = khats.shape[0]
    velocities = np.empty((n, 3))
    polarizations = np.empty((n, 3, 3))
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        velocities[a:b], polarizations[a:b] = christoffel_many(
            material, khats[a:b], degenerate_rng
        )
    for arr in (khats, weights, velocities, polarizations):
        arr.setflags(write=False)
    return AngularTable(khats, weights, velocities, polarizations)


def angular_table(
    material: MaterialSpec,
    n_theta: int,
    n_phi: int,
    degenerate_rng: np.random.Generator | None = None,
) -> AngularTable:
    """The Christoffel solution of ``material`` on the n_theta x n_phi grid.

    Solved once per grid and memoized on the material instance; a copy made
    by ``MaterialSpec.rotated`` (or any other constructor call) starts with
    no tables.  With ``degenerate_rng`` (the remixing testing hook of
    ``christoffel_many``) a fresh table is built and nothing is memoized.
    """
    if degenerate_rng is not None:
        return _build_table(material, n_theta, n_phi, degenerate_rng)
    tables = material.angular_tables
    table = tables.get((n_theta, n_phi))
    if table is None:
        # setdefault is atomic: threads that race on a first use may both
        # solve, but all of them get the one table that is stored
        table = tables.setdefault((n_theta, n_phi), _build_table(material, n_theta, n_phi, None))
    return table


def group_velocity(material: MaterialSpec, khat, polarization, phase_velocity) -> np.ndarray:
    e = np.asarray(polarization, dtype=float)
    return np.einsum(
        "i,imkl,k,l->m", e, material.stiffness_tensor, np.asarray(khat, float), e
    ) / (material.rho * phase_velocity)


def christoffel(material: MaterialSpec, khat) -> tuple[AcousticBranch, AcousticBranch, AcousticBranch]:
    """Solve the Christoffel problem at one direction.

    Returns the three branches sorted by ascending phase velocity.  For
    degenerate shear branches any orthonormal basis of the degenerate plane
    may be returned; complete branch sums are basis independent.
    """
    khat = _unit(khat)
    vels, pols = christoffel_many(material, khat[None, :])
    out = []
    for q in range(3):
        v = float(vels[0, q])
        e = pols[0, :, q].copy()
        vg = group_velocity(material, khat, e, v)
        for a in (e, vg):
            a.setflags(write=False)
        d = khat.copy()
        d.setflags(write=False)
        out.append(
            AcousticBranch(
                direction=d,
                branch=q + 1,
                phase_velocity=v,
                polarization=e,
                group_velocity=vg,
            )
        )
    return tuple(out)


def stress_pattern(stiffness_tensor: np.ndarray, khat: np.ndarray, polarization: np.ndarray) -> np.ndarray:
    """Stress per unit (i k u0): tau_ij = c_ijkl khat_k e_l, symmetric."""
    return np.einsum("ijkl,k,l->ij", stiffness_tensor, khat, polarization)


def zero_point_stress(
    material: MaterialSpec, k, branch: int, quantization_volume: float
) -> PhononPlaneWave:
    """Zero-point stress amplitude T_zp = C : S_zp of one phonon mode.

    The mode displacement is ``u0 e_q e^{ik.r}`` with
    ``u0 = sqrt(hbar / (2 rho Omega V_T))``; the resulting strain amplitude is
    ``S_ij = i (k_i u0 e_j + k_j u0 e_i) / 2``, so the returned stress carries
    the +i phase.  The plane-wave spatial phase ``e^{ik.r}`` is not included
    here; the coupling form factor carries it.
    """
    if branch not in (1, 2, 3):
        raise ValueError(f"branch must be 1, 2 or 3, got {branch}")
    if not quantization_volume > 0:
        raise ValueError("quantization volume must be positive")
    k = np.asarray(k, dtype=float)
    kmag = np.linalg.norm(k)
    if kmag == 0:
        raise ValueError("wave vector must be nonzero")
    khat = k / kmag
    b = christoffel(material, khat)[branch - 1]
    omega = b.phase_velocity * kmag
    u0 = np.sqrt(CONSTANTS.hbar / (2 * material.rho * omega * quantization_volume))
    tau = stress_pattern(material.stiffness_tensor, khat, b.polarization)
    stress = 1j * kmag * u0 * tau
    for a in (k, stress):
        a.setflags(write=False)
    return PhononPlaneWave(
        wavevector=k,
        branch=branch,
        quantization_volume=quantization_volume,
        omega=omega,
        phase_velocity=b.phase_velocity,
        polarization=b.polarization,
        displacement_zp=float(u0),
        stress_zp=stress,
    )
