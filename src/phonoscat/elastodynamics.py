"""Bulk acoustic plane waves of an anisotropic elastic medium.

The Christoffel matrix for a propagation direction ``khat`` is
``Gamma_il = c_ijkl khat_j khat_k / rho``; its eigenvalues are the squared
phase velocities of the three branches and its eigenvectors their
polarizations.  Branches are indexed 1..3 in ascending phase velocity, so
branch 3 is the (quasi-)longitudinal one.  Dispersion is linear,
``Omega_q(k) = v_q(khat) |k|``.

The quadrature engine needs the Christoffel solution at every node of an
angular grid, and that solution depends only on the substrate and the grid.
``angular_table`` solves it once per (substrate, n_theta, n_phi) and keeps the
read-only result on the ``MaterialSpec`` instance, so its lifetime is the
substrate object's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import MaterialSpec

# Fixed span of one batched solve when a table is built, so a node's
# arithmetic does not depend on the size of the grid it belongs to.
_CHUNK = 2048


class MaterialInstabilityError(ValueError):
    """Christoffel matrix not positive definite: the medium is unstable."""


def christoffel_many(material: MaterialSpec, khats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Christoffel solve.

    Parameters
    ----------
    khats:
        (N, 3) array of unit propagation directions.

    Returns
    -------
    velocities:
        (N, 3) phase velocities, ascending.
    polarizations:
        (N, 3, 3) with ``polarizations[n, :, q]`` the unit polarization of
        branch q.  Within a degenerate pair any orthonormal basis of the
        degenerate plane may be returned; complete branch sums do not depend
        on the choice.
    """
    khats = np.asarray(khats, dtype=float)
    G = np.einsum("ijkl,nj,nk->nil", material.stiffness_tensor, khats, khats) / material.rho
    w, vec = np.linalg.eigh(G)
    if np.min(w) <= 0:
        raise MaterialInstabilityError(
            f"material '{material.name}': non-positive Christoffel eigenvalue"
        )
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


def _build_table(material: MaterialSpec, n_theta: int, n_phi: int) -> AngularTable:
    khats, weights = _angular_grid(n_theta, n_phi)
    n = khats.shape[0]
    velocities = np.empty((n, 3))
    polarizations = np.empty((n, 3, 3))
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        velocities[a:b], polarizations[a:b] = christoffel_many(material, khats[a:b])
    for arr in (khats, weights, velocities, polarizations):
        arr.setflags(write=False)
    return AngularTable(khats, weights, velocities, polarizations)


def angular_table(material: MaterialSpec, n_theta: int, n_phi: int) -> AngularTable:
    """The Christoffel solution of ``material`` on the n_theta x n_phi grid.

    Solved once per grid and memoized on the material instance; a copy made
    by ``MaterialSpec.rotated`` (or any other constructor call) starts with
    no tables.
    """
    tables = material.angular_tables
    table = tables.get((n_theta, n_phi))
    if table is None:
        # setdefault is atomic: threads that race on a first use may both
        # solve, but all of them get the one table that is stored
        table = tables.setdefault((n_theta, n_phi), _build_table(material, n_theta, n_phi))
    return table


def stress_pattern(stiffness_tensor: np.ndarray, khats: np.ndarray, pols: np.ndarray) -> np.ndarray:
    """Stress per unit (i k u0) at each node: tau_nij = c_ijkl khat_nk e_nl, shape (n, 3, 3).

    ``khats`` and ``pols`` are (n, 3): the propagation directions and one
    branch's polarizations.  Each tau_n is symmetric.
    """
    return np.einsum("ijkl,nk,nl->nij", stiffness_tensor, khats, pols)
