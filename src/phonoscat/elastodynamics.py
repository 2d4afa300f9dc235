"""Bulk acoustic plane waves of an anisotropic elastic medium.

The Christoffel matrix for a propagation direction ``khat`` is
``Gamma_il = c_ijkl khat_j khat_k / rho``; its eigenvalues are the squared
phase velocities of the three branches and its eigenvectors their
polarizations.  Branches are indexed 1..3 in ascending phase velocity, so
branch 3 is the (quasi-)longitudinal one.  Dispersion is linear,
``Omega_q(k) = v_q(khat) |k|``.

The quadrature engine needs the Christoffel solution at every node of an
angular grid, and the stress pattern ``tau_q(n) = c : (khat_n e_qn)`` of each
branch there; both depend only on the substrate and the grid.
``angular_table`` solves them once per (substrate, n_theta, n_phi) and keeps
the read-only result on the ``MaterialSpec`` instance, so its lifetime is the
substrate object's.  The polarizations are a build-time intermediate: the
table keeps the velocities and the six unique components of each tau.

The build fills the Christoffel matrices and the Voigt stresses with
component-major kernels, one elementwise pass per (j, k) or (k, l) term, that
repeat einsum's float operations in einsum's order.  ``stress_pattern``, the
einsum form, is the stress of the brute-force oracle, so the oracle shares no
stress code with the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import VOIGT_OF_PAIR, VOIGT_PAIRS, MaterialSpec

# Span of one batched solve when a table is built.  A node's arithmetic is
# elementwise, so the span only bounds the build's temporaries.
_CHUNK = 2048

# The (i, j) of the six unique components of a symmetric 3x3 tensor in the
# package's Voigt order, and the Voigt column of each of the nine (i, j) in
# row-major order.  (_VOIGT_J, _VOIGT_I) walks the lower triangle, i >= j.
_VOIGT_I, _VOIGT_J = np.array(VOIGT_PAIRS).T
_FULL = VOIGT_OF_PAIR.ravel()


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

    The float operations and their order are einsum's, so every table, rate
    and CSV is bit for bit what the einsum form gives.  That order is fixed
    on purpose: the golden guard compares the studies at rtol 1e-12, and
    ``oracle_check``'s ``rel_deviation``, the difference of two rates that
    agree to about 1e-4, amplifies an ulp of a rate about 1e4-fold.
    """
    khats = np.asarray(khats, dtype=float)
    kt = np.ascontiguousarray(khats.T)
    # row v accumulates the lower-triangle entry G[J_v, I_v], the one eigh
    # reads, as einsum("ijkl,nj,nk->nil") does: (c_ijkl khat_j) khat_k added
    # to zero in (j, k) row-major order
    coef = material.stiffness_tensor[_VOIGT_J, :, :, _VOIGT_I][..., None]
    acc = np.zeros((6, kt.shape[1]))
    term = np.empty_like(acc)
    for j in range(3):
        for k in range(3):
            np.multiply(coef[:, j, k], kt[j], out=term)
            term *= kt[k]
            acc += term
    acc /= material.rho
    w, vec = np.linalg.eigh(np.take(acc.T, _FULL, axis=1).reshape(-1, 3, 3))
    if np.min(w) <= 0:
        raise MaterialInstabilityError(
            f"material '{material.name}': non-positive Christoffel eigenvalue"
        )
    return np.sqrt(w), vec


@dataclass(frozen=True)
class AngularTable:
    """Christoffel solution and stress pattern of one substrate on one
    angular quadrature grid.

    Nodes follow the theta-major order of the Gauss-Legendre x uniform grid.
    All arrays are read-only.
    """

    khats: np.ndarray  # (N, 3) unit propagation directions
    weights: np.ndarray  # (N,) solid-angle weights, summing to 4 pi
    velocities: np.ndarray  # (N, 3) phase velocities, ascending
    stresses: np.ndarray  # (3, N, 6), [q, n] the Voigt tau of branch q at node n

    def stress(self, q: int, a: int = 0, b: int | None = None) -> np.ndarray:
        """The (n, 3, 3) C-contiguous stress pattern tau of branch q on nodes a:b."""
        # np.take, not fancy indexing: [:, _FULL] returns an F-ordered array,
        # on which einsum picks another kernel and moves results by an ulp
        return np.take(self.stresses[q, a:b], _FULL, axis=1).reshape(-1, 3, 3)


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
    stresses = np.empty((3, n, 6))
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        velocities[a:b], pols = christoffel_many(material, khats[a:b])
        stresses[:, a:b] = _voigt_stresses(material.stiffness_tensor, khats[a:b], pols)
    for arr in (khats, weights, velocities, stresses):
        arr.setflags(write=False)
    return AngularTable(khats, weights, velocities, stresses)


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
    branch's polarizations.  Each tau_n is symmetric.  This einsum form is the
    brute-force oracle's stress and the reference of ``_voigt_stresses``.
    """
    return np.einsum("ijkl,nk,nl->nij", stiffness_tensor, khats, pols)


def _voigt_stresses(stiffness_tensor: np.ndarray, khats: np.ndarray, pols: np.ndarray) -> np.ndarray:
    """The stress pattern of all three branches in Voigt form, a (3, n, 6) view.

    ``pols`` is (n, 3, 3) as ``christoffel_many`` returns it.  tau is
    symmetric bit for bit (c_ijkl == c_jikl), so the six columns hold all of
    it.  Each component is ``stress_pattern``'s einsum sum, bit for bit and
    for the reason ``christoffel_many`` gives: (c_ijkl khat_k) e_l added to
    zero in (k, l) row-major order.  The product c_ijkl khat_k is shared by
    the three branches.
    """
    kt = np.ascontiguousarray(khats.T)
    e = np.ascontiguousarray(pols.transpose(2, 1, 0))  # e[q, l]: component l of branch q
    coef = stiffness_tensor[_VOIGT_I, _VOIGT_J][..., None]
    acc = np.zeros((3, 6, kt.shape[1]))
    ck = np.empty((6, kt.shape[1]))
    term = np.empty_like(acc)
    for k in range(3):
        for l in range(3):
            np.multiply(coef[:, k, l], kt[k], out=ck)
            np.multiply(ck, e[:, l, None], out=term)
            acc += term
    return acc.transpose(0, 2, 1)
