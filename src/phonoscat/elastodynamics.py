"""Bulk acoustic plane waves of an anisotropic elastic medium.

The Christoffel matrix for a propagation direction ``khat`` is
``Gamma_il = c_ijkl khat_j khat_k / rho``; its eigenvalues are the squared
phase velocities of the three branches and its eigenvectors their
polarizations.  Branches are indexed 1..3 in ascending phase velocity, so
branch 3 is the (quasi-)longitudinal one.  Dispersion is linear,
``Omega_q(k) = v_q(khat) |k|``.

The quadrature engine needs the Christoffel solution at every node of an
angular grid, and the stress pattern ``tau_q(n) = c : (khat_n e_qn)`` of each
branch there; both depend only on the substrate's density and stiffness and
on the grid.  ``_TABLES`` is the one memo of such solved grids, a read-only
``AngularTable`` each: ``angular_table`` keeps the engine's under
(rho, C, n_theta, n_phi), and ``radiation._oracle_table`` the brute-force
oracle's under (rho, C, "oracle").  Every ``MaterialSpec`` with the same
physics shares them, however it was loaded.  Nothing is evicted: the memo
grows by one table per distinct key for the life of the process.  A table
keeps the velocities as (3, N) rows and each tau as the C-ordered 3x3 that
M = tau : S and G read (polarizations are a build-time intermediate): 240
bytes per node per substrate, about 2.8 MB on the oracle's grid.  The (3, N)
direction rows and the weights depend on the grid alone, so each grid is
built once (``_angular_grid``, ``radiation._oracle_grid``) and every table on
it holds the same read-only arrays: 32 bytes per node once per grid, about
0.4 MB for the oracle's.

The engine's build fills the Christoffel matrices and the Voigt stresses
with component-major kernels, one elementwise pass per (j, k) or (k, l) term,
that repeat einsum's float operations in einsum's order.  ``stress_pattern``,
the einsum form, is the oracle's stress: the oracle shares the table
container with the engine, but no stress kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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

    Nodes are in the theta-major order of ``_product_grid``.  All arrays are
    made read-only on construction.  ``mirrored``: ring n_theta-1-i has the
    velocities, khat_x and khat_y of ring i and the negated khat_z, bit for
    bit, as an engine build (symmetric ``leggauss`` nodes) finds on
    ``sapphire_iso`` and ``silicon``, also turned about z; never the oracle's.
    """

    khats: np.ndarray  # (3, N) C-contiguous, row a the a-component of the unit directions
    weights: np.ndarray  # (N,) solid-angle weights, summing to 4 pi
    velocities: np.ndarray  # (3, N) C-contiguous, row q the phase velocity of branch q, ascending
    stresses: np.ndarray  # (3, N, 3, 3) C-contiguous, [q, n] the tau of branch q at node n
    mirrored: bool = False

    def __post_init__(self):
        for arr in (self.khats, self.weights, self.velocities, self.stresses):
            arr.setflags(write=False)


def _product_grid(ct, st, w_ring, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Rings at polar (cos theta, sin theta) = (ct, st), each of weight
    ``w_ring``, times n_phi uniform azimuths, as read-only (3, N) direction
    rows and (N,) weights."""
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    kx = st[:, None] * np.cos(phi)[None, :]
    ky = st[:, None] * np.sin(phi)[None, :]
    kz = np.broadcast_to(ct[:, None], kx.shape)
    khats = np.stack([kx, ky, kz]).reshape(3, -1)
    weights = np.repeat(w_ring, n_phi) * (2 * np.pi / n_phi)
    for arr in (khats, weights):
        arr.setflags(write=False)
    return khats, weights


@cache
def _angular_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """The engine's Gauss-Legendre (in cos theta) x uniform product grid,
    built once per (n_theta, n_phi) and shared by every substrate's table."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    return _product_grid(x, np.sqrt(1.0 - x * x), w, n_phi)


def _spans(n: int) -> list[tuple[int, int]]:
    """The (a, b) bounds of the _CHUNK-node spans of an n-node table build."""
    return [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]


def _build_table(material: MaterialSpec, n_theta: int, n_phi: int) -> AngularTable:
    khats, weights = _angular_grid(n_theta, n_phi)
    n = weights.size
    velocities = np.empty((3, n))
    stresses = np.empty((3, n, 9))  # row n of branch q: its tau, row-major
    for a, b in _spans(n):
        vels, pols = christoffel_many(material, khats[:, a:b].T)
        velocities[:, a:b] = vels.T
        stresses[:, a:b] = _voigt_stresses(material.stiffness_tensor, khats[:, a:b], pols)[..., _FULL]
    k, v = khats.reshape(3, n_theta, n_phi).T, velocities.reshape(3, n_theta, n_phi)
    mirrored = np.array_equal(v, v[:, ::-1]) and np.array_equal(k, k[:, ::-1] * [1.0, 1.0, -1.0])
    return AngularTable(khats, weights, velocities, stresses.reshape(3, n, 3, 3), mirrored)


# The one memo of solved grids (see the module docstring); no eviction.
_TABLES: dict[tuple, AngularTable] = {}


def _table_key(material: MaterialSpec, *grid) -> tuple:
    """Everything a table build reads besides the grid: the name only labels
    an error that a validated (positive definite) stiffness cannot raise."""
    return (material.rho, material.C.tobytes(), *grid)


def _memo_table(material: MaterialSpec, grid: tuple, build) -> AngularTable:
    """The memo's one lookup: the table of ``material`` on ``grid``, from
    ``build()`` on first use."""
    key = _table_key(material, *grid)
    table = _TABLES.get(key)
    if table is None:
        # setdefault is atomic: threads that race on a first use may both
        # solve, but all of them get the one table that is stored
        table = _TABLES.setdefault(key, build())
    return table


def angular_table(material: MaterialSpec, n_theta: int, n_phi: int) -> AngularTable:
    """The Christoffel solution of ``material`` on the n_theta x n_phi grid,
    solved once per process for each (rho, C, grid) and kept until it ends:
    two loads of the database share their tables, while a rotated copy or
    any other change of C or rho gets its own."""
    return _memo_table(material, (n_theta, n_phi), lambda: _build_table(material, n_theta, n_phi))


def stress_pattern(stiffness_tensor: np.ndarray, khats: np.ndarray, pols: np.ndarray) -> np.ndarray:
    """Stress per unit (i k u0) at each node: tau_nij = c_ijkl khat_nk e_nl, shape (n, 3, 3).

    ``khats`` and ``pols`` are (n, 3): the propagation directions and one
    branch's polarizations.  Each tau_n is symmetric.  This einsum form is the
    brute-force oracle's stress and the reference of ``_voigt_stresses``.
    """
    return np.einsum("ijkl,nk,nl->nij", stiffness_tensor, khats, pols)


def _voigt_stresses(stiffness_tensor: np.ndarray, kt: np.ndarray, pols: np.ndarray) -> np.ndarray:
    """The stress pattern of all three branches in Voigt form, a (3, n, 6) view.

    ``kt`` is the (3, n) direction rows and ``pols`` is (n, 3, 3) as
    ``christoffel_many`` returns it.  tau is symmetric bit for bit
    (c_ijkl == c_jikl), so the six columns hold all of it.  Each component
    is ``stress_pattern``'s einsum sum, bit for bit and for the reason
    ``christoffel_many`` gives: (c_ijkl khat_k) e_l added to zero in (k, l)
    row-major order.  The product c_ijkl khat_k is shared by the branches.
    """
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
