"""Shared fixtures: the bundled materials and a standard device geometry,
and the test references that the package itself does not need: the cuboid
form factor, the per-call brute-force sum and a writer for the material
database."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import phonoscat.elastodynamics as elastodynamics
from phonoscat.coupling import Inclusion, MicrowaveMode, default_eps_eff
from phonoscat.elastodynamics import _FULL, _voigt_stresses, angular_table, christoffel_many, stress_pattern
from phonoscat.materials import CONSTANTS, Orientation, default_materials
from phonoscat.radiation import (
    _BRUTE_PHI,
    _BRUTE_RADIAL,
    _BRUTE_THETA,
    _BRUTE_WINDOW,
    _as_inclusion_list,
    _coherent_power,
    _simpson_weights,
    _sources,
)

# Film-normal cut: crystal X along lab z, crystal Z along lab -x.  With the
# field along lab y this drives the strong in-plane piezo coefficients.
XCUT_MATRIX = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

# Transmittance of a silicon/sapphire quarter-wave mirror centred at 11 GHz,
# on sapphire_iso, at 10 GHz (deep in the stopband), per period count: an
# 80-digit evaluation of the same float stack.
DEEP_STOPBAND_T = {
    24: 3.9434827371740955e-16,
    28: 8.677002397443343e-19,
    40: 9.243555171973444e-27,
    52: 9.84710022005902e-35,
    300: 1.6891736989705725e-199,
}


@pytest.fixture(scope="session")
def db():
    return default_materials()


@pytest.fixture(scope="session")
def ln(db):
    return db["lithium_niobate"]


@pytest.fixture(scope="session")
def substrate(db):
    return db["sapphire_iso"]


@pytest.fixture(scope="session")
def sapphire(db):
    return db["sapphire"]


@pytest.fixture(scope="session")
def silicon(db):
    return db["silicon"]


@pytest.fixture(scope="session")
def xcut():
    return Orientation(XCUT_MATRIX)


def make_mode(substrate, f_hz=10e9, mode_volume=8e-15, direction=(0.0, 1.0, 0.0)):
    return MicrowaveMode(
        omega0=2 * np.pi * f_hz,
        mode_volume=mode_volume,
        field_direction=np.asarray(direction, dtype=float),
        eps_eff=default_eps_eff(substrate),
    )


def form_factor(inclusion, k) -> complex:
    """Cuboid plane-wave overlap, normalized to 1 at k = 0: the reference of
    the coherent sum that ``radiation._coherent_power`` evaluates.

    Separable product of sinc factors times the center phase:
    ``s * e^{i k . r0} * prod_i sinc(k_i L_i / 2)`` with sinc(0) = 1.
    """
    k = np.asarray(k, dtype=float)
    args = k * inclusion.dimensions / 2.0
    sincs = np.sinc(args / np.pi)  # np.sinc(x) = sin(pi x)/(pi x)
    phase = np.exp(1j * float(k @ inclusion.center))
    return inclusion.sign * phase * float(np.prod(sincs))


def oracle_reference_grid():
    """The brute-force oracle's grid built from scratch: (N, 3) node rows,
    theta-major, and the (N,) solid-angle weights."""
    theta = np.linspace(0.0, np.pi, _BRUTE_THETA)
    w_theta = _simpson_weights(_BRUTE_THETA) * (np.pi / (_BRUTE_THETA - 1))
    phi = 2 * np.pi * np.arange(_BRUTE_PHI) / _BRUTE_PHI
    w_phi = np.full(_BRUTE_PHI, 2 * np.pi / _BRUTE_PHI)
    st, ct = np.sin(theta), np.cos(theta)
    khats = np.stack(
        [
            (st[:, None] * np.cos(phi)[None, :]),
            (st[:, None] * np.sin(phi)[None, :]),
            np.broadcast_to(ct[:, None], (_BRUTE_THETA, _BRUTE_PHI)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    w_ang = (w_theta[:, None] * st[:, None] * w_phi[None, :]).reshape(-1)
    return khats, w_ang


def expand_voigt(voigt):
    """(..., 6) Voigt rows as the C-contiguous (..., 3, 3) symmetric tensors they hold."""
    return np.take(voigt, _FULL, axis=-1).reshape(*voigt.shape[:-1], 3, 3)


def brute_force_reference(mode, inclusions, substrate) -> float:
    """``radiation.brute_force_rate`` solved from scratch on every call: the
    grid, the Christoffel solve and the einsum stress inside the call, and
    each float operation in the order ``brute_force_rate`` must keep."""
    incs = _as_inclusion_list(inclusions)
    omega0 = mode.omega0
    sigma = omega0 / 200.0
    hbar = CONSTANTS.hbar
    rho = substrate.rho
    khats, w_ang = oracle_reference_grid()

    xi = np.linspace(-_BRUTE_WINDOW, _BRUTE_WINDOW, _BRUTE_RADIAL)
    w_xi = _simpson_weights(_BRUTE_RADIAL) * (2 * _BRUTE_WINDOW / (_BRUTE_RADIAL - 1))
    gauss = np.exp(-0.5 * xi * xi) / (sigma * np.sqrt(2 * np.pi))

    src = _sources(mode, incs)._replace(part=None)  # the general sum, as the oracle takes it
    vels, pols = christoffel_many(substrate, khats)
    c = substrate.stiffness_tensor
    f3d = 1 / (8 * np.pi**3)

    total = 0.0
    for q in range(3):
        v = vels[:, q]
        tau = stress_pattern(c, khats, pols[:, :, q])
        vm = [vol * np.einsum("nij,ij->n", tau, s) for vol, s in zip(src.volume, src.strain)]
        for i in range(xi.size):
            omega = omega0 + sigma * xi[i]
            k = omega / v
            u0_sq = hbar / (2 * rho * omega)
            kvec = k[:, None] * khats
            cols = [[np.sinc(kvec[:, a] * (L[a] / 2.0) / np.pi) for a in range(3)] for L in src.dims]
            ff = [(x * y) * z for x, y, z in cols]
            hg_sq = (k * k * u0_sq) * _coherent_power(src, vm, ff, kvec)
            f = (2 * np.pi / hbar**2) * f3d * hg_sq * gauss[i]
            # measure: k^2 dk dOmega with dk = (sigma/v) dxi
            total += w_xi[i] * float(np.add.reduce(w_ang * (k * k) * (sigma / v) * f))
    return total


def save_materials(db, path) -> None:
    """Write a database in the JSON schema that ``load_materials`` accepts."""
    out = [
        {
            "name": spec.name,
            "rho": spec.rho,
            "C": spec.C.ravel().tolist(),
            "d": spec.d.ravel().tolist(),
            "eps_r": spec.eps_r.ravel().tolist(),
            "isotropic": spec.isotropic,
            "piezoelectric": spec.piezoelectric,
        }
        for spec in db.values()
    ]
    Path(path).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def remix_degenerate(velocities, polarizations, rng, rtol=1e-8):
    """Polarizations with every degenerate pair turned by a random in-plane angle.

    Any orthonormal basis of a degenerate plane is an equally valid
    eigenbasis, so complete branch sums must not notice the remix.
    """
    w = np.asarray(velocities) ** 2
    pols = np.array(polarizations)
    for a, b in ((0, 1), (1, 2)):
        mask = np.abs(w[:, b] - w[:, a]) <= rtol * w[:, 2]
        ang = rng.uniform(0, 2 * np.pi, size=int(np.sum(mask)))
        ca, sa = np.cos(ang)[:, None], np.sin(ang)[:, None]
        va, vb = pols[mask, :, a], pols[mask, :, b]
        pols[mask, :, a] = ca * va + sa * vb
        pols[mask, :, b] = -sa * va + ca * vb
    return pols


def rate_grids(quad):
    """The two (n_theta, n_phi) grids that ``mie_rate(..., quad)`` reads."""
    return [(quad.n_theta, quad.n_phi), (2 * quad.n_theta, 2 * quad.n_phi)]


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty angular-table memo, the engine's and the brute-force oracle's
    tables alike, for one test; the process's memo, with every table it held,
    is back once the test ends."""
    tables = {}
    monkeypatch.setattr(elastodynamics, "_TABLES", tables)
    return tables


@pytest.fixture
def remix_tables(monkeypatch):
    """``remix(substrate, quad, rng)`` puts into the angular-table memo, until
    the test ends, tables of ``substrate`` on the two grids of
    ``mie_rate(..., quad)`` whose stresses are built from remixed
    polarizations, expanded from the Voigt kernel to the (3, N, 3, 3)
    C-ordered tau as a table build does, and returns them by grid.  Every
    material with the same density and stiffness reads them meanwhile."""

    def remix(substrate, quad, rng):
        remixed = {}
        for grid in rate_grids(quad):
            table = angular_table(substrate, *grid)
            vels, pols = christoffel_many(substrate, table.khats.T)
            pols = remix_degenerate(vels, pols, rng)
            voigt = _voigt_stresses(substrate.stiffness_tensor, table.khats, pols)
            stresses = np.take(voigt, _FULL, axis=2).reshape(table.stresses.shape)
            assert stresses.flags.c_contiguous
            remixed[grid] = dataclasses.replace(table, stresses=stresses)
            key = elastodynamics._table_key(substrate, *grid)
            monkeypatch.setitem(elastodynamics._TABLES, key, remixed[grid])
        return remixed

    return remix


@pytest.fixture
def mode(substrate):
    """10 GHz mode with the calibration volume, field along lab y."""
    return make_mode(substrate)


@pytest.fixture
def waveguide(ln, xcut):
    """The reference transducer waveguide, 0.5 x 1 x 5 um."""
    return Inclusion(
        dimensions=np.array([0.5e-6, 1.0e-6, 5.0e-6]),
        center=np.zeros(3),
        material=ln,
        orientation=xcut,
    )


@pytest.fixture
def small_cube(ln, xcut):
    """A 10 nm cube, deep in the point-scatterer regime at GHz frequencies."""
    return Inclusion(
        dimensions=np.full(3, 10e-9),
        center=np.zeros(3),
        material=ln,
        orientation=xcut,
    )
