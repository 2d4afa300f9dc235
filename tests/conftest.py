"""Shared fixtures: the bundled materials and a standard device geometry,
and the test references that the package itself does not need: the cuboid
form factor and a writer for the material database."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from phonoscat.coupling import Inclusion, MicrowaveMode, default_eps_eff
from phonoscat.elastodynamics import _voigt_stresses, angular_table, christoffel_many
from phonoscat.materials import Orientation, default_materials

# Film-normal cut: crystal X along lab z, crystal Z along lab -x.  With the
# field along lab y this drives the strong in-plane piezo coefficients.
XCUT_MATRIX = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


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


def remixed_substrate(substrate, quad, rng):
    """A fresh copy of ``substrate`` whose memoized angular tables for the two
    grids ``mie_rate(..., quad)`` reads carry stresses built from remixed
    polarizations."""
    fresh = dataclasses.replace(substrate)
    for grid in ((quad.n_theta, quad.n_phi), (2 * quad.n_theta, 2 * quad.n_phi)):
        table = angular_table(substrate, *grid)
        vels, pols = christoffel_many(substrate, table.khats)
        pols = remix_degenerate(vels, pols, rng)
        stresses = _voigt_stresses(substrate.stiffness_tensor, table.khats, pols)
        stresses.setflags(write=False)
        fresh.angular_tables[grid] = dataclasses.replace(table, stresses=stresses)
    return fresh


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
