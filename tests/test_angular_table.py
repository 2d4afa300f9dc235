"""The per-substrate angular table behind the quadrature engine.

The Christoffel solution on an angular grid depends only on the substrate and
the grid, so it is solved once per (substrate, n_theta, n_phi) and memoized on
the material instance.  These tests pin down that the table changes no bit of
any rate, that each grid is solved exactly once, and that the memo cannot leak
between materials.
"""

import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import phonoscat.elastodynamics as elastodynamics
import phonoscat.radiation as radiation
from phonoscat.cli import main
from phonoscat.coupling import Inclusion, induced_strain
from phonoscat.elastodynamics import AngularTable, angular_table, christoffel_many, stress_pattern
from phonoscat.materials import CONSTANTS, Orientation, default_materials
from phonoscat.radiation import NumericFailure, QuadratureSpec, mie_rate, refined_rate

from conftest import XCUT_MATRIX, make_mode

# ---------------------------------------------------------------------------
# Reference: the quadrature engine as written before the table existed.  It
# solves the Christoffel problem itself, chunk by chunk, at every call.

_REF_CHUNK = 2048


def _reference_grid(n_theta, n_phi):
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - x * x)
    kx = st[:, None] * np.cos(phi)[None, :]
    ky = st[:, None] * np.sin(phi)[None, :]
    kz = np.broadcast_to(x[:, None], kx.shape)
    khats = np.stack([kx, ky, kz], axis=-1).reshape(-1, 3)
    weights = np.repeat(w, n_phi) * (2 * np.pi / n_phi)
    return khats, weights


def _reference_branches(mode, incs, substrate, n_theta, n_phi):
    hbar = CONSTANTS.hbar
    omega0 = mode.omega0
    c = substrate.stiffness_tensor
    golden = (2 * np.pi / hbar**2) * (1.0 / (8 * np.pi**3))
    u0_sq = hbar / (2 * substrate.rho * omega0 * 1.0)
    E = mode.field_zp * mode.field_direction
    strains = [induced_strain(inc.d_lab, E) for inc in incs]
    khats_all, weights = _reference_grid(n_theta, n_phi)
    n = khats_all.shape[0]
    values = np.empty((3, n))
    for a in range(0, n, _REF_CHUNK):
        b = min(a + _REF_CHUNK, n)
        khats = khats_all[a:b]
        vels, pols = christoffel_many(substrate, khats)
        for q in range(3):
            v = vels[:, q]
            tau = np.einsum("ijkl,nk,nl->nij", c, khats, pols[:, :, q])
            k0 = omega0 / v
            coh = np.zeros(khats.shape[0], dtype=complex)
            for inc, strain in zip(incs, strains):
                m = np.einsum("nij,ij->n", tau, strain)
                kvec = k0[:, None] * khats
                ff = np.prod(np.sinc(kvec * (inc.dimensions / 2.0) / np.pi), axis=1)
                phase = np.exp(1j * (kvec @ inc.center))
                coh += inc.volume * m * (float(inc.sign) * ff) * phase
            hg_sq = (k0 * k0 * u0_sq) * (coh.real**2 + coh.imag**2)
            values[q, a:b] = golden * (k0 * k0 / v) * hg_sq
    return np.array([np.add.reduce(weights * values[q]) for q in range(3)])


def _waveguide(ln, center=(0.0, 0.0, 0.0), sign=1):
    return Inclusion(
        dimensions=np.array([0.5e-6, 1.0e-6, 5.0e-6]),
        center=np.asarray(center, dtype=float),
        material=ln,
        orientation=Orientation(XCUT_MATRIX),
        sign=sign,
    )


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("n_incs", [1, 2])
@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_mie_rate_is_bitwise_equal_to_per_chunk_solve(db, ln, name, n_incs, threads):
    substrate = db[name]
    incs = [_waveguide(ln), _waveguide(ln, center=(0.4e-6, 0.3e-6, 0.0), sign=-1)][:n_incs]
    mode = make_mode(substrate, f_hz=9e9)
    # 32x80 and 64x160 nodes: several solve and evaluation chunks each
    quad = QuadratureSpec(32, 80, threads=threads)
    got = mie_rate(mode, incs, substrate, quad)
    coarse = _reference_branches(mode, incs, substrate, 32, 80)
    fine = _reference_branches(mode, incs, substrate, 64, 160)
    assert np.array_equal(got.branch_rates, fine)
    total = float(np.sum(fine))
    assert got.total_rate == total
    assert got.diagnostics.rel_error == abs(total - float(np.sum(coarse))) / total


@pytest.mark.parametrize("name", ["sapphire", "silicon", "sapphire_iso"])
def test_couplings_are_bitwise_equal_to_the_stress_pattern_formula(db, ln, name):
    """M = tau : S from the table's stresses is the per-call stress_pattern
    contraction the engine used before the table held tau, bit for bit."""
    substrate = db[name]
    mode = make_mode(substrate)
    E = mode.field_zp * mode.field_direction
    turned = Orientation.about_axis([1.0, 2.0, 3.0], 0.7).compose(Orientation(XCUT_MATRIX))
    incs = [_waveguide(ln), dataclasses.replace(_waveguide(ln), orientation=turned)]
    strains = [induced_strain(inc.d_lab, E) for inc in incs]
    got = radiation._contract(substrate, 16, 32, strains, 1)
    khats, _ = _reference_grid(16, 32)  # 512 nodes: one span
    _, pols = christoffel_many(substrate, khats)
    for q in range(3):
        tau = stress_pattern(substrate.stiffness_tensor, khats, pols[:, :, q])
        for m, strain in zip(got, strains):
            assert np.array_equal(m[q], np.einsum("nij,ij->n", tau, strain))


# ---------------------------------------------------------------------------
# The table itself


def test_table_matches_a_direct_solve_bitwise(sapphire):
    table = angular_table(sapphire, 40, 80)  # 3200 nodes: two solve chunks
    khats, weights = _reference_grid(40, 80)
    assert np.array_equal(table.khats, khats)
    assert np.array_equal(table.weights, weights)
    assert np.sum(table.weights) == pytest.approx(4 * np.pi, rel=1e-13)
    voigt = [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    for a in range(0, khats.shape[0], _REF_CHUNK):
        b = min(a + _REF_CHUNK, khats.shape[0])
        vels, pols = christoffel_many(sapphire, khats[a:b])
        assert np.array_equal(table.velocities[a:b], vels)
        for q in range(3):
            tau = stress_pattern(sapphire.stiffness_tensor, khats[a:b], pols[:, :, q])
            for col, (i, j) in enumerate(voigt):
                assert np.array_equal(table.stresses[q, a:b, col], tau[:, i, j])
            got = table.stress(q, a, b)
            assert got.flags.c_contiguous
            assert np.array_equal(got, tau)


def test_table_arrays_are_read_only(substrate):
    table = angular_table(substrate, 8, 16)
    for field in ("khats", "weights", "velocities", "stresses"):
        arr = getattr(table, field)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, field, arr.copy())


def test_table_is_memoized_per_grid():
    material = default_materials()["sapphire"]
    assert material.angular_tables == {}
    t = angular_table(material, 8, 16)
    assert isinstance(t, AngularTable)
    assert angular_table(material, 8, 16) is t
    assert angular_table(material, 8, 18) is not t
    assert set(material.angular_tables) == {(8, 16), (8, 18)}


def test_threads_racing_on_a_first_use_share_one_table():
    material = default_materials()["sapphire"]
    workers = 8
    barrier = threading.Barrier(workers, timeout=30)

    def first_use(_):
        barrier.wait()
        return angular_table(material, 8, 16)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tables = list(pool.map(first_use, range(workers), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(tables) == workers
    assert all(t is tables[0] for t in tables)
    assert material.angular_tables == {(8, 16): tables[0]}


def test_rotated_copy_never_sees_the_original_table():
    original = default_materials()["sapphire"]
    t0 = angular_table(original, 8, 16)
    for ori in (Orientation.identity(), Orientation.about_axis([1.0, 1.0, 0.0], 0.7)):
        rotated = original.rotated(ori)
        assert rotated.angular_tables == {}
        t1 = angular_table(rotated, 8, 16)
        assert t1 is not t0
        assert np.array_equal(t1.velocities, christoffel_many(rotated, t1.khats)[0])
    assert np.max(np.abs(t1.velocities - t0.velocities)) > 1.0  # anisotropic: really rotated
    assert original.angular_tables == {(8, 16): t0}


# ---------------------------------------------------------------------------
# Each grid is solved once


@pytest.fixture
def solved(monkeypatch):
    """Record the node count of every Christoffel solve a table build makes."""
    sizes = []
    original = elastodynamics.christoffel_many

    def counting(material, khats):
        sizes.append(khats.shape[0])
        return original(material, khats)

    monkeypatch.setattr(elastodynamics, "christoffel_many", counting)
    return sizes


def test_sweep_solves_each_grid_once(tmp_path, solved):
    cfg = {
        "scenario": "mie",
        "substrate": "sapphire_iso",
        "mode": {"frequency_GHz": 10.0, "mode_volume_um3": 8000.0, "field_direction": [0, 1, 0]},
        "inclusions": [
            {
                "material": "lithium_niobate",
                "dimensions_um": [0.2, 0.4, 0.5],
                "orientation": {"matrix": XCUT_MATRIX.tolist()},
            }
        ],
        "sweep": {"axis": "height_um", "grid": "linear", "start": 0.1, "stop": 0.3, "count": 12},
        "quadrature": {"n_theta": 12, "n_phi": 24, "tolerance": 0.5},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 13
    # coarse 12x24, fine 24x48 and the 16x32 regime grid, once each
    assert sorted(solved) == [12 * 24, 16 * 32, 24 * 48]


def test_refinement_rerun_reuses_its_coarse_grid(ln, solved):
    substrate = default_materials()["sapphire_iso"]
    mode = make_mode(substrate)
    with pytest.raises(NumericFailure):
        refined_rate(mode, [_waveguide(ln)], substrate, QuadratureSpec(2, 4, tolerance=1e-12))
    # Three mie_rate calls use 2x4/4x8, 4x8/8x16 and 8x16/16x32, and the regime
    # tag uses 16x32: four distinct grids, each solved once.
    assert sorted(solved) == [2 * 4, 4 * 8, 8 * 16, 16 * 32]
