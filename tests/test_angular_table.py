"""The per-substrate angular table behind the quadrature engine.

The Christoffel solution on an angular grid depends only on the substrate's
density and stiffness and on the grid, so it is solved once per process for
each (rho, C, n_theta, n_phi) and memoized under exactly that key.  These
tests pin down that the table changes no bit of any rate, that each grid is
solved exactly once, also across runs and database loads, and that the memo
cannot leak between materials of different physics.  The brute-force
oracle's own table, under (rho, C, "oracle") in the same memo, is held to
the same memo guarantees.
"""

import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest

import phonoscat.elastodynamics as elastodynamics
import phonoscat.radiation as radiation
from phonoscat.cli import main
from phonoscat.coupling import Inclusion, geometry_factor, induced_strain
from phonoscat.elastodynamics import (
    AngularTable,
    _table_key,
    _voigt_stresses,
    angular_table,
    christoffel_many,
    stress_pattern,
)
from phonoscat.materials import CONSTANTS, Orientation, default_materials, load_materials
from phonoscat.radiation import NumericFailure, QuadratureSpec, mie_rate, refined_rate
from phonoscat.transducer import emission_weighted_overlap

from conftest import XCUT_MATRIX, expand_voigt, make_mode

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


# Two source placements: the first on the origin and the second off it in
# the z = 0 plane, or both off every axis, so that one source alone has a
# phase too and each phase takes all three components of k.
CENTRES = {
    "in-plane": [(0.0, 0.0, 0.0), (0.4e-6, 0.3e-6, 0.0)],
    "oblique": [(0.3e-6, 0.2e-6, 0.1e-6), (-0.1e-6, 0.4e-6, -0.2e-6)],
}


@pytest.mark.parametrize("centres", list(CENTRES))
@pytest.mark.parametrize("n_incs", [1, 2])
@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_mie_rate_is_bitwise_equal_to_per_chunk_solve(db, ln, name, n_incs, centres):
    substrate = db[name]
    first, second = CENTRES[centres]
    incs = [_waveguide(ln, center=first), _waveguide(ln, center=second, sign=-1)][:n_incs]
    mode = make_mode(substrate, f_hz=9e9)
    # 2560 and 10240 nodes: two and five solve spans, one and three evaluation spans
    quad = QuadratureSpec(32, 80)
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
    _, got, _, _ = radiation._SweepTables(substrate).factors(16, 32, mode.omega0, radiation._sources(mode, incs))
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
    assert np.array_equal(table.khats, khats.T)
    assert np.array_equal(table.weights, weights)
    assert np.sum(table.weights) == pytest.approx(4 * np.pi, rel=1e-13)
    assert table.stresses.shape == (3, khats.shape[0], 3, 3)
    assert table.stresses.flags.c_contiguous
    for a in range(0, khats.shape[0], _REF_CHUNK):
        b = min(a + _REF_CHUNK, khats.shape[0])
        vels, pols = christoffel_many(sapphire, khats[a:b])
        assert np.array_equal(table.velocities[:, a:b], vels.T)
        for q in range(3):
            tau = stress_pattern(sapphire.stiffness_tensor, khats[a:b], pols[:, :, q])
            got = table.stresses[q, a:b]
            assert got.flags.c_contiguous
            assert np.array_equal(got, tau)


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_directions_and_velocities_are_branch_major_rows(db, name):
    """khats and velocities are read-only, C-contiguous (3, N) rows of the
    engine's table and of the oracle's grid and table, so every reader takes
    a row as it is stored.  The oracle's Voigt columns expand to
    ``stress_pattern`` of a contiguous (N, 3) copy of the directions, bit for
    bit: einsum on the strided view of the rows may round differently."""
    substrate = db[name]
    engine, oracle = angular_table(substrate, 9, 16), radiation._oracle_table(substrate)
    oracle_khats, oracle_weights = radiation._oracle_grid()
    grids = [(engine.khats, engine.weights, engine.velocities), (oracle_khats, oracle_weights, oracle.velocities)]
    for khats, weights, velocities in grids:
        for rows in (khats, velocities):
            assert rows.shape == (3, weights.size) and rows.flags.c_contiguous and not rows.flags.writeable
    nodes = np.ascontiguousarray(oracle_khats.T)
    vels, pols = christoffel_many(substrate, nodes)
    assert np.array_equal(oracle.velocities, vels.T)
    for q in range(3):
        tau = stress_pattern(substrate.stiffness_tensor, nodes, pols[:, :, q])
        assert np.array_equal(expand_voigt(oracle.voigt[q]), tau)


def test_table_arrays_are_read_only(substrate):
    tables = [
        (angular_table(substrate, 8, 16), ("khats", "weights", "velocities", "stresses")),
        (radiation._oracle_table(substrate), ("velocities", "voigt")),
    ]
    for table, fields in tables:
        for field in fields:
            arr = getattr(table, field)
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, field, arr.copy())


# ---------------------------------------------------------------------------
# The stored tau is the full C-ordered 3x3 that every reader takes as it is.
# The references are the path it replaced: a table of six Voigt columns per
# node, expanded with np.take on every read.


def _voigt_table(substrate, n_theta, n_phi):
    """The (3, N, 6) Voigt stresses of the grid, solved span by span as a table build does."""
    khats, _ = _reference_grid(n_theta, n_phi)
    n = khats.shape[0]
    voigt = np.empty((3, n, 6))
    for a in range(0, n, _REF_CHUNK):
        b = min(a + _REF_CHUNK, n)
        _, pols = christoffel_many(substrate, khats[a:b])
        voigt[:, a:b] = _voigt_stresses(substrate.stiffness_tensor, khats[a:b].T, pols)
    return voigt


def _turned(ln, turns):
    """The x-cut waveguide spun by each (axis, angle) of ``turns``."""
    xcut = Orientation(XCUT_MATRIX)
    spins = [Orientation.about_axis(axis, angle) for axis, angle in turns]
    return [dataclasses.replace(_waveguide(ln), orientation=spin.compose(xcut)) for spin in spins]


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_stored_tau_is_the_expanded_voigt_kernel_and_symmetric(db, name):
    substrate = db[name]
    table = angular_table(substrate, 48, 96)  # 4608 nodes: spans of 2048, 2048 and 512
    assert table.stresses.shape == (3, 4608, 3, 3)
    assert table.stresses.flags.c_contiguous
    assert np.array_equal(table.stresses, table.stresses.transpose(0, 1, 3, 2))
    voigt = _voigt_table(substrate, 48, 96)
    for q in range(3):
        assert np.array_equal(table.stresses[q], expand_voigt(voigt[q]))


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_contract_is_the_per_span_voigt_expansion_bit_for_bit(db, ln, name):
    substrate = db[name]
    mode = make_mode(substrate)
    incs = _turned(ln, [((0, 0, 1), 0.0), ((1, 2, 3), 0.7)])
    strains = [induced_strain(inc.d_lab, mode.field_zp * mode.field_direction) for inc in incs]
    _, got, _, _ = radiation._SweepTables(substrate).factors(48, 96, mode.omega0, radiation._sources(mode, incs))
    voigt = _voigt_table(substrate, 48, 96)
    n = voigt.shape[1]
    for m, s in zip(got, strains):
        want = np.empty((3, n))
        for a in range(0, n, _REF_CHUNK):  # the last span is partial
            b = min(a + _REF_CHUNK, n)
            for q in range(3):
                want[q, a:b] = np.einsum("nij,ij->n", expand_voigt(voigt[q, a:b]), s)
        assert np.array_equal(m, want)


def test_a_branch_span_of_stresses_is_a_read_only_view(sapphire):
    """What the readers of one branch's tau on nodes a:b take: a C-contiguous
    read-only view, no copy."""
    table = angular_table(sapphire, 48, 96)
    for q, a, b in [(0, 0, None), (1, 2048, 4096), (2, 4096, 4608), (2, 100, 101)]:
        got = table.stresses[q, a:b]
        assert np.shares_memory(got, table.stresses) and not got.flags.owndata
        assert got.flags.c_contiguous and not got.flags.writeable


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_overlap_is_the_stacked_voigt_expansion_bit_for_bit(db, ln, name):
    substrate = db[name]
    mode = make_mode(substrate)
    grid = angular_table(substrate, 16, 32)
    taus = np.stack([expand_voigt(v) for v in _voigt_table(substrate, 16, 32)])
    w = grid.weights / grid.velocities**5
    # the last turn is one where an F-ordered stack moves G by an ulp
    for inc in _turned(ln, [((0, 0, 1), 0.0), ((1, 2, 3), 0.7), ((-2, 1, 0.5), 2.3)]):
        g = geometry_factor(mode.field_direction, inc.d_lab, taus)
        want = sum(float(np.sum(w[q] * g[q])) for q in range(3)) / sum(float(np.sum(w[q])) for q in range(3))
        assert emission_weighted_overlap(mode, inc, substrate) == want


def test_table_is_memoized_per_grid(empty_memo):
    material = default_materials()["sapphire"]
    t = angular_table(material, 8, 16)
    assert isinstance(t, AngularTable)
    assert angular_table(material, 8, 16) is t
    assert angular_table(material, 8, 18) is not t
    assert set(empty_memo) == {(material.rho, material.C.tobytes(), 8, g) for g in (16, 18)}


def test_threads_racing_on_a_first_use_share_one_table(empty_memo):
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
    assert list(empty_memo) == [_table_key(material, 8, 16)]
    assert empty_memo[_table_key(material, 8, 16)] is tables[0]


# The engine's table on one grid and the brute-force oracle's table, each
# with the grid part of its memo key and the directions and weights a table
# is read on: the memo keeps both alike.
TABLES = [
    (lambda material: angular_table(material, 8, 16), (8, 16), lambda table: (table.khats, table.weights)),
    (radiation._oracle_table, ("oracle",), lambda table: radiation._oracle_grid()),
]


def test_rotated_copy_never_sees_the_original_table(empty_memo):
    original = default_materials()["sapphire"]
    for table_of, grid, grid_of in TABLES:
        t0 = table_of(original)
        for axis, angle in (([1.0, 1.0, 0.0], 0.7), ([0.0, 0.0, 1.0], 0.3)):
            rotated = original.rotated(Orientation.about_axis(axis, angle))
            t1 = table_of(rotated)
            assert t1 is not t0
            assert table_of(rotated) is t1
            assert empty_memo[_table_key(rotated, *grid)] is t1
            assert np.array_equal(t1.velocities, christoffel_many(rotated, grid_of(t1)[0].T)[0].T)
            assert np.max(np.abs(t1.velocities - t0.velocities)) > 1.0  # anisotropic: really rotated
        assert empty_memo[_table_key(original, *grid)] is t0
    assert len(empty_memo) == 3 * len(TABLES)


def test_memo_grows_by_distinct_physics_not_by_copies(empty_memo):
    """The memo's bound: one table per distinct (rho, C, grid) ever requested.
    Ten fresh copies of each of three rotations, on two grids, add six
    tables, not sixty; each new rotation adds one table per grid."""
    sapphire = default_materials()["sapphire"]
    turns = [Orientation.about_axis([1.0, 1.0, 0.0], angle) for angle in (0.3, 0.7, 1.1)]
    for grid in ((8, 16), (16, 32)):
        for turn in turns:
            first = angular_table(sapphire.rotated(turn), *grid)
            for _ in range(9):
                assert angular_table(sapphire.rotated(turn), *grid) is first
    assert len(empty_memo) == len(turns) * 2
    angular_table(sapphire.rotated(Orientation.about_axis([1.0, 1.0, 0.0], 1.5)), 8, 16)
    assert len(empty_memo) == len(turns) * 2 + 1


def test_separately_loaded_databases_share_one_table(empty_memo):
    # two loads of the bundled file: default_materials() would hand out one load's records twice
    with resources.as_file(resources.files("phonoscat") / "data" / "materials.json") as path:
        first, second = load_materials(path), load_materials(path)
    sapphire = first["sapphire"]
    # a new name, or a rotation that maps C onto itself bit for bit, is the same physics
    same = [dataclasses.replace(sapphire, name="renamed"), sapphire.rotated(Orientation.identity())]
    for table_of, *_ in TABLES:
        for name in ("sapphire", "silicon", "sapphire_iso"):
            assert first[name] is not second[name]
            assert table_of(first[name]) is table_of(second[name])
        for material in same:
            assert table_of(material) is table_of(sapphire)
    assert len(empty_memo) == 3 * len(TABLES)


def test_tables_on_one_grid_share_its_directions_and_weights(empty_memo):
    """The directions and weights depend on the grid alone: every
    substrate's table on one grid is read on the very same read-only
    arrays, which the engine's table holds and the oracle's reads from its
    grid."""
    db = default_materials()
    for table_of, _, grid_of in TABLES:
        first, second = table_of(db["sapphire"]), table_of(db["silicon"])
        assert first is not second
        for a, b in zip(grid_of(first), grid_of(second)):
            assert a is b and not a.flags.writeable
    assert angular_table(db["sapphire"], 8, 32).khats is not angular_table(db["sapphire"], 8, 16).khats


def test_density_alone_separates_tables(empty_memo):
    sapphire = default_materials()["sapphire"]
    denser = dataclasses.replace(sapphire, rho=1.21 * sapphire.rho)
    for table_of, grid, _ in TABLES:
        t0, t1 = table_of(sapphire), table_of(denser)
        assert t1 is not t0
        assert empty_memo[_table_key(sapphire, *grid)] is t0 and empty_memo[_table_key(denser, *grid)] is t1
        np.testing.assert_allclose(t1.velocities, t0.velocities / 1.1, rtol=1e-14)
    assert set(empty_memo) == {_table_key(m, *grid) for m in (sapphire, denser) for _, grid, _ in TABLES}


# ---------------------------------------------------------------------------
# Each grid is solved once


@pytest.fixture
def solved(monkeypatch, empty_memo):
    """Record the node count of every Christoffel solve a table build makes,
    starting from an empty memo."""
    sizes = []
    original = elastodynamics.christoffel_many

    def counting(material, khats):
        sizes.append(khats.shape[0])
        return original(material, khats)

    monkeypatch.setattr(elastodynamics, "christoffel_many", counting)
    return sizes


def _grids(memo):
    return sorted(key[2:] for key in memo)


SWEEP = {
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


def test_sweep_solves_each_grid_once(tmp_path, solved, empty_memo):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP))
    out = tmp_path / "sweep.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 13
    # coarse 12x24, fine 24x48 and the 16x32 regime grid, once each
    assert sorted(solved) == [12 * 24, 16 * 32, 24 * 48]
    assert _grids(empty_memo) == [(12, 24), (16, 32), (24, 48)]


def test_second_run_in_a_process_solves_no_grid(tmp_path, solved, empty_memo):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP))
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    assert main(["run", str(path), "--out", str(outs[0])]) == 0
    assert _grids(empty_memo) == [(12, 24), (16, 32), (24, 48)]
    del solved[:]
    # the second run loads its materials afresh, and finds their tables
    assert main(["run", str(path), "--out", str(outs[1])]) == 0
    assert solved == []
    assert _grids(empty_memo) == [(12, 24), (16, 32), (24, 48)]
    assert outs[1].read_bytes() == outs[0].read_bytes()


def test_refinement_rerun_reuses_its_coarse_grid(ln, solved, empty_memo):
    substrate = default_materials()["sapphire_iso"]
    mode = make_mode(substrate)
    with pytest.raises(NumericFailure):
        refined_rate(mode, [_waveguide(ln)], substrate, QuadratureSpec(2, 4, tolerance=1e-12))
    # Three mie_rate calls use 2x4/4x8, 4x8/8x16 and 8x16/16x32, and the regime
    # tag uses 16x32: four distinct grids, each solved once.
    assert sorted(solved) == [2 * 4, 4 * 8, 8 * 16, 16 * 32]
    assert _grids(empty_memo) == [(2, 4), (4, 8), (8, 16), (16, 32)]
