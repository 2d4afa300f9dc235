"""The brute-force oracle solves its substrate once per process.

``brute_force_rate`` keeps each substrate's Christoffel solution and einsum
stress on its own grid as an ``AngularTable`` in the angular-table memo,
keyed by (rho, C, "oracle").  Every rate must be bit for bit the per-call sum
of ``conftest.brute_force_reference``, whether the memo is cold or warm, and
only a new (rho, C) may solve again.  The memo's other guarantees (read-only
arrays, one entry per distinct physics) are also pinned for the oracle's
table beside the engine's in ``test_angular_table.py``.
"""

import dataclasses
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import phonoscat.elastodynamics as elastodynamics
import phonoscat.radiation as radiation
from conftest import XCUT_MATRIX, brute_force_reference, make_mode, oracle_reference_grid
from phonoscat.cli import main
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import _CHUNK, _table_key, angular_table, christoffel_many, stress_pattern
from phonoscat.radiation import _BRUTE_PHI, _BRUTE_THETA, brute_force_rate

ORACLE_NODES = _BRUTE_THETA * _BRUTE_PHI  # 12,384


def _cube(ln, xcut):
    return Inclusion(np.full(3, 0.5e-6), np.zeros(3), ln, orientation=xcut)


def _offcentre_waveguide(ln, xcut):
    return Inclusion(np.array([0.5e-6, 1e-6, 5e-6]), np.array([0.2e-6, -0.1e-6, 0.0]), ln, orientation=xcut)


def _antiparallel_pair(ln, xcut):
    wg = _offcentre_waveguide(ln, xcut)
    return [
        dataclasses.replace(wg, center=np.array([0.4e-6, 0.0, 0.0])),
        dataclasses.replace(wg, center=np.array([-0.4e-6, 0.0, 0.0]), sign=-1),
    ]


def _unlike_pair(ln, xcut):
    """Two inclusions of different dimensions: each has its own form-factor column."""
    return [_offcentre_waveguide(ln, xcut), dataclasses.replace(_cube(ln, xcut), center=np.array([0.0, 0.6e-6, 0.0]))]


@pytest.mark.parametrize("geometry", [_cube, _offcentre_waveguide, _antiparallel_pair, _unlike_pair])
@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_rate_is_the_per_call_sum_bit_for_bit(db, ln, xcut, empty_memo, name, geometry):
    """The first frequency solves the substrate (cold memo), the second
    reads the table the first one left (warm memo)."""
    substrate = db[name]
    incs = geometry(ln, xcut)
    for f_hz in (1e9, 10e9):
        mode = make_mode(substrate, f_hz)
        assert brute_force_rate(mode, incs, substrate) == brute_force_reference(mode, incs, substrate)
        assert list(empty_memo) == [_table_key(substrate, "oracle")]


def test_oracle_never_runs_the_engine_stress_kernel(db, ln, xcut, empty_memo, monkeypatch):
    """The oracle shares the table container with the engine, not its
    stress kernel: with ``_voigt_stresses`` broken, it still gives the
    per-call einsum sum exactly."""

    def broken(*args):
        raise AssertionError("the engine's stress kernel ran")

    monkeypatch.setattr(elastodynamics, "_voigt_stresses", broken)
    substrate = db["sapphire"]
    with pytest.raises(AssertionError, match="engine's stress kernel"):
        angular_table(substrate, 8, 16)
    incs = _offcentre_waveguide(ln, xcut)
    mode = make_mode(substrate, 10e9)
    assert brute_force_rate(mode, incs, substrate) == brute_force_reference(mode, incs, substrate)
    assert list(empty_memo) == [_table_key(substrate, "oracle")]


def test_the_kernel_gets_node_major_wave_vectors(db, ln, xcut, monkeypatch):
    """kvec = k khat reaches the kernel as the C-contiguous (N, 3) array that
    ``brute_force_reference`` builds, not a strided view of the table's (3, N)
    rows: matmul's bits for kvec @ r depend on the layout, and a one-ulp
    phase change can round away in the rate, so the rate alone misses it."""
    substrate = db["sapphire"]
    wg = _offcentre_waveguide(ln, xcut)
    incs = [wg, dataclasses.replace(wg, center=np.array([-0.2e-6, 0.1e-6, 0.4e-6]), sign=-1)]
    kernel, layouts = radiation._coherent_power, []

    def checked(src, vm, ff, kvec):
        layouts.append((kvec.shape, kvec.flags.c_contiguous))
        return kernel(src, vm, ff, kvec)

    monkeypatch.setattr(radiation, "_coherent_power", checked)
    brute_force_rate(make_mode(substrate, 10e9), incs, substrate)
    assert layouts == [((ORACLE_NODES, 3), True)] * (3 * radiation._BRUTE_RADIAL)


@pytest.fixture
def oracle_solves(monkeypatch, empty_memo):
    """The number of nodes the oracle's table builds solve, summed per
    substrate (keyed by its (rho, C)), starting from an empty memo: a table
    is built span by span, so one whole solve of the grid is ORACLE_NODES."""
    nodes = Counter()
    original = radiation.christoffel_many

    def counting(material, khats):
        nodes[_table_key(material)] += khats.shape[0]
        return original(material, khats)

    monkeypatch.setattr(radiation, "christoffel_many", counting)
    return nodes


def _oracle_config(tmp_path, name, size_um, start_ghz, count):
    path = tmp_path / f"{name}.json"
    config = {
        "scenario": "oracle_check",
        "substrate": "sapphire_iso",
        "mode": {"frequency_GHz": 10.0, "mode_volume_um3": 8000.0, "field_direction": [0, 1, 0]},
        "inclusions": [
            {
                "material": "lithium_niobate",
                "dimensions_um": [size_um] * 3,
                "orientation": {"matrix": XCUT_MATRIX.tolist()},
            }
        ],
        "sweep": {"axis": "frequency_GHz", "grid": "log", "start": start_ghz, "stop": 10.0, "count": count},
        "quadrature": {"n_theta": 16, "n_phi": 32},
    }
    path.write_text(json.dumps(config))
    return path


def test_each_substrate_is_solved_once(tmp_path, db, oracle_solves, empty_memo):
    first = _oracle_config(tmp_path, "first", 0.008, 1.0, 3)
    assert main(["run", str(first), "--out", str(tmp_path / "first.csv")]) == 0
    assert len((tmp_path / "first.csv").read_text().splitlines()) == 4
    assert oracle_solves == {_table_key(db["sapphire_iso"]): ORACLE_NODES}
    # another config on the same substrate, loaded afresh by the CLI
    second = _oracle_config(tmp_path, "second", 0.05, 2.0, 2)
    assert main(["run", str(second), "--out", str(tmp_path / "second.csv")]) == 0
    assert oracle_solves == {_table_key(db["sapphire_iso"]): ORACLE_NODES}
    assert [key for key in empty_memo if key[2:] == ("oracle",)] == [_table_key(db["sapphire_iso"], "oracle")]


def test_rotated_substrate_gets_its_own_entry(sapphire, xcut, oracle_solves, empty_memo):
    rotated = sapphire.rotated(xcut)
    assert not np.array_equal(rotated.C, sapphire.C)
    original = radiation._oracle_table(sapphire)
    assert radiation._oracle_table(sapphire) is original
    assert radiation._oracle_table(rotated) is not original
    assert oracle_solves == {_table_key(s): ORACLE_NODES for s in (sapphire, rotated)}
    assert set(empty_memo) == {_table_key(s, "oracle") for s in (sapphire, rotated)}


def test_entries_are_read_only(sapphire, empty_memo):
    table = radiation._oracle_table(sapphire)
    assert table.velocities.shape == (3, ORACLE_NODES)
    assert table.stresses.shape == (3, ORACLE_NODES, 3, 3)
    for arr in (table.velocities, table.stresses):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_six_voigt_columns_hold_the_whole_stress(db, name, empty_memo):
    """The oracle's einsum tau is symmetric bit for bit, so its six Voigt
    columns hold all of it and the table keeps it as it comes: (3, N, 3, 3),
    C-ordered, each branch exactly ``stress_pattern``'s output."""
    substrate = db[name]
    table = radiation._oracle_table(substrate)
    assert table.stresses.shape == (3, ORACLE_NODES, 3, 3)
    assert table.stresses.flags.c_contiguous
    khats = np.ascontiguousarray(table.khats.T)  # (N, 3) node rows, as the oracle's build passes them
    _, pols = christoffel_many(substrate, khats)
    for q in range(3):
        tau = stress_pattern(substrate.stiffness_tensor, khats, pols[:, :, q])
        assert np.array_equal(tau, tau.transpose(0, 2, 1))
        assert np.array_equal(table.stresses[q], tau)


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_spanned_build_is_the_whole_grid_solve(db, name, empty_memo, monkeypatch):
    """The table is solved in spans of at most ``_CHUNK`` contiguous (span, 3)
    node rows, and holds, bit for bit, what one whole-grid Christoffel solve
    and einsum stress of a grid built from scratch give."""
    substrate = db[name]
    spans = []
    original = radiation.christoffel_many

    def recording(material, khats):
        assert khats.shape[1:] == (3,) and khats.flags.c_contiguous
        spans.append(khats.shape[0])
        return original(material, khats)

    monkeypatch.setattr(radiation, "christoffel_many", recording)
    table = radiation._oracle_table(substrate)
    assert len(spans) > 1 and max(spans) <= _CHUNK and sum(spans) == ORACLE_NODES
    khats, weights = oracle_reference_grid()
    assert np.array_equal(table.khats, khats.T) and np.array_equal(table.weights, weights)
    vels, pols = christoffel_many(substrate, khats)
    assert np.array_equal(table.velocities, vels.T)
    for q in range(3):
        assert np.array_equal(table.stresses[q], stress_pattern(substrate.stiffness_tensor, khats, pols[:, :, q]))


MIB = 2**20


def _traced(work):
    """(bytes held after ``work()``, peak bytes above that) of what numpy
    and Python allocate during it."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_build_allocates_at_most_2_mib_above_the_table(db, empty_memo):
    """A table keeps 240 B/node; a whole-grid solve added a 3.7 MiB
    transient on top.  Another substrate's table is built first, so the grid
    they share is not counted."""
    radiation._oracle_table(db["silicon"])
    kept, peak = _traced(lambda: radiation._oracle_table(db["sapphire"]))
    assert kept >= 240 * ORACLE_NODES  # the table's velocities and stresses
    assert peak - kept <= 2 * MIB


def test_rate_allocates_at_most_1_25_mib(db, ln, xcut, empty_memo):
    """One rate on a built table works in bounded buffers: fresh per-node
    temporaries on every radial node took 1.42 MiB."""
    substrate = db["sapphire"]
    mode, incs = make_mode(substrate, 10e9), _cube(ln, xcut)
    radiation._oracle_table(substrate)
    _, peak = _traced(lambda: brute_force_rate(mode, incs, substrate))
    assert peak <= 1.25 * MIB
