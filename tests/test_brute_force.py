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

import numpy as np
import pytest

import phonoscat.elastodynamics as elastodynamics
import phonoscat.radiation as radiation
from conftest import XCUT_MATRIX, brute_force_reference, make_mode
from phonoscat.cli import main
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import _table_key, angular_table, christoffel_many, stress_pattern
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


@pytest.mark.parametrize("geometry", [_cube, _offcentre_waveguide, _antiparallel_pair])
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


@pytest.fixture
def oracle_solves(monkeypatch, empty_memo):
    """The substrate name of every Christoffel solve on the oracle's grid,
    starting from an empty memo."""
    names = []
    original = radiation.christoffel_many

    def counting(material, khats):
        if khats.shape[0] == ORACLE_NODES:
            names.append(material.name)
        return original(material, khats)

    monkeypatch.setattr(radiation, "christoffel_many", counting)
    return names


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
    assert oracle_solves == ["sapphire_iso"]
    # another config on the same substrate, loaded afresh by the CLI
    second = _oracle_config(tmp_path, "second", 0.05, 2.0, 2)
    assert main(["run", str(second), "--out", str(tmp_path / "second.csv")]) == 0
    assert oracle_solves == ["sapphire_iso"]
    assert [key for key in empty_memo if key[2:] == ("oracle",)] == [_table_key(db["sapphire_iso"], "oracle")]


def test_rotated_substrate_gets_its_own_entry(sapphire, xcut, oracle_solves, empty_memo):
    rotated = sapphire.rotated(xcut)
    assert not np.array_equal(rotated.C, sapphire.C)
    original = radiation._oracle_table(sapphire)
    assert radiation._oracle_table(sapphire) is original
    assert radiation._oracle_table(rotated) is not original
    assert len(oracle_solves) == 2
    assert set(empty_memo) == {_table_key(s, "oracle") for s in (sapphire, rotated)}


def test_entries_are_read_only(sapphire, empty_memo):
    table = radiation._oracle_table(sapphire)
    assert table.velocities.shape == (ORACLE_NODES, 3)
    assert table.stresses.shape == (3, ORACLE_NODES, 6)
    for arr in (table.velocities, table.stresses):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_six_voigt_columns_hold_the_whole_stress(db, name, empty_memo):
    substrate = db[name]
    table = radiation._oracle_table(substrate)
    assert table.stresses.shape == (3, ORACLE_NODES, 6)
    _, pols = christoffel_many(substrate, table.khats)
    for q in range(3):
        tau = stress_pattern(substrate.stiffness_tensor, table.khats, pols[:, :, q])
        assert np.array_equal(tau, tau.transpose(0, 2, 1))
        assert np.array_equal(table.stress(q), tau)
