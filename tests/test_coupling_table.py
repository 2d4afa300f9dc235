"""The sweep-scoped coupling table behind the quadrature engine.

The coupling M_q = tau_q : S depends only on the substrate, the grid, the
branch and the inclusion strain, so a sweep computes it once per (grid,
strain) and shares it between its points.  The strain S = d . E follows the
zero-point field, which grows with the frequency, so an omega0 sweep has a new
strain at every point.  The stress pattern tau itself is substrate-only and
comes from the angular table.  These tests pin down that sharing changes no
bit of any result, that the contraction runs once per height sweep and once
per frequency point, that a frequency sweep holds one point's couplings at a
time, that an orientation scan solves tau only while it builds tables, that
the table dies with the sweep, and that refined_rate records how many
refinements it needed.  A lone mie_rate and an orientation scan read a
coupling table too, one per call.
"""

import dataclasses
import gc
import json

import numpy as np
import pytest

import phonoscat.elastodynamics as elastodynamics
import phonoscat.radiation as radiation
from phonoscat.cli import main
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import angular_table
from phonoscat.materials import Orientation
from phonoscat.mitigation import dual_waveguide_rate, dual_waveguide_sweep
from phonoscat.radiation import (
    QuadratureSpec,
    mie_rate,
    refined_rate,
    sweep,
    sweep_point,
)
from phonoscat.transducer import sweep_orientation

from conftest import XCUT_MATRIX, make_mode

QUAD = QuadratureSpec(16, 32)

AXES = {
    "omega0": 2 * np.pi * np.array([6e9, 8e9, 10e9]),
    "height": np.array([0.3e-6, 0.5e-6, 0.7e-6]),
    "thickness": np.array([1e-6, 3e-6, 5e-6]),
}


def _waveguide(ln, center=(0.0, 0.0, 0.0), sign=1):
    return Inclusion(
        dimensions=np.array([0.5e-6, 1.0e-6, 5.0e-6]),
        center=np.asarray(center, dtype=float),
        material=ln,
        orientation=Orientation(XCUT_MATRIX),
        sign=sign,
    )


def _bar(ln):
    """A 0.2 x 0.4 x 0.5 um bar: no refinement at 16x32 with tolerance 0.5."""
    return dataclasses.replace(_waveguide(ln), dimensions=np.array([0.2e-6, 0.4e-6, 0.5e-6]))


LOOSE = QuadratureSpec(16, 32, tolerance=0.5)


def _same(a, b):
    return np.array_equal(a.branch_rates, b.branch_rates) and a.diagnostics == b.diagnostics


@pytest.fixture
def contractions(monkeypatch):
    """Record the (n_theta, n_phi) of every (grid, strain) coupling the
    quadrature engine fills, one entry per strain of each _contract call."""
    calls = []
    original = radiation._contract

    def counting(substrate, n_theta, n_phi, strains, threads):
        calls.extend([(n_theta, n_phi)] * len(strains))
        return original(substrate, n_theta, n_phi, strains, threads)

    monkeypatch.setattr(radiation, "_contract", counting)
    return calls


@pytest.fixture
def held(monkeypatch):
    """Record the bytes of couplings a table holds after each request."""
    sizes = []

    class Recording(radiation._CouplingTable):
        def get(self, *args):
            out = super().get(*args)
            sizes.append(sum(m.nbytes for m in self._m.values()))
            return out

    monkeypatch.setattr(radiation, "_CouplingTable", Recording)
    return sizes


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire"])
def test_sweep_equals_independent_points(db, ln, name, axis):
    substrate = db[name]
    mode = make_mode(substrate)
    inc = _waveguide(ln)
    got = sweep(mode, inc, substrate, axis, AXES[axis], QUAD)
    for v, r in zip(AXES[axis], got.results):
        m, point = sweep_point(mode, [inc], axis, float(v))
        assert _same(r, refined_rate(m, point, substrate, QUAD))


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire"])
def test_dual_sweep_equals_independent_separations(db, ln, name):
    substrate = db[name]
    mode = make_mode(substrate)
    inc = _waveguide(ln)
    seps = [np.array([s, 0.0, 0.0]) for s in (1e-6, 2e-6, 4e-6)]
    got = dual_waveguide_sweep(mode, inc, substrate, seps, -1, QUAD)
    for sep, r in zip(seps, got):
        ref = dual_waveguide_rate(mode, inc, substrate, sep, -1, QUAD)
        assert _same(r.pair, ref.pair)
        assert _same(r.single, ref.single)
        assert r.suppression_ratio == ref.suppression_ratio


@pytest.mark.parametrize(
    "axis,values,per_point",
    [
        ("height", np.linspace(0.1e-6, 0.3e-6, 6), False),
        # E_zp grows as sqrt(omega0), so every frequency has its own strain
        ("omega0", 2 * np.pi * np.linspace(6e9, 11e9, 6), True),
    ],
)
def test_sweep_contractions(db, ln, contractions, axis, values, per_point):
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate)
    one = sweep(mode, _bar(ln), substrate, axis, values[:1], LOOSE)
    n_one = len(contractions)
    contractions.clear()
    six = sweep(mode, _bar(ln), substrate, axis, values, LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in one.results + six.results)
    # one strain on the 16x32 coarse and the 32x64 fine grid
    assert n_one == 2
    assert len(contractions) == (6 * n_one if per_point else n_one)


def test_frequency_sweep_holds_one_point_of_couplings(db, ln, held):
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate)
    freqs = 2 * np.pi * np.linspace(6e9, 11e9, 6)
    sweep(mode, _bar(ln), substrate, "omega0", freqs[:1], LOOSE)
    peak_one = max(held)
    held.clear()
    six = sweep(mode, _bar(ln), substrate, "omega0", freqs, LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in six.results)
    # one strain on the 16x32 and 32x64 grids: 3 branches x (512 + 2048) nodes
    assert peak_one == 3 * (512 + 2048) * 8
    assert max(held) == peak_one


def test_pair_shares_the_coupling_of_its_copies(db, ln, contractions):
    substrate = db["sapphire"]
    mode = make_mode(substrate)
    bar = _bar(ln)
    refined_rate(mode, bar, substrate, LOOSE)
    n_single = len(contractions)
    contractions.clear()
    pair = [
        dataclasses.replace(bar, center=np.array([0.5e-6, 0.0, 0.0])),
        dataclasses.replace(bar, center=np.array([-0.5e-6, 0.0, 0.0]), sign=-1),
    ]
    refined_rate(mode, pair, substrate, LOOSE)
    assert n_single == 2
    assert len(contractions) == n_single
    contractions.clear()
    seps = [np.array([s, 0.0, 0.0]) for s in (0.5e-6, 1e-6, 2e-6)]
    duals = dual_waveguide_sweep(mode, bar, substrate, seps, -1, LOOSE)
    assert all(r.pair.diagnostics.refinements == 0 for r in duals)
    assert len(contractions) == n_single


def test_lone_mie_rate_shares_the_coupling_of_its_copies(db, ln, contractions):
    substrate = db["sapphire"]
    bar = _bar(ln)
    pair = [
        dataclasses.replace(bar, center=np.array([0.5e-6, 0.0, 0.0])),
        dataclasses.replace(bar, center=np.array([-0.5e-6, 0.0, 0.0]), sign=-1),
    ]
    mie_rate(make_mode(substrate), pair, substrate, LOOSE)
    # one strain on the 16x32 coarse and the 32x64 fine grid
    assert contractions == [(16, 32), (32, 64)]


def test_refinement_rerun_reuses_its_coarse_couplings(db, ln, contractions):
    substrate = db["sapphire_iso"]
    cube = dataclasses.replace(_waveguide(ln), dimensions=np.full(3, 0.5e-6))
    r = refined_rate(make_mode(substrate), cube, substrate, QuadratureSpec(4, 8, tolerance=1e-6))
    # Three mie_rate calls use 4x8/8x16, 8x16/16x32 and 16x32/32x64: four
    # distinct grids, each contracted once.
    assert r.diagnostics.refinements == 2
    assert sorted(contractions) == [(4, 8), (8, 16), (16, 32), (32, 64)]


def test_orientation_scan_solves_stresses_only_in_table_builds(db, ln, monkeypatch):
    substrate = dataclasses.replace(db["sapphire"])  # a copy with no tables yet
    mode = make_mode(substrate)
    solves, stresses = [], []
    solve, stress = elastodynamics.christoffel_many, elastodynamics._voigt_stresses

    def counting_solve(material, khats):
        solves.append(khats.shape[0])
        return solve(material, khats)

    def counting_stress(c, khats, pols):
        stresses.append(khats.shape[0])
        return stress(c, khats, pols)

    monkeypatch.setattr(elastodynamics, "christoffel_many", counting_solve)
    monkeypatch.setattr(elastodynamics, "_voigt_stresses", counting_stress)
    einsum_stresses = []  # the oracle's einsum form has no caller here
    for module in (elastodynamics, radiation):
        monkeypatch.setattr(module, "stress_pattern", lambda *args: einsum_stresses.append(args))
    scan = sweep_orientation(mode, _bar(ln), substrate, np.linspace(0.0, np.pi, 6), quad=LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in scan.results)
    # the 16x32 grid (coarse, regime tag and G) and the 32x64 fine grid, one
    # span each, built once: all 3 branches per span and nothing per angle
    assert sorted(solves) == [16 * 32, 32 * 64]
    assert sorted(stresses) == [16 * 32, 32 * 64]
    assert einsum_stresses == []


def test_orientation_scan_makes_one_coupling_table(db, ln, monkeypatch):
    substrate = db["sapphire"]
    made = []

    class Counting(radiation._CouplingTable):
        def __init__(self, substrate):
            made.append(1)
            super().__init__(substrate)

    monkeypatch.setattr(radiation, "_CouplingTable", Counting)
    angles = np.linspace(0.0, np.pi, 6)
    scan = sweep_orientation(make_mode(substrate), _bar(ln), substrate, angles, quad=LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in scan.results)
    assert len(made) == 1  # one for the whole scan, not one per angle


def test_threads_do_not_change_shared_results(db, ln):
    substrate = db["sapphire"]
    mode = make_mode(substrate)
    inc = _waveguide(ln)
    seps = [np.array([s, 0.0, 0.0]) for s in (1e-6, 3e-6)]
    out = {}
    for threads in (1, 2):
        quad = QuadratureSpec(32, 64, threads=threads)  # the fine grid spans 4 chunks
        out[threads] = (
            sweep(mode, inc, substrate, "height", AXES["height"], quad).results,
            [r.pair for r in dual_waveguide_sweep(mode, inc, substrate, seps, -1, quad)],
        )
    for serial, threaded in zip(out[1], out[2]):
        assert all(_same(a, b) for a, b in zip(serial, threaded))


@pytest.mark.parametrize("scenario,axis", [("mie", "height_um"), ("dual_waveguide", "separation_um")])
def test_threads_do_not_change_csv_bytes(tmp_path, scenario, axis):
    cfg = {
        "scenario": scenario,
        "substrate": "sapphire",
        "mode": {"frequency_GHz": 10.0, "mode_volume_um3": 8000.0, "field_direction": [0, 1, 0]},
        "inclusions": [
            {
                "material": "lithium_niobate",
                "dimensions_um": [0.5, 1.0, 5.0],
                "orientation": {"matrix": XCUT_MATRIX.tolist()},
            }
        ],
        "sweep": {"axis": axis, "grid": "linear", "start": 1.0, "stop": 2.0, "count": 3},
        "quadrature": {"n_theta": 32, "n_phi": 64},
    }
    data = []
    for threads in (1, 2):
        cfg["quadrature"]["threads"] = threads
        path = tmp_path / f"t{threads}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"t{threads}.csv"
        assert main(["run", str(path), "--out", str(out)]) == 0
        data.append(out.read_bytes())
    assert data[0] == data[1]


def test_table_is_dropped_with_the_sweep(db, ln):
    substrate = dataclasses.replace(db["sapphire"])
    mode = make_mode(substrate)
    inc = _waveguide(ln)
    sweep(mode, inc, substrate, "height", AXES["height"], QUAD)
    dual_waveguide_sweep(mode, inc, substrate, [np.array([2e-6, 0.0, 0.0])], -1, QUAD)
    gc.collect()
    assert not any(isinstance(o, radiation._CouplingTable) for o in gc.get_objects())
    # the substrate gained its angular tables and nothing else
    ref = dataclasses.replace(db["sapphire"])
    for grid in substrate.angular_tables:
        angular_table(ref, *grid)
    assert vars(substrate).keys() == vars(ref).keys()
    assert substrate.angular_tables.keys() == ref.angular_tables.keys()


@pytest.mark.parametrize("edge_um,refinements", [(0.1, 1), (0.5, 2)])
def test_refinement_count_is_recorded(db, ln, edge_um, refinements):
    substrate = db["sapphire_iso"]
    cube = dataclasses.replace(_waveguide(ln), dimensions=np.full(3, edge_um * 1e-6))
    r = refined_rate(make_mode(substrate), cube, substrate, QuadratureSpec(4, 8, tolerance=1e-6))
    assert r.diagnostics.converged
    assert r.diagnostics.refinements == refinements
    assert r.diagnostics.n_theta == 8 * 2**refinements


def test_default_point_reports_no_refinement(db, ln):
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate)
    cube = dataclasses.replace(_waveguide(ln), dimensions=np.full(3, 10e-9))
    assert refined_rate(mode, cube, substrate).diagnostics.refinements == 0
    assert mie_rate(mode, cube, substrate).diagnostics.refinements == 0
