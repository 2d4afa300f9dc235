"""The sweep-scoped tables behind the quadrature engine.

The coupling M_q = tau_q : S depends only on the substrate, the grid, the
branch and the inclusion strain, so a sweep computes it once per (grid,
strain) and shares it between its points.  The strain S = d . E follows the
zero-point field, which grows with the frequency, so an omega0 sweep has a new
strain at every point.  Each sinc column of the form factor depends on the
grid, omega0, its axis and the inclusion's length along it, and the wave
factors k0, A and B on the grid and omega0 alone.  The stress pattern tau
itself is substrate-only and comes from the angular table.  These tests pin
down that sharing changes no bit of any result, that the contraction runs
once per height sweep and once per frequency point, that each sinc column
and each wave entry is built once for what it depends on, that a frequency
sweep holds one point's couplings and wave entries at a time, that an orientation
scan solves tau only while it builds tables, that the tables die with the
sweep, and that refined_rate records how many refinements it needed.  A lone
mie_rate and an orientation scan read sweep tables too, one per call.
"""

import dataclasses
import gc
import types

import numpy as np
import pytest

import phonoscat.elastodynamics as elastodynamics
import phonoscat.radiation as radiation
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import AngularTable, _table_key, angular_table
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
def passes(monkeypatch):
    """Record each grid pass's one ``_SweepTables.factors`` call: its
    (n_theta, n_phi) while it runs (``grid``), the (n_theta, n_phi) of every
    (grid, strain) coupling its M build contracts (``m``), and after it the
    bytes of couplings (``m_bytes``), the sorted (grid, omega0) wave keys
    (``wave_keys``) and the number of sinc columns (``sinc_count``) the table
    then holds."""
    log = types.SimpleNamespace(grid=None, m_store=None, m=[], m_bytes=[], wave_keys=[], sinc_count=[])
    fetch = radiation._fetch

    def counting_fetch(store, grid, tags, build):
        def counted(missing):
            if store is log.m_store:
                log.m.extend([grid] * len(missing))
            return build(missing)

        return fetch(store, grid, tags, counted)

    class Recording(radiation._SweepTables):
        def factors(self, n_theta, n_phi, *args):
            log.grid, log.m_store = (n_theta, n_phi), self._m
            out = super().factors(n_theta, n_phi, *args)
            log.m_bytes.append(sum(m.nbytes for m in self._m.values()))
            log.wave_keys.append(sorted(self._wave))
            log.sinc_count.append(len(self._sinc))
            return out

    monkeypatch.setattr(radiation, "_fetch", counting_fetch)
    monkeypatch.setattr(radiation, "_SweepTables", Recording)
    return log


@pytest.fixture
def contractions(passes):
    """The (n_theta, n_phi) of every (grid, strain) coupling the quadrature
    engine contracts, one entry per strain."""
    return passes.m


@pytest.fixture
def held(passes):
    """The bytes of couplings a table holds after each grid pass."""
    return passes.m_bytes


def _lone(result, mode, inclusions, substrate, quad):
    """The result equals the point's own refined_rate, bit for bit."""
    return _same(result, refined_rate(mode, inclusions, substrate, quad))


# 32 x 64: the fine grid spans two node spans
SPANS = QuadratureSpec(32, 64)


def _sweep_equals_independent_points(substrate, inc, axis):
    """Each point equals its lone refined_rate bit for bit, whichever sweep
    tables it shares with earlier points."""
    mode = make_mode(substrate)
    values = np.append(AXES[axis], AXES[axis][0])  # a value seen before
    got = sweep(mode, inc, substrate, axis, values, SPANS)
    for v, r in zip(values, got.results):
        m, point = sweep_point(mode, [inc], axis, float(v))
        assert _lone(r, m, point, substrate, SPANS)


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_sweep_equals_independent_points(db, ln, name, axis):
    """A centred waveguide: the coherent sum is accumulated as a real array."""
    _sweep_equals_independent_points(db[name], _waveguide(ln), axis)


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_off_centre_sweep_equals_independent_points(db, ln, name, axis):
    """An off-centre waveguide: the coherent sum carries the phase."""
    _sweep_equals_independent_points(db[name], _waveguide(ln, center=(0.2e-6, -0.1e-6, 0.0)), axis)


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


@pytest.fixture
def builds(monkeypatch):
    """Record the (grid, axis) of every sinc column the quadrature engine
    builds."""
    calls = []
    sinc_columns = radiation._sinc_columns

    def counting_sinc_columns(table, n_theta, n_phi, k0, axis_lengths):
        calls.extend(((n_theta, n_phi), axis) for axis, _ in axis_lengths)
        return sinc_columns(table, n_theta, n_phi, k0, axis_lengths)

    monkeypatch.setattr(radiation, "_sinc_columns", counting_sinc_columns)
    return calls


GRIDS = [(16, 32), (32, 64)]  # the coarse and fine grid of LOOSE


def _per_grid(axes, points):
    return sorted(((grid, axis) for grid in GRIDS for axis in axes for _ in range(points)))


@pytest.mark.parametrize(
    "axis,values,per_point_axes",
    [
        ("height", np.linspace(0.1e-6, 0.3e-6, 12), (0, 1)),
        ("thickness", np.linspace(0.3e-6, 0.6e-6, 12), (2,)),
    ],
)
def test_sweep_builds_each_column_once_for_what_it_depends_on(db, ln, builds, axis, values, per_point_axes):
    """A height point builds its x and y columns, a thickness point its z
    column; the other columns are built once per grid."""
    substrate = db["sapphire"]
    got = sweep(make_mode(substrate), _bar(ln), substrate, axis, values, LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in got.results)
    shared_axes = [a for a in range(3) if a not in per_point_axes]
    assert sorted(builds) == sorted(_per_grid(per_point_axes, 12) + _per_grid(shared_axes, 1))


def test_height_sweep_holds_one_point_of_columns(db, ln, passes):
    """After the first point, the tables hold per grid the shared z column,
    the latest point's x and y columns."""
    held = passes.sinc_count
    substrate = db["sapphire_iso"]
    got = sweep(make_mode(substrate), _bar(ln), substrate, "height", np.linspace(0.1e-6, 0.3e-6, 6), LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in got.results)
    # the coarse, then the fine grid of each point
    assert held == [3, 6] + [4, 6] * 5


def test_frequency_point_builds_every_column(db, ln, builds):
    substrate = db["sapphire_iso"]
    freqs = 2 * np.pi * np.linspace(6e9, 11e9, 4)
    got = sweep(make_mode(substrate), _bar(ln), substrate, "omega0", freqs, LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in got.results)
    assert sorted(builds) == _per_grid(range(3), 4)


def test_separation_and_orientation_points_build_no_column(db, ln, builds):
    substrate = db["sapphire"]
    mode = make_mode(substrate)
    seps = [np.array([s, 0.0, 0.0]) for s in (0.5e-6, 1e-6, 2e-6)]
    duals = dual_waveguide_sweep(mode, _bar(ln), substrate, seps, -1, LOOSE)
    assert all(r.pair.diagnostics.refinements == 0 for r in duals)
    # the single baseline builds the three columns of each grid, and the
    # two copies of every pair read them
    assert sorted(builds) == _per_grid(range(3), 1)
    builds.clear()
    scan = sweep_orientation(mode, _bar(ln), substrate, np.linspace(0.0, np.pi, 5), quad=LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in scan.results)
    assert sorted(builds) == _per_grid(range(3), 1)


@pytest.mark.parametrize("name", ["sapphire", "silicon"])
def test_every_separation_equals_its_lone_refined_rate(db, ln, name):
    substrate = db[name]
    mode = make_mode(substrate)
    inc = _waveguide(ln)
    seps = [np.array([s, 0.0, 0.0]) for s in (1e-6, 2e-6, 4e-6)]
    got = dual_waveguide_sweep(mode, inc, substrate, seps, -1, SPANS)
    for sep, r in zip(seps, got):
        first = dataclasses.replace(inc, center=inc.center + sep / 2)
        second = dataclasses.replace(inc, center=inc.center - sep / 2, sign=-inc.sign)
        assert _lone(r.pair, mode, [first, second], substrate, SPANS)
        assert _lone(r.single, mode, [inc], substrate, SPANS)


@pytest.mark.parametrize("name", ["sapphire", "silicon"])
def test_every_orientation_equals_its_lone_refined_rate(db, ln, name):
    substrate = db[name]
    mode = make_mode(substrate)
    inc = _waveguide(ln)
    angles = np.linspace(0.0, np.pi, 4)
    axis = np.array([1.0, -1.0, 2.0])
    scan = sweep_orientation(mode, inc, substrate, angles, axis=axis, quad=SPANS)
    for angle, r in zip(angles, scan.results):
        turned = Orientation.about_axis(axis, float(angle)).compose(inc.orientation)
        assert _lone(r, mode, [dataclasses.replace(inc, orientation=turned)], substrate, SPANS)


def test_wave_entry_is_the_per_node_products_bit_for_bit(db):
    """k0, A and B in the float order the golden-rule pass used when it
    computed them per span, as contiguous read-only (3, N) rows."""
    substrate = db["sapphire"]
    omega0 = 2 * np.pi * 7.3e9
    hbar = radiation.CONSTANTS.hbar
    golden = (2 * np.pi / hbar**2) * (1.0 / (8 * np.pi**3))
    u0_sq = hbar / (2 * substrate.rho * omega0)
    v = angular_table(substrate, 16, 32).velocities
    wave = radiation._wave(angular_table(substrate, 16, 32), substrate.rho, omega0)
    for row in wave:
        assert row.shape == (3, 512) and row.flags.c_contiguous and not row.flags.writeable
    for q in range(3):
        k0 = omega0 / v[q]
        k0_sq = k0 * k0
        assert np.array_equal(wave.k0[q], k0)
        assert np.array_equal(wave.A[q], golden * (k0_sq / v[q]))
        assert np.array_equal(wave.B[q], k0_sq * u0_sq)


@pytest.fixture
def waves(monkeypatch, passes):
    """Record the (grid, omega0) of every wave entry the engine builds, and
    the (grid, omega0) keys a table holds after each grid pass."""
    built = []
    wave = radiation._wave

    def counting(table, rho, omega0):
        built.append((passes.grid, omega0))
        return wave(table, rho, omega0)

    monkeypatch.setattr(radiation, "_wave", counting)
    return built, passes.wave_keys


def test_height_sweep_builds_one_wave_entry_per_grid(db, ln, waves):
    built, _ = waves
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate)
    got = sweep(mode, _bar(ln), substrate, "height", np.linspace(0.1e-6, 0.3e-6, 12), LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in got.results)
    assert built == [(grid, mode.omega0) for grid in GRIDS]


def test_frequency_sweep_holds_one_wave_entry_per_grid(db, ln, waves):
    built, held = waves
    substrate = db["sapphire_iso"]
    freqs = 2 * np.pi * np.linspace(6e9, 11e9, 6)
    got = sweep(make_mode(substrate), _bar(ln), substrate, "omega0", freqs, LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in got.results)
    assert built == [(grid, f) for f in freqs for grid in GRIDS]
    # per point the coarse grid's entry, then the coarse and the fine grid's
    changes = [keys for i, keys in enumerate(held) if i == 0 or keys != held[i - 1]]
    assert changes == [keys for f in freqs for keys in ([(GRIDS[0], f)], [(GRIDS[0], f), (GRIDS[1], f)])]


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


def test_orientation_scan_solves_stresses_only_in_table_builds(db, ln, monkeypatch, empty_memo):
    substrate = db["sapphire"]
    mode = make_mode(substrate)
    solves, stresses = [], []
    solve, stress = elastodynamics.christoffel_many, elastodynamics._voigt_stresses

    def counting_solve(material, khats):
        solves.append(khats.shape[0])
        return solve(material, khats)

    def counting_stress(c, kt, pols):
        stresses.append(kt.shape[1])  # (3, n) direction rows
        return stress(c, kt, pols)

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
    assert set(empty_memo) == {_table_key(substrate, 16, 32), _table_key(substrate, 32, 64)}
    assert einsum_stresses == []


def test_orientation_scan_makes_one_coupling_table(db, ln, monkeypatch):
    substrate = db["sapphire"]
    made = []

    class Counting(radiation._SweepTables):
        def __init__(self, substrate):
            made.append(1)
            super().__init__(substrate)

    monkeypatch.setattr(radiation, "_SweepTables", Counting)
    angles = np.linspace(0.0, np.pi, 6)
    scan = sweep_orientation(make_mode(substrate), _bar(ln), substrate, angles, quad=LOOSE)
    assert all(r.diagnostics.refinements == 0 for r in scan.results)
    assert len(made) == 1  # one for the whole scan, not one per angle


def test_table_is_dropped_with_the_sweep(db, ln, empty_memo):
    substrate = dataclasses.replace(db["sapphire"])
    mode = make_mode(substrate)
    inc = _waveguide(ln)
    sweep(mode, inc, substrate, "height", AXES["height"], QUAD)
    dual_waveguide_sweep(mode, inc, substrate, [np.array([2e-6, 0.0, 0.0])], -1, QUAD)
    gc.collect()
    assert not any(isinstance(o, radiation._SweepTables) for o in gc.get_objects())
    # the memo gained the substrate's angular tables and nothing else, and the
    # substrate itself gained nothing that a table build does not cache
    assert set(empty_memo) == {_table_key(substrate, n, 2 * n) for n in (16, 32, 64)}
    assert all(type(t) is AngularTable for t in empty_memo.values())
    ref = dataclasses.replace(db["sapphire"])
    angular_table(ref, 8, 16)
    assert vars(substrate).keys() == vars(ref).keys()


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
