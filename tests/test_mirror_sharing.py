"""The engine's sharing of work between mirrored rings and mirrored centres.

numpy's ``leggauss`` symmetrizes its nodes, so on every engine grid ring
n_theta-1-i has the khat_x and khat_y of ring i and the negated khat_z.  On a
substrate symmetric under z -> -z the velocities of the two rings are equal
bit for bit too, and the angular table records that once as ``mirrored``.
The sinc columns are then computed on half the rings and copied, and the
coherent sum reuses the cosine and the negated sine of the phase for a
centre that negates an earlier one.  These tests pin down which tables are
mirrored, that both shortcuts give the bits of the full computation they
replace (the references below are that computation, as the engine ran it
before), and that they halve the counted work where they apply and leave it
alone where they do not.  The golden-rule pass itself, which reads k0, A and
B from a wave entry and evaluates the three branches together, is checked
against the pass that computed them per span, one branch at a time.
"""

import dataclasses

import numpy as np
import pytest

import phonoscat.radiation as radiation
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import _table_key, angular_table
from phonoscat.materials import Orientation
from phonoscat.mitigation import dual_waveguide_sweep
from phonoscat.radiation import QuadratureSpec, _coherent_power, _sinc, _sinc_columns, _sources, sweep

from conftest import XCUT_MATRIX, make_mode

# ---------------------------------------------------------------------------
# References: the full-grid sinc columns, one branch at a time; the coherent
# sum with a zeros start, a sign * ff multiply and one np.exp per inclusion;
# and the complex kernel that took the conjugate phase of a mirrored centre.


def _full_sinc_columns(substrate, n_theta, n_phi, k0, axis_lengths):
    grid = angular_table(substrate, n_theta, n_phi)
    cols = [np.empty((3, grid.khats.shape[0])) for _ in axis_lengths]
    for q in range(3):
        for col, (axis, length) in zip(cols, axis_lengths):
            col[q] = radiation._sinc(k0[q] * grid.khats[:, axis] * (length / 2.0))
    for col in cols:
        col.setflags(write=False)
    return cols


def _one_phase_each_coherent_power(src, vm, ff, kvec):
    centred = not np.any(src.center)
    coh = np.zeros(ff[0].shape, dtype=float if centred else complex)
    for j in range(src.volume.size):
        term = vm[j] * (src.sign[j] * ff[j])
        coh += term if centred else term * np.exp(1j * (kvec @ src.center[j]))
    return coh * coh if centred else coh.real**2 + coh.imag**2


def _complex_coherent_power(src, vm, ff, kvec):
    centred = not np.any(src.center)
    phases = []
    for j in range(src.volume.size):
        term = vm[j] * ff[j]
        if not centred:
            mirror = [p for p, r in zip(phases, src.center) if np.array_equal(r, -src.center[j])]
            phases.append(mirror[0].conj() if mirror else np.exp(1j * (kvec @ src.center[j])))
            term = term * phases[j]
        if j == 0:
            coh = term if src.sign[j] > 0 else -term
        else:
            (np.add if src.sign[j] > 0 else np.subtract)(coh, term, out=coh)
    return coh * coh if centred else coh.real**2 + coh.imag**2


TILT = Orientation.about_axis([1.0, 0.0, 0.0], 0.3)


def _substrate(db, name):
    """A bundled substrate, or ``name@x0.3``: it turned 0.3 rad about x."""
    base, _, turn = name.partition("@")
    return db[base].rotated(TILT) if turn else db[base]


# ---------------------------------------------------------------------------
# Which tables are mirrored


@pytest.mark.parametrize("grid", [(5, 8), (7, 12), (12, 24), (16, 32)])
@pytest.mark.parametrize("turn", [0.0, 0.7, 2.1])
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon"])
def test_z_symmetric_substrates_are_mirrored(db, empty_memo, name, turn, grid):
    """Odd and even n_theta, and any turn about z keeps z -> -z a symmetry."""
    substrate = db[name].rotated(Orientation.about_axis([0.0, 0.0, 1.0], turn))
    table = angular_table(substrate, *grid)
    assert table.mirrored is True
    rings = table.velocities.reshape(grid[0], grid[1], 3)
    assert np.array_equal(rings, rings[::-1])
    k = table.khats.reshape(grid[0], grid[1], 3)
    assert np.array_equal(k[..., :2], k[::-1, :, :2])
    assert np.array_equal(k[..., 2], -k[::-1, :, 2])


@pytest.mark.parametrize("grid", [(5, 8), (12, 24), (16, 32)])
@pytest.mark.parametrize("name", ["sapphire", "sapphire_iso@x0.3", "silicon@x0.3", "sapphire@x0.3"])
def test_other_substrates_are_not_mirrored(db, empty_memo, name, grid):
    assert angular_table(_substrate(db, name), *grid).mirrored is False


@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire"])
def test_the_oracle_table_is_not_mirrored(db, empty_memo, name):
    assert radiation._oracle_table(db[name]).mirrored is False


# ---------------------------------------------------------------------------
# Sinc columns on half the rings

AXIS_LENGTHS = [(0, 0.5e-6), (1, 1.0e-6), (2, 5.0e-6), (2, 0.02e-6), (0, 3.3e-6)]


def _k0(substrate, grid, omega0):
    """The wave entry's k0 rows, checked against omega0 / v of each branch."""
    k0 = radiation._wave(substrate, *grid, omega0).k0
    velocities = angular_table(substrate, *grid).velocities
    assert all(np.array_equal(k0[q], omega0 / velocities[:, q]) for q in range(3))
    return k0


def _columns_equal_the_full_grid(substrate, grid, omega0):
    k0 = _k0(substrate, grid, omega0)
    got = _sinc_columns(substrate, *grid, k0, AXIS_LENGTHS)
    want = _full_sinc_columns(substrate, *grid, k0, AXIS_LENGTHS)
    for g, w in zip(got, want):
        assert g.shape == w.shape and not g.flags.writeable
        assert np.array_equal(g, w)


@pytest.mark.parametrize("grid", [(7, 12), (8, 16), (9, 5), (64, 128)])
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire", "sapphire_iso@x0.3"])
def test_sinc_columns_equal_the_full_grid_bit_for_bit(db, empty_memo, name, grid):
    substrate = _substrate(db, name)
    for f_hz in (1e9, 10e9, 47e9):
        _columns_equal_the_full_grid(substrate, grid, 2 * np.pi * f_hz)


@pytest.mark.parametrize("grid", [(7, 12), (8, 16)])
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon"])
def test_an_unmirrored_table_gives_the_same_columns(db, empty_memo, name, grid):
    """The flag forced False takes the whole grid, with the same bits."""
    substrate = db[name]
    omega0 = 2 * np.pi * 10e9
    k0 = _k0(substrate, grid, omega0)
    mirrored = _sinc_columns(substrate, *grid, k0, AXIS_LENGTHS)
    table = angular_table(substrate, *grid)
    assert table.mirrored
    empty_memo[_table_key(substrate, *grid)] = dataclasses.replace(table, mirrored=False)
    _columns_equal_the_full_grid(substrate, grid, omega0)
    for a, b in zip(mirrored, _sinc_columns(substrate, *grid, k0, AXIS_LENGTHS)):
        assert np.array_equal(a, b)


def _libm_arguments():
    """Signed zeros, subnormals, 400,001 log-spaced magnitudes up to 1e300,
    uniform draws and multiples of pi."""
    tiny = np.finfo(float).tiny
    return np.concatenate(
        [
            [0.0, -0.0, 5e-324, 1e-320, tiny / 4, tiny, 2 * tiny, 1e-300, np.pi, np.finfo(float).max],
            np.logspace(-8, 300, 400_001),
            np.random.default_rng(3).uniform(0.0, 1e4, 100_000),
            np.pi * np.arange(1, 1001),
        ]
    )


def test_sinc_is_even_bit_for_bit():
    """sin must be odd in the platform's libm, down to signed zeros and
    subnormals: the mirrored columns rest on sinc(-x) == sinc(x)."""
    x = _libm_arguments()
    assert np.array_equal(_sinc(-x), _sinc(x))
    assert np.array_equal(np.sin(-x), -np.sin(x))


def test_imaginary_exp_is_cos_and_sin_bit_for_bit():
    """The coherent sum takes the phase exp(i x) as (cos x, sin x): the parts
    of np.exp(1j * x) must be exactly np.cos(x) and np.sin(x) on the
    running platform, for either sign of x (a signed zero may differ)."""
    x = _libm_arguments()
    for arg in (x, -x):
        phase = np.exp(1j * arg)
        assert np.array_equal(phase.real, np.cos(arg))
        assert np.array_equal(phase.imag, np.sin(arg))


@pytest.mark.parametrize("name, n_theta, computed", [("sapphire_iso", 8, 4), ("silicon", 7, 4), ("sapphire", 8, 8)])
def test_a_mirrored_table_evaluates_half_the_rings(db, empty_memo, monkeypatch, name, n_theta, computed):
    elements = []
    monkeypatch.setattr(radiation, "_sinc", lambda x: elements.append(x.size) or _sinc(x))
    k0 = radiation._wave(db[name], n_theta, 16, 2 * np.pi * 10e9).k0
    _sinc_columns(db[name], n_theta, 16, k0, AXIS_LENGTHS)
    # one call per column, on all three branches at once
    assert elements == [3 * computed * 16] * len(AXIS_LENGTHS)


# ---------------------------------------------------------------------------
# One phase per mirrored pair of centres, as a real cosine and sine


def _inc(ln, center, sign=1, dims=(0.5e-6, 1.0e-6, 5.0e-6)):
    return Inclusion(np.array(dims), np.asarray(center, dtype=float), ln, Orientation(XCUT_MATRIX), sign)


D = np.array([0.7e-6, -0.2e-6, 0.4e-6])
BASE = np.array([0.3e-6, 0.0, -0.1e-6])

CENTRES = {
    "one centred": [0 * D],
    "one off-centre": [D],
    "pair centred": [0 * D, 0 * D],
    "pair mirrored": [D, -D],
    "pair mirrored on an axis": [np.array([0.6e-6, 0.0, 0.0]), np.array([-0.6e-6, 0.0, 0.0])],
    "pair about a base centre": [BASE + D / 2, BASE - D / 2],
    "pair one centred": [0 * D, D],
    "three, mirror apart": [D, BASE, -D],
    "three, mirror and origin": [-D, 0 * D, D],
    "three centred": [0 * D, 0 * D, 0 * D],
}


def _kernel_inputs(db, ln, centres, signs, branch=0):
    """Realistic per-node factors on a 16x32 sapphire grid, with exact zeros
    of both signs mixed in, and a kvec with a zero row: the (N,) rows of one
    branch, or with ``branch`` None the (3, N) blocks of all three, as the
    engine passes them."""
    substrate = db["sapphire"]
    mode = make_mode(substrate)
    rng = np.random.default_rng([len(centres), *(s + 1 for s in signs)])
    incs = [_inc(ln, c, s, dims=rng.uniform(0.1e-6, 2e-6, 3)) for c, s in zip(centres, signs)]
    src = _sources(mode, incs)
    grid = angular_table(substrate, 16, 32)
    kvec = (mode.omega0 / grid.velocities.T)[:, :, None] * grid.khats
    kvec[:, 3] = 0.0
    vm = [rng.normal(size=kvec.shape[:2]) for _ in incs]
    ff = [np.prod([_sinc(kvec[..., a] * (L[a] / 2.0)) for a in range(3)], axis=0) for L in src.dims]
    vm[0][:, :4] = [0.0, -0.0, 0.0, -0.0]
    ff[-1][:, 4:8] = [-0.0, 0.0, 0.0, -0.0]
    if branch is None:
        return src, vm, ff, kvec
    return src, [x[branch] for x in vm], [x[branch] for x in ff], kvec[branch]


SIGNS = [(1, 1, 1), (1, -1, 1), (-1, -1, 1)]


@pytest.mark.parametrize("name", sorted(CENTRES))
def test_coherent_power_equals_one_phase_per_inclusion_bit_for_bit(db, ln, name):
    centres = CENTRES[name]
    for signs in SIGNS:
        src, vm, ff, kvec = _kernel_inputs(db, ln, centres, signs[: len(centres)])
        got = _coherent_power(src, vm, ff, kvec)
        assert np.array_equal(got, _one_phase_each_coherent_power(src, vm, ff, kvec))
        assert not np.any(np.signbit(got))


@pytest.mark.parametrize("name", sorted(CENTRES))
def test_coherent_power_equals_the_complex_kernel_bit_for_bit(db, ln, name):
    """The real cosine and sine give the bits of the complex np.exp kernel,
    on one branch's row and on the (3, N) block of all three branches."""
    centres = CENTRES[name]
    for signs in SIGNS:
        signs = signs[: len(centres)]
        src, vm, ff, kvec = _kernel_inputs(db, ln, centres, signs, branch=None)
        got = _coherent_power(src, vm, ff, kvec)
        assert got.shape == (3, 512) and not np.any(np.signbit(got))
        assert np.array_equal(got, _complex_coherent_power(src, vm, ff, kvec))
        for q in range(3):
            row = _kernel_inputs(db, ln, centres, signs, branch=q)
            assert np.array_equal(got[q], _coherent_power(*row))
            assert np.array_equal(got[q], _complex_coherent_power(*row))


@pytest.fixture
def exponentials(monkeypatch):
    """Record (function, elements) of every evaluation of a phase: each
    np.cos and np.sin call inside ``radiation._coherent_power``, and each
    complex np.exp call (the references' phase) anywhere."""
    counted, inside = [], []
    originals = {"cos": np.cos, "sin": np.sin, "exp": np.exp}

    def counting(name):
        def call(x, *args, **kwargs):
            if (inside and name != "exp") or (name == "exp" and np.iscomplexobj(x)):
                counted.append((name, np.size(x)))
            return originals[name](x, *args, **kwargs)

        return call

    def flagged(*args):
        inside.append(True)
        try:
            return _coherent_power(*args)
        finally:
            inside.pop()

    for name in originals:
        monkeypatch.setattr(np, name, counting(name))
    monkeypatch.setattr(radiation, "_coherent_power", flagged)
    return counted


@pytest.mark.parametrize(
    "name, calls", [("pair mirrored", 1), ("three, mirror and origin", 2), ("pair about a base centre", 2)]
)
def test_a_mirrored_centre_reuses_its_phase(db, ln, exponentials, name, calls):
    src, vm, ff, kvec = _kernel_inputs(db, ln, CENTRES[name], [1, -1, 1][: len(CENTRES[name])])
    radiation._coherent_power(src, vm, ff, kvec)
    assert exponentials == [("cos", kvec.shape[0]), ("sin", kvec.shape[0])] * calls


# ---------------------------------------------------------------------------
# End to end: the engine with the references patched in is the parent engine.


def _per_branch_gamma(mode, src, substrate, n_theta, n_phi):
    """The golden-rule pass one branch at a time on each span, with k0, A, B,
    M and every sinc computed there."""
    omega0 = mode.omega0
    hbar = radiation.CONSTANTS.hbar
    golden = (2 * np.pi / hbar**2) * (1.0 / (8 * np.pi**3))
    u0_sq = hbar / (2 * substrate.rho * omega0)
    grid = angular_table(substrate, n_theta, n_phi)
    n = grid.khats.shape[0]
    values = np.empty((3, n))
    for a in range(0, n, radiation._CHUNK):
        b = min(a + radiation._CHUNK, n)
        for q in range(3):
            vm = [vol * np.einsum("nij,ij->n", grid.stress(q, a, b), s) for vol, s in zip(src.volume, src.strain)]
            v = grid.velocities[a:b, q]
            k0 = omega0 / v
            cols = [[_sinc(k0 * grid.khats[a:b, axis] * (L[axis] / 2.0)) for axis in range(3)] for L in src.dims]
            ff = [(x * y) * z for x, y, z in cols]
            kvec = k0[:, None] * grid.khats[a:b]
            k0_sq = k0 * k0
            power = _one_phase_each_coherent_power(src, vm, ff, kvec)
            values[q, a:b] = golden * (k0_sq / v) * ((k0_sq * u0_sq) * power)
    return np.array([np.add.reduce(grid.weights * values[q]) for q in range(3)])


@pytest.mark.parametrize(
    "centres", ["one centred", "pair mirrored", "pair about a base centre", "three, mirror and origin"]
)
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire@x0.3"])
def test_gamma_branches_equals_the_per_branch_pass_bit_for_bit(db, ln, name, centres):
    """Both grids span partial node chunks (4608 = 2048 + 2048 + 512 and 45)."""
    substrate = _substrate(db, name)
    mode = make_mode(substrate, f_hz=7.3e9)
    dims = [(0.5e-6, 1.0e-6, 5.0e-6), (0.3e-6, 0.7e-6, 2.0e-6), (1.1e-6, 0.2e-6, 0.9e-6)]
    incs = [_inc(ln, c, s, d) for c, s, d in zip(CENTRES[centres], [1, -1, 1], dims)]
    src = _sources(mode, incs)
    tables = radiation._SweepTables(substrate)
    for grid in [(48, 96), (9, 5)]:
        got = radiation._gamma_branches(mode, src, tables, *grid, 1)
        assert np.array_equal(got, _per_branch_gamma(mode, src, substrate, *grid))


def _with_references(monkeypatch):
    monkeypatch.setattr(radiation, "_sinc_columns", _full_sinc_columns)
    monkeypatch.setattr(radiation, "_coherent_power", _one_phase_each_coherent_power)


@pytest.mark.parametrize("name, ratio", [("sapphire_iso", 2), ("sapphire", 1)])
def test_height_sweep_evaluates_half_the_sinc_elements(db, ln, monkeypatch, name, ratio):
    """12 heights at 64x128: every x and y column and the z column of each
    grid is evaluated on half the rings of a mirrored substrate."""
    substrate = db[name]
    mode = make_mode(substrate)
    inc = _inc(ln, (0.0, 0.0, 0.0))
    heights = np.linspace(0.5e-6, 1.5e-6, 12)
    elements = []
    monkeypatch.setattr(radiation, "_sinc", lambda x: elements.append(x.size) or _sinc(x))
    got = sweep(mode, inc, substrate, "height", heights, QuadratureSpec())
    halved = sum(elements)
    elements.clear()
    _with_references(monkeypatch)
    want = sweep(mode, inc, substrate, "height", heights, QuadratureSpec())
    assert sum(elements) == ratio * halved > 0
    for g, w in zip(got.results, want.results):
        assert np.array_equal(g.branch_rates, w.branch_rates) and g.diagnostics == w.diagnostics


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire"])
def test_dual_pair_point_evaluates_half_the_exponentials(db, ln, monkeypatch, exponentials, name):
    substrate = db[name]
    mode = make_mode(substrate)
    inc = dataclasses.replace(_inc(ln, (0.0, 0.0, 0.0)), dimensions=np.array([6e-9, 0.02e-6, 0.02e-6]))
    quad = QuadratureSpec(32, 64)
    got = dual_waveguide_sweep(mode, inc, substrate, [(0.05e-6, 0.0, 0.0)], -1, quad)[0]
    halved = {name: sum(n for f, n in exponentials if f == name) for name in ("cos", "sin", "exp")}
    exponentials.clear()
    _with_references(monkeypatch)
    want = dual_waveguide_sweep(mode, inc, substrate, [(0.05e-6, 0.0, 0.0)], -1, quad)[0]
    assert halved == {"cos": 3 * (32 * 64 + 64 * 128), "sin": 3 * (32 * 64 + 64 * 128), "exp": 0}
    assert {f for f, _ in exponentials} == {"exp"}
    assert sum(n for _, n in exponentials) == 2 * halved["cos"]
    assert np.array_equal(got.pair.branch_rates, want.pair.branch_rates)
    assert np.array_equal(got.single.branch_rates, want.single.branch_rates)
