"""The engine's sharing of work between mirrored rings and antipodal copies.

numpy's ``leggauss`` symmetrizes its nodes, so on every engine grid ring
n_theta-1-i has the khat_x and khat_y of ring i and the negated khat_z.  On a
substrate symmetric under z -> -z the velocities of the two rings are equal
bit for bit too, and the angular table records that once as ``mirrored``.
The sinc columns are then computed on half the rings and copied.  The
coherent sum takes one cosine and one sine per off-centre inclusion, except
for an antipodal pair (two copies with the same strain, |volume| and
dimensions at r and -r), which keeps one phase part, sin or cos, that the
kernel evaluates from each span's kvec.  These tests pin down which tables
are mirrored, that the shortcuts give the bits of the full computation they
replace (the references below are that computation, as the engine ran it
before, the parent kernels' reuse of a conjugate phase included), and that
they cut the counted work where they apply and leave it alone where they do
not.  The golden-rule pass itself, which reads k0, A and B from a wave entry
and evaluates the three branches together, is checked against the pass that
computed them per span, one branch at a time.
"""

import dataclasses

import numpy as np
import pytest

import conftest
import phonoscat.radiation as radiation
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import angular_table
from phonoscat.materials import Orientation
from phonoscat.mitigation import dual_waveguide_sweep
from phonoscat.radiation import QuadratureSpec, _coherent_power, _sinc, _sinc_columns, _sources, brute_force_rate, sweep

from conftest import XCUT_MATRIX, brute_force_reference, expand_voigt, make_mode

# ---------------------------------------------------------------------------
# References: the full-grid sinc columns, one branch at a time; the coherent
# sum with a zeros start, a sign * ff multiply and one np.exp per inclusion;
# the complex kernel that took the conjugate phase of a mirrored centre; and
# the real kernel that took (cos, -sin) of an earlier phase for a negated
# centre and (cos, sin) for every other centre.  The three kernels keep the
# parent's sign dispatch: they read each sign from the signed volume and
# take the unsigned V M back from ``vm`` (``_unsigned``).


def _full_sinc_columns(table, n_theta, n_phi, k0, axis_lengths):
    cols = [np.empty((3, table.weights.size)) for _ in axis_lengths]
    for q in range(3):
        for col, (axis, length) in zip(cols, axis_lengths):
            radiation._sinc(k0[q] * table.khats[axis] * (length / 2.0), out=col[q])
    for col in cols:
        col.setflags(write=False)
    return cols


def _unsigned(src, vm):
    """The sign of each source, read from its signed volume, and its V M
    without the sign, as the parent kernels took them: a product with +-1
    is exact."""
    sign = np.sign(src.volume)
    return sign, [s * v for s, v in zip(sign, vm)]


def _one_phase_each_coherent_power(src, vm, ff, kvec):
    sign, vm = _unsigned(src, vm)
    centred = not np.any(src.center)
    coh = np.zeros(ff[0].shape, dtype=float if centred else complex)
    for j in range(src.volume.size):
        term = vm[j] * (sign[j] * ff[j])
        coh += term if centred else term * np.exp(1j * (kvec @ src.center[j]))
    return coh * coh if centred else coh.real**2 + coh.imag**2


def _complex_coherent_power(src, vm, ff, kvec):
    sign, vm = _unsigned(src, vm)
    centred = not np.any(src.center)
    phases = []
    for j in range(src.volume.size):
        term = vm[j] * ff[j]
        if not centred:
            mirror = [p for p, r in zip(phases, src.center) if np.array_equal(r, -src.center[j])]
            phases.append(mirror[0].conj() if mirror else np.exp(1j * (kvec @ src.center[j])))
            term = term * phases[j]
        if j == 0:
            coh = term if sign[j] > 0 else -term
        else:
            (np.add if sign[j] > 0 else np.subtract)(coh, term, out=coh)
    return coh * coh if centred else coh.real**2 + coh.imag**2


def _real_coherent_power(src, vm, ff, kvec):
    sign, vm = _unsigned(src, vm)
    phases = []
    for j in range(src.volume.size):
        t = vm[j] * ff[j]
        if src.centred:
            terms = [t]
        else:
            mirror = [p for p, r in zip(phases, src.center) if np.array_equal(r, -src.center[j])]
            if mirror:
                c, s = mirror[0]
                phases.append((c, -s))
            else:
                arg = kvec @ src.center[j]
                phases.append((np.cos(arg), np.sin(arg)))
            terms = [t * part for part in phases[j]]
        if j == 0:
            sums = terms if sign[j] > 0 else [-term for term in terms]
        else:
            for acc, term in zip(sums, terms):
                (np.add if sign[j] > 0 else np.subtract)(acc, term, out=acc)
    if src.centred:
        (re,) = sums
        return re * re
    re, im = sums
    return re * re + im * im


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
    rings = table.velocities.reshape(3, *grid)
    assert np.array_equal(rings, rings[:, ::-1])
    k = table.khats.reshape(3, *grid)
    assert np.array_equal(k[:2], k[:2, ::-1])
    assert np.array_equal(k[2], -k[2, ::-1])


@pytest.mark.parametrize("grid", [(5, 8), (12, 24), (16, 32)])
@pytest.mark.parametrize("name", ["sapphire", "sapphire_iso@x0.3", "silicon@x0.3", "sapphire@x0.3"])
def test_other_substrates_are_not_mirrored(db, empty_memo, name, grid):
    assert angular_table(_substrate(db, name), *grid).mirrored is False


@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire"])
def test_the_oracle_table_is_not_mirrored(db, empty_memo, name):
    """The oracle's Simpson grid fails the engine's mirror test: linspace's
    theta is not symmetric about pi / 2 to the last bit.  So its table keeps
    no ``mirrored`` flag; its z classes find what symmetry there is."""
    table = radiation._oracle_table(db[name])
    assert not hasattr(table, "mirrored")
    grid = (radiation._BRUTE_THETA, radiation._BRUTE_PHI)
    rings, k = table.velocities.reshape(3, *grid), radiation._oracle_grid()[0].reshape(3, *grid)
    assert not np.array_equal(rings, rings[:, ::-1])
    assert not np.array_equal(k[2], -k[2, ::-1])


# ---------------------------------------------------------------------------
# Sinc columns on half the rings

AXIS_LENGTHS = [(0, 0.5e-6), (1, 1.0e-6), (2, 5.0e-6), (2, 0.02e-6), (0, 3.3e-6)]


def _k0(substrate, grid, omega0):
    """The wave entry's k0 rows, checked against omega0 / v of each branch."""
    k0 = radiation._wave(angular_table(substrate, *grid), substrate.rho, omega0).k0
    velocities = angular_table(substrate, *grid).velocities
    assert all(np.array_equal(k0[q], omega0 / velocities[q]) for q in range(3))
    return k0


def _columns_equal_the_full_grid(table, grid, k0):
    got = _sinc_columns(table, *grid, k0, AXIS_LENGTHS)
    want = _full_sinc_columns(table, *grid, k0, AXIS_LENGTHS)
    for g, w in zip(got, want):
        assert g.shape == w.shape and not g.flags.writeable
        assert np.array_equal(g, w)


@pytest.mark.parametrize("grid", [(7, 12), (8, 16), (9, 5), (64, 128)])
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire", "sapphire_iso@x0.3"])
def test_sinc_columns_equal_the_full_grid_bit_for_bit(db, empty_memo, name, grid):
    substrate = _substrate(db, name)
    for f_hz in (1e9, 10e9, 47e9):
        _columns_equal_the_full_grid(angular_table(substrate, *grid), grid, _k0(substrate, grid, 2 * np.pi * f_hz))


@pytest.mark.parametrize("grid", [(7, 12), (8, 16)])
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon"])
def test_an_unmirrored_table_gives_the_same_columns(db, empty_memo, name, grid):
    """The flag forced False takes the whole grid, with the same bits."""
    substrate = db[name]
    omega0 = 2 * np.pi * 10e9
    k0 = _k0(substrate, grid, omega0)
    table = angular_table(substrate, *grid)
    assert table.mirrored
    mirrored = _sinc_columns(table, *grid, k0, AXIS_LENGTHS)
    unmirrored = dataclasses.replace(table, mirrored=False)
    _columns_equal_the_full_grid(unmirrored, grid, k0)
    for a, b in zip(mirrored, _sinc_columns(unmirrored, *grid, k0, AXIS_LENGTHS)):
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
    assert np.array_equal(_sinc(-x, np.empty_like(x)), _sinc(x.copy(), np.empty_like(x)))
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
    monkeypatch.setattr(radiation, "_sinc", lambda x, out: elements.append(x.size) or _sinc(x, out))
    table = angular_table(db[name], n_theta, 16)
    k0 = radiation._wave(table, db[name].rho, 2 * np.pi * 10e9).k0
    _sinc_columns(table, n_theta, 16, k0, AXIS_LENGTHS)
    # one call per column, on all three branches at once
    assert elements == [3 * computed * 16] * len(AXIS_LENGTHS)


# ---------------------------------------------------------------------------
# One real cosine and sine per centre


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


def _kernel_inputs(db, ln, centres, signs, branch=0, twins=False):
    """Realistic per-node factors on a 16x32 sapphire grid, with exact zeros
    of both signs mixed in, and a kvec with a zero row: the (N,) rows of one
    branch, or with ``branch`` None the (3, N) blocks of all three, as the
    engine passes them.  Each ``vm[j]`` carries the sign of its signed
    volume, as the engine's V M does.  ``twins`` gives every inclusion the
    same dimensions and the same unsigned V M, as the copies of a dual pair
    have."""
    substrate = db["sapphire"]
    mode = make_mode(substrate)
    rng = np.random.default_rng([len(centres), *(s + 1 for s in signs)])
    dims = [rng.uniform(0.1e-6, 2e-6, 3) for _ in centres]
    incs = [_inc(ln, c, s, dims=dims[0] if twins else d) for c, s, d in zip(centres, signs, dims)]
    src = _sources(mode, incs)
    grid = angular_table(substrate, 16, 32)
    kvec = np.multiply((mode.omega0 / grid.velocities)[:, :, None], grid.khats.T, order="C")
    kvec[:, 3] = 0.0
    vm = [rng.normal(size=kvec.shape[:2]) for _ in incs]
    ff = [np.prod([np.sinc(kvec[..., a] * (L[a] / 2.0) / np.pi) for a in range(3)], axis=0) for L in src.dims]
    vm[0][:, :4] = [0.0, -0.0, 0.0, -0.0]
    for f in ff if twins else ff[-1:]:
        f[:, 4:8] = [-0.0, 0.0, 0.0, -0.0]
    if twins:
        vm = [vm[0].copy() for _ in incs]
    vm = [np.sign(vol) * v for vol, v in zip(src.volume, vm)]
    if branch is None:
        return src, vm, ff, kvec
    return src, [x[branch] for x in vm], [x[branch] for x in ff], kvec[branch]


SIGNS = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, -1)]


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
    on one branch's row and on the (3, N) block of all three branches, and
    a negated centre's own cosine and sine give the bits of the parent
    kernels' reused conjugate phase."""
    centres = CENTRES[name]
    for signs in SIGNS:
        signs = signs[: len(centres)]
        src, vm, ff, kvec = _kernel_inputs(db, ln, centres, signs, branch=None)
        got = _coherent_power(src, vm, ff, kvec)
        assert got.shape == (3, 512) and not np.any(np.signbit(got))
        assert np.array_equal(got, _complex_coherent_power(src, vm, ff, kvec))
        assert np.array_equal(got, _real_coherent_power(src, vm, ff, kvec))
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

    def flagged(function):
        def call(*args, **kwargs):
            inside.append(True)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()

        return call

    for name in originals:
        monkeypatch.setattr(np, name, counting(name))
    monkeypatch.setattr(radiation, "_coherent_power", flagged(radiation._coherent_power))
    return counted


@pytest.mark.parametrize("name", ["pair mirrored", "three, mirror and origin", "pair about a base centre"])
def test_each_centre_takes_one_cos_and_one_sin(db, ln, exponentials, name):
    """A centre that negates an earlier one, or sits at the origin, takes its
    own cosine and sine like any other; the same copies at r and -r (twins)
    are an antipodal pair, whose kernel evaluates one part (sin for signs
    +-) at each node; twins elsewhere take the same path as the others."""
    signs = [1, -1, 1][: len(CENTRES[name])]
    src, vm, ff, kvec = _kernel_inputs(db, ln, CENTRES[name], signs)
    assert src.part is None
    radiation._coherent_power(src, vm, ff, kvec)
    each = [("cos", kvec.shape[0]), ("sin", kvec.shape[0])] * len(CENTRES[name])
    assert exponentials == each
    exponentials.clear()
    src, vm, ff, kvec = _kernel_inputs(db, ln, CENTRES[name], signs, twins=True)
    radiation._coherent_power(src, vm, ff, kvec)
    if name == "pair mirrored":
        assert src.part == "sin" and exponentials == [("sin", kvec.shape[0])]
    else:
        assert src.part is None and exponentials == each


# ---------------------------------------------------------------------------
# An antipodal pair: one phase part

TWIN_SIGNS = [(1, -1), (-1, 1), (1, 1), (-1, -1)]


@pytest.mark.parametrize("signs", TWIN_SIGNS)
@pytest.mark.parametrize("name", ["pair mirrored", "pair mirrored on an axis"])
def test_antipodal_pair_equals_the_parent_kernel_bit_for_bit(db, ln, name, signs):
    """(3, N) blocks over magnitudes from subnormal terms to squares that
    overflow, with signed zeros: the pair's one part gives the bits of the
    parent kernel that evaluated cos and sin and reused the conjugate phase,
    and the kernel never writes into vm, ff or kvec."""
    src, vm, ff, kvec = _kernel_inputs(db, ln, CENTRES[name], signs, branch=None, twins=True)
    assert src.part == ("sin" if signs[0] != signs[1] else "cos")
    with np.errstate(over="ignore", under="ignore"):
        scale = 10.0 ** np.random.default_rng([s + 1 for s in signs]).uniform(-330.0, 160.0, vm[0].shape)
        vm = [v * scale for v in vm]
        part = getattr(np, src.part)(kvec @ src.center[0])
        term = vm[0] * ff[0] * part
        assert np.any((term != 0) & (np.abs(term) < np.finfo(float).tiny))
        assert np.any(np.isinf(4 * term * term))
        inputs = [x.copy() for x in vm + ff + [kvec]]
        want = _real_coherent_power(src, vm, ff, kvec)
        got = _coherent_power(src, vm, ff, kvec)
        assert np.array_equal(got, want) and not np.any(np.signbit(got))
    assert all(np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in zip(vm + ff + [kvec], inputs))


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
    n = grid.weights.size
    values = np.empty((3, n))
    for a in range(0, n, radiation._CHUNK):
        b = min(a + radiation._CHUNK, n)
        # the span's directions as C-contiguous (N, 3) node rows: matmul's
        # bits for kvec @ r depend on the layout
        nodes = np.ascontiguousarray(grid.khats[:, a:b].T)
        for q in range(3):
            vm = [vol * np.einsum("nij,ij->n", grid.stresses[q, a:b], s) for vol, s in zip(src.volume, src.strain)]
            v = grid.velocities[q, a:b]
            k0 = omega0 / v
            cols = [[np.sinc(k0 * nodes[:, axis] * (L[axis] / 2.0) / np.pi) for axis in range(3)] for L in src.dims]
            ff = [(x * y) * z for x, y, z in cols]
            kvec = k0[:, None] * nodes
            k0_sq = k0 * k0
            power = _one_phase_each_coherent_power(src, vm, ff, kvec)
            values[q, a:b] = golden * (k0_sq / v) * ((k0_sq * u0_sq) * power)
    return np.array([np.add.reduce(grid.weights * values[q]) for q in range(3)])


@pytest.mark.parametrize(
    "centres", ["one centred", "pair mirrored", "pair about a base centre", "three, mirror and origin"]
)
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire@x0.3"])
def test_gamma_branches_equals_the_per_branch_pass_bit_for_bit(db, ln, name, centres):
    """Both grids end in a partial node span (4608 = 4096 + 512 and 45)."""
    substrate = _substrate(db, name)
    mode = make_mode(substrate, f_hz=7.3e9)
    dims = [(0.5e-6, 1.0e-6, 5.0e-6), (0.3e-6, 0.7e-6, 2.0e-6), (1.1e-6, 0.2e-6, 0.9e-6)]
    incs = [_inc(ln, c, s, d) for c, s, d in zip(CENTRES[centres], [1, -1, 1], dims)]
    src = _sources(mode, incs)
    tables = radiation._SweepTables(substrate)
    for grid in [(48, 96), (9, 5)]:
        got = radiation._gamma_branches(mode, src, tables, *grid)
        assert np.array_equal(got, _per_branch_gamma(mode, src, substrate, *grid))


@pytest.mark.parametrize(
    "centres", ["one centred", "pair mirrored", "pair about a base centre", "three, mirror and origin"]
)
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire@x0.3"])
def test_the_span_size_changes_no_bit(db, ln, monkeypatch, name, centres):
    """Every per-node operation is elementwise and kvec @ r rounds the same
    in any span of two or more nodes, so 2048- and 4096-node spans give the
    same rates.  Both grids end in a partial span of more than one node
    under either size: 4608 = 2 x 2048 + 512 = 4096 + 512, and
    8710 = 4 x 2048 + 518 = 2 x 4096 + 518.  The mirrored pair is an
    antipodal pair, which takes one phase part."""
    substrate = _substrate(db, name)
    mode = make_mode(substrate, f_hz=7.3e9)
    src = _sources(mode, [_inc(ln, c, s) for c, s in zip(CENTRES[centres], [1, -1, 1])])
    assert src.part == ("sin" if centres == "pair mirrored" else None)
    for grid in [(48, 96), (67, 130)]:
        rates = []
        for chunk in (2048, 4096):
            monkeypatch.setattr(radiation, "_CHUNK", chunk)
            assert 1 < grid[0] * grid[1] % chunk
            rates.append(radiation._gamma_branches(mode, src, radiation._SweepTables(substrate), *grid))
        assert np.array_equal(rates[0].view(np.int64), rates[1].view(np.int64))


def _with_references(monkeypatch):
    monkeypatch.setattr(radiation, "_sinc_columns", _full_sinc_columns)
    monkeypatch.setattr(radiation, "_coherent_power", _one_phase_each_coherent_power)
    monkeypatch.setattr(radiation, "_sources", lambda *args: _sources(*args)._replace(part=None))


@pytest.mark.parametrize("name, ratio", [("sapphire_iso", 2), ("sapphire", 1)])
def test_height_sweep_evaluates_half_the_sinc_elements(db, ln, monkeypatch, name, ratio):
    """12 heights at 64x128: every x and y column and the z column of each
    grid is evaluated on half the rings of a mirrored substrate."""
    substrate = db[name]
    mode = make_mode(substrate)
    inc = _inc(ln, (0.0, 0.0, 0.0))
    heights = np.linspace(0.5e-6, 1.5e-6, 12)
    elements = []
    monkeypatch.setattr(radiation, "_sinc", lambda x, out: elements.append(x.size) or _sinc(x, out))
    got = sweep(mode, inc, substrate, "height", heights, QuadratureSpec())
    halved = sum(elements)
    elements.clear()
    _with_references(monkeypatch)
    want = sweep(mode, inc, substrate, "height", heights, QuadratureSpec())
    assert sum(elements) == ratio * halved > 0
    for g, w in zip(got.results, want.results):
        assert np.array_equal(g.branch_rates, w.branch_rates) and g.diagnostics == w.diagnostics


SMALL = np.array([6e-9, 0.02e-6, 0.02e-6])
PAIR_ELEMENTS = 3 * (32 * 64 + 64 * 128)  # a 32x64 point's two grids, three branches


def _phase_counts(exponentials):
    return {f: sum(n for g, n in exponentials if g == f) for f in ("cos", "sin", "exp")}


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire"])
def test_dual_pair_point_evaluates_half_the_exponentials(db, ln, monkeypatch, exponentials, name):
    """One part per node: sin for opposite signs, cos for equal ones, on the
    mirrored sapphire_iso and on sapphire alike, for a separation with or
    without a z component.  The reference engine takes one np.exp per copy
    and node."""
    substrate = db[name]
    mode = make_mode(substrate)
    inc = dataclasses.replace(_inc(ln, (0.0, 0.0, 0.0)), dimensions=SMALL)
    quad = QuadratureSpec(32, 64)
    assert PAIR_ELEMENTS == 30_720
    for separation in [(0.05e-6, 0.0, 0.0), (0.05e-6, 0.0, 0.03e-6)]:
        for relative_sign, part in [(-1, "sin"), (1, "cos")]:
            exponentials.clear()
            got = dual_waveguide_sweep(mode, inc, substrate, [separation], relative_sign, quad)[0]
            assert _phase_counts(exponentials) == {"cos": 0, "sin": 0, "exp": 0, part: PAIR_ELEMENTS}
            exponentials.clear()
            with monkeypatch.context() as patch:
                _with_references(patch)
                want = dual_waveguide_sweep(mode, inc, substrate, [separation], relative_sign, quad)[0]
            assert _phase_counts(exponentials) == {"cos": 0, "sin": 0, "exp": 2 * PAIR_ELEMENTS}
            assert np.array_equal(got.pair.branch_rates, want.pair.branch_rates)
            assert np.array_equal(got.single.branch_rates, want.single.branch_rates)
            assert got.pair.diagnostics == want.pair.diagnostics


@dataclasses.dataclass(frozen=True)
class _Heavier(Inclusion):
    """An inclusion whose volume is twice its box's."""

    @property
    def volume(self):
        return 2 * super().volume


def _twin_pair(ln, dims=SMALL, signs=(1, -1), center=(0.05e-6, 0.0, 0.0)):
    inc = dataclasses.replace(_inc(ln, center, signs[0]), dimensions=dims)
    return [inc, dataclasses.replace(inc, center=-inc.center, sign=signs[1])]


def _not_a_pair(ln, case):
    """Two or three inclusions that miss the rule by one thing."""
    first, second = _twin_pair(ln)
    if case == "dimensions":
        return [first, dataclasses.replace(second, dimensions=SMALL[[1, 0, 2]])]
    if case == "strain":
        turned = Orientation(Orientation.about_axis([0.0, 0.0, 1.0], 0.4).matrix @ XCUT_MATRIX)
        return [first, dataclasses.replace(second, orientation=turned)]
    if case == "volume":
        return [first, _Heavier(**{f.name: getattr(second, f.name) for f in dataclasses.fields(Inclusion)})]
    return [first, second, dataclasses.replace(first, center=np.zeros(3))]


@pytest.mark.parametrize("case, calls", [("dimensions", 2), ("strain", 2), ("volume", 2), ("three", 3)])
def test_a_near_pair_takes_the_general_path(db, ln, monkeypatch, exponentials, case, calls):
    """Copies that differ in dimensions (the same volume), strain or volume
    alone, or a third inclusion: cos and sin of every centre at every node."""
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate)
    incs = _not_a_pair(ln, case)
    assert _sources(mode, incs).part is None and not _sources(mode, incs).centred
    quad = QuadratureSpec(32, 64)
    got = radiation.mie_rate(mode, incs, substrate, quad)
    each = calls * PAIR_ELEMENTS
    assert _phase_counts(exponentials) == {"cos": each, "sin": each, "exp": 0}
    _with_references(monkeypatch)
    want = radiation.mie_rate(mode, incs, substrate, quad)
    assert np.array_equal(got.branch_rates, want.branch_rates) and got.diagnostics == want.diagnostics


@pytest.mark.parametrize("center, counts", [((0.1e-6, 0.0, 0.0), 3 * PAIR_ELEMENTS), ((0.0, 0.0, 0.0), 0)])
def test_an_off_origin_or_zero_separation_pair_keeps_its_path(db, ln, monkeypatch, exponentials, center, counts):
    """A pair about a non-zero centre (copies at c +- s/2) evaluates cos and
    sin for both copies, beside the off-centre baseline's one of each; a
    zero separation stays centred, with no phase."""
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate)
    inc = dataclasses.replace(_inc(ln, center), dimensions=SMALL)
    separation = (0.05e-6, 0.0, 0.0) if any(center) else (0.0, 0.0, 0.0)
    quad = QuadratureSpec(32, 64)
    got = dual_waveguide_sweep(mode, inc, substrate, [separation], -1, quad)[0]
    assert _phase_counts(exponentials) == {"cos": counts, "sin": counts, "exp": 0}
    _with_references(monkeypatch)
    want = dual_waveguide_sweep(mode, inc, substrate, [separation], -1, quad)[0]
    assert np.array_equal(got.pair.branch_rates, want.pair.branch_rates)
    assert got.pair.diagnostics == want.pair.diagnostics


def _reference_pass(mode, src, tables, n_theta, n_phi):
    return _per_branch_gamma(mode, src, tables.substrate, n_theta, n_phi)


@pytest.mark.parametrize("relative_sign", [-1, 1])
@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_dual_waveguide_sweep_equals_the_reference_pass_bit_for_bit(db, ln, monkeypatch, name, relative_sign):
    """Separations along x, with a z component, along y and in the xy plane,
    with any refinement reruns, against the per-branch pass of the parent
    engine."""
    substrate = db[name]
    mode = make_mode(substrate)
    inc = dataclasses.replace(_inc(ln, (0.0, 0.0, 0.0)), dimensions=SMALL)
    seps = [(0.05e-6, 0.0, 0.0), (0.03e-6, 0.0, 0.04e-6), (0.0, 0.07e-6, 0.0), (0.08e-6, -0.06e-6, 0.0)]
    quad = QuadratureSpec(16, 32)
    got = dual_waveguide_sweep(mode, inc, substrate, seps, relative_sign, quad)
    monkeypatch.setattr(radiation, "_gamma_branches", _reference_pass)
    want = dual_waveguide_sweep(mode, inc, substrate, seps, relative_sign, quad)
    for g, w in zip(got, want):
        assert np.array_equal(g.pair.branch_rates, w.pair.branch_rates) and g.pair.diagnostics == w.pair.diagnostics
        assert np.array_equal(g.single.branch_rates, w.single.branch_rates)


# a grid of _CHUNK + 1 nodes, whose last span is one node, and one of _CHUNK
ONE_PAST_A_SPAN, ONE_SPAN = (17, 241), (4, 1024)


def test_the_span_edge_grids_follow_the_span_size():
    assert ONE_PAST_A_SPAN[0] * ONE_PAST_A_SPAN[1] == radiation._CHUNK + 1
    assert ONE_SPAN[0] * ONE_SPAN[1] == radiation._CHUNK


@pytest.mark.parametrize("grid", [(48, 96), (9, 5), ONE_PAST_A_SPAN, (5, 683), ONE_SPAN])
@pytest.mark.parametrize("signs", [(1, -1), (1, 1)])
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire"])
def test_antipodal_pair_pass_equals_the_per_branch_pass_bit_for_bit(db, ln, name, signs, grid):
    """Partial spans, a half that ends inside a span (48x96), a grid of one
    partial span (5x683), a grid of 4097 nodes, whose last span is one node,
    and one of 4096.  numpy's matmul gives a
    one-node span's x by another path, so each node's phase must come from
    kvec of its own span, as the reference computes it."""
    substrate = db[name]
    mode = make_mode(substrate, f_hz=7.3e9)
    for dims, center in [([0.5e-6, 1.0e-6, 5.0e-6], (0.04e-6, -0.03e-6, 0.0)), (SMALL, (0.05e-6, 0.0, 0.03e-6))]:
        src = _sources(mode, _twin_pair(ln, np.array(dims), signs, center))
        assert src.part == ("sin" if signs[0] != signs[1] else "cos")
        tables = radiation._SweepTables(substrate)
        got = radiation._gamma_branches(mode, src, tables, *grid)
        assert np.array_equal(got, _per_branch_gamma(mode, src, substrate, *grid))


@pytest.mark.parametrize("grid", [(48, 96), (9, 5), ONE_PAST_A_SPAN, (5, 683), ONE_SPAN])
@pytest.mark.parametrize("name", ["sapphire_iso", "silicon", "sapphire"])
def test_pair_power_equals_the_general_sum_node_by_node(db, ln, monkeypatch, name, grid):
    """The pair's one-part power in each whole node span of the engine pass
    against the complex sum of both copies, each with the phase of its own
    centre, and kvec against k0 khat of that span: a one-node rate
    difference can round away in the reduction, so the power is compared
    node by node, the one-node last span of the 4097-node grid included."""
    substrate = db[name]
    mode = make_mode(substrate, f_hz=7.3e9)
    khats = angular_table(substrate, *grid).khats
    k0 = radiation._wave(angular_table(substrate, *grid), substrate.rho, mode.omega0).k0
    n = khats.shape[1]
    spans = [(a, min(a + radiation._CHUNK, n)) for a in range(0, n, radiation._CHUNK)]
    seen = []

    def checked(src, vm, ff, kvec):
        a, b = spans[len(seen)]
        assert len(vm) == len(ff) == 1 and np.array_equal(kvec, k0[:, a:b, None] * khats[:, a:b].T)
        assert kvec.flags.c_contiguous
        # the second copy's V M: the first's times the ratio of their signed volumes, +-1
        want = _one_phase_each_coherent_power(src, [vm[0], (src.volume[1] / src.volume[0]) * vm[0]], ff * 2, kvec)
        got = _coherent_power(src, vm, ff, kvec)
        assert np.array_equal(got, want)
        seen.append(b - a)
        return got

    monkeypatch.setattr(radiation, "_coherent_power", checked)
    for center in [(0.04e-6, -0.03e-6, 0.0), (1.3e-7, 0.7e-7, 0.0), (0.05e-6, 0.0, 0.03e-6)]:
        for signs, part in [((1, -1), "sin"), ((1, 1), "cos")]:
            src = _sources(mode, _twin_pair(ln, SMALL, signs, center))
            assert src.part == part
            seen.clear()
            radiation._gamma_branches(mode, src, radiation._SweepTables(substrate), *grid)
            assert seen == [b - a for a, b in spans]


@pytest.mark.parametrize("signs", [(1, -1), (-1, -1)])
def test_brute_force_pair_equals_the_reference_bit_for_bit(db, ln, monkeypatch, exponentials, signs):
    """The oracle takes the general sum for a pair, a cosine and a sine of
    each copy at every node, not the engine's one part, so that rule is
    checked against a path that does not share it; the per-call reference
    gives the same bits with this kernel and with the parent kernel that
    reused the first copy's conjugate phase."""
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate)
    incs = _twin_pair(ln, np.array([0.5e-6, 1.0e-6, 5.0e-6]), signs)
    assert _sources(mode, incs).part == ("sin" if signs[0] != signs[1] else "cos")
    got = brute_force_rate(mode, incs, substrate)
    nodes = 3 * radiation._BRUTE_RADIAL * radiation._BRUTE_THETA * radiation._BRUTE_PHI
    assert _phase_counts(exponentials) == {"cos": 2 * nodes, "sin": 2 * nodes, "exp": 0}
    assert got == brute_force_reference(mode, incs, substrate)
    monkeypatch.setattr(conftest, "_coherent_power", _real_coherent_power)
    assert got == brute_force_reference(mode, incs, substrate)


@pytest.mark.parametrize("signs", [(1, -1), (1, 1)])
def test_an_infinite_pair_term_fails_the_finite_result_gates(db, ln, signs):
    """With V M past the float range at some nodes, the pair's h * h is inf
    and the general path's inf - inf is nan.  The volume puts V M 5% past
    the float range at the oracle's largest |M|, so the nodes that overflow
    carry weight and the other nodes stay finite.  The engine and the
    oracle each raise NumericFailure, with no numpy warning (the suite turns
    one into an error)."""
    substrate = db["sapphire_iso"]
    mode = make_mode(substrate, mode_volume=1e-300)
    strain = _sources(mode, _twin_pair(ln)).strain[0]
    table = radiation._oracle_table(substrate)
    m_max = max(np.max(np.abs(np.einsum("nij,ij->n", expand_voigt(table.voigt[q]), strain))) for q in range(3))
    side = (1.05 * (np.finfo(float).max / m_max)) ** (1 / 3)
    incs = _twin_pair(ln, np.full(3, side), signs, center=(3 * side, 0.0, 0.0))
    assert _sources(mode, incs).part is not None
    with pytest.raises(radiation.NumericFailure, match=r"non-finite radiated rate per branch: \[inf inf inf\]"):
        radiation.mie_rate(mode, incs, substrate, QuadratureSpec(8, 16))
    with pytest.raises(radiation.NumericFailure, match="non-finite brute-force rate: nan"):
        brute_force_rate(mode, incs, substrate)
