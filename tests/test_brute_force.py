"""The brute-force oracle solves its substrate once per process.

``brute_force_rate`` keeps each substrate's Christoffel solution, the six
Voigt columns of its einsum stress and the z classes of its nodes on its own
grid as an ``_OracleTable`` in the angular-table memo, keyed by
(rho, C, "oracle").  Every rate must be bit for bit the per-call sum of
``conftest.brute_force_reference``, whether the memo is cold or warm, and
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
from conftest import XCUT_MATRIX, brute_force_reference, expand_voigt, make_mode, oracle_reference_grid
from phonoscat.cli import main
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import _CHUNK, _table_key, angular_table, christoffel_many, stress_pattern
from phonoscat.radiation import _BRUTE_PHI, _BRUTE_RADIAL, _BRUTE_THETA, _oracle_grid, _z_classes, brute_force_rate

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
    phase change can round away in the rate, so the rate alone misses it.
    Every radial node refills the one array of the call."""
    substrate = db["sapphire"]
    wg = _offcentre_waveguide(ln, xcut)
    incs = [wg, dataclasses.replace(wg, center=np.array([-0.2e-6, 0.1e-6, 0.4e-6]), sign=-1)]
    kernel, layouts, seen = radiation._coherent_power, [], []

    def checked(src, vm, ff, kvec):
        layouts.append((kvec.shape, kvec.flags.c_contiguous))
        seen.append(kvec)  # held, so a freed array's address cannot come back
        return kernel(src, vm, ff, kvec)

    monkeypatch.setattr(radiation, "_coherent_power", checked)
    brute_force_rate(make_mode(substrate, 10e9), incs, substrate)
    assert layouts == [((ORACLE_NODES, 3), True)] * (3 * _BRUTE_RADIAL)
    assert all(kvec is seen[0] for kvec in seen)


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
    assert table.voigt.shape == (3, ORACLE_NODES, 6)
    arrays = [table.velocities, table.voigt] + [arr for z in table.z_classes for arr in z]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.voigt = table.voigt.copy()


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_six_voigt_columns_hold_the_whole_stress(db, name, empty_memo):
    """The oracle's einsum tau is symmetric bit for bit, so its six Voigt
    columns hold all of it: the table keeps (3, N, 6), C-ordered, and each
    branch's columns expand to exactly ``stress_pattern``'s output."""
    substrate = db[name]
    table = radiation._oracle_table(substrate)
    assert table.voigt.shape == (3, ORACLE_NODES, 6)
    assert table.voigt.flags.c_contiguous
    khats = np.ascontiguousarray(_oracle_grid()[0].T)  # (N, 3) node rows, as the oracle's build passes them
    _, pols = christoffel_many(substrate, khats)
    for q in range(3):
        tau = stress_pattern(substrate.stiffness_tensor, khats, pols[:, :, q])
        assert np.array_equal(tau, tau.transpose(0, 2, 1))
        assert np.array_equal(expand_voigt(table.voigt[q]), tau)


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
    grid_khats, grid_weights = _oracle_grid()
    assert np.array_equal(grid_khats, khats.T) and np.array_equal(grid_weights, weights)
    vels, pols = christoffel_many(substrate, khats)
    assert np.array_equal(table.velocities, vels.T)
    for q in range(3):
        tau = stress_pattern(substrate.stiffness_tensor, khats, pols[:, :, q])
        assert np.array_equal(expand_voigt(table.voigt[q]), tau)


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
    """A table keeps 192 B/node and 16 B per z class: the velocities (24 B),
    the six Voigt columns (144 B) and the class of each node (24 B), and the
    v and |khat_z| of each class, where the 3x3 stresses kept 240 B/node.
    A whole-grid solve added a 3.7 MiB transient on top.  Another
    substrate's table is built first, so the grid they share is not
    counted."""
    radiation._oracle_table(db["silicon"])
    kept, peak = _traced(lambda: radiation._oracle_table(db["sapphire"]))
    classes = sum(z.v.size for z in radiation._oracle_table(db["sapphire"]).z_classes)
    assert 192 * ORACLE_NODES + 16 * classes <= kept < 240 * ORACLE_NODES
    assert peak - kept <= 2 * MIB


def _rate_peak(db, inclusion):
    """The peak bytes one oracle rate on ``sapphire``, the substrate with the
    most z classes, allocates on a built table."""
    substrate = db["sapphire"]
    mode = make_mode(substrate, 10e9)
    radiation._oracle_table(substrate)
    _, peak = _traced(lambda: brute_force_rate(mode, inclusion, substrate))
    return peak


def test_rate_allocates_at_most_1_25_mib(db, ln, xcut, empty_memo):
    """One rate on a built table works in bounded buffers: fresh per-node
    temporaries on every radial node took 1.42 MiB.  It takes 1.05 MiB."""
    assert _rate_peak(db, _cube(ln, xcut)) <= 1.25 * MIB


def test_offcentre_rate_allocates_at_most_1_75_mib(db, ln, xcut, empty_memo):
    """An off-centre source adds the (N, 3) wave vectors, one array per call,
    and the kernel's phase parts: 1.65 MiB."""
    assert _rate_peak(db, _offcentre_waveguide(ln, xcut)) <= 1.75 * MIB


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon", "lithium_niobate"])
def test_z_column_is_the_per_node_sinc_bit_for_bit(db, name, empty_memo):
    """The z sinc of each class, taken at its v and |khat_z| and gathered to
    every node, is the per-node ``sinc((omega / v) khat_z L_z / 2)`` of each
    branch, bit for bit: the nodes of a class share v and |khat_z|, and
    ``_sinc`` is even.  The (omega, L_z) span arguments from 1e-4 to 4e3."""
    table = radiation._oracle_table(db[name])
    khat_z = _oracle_grid()[0][2]
    for q, z in enumerate(table.z_classes):
        v = table.velocities[q]
        for omega in (2 * np.pi * 1e9, 2 * np.pi * 10e9 * (1 + 1 / 200), 2 * np.pi * 37.3e9):
            for length in (10e-9, 1e-6, 5e-6, 20e-6):
                want = np.sinc(omega / v * khat_z * (length / 2.0) / np.pi)
                arg = omega / z.v * z.khat_z * (length / 2.0)
                classes = radiation._sinc(arg, np.empty_like(arg))
                assert np.array_equal(np.take(classes, z.index), want)


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon", "lithium_niobate"])
def test_a_class_is_one_distinct_pair_of_velocity_and_khat_z_bits(db, name, empty_memo):
    table = radiation._oracle_table(db[name])
    pairs = np.stack([np.zeros(ORACLE_NODES), np.abs(_oracle_grid()[0][2])], axis=1)
    for q, z in enumerate(table.z_classes):
        pairs[:, 0] = table.velocities[q]
        distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
        assert z.v.size == len(distinct) and z.index.dtype == np.intp
        assert np.array_equal(np.stack([z.v, z.khat_z], axis=1)[z.index], pairs)  # every node has its class's pair
        # classes and distinct pairs map one to one
        assert np.array_equal(np.unique(np.stack([z.index, inverse.ravel()]), axis=1)[0], np.arange(z.v.size))


def test_velocities_from_1e_300_to_1e300_keep_their_classes():
    """Velocities 600 decades apart, at khat_z of either sign, make the same
    classes as any others: one per distinct (v, |khat_z|) pair."""
    v = np.array([1e-300, 1e300, 1e-300, 3.0, 1e300, 3.0, 3.0])
    khat_z = np.array([0.0, 0.0, -0.0, 1.0, -1.0, -1.0, 0.0])
    z = _z_classes(v, khat_z)
    assert z.v.size == 5
    assert np.array_equal(z.v[z.index], v) and np.array_equal(z.khat_z[z.index], np.abs(khat_z))
    assert len(set(zip(z.v, z.khat_z))) == 5


@pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
def test_z_sinc_runs_on_the_classes_alone(db, ln, xcut, empty_memo, monkeypatch, name):
    """Per branch and radial node, ``_sinc`` sees the N nodes for x and for
    y and one node per z class: about 5% of N on ``sapphire_iso``."""
    substrate = db[name]
    table = radiation._oracle_table(substrate)
    sizes, sinc = [], radiation._sinc

    def counting(x, out):
        sizes.append(x.size)
        return sinc(x, out=out)

    monkeypatch.setattr(radiation, "_sinc", counting)
    brute_force_rate(make_mode(substrate, 10e9), _offcentre_waveguide(ln, xcut), substrate)
    classes = [z.v.size for z in table.z_classes]
    assert sizes == [n for m in classes for n in [ORACLE_NODES, ORACLE_NODES, m] * _BRUTE_RADIAL]
    if name == "sapphire_iso":
        assert max(classes) <= 0.06 * ORACLE_NODES
