"""Acceptance gate: one check per shipping criterion, each printing a
PASS/FAIL line with the measured numbers next to the stated tolerances.

The lines are written to the real stdout so they survive pytest's capture
and appear in logs that tee the run.
"""

import json
import time

import numpy as np
import pytest

from phonoscat.cli import main as cli_main
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import angular_table
from phonoscat.materials import default_materials, rotate_piezo, rotate_stiffness
from phonoscat.mitigation import (
    BraggStack,
    bragg_transmission,
    dual_waveguide_rate,
    mitigated_rate,
)
from phonoscat.radiation import (
    QuadratureSpec,
    brute_force_rate,
    mie_rate,
    min_phase_velocity,
    rayleigh_rate,
    sweep,
)
from phonoscat.transducer import EoModel, figure_of_merit

from conftest import XCUT_MATRIX, make_mode, rate_grids


@pytest.fixture
def report(capsys):
    """Emit one PASS/FAIL line per criterion on the uncaptured stdout."""

    def _report(criterion: int, ok: bool, detail: str) -> None:
        line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


DB = default_materials()
SUB = DB["sapphire_iso"]
LN = DB["lithium_niobate"]
EO = EoModel(g0=2 * np.pi * 2e3, v_ref=8e-15, overlap=1.0)  # 2 kHz at 8000 um^3


def xcut_inclusion(dims, center=(0.0, 0.0, 0.0), sign=1):
    from phonoscat.materials import Orientation

    return Inclusion(np.asarray(dims, float), np.asarray(center, float), LN,
                     orientation=Orientation(XCUT_MATRIX), sign=sign)


@pytest.fixture(scope="module")
def waveguide_inc():
    return xcut_inclusion((0.5e-6, 1.0e-6, 5.0e-6))


@pytest.fixture(scope="module")
def height_resonance_sweep(waveguide_inc):
    """Waveguide height scan crossing several interference orders at 10 GHz."""
    mode = make_mode(SUB, f_hz=10e9)
    hs = np.linspace(0.32e-6, 1.92e-6, 25)
    return sweep(mode, waveguide_inc, SUB, "height", hs, QuadratureSpec(48, 96))


def test_criterion_01_frequency_scaling_point_scatterer(report):
    """Q falls as f^-3 for a fixed sub-wavelength cube across 1-10 GHz."""
    t0 = time.monotonic()
    cube = xcut_inclusion((8e-9, 8e-9, 8e-9))
    omegas = 2 * np.pi * np.logspace(9, 10, 7)
    slope = sweep(make_mode(SUB), cube, SUB, "omega0", omegas, QuadratureSpec(32, 64)).loglog_slope()
    kl_max = omegas[-1] / min_phase_velocity(SUB) * np.max(cube.dimensions)
    elapsed = time.monotonic() - t0
    ok = abs(slope + 3.0) <= 0.05 and kl_max < 0.1 and elapsed < 60.0
    report(
        1,
        ok,
        f"Q vs f slope {slope:+.4f} (need -3.00 +- 0.05) over 1-10 GHz, "
        f"max kL {kl_max:.3f} < 0.1, runtime {elapsed:.1f} s < 60 s",
    )


def test_criterion_02_geometric_scaling_laws(report):
    """Gamma ~ h^4 for an h x 2h waveguide and ~ t^2 for a thin film."""
    mode = make_mode(SUB, f_hz=1e9)
    quad = QuadratureSpec(32, 64)

    wg = xcut_inclusion((10e-9, 20e-9, 0.15e-6))
    hs = np.logspace(np.log10(10e-9), np.log10(100e-9), 7)
    h_sweep = sweep(mode, wg, SUB, "height", hs, quad)
    h_slope = h_sweep.loglog_slope()

    film = xcut_inclusion((0.15e-6, 0.15e-6, 1e-9))
    ts = np.logspace(np.log10(1e-9), np.log10(10e-9), 7)
    t_sweep = sweep(mode, film, SUB, "thickness", ts, quad)
    t_slope = t_sweep.loglog_slope()

    tags = {r.regime for r in h_sweep.results} | {r.regime for r in t_sweep.results}
    ok = abs(h_slope + 4.0) <= 0.05 and abs(t_slope + 2.0) <= 0.05 and tags == {"rayleigh"}
    report(
        2,
        ok,
        f"Q vs height slope {h_slope:+.4f} (need -4.00 +- 0.05), "
        f"Q vs thickness slope {t_slope:+.4f} (need -2.00 +- 0.05), "
        f"regime tags {sorted(tags)} all point-scatterer",
    )


def test_criterion_03_quadrature_engine_reduces_to_closed_form(report):
    """For kL <= 0.05 the general engine matches the closed form to <1%."""
    mode = make_mode(SUB, f_hz=1e9)
    cube = xcut_inclusion((50e-9, 50e-9, 50e-9))
    kl = mode.omega0 / min_phase_velocity(SUB) * 50e-9
    exact = rayleigh_rate(mode, cube, SUB).total_rate
    quad = mie_rate(mode, cube, SUB, QuadratureSpec(48, 96)).total_rate
    dev = abs(quad - exact) / exact
    ok = kl <= 0.05 and dev < 0.01
    report(
        3,
        ok,
        f"kL = {kl:.4f} <= 0.05, |Gamma_quad - Gamma_closed| / Gamma_closed "
        f"= {dev:.2e} < 1e-02",
    )


def test_criterion_04_brute_force_oracle_agreement(report):
    """The broadened-delta 3D sum agrees with the surface quadrature to 2%
    on configurations spanning both size regimes."""
    t0 = time.monotonic()
    configs = [
        (1e9, (10e-9, 10e-9, 10e-9)),
        (3e9, (300e-9, 300e-9, 300e-9)),
        (10e9, (300e-9, 300e-9, 300e-9)),
    ]
    devs = []
    regimes = set()
    for f_hz, dims in configs:
        mode = make_mode(SUB, f_hz=f_hz)
        inc = xcut_inclusion(dims)
        fine = mie_rate(mode, inc, SUB, QuadratureSpec(48, 96))
        brute = brute_force_rate(mode, inc, SUB)  # sigma = omega0 / 200
        devs.append(abs(brute - fine.total_rate) / fine.total_rate)
        regimes.add(fine.regime)
    elapsed = time.monotonic() - t0
    ok = max(devs) < 0.02 and regimes == {"rayleigh", "mie"} and elapsed < 600.0
    report(
        4,
        ok,
        f"max relative deviation {max(devs):.2e} < 2e-02 over {len(configs)} "
        f"configurations, regimes {sorted(regimes)}, runtime {elapsed:.1f} s < 600 s",
    )


def test_criterion_05_interference_extrema_in_size_sweep(report, height_resonance_sweep):
    """Q(h) develops interference maxima and minima once kh spans pi..6pi."""
    sweep = height_resonance_sweep
    qs = sweep.q_factors
    maxima = sum(
        1 for i in range(1, len(qs) - 1) if qs[i] > qs[i - 1] and qs[i] > qs[i + 1]
    )
    minima = sum(
        1 for i in range(1, len(qs) - 1) if qs[i] < qs[i - 1] and qs[i] < qs[i + 1]
    )
    mode_omega = 2 * np.pi * 10e9
    k = mode_omega / min_phase_velocity(SUB)
    span = (k * sweep.values[0] / np.pi, k * sweep.values[-1] / np.pi)
    ok = maxima >= 1 and minima >= 1
    report(
        5,
        ok,
        f"{maxima} local maxima and {minima} local minima in Q over "
        f"kh = {span[0]:.2f} pi .. {span[1]:.2f} pi (need >= 1 of each)",
    )


def test_criterion_06_antiparallel_pair_suppression(report):
    """An opposite-sign pair cancels as (kd)^2 and exactly at zero offset."""
    mode = make_mode(SUB, f_hz=10e9)
    v_t = min_phase_velocity(SUB)
    lam_t = v_t / 10e9
    slab = xcut_inclusion((lam_t / 100, 20e-9, 20e-9))
    quad = QuadratureSpec(48, 96)

    zero = dual_waveguide_rate(mode, slab, SUB, (0.0, 0.0, 0.0), -1, quad)
    exact_zero = zero.pair.total_rate == 0.0

    k = mode.omega0 / v_t
    d_max = 0.3 / k
    ds = np.geomspace(lam_t / 100, d_max, 5)
    ratios = np.array(
        [
            dual_waveguide_rate(mode, slab, SUB, (d, 0.0, 0.0), -1, quad).suppression_ratio
            for d in ds
        ]
    )
    slope = float(np.polyfit(np.log(ds), np.log(ratios), 1)[0])
    gain = 1.0 / ratios[0]  # at separation lam_T / 100
    ok = exact_zero and abs(slope - 2.0) <= 0.05 and gain >= 1e3
    report(
        6,
        ok,
        f"zero-offset pair rate exactly 0: {exact_zero}; suppression slope "
        f"{slope:+.4f} (need +2.00 +- 0.05) for kd <= 0.3; Q gain at "
        f"d = lambda_T/100: {gain:.0f} >= 1000",
    )


def test_criterion_07_quarter_wave_mirror(report, waveguide_inc):
    """The mirror is lossless, deepens with period count and buys >= 10x Q."""
    fc = 11e9
    omega_c = 2 * np.pi * fc

    worst = 0.0
    for n in (1, 3, 6):
        stack = BraggStack.quarter_wave(SUB, DB["silicon"], DB["sapphire"], fc, n)
        for f in np.linspace(1e9, 21e9, 41):
            R, T = bragg_transmission(stack, 2 * np.pi * f)
            worst = max(worst, abs(R + T - 1.0))

    ts = [
        bragg_transmission(
            BraggStack.quarter_wave(SUB, DB["silicon"], DB["sapphire"], fc, n), omega_c
        )[1]
        for n in range(7)
    ]
    decreasing = all(b < a for a, b in zip(ts, ts[1:]))

    mode = make_mode(SUB, f_hz=fc)
    base = mie_rate(mode, waveguide_inc, SUB, QuadratureSpec(48, 96))
    gains = [mitigated_rate(base, t).q_factor / base.q_factor for t in ts]
    ok = worst < 1e-12 and decreasing and max(gains) >= 10.0
    report(
        7,
        ok,
        f"max |R + T - 1| = {worst:.1e} < 1e-12; T strictly decreasing over "
        f"n = 0..6: {decreasing}; max Q gain {max(gains):.0f} >= 10 at 11 GHz",
    )


def test_criterion_08_figure_of_merit_mode_volume_invariance(report):
    """eta = (g_MO / 2 pi)^2 Q must not move when the mode volume does."""
    cube = xcut_inclusion((10e-9, 10e-9, 10e-9))
    quad = QuadratureSpec(24, 48)
    etas = []
    for v_e in np.logspace(-16, -13, 7):
        mode = make_mode(SUB, f_hz=10e9, mode_volume=v_e)
        r = mie_rate(mode, cube, SUB, quad)
        etas.append(figure_of_merit(EO, mode, r))
    etas = np.array(etas)
    drift = float(np.max(np.abs(etas - etas[0])) / etas[0])
    ok = drift < 1e-9
    report(
        8,
        ok,
        f"eta relative drift {drift:.2e} < 1e-09 across mode volumes "
        f"1e-16..1e-13 m^3 (three decades)",
    )


def test_criterion_09_order_of_magnitude_anchors(
    report, waveguide_inc, height_resonance_sweep
):
    """Canonical geometries land on the expected orders of magnitude."""
    mode = make_mode(SUB, f_hz=10e9)
    q_wg = mie_rate(mode, waveguide_inc, SUB, QuadratureSpec(48, 96)).q_factor

    film = xcut_inclusion((30e-6, 30e-6, 1e-9))
    film_res = mie_rate(
        mode, film, SUB, QuadratureSpec(192, 384, tolerance=5e-3)
    )
    q_film = film_res.q_factor

    etas = [
        figure_of_merit(EO, mode, r) for r in height_resonance_sweep.results
    ]
    eta_peak = max(etas)

    band = 30.0
    ok_wg = 1e3 / band <= q_wg <= 1e3 * band
    ok_film = 1e6 / band <= q_film <= 1e6 * band
    ok_eta = 1e10 / band <= eta_peak <= 1e10 * band
    ok = ok_wg and ok_film and ok_eta and film_res.diagnostics.converged
    report(
        9,
        ok,
        f"waveguide Q = {q_wg:.3e} in 1e3 x/ 30; 1 nm film Q = {q_film:.3e} "
        f"in 1e6 x/ 30; peak eta = {eta_peak:.3e} Hz^2 in 1e10 x/ 30",
    )


def test_criterion_10_exactness_properties_and_reproducibility(report, tmp_path, remix_tables):
    """Eigenbasis independence, tensor rotation identities and byte-identical
    CSV output."""
    t0 = time.monotonic()
    mode = make_mode(SUB, f_hz=10e9)
    wg = xcut_inclusion((0.5e-6, 1.0e-6, 5.0e-6))
    quad = QuadratureSpec(24, 48)

    base = mie_rate(mode, wg, SUB, quad).total_rate
    genuine = {grid: angular_table(SUB, *grid).stresses for grid in rate_grids(quad)}
    deg_dev = 0.0
    for s in (1, 2):
        tables = remix_tables(SUB, quad, np.random.default_rng(s))
        for grid, table in tables.items():
            got = angular_table(SUB, *grid).stresses
            assert got is table.stresses and not np.array_equal(got, genuine[grid])
        deg_dev = max(deg_dev, abs(mie_rate(mode, wg, SUB, quad).total_rate - base) / base)

    rng = np.random.default_rng(99)
    rot_dev = 0.0
    for _ in range(3):
        from phonoscat.materials import Orientation, piezo_voigt_to_tensor, stiffness_voigt_to_tensor

        R = Orientation.about_axis(rng.normal(size=3), rng.uniform(0, 2 * np.pi)).matrix
        c = LN.stiffness_tensor
        c_or = np.einsum("ia,jb,kc,ld,abcd->ijkl", R, R, R, R, c)
        c_got = stiffness_voigt_to_tensor(rotate_stiffness(LN.C, R))
        rot_dev = max(rot_dev, np.max(np.abs(c_got - c_or)) / np.max(np.abs(c_or)))
        dt = piezo_voigt_to_tensor(LN.d)
        d_or = np.einsum("ia,jb,kc,abc->ijk", R, R, R, dt)
        d_got = piezo_voigt_to_tensor(rotate_piezo(LN.d, R))
        rot_dev = max(rot_dev, np.max(np.abs(d_got - d_or)) / np.max(np.abs(d_or)))

    cfg = {
        "scenario": "mie",
        "substrate": "sapphire_iso",
        "mode": {"frequency_GHz": 10.0, "mode_volume_um3": 8000.0, "field_direction": [0, 1, 0]},
        "inclusions": [
            {
                "material": "lithium_niobate",
                "dimensions_um": [0.5, 1.0, 5.0],
                "orientation": {"matrix": [[0, 0, -1], [0, 1, 0], [1, 0, 0]]},
            }
        ],
        "sweep": {"axis": "frequency_GHz", "grid": "log", "start": 2.0, "stop": 10.0, "count": 3},
        "quadrature": {"n_theta": 16, "n_phi": 32},
    }
    cfg_path = tmp_path / "repro.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / f"out{i}.csv" for i in range(2)]
    assert cli_main(["run", str(cfg_path), "--out", str(outs[0])]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(outs[1])]) == 0
    identical = outs[0].read_bytes() == outs[1].read_bytes()

    elapsed = time.monotonic() - t0
    ok = (
        deg_dev < 1e-9
        and rot_dev < 1e-9
        and identical
        and elapsed < 300.0
    )
    report(
        10,
        ok,
        f"degenerate-basis deviation {deg_dev:.1e} < 1e-09; rotation-identity deviation "
        f"{rot_dev:.1e} < 1e-09; CSV byte-identical across repeats: "
        f"{identical}; runtime {elapsed:.1f} s < 300 s",
    )
