"""The radiated-rate engines and their exact invariances.

Rates must scale as the golden rule says, transform correctly under a global
rotation of the device, and the independent engines (closed form,
isofrequency quadrature, broadened-delta 3D sum) must agree in their
overlapping domains.
"""

import dataclasses
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import angular_table
from phonoscat.materials import Orientation, ParameterError, default_materials
from phonoscat.radiation import (
    NumericFailure,
    QuadratureDiagnostics,
    QuadratureSpec,
    RadiationResult,
    _coherent_power,
    _sinc,
    _SweepTables,
    _sources,
    brute_force_rate,
    derived_material_constant,
    mie_rate,
    min_phase_velocity,
    rayleigh_rate,
    refined_rate,
    regime_label,
    sweep,
)

from conftest import make_mode, rate_grids

DB = default_materials()
FAST = QuadratureSpec(n_theta=16, n_phi=32)


class TestScalings:
    def test_mode_volume_doubling_halves_rate(self, substrate, small_cube):
        a = rayleigh_rate(make_mode(substrate, mode_volume=8e-15), small_cube, substrate)
        b = rayleigh_rate(make_mode(substrate, mode_volume=16e-15), small_cube, substrate)
        assert b.total_rate == pytest.approx(a.total_rate / 2, rel=1e-12)
        c = mie_rate(make_mode(substrate, mode_volume=8e-15), small_cube, substrate, FAST)
        d = mie_rate(make_mode(substrate, mode_volume=16e-15), small_cube, substrate, FAST)
        assert d.total_rate == pytest.approx(c.total_rate / 2, rel=1e-12)

    def test_frequency_fourth_power(self, substrate, small_cube):
        """Gamma ~ omega0^3 from the golden rule times omega0 from the field."""
        a = rayleigh_rate(make_mode(substrate, f_hz=1e9), small_cube, substrate)
        b = rayleigh_rate(make_mode(substrate, f_hz=2e9), small_cube, substrate)
        assert b.total_rate == pytest.approx(16 * a.total_rate, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5, 2.0))
    def test_volume_squared(self, scale):
        substrate = DB["sapphire_iso"]
        ln = DB["lithium_niobate"]
        mode = make_mode(substrate, f_hz=1e9)
        base = Inclusion((10e-9,) * 3, (0, 0, 0), ln)
        scaled = Inclusion((10e-9 * scale,) * 3, (0, 0, 0), ln)
        a = rayleigh_rate(mode, base, substrate)
        b = rayleigh_rate(mode, scaled, substrate)
        assert b.total_rate == pytest.approx(scale**6 * a.total_rate, rel=1e-11)

    def test_q_is_omega_over_gamma(self, substrate, small_cube):
        r = rayleigh_rate(make_mode(substrate), small_cube, substrate)
        assert r.q_factor == pytest.approx(r.omega0 / r.total_rate, rel=1e-14)
        assert r.total_rate == pytest.approx(np.sum(r.branch_rates), rel=1e-14)

    def test_zero_coupling_gives_infinite_q(self, substrate, silicon):
        mode = make_mode(substrate)
        inc = Inclusion((0.1e-6,) * 3, (0, 0, 0), silicon)
        r = mie_rate(mode, inc, substrate, FAST)
        assert r.total_rate == 0.0
        assert np.isinf(r.q_factor)


class TestAnisotropicRayleighRegime:
    """A sub-nm rotated LN cuboid on an anisotropic substrate, where no closed
    form exists: the quadrature engine must still show the point-scatterer laws.
    Edges of 10 nm at 2-4 GHz would already carry a 5e-5 finite-size correction."""

    EDGES = np.array([0.5e-9, 0.7e-9, 0.9e-9])

    def cuboid(self, scale=1.0):
        return Inclusion(
            self.EDGES * scale,
            (0, 0, 0),
            DB["lithium_niobate"],
            orientation=Orientation.about_axis((1, 2, 3), 0.7),
        )

    def rate(self, name, f_hz, scale=1.0):
        substrate = DB[name]
        return refined_rate(make_mode(substrate, f_hz=f_hz), self.cuboid(scale), substrate, FAST).total_rate

    @pytest.mark.parametrize("name", ["sapphire", "silicon"])
    def test_frequency_fourth_power(self, name):
        assert self.rate(name, 1e9) == pytest.approx(16 * self.rate(name, 0.5e9), rel=1e-6)

    @pytest.mark.parametrize("name", ["sapphire", "silicon"])
    def test_volume_squared(self, name):
        """Doubled edges: V grows 8-fold and Gamma 64-fold."""
        assert self.rate(name, 0.5e9, scale=2.0) == pytest.approx(64 * self.rate(name, 0.5e9), rel=1e-6)

    @pytest.mark.parametrize("name", ["sapphire", "silicon"])
    def test_q_slope_over_a_frequency_sweep(self, name):
        """Gamma ~ omega0^4, so Q = omega0 / Gamma falls as omega0^-3."""
        substrate = DB[name]
        omegas = 2 * np.pi * np.linspace(0.5e9, 1e9, 5)
        res = sweep(make_mode(substrate), self.cuboid(), substrate, "omega0", omegas, FAST)
        assert res.loglog_slope() == pytest.approx(-3.0, abs=1e-6)


class TestEngineCrossChecks:
    def test_mie_matches_rayleigh_for_point_scatterer(self, substrate, small_cube):
        mode = make_mode(substrate, f_hz=1e9)  # kL ~ 1e-2
        exact = rayleigh_rate(mode, small_cube, substrate)
        quad = mie_rate(mode, small_cube, substrate, FAST)
        assert quad.total_rate == pytest.approx(exact.total_rate, rel=1e-3)
        assert np.allclose(quad.branch_rates[2], exact.branch_rates[2], rtol=1e-3)
        # Degenerate shear branches are only meaningful as a sum.
        assert np.sum(quad.branch_rates[:2]) == pytest.approx(
            np.sum(exact.branch_rates[:2]), rel=1e-3
        )

    def test_brute_force_matches_mie(self, substrate, waveguide):
        mode = make_mode(substrate, f_hz=2e9)
        fine = mie_rate(mode, waveguide, substrate, QuadratureSpec(48, 96))
        brute = brute_force_rate(mode, waveguide, substrate)
        assert brute == pytest.approx(fine.total_rate, rel=2e-2)

    def test_brute_force_anisotropic_consistency(self, sapphire, ln, xcut):
        """On a fully anisotropic substrate the two engines still agree."""
        mode = make_mode(sapphire, f_hz=2e9)
        inc = Inclusion((0.1e-6,) * 3, (0, 0, 0), ln, orientation=xcut)
        fine = mie_rate(mode, inc, sapphire, QuadratureSpec(32, 64))
        brute = brute_force_rate(mode, inc, sapphire)
        assert brute == pytest.approx(fine.total_rate, rel=2e-2)

    def test_rayleigh_rejects_anisotropic_substrate(self, sapphire, small_cube):
        with pytest.raises(Exception, match="isotropic"):
            rayleigh_rate(make_mode(sapphire), small_cube, sapphire)


class TestDeterminism:
    def test_callers_own_threads_get_the_serial_result(self, substrate, waveguide, empty_memo):
        """Two caller threads that start on an empty table memo at once each
        get the rates of a serial call, bit for bit."""
        mode = make_mode(substrate)
        quad = QuadratureSpec(32, 64)  # the fine grid spans two node spans
        barrier = threading.Barrier(2, timeout=30)

        def call(_):
            barrier.wait()
            return mie_rate(mode, waveguide, substrate, quad)

        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(call, range(2), timeout=120))
        empty_memo.clear()
        serial = mie_rate(mode, waveguide, substrate, quad)
        for got in threaded:
            assert got.total_rate == serial.total_rate
            assert np.array_equal(got.branch_rates.view(np.int64), serial.branch_rates.view(np.int64))
            assert got.diagnostics == serial.diagnostics

    def test_degenerate_basis_choice_cancels(self, substrate, waveguide, remix_tables):
        """Isotropic shear branches are degenerate everywhere; remixing the
        eigenbasis must leave the summed rate unchanged."""
        mode = make_mode(substrate)
        ref = mie_rate(mode, waveguide, substrate, FAST)
        genuine = {grid: angular_table(substrate, *grid) for grid in rate_grids(FAST)}
        for seed in (1, 2, 3):
            tables = remix_tables(substrate, FAST, np.random.default_rng(seed))
            for grid, table in tables.items():
                assert angular_table(substrate, *grid) is table
                assert np.array_equal(table.velocities, genuine[grid].velocities)
                assert not np.array_equal(table.stresses[:2], genuine[grid].stresses[:2])
            remixed = mie_rate(mode, waveguide, substrate, FAST)
            assert abs(remixed.total_rate - ref.total_rate) / ref.total_rate < 1e-9
            shear_ref = np.sum(ref.branch_rates[:2])
            shear_mix = np.sum(remixed.branch_rates[:2])
            assert abs(shear_mix - shear_ref) / shear_ref < 1e-9

    def test_sinc_is_numpys_sinc_bit_for_bit(self):
        x = np.random.default_rng(7).normal(scale=30.0, size=4096)
        tiny = np.finfo(float).tiny
        specials = [0.0, -0.0, tiny / 4, -tiny / 4, 5e-324, tiny, 1e-300, 1e300, -1e300, np.nan]
        x = np.concatenate([x, specials, np.pi * np.arange(-5, 6)])
        got = _sinc(x)
        assert np.array_equal(got, np.sinc(x / np.pi), equal_nan=True)

    @pytest.mark.parametrize("n_incs", [1, 2])
    def test_centred_coherent_power_equals_the_complex_sum(self, sapphire, waveguide, n_incs):
        """With every centre exactly at the origin the phase is exactly 1 + 0j,
        so the real accumulation gives |sum|^2 bit for bit.  The reference
        applies each sign to the form factor, read from the signed volume,
        so it does not share the kernel's signed V M."""
        mode = make_mode(sapphire)
        small = dataclasses.replace(waveguide, dimensions=np.array([0.3e-6, 0.7e-6, 2e-6]), sign=-1)
        src = _sources(mode, [waveguide, small][:n_incs])
        assert not np.any(src.center)
        grid, m, _, _ = _SweepTables(sapphire).factors(16, 32, mode.omega0, src)
        for q in range(3):
            kvec = (mode.omega0 / grid.velocities[q])[:, None] * grid.khats.T
            coh = np.zeros(kvec.shape[0], dtype=complex)
            for j in range(n_incs):
                ff = np.prod(np.sinc(kvec * (src.dims[j] / 2.0) / np.pi), axis=1)
                phase = np.exp(1j * (kvec @ src.center[j]))
                coh += abs(src.volume[j]) * m[j][q] * (np.sign(src.volume[j]) * ff) * phase
            vm = [src.volume[j] * m[j][q] for j in range(n_incs)]
            cols = [[_sinc(kvec[:, a] * (src.dims[j][a] / 2.0)) for a in range(3)] for j in range(n_incs)]
            got = _coherent_power(src, vm, [(x * y) * z for x, y, z in cols], kvec)
            assert np.array_equal(got, coh.real**2 + coh.imag**2)


class TestFrameCovariance:
    def test_rayleigh_exact_under_arbitrary_rotation(self, substrate, ln):
        rng = np.random.default_rng(21)
        inc = Inclusion((10e-9,) * 3, (0, 0, 0), ln)
        mode = make_mode(substrate, f_hz=1e9)
        base = rayleigh_rate(mode, inc, substrate)
        for _ in range(3):
            axis, angle = rng.normal(size=3), rng.uniform(0, 2 * np.pi)
            R = Orientation.about_axis(axis, angle)
            inc_r = dataclasses.replace(inc, orientation=R.compose(inc.orientation))
            mode_r = dataclasses.replace(
                mode, field_direction=R.matrix @ mode.field_direction
            )
            rot = rayleigh_rate(mode_r, inc_r, substrate)
            assert rot.total_rate == pytest.approx(base.total_rate, rel=1e-12)

    def test_mie_quarter_turn_about_z(self, substrate, ln, xcut):
        """Rotating device and field by 90 deg about z maps the quadrature
        grid onto itself, so the rate must match to rounding."""
        R = Orientation.about_axis([0, 0, 1], np.pi / 2)
        inc = Inclusion((0.5e-6, 1.0e-6, 5.0e-6), (0, 0, 0), ln, orientation=xcut)
        mode = make_mode(substrate)
        inc_r = Inclusion(
            (1.0e-6, 0.5e-6, 5.0e-6), (0, 0, 0), ln, orientation=R.compose(xcut)
        )
        mode_r = dataclasses.replace(mode, field_direction=R.matrix @ mode.field_direction)
        a = mie_rate(mode, inc, substrate, FAST)
        b = mie_rate(mode_r, inc_r, substrate, FAST)
        assert b.total_rate == pytest.approx(a.total_rate, rel=1e-10)


    def test_anisotropic_whole_system_quarter_turn(self, sapphire, ln, xcut):
        """Rotate the trigonal substrate, both inclusions, their centers and
        the field by 90 deg about z.  The quadrature grid maps onto itself
        (n_phi % 4 == 0), so the rate must not move.  This checks the
        anisotropic path without the brute-force oracle's shared code."""
        R = Orientation.about_axis([0, 0, 1], np.pi / 2)
        sub_r = sapphire.rotated(R)
        assert np.max(np.abs(sub_r.stiffness_tensor - sapphire.stiffness_tensor)) > 1e9
        centers = [np.array([0.4e-6, -0.3e-6, 0.2e-6]), np.array([-0.5e-6, 0.1e-6, 0.0])]
        dims = np.array([0.5e-6, 1.0e-6, 2.0e-6])
        incs = [Inclusion(dims, c, ln, orientation=xcut, sign=s) for c, s in zip(centers, (1, -1))]
        incs_r = [
            Inclusion(dims[[1, 0, 2]], R.matrix @ c, ln, orientation=R.compose(xcut), sign=s)
            for c, s in zip(centers, (1, -1))
        ]
        mode = make_mode(sapphire, direction=(0.6, 0.8, 0.0))
        mode_r = dataclasses.replace(mode, field_direction=R.matrix @ mode.field_direction)
        a = mie_rate(mode, incs, sapphire, FAST)
        b = mie_rate(mode_r, incs_r, sub_r, FAST)
        assert FAST.n_phi % 4 == 0
        assert b.total_rate == pytest.approx(a.total_rate, rel=1e-10)
        assert np.allclose(b.branch_rates, a.branch_rates, rtol=1e-10)


class TestExactInvariances:
    """Identities of the output that hold to rounding on every substrate, so
    they check the anisotropic path without a second implementation: the
    x-cut 0.5 x 1 x 5 um waveguide at 10 GHz, ``mie_rate`` at 64 x 128."""

    QUAD = QuadratureSpec(n_theta=64, n_phi=128)
    SUBSTRATES = ["sapphire", "silicon", "sapphire_iso"]

    @pytest.mark.parametrize("name", SUBSTRATES)
    def test_frequency_size_scaling(self, name, waveguide):
        """Gamma(lam omega0, L / lam) = lam^-2 Gamma(omega0, L) at fixed V_E:
        k0^4, u0^2 ~ 1/omega0, M^2 ~ omega0 and V^2 ~ L^6 leave the form
        factor's arguments k L unchanged."""
        substrate = DB[name]
        mode = make_mode(substrate)
        base = mie_rate(mode, waveguide, substrate, self.QUAD).total_rate
        for lam in (2.0, 0.5, 3.0):
            m = dataclasses.replace(mode, omega0=lam * mode.omega0)
            inc = dataclasses.replace(waveguide, dimensions=waveguide.dimensions / lam)
            scaled = mie_rate(m, inc, substrate, self.QUAD).total_rate
            assert abs(lam**2 * scaled / base - 1) < 1e-13

    @pytest.mark.parametrize("name", SUBSTRATES)
    def test_translation(self, name, waveguide):
        """A lone inclusion's phase has modulus 1: off centre (the complex
        accumulation) gives the centred rate (the real accumulation)."""
        substrate = DB[name]
        mode = make_mode(substrate)
        centred = mie_rate(mode, waveguide, substrate, self.QUAD).total_rate
        moved = dataclasses.replace(waveguide, center=np.array([0.3e-6, -0.2e-6, 0.1e-6]))
        assert abs(mie_rate(mode, moved, substrate, self.QUAD).total_rate / centred - 1) < 1e-14

    @pytest.mark.parametrize("name", SUBSTRATES)
    def test_swapping_the_copies_of_a_pair(self, name, waveguide):
        """Exchanging which copy of an antiparallel pair is inverted."""
        substrate = DB[name]
        mode = make_mode(substrate)
        here, there = np.array([0.4e-6, 0.0, 0.0]), np.array([-0.4e-6, 0.0, 0.0])

        def pair(plus, minus):
            copies = [
                dataclasses.replace(waveguide, center=plus),
                dataclasses.replace(waveguide, center=minus, sign=-1),
            ]
            return mie_rate(mode, copies, substrate, self.QUAD).total_rate

        a, b = pair(here, there), pair(there, here)
        assert a > 0
        assert abs(b / a - 1) < 1e-14

    @pytest.mark.parametrize("n_phi", [128, 120])
    @pytest.mark.parametrize("name", SUBSTRATES)
    def test_quarter_turn_of_the_whole_device(self, name, n_phi, waveguide):
        """Substrate, inclusion and field turned by 90 deg about z: the phi
        grid maps onto itself when n_phi % 4 == 0."""
        substrate = DB[name]
        quad = QuadratureSpec(n_theta=64, n_phi=n_phi)
        R = Orientation(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        mode = make_mode(substrate)
        turned = Inclusion(
            waveguide.dimensions[[1, 0, 2]],
            waveguide.center,
            waveguide.material,
            orientation=R.compose(waveguide.orientation),
        )
        mode_r = dataclasses.replace(mode, field_direction=R.matrix @ mode.field_direction)
        a = mie_rate(mode, waveguide, substrate, quad).total_rate
        b = mie_rate(mode_r, turned, substrate.rotated(R), quad).total_rate
        assert abs(b / a - 1) < 1e-13


class TestQuadratureControls:
    def test_error_estimate_shrinks_with_nodes(self, substrate, waveguide):
        mode = make_mode(substrate)
        coarse = mie_rate(mode, waveguide, substrate, QuadratureSpec(8, 16))
        fine = mie_rate(mode, waveguide, substrate, QuadratureSpec(48, 96))
        assert fine.diagnostics.rel_error < coarse.diagnostics.rel_error
        assert fine.diagnostics.n_theta == 96  # doubled internally
        assert fine.diagnostics.converged

    def test_spec_validation(self):
        eps = np.finfo(float).eps
        # a relative change below the double epsilon is rounding: no grid could meet it
        floor = "^quadrature tolerance must be at least 2.22e-16, the double epsilon$"
        for kwargs, msg, parameter in [
            (dict(n_theta=1), "^quadrature needs n_theta >= 2$", "n_theta"),
            (dict(n_phi=3), "^quadrature needs n_phi >= 4$", "n_phi"),
            (dict(tolerance=0.0), floor, "tolerance"),
            (dict(tolerance=eps / 2), floor, "tolerance"),
            (dict(tolerance=1e-17), floor, "tolerance"),
            (dict(tolerance=1e-310), floor, "tolerance"),
        ]:
            with pytest.raises(ParameterError, match=msg) as e:
                QuadratureSpec(**kwargs)
            assert e.value.parameter == parameter
        assert QuadratureSpec(tolerance=eps).tolerance == eps

    def test_thread_count_is_not_a_field(self):
        """Every grid pass is serial; ``threads`` is a class constant, not a field."""
        with pytest.raises(TypeError):
            QuadratureSpec(32, 64, threads=2)
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["n_theta", "n_phi", "tolerance"]
        assert QuadratureSpec(32, 64).threads == 1

    @pytest.mark.parametrize("cap,built", [((8, 16), [(4, 8), (8, 16), (16, 32)]), ((7, 16), [(4, 8), (8, 16)])])
    def test_no_refinement_past_the_grid_cap_is_built(self, substrate, waveguide, monkeypatch, empty_memo, cap, built):
        """With the caps at 8 x 16 a 4 x 8 request may refine once, to 8 x 16
        (read on 8 x 16 and 16 x 32); the second refinement would read a
        32 x 64 grid, so it raises before any table of it is solved.  A cap
        below the first refinement stops it too."""
        import phonoscat.radiation as radiation

        monkeypatch.setattr(radiation, "_MAX_THETA", cap[0])
        monkeypatch.setattr(radiation, "_MAX_PHI", cap[1])
        cube = dataclasses.replace(waveguide, dimensions=np.full(3, 0.5e-6))
        quad = QuadratureSpec(4, 8, tolerance=1e-6)
        with pytest.raises(NumericFailure, match=r"quadrature did not reach tolerance 1e-06 at n_theta=\d+"):
            refined_rate(make_mode(substrate), cube, substrate, quad)
        grids = {key[2:] for key in empty_memo}
        assert grids == set(built) | {(16, 32)}  # the regime tag reads 16 x 32

    @pytest.mark.parametrize("cap", [(4, 32), (16, 8)])
    def test_a_lopsided_request_at_a_cap_still_refines(self, substrate, waveguide, monkeypatch, cap):
        """The cap bounds nodes, not each axis: with 128 nodes allowed a 4 x 8
        request at the n_theta or the n_phi cap refines once, to 8 x 16."""
        import phonoscat.radiation as radiation

        monkeypatch.setattr(radiation, "_MAX_THETA", cap[0])
        monkeypatch.setattr(radiation, "_MAX_PHI", cap[1])
        cube = dataclasses.replace(waveguide, dimensions=np.full(3, 0.1e-6))
        result = refined_rate(make_mode(substrate), cube, substrate, QuadratureSpec(4, 8, tolerance=1e-6))
        assert result.diagnostics.refinements == 1
        assert (result.diagnostics.n_theta, result.diagnostics.n_phi) == (16, 32)

    def test_empty_inclusion_list_rejected(self, substrate):
        with pytest.raises(ValueError, match="at least one"):
            mie_rate(make_mode(substrate), [], substrate, FAST)

    def test_single_inclusion_without_list(self, substrate, small_cube):
        mode = make_mode(substrate, f_hz=1e9)
        a = mie_rate(mode, small_cube, substrate, FAST)
        b = mie_rate(mode, [small_cube], substrate, FAST)
        assert a.total_rate == b.total_rate


class TestRegimeLabel:
    def test_boundary(self, substrate, ln):
        from phonoscat.radiation import THETA_REGIME

        omega0 = 2 * np.pi * 1e9
        k = omega0 / min_phase_velocity(substrate)
        L = THETA_REGIME / k
        below = Inclusion((L * 0.9,) * 3, (0, 0, 0), ln)
        above = Inclusion((L * 1.1,) * 3, (0, 0, 0), ln)
        assert regime_label(omega0, [below], substrate) == "rayleigh"
        assert regime_label(omega0, [above], substrate) == "mie"

    def test_longest_edge_controls(self, substrate, ln):
        omega0 = 2 * np.pi * 10e9
        thin_but_long = Inclusion((1e-9, 1e-9, 5e-6), (0, 0, 0), ln)
        assert regime_label(omega0, [thin_but_long], substrate) == "mie"

    def test_result_carries_label(self, substrate, small_cube, waveguide):
        assert rayleigh_rate(make_mode(substrate, f_hz=1e9), small_cube, substrate).regime == "rayleigh"
        assert mie_rate(make_mode(substrate), waveguide, substrate, FAST).regime == "mie"


class TestSweeps:
    def test_frequency_sweep_slope(self, substrate, small_cube):
        omegas = 2 * np.pi * np.logspace(9, 10, 5)
        res = sweep(make_mode(substrate), small_cube, substrate, "omega0", omegas, engine="rayleigh")
        assert res.loglog_slope() == pytest.approx(-3.0, abs=1e-10)

    def test_height_sweep_slope(self, substrate, ln, xcut):
        mode = make_mode(substrate, f_hz=1e9)
        base = Inclusion((10e-9, 20e-9, 0.15e-6), (0, 0, 0), ln, orientation=xcut)
        hs = np.logspace(np.log10(10e-9), np.log10(100e-9), 5)
        res = sweep(mode, base, substrate, "height", hs, engine="rayleigh")
        assert res.loglog_slope() == pytest.approx(-4.0, abs=1e-10)
        # The cross-section is h x 2h with the length pinned.
        assert np.allclose(res.results[0].branch_rates, rayleigh_rate(
            mode, Inclusion((hs[0], 2 * hs[0], 0.15e-6), (0, 0, 0), ln, orientation=xcut),
            substrate).branch_rates, rtol=1e-14)

    def test_thickness_sweep_slope(self, substrate, ln, xcut):
        mode = make_mode(substrate, f_hz=1e9)
        base = Inclusion((0.15e-6, 0.15e-6, 1e-9), (0, 0, 0), ln, orientation=xcut)
        ts = np.logspace(np.log10(1e-9), np.log10(10e-9), 5)
        res = sweep(mode, base, substrate, "thickness", ts, engine="rayleigh")
        assert res.loglog_slope() == pytest.approx(-2.0, abs=1e-10)

    def test_loglog_slope_needs_two_points(self, substrate, small_cube):
        res = sweep(make_mode(substrate), small_cube, substrate, "omega0", [2 * np.pi * 1e9],
                    engine="rayleigh")
        with pytest.raises(ValueError, match="three points"):
            res.loglog_slope()

    def test_loglog_slope_needs_three_points(self, substrate, small_cube):
        omegas = 2 * np.pi * np.array([1e9, 2e9])
        res = sweep(make_mode(substrate), small_cube, substrate, "omega0", omegas, engine="rayleigh")
        with pytest.raises(ValueError, match="three points"):
            res.loglog_slope()

    def test_loglog_slope_needs_a_varying_axis(self, substrate, small_cube):
        res = sweep(make_mode(substrate), small_cube, substrate, "omega0", [2 * np.pi * 1e9] * 3,
                    engine="rayleigh")
        with pytest.raises(ValueError, match="not constant"):
            res.loglog_slope()

    def test_unknown_engine_and_axis(self, substrate, small_cube):
        with pytest.raises(ValueError, match="engine"):
            sweep(make_mode(substrate), small_cube, substrate, "omega0", [1e10], engine="exact")
        with pytest.raises(ValueError, match="axis"):
            sweep(make_mode(substrate), small_cube, substrate, "width", [1e-7])


class TestDerivedConstant:
    def test_inverts_closed_form(self, substrate, small_cube):
        """Shear rebuilds the sum of the two shear branches, longitudinal the third."""
        mode = make_mode(substrate, f_hz=1e9)
        r = rayleigh_rate(mode, small_cube, substrate)
        cg = derived_material_constant(r, mode, small_cube, substrate)
        lam, mu = substrate.lame()
        v = np.array([np.sqrt(mu / substrate.rho), np.sqrt((lam + 2 * mu) / substrate.rho)])
        rebuilt = np.array(cg) * small_cube.volume**2 / mode.mode_volume * 4 * np.pi * mode.omega0**4 / v**3
        wanted = [r.branch_rates[0] + r.branch_rates[1], r.branch_rates[2]]
        np.testing.assert_allclose(rebuilt, wanted, rtol=1e-12, atol=0)

    def test_constant_is_scale_free(self, substrate, ln, xcut):
        """Changing frequency, inclusion volume or mode volume must not move it."""
        inc1 = Inclusion((10e-9,) * 3, (0, 0, 0), ln, orientation=xcut)
        inc2 = Inclusion((20e-9,) * 3, (0, 0, 0), ln, orientation=xcut)
        m1 = make_mode(substrate, f_hz=1e9)
        m2 = make_mode(substrate, f_hz=3e9, mode_volume=2e-15)
        cg1 = derived_material_constant(rayleigh_rate(m1, inc1, substrate), m1, inc1, substrate)
        cg2 = derived_material_constant(rayleigh_rate(m2, inc2, substrate), m2, inc2, substrate)
        assert np.allclose(cg1, cg2, rtol=1e-12)

    def test_zero_rate_has_no_constant(self, substrate, silicon):
        """A non-piezoelectric inclusion radiates exactly nothing: no 0/0."""
        mode = make_mode(substrate)
        inc = Inclusion((10e-9,) * 3, (0, 0, 0), silicon)
        r = rayleigh_rate(mode, inc, substrate)
        assert r.total_rate == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derived_material_constant(r, mode, inc, substrate) is None

    @pytest.mark.parametrize("f_hz", [1e-90, 1e78])
    def test_constant_beyond_the_float_range_is_none(self, substrate, small_cube, f_hz):
        """omega0^4 underflows to zero, or overflows, while a (made-up) rate
        stays in the float range."""
        mode = make_mode(substrate, f_hz=f_hz)
        diag = QuadratureDiagnostics(n_theta=0, n_phi=0, rel_error=0.0, converged=True)
        r = RadiationResult(mode.omega0, np.array([1.0, 1.0, 1.0]), "rayleigh", diag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derived_material_constant(r, mode, small_cube, substrate) is None


class TestNonFiniteRates:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_result_refuses_non_finite_rate(self, bad):
        """Built directly, not only through an engine."""
        diag = QuadratureDiagnostics(n_theta=2, n_phi=4, rel_error=0.0, converged=True)
        with pytest.raises(NumericFailure, match="non-finite"):
            RadiationResult(1e10, np.array([1.0, bad, 1.0]), "mie", diag)


class TestDerivedNumbers:
    """A result stores its inputs; the numbers they fix are read from them."""

    def test_no_field_stores_a_derived_number(self):
        derived = {"total_rate", "q_factor", "nodes", "method"}
        for cls in (RadiationResult, QuadratureDiagnostics):
            assert derived.isdisjoint(f.name for f in dataclasses.fields(cls))

    def test_total_and_q_follow_the_branches(self):
        diag = QuadratureDiagnostics(n_theta=2, n_phi=4, rel_error=0.0, converged=True)
        r = RadiationResult(1e10, np.array([1.0, 2.0, 4.0]), "mie", diag)
        assert r.total_rate == 7.0
        assert r.q_factor == 1e10 / 7.0
        zero = dataclasses.replace(r, branch_rates=np.zeros(3))
        assert zero.total_rate == 0.0
        assert zero.q_factor == np.inf

    def test_empty_grid_is_the_closed_form(self):
        d = QuadratureDiagnostics(0, 0, rel_error=0.0, converged=True)
        assert d.nodes == 0
        assert d.method == "analytic"
        q = QuadratureDiagnostics(32, 64, rel_error=1e-4, converged=True)
        assert q.nodes == 2048
        assert q.method == "quadrature"

    def test_engines_report_their_grid(self, substrate, small_cube):
        mode = make_mode(substrate)
        assert rayleigh_rate(mode, small_cube, substrate).diagnostics.method == "analytic"
        d = mie_rate(mode, small_cube, substrate, FAST).diagnostics
        assert (d.method, d.nodes) == ("quadrature", 32 * 64)
