"""Pair interference and acoustic mirror transfer matrices.

The pair rate is checked against an independently coded angular average of
the two-source interference factor, and the mirror against the closed-form
quarter-wave reflectance and the Fresnel step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import christoffel_many
from phonoscat.materials import default_materials
from phonoscat.mitigation import (
    BraggLayer,
    BraggStack,
    bragg_transmission,
    dual_waveguide_rate,
    mitigated_rate,
    transfer_matrix,
)
from phonoscat.radiation import QuadratureSpec, mie_rate

from conftest import make_mode

DB = default_materials()
FAST = QuadratureSpec(n_theta=16, n_phi=32)

# Slab pair used throughout: thin along x so the boxes may sit side by side
# at separations small against the transverse wavelength (~0.64 um at 10 GHz).
SLAB_DIMS = (6.3917e-9, 20e-9, 20e-9)


@pytest.fixture
def slab(ln, xcut):
    return Inclusion(SLAB_DIMS, np.zeros(3), ln, orientation=xcut)


class TestDualWaveguide:
    def test_opposite_signs_cancel_exactly_at_zero_separation(self, slab):
        for name in ("sapphire_iso", "sapphire", "silicon"):
            substrate = DB[name]
            res = dual_waveguide_rate(make_mode(substrate), slab, substrate, np.zeros(3), -1, FAST)
            assert res.pair.total_rate == 0.0, name
            assert res.suppression_ratio == 0.0, name
            assert np.isinf(res.q_gain), name

    def test_equal_signs_double_at_zero_separation(self, substrate, slab):
        mode = make_mode(substrate)
        res = dual_waveguide_rate(mode, slab, substrate, (0.0, 0.0, 0.0), +1, FAST)
        assert res.suppression_ratio == pytest.approx(2.0, rel=1e-12)
        assert res.q_gain == pytest.approx(0.5, rel=1e-12)

    def test_pair_rate_matches_manual_two_inclusion_sum(self, substrate, slab):
        mode = make_mode(substrate)
        sep = np.array([20e-9, 0.0, 0.0])
        res = dual_waveguide_rate(mode, slab, substrate, sep, -1, FAST)
        import dataclasses

        a = dataclasses.replace(slab, center=slab.center + sep / 2)
        b = dataclasses.replace(slab, center=slab.center - sep / 2, sign=-slab.sign)
        direct = mie_rate(mode, [a, b], substrate, FAST)
        assert res.pair.total_rate == direct.total_rate
        assert res.single.total_rate == mie_rate(mode, slab, substrate, FAST).total_rate

    def test_quadratic_small_separation_law(self, substrate, slab):
        """Gamma_pair / (2 Gamma_single) ~ (k d)^2 / 2 for kd << 1."""
        mode = make_mode(substrate)
        seps = np.array([8e-9, 16e-9, 32e-9])
        ratios = [
            dual_waveguide_rate(mode, slab, substrate, (d, 0, 0), -1, FAST).suppression_ratio
            for d in seps
        ]
        slope = np.polyfit(np.log(seps), np.log(ratios), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.01)

    def test_angular_average_oracle(self, substrate, slab):
        """The ratio equals the emission-weighted average of 4 sin^2(k.d/2).

        The weight (density of states times squared coupling of one source)
        is rebuilt here on an independent trapezoid-in-cos(theta) grid.
        """
        from phonoscat.coupling import induced_strain

        mode = make_mode(substrate)
        sep = np.array([0.05e-6, 0.0, 0.0])
        res = dual_waveguide_rate(mode, slab, substrate, sep, -1, QuadratureSpec(48, 96))

        nt, np_ = 481, 96
        ct = np.linspace(-1.0, 1.0, nt)
        w_ct = np.full(nt, 2.0 / (nt - 1))
        w_ct[0] = w_ct[-1] = 1.0 / (nt - 1)
        phi = 2 * np.pi * np.arange(np_) / np_
        stheta = np.sqrt(1 - ct**2)
        khats = np.stack(
            [
                stheta[:, None] * np.cos(phi)[None, :],
                stheta[:, None] * np.sin(phi)[None, :],
                np.broadcast_to(ct[:, None], (nt, np_)),
            ],
            axis=-1,
        ).reshape(-1, 3)
        wts = (w_ct[:, None] * np.full(np_, 2 * np.pi / np_)[None, :]).reshape(-1)

        vels, pols = christoffel_many(substrate, khats)
        c = substrate.stiffness_tensor
        E = mode.field_zp * mode.field_direction
        S = induced_strain(slab.d_lab, E)
        num = 0.0
        den = 0.0
        for q in range(3):
            v = vels[:, q]
            k = mode.omega0 / v
            tau = np.einsum("ijkl,nk,nl->nij", c, khats, pols[:, :, q])
            m2 = np.einsum("nij,ij->n", tau, S) ** 2
            kvec = k[:, None] * khats
            ff2 = np.prod(np.sinc(kvec * np.asarray(SLAB_DIMS) / 2 / np.pi), axis=1) ** 2
            w = wts * m2 * ff2 * k**4 / v  # k0^2/v DOS times k0^2 u0^2 per node
            num += np.sum(w * 4 * np.sin(kvec @ sep / 2) ** 2)
            den += np.sum(w)
        assert res.suppression_ratio * 2 == pytest.approx(num / den, rel=2e-3)

    def test_overlapping_pair_rejected(self, substrate, slab):
        mode = make_mode(substrate)
        with pytest.raises(ValueError, match="overlap"):
            dual_waveguide_rate(mode, slab, substrate, (3e-9, 0, 0), -1, FAST)

    def test_touching_pair_allowed(self, substrate, slab):
        mode = make_mode(substrate)
        res = dual_waveguide_rate(mode, slab, substrate, (SLAB_DIMS[0], 0, 0), -1, FAST)
        assert 0 < res.suppression_ratio < 2

    def test_validation(self, substrate, slab):
        mode = make_mode(substrate)
        with pytest.raises(ValueError, match="relative_sign"):
            dual_waveguide_rate(mode, slab, substrate, (1e-7, 0, 0), 0, FAST)
        with pytest.raises(ValueError, match="3-vector"):
            dual_waveguide_rate(mode, slab, substrate, (1e-7, 0), -1, FAST)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(7.0, 400.0), st.sampled_from([-1, 1]))
    def test_ratio_bounded_by_incoherent_limits(self, nm, sign):
        """Coherent two-source emission never exceeds four times one source."""
        substrate = DB["sapphire_iso"]
        ln = DB["lithium_niobate"]
        from conftest import XCUT_MATRIX
        from phonoscat.materials import Orientation

        slab = Inclusion(SLAB_DIMS, np.zeros(3), ln, orientation=Orientation(XCUT_MATRIX))
        mode = make_mode(substrate)
        res = dual_waveguide_rate(
            mode, slab, substrate, (nm * 1e-9, 0, 0), sign, QuadratureSpec(8, 16)
        )
        assert 0.0 <= res.suppression_ratio <= 2.0 + 1e-9
        assert res.q_gain == pytest.approx(1.0 / res.suppression_ratio, rel=1e-12)


@pytest.fixture(scope="module")
def mirror_materials():
    db = default_materials()
    return db["sapphire_iso"], db["silicon"], db["sapphire"]


def quarter_wave_stack(n, fc=11e9):
    db = default_materials()
    return BraggStack.quarter_wave(db["sapphire_iso"], db["silicon"], db["sapphire"], fc, n)


class TestBraggStack:
    def test_layer_thickness_is_quarter_wavelength(self):
        stack = quarter_wave_stack(1)
        for layer in stack.period:
            assert layer.thickness == pytest.approx(layer.speed / (4 * 11e9), rel=1e-14)

    def test_impedances_from_longitudinal_speed(self, substrate, silicon):
        stack = quarter_wave_stack(1)
        z = np.array([[0.0, 0.0, 1.0]])
        v = christoffel_many(silicon, z)[0][0, 2]
        assert stack.period[0].impedance == pytest.approx(silicon.rho * v, rel=1e-14)
        v_sub = christoffel_many(substrate, z)[0][0, 2]
        assert stack.z_in == stack.z_out == pytest.approx(substrate.rho * v_sub, rel=1e-14)

    def test_direction_norm_is_irrelevant(self, ln, silicon):
        normal = np.array([0.3, -0.2, 0.9])
        a = BraggStack.quarter_wave(ln, silicon, ln, 11e9, 1, normal=normal)
        b = BraggStack.quarter_wave(ln, silicon, ln, 11e9, 1, normal=7.5 * normal)
        assert b.z_in == pytest.approx(a.z_in, rel=1e-14)
        for x, y in zip(a.period, b.period):
            assert y.speed == pytest.approx(x.speed, rel=1e-14)

    def test_zero_direction_rejected(self, ln, silicon):
        with pytest.raises(ValueError, match="nonzero"):
            BraggStack.quarter_wave(ln, silicon, ln, 11e9, 1, normal=(0, 0, 0))

    def test_layers_repeat_period(self):
        stack = quarter_wave_stack(3)
        assert len(stack.layers) == 6
        assert stack.layers[0] is stack.layers[2] is stack.layers[4]

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BraggLayer("x", -1.0, 5000.0, 1e-7)
        with pytest.raises(ValueError, match="n_periods"):
            BraggStack((), -1, 1e7, 1e7)
        with pytest.raises(ValueError, match="BraggLayer"):
            BraggStack(("not a layer",), 1, 1e7, 1e7)
        with pytest.raises(ValueError, match="impedance"):
            BraggStack((), 1, 0.0, 1e7)
        with pytest.raises(ValueError, match="center frequency"):
            quarter_wave_stack(1, fc=0.0)


class TestTransferMatrix:
    def test_unimodular(self):
        stack = quarter_wave_stack(4)
        for f in (3e9, 11e9, 19e9):
            m = transfer_matrix(stack, 2 * np.pi * f)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_empty_stack_is_identity(self):
        stack = quarter_wave_stack(0)
        assert np.allclose(transfer_matrix(stack, 2 * np.pi * 11e9), np.eye(2), atol=0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            transfer_matrix(quarter_wave_stack(1), 0.0)


class TestBraggTransmission:
    def test_matched_empty_stack_transmits_fully(self):
        R, T = bragg_transmission(quarter_wave_stack(0), 2 * np.pi * 11e9)
        assert R == 0.0
        assert T == 1.0

    def test_fresnel_step(self):
        """Zero-thickness limit against the two-medium Fresnel coefficient,
        realized by an impedance step between the outer media."""
        layer = BraggLayer("thin", 2e7, 8000.0, 1e-12)
        z_in, z_out = 1.2e7, 3.1e7
        stack = BraggStack((layer,), 1, z_in, z_out)
        R, T = bragg_transmission(stack, 2 * np.pi * 1e9)
        expect = ((z_out - z_in) / (z_out + z_in)) ** 2
        assert R == pytest.approx(expect, rel=1e-6)
        assert T == pytest.approx(1 - expect, rel=1e-6)

    def test_quarter_wave_closed_form(self):
        """R of an n-period quarter-wave mirror between matched media:
        with x = (Z1/Z2)^(2n), R = ((1 - x)/(1 + x))^2 at the center."""
        omega_c = 2 * np.pi * 11e9
        for n in range(1, 6):
            stack = quarter_wave_stack(n)
            z1, z2 = stack.period[0].impedance, stack.period[1].impedance
            x = (z1 / z2) ** (2 * n)
            expect = ((1 - x) / (1 + x)) ** 2
            R, T = bragg_transmission(stack, omega_c)
            assert R == pytest.approx(expect, rel=1e-12)
            assert R + T == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 5),
        st.floats(0.3, 3.0),
        st.lists(st.floats(5e6, 8e7), min_size=2, max_size=4),
    )
    def test_lossless_energy_balance(self, n, f_ghz, impedances):
        """R + T = 1 for arbitrary lossless stacks and frequencies."""
        period = tuple(
            BraggLayer(f"l{i}", z, 4000.0 + 1000.0 * i, (0.2 + 0.11 * i) * 1e-6)
            for i, z in enumerate(impedances)
        )
        stack = BraggStack(period, n, 1.5e7, 4.0e7)
        R, T = bragg_transmission(stack, 2 * np.pi * f_ghz * 1e9)
        assert R + T == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= R <= 1.0 + 1e-12

    def test_periodic_in_frequency(self):
        """Quarter-wave phases repeat when f advances by 4 f_c."""
        stack = quarter_wave_stack(3)
        f = 7.3e9
        a = bragg_transmission(stack, 2 * np.pi * f)
        b = bragg_transmission(stack, 2 * np.pi * (f + 4 * 11e9))
        assert a[1] == pytest.approx(b[1], rel=1e-9)

    def test_transmittance_strictly_decreasing_in_periods(self):
        omega_c = 2 * np.pi * 11e9
        ts = [bragg_transmission(quarter_wave_stack(n), omega_c)[1] for n in range(7)]
        assert ts[0] == 1.0
        assert all(b < a for a, b in zip(ts, ts[1:]))


class TestMitigatedRate:
    def test_matched_stack_changes_nothing(self, substrate, waveguide):
        mode = make_mode(substrate, f_hz=11e9)
        base = mie_rate(mode, waveguide, substrate, FAST)
        _, T = bragg_transmission(quarter_wave_stack(0), mode.omega0)
        out = mitigated_rate(base, T)
        assert out.total_rate == base.total_rate
        assert np.array_equal(out.branch_rates, base.branch_rates)

    def test_branches_scale_uniformly_by_transmittance(self, substrate, waveguide):
        mode = make_mode(substrate, f_hz=11e9)
        base = mie_rate(mode, waveguide, substrate, FAST)
        stack = quarter_wave_stack(3)
        _, T = bragg_transmission(stack, mode.omega0)
        out = mitigated_rate(base, T)
        assert np.allclose(out.branch_rates, base.branch_rates * T, rtol=1e-14)
        assert out.q_factor == pytest.approx(base.q_factor / T, rel=1e-12)

    def test_q_gain_grows_with_periods(self, substrate, waveguide):
        mode = make_mode(substrate, f_hz=11e9)
        base = mie_rate(mode, waveguide, substrate, FAST)
        ts = [bragg_transmission(quarter_wave_stack(n), mode.omega0)[1] for n in range(7)]
        qs = [mitigated_rate(base, t).q_factor for t in ts]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert qs[6] / qs[0] >= 10.0
