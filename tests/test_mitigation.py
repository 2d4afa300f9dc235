"""Pair interference and acoustic mirror transfer matrices.

The pair rate is checked against an independently coded angular average of
the two-source interference factor, and the mirror against the closed-form
quarter-wave reflectance and the Fresnel step.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import christoffel_many
from phonoscat.materials import ParameterError, default_materials
from phonoscat.mitigation import (
    BraggLayer,
    BraggStack,
    DualWaveguideResult,
    _bragg_sweep,
    bragg_transmission,
    dual_waveguide_rate,
    mitigated_rate,
    transfer_matrix,
)
from phonoscat.radiation import (
    NumericFailure,
    QuadratureDiagnostics,
    QuadratureSpec,
    RadiationResult,
    mie_rate,
)

from conftest import DEEP_STOPBAND_T, make_mode

DB = default_materials()
FAST = QuadratureSpec(n_theta=16, n_phi=32)

# Slab pair used throughout: thin along x so the boxes may sit side by side
# at separations small against the transverse wavelength (~0.64 um at 10 GHz).
SLAB_DIMS = (6.3917e-9, 20e-9, 20e-9)


@pytest.fixture
def slab(ln, xcut):
    return Inclusion(SLAB_DIMS, np.zeros(3), ln, orientation=xcut)


def made_up_result(branch_rates, omega0=2 * np.pi * 10e9):
    diag = QuadratureDiagnostics(n_theta=32, n_phi=64, rel_error=0.0, converged=True)
    return RadiationResult(omega0, branch_rates, "mie", diag)


class TestDualWaveguide:
    def test_ratio_and_gain_follow_the_rates(self):
        pair, single = made_up_result(np.array([1.0, 2.0, 3.0])), made_up_result(np.full(3, 2.0))
        res = DualWaveguideResult(pair, single, (1e-7, 0, 0), -1)
        assert res.suppression_ratio == 6.0 / 12.0
        assert res.q_gain == 2.0
        assert {"suppression_ratio", "q_gain"}.isdisjoint(
            f.name for f in dataclasses.fields(DualWaveguideResult)
        )

    def test_zero_single_rate_raises_at_construction(self):
        zero = made_up_result(np.zeros(3))
        with pytest.raises(
            NumericFailure,
            match="^the single-inclusion rate is exactly zero, so the suppression ratio is undefined$",
        ):
            DualWaveguideResult(zero, zero, (1e-7, 0, 0), -1)

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
        with pytest.raises(ParameterError, match="^stack normal must be finite and nonzero in length$") as e:
            BraggStack.quarter_wave(ln, silicon, ln, 11e9, 1, normal=(0, 0, 0))
        assert e.value.parameter == "normal"

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BraggLayer("x", -1.0, 5000.0, 1e-7)
        for values in [(np.inf, 5000.0, 1e-7), (1e7, np.inf, 1e-7), (1e7, 5000.0, np.inf), (1e7, 5000.0, np.nan)]:
            with pytest.raises(ValueError, match="positive and finite"):
                BraggLayer("x", *values)
        with pytest.raises(ValueError, match="n_periods"):
            BraggStack((), -1, 1e7, 1e7)
        with pytest.raises(ValueError, match="BraggLayer"):
            BraggStack(("not a layer",), 1, 1e7, 1e7)
        with pytest.raises(ValueError, match="impedance"):
            BraggStack((), 1, 0.0, 1e7)
        # quarter_wave: a center frequency that is not positive and finite, or
        # whose quarter-wave thickness v / (4 f_c) overflows
        for fc, msg in [
            (0.0, "^center frequency must be positive and finite$"),
            (np.inf, "^center frequency must be positive and finite$"),
            (1e-320, "^layer 'silicon': thickness v / \\(4 f_c\\) overflows$"),
        ]:
            with pytest.raises(ParameterError, match=msg) as e:
                quarter_wave_stack(1, fc=fc)
            assert e.value.parameter == "center_frequency"


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

    @pytest.mark.parametrize(
        "call",
        [
            transfer_matrix,
            bragg_transmission,
            lambda stack, omega: list(_bragg_sweep(stack, omega, [1])),
        ],
        ids=["transfer_matrix", "bragg_transmission", "bragg_sweep"],
    )
    def test_layer_phase_that_overflows_names_the_layer(self, call):
        """At f_c = 1e-301 Hz each quarter-wave thickness is finite, but
        omega d / v at 10 GHz is not: a ValueError naming the first layer's
        phase, not an overflowing product, and no numpy warning."""
        stack = quarter_wave_stack(1, fc=1e-301)
        assert all(layer.thickness < np.inf for layer in stack.period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^layer 'silicon': phase omega d / v overflows at omega = "):
                call(stack, 2 * np.pi * 10e9)


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

    @pytest.mark.parametrize("periods", sorted(DEEP_STOPBAND_T))
    def test_deep_stopband_transmittance_matches_reference(self, periods):
        """Off-centre deep in the stopband, where t = a (1 + r) + b (1 - r) / z_in
        cancelled (T read 1.1e-13 at 28 periods, 36 at 52, 2e167 at 300)."""
        R, T = bragg_transmission(quarter_wave_stack(periods), 2 * np.pi * 10e9)
        assert T == pytest.approx(DEEP_STOPBAND_T[periods], rel=1e-13, abs=0)
        assert R + T == pytest.approx(1.0, abs=1e-15)

    def test_centre_transmittance_matches_closed_form_to_300_periods(self):
        """At the centre, T = 4x / (1 + x)^2 with x = (Z1/Z2)^(2N)."""
        omega_c = 2 * np.pi * 11e9
        period = quarter_wave_stack(1).period
        x_one = (period[0].impedance / period[1].impedance) ** 2
        for n in range(301):
            x = x_one**n
            _, T = bragg_transmission(quarter_wave_stack(n), omega_c)
            assert T == pytest.approx(4 * x / (1 + x) ** 2, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "periods,f_ghz,needle",
        [
            (434, 11.0, "transmittance underflows"),
            (464, 10.0, "transmittance underflows"),
            (488, 10.0, "transmittance underflows"),
            (700, 10.0, "transmittance underflows"),
            (867, 11.0, "transfer matrix overflows"),
        ],
    )
    def test_transmittance_below_the_normal_range_raises(self, periods, f_ghz, needle):
        """T goes subnormal, then to zero; further out z_in (s + p) and then the
        matrix overflow.  Each raises naming the period count, with no numpy
        warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match=f"{needle} at {periods} periods"):
                bragg_transmission(quarter_wave_stack(periods), 2 * np.pi * f_ghz * 1e9)

    def test_last_normal_transmittance_is_returned(self):
        _, T = bragg_transmission(quarter_wave_stack(463), 2 * np.pi * 10e9)
        assert np.finfo(float).tiny <= T < 1e-306

    def test_a_stack_that_is_not_lossless_raises(self, monkeypatch):
        """det M = 4: T = 1/4 and R = 0, so R + T misses 1."""
        import phonoscat.mitigation as mitigation

        monkeypatch.setattr(mitigation, "transfer_matrix", lambda stack, omega: 2 * np.eye(2, dtype=complex))
        with pytest.raises(NumericFailure, match="R \\+ T misses 1 by 0.75 at 3 periods$"):
            bragg_transmission(quarter_wave_stack(3), 2 * np.pi * 11e9)

    def test_transmittance_strictly_decreasing_in_periods(self):
        omega_c = 2 * np.pi * 11e9
        ts = [bragg_transmission(quarter_wave_stack(n), omega_c)[1] for n in range(7)]
        assert ts[0] == 1.0
        assert all(b < a for a, b in zip(ts, ts[1:]))


class TestBraggSweep:
    """One running product over the swept period counts gives each count's
    ``bragg_transmission`` bit for bit, and raises what it would raise."""

    @pytest.mark.parametrize("f_ghz", [11.0, 10.0, 7.0])
    def test_equals_each_count_alone(self, f_ghz):
        omega = 2 * np.pi * f_ghz * 1e9
        counts = list(range(301))
        got = np.array(list(_bragg_sweep(quarter_wave_stack(1), omega, counts)))
        want = np.array([bragg_transmission(quarter_wave_stack(n), omega) for n in counts])
        assert got.tobytes() == want.tobytes()

    def test_unsorted_and_repeated_counts_keep_their_order(self):
        omega = 2 * np.pi * 10e9
        counts = [7, 0, 300, 7, 2]
        got = list(_bragg_sweep(quarter_wave_stack(5), omega, counts))
        assert got == [bragg_transmission(quarter_wave_stack(n), omega) for n in counts]

    @pytest.mark.parametrize(
        "counts,message",
        [
            ([2, 470, 1000], "transmittance underflows at 470 periods"),
            ([1000, 470, 2], "transfer matrix overflows at 1000 periods"),
        ],
    )
    def test_raises_at_the_first_failing_count_in_order(self, counts, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = _bragg_sweep(quarter_wave_stack(1), 2 * np.pi * 10e9, counts)
            with pytest.raises(NumericFailure, match=message):
                list(sweep)

    @pytest.mark.parametrize("counts", [[2, -1], [3, 2.5]])
    def test_rejects_a_bad_count_before_any_product(self, counts, monkeypatch):
        import phonoscat.mitigation as mitigation

        monkeypatch.setattr(mitigation, "_transfer_matrices", lambda *args: pytest.fail("product built"))
        with pytest.raises(ValueError, match="n_periods must be a nonnegative integer"):
            next(_bragg_sweep(quarter_wave_stack(1), 2 * np.pi * 10e9, counts))

    def test_transfer_matrix_is_the_running_product(self):
        omega = 2 * np.pi * 10e9
        for n in (0, 1, 6, 40):
            m = np.eye(2, dtype=complex)
            for layer in quarter_wave_stack(n).period * n:
                phi = omega * layer.thickness / layer.speed
                c, s = np.cos(phi), np.sin(phi)
                m = np.array([[c, 1j * layer.impedance * s], [1j * s / layer.impedance, c]]) @ m
            assert transfer_matrix(quarter_wave_stack(n), omega).tobytes() == m.tobytes()


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

    def test_rate_scaled_below_the_float_range_raises(self):
        base = made_up_result(np.full(3, 1e-10))
        with pytest.raises(NumericFailure, match="rate behind the mirror underflows"):
            mitigated_rate(base, np.finfo(float).tiny)

    def test_zero_rate_stays_zero(self):
        """A non-piezoelectric inclusion radiates nothing with or without the mirror."""
        out = mitigated_rate(made_up_result(np.zeros(3)), 1e-300)
        assert out.total_rate == 0.0
        assert out.q_factor == np.inf
