"""Electro-optic model, mode-volume invariance and orientation sweeps."""

import numpy as np
import pytest

from phonoscat.coupling import Inclusion
from phonoscat.radiation import QuadratureSpec, mie_rate, rayleigh_rate, refined_rate
from phonoscat.transducer import (
    EoModel,
    emission_weighted_overlap,
    figure_of_merit,
    sweep_orientation,
)

from conftest import make_mode

FAST = QuadratureSpec(n_theta=16, n_phi=32)


class TestEoModel:
    def test_sqrt_volume_scaling(self):
        eo = EoModel(g0=2 * np.pi * 2e3, v_ref=8e-15)
        assert eo.g_mo(8e-15) == pytest.approx(eo.g0, rel=1e-14)
        assert eo.g_mo(2e-15) == pytest.approx(2 * eo.g0, rel=1e-14)
        assert eo.g_mo(32e-15) == pytest.approx(eo.g0 / 2, rel=1e-14)

    def test_overlap_scales_linearly(self):
        a = EoModel(g0=1e4, v_ref=8e-15, overlap=1.0)
        b = EoModel(g0=1e4, v_ref=8e-15, overlap=0.25)
        assert b.g_mo(8e-15) == pytest.approx(a.g_mo(8e-15) / 4, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(g0=0.0), "g0"),
            (dict(v_ref=-1e-15), "reference mode volume"),
            (dict(overlap=1.5), "overlap"),
            (dict(overlap=-0.1), "overlap"),
        ],
    )
    def test_validation(self, kwargs, msg):
        base = dict(g0=1e4, v_ref=8e-15, overlap=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError, match=msg):
            EoModel(**base)

    def test_nonpositive_mode_volume_rejected(self):
        with pytest.raises(ValueError, match="mode volume"):
            EoModel(g0=1e4, v_ref=8e-15).g_mo(0.0)


class TestFigureOfMerit:
    def test_formula(self, substrate, small_cube):
        mode = make_mode(substrate)
        eo = EoModel(g0=2 * np.pi * 2e3, v_ref=8e-15)
        r = rayleigh_rate(mode, small_cube, substrate)
        eta = figure_of_merit(eo, mode, r)
        assert eta == pytest.approx((eo.g_mo(mode.mode_volume) / (2 * np.pi)) ** 2 * r.q_factor)

    def test_mode_volume_invariance_over_three_decades(self, substrate, small_cube):
        """g_MO^2 ~ 1/V_E and Q ~ V_E cancel; eta must not drift."""
        eo = EoModel(g0=2 * np.pi * 2e3, v_ref=8e-15)
        etas = []
        for v_e in np.logspace(-16, -13, 7):
            mode = make_mode(substrate, mode_volume=v_e)
            r = rayleigh_rate(mode, small_cube, substrate)
            etas.append(figure_of_merit(eo, mode, r))
        etas = np.array(etas)
        drift = np.max(np.abs(etas - etas[0])) / etas[0]
        assert drift < 1e-9

    def test_invariance_holds_for_quadrature_engine(self, substrate, small_cube):
        eo = EoModel(g0=2 * np.pi * 2e3, v_ref=8e-15)
        etas = []
        for v_e in (1e-15, 1e-13):
            mode = make_mode(substrate, f_hz=1e9, mode_volume=v_e)
            etas.append(figure_of_merit(eo, mode, mie_rate(mode, small_cube, substrate, FAST)))
        assert abs(etas[1] - etas[0]) / etas[0] < 1e-9

    def test_zero_overlap_kills_eta(self, substrate, small_cube):
        mode = make_mode(substrate)
        r = rayleigh_rate(mode, small_cube, substrate)
        eo = EoModel(g0=1e4, v_ref=8e-15, overlap=0.0)
        assert figure_of_merit(eo, mode, r) == 0.0

    def test_monotone_in_overlap(self, substrate, small_cube):
        mode = make_mode(substrate)
        r = rayleigh_rate(mode, small_cube, substrate)
        etas = [
            figure_of_merit(EoModel(1e4, 8e-15, xi), mode, r) for xi in (0.2, 0.5, 1.0)
        ]
        assert etas[0] < etas[1] < etas[2]


class TestEmissionWeightedOverlap:
    def test_zero_for_non_piezo(self, substrate, silicon):
        mode = make_mode(substrate)
        inc = Inclusion((0.1e-6,) * 3, (0, 0, 0), silicon)
        assert emission_weighted_overlap(mode, inc, substrate) == 0.0

    def test_bounded(self, substrate, waveguide):
        mode = make_mode(substrate)
        G = emission_weighted_overlap(mode, waveguide, substrate)
        assert 0.0 < G < 1.0

    def test_independent_of_inclusion_size(self, substrate, ln, xcut):
        """G is a pure tensor-alignment diagnostic; geometry must not enter."""
        mode = make_mode(substrate)
        a = Inclusion((0.1e-6,) * 3, (0, 0, 0), ln, orientation=xcut)
        b = Inclusion((2e-6, 0.3e-6, 1e-6), (0.5e-6, 0, 0), ln, orientation=xcut)
        ga = emission_weighted_overlap(mode, a, substrate)
        gb = emission_weighted_overlap(mode, b, substrate)
        assert ga == pytest.approx(gb, rel=1e-12)


class TestOrientationSweep:
    def test_half_turn_parity(self, substrate, waveguide):
        """A 180 degree spin flips the sign of every rank-3 tensor component,
        which squares away: Gamma and G must repeat exactly."""
        mode = make_mode(substrate)
        sweep = sweep_orientation(
            mode, waveguide, substrate, [0.0, np.pi], axis=(0, 0, 1), quad=FAST
        )
        assert sweep.gammas[1] == pytest.approx(sweep.gammas[0], rel=1e-12)
        assert sweep.overlaps[1] == pytest.approx(sweep.overlaps[0], rel=1e-12)

    def test_lithium_niobate_anisotropy_is_strong(self, substrate, waveguide):
        mode = make_mode(substrate)
        angles = np.linspace(0.0, np.pi, 7, endpoint=False)
        sweep = sweep_orientation(mode, waveguide, substrate, angles, quad=FAST)
        assert np.max(sweep.q_factors) / np.min(sweep.q_factors) > 3.0
        assert np.all(sweep.overlaps >= 0.0) and np.all(sweep.overlaps <= 1.0)
        assert np.allclose(sweep.q_factors, mode.omega0 / sweep.gammas, rtol=1e-12)

    def test_non_piezo_inclusion_is_flat_and_silent(self, substrate, silicon):
        mode = make_mode(substrate)
        inc = Inclusion((0.2e-6,) * 3, (0, 0, 0), silicon)
        sweep = sweep_orientation(mode, inc, substrate, np.linspace(0, 1.0, 3), quad=FAST)
        assert np.all(sweep.gammas == 0.0)
        assert np.all(sweep.overlaps == 0.0)
        assert np.all(np.isinf(sweep.q_factors))

    def test_zero_angle_matches_unrotated_rate(self, substrate, waveguide):
        mode = make_mode(substrate)
        sweep = sweep_orientation(mode, waveguide, substrate, [0.0], quad=FAST)
        direct = refined_rate(mode, waveguide, substrate, FAST)
        assert sweep.gammas[0] == pytest.approx(direct.total_rate, rel=1e-14)

    def test_empty_grid_rejected(self, substrate, waveguide):
        with pytest.raises(ValueError, match="empty"):
            sweep_orientation(make_mode(substrate), waveguide, substrate, [], quad=FAST)
