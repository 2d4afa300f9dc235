"""Electro-optic model, mode-volume invariance and orientation sweeps."""

import dataclasses

import numpy as np
import pytest

import phonoscat.transducer as transducer
from phonoscat.coupling import Inclusion
from phonoscat.elastodynamics import angular_table, christoffel_many, stress_pattern
from phonoscat.materials import Orientation, piezo_voigt_to_tensor
from phonoscat.radiation import QuadratureSpec, mie_rate, rayleigh_rate, refined_rate
from phonoscat.transducer import (
    EoModel,
    emission_weighted_overlap,
    figure_of_merit,
    sweep_orientation,
)

from conftest import make_mode

FAST = QuadratureSpec(n_theta=16, n_phi=32)
# (axis, angle) spins on top of the x-cut: none, and three turns about generic axes.
TURNS = [((0, 0, 1), 0.0), ((1, 2, 3), 0.7), ((-2, 1, 0.5), 2.3), ((1, -1, 4), 4.1)]


def overlap_per_node(mode, inclusion, substrate):
    """Reference for emission_weighted_overlap: G node by node, one stress at a
    time, from a Christoffel solve of its own on the 16x32 grid."""
    grid = angular_table(substrate, 16, 32)
    _, pols = christoffel_many(substrate, grid.khats)
    dt = piezo_voigt_to_tensor(inclusion.d_lab)
    dn2 = float(np.sum(dt * dt))
    num = 0.0
    den = 0.0
    for q in range(3):
        tau = stress_pattern(substrate.stiffness_tensor, grid.khats, pols[:, :, q])
        w = grid.weights / grid.velocities[:, q] ** 5
        g = []
        for T in tau:
            x = float(np.einsum("i,ijk,jk->", mode.field_direction, dt, T / np.sqrt(np.sum(T * T))))
            g.append(x * x / dn2)
        num += float(np.sum(w * np.array(g)))
        den += float(np.sum(w))
    return num / den


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

    @pytest.mark.parametrize(
        ("name", "finite"),
        [
            pytest.param("sapphire", False, id="sapphire"),
            pytest.param("silicon", False, id="silicon"),
            pytest.param("sapphire", True, id="sapphire-waveguide"),
            pytest.param("silicon", True, id="silicon-waveguide"),
        ],
    )
    def test_invariance_on_anisotropic_substrates(self, db, ln, waveguide, name, finite):
        """eta must not move when V_E doubles: for a sub-nm rotated cuboid at
        1 GHz, and for the x-cut 0.5x1x5 um waveguide at 10 GHz (Mie regime)."""
        substrate = db[name]
        inc = waveguide if finite else Inclusion(
            (0.5e-9, 0.7e-9, 0.9e-9), (0, 0, 0), ln, orientation=Orientation.about_axis((1, 2, 3), 0.7)
        )
        eo = EoModel(g0=2 * np.pi * 2e3, v_ref=8e-15)
        etas = []
        for v_e in (8e-15, 16e-15):
            mode = make_mode(substrate, f_hz=10e9 if finite else 1e9, mode_volume=v_e)
            etas.append(figure_of_merit(eo, mode, refined_rate(mode, inc, substrate, FAST)))
        assert etas[1] == pytest.approx(etas[0], rel=1e-12)

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

    @pytest.mark.parametrize("turn", TURNS)
    @pytest.mark.parametrize("name", ["sapphire_iso", "sapphire", "silicon"])
    def test_matches_the_per_node_loop(self, db, ln, xcut, name, turn):
        substrate = db[name]
        axis, angle = turn
        spin = Orientation.about_axis(axis, angle)
        inc = Inclusion((1e-6,) * 3, (0, 0, 0), ln, orientation=spin.compose(xcut))
        for direction in ((0, 1, 0), (1, -2, 0.5)):
            mode = make_mode(substrate, direction=direction)
            got = emission_weighted_overlap(mode, inc, substrate)
            assert got == pytest.approx(overlap_per_node(mode, inc, substrate), rel=1e-14, abs=0)

    def test_one_alignment_call_per_branch(self, monkeypatch, substrate, waveguide):
        """Each branch's whole 16x32 table goes through geometry_factor at once."""
        stacks = []
        batched = transducer.geometry_factor

        def counted(field_direction, d, stress_directions):
            stacks.append(np.shape(stress_directions))
            return batched(field_direction, d, stress_directions)

        monkeypatch.setattr(transducer, "geometry_factor", counted)
        emission_weighted_overlap(make_mode(substrate), waveguide, substrate)
        assert stacks == [(16 * 32, 3, 3)] * 3


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
        angles = [0.0, 0.4, 1.3, 2.9]
        sweep = sweep_orientation(mode, waveguide, substrate, angles, quad=FAST)
        direct = refined_rate(mode, waveguide, substrate, FAST)
        assert sweep.gammas[0] == pytest.approx(direct.total_rate, rel=1e-14)
        # every angle of the scan is its own refined_rate, bit for bit
        for angle, r in zip(angles, sweep.results):
            spin = Orientation.about_axis((0.0, 0.0, 1.0), angle)
            inc = dataclasses.replace(waveguide, orientation=spin.compose(waveguide.orientation))
            alone = refined_rate(mode, inc, substrate, FAST)
            assert np.array_equal(r.branch_rates, alone.branch_rates)
            assert r.diagnostics == alone.diagnostics

    def test_empty_grid_rejected(self, substrate, waveguide):
        with pytest.raises(ValueError, match="empty"):
            sweep_orientation(make_mode(substrate), waveguide, substrate, [], quad=FAST)
