"""Christoffel solves, group velocities and zero-point stress amplitudes.

Closed-form speeds for isotropic and cubic media and a finite-difference
derivative of the dispersion surface serve as independent oracles.
"""

import numpy as np
import pytest

from phonoscat.elastodynamics import (
    MaterialInstabilityError,
    christoffel,
    christoffel_many,
    christoffel_matrix,
    group_velocity,
    stress_pattern,
    zero_point_stress,
)
from phonoscat.materials import CONSTANTS, default_materials

from conftest import remix_degenerate

DB = default_materials()


def fibonacci_directions(n, seed=0):
    """Roughly uniform unit vectors, plus a few axis-aligned ones."""
    i = np.arange(n)
    z = 1 - 2 * (i + 0.5) / n
    r = np.sqrt(1 - z**2)
    phi = np.pi * (1 + 5**0.5) * i
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    axes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]], float)
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return np.vstack([pts, axes])


class TestIsotropicSpeeds:
    def test_transverse_pair_and_longitudinal(self, substrate):
        lam, mu = substrate.lame()
        vt = np.sqrt(mu / substrate.rho)
        vl = np.sqrt((lam + 2 * mu) / substrate.rho)
        for khat in fibonacci_directions(20):
            b1, b2, b3 = christoffel(substrate, khat)
            assert b1.phase_velocity == pytest.approx(vt, rel=1e-12)
            assert b2.phase_velocity == pytest.approx(vt, rel=1e-12)
            assert b3.phase_velocity == pytest.approx(vl, rel=1e-12)
            # Longitudinal polarization is along the propagation direction.
            assert abs(np.dot(b3.polarization, b1.direction)) == pytest.approx(1.0, abs=1e-10)

    def test_isotropic_group_velocity_is_radial(self, substrate):
        for khat in fibonacci_directions(10, seed=3):
            for b in christoffel(substrate, khat):
                assert np.allclose(
                    b.group_velocity, b.phase_velocity * b.direction, rtol=1e-10, atol=1e-6
                )


class TestCubicSpeeds:
    """Silicon against textbook cubic-axis formulas."""

    def test_100_axis(self, silicon):
        C = silicon.C
        b1, b2, b3 = christoffel(silicon, [1, 0, 0])
        assert b3.phase_velocity == pytest.approx(np.sqrt(C[0, 0] / silicon.rho), rel=1e-12)
        assert b1.phase_velocity == pytest.approx(np.sqrt(C[3, 3] / silicon.rho), rel=1e-12)
        assert b2.phase_velocity == pytest.approx(b1.phase_velocity, rel=1e-12)

    def test_110_axis(self, silicon):
        C = silicon.C
        rho = silicon.rho
        vels = sorted(b.phase_velocity for b in christoffel(silicon, [1, 1, 0]))
        expect = sorted(
            [
                np.sqrt((C[0, 0] + C[0, 1] + 2 * C[3, 3]) / (2 * rho)),
                np.sqrt((C[0, 0] - C[0, 1]) / (2 * rho)),
                np.sqrt(C[3, 3] / rho),
            ]
        )
        assert np.allclose(vels, expect, rtol=1e-12)


class TestChristoffelStructure:
    def test_velocity_squares_sum_to_matrix_trace(self, ln):
        for khat in fibonacci_directions(15, seed=1):
            G = christoffel_matrix(ln, khat)
            vels, _ = christoffel_many(ln, np.asarray(khat, float)[None, :])
            assert np.sum(vels**2) == pytest.approx(np.trace(G), rel=1e-12)

    def test_opposite_directions_agree(self, ln):
        for khat in fibonacci_directions(8, seed=2):
            a = [b.phase_velocity for b in christoffel(ln, khat)]
            b = [b.phase_velocity for b in christoffel(ln, -khat)]
            assert np.allclose(a, b, rtol=1e-12)

    def test_direction_norm_is_irrelevant(self, ln):
        a = christoffel(ln, [0.3, -0.2, 0.9])
        b = christoffel(ln, np.array([0.3, -0.2, 0.9]) * 7.5)
        for x, y in zip(a, b):
            assert x.phase_velocity == pytest.approx(y.phase_velocity, rel=1e-14)

    def test_polarizations_orthonormal(self, ln):
        khats = fibonacci_directions(40, seed=4)
        _, pols = christoffel_many(ln, khats)
        eye = np.einsum("nij,nik->njk", pols, pols)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12

    def test_branches_ascend(self, ln):
        vels, _ = christoffel_many(ln, fibonacci_directions(40, seed=5))
        assert np.all(np.diff(vels, axis=1) >= 0)

    def test_many_matches_single(self, ln):
        khats = fibonacci_directions(6, seed=6)
        vels, pols = christoffel_many(ln, khats)
        for n, khat in enumerate(khats):
            branches = christoffel(ln, khat)
            for q, b in enumerate(branches):
                assert b.phase_velocity == pytest.approx(vels[n, q], rel=1e-14)
                # Polarizations may differ by sign.
                assert abs(np.dot(b.polarization, pols[n, :, q])) == pytest.approx(1, abs=1e-10)

    def test_zero_direction_rejected(self, ln):
        with pytest.raises(ValueError, match="nonzero"):
            christoffel(ln, [0, 0, 0])

    def test_unstable_medium_raises(self, ln):
        class Unstable:
            name = "flipped"
            rho = ln.rho
            stiffness_tensor = -ln.stiffness_tensor

        with pytest.raises(MaterialInstabilityError, match="flipped"):
            christoffel_many(Unstable(), np.array([[0.0, 0.0, 1.0]]))


class TestGroupVelocity:
    def test_projection_onto_khat_is_phase_velocity(self, ln):
        for khat in fibonacci_directions(25, seed=7):
            for b in christoffel(ln, khat):
                assert np.dot(b.group_velocity, b.direction) == pytest.approx(
                    b.phase_velocity, rel=1e-10
                )

    def test_finite_difference_oracle(self, ln):
        """Central difference of Omega(k) = v(khat) |k| against the analytic form."""
        rng = np.random.default_rng(8)
        h = 1e-6

        def omega3(kvec):
            kvec = np.asarray(kvec, dtype=float)
            kmag = np.linalg.norm(kvec)
            return christoffel(ln, kvec / kmag)[2].phase_velocity * kmag

        for _ in range(6):
            khat = rng.normal(size=3)
            khat /= np.linalg.norm(khat)
            k0 = 1e7 * khat
            b3 = christoffel(ln, khat)[2]
            fd = np.empty(3)
            for m in range(3):
                dk = np.zeros(3)
                dk[m] = h * 1e7
                fd[m] = (omega3(k0 + dk) - omega3(k0 - dk)) / (2 * dk[m])
            assert np.allclose(fd, b3.group_velocity, rtol=1e-5, atol=1e-4)

    def test_standalone_helper_matches_branch(self, ln):
        khat = np.array([0.2, 0.5, 0.6])
        khat /= np.linalg.norm(khat)
        b = christoffel(ln, khat)[2]
        vg = group_velocity(ln, khat, b.polarization, b.phase_velocity)
        assert np.allclose(vg, b.group_velocity, rtol=1e-14)


class TestStressPattern:
    def test_full_index_oracle(self, ln):
        rng = np.random.default_rng(9)
        khat = rng.normal(size=3)
        khat /= np.linalg.norm(khat)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        c = ln.stiffness_tensor
        oracle = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        oracle[i, j] += c[i, j, k, l] * khat[k] * e[l]
        got = stress_pattern(c, khat, e)
        assert np.allclose(got, oracle, rtol=1e-13)
        assert np.allclose(got, got.T, rtol=1e-12)


class TestZeroPointStress:
    def test_isotropic_longitudinal_pattern(self, substrate):
        """Along z the longitudinal stress is diag(lam, lam, lam + 2 mu) k u0."""
        lam, mu = substrate.lame()
        k = np.array([0.0, 0.0, 2e7])
        w = zero_point_stress(substrate, k, 3, 1.0)
        scale = np.linalg.norm(k) * w.displacement_zp
        sign = np.sign(np.real(w.stress_zp[2, 2] / 1j))
        expect = 1j * sign * scale * np.diag([lam, lam, lam + 2 * mu])
        assert np.allclose(w.stress_zp, expect, rtol=1e-12)

    def test_isotropic_transverse_pattern(self, substrate):
        """Transverse stress has only the symmetric off-diagonal mu k u0 pair."""
        _, mu = substrate.lame()
        k = np.array([0.0, 0.0, 2e7])
        w = zero_point_stress(substrate, k, 1, 1.0)
        scale = np.linalg.norm(k) * w.displacement_zp * mu
        e = w.polarization
        expect = np.zeros((3, 3), complex)
        expect[2, :] = 1j * scale * e
        expect[:, 2] += 1j * scale * e
        assert np.allclose(w.stress_zp, expect, rtol=1e-12, atol=scale * 1e-12)

    def test_displacement_zp_formula(self, ln):
        k = np.array([1e6, 2e6, -0.5e6])
        w = zero_point_stress(ln, k, 2, 3e-18)
        expect = np.sqrt(CONSTANTS.hbar / (2 * ln.rho * w.omega * 3e-18))
        assert w.displacement_zp == pytest.approx(expect, rel=1e-14)

    def test_volume_scaling(self, ln):
        k = np.array([0.0, 1e7, 0.0])
        a = zero_point_stress(ln, k, 3, 1.0)
        b = zero_point_stress(ln, k, 3, 4.0)
        assert np.allclose(a.stress_zp, 2 * b.stress_zp, rtol=1e-14)
        assert a.omega == b.omega

    def test_dispersion_is_linear_in_k(self, ln):
        khat = np.array([0.6, 0.0, 0.8])
        a = zero_point_stress(ln, 1e6 * khat, 3, 1.0)
        b = zero_point_stress(ln, 3e6 * khat, 3, 1.0)
        assert b.omega == pytest.approx(3 * a.omega, rel=1e-14)
        assert a.omega == pytest.approx(a.phase_velocity * 1e6, rel=1e-14)

    def test_validation(self, ln):
        with pytest.raises(ValueError, match="branch"):
            zero_point_stress(ln, [0, 0, 1e6], 4, 1.0)
        with pytest.raises(ValueError, match="volume"):
            zero_point_stress(ln, [0, 0, 1e6], 1, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            zero_point_stress(ln, [0, 0, 0], 1, 1.0)


class TestDegenerateRemix:
    def test_velocities_unchanged_and_projector_invariant(self, substrate):
        """Random in-plane remixing must leave branch-complete sums alone."""
        khats = fibonacci_directions(30, seed=10)
        v0, p0 = christoffel_many(substrate, khats)
        v1, p1 = christoffel_many(substrate, khats)
        p1 = remix_degenerate(v1, p1, np.random.default_rng(1))
        v2, p2 = christoffel_many(substrate, khats)
        p2 = remix_degenerate(v2, p2, np.random.default_rng(2))
        assert np.array_equal(v0, v1) and np.array_equal(v0, v2)
        # Shear-pair projector sum_q e_q e_q^T over the degenerate doublet.
        for pols in (p0, p1, p2):
            proj = np.einsum("niq,njq->nij", pols[:, :, :2], pols[:, :, :2])
            ref = np.einsum("niq,njq->nij", p0[:, :, :2], p0[:, :, :2])
            assert np.max(np.abs(proj - ref)) < 1e-9

    def test_remix_changes_individual_vectors(self, substrate):
        khats = fibonacci_directions(5, seed=11)
        v0, p0 = christoffel_many(substrate, khats)
        p1 = remix_degenerate(v0, p0, np.random.default_rng(7))
        assert np.max(np.abs(np.abs(p0[:, :, 0]) - np.abs(p1[:, :, 0]))) > 1e-3
