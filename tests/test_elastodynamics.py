"""Batched Christoffel solves and stress patterns.

Closed-form speeds for isotropic and cubic media, a Christoffel matrix built
in the test and a full-index stress contraction serve as independent oracles.
"""

import numpy as np
import pytest

from phonoscat.elastodynamics import (
    _FULL,
    MaterialInstabilityError,
    _voigt_stresses,
    christoffel_many,
    stress_pattern,
)
from phonoscat.materials import Orientation, default_materials

from conftest import XCUT_MATRIX, remix_degenerate

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
        khats = fibonacci_directions(20)
        vels, pols = christoffel_many(substrate, khats)
        for n, khat in enumerate(khats):
            assert vels[n, 0] == pytest.approx(vt, rel=1e-12)
            assert vels[n, 1] == pytest.approx(vt, rel=1e-12)
            assert vels[n, 2] == pytest.approx(vl, rel=1e-12)
            # Longitudinal polarization is along the propagation direction.
            assert abs(np.dot(pols[n, :, 2], khat)) == pytest.approx(1.0, abs=1e-10)


class TestCubicSpeeds:
    """Silicon against textbook cubic-axis formulas."""

    def test_100_axis(self, silicon):
        C = silicon.C
        v1, v2, v3 = christoffel_many(silicon, np.array([[1.0, 0.0, 0.0]]))[0][0]
        assert v3 == pytest.approx(np.sqrt(C[0, 0] / silicon.rho), rel=1e-12)
        assert v1 == pytest.approx(np.sqrt(C[3, 3] / silicon.rho), rel=1e-12)
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_110_axis(self, silicon):
        C = silicon.C
        rho = silicon.rho
        khat = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0)
        vels = sorted(christoffel_many(silicon, khat)[0][0])
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
            G = np.einsum("ijkl,j,k->il", ln.stiffness_tensor, khat, khat) / ln.rho
            vels, _ = christoffel_many(ln, khat[None, :])
            assert np.sum(vels**2) == pytest.approx(np.trace(G), rel=1e-12)

    def test_opposite_directions_agree(self, ln):
        khats = fibonacci_directions(8, seed=2)
        a, _ = christoffel_many(ln, khats)
        b, _ = christoffel_many(ln, -khats)
        assert np.allclose(a, b, rtol=1e-12)

    def test_polarizations_orthonormal(self, ln):
        khats = fibonacci_directions(40, seed=4)
        _, pols = christoffel_many(ln, khats)
        eye = np.einsum("nij,nik->njk", pols, pols)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12

    def test_branches_ascend(self, ln):
        vels, _ = christoffel_many(ln, fibonacci_directions(40, seed=5))
        assert np.all(np.diff(vels, axis=1) >= 0)

    def test_unstable_medium_raises(self, ln):
        class Unstable:
            name = "flipped"
            rho = ln.rho
            stiffness_tensor = -ln.stiffness_tensor

        with pytest.raises(MaterialInstabilityError, match="flipped"):
            christoffel_many(Unstable(), np.array([[0.0, 0.0, 1.0]]))


class TestStressPattern:
    def test_full_index_oracle(self, ln):
        rng = np.random.default_rng(9)
        khats = rng.normal(size=(4, 3))
        khats /= np.linalg.norm(khats, axis=1, keepdims=True)
        pols = rng.normal(size=(4, 3))
        pols /= np.linalg.norm(pols, axis=1, keepdims=True)
        c = ln.stiffness_tensor
        oracle = np.zeros((4, 3, 3))
        for n in range(4):
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        for l in range(3):
                            oracle[n, i, j] += c[i, j, k, l] * khats[n, k] * pols[n, l]
        got = stress_pattern(c, khats, pols)
        assert got.shape == (4, 3, 3)
        assert np.allclose(got, oracle, rtol=1e-13)
        assert np.allclose(got, got.transpose(0, 2, 1), rtol=1e-12)


KERNEL_SUBSTRATES = {
    **DB,
    "lithium_niobate_rotated": DB["lithium_niobate"].rotated(
        Orientation(XCUT_MATRIX).compose(Orientation.about_axis([1, 2, 3], 0.7))
    ),
}


class TestKernelsAreTheEinsumForms:
    """The table's component-major kernels repeat einsum's float operations
    in einsum's order, so they agree with the einsum forms bit for bit:
    array_equal, not allclose.  One node is the call BraggStack makes per
    layer; 2048 is one table span."""

    @pytest.mark.parametrize("n", [1, 7, 2048, 2049])
    @pytest.mark.parametrize("name", sorted(KERNEL_SUBSTRATES))
    def test_bitwise(self, name, n):
        substrate = KERNEL_SUBSTRATES[name]
        c = substrate.stiffness_tensor
        khats = np.random.default_rng(n).normal(size=(n, 3))
        khats /= np.linalg.norm(khats, axis=1, keepdims=True)
        w, vec = np.linalg.eigh(np.einsum("ijkl,nj,nk->nil", c, khats, khats) / substrate.rho)
        vels, pols = christoffel_many(substrate, khats)
        assert np.array_equal(vels, np.sqrt(w)) and np.array_equal(pols, vec)
        voigt = _voigt_stresses(c, khats.T, pols)
        assert voigt.shape == (3, n, 6)
        for q in range(3):
            full = np.take(voigt[q], _FULL, axis=1).reshape(-1, 3, 3)
            assert np.array_equal(full, stress_pattern(c, khats, pols[:, :, q]))


class TestZeroPointStress:
    """The zero-point stress of a phonon is i k u0 times its stress pattern."""

    def test_isotropic_longitudinal_pattern(self, substrate):
        """Along z the longitudinal pattern is diag(lam, lam, lam + 2 mu), up to sign."""
        lam, mu = substrate.lame()
        khat = np.array([[0.0, 0.0, 1.0]])
        _, pols = christoffel_many(substrate, khat)
        tau = stress_pattern(substrate.stiffness_tensor, khat, pols[:, :, 2])[0]
        sign = np.sign(tau[2, 2])
        assert np.allclose(tau, sign * np.diag([lam, lam, lam + 2 * mu]), rtol=1e-12)

    def test_isotropic_transverse_pattern(self, substrate):
        """The transverse pattern has only the symmetric off-diagonal mu pair."""
        _, mu = substrate.lame()
        khat = np.array([[0.0, 0.0, 1.0]])
        _, pols = christoffel_many(substrate, khat)
        e = pols[0, :, 0]
        tau = stress_pattern(substrate.stiffness_tensor, khat, pols[:, :, 0])[0]
        expect = np.zeros((3, 3))
        expect[2, :] = mu * e
        expect[:, 2] += mu * e
        assert np.allclose(tau, expect, rtol=1e-12, atol=mu * 1e-12)


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
