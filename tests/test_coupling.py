"""Field amplitudes, induced strain, cuboid form factors and geometry factors.

The cuboid form factor is checked against two independent oracles: an exact
octant-subdivision identity and direct 3D Simpson quadrature of the
plane-wave overlap integral.  It is in turn the reference for the coherent
sum that the radiation engines evaluate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoscat.coupling import (
    Inclusion,
    MicrowaveMode,
    default_eps_eff,
    geometry_factor,
    induced_strain,
)
from phonoscat.materials import CONSTANTS, ParameterError, default_materials
from phonoscat.radiation import _coherent_power, _sources

from conftest import XCUT_MATRIX, form_factor, make_mode

DB = default_materials()


class TestMicrowaveMode:
    def test_field_zp_formula(self):
        m = MicrowaveMode(2 * np.pi * 1e10, 8e-15, (0, 1, 0), 10.0)
        expect = np.sqrt(
            CONSTANTS.hbar * m.omega0 / (2 * CONSTANTS.eps0 * 10.0 * 8e-15)
        )
        assert m.field_zp == pytest.approx(expect, rel=1e-14)

    def test_volume_doubling_scales_field(self):
        a = MicrowaveMode(1e10, 1e-15, (1, 0, 0), 5.0)
        b = MicrowaveMode(1e10, 2e-15, (1, 0, 0), 5.0)
        assert b.field_zp == pytest.approx(a.field_zp / np.sqrt(2), rel=1e-14)

    def test_direction_normalized(self):
        m = MicrowaveMode(1e10, 1e-15, (0, 3, 4), 5.0)
        assert np.allclose(m.field_direction, [0, 0.6, 0.8], atol=1e-15)

    @pytest.mark.parametrize(
        "kwargs,msg,parameter",
        [
            (dict(omega0=0.0), "frequency", "omega0"),
            (dict(mode_volume=-1e-15), "volume", "mode_volume"),
            (dict(eps_eff=0.0), "permittivity", "eps_eff"),
            (dict(field_direction=(0, 0, 0)), "direction", "field_direction"),
            (dict(field_direction=(0, float("nan"), 0)), "direction must be finite", "field_direction"),
            (dict(omega0=float("nan")), "frequency", "omega0"),
            (dict(omega0=float("inf")), "frequency", "omega0"),
            (dict(mode_volume=float("inf")), "volume", "mode_volume"),
            (dict(eps_eff=float("inf")), "permittivity", "eps_eff"),
            # 2 eps0 eps_eff V_E underflows to zero, or hbar omega0 over it overflows
            (dict(mode_volume=1e-318), "^mode volume 1e-318 m\\^3 is too small for a finite zero-point field$",
             "mode_volume"),
            (dict(mode_volume=5e-324), "too small for a finite zero-point field", "mode_volume"),
            (dict(mode_volume=1e-310, omega0=1e300), "too small for a finite zero-point field", "mode_volume"),
            # and 2 eps0 eps_eff alone leaves the normal range: the permittivity is blamed
            (dict(eps_eff=1e-310), "^effective permittivity 1e-310 is too small for a finite zero-point field$",
             "eps_eff"),
            (dict(eps_eff=1e-300), "^effective permittivity 1e-300 is too small for a finite zero-point field$",
             "eps_eff"),
        ],
    )
    def test_validation(self, kwargs, msg, parameter):
        base = dict(omega0=1e10, mode_volume=1e-15, field_direction=(0, 1, 0), eps_eff=5.0)
        base.update(kwargs)
        with pytest.raises(ParameterError, match=msg) as e:
            MicrowaveMode(**base)
        assert e.value.parameter == parameter

    def test_smallest_volume_with_a_finite_field_is_kept(self):
        assert np.isfinite(MicrowaveMode(1e10, 1e-310, (0, 1, 0), 5.0).field_zp)

    def test_subnormal_permittivity_factor_with_a_finite_field_is_kept(self):
        """2 eps0 eps_eff is subnormal, but times V_E it is not zero."""
        assert 0 < 2 * CONSTANTS.eps0 * 1e-300 < np.finfo(float).tiny
        assert np.isfinite(MicrowaveMode(1e10, 1.0, (0, 1, 0), 1e-300).field_zp)

    def test_default_eps_eff_is_diagonal_mean(self, substrate):
        assert default_eps_eff(substrate) == pytest.approx(
            np.mean(np.diag(substrate.eps_r)), rel=1e-15
        )


class TestInclusion:
    def test_volume(self, ln):
        inc = Inclusion((1e-6, 2e-6, 3e-6), (0, 0, 0), ln)
        assert inc.volume == pytest.approx(6e-18, rel=1e-15)

    def test_d_lab_rotation(self, ln, xcut):
        inc = Inclusion((1e-6,) * 3, (0, 0, 0), ln, orientation=xcut)
        from phonoscat.materials import rotate_piezo

        assert np.allclose(inc.d_lab, rotate_piezo(ln.d, XCUT_MATRIX), atol=0)

    def test_identity_orientation_by_default(self, ln):
        inc = Inclusion((1e-6,) * 3, (0, 0, 0), ln)
        assert np.array_equal(inc.d_lab, ln.d)

    @pytest.mark.parametrize(
        "kwargs,msg,parameter",
        [
            (dict(dimensions=(1e-6, 0.0, 1e-6)), "positive", "dimensions"),
            (dict(dimensions=(1e-6, -1e-6, 1e-6)), "positive", "dimensions"),
            (dict(center=(0, 0)), "3-vector", "center"),
            (dict(sign=2), "sign", "sign"),
            (dict(dimensions=(1e-6, float("nan"), 1e-6)), "positive finite", "dimensions"),
            (dict(dimensions=(1e-6, float("inf"), 1e-6)), "positive finite", "dimensions"),
            (dict(center=(float("nan"), 0, 0)), "finite 3-vector", "center"),
            (dict(center=(0, float("inf"), 0)), "finite 3-vector", "center"),
            (dict(dimensions=(1e-6, 1e-316, 1e-6)), "^inclusion volume underflows to 0 m\\^3$", "dimensions"),
            (dict(dimensions=(1e-160, 1e-160, 1e-6)), "^inclusion volume underflows to 0 m\\^3$", "dimensions"),
        ],
    )
    def test_validation(self, ln, kwargs, msg, parameter):
        base = dict(dimensions=(1e-6,) * 3, center=(0.0, 0.0, 0.0), material=ln)
        base.update(kwargs)
        with pytest.raises(ParameterError, match=msg) as e:
            Inclusion(**base)
        assert e.value.parameter == parameter


class TestInducedStrain:
    def test_matches_voigt_product(self, ln):
        E = np.array([0.0, 2.0e5, 0.0])
        S = induced_strain(ln.d, E)
        s_voigt = ln.d.T @ E
        assert S[0, 0] == pytest.approx(s_voigt[0], rel=1e-14)
        # Engineering shear components are halved in the tensor.
        assert S[1, 2] == pytest.approx(s_voigt[3] / 2, rel=1e-14)
        assert np.allclose(S, S.T, atol=0)

    def test_zero_for_non_piezo(self, silicon):
        assert np.all(induced_strain(silicon.d, [1e5, 1e5, 1e5]) == 0)


class TestFormFactor:
    def _inc(self, ln, dims=(0.4e-6, 0.7e-6, 1.1e-6), center=(0.0, 0.0, 0.0), sign=1):
        return Inclusion(dims, center, ln, sign=sign)

    def test_unity_at_zero_k(self, ln):
        assert form_factor(self._inc(ln), [0.0, 0.0, 0.0]) == 1.0

    def test_translation_is_pure_phase(self, ln):
        k = np.array([2.1e6, -0.3e6, 1.4e6])
        a = form_factor(self._inc(ln), k)
        shift = np.array([0.3e-6, -0.2e-6, 0.9e-6])
        b = form_factor(self._inc(ln, center=shift), k)
        assert abs(b) == pytest.approx(abs(a), rel=1e-13)
        assert b == pytest.approx(a * np.exp(1j * k @ shift), rel=1e-12)

    def test_sign_flips_amplitude(self, ln):
        k = np.array([1.0e6, 2.0e6, 3.0e6])
        assert form_factor(self._inc(ln, sign=-1), k) == pytest.approx(
            -form_factor(self._inc(ln), k), rel=1e-14
        )

    def test_is_the_reference_of_the_coherent_sum_kernel(self, ln, substrate):
        """With unit couplings and the sinc columns of ``np.sinc`` the production
        kernel is |sum_j V_j form_factor_j(k)|^2."""
        incs = [
            self._inc(ln),
            self._inc(ln, dims=(0.2e-6, 0.9e-6, 0.3e-6), center=(0.5e-6, -0.1e-6, 0.2e-6), sign=-1),
            self._inc(ln, dims=(1.3e-6, 0.1e-6, 0.6e-6), center=(-0.4e-6, 0.8e-6, -0.7e-6)),
        ]
        self._check_coherent_sum(incs, substrate)

    def test_is_the_reference_of_the_centred_coherent_sum(self, ln, substrate):
        """Inclusions all at the origin take the kernel's real accumulation;
        it must still equal the complex form-factor sum."""
        incs = [self._inc(ln), self._inc(ln, dims=(0.2e-6, 0.9e-6, 0.3e-6), sign=-1)]
        self._check_coherent_sum(incs, substrate)

    def _check_coherent_sum(self, incs, substrate):
        kvecs = np.random.default_rng(12).normal(scale=5e6, size=(8, 3))
        kvecs[0] = 0.0
        src = _sources(make_mode(substrate), incs)
        vm = [vol * np.ones(len(kvecs)) for vol in src.volume]  # signed V, as the engine's V M
        cols = [[np.sinc(kvecs[:, a] * (inc.dimensions[a] / 2.0) / np.pi) for a in range(3)] for inc in incs]
        got = _coherent_power(src, vm, [(x * y) * z for x, y, z in cols], kvecs)
        want = [abs(sum(inc.volume * form_factor(inc, k) for inc in incs)) ** 2 for k in kvecs]
        assert np.allclose(got, want, rtol=1e-13, atol=0)

    def test_octant_subdivision_identity(self, ln):
        """V * FF(cuboid) equals the sum of V/8 * FF over its eight octants."""
        rng = np.random.default_rng(12)
        dims = np.array([0.4e-6, 0.7e-6, 1.1e-6])
        r0 = np.array([0.2e-6, -0.1e-6, 0.05e-6])
        whole = self._inc(ln, dims=tuple(dims), center=tuple(r0))
        for _ in range(4):
            k = rng.normal(scale=4e6, size=3)
            total = 0.0 + 0.0j
            for sx in (-1, 1):
                for sy in (-1, 1):
                    for sz in (-1, 1):
                        off = np.array([sx, sy, sz]) * dims / 4
                        oct_inc = Inclusion(tuple(dims / 2), tuple(r0 + off), ln)
                        total += oct_inc.volume * form_factor(oct_inc, k)
            assert total == pytest.approx(whole.volume * form_factor(whole, k), rel=1e-12)

    def test_simpson_quadrature_oracle(self, ln):
        """FF = (1/V) integral over the cuboid of e^{i k . r}."""
        from itertools import product

        dims = np.array([0.5e-6, 0.8e-6, 0.3e-6])
        r0 = np.array([0.1e-6, 0.0, -0.2e-6])
        inc = Inclusion(tuple(dims), tuple(r0), ln)
        k = np.array([3.0e6, -5.0e6, 8.0e6])

        n = 41
        axes = [np.linspace(r0[i] - dims[i] / 2, r0[i] + dims[i] / 2, n) for i in range(3)]
        from scipy.integrate import simpson  # noqa: F401

        # Separable integral: integrate each axis independently.
        val = 1.0 + 0.0j
        for i in range(3):
            f = np.exp(1j * k[i] * axes[i])
            val *= simpson(f, x=axes[i]) / dims[i]
        assert form_factor(inc, k) == pytest.approx(val, rel=1e-6)

    def test_first_zero_of_sinc(self, ln):
        dims = (0.4e-6, 0.7e-6, 1.1e-6)
        inc = self._inc(ln, dims=dims)
        k = np.array([2 * np.pi / dims[0], 0.0, 0.0])
        assert abs(form_factor(inc, k)) < 1e-15


class TestGeometryFactor:
    def test_zero_for_vanishing_piezo(self, silicon):
        assert geometry_factor([0, 1, 0], silicon.d, np.eye(3)) == 0.0

    def test_perfectly_aligned_single_entry(self):
        # d with the single tensor entry d_zzz aligned with E || z, T || zz.
        d = np.zeros((3, 6))
        d[2, 2] = 1e-12
        T = np.zeros((3, 3))
        T[2, 2] = 1.0
        assert geometry_factor([0, 0, 1], d, T) == pytest.approx(1.0, rel=1e-14)

    def test_orthogonal_arrangement_is_zero(self):
        d = np.zeros((3, 6))
        d[2, 2] = 1e-12
        T = np.zeros((3, 3))
        T[0, 0] = 1.0
        assert geometry_factor([0, 0, 1], d, T) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(scale=1e-12, size=(3, 6))
        e = rng.normal(size=3)
        T = rng.normal(size=(3, 3))
        T = T + T.T
        G = geometry_factor(e, d, T)
        assert 0.0 <= G <= 1.0 + 1e-12

    def test_validation(self, ln):
        with pytest.raises(ValueError, match="field"):
            geometry_factor([0, 0, 0], ln.d, np.eye(3))
        with pytest.raises(ValueError, match="stress"):
            geometry_factor([0, 0, 1], ln.d, np.zeros((3, 3)))


def random_stresses(rng, shape):
    T = rng.normal(size=shape + (3, 3))
    return T + np.swapaxes(T, -1, -2)


class TestGeometryFactorStack:
    """A (..., 3, 3) stack of stresses gives G of shape (...)."""

    def test_single_stress_gives_a_scalar(self, ln):
        assert np.ndim(geometry_factor([0, 1, 0], ln.d, np.eye(3))) == 0
        assert np.ndim(geometry_factor([0, 1, 0], np.zeros((3, 6)), np.eye(3))) == 0

    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 5)])
    def test_each_entry_is_the_scalar_call(self, shape):
        rng = np.random.default_rng(11)
        d = rng.normal(scale=1e-12, size=(3, 6))
        e = rng.normal(size=3)
        T = random_stresses(rng, shape)
        G = geometry_factor(e, d, T)
        assert G.shape == shape
        for idx in np.ndindex(*shape):
            assert G[idx] == pytest.approx(geometry_factor(e, d, T[idx]), rel=1e-14, abs=0)

    def test_vanishing_piezo_gives_zeros_of_the_stack_shape(self, silicon):
        G = geometry_factor([0, 1, 0], silicon.d, random_stresses(np.random.default_rng(2), (4,)))
        assert G.shape == (4,)
        assert np.all(G == 0.0)

    def test_one_zero_stress_in_a_stack_is_rejected(self, ln):
        T = random_stresses(np.random.default_rng(3), (5,))
        T[2] = 0.0
        with pytest.raises(ValueError, match="stress"):
            geometry_factor([0, 0, 1], ln.d, T)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(scale=1e-12, size=(3, 6))
        G = geometry_factor(rng.normal(size=3), d, random_stresses(rng, (16,)))
        assert np.all((G >= 0.0) & (G <= 1.0 + 1e-12))
