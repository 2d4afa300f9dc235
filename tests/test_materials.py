"""Tensor conversions, rotations and the material database.

The rotation routes through 6x6 and 3x6 matrix algebra are checked against
independent full-index tensor contractions, which is the defining property
they must reproduce.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phonoscat.materials as materials
from phonoscat.materials import (
    CONSTANTS,
    VOIGT_OF_PAIR,
    VOIGT_PAIRS,
    MaterialError,
    MaterialSpec,
    Orientation,
    default_materials,
    is_isotropic_stiffness,
    isotropic_stiffness,
    load_materials,
    piezo_voigt_to_tensor,
    rotate_permittivity,
    rotate_piezo,
    rotate_stiffness,
    stiffness_voigt_to_tensor,
    strain_voigt_to_tensor,
)

from conftest import XCUT_MATRIX, save_materials

DB = default_materials()
LN = DB["lithium_niobate"]


def rodrigues(axis, angle):
    """Independent rotation-matrix construction for use as an oracle."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def random_rotation(rng):
    axis = rng.normal(size=3)
    return rodrigues(axis, rng.uniform(0, 2 * np.pi))


# Element-by-element references of the Voigt expansions and the Bond matrices,
# the loops they are checked against bit for bit.


def loop_piezo_tensor(d):
    dt = np.zeros((3, 3, 3))
    for J, (j, k) in enumerate(VOIGT_PAIRS):
        fac = 1.0 if j == k else 0.5
        dt[:, j, k] = fac * d[:, J]
        dt[:, k, j] = fac * d[:, J]
    return dt


def loop_strain_tensor(s):
    return np.array(
        [
            [s[0], s[5] / 2, s[4] / 2],
            [s[5] / 2, s[1], s[3] / 2],
            [s[4] / 2, s[3] / 2, s[2]],
        ]
    )


def loop_bond_stress(R):
    M = np.zeros((6, 6))
    for I, (i, j) in enumerate(VOIGT_PAIRS):
        for J, (k, l) in enumerate(VOIGT_PAIRS):
            if k == l:
                M[I, J] = R[i, k] * R[j, k]
            else:
                M[I, J] = R[i, k] * R[j, l] + R[i, l] * R[j, k]
    return M


def loop_bond_strain(R):
    N = np.zeros((6, 6))
    for I, (i, j) in enumerate(VOIGT_PAIRS):
        for J, (k, l) in enumerate(VOIGT_PAIRS):
            if i == j:
                N[I, J] = R[i, k] ** 2 if k == l else R[i, k] * R[i, l]  # numpy scalar **: libm pow
            else:
                N[I, J] = 2 * R[i, k] * R[j, k] if k == l else R[i, k] * R[j, l] + R[i, l] * R[j, k]
    return N


def haar_rotations(rng, n):
    """n random proper rotations, uniform on SO(3): QR of Gaussian matrices."""
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0] *= -1
    return q


class TestOrientation:
    def test_identity(self):
        assert np.array_equal(Orientation.identity().matrix, np.eye(3))

    def test_about_axis_matches_independent_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            axis = rng.normal(size=3)
            angle = rng.uniform(-np.pi, np.pi)
            got = Orientation.about_axis(axis, angle).matrix
            assert np.allclose(got, rodrigues(axis, angle), atol=1e-14)

    def test_about_z_quarter_turn_maps_x_to_y(self):
        R = Orientation.about_axis([0, 0, 1], np.pi / 2).matrix
        assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_rejects_reflection(self):
        with pytest.raises(MaterialError):
            Orientation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(MaterialError):
            Orientation(np.eye(3) + 0.01)

    def test_zero_axis_rejected(self):
        with pytest.raises(MaterialError):
            Orientation.about_axis([0, 0, 0], 1.0)

    def test_compose_applies_right_operand_first(self):
        a = Orientation.about_axis([0, 0, 1], 0.3)
        b = Orientation.about_axis([0, 1, 0], 0.7)
        assert np.allclose(a.compose(b).matrix, a.matrix @ b.matrix, atol=1e-15)

    def test_compose_same_axis_adds_angles(self):
        a = Orientation.about_axis([1, 2, 3], 0.4)
        b = Orientation.about_axis([1, 2, 3], 0.5)
        c = Orientation.about_axis([1, 2, 3], 0.9)
        assert np.allclose(a.compose(b).matrix, c.matrix, atol=1e-12)


class TestVoigtConversions:
    def test_pair_tables_are_mutually_consistent(self):
        for voigt_index, (i, j) in enumerate(VOIGT_PAIRS):
            assert VOIGT_OF_PAIR[i, j] == voigt_index
            assert VOIGT_OF_PAIR[j, i] == voigt_index

    def test_stiffness_tensor_entries_are_voigt_entries(self):
        # no symmetry in C, so a swapped index pair cannot pass
        C = np.random.default_rng(0).normal(size=(6, 6))
        c = stiffness_voigt_to_tensor(C)
        for i, j, k, l in itertools.product(range(3), repeat=4):
            assert c[i, j, k, l] == C[VOIGT_OF_PAIR[i, j], VOIGT_OF_PAIR[k, l]]

    def test_stiffness_tensor_has_minor_and_major_symmetry(self):
        c = LN.stiffness_tensor
        assert np.allclose(c, np.swapaxes(c, 0, 1), atol=0)
        assert np.allclose(c, np.swapaxes(c, 2, 3), atol=0)
        assert np.allclose(c, np.transpose(c, (2, 3, 0, 1)), atol=0)

    def test_piezo_tensor_entries_are_voigt_entries(self):
        d = np.random.default_rng(1).normal(size=(3, 6))
        dt = piezo_voigt_to_tensor(d)
        for i, j, k in itertools.product(range(3), repeat=3):
            fac = 1.0 if j == k else 0.5  # engineering shear
            assert dt[i, j, k] == fac * d[i, VOIGT_OF_PAIR[j, k]]

    def test_piezo_shear_entries_halved_in_tensor_form(self):
        d = np.zeros((3, 6))
        d[0, 3] = 2.0  # engineering-shear column (2,3)
        dt = piezo_voigt_to_tensor(d)
        assert dt[0, 1, 2] == dt[0, 2, 1] == 1.0
        d[2, 2] = 5.0  # normal column stays unscaled
        assert piezo_voigt_to_tensor(d)[2, 2, 2] == 5.0

    def test_strain_engineering_shear_convention(self):
        gamma = 0.3
        S = strain_voigt_to_tensor([0, 0, 0, gamma, 0, 0])
        assert S[1, 2] == S[2, 1] == pytest.approx(gamma / 2)
        assert np.array_equal(S, [[0, 0, 0], [0, 0, gamma / 2], [0, gamma / 2, 0]])

    def test_expansions_equal_the_element_loops(self):
        rng = np.random.default_rng(2)
        scales = 10.0 ** rng.integers(-30, 30, size=(500, 1))
        for d, s in zip(rng.normal(size=(500, 3, 6)) * scales[:, None], rng.normal(size=(500, 6)) * scales):
            for got, want in ((piezo_voigt_to_tensor(d), loop_piezo_tensor(d)),
                              (strain_voigt_to_tensor(s), loop_strain_tensor(s))):
                assert np.array_equal(got, want)
                assert got.flags.c_contiguous
        assert np.array_equal(piezo_voigt_to_tensor(LN.d), loop_piezo_tensor(LN.d))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
    def test_strain_tensor_entries_are_voigt_entries(self, values):
        v = np.array(values)
        S = strain_voigt_to_tensor(v)
        for i, j in itertools.product(range(3), repeat=2):
            fac = 1.0 if i == j else 0.5  # engineering shear
            assert S[i, j] == fac * v[VOIGT_OF_PAIR[i, j]]


class TestRotationOracles:
    """Bond-matrix rotation routes versus full-index tensor contraction."""

    def test_stiffness_full_index_oracle(self):
        rng = np.random.default_rng(42)
        c = LN.stiffness_tensor
        for _ in range(5):
            R = random_rotation(rng)
            oracle = np.einsum("ia,jb,kc,ld,abcd->ijkl", R, R, R, R, c)
            got = stiffness_voigt_to_tensor(rotate_stiffness(LN.C, R))
            assert np.max(np.abs(got - oracle)) / np.max(np.abs(oracle)) < 1e-9

    def test_piezo_full_index_oracle(self):
        rng = np.random.default_rng(43)
        dt = piezo_voigt_to_tensor(LN.d)
        for _ in range(5):
            R = random_rotation(rng)
            oracle = np.einsum("ia,jb,kc,abc->ijk", R, R, R, dt)
            got = piezo_voigt_to_tensor(rotate_piezo(LN.d, R))
            assert np.max(np.abs(got - oracle)) / np.max(np.abs(oracle)) < 1e-9

    def test_permittivity_oracle(self):
        rng = np.random.default_rng(44)
        R = random_rotation(rng)
        assert np.allclose(rotate_permittivity(LN.eps_r, R), R @ LN.eps_r @ R.T, atol=1e-12)

    def test_bond_matrices_equal_the_element_loops(self):
        """Bit for bit, so every rotated stiffness and d_lab keeps its bytes;
        N's normal block must stay libm pow, which x * x misses by an ulp."""
        rotations = list(haar_rotations(np.random.default_rng(49), 10_000))
        rotations.append(XCUT_MATRIX)
        rng = np.random.default_rng(50)
        for _ in range(200):
            rotations.append(Orientation.about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi)).matrix)
        turns = np.linspace(0, 2 * np.pi, 13)
        rotations += [Orientation.about_axis(axis, t).matrix for axis in np.eye(3) for t in turns]
        for R in rotations:
            checked = materials._check_rotation(R)
            assert np.array_equal(materials._bond_stress(checked), loop_bond_stress(R))
            assert np.array_equal(materials._bond_strain(checked), loop_bond_strain(R))

    def test_bond_matrices_invert_by_transposing_the_partner(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            R = materials._check_rotation(random_rotation(rng))
            M = materials._bond_stress(R)
            N = materials._bond_strain(R)
            assert np.allclose(N @ M.T, np.eye(6), atol=1e-12)
            assert np.allclose(M @ materials._bond_stress(materials._check_rotation(R.T)), np.eye(6), atol=1e-12)

    def test_rotation_composition(self):
        rng = np.random.default_rng(46)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        once = rotate_stiffness(LN.C, r2 @ r1)
        twice = rotate_stiffness(rotate_stiffness(LN.C, r1), r2)
        assert np.allclose(once, twice, rtol=1e-12, atol=1e-3)
        once_d = rotate_piezo(LN.d, r2 @ r1)
        twice_d = rotate_piezo(rotate_piezo(LN.d, r1), r2)
        assert np.allclose(once_d, twice_d, rtol=1e-12, atol=1e-24)

    def test_linear_invariants_preserved(self):
        # c_iijj and c_ijij are full contractions, invariant under rotation.
        rng = np.random.default_rng(47)
        c = LN.stiffness_tensor
        ref = (np.einsum("iijj->", c), np.einsum("ijij->", c))
        R = random_rotation(rng)
        cr = stiffness_voigt_to_tensor(rotate_stiffness(LN.C, R))
        assert np.einsum("iijj->", cr) == pytest.approx(ref[0], rel=1e-12)
        assert np.einsum("ijij->", cr) == pytest.approx(ref[1], rel=1e-12)

    def test_isotropic_stiffness_is_rotation_invariant(self):
        rng = np.random.default_rng(48)
        C = DB["sapphire_iso"].C
        for _ in range(3):
            R = random_rotation(rng)
            assert np.allclose(rotate_stiffness(C, R), C, rtol=1e-12, atol=1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_rotation_preserves_positive_definiteness(self, seed):
        R = random_rotation(np.random.default_rng(seed))
        assert np.min(np.linalg.eigvalsh(rotate_stiffness(LN.C, R))) > 0

    def test_orientation_accepted_in_place_of_matrix(self, xcut):
        assert np.allclose(
            rotate_piezo(LN.d, xcut), rotate_piezo(LN.d, xcut.matrix), atol=0
        )

    def test_an_orientation_is_not_checked_again(self, monkeypatch, xcut):
        """An Orientation checked its matrix when it was made: rotating by it
        runs no second check."""
        checks = []
        check = materials._check_rotation

        def counted(R):
            checks.append(1)
            return check(R)

        monkeypatch.setattr(materials, "_check_rotation", counted)
        want = rotate_piezo(LN.d, xcut.matrix)
        checks.clear()
        assert np.array_equal(rotate_piezo(LN.d, xcut), want)
        rotate_stiffness(LN.C, xcut)
        assert checks == []

    @pytest.mark.parametrize(
        "rotate",
        [lambda R: rotate_piezo(LN.d, R), lambda R: rotate_stiffness(LN.C, R)],
        ids=["rotate_piezo", "rotate_stiffness"],
    )
    @pytest.mark.parametrize(
        "R, needle",
        [(np.diag([1.0, 1.0, 1.1]), "orthonormal"), (np.diag([1.0, 1.0, -1.0]), "proper")],
    )
    def test_a_raw_matrix_is_still_checked(self, rotate, R, needle):
        with pytest.raises(MaterialError, match=needle):
            rotate(R)


class TestIsotropy:
    def test_isotropic_stiffness_builder(self):
        lam, mu = 50e9, 30e9
        C = isotropic_stiffness(lam, mu)
        assert C[0, 0] == lam + 2 * mu
        assert C[0, 1] == lam
        assert C[3, 3] == mu
        assert is_isotropic_stiffness(C)

    def test_cubic_is_not_isotropic(self):
        assert not is_isotropic_stiffness(DB["silicon"].C)


class TestMaterialSpec:
    def _spec(self, **overrides):
        base = dict(
            name="test",
            rho=3000.0,
            C=isotropic_stiffness(50e9, 30e9),
            d=np.zeros((3, 6)),
            eps_r=np.eye(3) * 10,
        )
        base.update(overrides)
        return MaterialSpec(**base)

    def test_valid_construction(self):
        spec = self._spec()
        assert spec.lame() == (50e9, 30e9)

    def test_rejects_asymmetric_stiffness(self):
        C = isotropic_stiffness(50e9, 30e9)
        C[0, 5] = 1e9
        with pytest.raises(MaterialError, match="symmetric"):
            self._spec(C=C)

    def test_rejects_indefinite_stiffness(self):
        with pytest.raises(MaterialError, match="positive definite"):
            self._spec(C=-isotropic_stiffness(50e9, 30e9))

    def test_rejects_negative_density(self):
        with pytest.raises(MaterialError, match="density"):
            self._spec(rho=-1.0)

    def test_rejects_stiffness_over_density_that_overflows_the_christoffel_matrix(self):
        """The bound 3 |c| / rho, with |c| the rotation-invariant root sum of
        squares of the tensor entries, holds in every frame: just inside it, a
        rotated crystal solves without a warning; just past it, the record is
        refused, naming the material."""
        from phonoscat.elastodynamics import christoffel_many

        C = DB["silicon"].C
        edge = 3 * np.linalg.norm(DB["silicon"].stiffness_tensor) / np.finfo(float).max
        spec = self._spec(C=C, rho=edge * (1 + 1e-12)).rotated(Orientation.about_axis([1, 2, 3], 0.7))
        khats = np.random.default_rng(5).normal(size=(64, 3))
        velocities, _ = christoffel_many(spec, khats / np.linalg.norm(khats, axis=1, keepdims=True))
        assert np.all(np.isfinite(velocities))
        for rho, stiffness in ((edge * (1 - 1e-12), C), (1e-300, C), (3000.0, isotropic_stiffness(1e307, 1e307))):
            with pytest.raises(MaterialError, match="^material 'test': stiffness over density overflows"):
                self._spec(C=stiffness, rho=rho)

    def test_isotropic_flag_is_checked(self, tmp_path):
        """A database record's optional ``isotropic`` flag is checked against C."""
        rec = {
            "name": "bad",
            "rho": 2329.0,
            "C": DB["silicon"].C.ravel().tolist(),
            "d": [0.0] * 18,
            "eps_r": np.eye(3).ravel().tolist(),
            "isotropic": True,
        }
        path = tmp_path / "db.json"
        path.write_text(json.dumps([rec]))
        with pytest.raises(MaterialError, match="isotropic"):
            load_materials(path)

    def test_isotropy_is_computed_from_the_stiffness(self):
        assert self._spec().isotropic
        assert not self._spec(C=DB["silicon"].C).isotropic
        assert DB["sapphire_iso"].rotated(Orientation.about_axis([1, 1, 0], 0.8)).isotropic
        assert not DB["sapphire"].rotated(Orientation.about_axis([1, 1, 0], 0.8)).isotropic
        with pytest.raises(TypeError, match="isotropic"):
            self._spec(isotropic=True)

    def test_nonzero_piezo_requires_flag(self):
        d = np.zeros((3, 6))
        d[2, 2] = 1e-12
        with pytest.raises(MaterialError, match="piezoelectric"):
            self._spec(d=d)

    def test_lame_rejects_anisotropic(self):
        with pytest.raises(MaterialError, match="not isotropic"):
            DB["silicon"].lame()

    def test_rotated_isotropic_is_unchanged(self):
        base = DB["sapphire_iso"]
        rot = base.rotated(Orientation.about_axis([1, 1, 0], 0.8))
        assert np.allclose(rot.C, base.C, rtol=1e-12, atol=1.0)

    def test_rotated_piezo_matches_direct_rotation(self, xcut):
        assert np.allclose(LN.rotated(xcut).d, rotate_piezo(LN.d, xcut), atol=0)

    def test_arrays_are_read_only(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            spec.C[0, 0] = 1.0


class TestDatabase:
    def test_default_contents(self):
        assert set(DB) == {"lithium_niobate", "sapphire", "sapphire_iso", "silicon"}
        assert LN.piezoelectric and not LN.isotropic
        assert DB["sapphire_iso"].isotropic and not DB["sapphire_iso"].piezoelectric

    def test_lithium_niobate_values(self):
        assert LN.rho == pytest.approx(4647.0)
        assert LN.C[0, 0] == pytest.approx(203e9, rel=1e-6)
        assert LN.d[1, 3] == pytest.approx(68e-12, rel=1e-6)  # strong shear route
        assert LN.d[2, 2] == pytest.approx(6e-12, rel=1e-6)  # weak axial route

    def test_isotropic_stand_in_speeds(self):
        m = DB["sapphire_iso"]
        lam, mu = m.lame()
        assert np.sqrt(mu / m.rho) == pytest.approx(6392, rel=1e-3)
        assert np.sqrt((lam + 2 * mu) / m.rho) == pytest.approx(10794, rel=1e-3)

    def test_each_call_returns_a_new_dict_of_the_same_records(self):
        first, second = default_materials(), default_materials()
        assert first is not second
        assert all(first[name] is second[name] for name in second)
        first.pop("silicon")
        second["extra"] = LN
        assert set(default_materials()) == {"lithium_niobate", "sapphire", "sapphire_iso", "silicon"}

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "db.json"
        save_materials(DB, path)
        again = load_materials(path)
        assert set(again) == set(DB)
        for name in DB:
            assert np.allclose(again[name].C, DB[name].C, atol=0)
            assert np.allclose(again[name].d, DB[name].d, atol=0)
            assert again[name].rho == DB[name].rho
            assert again[name].isotropic == DB[name].isotropic

    def _write(self, tmp_path, records):
        path = tmp_path / "db.json"
        path.write_text(json.dumps(records))
        return path

    def _ln_record(self):
        return {
            "name": "lithium_niobate",
            "rho": LN.rho,
            "C": LN.C.ravel().tolist(),
            "d": LN.d.ravel().tolist(),
            "eps_r": LN.eps_r.ravel().tolist(),
            "piezoelectric": True,
        }

    def test_duplicate_record_rejected(self, tmp_path):
        rec = self._ln_record()
        with pytest.raises(MaterialError, match="duplicate"):
            load_materials(self._write(tmp_path, [rec, rec]))

    def test_missing_key_names_record(self, tmp_path):
        rec = self._ln_record()
        del rec["eps_r"]
        with pytest.raises(MaterialError, match="lithium_niobate.*eps_r"):
            load_materials(self._write(tmp_path, [rec]))

    def test_unflagged_isotropic_record_is_isotropic(self, tmp_path):
        iso = DB["sapphire_iso"]
        rec = {
            "name": "iso",
            "rho": iso.rho,
            "C": iso.C.ravel().tolist(),
            "d": [0.0] * 18,
            "eps_r": iso.eps_r.ravel().tolist(),
        }
        spec = load_materials(self._write(tmp_path, [rec]))["iso"]
        assert spec.isotropic
        assert spec.lame() == iso.lame()

    def test_unknown_key_names_record(self, tmp_path):
        rec = self._ln_record()
        rec["color"] = "gray"
        with pytest.raises(MaterialError, match="lithium_niobate.*color"):
            load_materials(self._write(tmp_path, [rec]))

    def test_wrong_length_rejected(self, tmp_path):
        rec = self._ln_record()
        rec["C"] = rec["C"][:-1]
        with pytest.raises(MaterialError, match="36"):
            load_materials(self._write(tmp_path, [rec]))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[{]")
        with pytest.raises(MaterialError, match="invalid JSON"):
            load_materials(path)

    def test_top_level_must_be_array(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{}")
        with pytest.raises(MaterialError, match="array"):
            load_materials(path)


class TestConstants:
    def test_values(self):
        assert CONSTANTS.hbar == pytest.approx(1.054571817e-34)
        assert CONSTANTS.eps0 == pytest.approx(8.8541878128e-12)
