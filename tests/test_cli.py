"""End-to-end command-line behavior: configs, CSV output and exit codes.

Everything runs in-process through main(argv), so exit codes and stderr
messages are asserted directly.
"""

import csv
import json
import warnings

import numpy as np
import pytest

from phonoscat.cli import ENV_MATERIALS, load_run_config, main
from phonoscat.materials import default_materials

from conftest import save_materials

SMALL_QUAD = {"n_theta": 16, "n_phi": 32}

XCUT = {"matrix": [[0, 0, -1], [0, 1, 0], [1, 0, 0]]}


def base_config(**overrides):
    cfg = {
        "scenario": "rayleigh",
        "substrate": "sapphire_iso",
        "mode": {"frequency_GHz": 10.0, "mode_volume_um3": 8000.0, "field_direction": [0, 1, 0]},
        "inclusions": [
            {
                "material": "lithium_niobate",
                "dimensions_um": [0.01, 0.01, 0.01],
                "orientation": XCUT,
            }
        ],
        "sweep": {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "stop": 10.0, "count": 5},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, cfg):
    out = tmp_path / "out.csv"
    code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestRunRayleigh:
    def test_csv_schema_and_report(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, base_config())
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["f_GHz", "Gamma_rad_s", "Q", "regime"]
        assert len(rows) == 5
        assert rows[0][0] == "1.0"
        assert all(r[3] in ("rayleigh", "mie") for r in rows)
        qs = np.array([float(r[2]) for r in rows])
        assert np.all(qs > 0)
        captured = capsys.readouterr()
        assert "fitted log-log slope of Q vs frequency_GHz" in captured.out
        assert "derived material constant" in captured.out

    def test_frequency_slope_is_minus_three(self, tmp_path):
        code, out = run_cli(tmp_path, base_config())
        assert code == 0
        _, rows = read_csv(out)
        x = np.log([float(r[0]) for r in rows])
        y = np.log([float(r[2]) for r in rows])
        assert np.polyfit(x, y, 1)[0] == pytest.approx(-3.0, abs=0.01)

    @pytest.mark.parametrize(
        "sweep",
        [
            {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "stop": 10.0, "count": 2},
            {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "count": 3},
        ],
        ids=["two_points", "constant_axis"],
    )
    def test_no_slope_line_without_a_fit(self, tmp_path, capsys, sweep):
        code, _ = run_cli(tmp_path, base_config(sweep=sweep))
        assert code == 0
        assert "fitted log-log slope" not in capsys.readouterr().out

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", write_config(tmp_path, base_config())])
        assert code == 0
        assert (tmp_path / "phonoscat_rayleigh.csv").exists()


class TestRunMie:
    def _cfg(self, **kw):
        kw.setdefault("quadrature", dict(SMALL_QUAD))
        return base_config(scenario="mie", **kw)

    def test_runs_and_reports_quadrature(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, self._cfg())
        assert code == 0
        assert "quadrature: up to" in capsys.readouterr().out

    def test_zero_rate_skips_the_derived_constant(self, tmp_path, capsys):
        # omega0^4 underflows to 0, and so does the rate
        cfg = self._cfg(quadrature={"n_theta": 8, "n_phi": 16})
        cfg["mode"]["frequency_GHz"] = 1e-100
        cfg["inclusions"][0]["dimensions_um"] = [0.5, 1.0, 5.0]
        cfg["sweep"] = {"axis": "height_um", "grid": "linear", "start": 0.01, "stop": 0.01, "count": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        assert code == 0
        assert caught == []
        stdout = capsys.readouterr().out
        assert "nan" not in stdout
        assert "derived material constant: skipped (zero rate)" in stdout
        assert read_csv(out)[1] == [["0.01", "0.0", "inf", "rayleigh"]]

    def test_byte_identical_repeats(self, tmp_path):
        cfg = self._cfg()
        _, out1 = run_cli(tmp_path, cfg)
        data1 = out1.read_bytes()
        _, out2 = run_cli(tmp_path, cfg)
        assert out2.read_bytes() == data1

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = self._cfg()
        cfg["inclusions"][0]["dimensions_um"] = [0.5, 1.0, 5.0]
        cfg["sweep"] = {"axis": "frequency_GHz", "grid": "log", "start": 5.0, "stop": 10.0, "count": 2}
        _, out1 = run_cli(tmp_path, cfg)
        serial = out1.read_bytes()
        cfg["quadrature"]["threads"] = 4
        code = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert (tmp_path / "t.csv").read_bytes() == serial

    def test_anisotropic_substrate_allowed(self, tmp_path):
        cfg = self._cfg(substrate="sapphire")
        cfg["sweep"]["count"] = 2
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2


class TestRunOtherScenarios:
    def test_dual_waveguide(self, tmp_path, capsys):
        cfg = base_config(
            scenario="dual_waveguide",
            quadrature=dict(SMALL_QUAD),
            dual={"direction": [1, 0, 0], "relative_sign": -1},
        )
        cfg["inclusions"][0]["dimensions_um"] = [0.0063917, 0.02, 0.02]
        cfg["sweep"] = {"axis": "separation_um", "grid": "log", "start": 0.0063917, "stop": 0.03, "count": 4}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["separation_um", "Gamma_pair_rad_s", "suppression_ratio", "Q_pair", "q_gain"]
        ratios = [float(r[2]) for r in rows]
        assert all(0 < x < 2 for x in ratios)
        assert ratios == sorted(ratios)  # monotone growth with separation here
        assert "suppression ratio vs separation_um" in capsys.readouterr().out

    def test_bragg(self, tmp_path, capsys):
        cfg = base_config(
            scenario="bragg",
            quadrature=dict(SMALL_QUAD),
            bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0},
        )
        cfg["mode"]["frequency_GHz"] = 11.0
        cfg["inclusions"][0]["dimensions_um"] = [0.5, 1.0, 5.0]
        cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 6, "count": 7}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["n_periods", "reflectance", "transmittance", "Gamma_rad_s", "Q", "q_gain"]
        trans = [float(r[2]) for r in rows]
        assert trans[0] == 1.0
        assert all(b < a for a, b in zip(trans, trans[1:]))
        for r in rows:
            assert float(r[1]) + float(r[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[-1][5]) >= 10.0
        assert "unmitigated Q" in capsys.readouterr().out

    def test_bragg_builds_one_stack_and_one_transmission_per_point(self, tmp_path, monkeypatch):
        import phonoscat.cli as cli

        calls = {"quarter_wave": 0, "bragg_transmission": 0}
        quarter_wave, transmission = cli.BraggStack.quarter_wave, cli.bragg_transmission

        def counting_quarter_wave(*args, **kwargs):
            calls["quarter_wave"] += 1
            return quarter_wave(*args, **kwargs)

        def counting_transmission(*args, **kwargs):
            calls["bragg_transmission"] += 1
            return transmission(*args, **kwargs)

        monkeypatch.setattr(cli.BraggStack, "quarter_wave", staticmethod(counting_quarter_wave))
        monkeypatch.setattr(cli, "bragg_transmission", counting_transmission)
        cfg = base_config(
            scenario="bragg",
            quadrature={"n_theta": 8, "n_phi": 16},
            bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0},
        )
        cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 6, "count": 7}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        assert len(read_csv(out)[1]) == 7
        assert calls == {"quarter_wave": 1, "bragg_transmission": 7}

    def test_figure_of_merit(self, tmp_path, capsys):
        cfg = base_config(
            scenario="figure_of_merit",
            quadrature=dict(SMALL_QUAD),
            eo={"g0_Hz": 2000.0, "v_ref_um3": 8000.0, "overlap": 1.0},
        )
        cfg["inclusions"][0]["dimensions_um"] = [0.5, 1.0, 5.0]
        cfg["sweep"] = {"axis": "height_um", "grid": "log", "start": 0.4, "stop": 1.0, "count": 3}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["h_um", "Gamma_rad_s", "Q", "g_mo_Hz", "eta_Hz2"]
        assert "peak figure of merit" in capsys.readouterr().out
        # eta = (g/2pi)^2 Q consistency inside each row
        for r in rows:
            assert float(r[4]) == pytest.approx(float(r[3]) ** 2 * float(r[2]), rel=1e-12)

    def test_orientation(self, tmp_path):
        cfg = base_config(scenario="orientation", quadrature=dict(SMALL_QUAD))
        cfg["inclusions"][0]["dimensions_um"] = [0.5, 1.0, 5.0]
        cfg["sweep"] = {"axis": "angle_deg", "grid": "linear", "start": 0.0, "stop": 180.0, "count": 5}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["angle_deg", "G", "Gamma_rad_s", "Q"]
        # 0 and 180 degrees coincide by tensor parity.
        assert float(rows[-1][2]) == pytest.approx(float(rows[0][2]), rel=1e-10)

    def test_oracle_check(self, tmp_path, capsys):
        cfg = base_config(scenario="oracle_check", quadrature=dict(SMALL_QUAD))
        cfg["sweep"] = {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "stop": 1.0, "count": 1}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0][3]) < 0.02
        assert "within threshold" in capsys.readouterr().out


class TestConfigErrors:
    def check(self, tmp_path, capsys, cfg, needle):
        code, _ = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert needle in err
        assert err.startswith("config error:")

    def test_negative_dimension_names_field(self, tmp_path, capsys):
        cfg = base_config()
        cfg["inclusions"][0]["dimensions_um"] = [0.01, -0.01, 0.01]
        self.check(tmp_path, capsys, cfg, "inclusions[0].dimensions_um: components must be positive")

    def test_nan_field_direction_names_field(self, tmp_path, capsys):
        cfg = base_config(scenario="mie", quadrature=dict(SMALL_QUAD))
        cfg["mode"]["field_direction"] = [0, float("nan"), 0]
        self.check(tmp_path, capsys, cfg, "mode.field_direction: components must be finite")

    def test_nan_center_names_field(self, tmp_path, capsys):
        cfg = base_config(scenario="mie", quadrature=dict(SMALL_QUAD))
        cfg["inclusions"][0]["center_um"] = [float("nan"), 0, 0]
        self.check(tmp_path, capsys, cfg, "inclusions[0].center_um: components must be finite")

    def test_infinite_number_names_field(self, tmp_path, capsys):
        cfg = base_config()
        cfg["mode"]["frequency_GHz"] = float("inf")
        self.check(tmp_path, capsys, cfg, "mode.frequency_GHz: must be finite")

    def test_integer_beyond_float_range_names_field(self, tmp_path, capsys):
        cfg = base_config()
        cfg["mode"]["frequency_GHz"] = 10**400
        self.check(tmp_path, capsys, cfg, "mode.frequency_GHz: must be finite")

    @pytest.mark.parametrize(
        ("section", "key", "maximum"),
        [("sweep", "count", 10_000), ("quadrature", "n_theta", 1024), ("quadrature", "n_phi", 2048)],
    )
    @pytest.mark.parametrize("value", [10**400, 2**62])
    def test_size_beyond_its_maximum_names_field(self, tmp_path, capsys, section, key, maximum, value):
        cfg = base_config()
        cfg.setdefault(section, {})[key] = value
        self.check(tmp_path, capsys, cfg, f"{section}.{key}: must be at most {maximum}")

    def test_infinite_eps_eff(self, tmp_path, capsys):
        cfg = base_config()
        cfg["mode"]["eps_eff"] = float("inf")
        self.check(tmp_path, capsys, cfg, "mode.eps_eff")

    def test_non_numeric_orientation_matrix(self, tmp_path, capsys):
        cfg = base_config()
        cfg["inclusions"][0]["orientation"] = {"matrix": "abc"}
        self.check(tmp_path, capsys, cfg, "inclusions[0].orientation.matrix: expected a 3x3 matrix")

    def test_unknown_top_level_key(self, tmp_path, capsys):
        self.check(tmp_path, capsys, base_config(tolerance=1e-3), "unknown field")

    def test_unknown_scenario(self, tmp_path, capsys):
        self.check(tmp_path, capsys, base_config(scenario="exact"), "scenario")

    def test_axis_not_valid_for_scenario(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sweep"]["axis"] = "separation_um"
        self.check(tmp_path, capsys, cfg, "not valid for scenario")

    def test_unknown_material(self, tmp_path, capsys):
        cfg = base_config()
        cfg["inclusions"][0]["material"] = "quartz"
        self.check(tmp_path, capsys, cfg, "unknown material 'quartz'")

    def test_rayleigh_needs_isotropic_substrate(self, tmp_path, capsys):
        self.check(tmp_path, capsys, base_config(substrate="sapphire"), "isotropic")

    def test_rayleigh_needs_single_inclusion(self, tmp_path, capsys):
        cfg = base_config()
        cfg["inclusions"] = cfg["inclusions"] * 2
        self.check(tmp_path, capsys, cfg, "exactly one inclusion")

    def test_figure_of_merit_needs_eo(self, tmp_path, capsys):
        cfg = base_config(scenario="figure_of_merit")
        cfg["sweep"]["axis"] = "height_um"
        cfg["sweep"]["start"] = cfg["sweep"]["stop"] = 0.5
        cfg["sweep"]["count"] = 1
        self.check(tmp_path, capsys, cfg, "eo: required")

    def test_fractional_n_periods_grid(self, tmp_path, capsys):
        cfg = base_config(
            scenario="bragg",
            bragg={"low": "silicon", "high": "sapphire"},
        )
        cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 5, "count": 3}
        self.check(tmp_path, capsys, cfg, "integers")

    def test_overlapping_dual_separation(self, tmp_path, capsys):
        cfg = base_config(scenario="dual_waveguide", quadrature=dict(SMALL_QUAD))
        cfg["inclusions"][0]["dimensions_um"] = [0.02, 0.02, 0.02]
        cfg["sweep"] = {"axis": "separation_um", "grid": "linear", "start": 0.001, "stop": 0.001, "count": 1}
        self.check(tmp_path, capsys, cfg, "overlap")

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.json")])
        assert code == 2
        assert "no such config file" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": }')
        code = main(["run", str(path)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_quad_flag(self, tmp_path, monkeypatch):
        """The quadrature is set in the config only: either flag is a usage error."""
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("a rate was computed for an unknown flag")

        monkeypatch.setattr(cli, "execute", never)
        for flag in (["--quad", "24x48"], ["--threads", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["run", write_config(tmp_path, base_config())] + flag)
            assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        ("via", "value", "needle"),
        [
            ("n_periods", 4e18, "sweep: n_periods must be between 0 and 10000"),
            ("n_periods", 10_001, "sweep: n_periods must be between 0 and 10000"),
            ("threads", 65, "quadrature.threads: must be at most 64"),
            ("threads", 4 * 10**18, "quadrature.threads: must be at most 64"),
        ],
    )
    def test_size_beyond_its_maximum_computes_nothing(self, tmp_path, capsys, monkeypatch, via, value, needle):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("a rate was computed before the size bound was checked")

        monkeypatch.setattr(cli, "execute", never)
        cfg = base_config(scenario="mie", quadrature=dict(SMALL_QUAD))
        if via == "n_periods":
            cfg = base_config(scenario="bragg", bragg={"low": "silicon", "high": "sapphire"})
            cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": value, "stop": value, "count": 1}
        else:
            cfg["quadrature"]["threads"] = value
        code, _ = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {needle}")

    @pytest.mark.parametrize(
        ("where", "value", "needle"),
        [
            ("dimensions_um", ["0.01", "0.01", "0.01"], "inclusions[0].dimensions_um: expected numeric components"),
            ("dimensions_um", [True, True, True], "inclusions[0].dimensions_um: expected numeric components"),
            ("field_direction", [False, True, False], "mode.field_direction: expected numeric components"),
            ("matrix", [[False, False, True], [False, True, False], [True, False, False]],
             "inclusions[0].orientation.matrix: expected a 3x3 matrix"),
            ("matrix", [["0", "0", "-1"], ["0", "1", "0"], ["1", "0", "0"]],
             "inclusions[0].orientation.matrix: expected a 3x3 matrix"),
        ],
        ids=["dimension-strings", "dimension-booleans", "field-booleans", "matrix-booleans", "matrix-strings"],
    )
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, capsys, monkeypatch, where, value, needle):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("a rate was computed for a non-numeric component")

        monkeypatch.setattr(cli, "execute", never)
        cfg = base_config(scenario="mie", quadrature=dict(SMALL_QUAD))
        if where == "field_direction":
            cfg["mode"][where] = value
        elif where == "matrix":
            cfg["inclusions"][0]["orientation"] = {"matrix": value}
        else:
            cfg["inclusions"][0][where] = value
        self.check(tmp_path, capsys, cfg, needle)

    @pytest.mark.parametrize(
        ("section", "value"),
        [("quadrature", []), ("quadrature", False), ("quadrature", 0), ("quadrature", ""), ("dual", []), ("bragg", 0)],
    )
    def test_section_that_is_not_an_object(self, tmp_path, capsys, monkeypatch, section, value):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("a rate was computed for a section of the wrong type")

        monkeypatch.setattr(cli, "execute", never)
        self.check(tmp_path, capsys, base_config(**{section: value}), f"config error: {section}: expected an object")

    def test_orientation_rejects_both_forms(self, tmp_path, capsys):
        cfg = base_config()
        cfg["inclusions"][0]["orientation"] = {
            "matrix": XCUT["matrix"],
            "axis": [0, 0, 1],
            "angle_deg": 10.0,
        }
        self.check(tmp_path, capsys, cfg, "not both")

    def test_orientation_rejects_improper_matrix(self, tmp_path, capsys):
        cfg = base_config()
        cfg["inclusions"][0]["orientation"] = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
        self.check(tmp_path, capsys, cfg, "orientation")


class TestPathErrors:
    """A path that cannot be read or written exits 2 and names the path."""

    def check(self, capsys, argv, path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert str(path) in err
        assert "Traceback" not in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.check(capsys, ["run", str(tmp_path)], tmp_path)

    def test_materials_db_is_a_directory(self, tmp_path, capsys):
        cfg = base_config(materials_db=str(tmp_path))
        self.check(capsys, ["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")], tmp_path)

    def test_materials_db_is_not_a_string(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, base_config(materials_db=5))
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: materials_db: expected a string path")

    def test_output_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        self.check(capsys, ["run", write_config(tmp_path, base_config()), "--out", str(out)], out)

    @pytest.mark.parametrize("via", ["--out", "output"])
    def test_missing_output_directory_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, via):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("the sweep ran before the output directory was checked")

        monkeypatch.setattr(cli, "execute", never)
        out = tmp_path / "missing" / "out.csv"
        if via == "--out":
            argv = ["run", write_config(tmp_path, base_config()), "--out", str(out)]
        else:
            argv = ["run", write_config(tmp_path, base_config(output=str(out)))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output:")
        assert str(out) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("via", ["--out", "output"])
    def test_output_directory_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, via):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "execute", never)
        out = tmp_path / "out.csv"
        out.mkdir()
        if via == "--out":
            argv = ["run", write_config(tmp_path, base_config()), "--out", str(out)]
        else:
            argv = ["run", write_config(tmp_path, base_config(output=str(out)))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output:")
        assert f"'{out}' is a directory" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("via", ["--out", "output"])
    def test_empty_output_path_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, via):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "execute", never)
        monkeypatch.chdir(tmp_path)
        if via == "--out":
            argv = ["run", write_config(tmp_path, base_config()), "--out", ""]
        else:
            argv = ["run", write_config(tmp_path, base_config(output=""))]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: output: expected a non-empty path")
        assert not list(tmp_path.glob("*.csv"))

    def test_output_is_a_directory(self, tmp_path, capsys):
        self.check(capsys, ["run", write_config(tmp_path, base_config()), "--out", str(tmp_path)], tmp_path)

    def test_validate_a_directory(self, tmp_path, capsys):
        self.check(capsys, ["materials", "validate", str(tmp_path)], tmp_path)

    def test_validate_a_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('[{"name": "caf\u00e9"}]'.encode("latin-1"))
        self.check(capsys, ["materials", "validate", str(path)], path)


class TestNumericFailure:
    def test_nonconvergent_quadrature_exits_3(self, tmp_path, capsys):
        cfg = base_config(
            scenario="mie",
            quadrature={"n_theta": 2, "n_phi": 4, "tolerance": 1e-12},
        )
        cfg["inclusions"][0]["dimensions_um"] = [30.0, 30.0, 0.001]
        cfg["sweep"] = {"axis": "frequency_GHz", "grid": "log", "start": 10.0, "stop": 10.0, "count": 1}
        code, _ = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure:")
        assert "did not reach tolerance" in err


    def test_non_finite_rate_exits_3(self, tmp_path, capsys, monkeypatch):
        import phonoscat.radiation as radiation

        monkeypatch.setattr(radiation, "_gamma_branches", lambda *a: np.array([1.0, np.nan, 1.0]))
        cfg = base_config(scenario="mie", quadrature=dict(SMALL_QUAD))
        code, out = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure: non-finite radiated rate")
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario,material,f_ghz,sweep,needle",
        [
            ("dual_waveguide", "sapphire", 10.0, ("separation_um", 0.02, 0.1, 3), "single-inclusion rate"),
            ("dual_waveguide", "lithium_niobate", 1e-100, ("separation_um", 0.02, 0.1, 3), "single-inclusion rate"),
            ("bragg", "sapphire", 10.0, ("n_periods", 0, 2, 3), "unmitigated rate"),
            ("figure_of_merit", "sapphire", 10.0, ("height_um", 0.2, 0.4, 2), "rate at h_um = 0.2"),
            ("oracle_check", "sapphire", 5.0, ("frequency_GHz", 5.0, 5.0, 1), "mie rate at 5 GHz"),
            ("oracle_check", "lithium_niobate", 1e-100, ("frequency_GHz", 1e-100, 1e-100, 1), "mie rate at 1e-100 GHz"),
        ],
    )
    def test_ratio_over_a_zero_rate_exits_3(self, tmp_path, capsys, scenario, material, f_ghz, sweep, needle):
        """A non-piezoelectric inclusion, or a rate that underflows, leaves a
        ratio over the zero rate undefined: exit 3, no nan, nothing written."""
        extra = {
            "dual_waveguide": {"dual": {"direction": [1, 0, 0], "relative_sign": -1}},
            "bragg": {"bragg": {"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0}},
            "figure_of_merit": {"eo": {"g0_Hz": 2000.0, "v_ref_um3": 8000.0}},
        }.get(scenario, {})
        cfg = base_config(scenario=scenario, quadrature=dict(SMALL_QUAD), **extra)
        cfg["inclusions"][0]["material"] = material
        cfg["mode"]["frequency_GHz"] = f_ghz
        axis, start, stop, count = sweep
        cfg["sweep"] = {"axis": axis, "grid": "linear", "start": start, "stop": stop, "count": count}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("numeric failure:")
        assert f"{needle} is exactly zero" in captured.err
        assert "nan" not in captured.out
        assert caught == []
        assert not out.exists()


class TestRefinementPath:
    """Every quadrature scenario refines an unconverged grid or exits 3."""

    UNCONVERGED = {"n_theta": 2, "n_phi": 4, "tolerance": 1e-9}

    def _waveguide(self, scenario, axis, start, stop, count, **kw):
        cfg = base_config(scenario=scenario, **kw)
        cfg["inclusions"][0]["dimensions_um"] = [0.5, 1.0, 5.0]
        cfg["sweep"] = {"axis": axis, "grid": "linear", "start": start, "stop": stop, "count": count}
        return cfg

    @pytest.mark.parametrize(
        "scenario,axis,start,stop",
        [("dual_waveguide", "separation_um", 2.0, 3.0), ("orientation", "angle_deg", 0.0, 90.0)],
    )
    def test_unconverged_grid_exits_3(self, tmp_path, capsys, scenario, axis, start, stop):
        cfg = self._waveguide(scenario, axis, start, stop, 2, quadrature=dict(self.UNCONVERGED))
        code, out = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure: quadrature did not reach tolerance 1e-09")
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario,axis,start,stop",
        [("dual_waveguide", "separation_um", 2.0, 3.0), ("orientation", "angle_deg", 0.0, 90.0)],
    )
    def test_diagnostics_are_reported(self, tmp_path, capsys, scenario, axis, start, stop):
        self._assert_diagnostics(tmp_path, capsys, scenario, axis, start, stop, {})

    @pytest.mark.parametrize(
        "scenario,axis,start,stop,extra",
        [
            ("bragg", "n_periods", 0, 2, {"bragg": {"low": "silicon", "high": "sapphire"}}),
            ("figure_of_merit", "height_um", 0.4, 1.0, {"eo": {"g0_Hz": 2000.0, "v_ref_um3": 8000.0}}),
            ("oracle_check", "frequency_GHz", 1.0, 2.0, {}),
        ],
    )
    def test_diagnostics_are_reported_for_every_quadrature_scenario(
        self, tmp_path, capsys, scenario, axis, start, stop, extra
    ):
        self._assert_diagnostics(tmp_path, capsys, scenario, axis, start, stop, extra)

    def _assert_diagnostics(self, tmp_path, capsys, scenario, axis, start, stop, extra):
        cfg = self._waveguide(scenario, axis, start, stop, 2, quadrature=dict(SMALL_QUAD), **extra)
        code, _ = run_cli(tmp_path, cfg)
        out = capsys.readouterr().out
        assert code == 0
        assert "regime tags: mie" in out
        assert "all converged: True" in out

    def test_dual_computes_the_single_rate_once(self, tmp_path, monkeypatch):
        import phonoscat.radiation as radiation

        calls = []
        original = radiation.mie_rate

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result.diagnostics.converged)
            return result

        monkeypatch.setattr(radiation, "mie_rate", counting)
        cfg = base_config(scenario="dual_waveguide", quadrature=dict(SMALL_QUAD))
        cfg["inclusions"][0]["dimensions_um"] = [0.0063917, 0.02, 0.02]
        cfg["sweep"] = {"axis": "separation_um", "grid": "log", "start": 0.0063917, "stop": 0.03, "count": 4}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        assert len(read_csv(out)[1]) == 4
        # one single-inclusion rate and four pair rates, none refined
        assert calls == [True] * 5

    def test_overflowing_frequency_is_a_config_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["mode"]["frequency_GHz"] = 1e300  # finite, but omega0 overflows
        code, _ = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: mode frequency must be positive and finite")


class TestMaterialsEnvAndValidate:
    def test_env_var_supplies_database(self, tmp_path, monkeypatch):
        db = default_materials()
        renamed = {"custom_ln": db["lithium_niobate"], "sapphire_iso": db["sapphire_iso"]}
        import dataclasses

        renamed["custom_ln"] = dataclasses.replace(db["lithium_niobate"], name="custom_ln")
        db_path = tmp_path / "custom.json"
        save_materials(renamed, db_path)
        monkeypatch.setenv(ENV_MATERIALS, str(db_path))
        cfg = base_config()
        cfg["inclusions"][0]["material"] = "custom_ln"
        code, out = run_cli(tmp_path, cfg)
        assert code == 0

    def test_config_db_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_MATERIALS, str(tmp_path / "nowhere.json"))
        db_path = tmp_path / "db.json"
        save_materials(default_materials(), db_path)
        cfg = base_config(materials_db=str(db_path))
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0

    def test_env_var_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_MATERIALS, str(tmp_path / "nowhere.json"))
        code, _ = run_cli(tmp_path, base_config())
        assert code == 2
        assert "materials_db: no such file" in capsys.readouterr().err

    def test_validate_ok(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        save_materials(default_materials(), db_path)
        code = main(["materials", "validate", str(db_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok: 4 material(s) validated" in out
        assert "lithium_niobate" in out

    def test_validate_bad_record(self, tmp_path, capsys):
        bad = [{"name": "x", "rho": -5.0, "C": [0.0] * 36, "d": [0.0] * 18, "eps_r": [0.0] * 9}]
        db_path = tmp_path / "bad.json"
        db_path.write_text(json.dumps(bad))
        code = main(["materials", "validate", str(db_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path, capsys):
        code = main(["materials", "validate", str(tmp_path / "ghost.json")])
        assert code == 2


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out


class TestLoadRunConfig:
    def test_units_converted_to_si(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, base_config()))
        assert cfg.mode.omega0 == pytest.approx(2 * np.pi * 1e10)
        assert cfg.mode.mode_volume == pytest.approx(8000e-18, rel=1e-12, abs=0)
        assert cfg.inclusions[0].dimensions[0] == pytest.approx(1e-8)
        assert cfg.output == "phonoscat_rayleigh.csv"

    def test_axis_angle_orientation(self, tmp_path):
        cfg_dict = base_config()
        cfg_dict["inclusions"][0]["orientation"] = {"axis": [0, 0, 1], "angle_deg": 90.0}
        cfg = load_run_config(write_config(tmp_path, cfg_dict))
        R = cfg.inclusions[0].orientation.matrix
        assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_null_section_reads_as_its_defaults(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, base_config(quadrature=None, dual=None, bragg=None, eo=None)))
        assert cfg.quad == load_run_config(write_config(tmp_path, base_config())).quad
        assert cfg.dual_relative_sign == -1
        assert cfg.eo is None

    def test_eps_eff_defaults_to_substrate_average(self, tmp_path, db):
        cfg = load_run_config(write_config(tmp_path, base_config()))
        expect = float(np.mean(np.diag(db["sapphire_iso"].eps_r)))
        assert cfg.mode.eps_eff == pytest.approx(expect)
