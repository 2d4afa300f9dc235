"""End-to-end command-line behavior: configs, CSV output and exit codes.

Everything runs in-process through main(argv), so exit codes and stderr
messages are asserted directly; only the import check starts a fresh
interpreter.
"""

import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phonoscat.cli import ENV_MATERIALS, ConfigError, _library_axis, load_run_config, main
from phonoscat.materials import Orientation, default_materials
from phonoscat.mitigation import _check_pair_geometry
from phonoscat.radiation import QuadratureSpec, sweep_point

from conftest import DEEP_STOPBAND_T, save_materials

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


# A small sweep of each scenario, and the one scenario that reads each
# scenario-owned block.
SCENARIO_SWEEPS = {
    "rayleigh": {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "stop": 10.0, "count": 2},
    "mie": {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "stop": 10.0, "count": 2},
    "dual_waveguide": {"axis": "separation_um", "grid": "linear", "start": 0.02, "stop": 0.04, "count": 2},
    "bragg": {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 2, "count": 3},
    "figure_of_merit": {"axis": "height_um", "grid": "linear", "start": 0.01, "stop": 0.02, "count": 2},
    "orientation": {"axis": "angle_deg", "grid": "linear", "start": 0.0, "stop": 90.0, "count": 2},
    "oracle_check": {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "count": 1},
}
BLOCK_SCENARIO = {"dual": "dual_waveguide", "bragg": "bragg", "eo": "figure_of_merit", "orientation_axis": "orientation"}


def scenario_config(scenario, **overrides):
    """A valid small config of ``scenario`` that holds every scenario-owned
    block, each one valid."""
    cfg = base_config(
        scenario=scenario,
        sweep=dict(SCENARIO_SWEEPS[scenario]),
        quadrature=dict(SMALL_QUAD),
        dual={"direction": [1, 0, 0], "relative_sign": -1},
        bragg={"low": "silicon", "high": "sapphire"},
        eo={"g0_Hz": 2000.0, "v_ref_um3": 8000.0},
        orientation_axis=[0, 0, 1],
    )
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

    def test_derived_constant_ignores_the_shear_basis(self, tmp_path, capsys, substrate, remix_tables):
        """The two shear branches of an isotropic substrate are degenerate, so
        remixing their eigenbasis must not move the printed constant."""
        quad = QuadratureSpec(n_theta=64, n_phi=128)
        cfg = self._cfg(quadrature={"n_theta": quad.n_theta, "n_phi": quad.n_phi})
        cfg["inclusions"][0]["dimensions_um"] = [0.5, 1.0, 5.0]
        cfg["sweep"] = {"axis": "frequency_GHz", "grid": "log", "start": 1.0, "count": 1}

        def derived_line():
            assert run_cli(tmp_path, cfg)[0] == 0
            out = capsys.readouterr().out
            assert f"quadrature: up to {4 * quad.n_theta * quad.n_phi} nodes" in out  # no refinement
            return [line for line in out.splitlines() if line.startswith("derived material constant C*G")]

        genuine = derived_line()
        assert len(genuine) == 1
        remix_tables(substrate, quad, np.random.default_rng(1))
        assert derived_line() == genuine

    def test_byte_identical_repeats(self, tmp_path):
        cfg = self._cfg()
        _, out1 = run_cli(tmp_path, cfg)
        data1 = out1.read_bytes()
        _, out2 = run_cli(tmp_path, cfg)
        assert out2.read_bytes() == data1

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
        """One stack, one running product of its layers for the whole sweep,
        and one (R, T) per swept period count."""
        import phonoscat.cli as cli
        import phonoscat.mitigation as mitigation

        calls = {"quarter_wave": 0, "products": 0, "transmissions": 0}
        quarter_wave = cli.BraggStack.quarter_wave
        products, transmission = mitigation._transfer_matrices, mitigation._reflectance_transmittance

        def counting_quarter_wave(*args, **kwargs):
            calls["quarter_wave"] += 1
            return quarter_wave(*args, **kwargs)

        def counting_products(*args, **kwargs):
            calls["products"] += 1
            return products(*args, **kwargs)

        def counting_transmission(*args, **kwargs):
            calls["transmissions"] += 1
            return transmission(*args, **kwargs)

        monkeypatch.setattr(cli.BraggStack, "quarter_wave", staticmethod(counting_quarter_wave))
        monkeypatch.setattr(mitigation, "_transfer_matrices", counting_products)
        monkeypatch.setattr(mitigation, "_reflectance_transmittance", counting_transmission)
        cfg = base_config(
            scenario="bragg",
            quadrature={"n_theta": 8, "n_phi": 16},
            bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0},
        )
        cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 6, "count": 7}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        assert len(read_csv(out)[1]) == 7
        assert calls == {"quarter_wave": 1, "products": 1, "transmissions": 7}

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
        needle = "inclusions[0].dimensions_um: inclusion dimensions must be three positive finite lengths"
        self.check(tmp_path, capsys, cfg, needle)

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
        assert "eo" not in cfg  # a missing block reads as {}
        self.check(tmp_path, capsys, cfg, "config error: eo.g0_Hz: required\n")

    def test_fractional_n_periods_grid(self, tmp_path, capsys):
        cfg = base_config(
            scenario="bragg",
            bragg={"low": "silicon", "high": "sapphire"},
        )
        # 9000.05 is within numpy's default rtol of 9000, so the check needs rtol=0
        for start, stop, count, value in ((0, 5, 3, "2.5"), (9000.05, 9000.05, 1, "9000.05"), (-1, 2, 3, "0.5")):
            cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": start, "stop": stop, "count": count}
            line = f"sweep.start, sweep.stop and sweep.count: the n_periods grid holds {value}, not an integer\n"
            self.check(tmp_path, capsys, cfg, f"config error: {line}")

    def test_overlapping_dual_separation(self, tmp_path, capsys, monkeypatch):
        """Checked at parse, like a swept height: one line naming the field
        and the value, exit 2, no rate and no CSV."""
        import phonoscat.cli as cli

        monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("a rate was computed for an overlapping pair"))
        cfg = base_config(scenario="dual_waveguide", quadrature=dict(SMALL_QUAD))
        cfg["inclusions"][0]["dimensions_um"] = [0.02, 0.02, 0.02]
        cfg["sweep"] = {"axis": "separation_um", "grid": "linear", "start": 0.05, "stop": 0.001, "count": 2}
        code, out = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("config error: sweep.stop and inclusions[0].dimensions_um: separation_um = 0.001: ")
        assert "inclusion pair overlaps" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("g0_Hz", 1e308, "eo.g0_Hz: reference coupling g0 must be positive and finite"),
            ("v_ref_um3", 1e-310, "eo.v_ref_um3: reference mode volume must be positive and finite"),
        ],
        ids=["g0_Hz", "v_ref_um3"],
    )
    def test_eo_value_past_the_float_range_once_converted(self, tmp_path, capsys, field, value, message):
        """Finite in config units, but 2 pi g0 overflows or V_ref underflows
        to zero in m^3: one line naming the field, exit 2, no CSV."""
        cfg = base_config(
            scenario="figure_of_merit",
            quadrature=dict(SMALL_QUAD),
            eo={"g0_Hz": 2000.0, "v_ref_um3": 8000.0, field: value},
        )
        cfg["sweep"] = {"axis": "height_um", "grid": "linear", "start": 0.01, "stop": 0.02, "count": 2}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert caught == []

    @pytest.mark.parametrize(
        "scenario, section, key, message",
        [
            ("mie", "mode", "mode_volume_um3", "mode.mode_volume_um3: mode volume must be positive and finite"),
            ("mie", "mode", "eps_eff",
             "mode.eps_eff: effective permittivity 1e-310 is too small for a finite zero-point field"),
            ("mie", "inclusion", 1, "inclusions[0].dimensions_um: inclusion volume underflows to 0 m^3"),
            ("bragg", "inclusion", 2, "inclusions[0].dimensions_um: inclusion volume underflows to 0 m^3"),
        ],
        ids=["mode_volume_um3", "eps_eff", "mie-dimensions_um", "bragg-dimensions_um"],
    )
    def test_value_that_underflows_names_its_field(
        self, tmp_path, capsys, monkeypatch, scenario, section, key, message
    ):
        """1e-310 underflows to 0 m^3 (a mode volume in um^3, or an edge in
        um times the others), or makes 2 eps0 eps_eff V_E underflow through
        eps_eff: one line naming that field, exit 2, before any rate and with
        no CSV.  The cuboid's zero volume was a zero rate (exit 0) or a ratio
        over it (exit 3)."""
        import phonoscat.cli as cli

        monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("a rate was computed"))
        cfg = base_config(
            scenario=scenario, quadrature=dict(SMALL_QUAD), bragg={"low": "silicon", "high": "sapphire"}
        )
        if scenario == "bragg":
            cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 2, "count": 3}
        if section == "mode":
            cfg["mode"][key] = 1e-310
        else:
            cfg["inclusions"][0]["dimensions_um"][key] = 1e-310
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert caught == []

    @pytest.mark.parametrize(
        "center, cause",
        [
            (1e300, "center frequency must be positive and finite"),
            (1e-320, "layer 'silicon': thickness v / (4 f_c) overflows"),
            (1e-310, "layer 'silicon': phase omega d / v overflows at omega = 6.28319e+10 rad/s"),
        ],
        ids=["Hz_overflow", "thickness_overflow", "phase_overflow"],
    )
    def test_bragg_center_frequency_past_the_float_range(self, tmp_path, capsys, monkeypatch, center, cause):
        """The mirror is built at parse: f_c past the float range in Hz, a
        quarter-wave thickness v / (4 f_c) that overflows, or a layer phase
        omega0 d / v that overflows although d is finite, is one line naming
        the field, exit 2, before any rate and with no CSV."""
        import phonoscat.cli as cli

        monkeypatch.setattr(cli, "refined_rate", lambda *args: pytest.fail("a rate was computed"))
        cfg = base_config(
            scenario="bragg",
            bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": center},
            quadrature=dict(SMALL_QUAD),
        )
        cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 1, "stop": 1, "count": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith(f"config error: bragg.center_frequency_GHz: {center:g} GHz: ") and cause in err
        assert err.count("\n") == 1
        assert caught == []

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
            ("n_periods", 4e18, "sweep.start: n_periods must be between 0 and 10000"),
            ("n_periods", 10_001, "sweep.start: n_periods must be between 0 and 10000"),
            ("n_theta", 1025, "quadrature.n_theta: must be at most 1024"),
            ("n_phi", 4 * 10**18, "quadrature.n_phi: must be at most 2048"),
            ("count", 10_001, "sweep.count: must be at most 10000"),
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
        elif via == "count":
            cfg["sweep"]["count"] = value
        else:
            cfg["quadrature"][via] = value
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
        # the one scenario that reads the section
        cfg = scenario_config(BLOCK_SCENARIO.get(section, "rayleigh"), **{section: value})
        self.check(tmp_path, capsys, cfg, f"config error: {section}: expected an object")

    @pytest.mark.parametrize(
        ("edit", "needle"),
        [
            ({"mode": {"frequency_GHz": "10"}}, "mode.frequency_GHz: expected a number"),
            ({"mode": {"mode_volume_um3": 0}}, "mode.mode_volume_um3: mode volume must be positive and finite"),
            ({"quadrature": {"n_theta": 1}}, "quadrature.n_theta: quadrature needs n_theta >= 2"),
            ({"quadrature": {"threads": 1}},
             "quadrature.threads: unknown field (expected one of ['n_phi', 'n_theta', 'tolerance'])\n"),
            ({"mode": {"field_direction": [0, 0, 0]}},
             "mode.field_direction: field direction must be finite and nonzero in length"),
            ({"inclusion": {"orientation": {}}}, "inclusions[0].orientation: expected matrix or axis/angle_deg"),
            ({"sweep": {"grid": "log", "start": -1.0}}, "sweep.start: log grids need positive bounds"),
            ({"sweep": {"grid": "log", "start": 1.0, "stop": -1.0}}, "sweep.stop: log grids need positive bounds"),
            ({"sweep": {"grid": "linear", "start": -1.0}},
             "sweep.start: frequency_GHz = -1: mode frequency must be positive and finite"),
            ({"inclusion": {"sign": 0}}, "inclusions[0].sign: inclusion sign must be +1 or -1"),
            ({"dual": {"relative_sign": 2}}, "dual.relative_sign: must be one of [1, -1]"),
            ({"eo": {"g0_Hz": 2000.0, "v_ref_um3": 8000.0, "overlap": 1.5}},
             "eo.overlap: overlap fraction must lie in [0, 1]"),
            ({"output": 5}, "output: expected a string path"),
            ({"sweep": {"axis": "height_um", "start": 0.01}, "copies": 2},
             "inclusions: sweep axis 'height_um' needs exactly one inclusion"),
        ],
        ids=["number-type", "number-positive", "integer-minimum", "no-threads", "vector-nonzero", "orientation-empty",
             "log-bounds", "log-stop-bound", "axis-positive", "inclusion-sign", "dual-sign", "eo-overlap",
             "output-type", "axis-one-inclusion"],
    )
    def test_each_field_check_names_its_field(self, tmp_path, capsys, monkeypatch, edit, needle):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("a rate was computed for an invalid config")

        monkeypatch.setattr(cli, "execute", never)
        # a scenario-owned block is read by its one scenario
        scenario = next((BLOCK_SCENARIO[key] for key in edit if key in BLOCK_SCENARIO), "mie")
        cfg = base_config(scenario=scenario, sweep=dict(SCENARIO_SWEEPS[scenario]), quadrature=dict(SMALL_QUAD))
        for section in ("mode", "sweep", "quadrature"):
            cfg[section].update(edit.get(section, {}))
        cfg["inclusions"][0].update(edit.get("inclusion", {}))
        cfg["inclusions"] *= edit.get("copies", 1)
        cfg.update({key: edit[key] for key in ("dual", "eo", "output") if key in edit})
        self.check(tmp_path, capsys, cfg, f"config error: {needle}")

    @pytest.mark.parametrize(
        "edit, line",
        [
            ({"bogus": 1}, "bogus: unknown field (expected one of "),
            ({"scenario": "nope"}, "scenario: unknown value 'nope' (expected one of "),
            ({"substrate": 5}, "substrate: expected a string\n"),
        ],
        ids=["unknown-key", "scenario", "substrate"],
    )
    def test_top_level_field_is_named_as_in_the_file(self, tmp_path, capsys, edit, line):
        code, out = run_cli(tmp_path, {**base_config(), **edit})
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(f"config error: {line}")

    def test_config_that_is_not_an_object_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: expected a JSON object\n"

    @pytest.mark.parametrize("tolerance", [0.0, 1e-17, 1e-310])
    def test_tolerance_a_double_cannot_resolve_exits_2_before_any_grid(
        self, tmp_path, capsys, monkeypatch, tolerance
    ):
        """A relative change below the double epsilon is rounding: no grid
        meets such a tolerance, so parse refuses it, naming the field."""
        import phonoscat.cli as cli

        monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("a rate was computed"))
        cfg = base_config(scenario="mie", quadrature=dict(SMALL_QUAD, tolerance=tolerance))
        code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "config error: quadrature.tolerance: quadrature tolerance must be at least 2.22e-16, the double epsilon\n"
        )

    def test_tolerance_at_the_double_epsilon_loads(self, tmp_path):
        eps = float(np.finfo(float).eps)
        cfg = base_config(quadrature=dict(SMALL_QUAD, tolerance=eps))
        assert load_run_config(write_config(tmp_path, cfg)).quad.tolerance == eps

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

    @pytest.mark.parametrize("scenario", ["rayleigh", "mie"])
    def test_mode_volume_too_small_for_a_finite_field_exits_2(self, tmp_path, capsys, scenario):
        """2 eps0 eps_eff V_E underflowed to zero: a ZeroDivisionError traceback."""
        cfg = base_config(scenario=scenario, quadrature=dict(SMALL_QUAD))
        cfg["mode"]["mode_volume_um3"] = 1e-300
        code, out = run_cli(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: mode.mode_volume_um3: mode volume 1e-318 m^3 is too small for a finite zero-point field\n"
        )
        assert not out.exists()


    @pytest.mark.parametrize(
        ("scenario", "edit", "needle"),
        [
            ("figure_of_merit", lambda c: c["mode"].update(field_direction=[0, 1e300, 0]),
             "mode.field_direction: field direction"),
            ("orientation", lambda c: c.update(orientation_axis=[0, 1e300, 0]), "orientation_axis: rotation axis"),
            ("bragg", lambda c: c["bragg"].update(normal=[0, 1e300, 0]), "bragg.normal: stack normal"),
        ],
        ids=["field_direction", "orientation_axis", "bragg_normal"],
    )
    def test_direction_whose_length_overflows_names_field(self, tmp_path, capsys, scenario, edit, needle):
        cfg = base_config(
            scenario=scenario,
            quadrature=dict(SMALL_QUAD),
            eo={"g0_Hz": 2000.0, "v_ref_um3": 8000.0},
            bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0},
        )
        if scenario == "bragg":
            cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 2, "count": 3}
        elif scenario == "orientation":
            cfg["sweep"] = {"axis": "angle_deg", "grid": "linear", "start": 0.0, "stop": 90.0, "count": 2}
        edit(cfg)
        self.check(tmp_path, capsys, cfg, f"config error: {needle} must be finite and nonzero in length")

    @pytest.mark.parametrize(("scenario", "axis"), [("figure_of_merit", "height_um"), ("mie", "thickness_um")])
    def test_swept_volume_past_the_float_range_names_field(self, tmp_path, capsys, monkeypatch, scenario, axis):
        import phonoscat.cli as cli

        def never(cfg):
            pytest.fail("a rate was computed for an invalid config")

        monkeypatch.setattr(cli, "execute", never)
        cfg = base_config(
            scenario=scenario, quadrature=dict(SMALL_QUAD), eo={"g0_Hz": 2000.0, "v_ref_um3": 8000.0}
        )
        cfg["inclusions"][0]["dimensions_um"] = [1e150, 1e150, 0.01]
        cfg["sweep"] = {"axis": axis, "grid": "linear", "start": 0.01, "stop": 1e300, "count": 2}
        self.check(tmp_path, capsys, cfg, f"sweep.stop: {axis} = 1e+300: inclusion volume must be finite")

    def test_volume_past_the_float_range_names_field(self, tmp_path, capsys):
        cfg = base_config()
        cfg["inclusions"][0]["dimensions_um"] = [1e150, 1e150, 1e150]
        self.check(tmp_path, capsys, cfg, "inclusions[0].dimensions_um: inclusion volume must be finite")


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


    def test_coupling_past_the_float_range_exits_3(self, tmp_path, capsys):
        """V_ref / V_E overflows and the overlap is zero: g_MO = 0 * inf is
        one message that names g_MO, and no numpy warning."""
        cfg = base_config(
            scenario="figure_of_merit",
            quadrature=dict(SMALL_QUAD),
            eo={"g0_Hz": 2000.0, "v_ref_um3": 1e300, "overlap": 0},
        )
        cfg["mode"]["mode_volume_um3"] = 1e-10
        cfg["sweep"] = {"axis": "height_um", "grid": "linear", "start": 0.01, "stop": 0.02, "count": 2}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err == "numeric failure: non-finite coupling g_MO = nan rad/s: V_ref / V_E = 1e+282 / 1e-28 m^3\n"
        assert caught == []
        assert not out.exists()

    def test_overflowing_bragg_mirror_exits_3(self, tmp_path, capsys):
        """Past about 600 periods the transfer matrix overflows: one message
        that names the mirror, and no numpy warning."""
        cfg = base_config(
            scenario="bragg",
            bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0},
            quadrature=dict(SMALL_QUAD),
        )
        cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": 1000, "stop": 1000, "count": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err == "numeric failure: the mirror's transfer matrix overflows at 1000 periods\n"
        assert caught == []
        assert not out.exists()

    @staticmethod
    def _bragg_10_on_11(start, stop):
        """A 10 GHz mode behind a silicon/sapphire mirror centred at 11 GHz."""
        cfg = base_config(
            scenario="bragg",
            bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0},
            quadrature=dict(SMALL_QUAD),
        )
        cfg["sweep"] = {"axis": "n_periods", "grid": "linear", "start": start, "stop": stop,
                        "count": stop - start + 1}
        return cfg

    @pytest.mark.parametrize("periods", [28, 52, 300])
    def test_deep_stopband_bragg_writes_the_reference_transmittance(self, tmp_path, periods):
        """Where t = a (1 + r) + b (1 - r) / z_in cancelled, T read 1.1e-13
        at 28 periods (exit 0, a Q gain 1e5 too small), 36 at 52 and 2e167 at
        300 (exit 3)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, self._bragg_10_on_11(periods, periods))
        assert code == 0
        assert caught == []
        _, [row] = read_csv(out)
        assert float(row[2]) == pytest.approx(DEEP_STOPBAND_T[periods], rel=1e-12, abs=0)
        assert float(row[5]) == pytest.approx(1 / DEEP_STOPBAND_T[periods], rel=1e-12)
        assert all(np.isfinite(float(x)) for x in row)

    @pytest.mark.parametrize(
        "periods,err",
        [
            (463, "the rate behind the mirror underflows at T = 8.59e-308\n"),
            (464, "the mirror's transmittance underflows at 464 periods\n"),
            (10_000, "the mirror's transfer matrix overflows at 10000 periods\n"),
        ],
        ids=["463", "464", "10000"],
    )
    def test_bragg_past_the_float_range_exits_3(self, tmp_path, capsys, periods, err):
        """T's last normal value scales the rate below the float range; then T
        itself goes subnormal; then the matrix overflows.  One message, no
        numpy warning, no inf or nan written."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, self._bragg_10_on_11(periods, periods))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("numeric failure: " + err)
        assert captured.err.count("\n") == 1
        assert caught == []
        assert not out.exists()

    def test_bragg_energy_check_leaves_a_lossless_sweep_alone(self, tmp_path, monkeypatch):
        import phonoscat.mitigation as mitigation

        cfg = self._bragg_10_on_11(0, 6)
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        checked = out.read_bytes()
        monkeypatch.setattr(mitigation, "_LOSSLESS_ATOL", np.inf)
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        assert out.read_bytes() == checked
        _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == list(range(7))
        for r in rows:
            assert abs(float(r[1]) + float(r[2]) - 1.0) <= 1e-15

    def test_unwritable_output_names_the_field(self, tmp_path, capsys, monkeypatch):
        import phonoscat.cli as cli

        def refuse(path, table):
            raise OSError(f"[Errno 13] Permission denied: '{path}'")

        monkeypatch.setattr(cli, "write_csv", refuse)
        code, out = run_cli(tmp_path, base_config())
        assert code == 2
        assert capsys.readouterr().err == f"config error: output: [Errno 13] Permission denied: '{out}'\n"

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
        "signs, pair, grid, rates",
        [
            ((1, -1), True, (8, 16), "[inf inf inf]"),
            ((1, 1), True, (8, 16), "[inf inf inf]"),
            ((1, -1), False, (8, 16), "[nan nan nan]"),
            ((1, -1), True, (32, 64), "[inf inf inf]"),
        ],
        ids=["pair-opposite", "pair-equal", "general", "pair-two-spans"],
    )
    def test_overflowing_pair_exits_3_with_one_line(self, tmp_path, capsys, signs, pair, grid, rates):
        """Two 1e66 um cuboids at +-3e66 um with V_E = 1e-282 um^3: V M
        overflows.  An antipodal pair's one part gives inf, a copy of
        other dimensions takes the general sum and gives nan, on a fine
        grid of one node span or of two: one message, no numpy warning,
        nothing written."""
        cube = {"material": "lithium_niobate", "dimensions_um": [1e66] * 3, "orientation": XCUT}
        other = dict(cube, dimensions_um=[1e66] * 3 if pair else [1e66, 1e66, 0.5e66])
        cfg = base_config(
            scenario="mie",
            inclusions=[
                dict(cube, center_um=[3e66, 0, 0], sign=signs[0]),
                dict(other, center_um=[-3e66, 0, 0], sign=signs[1]),
            ],
            quadrature={"n_theta": grid[0], "n_phi": grid[1]},
        )
        cfg["mode"]["mode_volume_um3"] = 1e-282
        cfg["sweep"] = {"axis": "frequency_GHz", "grid": "log", "start": 10.0, "stop": 10.0, "count": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, cfg)
        assert code == 3
        assert capsys.readouterr().err == f"numeric failure: non-finite radiated rate per branch: {rates}\n"
        assert caught == []
        assert not out.exists()

    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        import phonoscat.cli as cli

        # 8 PiB: more than any address space, so it fails at once and allocates nothing
        monkeypatch.setattr(cli, "execute", lambda cfg: np.empty(1 << 50))
        code, out = run_cli(tmp_path, base_config())
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure: out of memory: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
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
        assert re.search(r"max refinements: [012]\n", out)

    @pytest.mark.parametrize("edge_um,refinements", [(0.1, 1), (0.5, 2)])
    def test_report_names_the_refinements_a_coarse_grid_needed(self, tmp_path, capsys, edge_um, refinements):
        cfg = base_config(scenario="mie", quadrature={"n_theta": 4, "n_phi": 8, "tolerance": 1e-6})
        cfg["inclusions"][0]["dimensions_um"] = [edge_um] * 3
        cfg["sweep"] = {"axis": "frequency_GHz", "grid": "linear", "start": 10.0, "stop": 10.0, "count": 1}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        assert f"max refinements: {refinements}\n" in capsys.readouterr().out

    def test_a_refinement_past_the_grid_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        import phonoscat.radiation as radiation

        monkeypatch.setattr(radiation, "_MAX_THETA", 8)
        monkeypatch.setattr(radiation, "_MAX_PHI", 16)
        cfg = base_config(scenario="mie", quadrature={"n_theta": 4, "n_phi": 8, "tolerance": 1e-6})
        cfg["inclusions"][0]["dimensions_um"] = [0.5] * 3
        cfg["sweep"] = {"axis": "frequency_GHz", "grid": "linear", "start": 10.0, "stop": 10.0, "count": 1}
        code, out = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numeric failure: quadrature did not reach tolerance 1e-06 at n_theta=16, n_phi=32")
        assert "the next refinement's 32 x 64 grid has more nodes than the largest grid, 16 x 32" in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "field, message",
        [
            ("mode", "mode.frequency_GHz: mode frequency must be positive and finite"),
            ("stop", "sweep.stop: frequency_GHz = 1e+300: mode frequency must be positive and finite"),
        ],
        ids=["mode", "sweep"],
    )
    def test_overflowing_frequency_is_a_config_error(self, tmp_path, capsys, field, message):
        """Finite in GHz, but omega0 overflows: one message that names the
        field, and no numpy warning."""
        cfg = base_config()
        if field == "mode":
            cfg["mode"]["frequency_GHz"] = 1e300
        else:
            cfg["sweep"]["stop"] = 1e300
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert caught == []


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

    def test_isotropy_comes_from_the_stiffness(self, tmp_path, capsys):
        """With no ``isotropic`` flag in the database, sapphire_iso's stiffness
        still makes it isotropic, so the closed-form scenario runs."""
        db_path = tmp_path / "db.json"
        save_materials(default_materials(), db_path)
        records = json.loads(db_path.read_text())
        for rec in records:
            del rec["isotropic"]
        db_path.write_text(json.dumps(records))
        code, _ = run_cli(tmp_path, base_config(materials_db=str(db_path)))
        out = capsys.readouterr().out
        assert code == 0
        assert "substrate: sapphire_iso (isotropic)" in out
        assert "derived material constant C*G (shear, longitudinal)" in out

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

    @staticmethod
    def _db_with(tmp_path, record):
        """The stock database plus ``record``."""
        db_path = tmp_path / "db.json"
        save_materials(default_materials(), db_path)
        db_path.write_text(json.dumps(json.loads(db_path.read_text()) + [record]))
        return db_path

    # silicon's stiffness at a density of 1e-300, whose Christoffel entries overflow
    LIGHT_SILICON = {
        "name": "weird", "rho": 1e-300, "C": default_materials()["silicon"].C.ravel().tolist(),
        "d": [0.0] * 18, "eps_r": np.eye(3).ravel().tolist(),
    }

    @pytest.mark.parametrize(
        ("record", "line"),
        [
            ({"name": "x", "rho": -5.0, "C": [0.0] * 36, "d": [0.0] * 18, "eps_r": [0.0] * 9},
             "material 'x': density must be positive"),
            (LIGHT_SILICON, "material 'weird': stiffness over density overflows the Christoffel matrix"),
        ],
        ids=["negative-density", "christoffel-overflow"],
    )
    def test_validate_bad_record(self, tmp_path, capsys, record, line):
        code = main(["materials", "validate", str(self._db_with(tmp_path, record))])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_density_too_small_for_the_christoffel_matrix_is_blamed_on_the_database(self, tmp_path, capsys):
        """Refused as the database loads: no numpy warning, and no blame on
        the field that uses the material."""
        cfg = scenario_config("bragg", materials_db=str(self._db_with(tmp_path, self.LIGHT_SILICON)))
        cfg["bragg"]["low"] = "weird"
        code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "config error: materials_db: material 'weird': stiffness over density overflows the Christoffel matrix\n"
        )

    def test_validate_missing_file(self, tmp_path, capsys):
        code = main(["materials", "validate", str(tmp_path / "ghost.json")])
        assert code == 2


def test_importing_the_cli_loads_only_what_a_run_uses():
    """A fresh ``phonoscat run`` pays for no thread pool, logging or selftest
    import: a run starts no pool, and the checks are imported when
    ``selftest`` runs."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, phonoscat.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging', 'phonoscat.selftest') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_a_failing_check_exits_3(self, capsys, monkeypatch):
        import phonoscat.selftest as selftest
        from phonoscat.selftest import CheckResult

        results = [CheckResult("good", True, "ok"), CheckResult("bad", False, "off by 2")]
        # the command imports run_all when it runs, so it finds the patched one
        monkeypatch.setattr(selftest, "run_all", lambda: results)
        code = main(["selftest"])
        captured = capsys.readouterr()
        assert code == 3
        assert "  FAIL bad: off by 2" in captured.out
        assert captured.err == "numeric failure: selftest: 1 of 2 checks failed\n"


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
        nulls = dict(quadrature=None, dual=None, bragg=None, eo=None, orientation_axis=None)
        cfg = load_run_config(write_config(tmp_path, scenario_config("dual_waveguide", **nulls)))
        assert cfg.quad == load_run_config(write_config(tmp_path, base_config())).quad
        assert cfg.dual_relative_sign == -1
        assert cfg.dual_direction.tolist() == [1.0, 0.0, 0.0]
        assert cfg.eo is None

    @pytest.mark.parametrize(
        ("block", "value", "line"),
        [
            ("dual", {"bogus": 1}, "dual.bogus: unknown field (expected one of ['direction', 'relative_sign'])"),
            ("dual", {"direction": [0, 0, 0]}, "dual.direction: separation direction must be finite and nonzero in length"),
            ("dual", {"relative_sign": 2}, "dual.relative_sign: must be one of [1, -1]"),
            ("dual", {"direction": "x"}, "dual.direction: expected a 3-component list"),
            ("bragg", {"low": "silicon", "high": "sapphire", "bogus": 1},
             "bragg.bogus: unknown field (expected one of ['center_frequency_GHz', 'high', 'low', 'normal'])"),
            ("bragg", {"low": "silicon", "high": "sapphire", "normal": [0, 0, 0]},
             "bragg.normal: stack normal must be finite and nonzero in length"),
            ("bragg", {"low": "silicon", "high": "sapphire", "center_frequency_GHz": -1.0},
             "bragg.center_frequency_GHz: -1 GHz: center frequency must be positive and finite"),
            ("bragg", {"low": 5, "high": "sapphire"}, "bragg.low: expected a string"),
            ("eo", {"g0_Hz": 2000.0, "v_ref_um3": 8000.0, "bogus": 1},
             "eo.bogus: unknown field (expected one of ['g0_Hz', 'overlap', 'v_ref_um3'])"),
            ("eo", {"g0_Hz": 2000.0, "v_ref_um3": 8000.0, "overlap": 2}, "eo.overlap: overlap fraction must lie in [0, 1]"),
            ("eo", {"g0_Hz": "2000", "v_ref_um3": 8000.0}, "eo.g0_Hz: expected a number"),
            ("eo", [], "eo: expected an object"),
            ("orientation_axis", [0, 0, 0], "orientation_axis: rotation axis must be finite and nonzero in length"),
            ("orientation_axis", "z", "orientation_axis: expected a 3-component list"),
        ],
        ids=["dual-key", "dual-zero", "dual-range", "dual-type", "bragg-key", "bragg-zero", "bragg-range",
             "bragg-type", "eo-key", "eo-range", "eo-type", "eo-object", "axis-zero", "axis-type"],
    )
    def test_each_block_is_read_by_its_scenario_alone(self, tmp_path, capsys, monkeypatch, block, value, line):
        """Every other scenario loads a config whose block is invalid and
        leaves the block's fields unset; the one scenario that reads the
        block exits 2 before any rate, naming the field."""
        import phonoscat.cli as cli

        monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("a rate was computed for an invalid block"))
        fields = {"dual": ("dual_direction", "dual_relative_sign"), "bragg": ("mirror", "bragg_center_ghz"),
                  "eo": ("eo",), "orientation_axis": ("orientation_axis",)}[block]
        for scenario in SCENARIO_SWEEPS:
            cfg = scenario_config(scenario, **{block: value})
            if scenario == BLOCK_SCENARIO[block]:
                code, out = run_cli(tmp_path, cfg)
                assert code == 2 and not out.exists()
                assert capsys.readouterr().err == f"config error: {line}\n"
            else:
                loaded = load_run_config(write_config(tmp_path, cfg))
                assert [getattr(loaded, name) for name in fields] == [None] * len(fields), scenario

    def test_eps_eff_defaults_to_substrate_average(self, tmp_path, db):
        cfg = load_run_config(write_config(tmp_path, base_config()))
        expect = float(np.mean(np.diag(db["sapphire_iso"].eps_r)))
        assert cfg.mode.eps_eff == pytest.approx(expect)


# The scenario that takes each swept axis, for the end-point checks below.
END_SCENARIO = {
    "frequency_GHz": "mie",
    "height_um": "mie",
    "thickness_um": "mie",
    "separation_um": "dual_waveguide",
    "n_periods": "bragg",
    "angle_deg": "orientation",
}
# The largest frequency in GHz whose angular frequency 2 pi f 1e9 is finite.
LAST_FINITE_GHZ = 2.861117485757028e298


def sweep_config(axis, grid, start, stop, count):
    cfg = base_config(
        scenario=END_SCENARIO[axis], quadrature=dict(SMALL_QUAD), bragg={"low": "silicon", "high": "sapphire"}
    )
    cfg["sweep"] = {"axis": axis, "grid": grid, "start": start, "stop": stop, "count": count}
    return cfg


def ulps_from(x, k):
    """``x`` moved by ``k`` units in the last place (up for k > 0), and no
    further than the largest finite double."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, sys.float_info.max if k > 0 else -sys.float_info.max))
    return x


@st.composite
def sweep_grids(draw):
    """An axis, a grid kind, two ends and a count: ends anywhere in the float
    range (subnormals, 1e308 and signs included), in a plausible range, or a
    few ulps apart, where rounding decides which values lie between them."""
    axis = draw(st.sampled_from(list(END_SCENARIO)))
    grid = draw(st.sampled_from(["linear", "log"]))
    count = draw(st.integers(1, 9))
    if axis == "n_periods":
        start = draw(st.integers(-2, 10_002))
        return axis, grid, start, draw(st.one_of(st.just(start), st.integers(-2, 10_002))), count
    ends = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(1e-3, 1e3))
    start = draw(ends)
    stop = draw(st.one_of(ends, st.integers(-40, 40).map(lambda k: ulps_from(start, k))))
    return axis, grid, start, stop, count


class TestSweepEnds:
    """Parse checks a sweep's two end points only.  The values that pass a
    check of a sweep value form an interval and every value of a linear or
    log grid lies between its ends, so a grid whose ends load passes the
    library's own check at every value."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_grids())
    # numpy's geomspace rounds the middle value of this grid an ulp past its stop
    @example(("frequency_GHz", "log", ulps_from(LAST_FINITE_GHZ, -1), LAST_FINITE_GHZ, 3))
    # a separation that underflows to 0 m reads as coincident copies, which the library accepts
    @example(("separation_um", "log", 1e-320, 1.0, 5))
    @example(("n_periods", "linear", 10_000, 0, 3))
    # the span of this linear grid overflows, so its middle value is nan
    @example(("angle_deg", "linear", -1e308, 1e308, 3))
    def test_a_grid_whose_ends_load_passes_every_check(self, tmp_path_factory, grid):
        axis, kind, start, stop, count = grid
        path = tmp_path_factory.getbasetemp() / "sweep_ends.json"
        path.write_text(json.dumps(sweep_config(axis, kind, start, stop, count)))
        try:
            cfg = load_run_config(str(path))
        except ConfigError:
            return
        assert len(cfg.values) == count
        if axis == "n_periods":
            assert all(0 <= n <= 10_000 for n in cfg.values)
        elif axis == "separation_um":
            for d_um in cfg.values:  # as dual_waveguide_sweep checks each separation
                assert d_um > 0
                _check_pair_geometry(cfg.inclusions[0].dimensions, d_um * 1e-6 * cfg.dual_direction)
        elif axis == "angle_deg":
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for angle in np.deg2rad(cfg.values):  # as the orientation scan turns the crystal
                    Orientation.about_axis(cfg.orientation_axis, float(angle))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                name, values = _library_axis(axis, cfg.values)  # as the run converts them
            for v in values:  # as radiation.sweep builds each point
                sweep_point(cfg.mode, cfg.inclusions, name, float(v))

    @pytest.mark.parametrize(
        "axis, start, stop, line",
        [
            ("frequency_GHz", 1.0, 1e300,
             "sweep.stop: frequency_GHz = 1e+300: mode frequency must be positive and finite"),
            ("height_um", -1.0, 0.01,
             "sweep.start: height_um = -1: inclusion dimensions must be three positive finite lengths"),
            ("thickness_um", 1e-310, 0.01, "sweep.start: thickness_um = 1e-310: inclusion volume underflows to 0 m^3"),
            ("separation_um", 1e-320, 1.0, "sweep.start: separation_um = 9.99989e-321 is not positive in m"),
            ("n_periods", 0, 10_002, "sweep.stop: n_periods must be between 0 and 10000"),
            # a linear grid's span stop - start overflows: no one end is at fault
            ("angle_deg", -1e308, 1e308,
             "sweep.start and sweep.stop: the angle_deg grid from -1e+308 to 1e+308 spans past the float range"),
        ],
        ids=["frequency_GHz", "height_um", "thickness_um", "separation_um", "n_periods", "angle_span"],
    )
    def test_a_bad_end_is_blamed_on_its_field(self, tmp_path, capsys, monkeypatch, axis, start, stop, line):
        import phonoscat.cli as cli

        monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("a rate was computed"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, sweep_config(axis, "linear", start, stop, 3))
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert caught == []
