"""Command-line interface: JSON configs in, CSV tables and a report out.

A run is described by a JSON file naming one scenario, the materials, the
microwave mode, the inclusions, and exactly one sweep axis.  Frequencies are
given in GHz and lengths in micrometers.  The mode, the inclusions, the
``eo`` block and the Bragg mirror become SI at parse time; the sweep values
stay in config units, and each runner converts them where it calls the
library.  Each value range is checked once, by the library object the value
becomes: ``MicrowaveMode``, ``Inclusion``, ``EoModel``, ``QuadratureSpec``
and ``BraggStack.quarter_wave`` raise a ``ParameterError`` that names the
parameter at fault, and ``_blame`` puts the parameter's config path before
the library's message.  Parse builds the sweep's two end points with
``radiation.sweep_point``, as the run builds every point, and the mirror's
layer matrices at the mode frequency with ``mitigation._layer_matrices``.
Parse itself checks only what no library object owns: JSON types, a finite
value for each number, the size caps, the sweep grid, the ``dual`` sign
and the scenario and axis rules.  Each scenario-owned block is read, and
checked, by its one scenario alone: ``dual`` by ``dual_waveguide``,
``bragg`` by ``bragg``, ``eo`` by ``figure_of_merit`` and
``orientation_axis`` by ``orientation``; the other scenarios neither read
nor check it.
Every run writes one CSV (header row plus one row per sweep point, shortest
round-trip float formatting, deterministic bytes) and prints a short report
with fitted slopes, regime tags and quadrature diagnostics to standard output.

Exit codes, set for every subcommand in ``main`` alone: 0 success, 2
configuration error (the message names the offending field or path;
non-finite numbers, a value a library object rejects, which it checks in SI
units, so that a finite number that leaves the float range once converted
reads like one that is out of range (a frequency past it in rad/s, a mode
or reference mode volume that underflows to zero in m^3, a cuboid whose
volume does, an ``eps_eff`` or mode volume too small for a finite zero-point
field, a Bragg center frequency whose quarter-wave thickness or layer phase
at the mode frequency is not finite, or a direction whose length
overflows), and unreadable or unwritable paths are configuration errors,
and so is a quadrature tolerance below the double epsilon; a sweep value at
fault is blamed on ``sweep.start`` or ``sweep.stop``, since a grid lies
between its two ends, and an ``n_periods`` value that is not an integer on
those and on ``sweep.count``),
3 numeric failure (quadrature unconverged after the built-in refinement
cap or before a refinement past the largest grid, a non-finite rate,
brute-force total, figure of merit or Bragg transfer matrix, a Bragg
transmittance below the smallest normal double or a rate behind the mirror
that leaves the float range, a Bragg R + T that misses 1, a ratio over an
exactly-zero rate, a failed selftest check, or an allocation that runs out
of memory).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .coupling import Inclusion, MicrowaveMode, default_eps_eff
from .materials import MaterialError, MaterialSpec, Orientation, default_materials, load_materials, unit_vector
from .mitigation import (
    BraggStack, _bragg_sweep, _check_pair_geometry, _layer_matrices, dual_waveguide_sweep, mitigated_rate,
)
from .radiation import (
    _MAX_PHI,
    _MAX_THETA,
    ORACLE_RTOL,
    NumericFailure,
    QuadratureSpec,
    _require_nonzero,
    brute_force_rate,
    derived_material_constant,
    loglog_slope,
    min_phase_velocity,
    refined_rate,
    sweep,
    sweep_point,
)
from .transducer import EoModel, figure_of_merit, sweep_orientation

ENV_MATERIALS = "PHONOSCAT_MATERIALS"

_UM = 1e-6
_UM3 = 1e-18

# CSV column header of each rate-sweep axis
_COLUMNS = {"frequency_GHz": "f_GHz", "height_um": "h_um", "thickness_um": "t_um"}

# Size bound: a sweep and a Bragg stack must fit in memory.  The quadrature
# grid caps belong to radiation, which also bounds the grids its refinements
# build.
_MAX_COUNT = 10_000


class ConfigError(ValueError):
    """Configuration problem; the message names the field at fault."""


# ---------------------------------------------------------------------------
# config parsing


def _at(path: str, key: str) -> str:
    """The config path of ``key`` in the object at ``path``; "" is the top level."""
    return f"{path}.{key}" if path else key


def _object(value, path: str, allowed: set[str]) -> dict:
    """A config object with only ``allowed`` keys; missing or null reads as {}."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{_at(path, key)}: unknown field (expected one of {sorted(allowed)})")
    return value


def _float(v) -> float:
    """A JSON number (not a boolean) as a float, inf past the float range; else TypeError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"not a number: {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        return np.inf


def _given(d: dict, key: str, path: str, default) -> bool:
    """Whether ``key`` is present; a field without a default is required."""
    if key in d:
        return True
    if default is None:
        raise ConfigError(f"{_at(path, key)}: required")
    return False


def _number(d: dict, key: str, path: str, default=None):
    if not _given(d, key, path, default):
        return default
    try:
        v = _float(d[key])
    except TypeError:
        raise ConfigError(f"{_at(path, key)}: expected a number") from None
    if not np.isfinite(v):
        raise ConfigError(f"{_at(path, key)}: must be finite")
    return v


def _integer(d: dict, key: str, path: str, default=None, minimum=None, maximum=None, choices=None):
    if not _given(d, key, path, default):
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{_at(path, key)}: expected an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{_at(path, key)}: must be at least {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{_at(path, key)}: must be at most {maximum}")
    if choices is not None and v not in choices:
        raise ConfigError(f"{_at(path, key)}: must be one of {list(choices)}")
    return v


def _vector3(d: dict, key: str, path: str, default=None) -> np.ndarray:
    if not _given(d, key, path, default):
        return np.asarray(default, dtype=float)
    v = d[key]
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ConfigError(f"{_at(path, key)}: expected a 3-component list")
    try:
        arr = np.array([_float(x) for x in v])
    except TypeError:
        raise ConfigError(f"{_at(path, key)}: expected numeric components") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{_at(path, key)}: components must be finite")
    return arr


def _string(d: dict, key: str, path: str, default=None, choices=None):
    if not _given(d, key, path, default):
        return default
    v = d[key]
    if not isinstance(v, str):
        raise ConfigError(f"{_at(path, key)}: expected a string")
    if choices is not None and v not in choices:
        raise ConfigError(f"{_at(path, key)}: unknown value '{v}' (expected one of {list(choices)})")
    return v


def _blame(fields: str | dict[str, str], check, *args, **kwargs):
    """``check(*args, **kwargs)``, a library constructor or check, with the
    ValueError it raises for an input as a ConfigError that names the field
    at fault: ``fields`` itself, or the config path that ``fields`` maps the
    parameter of a ParameterError to.  Any other error is raised as it is."""
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        field = fields if isinstance(fields, str) else fields.get(getattr(e, "parameter", None))
        if field is None:
            raise
        raise ConfigError(f"{field}: {e}") from None


def _material(db: dict[str, MaterialSpec], name: str, path: str) -> MaterialSpec:
    if name not in db:
        raise ConfigError(f"{path}: unknown material '{name}' (database has {sorted(db)})")
    return db[name]


def _orientation(d: dict | None, path: str) -> Orientation:
    if d is None:
        return Orientation.identity()
    d = _object(d, path, {"matrix", "axis", "angle_deg"})
    if "matrix" in d:
        if "axis" in d or "angle_deg" in d:
            raise ConfigError(f"{path}: give either matrix or axis/angle_deg, not both")
        try:
            m = np.array([[_float(x) for x in row] for row in d["matrix"]])
        except (TypeError, ValueError):  # not numbers, or rows of unequal length
            m = None
        if m is None or m.shape != (3, 3):
            raise ConfigError(f"{path}.matrix: expected a 3x3 matrix")
        return _blame(f"{path}.matrix", Orientation, m)  # a matrix that is not a rotation
    if "axis" in d or "angle_deg" in d:
        axis = _vector3(d, "axis", path)
        # an axis whose length overflows
        return _blame(f"{path}.axis", Orientation.about_axis, axis, np.deg2rad(_number(d, "angle_deg", path)))
    raise ConfigError(f"{path}: expected matrix or axis/angle_deg")


@dataclass
class RunConfig:
    """Validated run description: SI units, except the sweep values, which
    stay in config units for the CSV, and the Bragg center frequency, kept in
    GHz for the report beside the mirror built from it."""

    scenario: str
    substrate: MaterialSpec
    mode: MicrowaveMode
    inclusions: list[Inclusion]
    axis: str
    values: np.ndarray  # in the axis' config units (GHz, um, degrees, count)
    quad: QuadratureSpec
    output: str
    # the blocks of one scenario each, set by that scenario alone
    dual_direction: np.ndarray | None = None  # unit vector
    dual_relative_sign: int | None = None
    mirror: BraggStack | None = None  # the one-period quarter-wave stack
    bragg_center_ghz: float | None = None
    eo: EoModel | None = None
    orientation_axis: np.ndarray | None = None


def _load_db(cfg: dict) -> dict[str, MaterialSpec]:
    path = cfg.get("materials_db")
    if path is None:
        path = os.environ.get(ENV_MATERIALS)
    if path is None:
        return default_materials()
    if not isinstance(path, str):
        raise ConfigError("materials_db: expected a string path")
    try:
        return load_materials(path)
    except FileNotFoundError:
        raise ConfigError(f"materials_db: no such file '{path}'") from None
    except (MaterialError, OSError) as e:
        raise ConfigError(f"materials_db: {e}") from None


def _sweep_values(sweep: dict, axis: str) -> np.ndarray:
    grid = _string(sweep, "grid", "sweep", default="log", choices=("log", "linear"))
    count = _integer(sweep, "count", "sweep", minimum=1, maximum=_MAX_COUNT)
    start = _number(sweep, "start", "sweep")
    stop = _number(sweep, "stop", "sweep", default=start)
    if grid == "log":
        for key, bound in (("start", start), ("stop", stop)):
            if not bound > 0:
                raise ConfigError(f"sweep.{key}: log grids need positive bounds")
    # Ends near the float range can overflow numpy's intermediate values, and
    # rounding can put a value of a grid whose ends are ulps apart just past
    # one: clipping keeps every value between the ends.  A linear grid whose
    # span stop - start overflows (ends of opposite signs) has values that no
    # clip makes finite.
    with np.errstate(over="ignore", invalid="ignore"):
        values = (np.geomspace if grid == "log" else np.linspace)(start, stop, count)
    values = np.clip(values, min(start, stop), max(start, stop))
    if not np.all(np.isfinite(values)):
        raise ConfigError(
            f"sweep.start and sweep.stop: the {axis} grid from {start:g} to {stop:g} spans past the float range"
        )
    if axis == "n_periods":
        rounded = np.rint(values)
        fractional = values[~np.isclose(values, rounded, rtol=0, atol=1e-9)]
        if fractional.size:
            raise ConfigError(
                f"sweep.start, sweep.stop and sweep.count: the n_periods grid holds {fractional[0]:g}, not an integer"
            )
        for where, n in _ends(rounded):
            if not 0 <= n <= _MAX_COUNT:
                raise ConfigError(f"{where}: n_periods must be between 0 and {_MAX_COUNT}")
        return rounded.astype(int)
    return values


def _ends(values):
    """The grid's end points with the config fields they are.  The values
    that pass a check of a sweep value form an interval, and every value of
    a linear or log grid lies between its ends, so checking the ends checks
    the grid.  A one-point grid checks its start twice."""
    return ("sweep.start", values[0]), ("sweep.stop", values[-1])


def _library_axis(axis: str, values):
    """The library's name of a rate-sweep axis, and ``values`` from config units to SI."""
    if axis == "frequency_GHz":
        return "omega0", 2 * np.pi * values * 1e9
    return axis.removesuffix("_um"), values * _UM


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such config file '{path}'") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"{path}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    raw = _object(
        raw,
        "",
        {
            "scenario",
            "materials_db",
            "substrate",
            "mode",
            "inclusions",
            "sweep",
            "quadrature",
            "dual",
            "bragg",
            "eo",
            "orientation_axis",
            "output",
        },
    )

    scenario = _string(raw, "scenario", "", choices=_SCENARIOS)
    db = _load_db(raw)
    substrate = _material(db, _string(raw, "substrate", ""), "substrate")

    mode_keys = {"frequency_GHz", "mode_volume_um3", "field_direction", "eps_eff"}
    mode_cfg = _object(raw.get("mode"), "mode", mode_keys)
    f_ghz = _number(mode_cfg, "frequency_GHz", "mode")
    eps_eff = mode_cfg.get("eps_eff")
    mode = _blame(  # omega0 may overflow and V_E underflow in SI units, and 2 eps0 eps_eff V_E underflow
        {"omega0": "mode.frequency_GHz", "mode_volume": "mode.mode_volume_um3",
         "field_direction": "mode.field_direction", "eps_eff": "mode.eps_eff"},
        MicrowaveMode,
        omega0=2 * np.pi * f_ghz * 1e9,
        mode_volume=_number(mode_cfg, "mode_volume_um3", "mode") * _UM3,
        field_direction=_vector3(mode_cfg, "field_direction", "mode", default=[0.0, 1.0, 0.0]),
        eps_eff=default_eps_eff(substrate) if eps_eff is None else _number(mode_cfg, "eps_eff", "mode"),
    )

    incs_cfg = raw.get("inclusions")
    if not isinstance(incs_cfg, list) or not incs_cfg:
        raise ConfigError("inclusions: expected a non-empty list")
    inclusions = []
    for i, inc_cfg in enumerate(incs_cfg):
        p = f"inclusions[{i}]"
        inc_cfg = _object(inc_cfg, p, {"material", "dimensions_um", "center_um", "orientation", "sign"})
        mat = _material(db, _string(inc_cfg, "material", p), f"{p}.material")
        dims = _vector3(inc_cfg, "dimensions_um", p)
        center = _vector3(inc_cfg, "center_um", p, default=[0.0, 0.0, 0.0])
        sign = _integer(inc_cfg, "sign", p, default=1)
        ori = _orientation(inc_cfg.get("orientation"), f"{p}.orientation")
        fields = {"dimensions": f"{p}.dimensions_um", "center": f"{p}.center_um", "sign": f"{p}.sign"}
        # the cuboid's volume may overflow or underflow
        inclusions.append(_blame(fields, Inclusion, dims * _UM, center * _UM, mat, orientation=ori, sign=sign))

    sweep = _object(raw.get("sweep"), "sweep", {"axis", "grid", "start", "stop", "count"})
    axis = _string(sweep, "axis", "sweep")
    _, axes = _SCENARIOS[scenario]
    if axis not in axes:
        raise ConfigError(
            f"sweep.axis: '{axis}' is not valid for scenario '{scenario}' "
            f"(expected one of {list(axes)})"
        )
    values = _sweep_values(sweep, axis)

    quad_cfg = _object(raw.get("quadrature"), "quadrature", {"n_theta", "n_phi", "tolerance"})
    quad = _blame(  # the spec checks the lower bounds, parse the size caps
        {key: f"quadrature.{key}" for key in ("n_theta", "n_phi", "tolerance")},
        QuadratureSpec,
        n_theta=_integer(quad_cfg, "n_theta", "quadrature", default=64, maximum=_MAX_THETA),
        n_phi=_integer(quad_cfg, "n_phi", "quadrature", default=128, maximum=_MAX_PHI),
        tolerance=_number(quad_cfg, "tolerance", "quadrature", default=1e-3),
    )

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output: expected a string path")

    if scenario == "rayleigh" and not substrate.isotropic:
        raise ConfigError(
            "substrate: the rayleigh scenario needs an isotropic substrate; "
            "use scenario 'mie' for anisotropic media"
        )
    # rayleigh's closed form, and every sweep axis but frequency_GHz, take one inclusion
    if len(inclusions) != 1 and (scenario == "rayleigh" or axis != "frequency_GHz"):
        raise ConfigError(
            "inclusions: the rayleigh scenario needs exactly one inclusion" if scenario == "rayleigh"
            else f"inclusions: sweep axis '{axis}' needs exactly one inclusion"
        )
    if axis in _COLUMNS:  # a rate axis: build each end point as the run does
        for where, v in _ends(values):  # omega0 or the swept cuboid's volume may leave the float range
            _blame(f"{where}: {axis} = {v:g}", sweep_point, mode, inclusions, *_library_axis(axis, float(v)))

    cfg = RunConfig(
        scenario, substrate, mode, inclusions, axis, values, quad,
        f"phonoscat_{scenario}.csv" if output is None else output,
    )
    # each scenario-owned block is read, and checked, by its scenario alone
    if scenario == "dual_waveguide":
        dual_cfg = _object(raw.get("dual"), "dual", {"direction", "relative_sign"})
        direction = _vector3(dual_cfg, "direction", "dual", default=[1.0, 0.0, 0.0])
        cfg.dual_direction = _blame("dual.direction", unit_vector, direction, "separation direction")
        cfg.dual_relative_sign = _integer(dual_cfg, "relative_sign", "dual", default=-1, choices=(1, -1))
        for where, v in _ends(values):
            d = float(v) * _UM
            if not d > 0:  # a separation that underflows to 0 m would pass as coincident copies
                raise ConfigError(f"{where}: {axis} = {v:g} is not positive in m")
            # the two copies may overlap: blame both fields
            fields = f"{where} and inclusions[0].dimensions_um: {axis} = {v:g}"
            _blame(fields, _check_pair_geometry, inclusions[0].dimensions, d * cfg.dual_direction)
    elif scenario == "bragg":
        bragg_cfg = _object(raw.get("bragg"), "bragg", {"low", "high", "center_frequency_GHz", "normal"})
        low = _material(db, _string(bragg_cfg, "low", "bragg"), "bragg.low")
        high = _material(db, _string(bragg_cfg, "high", "bragg"), "bragg.high")
        cfg.bragg_center_ghz = _number(bragg_cfg, "center_frequency_GHz", "bragg", default=f_ghz)
        normal = _vector3(bragg_cfg, "normal", "bragg", default=[0.0, 0.0, 1.0])
        # f_c in Hz, a quarter-wave thickness v / (4 f_c) or a layer phase may leave the float range
        field = f"bragg.center_frequency_GHz: {cfg.bragg_center_ghz:g} GHz"
        cfg.mirror = _blame(
            {"center_frequency": field, "normal": "bragg.normal"},
            BraggStack.quarter_wave, substrate, low, high, cfg.bragg_center_ghz * 1e9, 1, normal,
        )
        _blame(field, _layer_matrices, cfg.mirror, mode.omega0)
    elif scenario == "figure_of_merit":
        eo_cfg = _object(raw.get("eo"), "eo", {"g0_Hz", "v_ref_um3", "overlap"})
        cfg.eo = _blame(  # 2 pi g0 may overflow and V_ref underflow in SI units
            {"g0": "eo.g0_Hz", "v_ref": "eo.v_ref_um3", "overlap": "eo.overlap"},
            EoModel,
            g0=2 * np.pi * _number(eo_cfg, "g0_Hz", "eo"),
            v_ref=_number(eo_cfg, "v_ref_um3", "eo") * _UM3,
            overlap=_number(eo_cfg, "overlap", "eo", default=1.0),
        )
    elif scenario == "orientation":
        cfg.orientation_axis = _vector3(raw, "orientation_axis", "", default=[0.0, 0.0, 1.0])
        # the axis check of every angle's rotation
        _blame("orientation_axis", Orientation.about_axis, cfg.orientation_axis, 0.0)
    return cfg


# ---------------------------------------------------------------------------
# execution


@dataclass
class RunTable:
    columns: list[str]
    rows: list[tuple]
    report: list[str]


def _sweep(cfg: RunConfig, engine: str = "mie"):
    """The library sweep over the config's axis, with the values in SI units."""
    axis, values = _library_axis(cfg.axis, cfg.values)
    return sweep(cfg.mode, cfg.inclusions, cfg.substrate, axis, values, cfg.quad, engine)


def _slope_line(xs, ys, label: str) -> list[str]:
    try:
        return [f"fitted log-log slope of {label}: {loglog_slope(xs, ys):+.4f}"]
    except ValueError:  # too few points, or a constant axis
        return []


def _wavelength_line(cfg: RunConfig) -> str:
    lam = min_phase_velocity(cfg.substrate) / (cfg.mode.omega0 / (2 * np.pi))
    return f"slowest wavelength at f0: {lam / _UM:.4f} um"


def _diag_lines(results) -> list[str]:
    diags = [r.diagnostics for r in results]
    tags = sorted({r.regime for r in results})
    lines = [f"regime tags: {', '.join(tags)}"]
    if all(d.method == "analytic" for d in diags):
        lines.append("quadrature: closed-form angular averages (no grid)")
    else:
        worst = max(d.rel_error for d in diags)
        nodes = max(d.nodes for d in diags)
        refinements = max(d.refinements for d in diags)
        lines.append(
            f"quadrature: up to {nodes} nodes, max relative error {worst:.2e}, "
            f"max refinements: {refinements}"
        )
    return lines


def _run_rate_sweep(cfg: RunConfig) -> RunTable:
    sw = _sweep(cfg, engine=cfg.scenario)
    results = sw.results
    rows = [(float(v), r.total_rate, r.q_factor, r.regime) for v, r in zip(cfg.values, results)]
    col0 = _COLUMNS[cfg.axis]
    report = _slope_line(cfg.values, sw.q_factors, f"Q vs {cfg.axis}")
    report += _diag_lines(results)
    mode0, incs0 = sweep_point(cfg.mode, cfg.inclusions, sw.axis_name, sw.values[0])
    if cfg.substrate.isotropic and len(incs0) == 1:
        cg = derived_material_constant(results[0], mode0, incs0[0], cfg.substrate)
        if cg is None:
            report.append("derived material constant: skipped (zero rate)")
        else:
            report.append(f"derived material constant C*G (shear, longitudinal): {cg[0]:.4e}, {cg[1]:.4e}")
    else:
        report.append("derived material constant: skipped (needs isotropic substrate, one inclusion)")
    return RunTable([col0, "Gamma_rad_s", "Q", "regime"], rows, report)


def _run_dual(cfg: RunConfig) -> RunTable:
    seps = [d_um * _UM * cfg.dual_direction for d_um in cfg.values]
    duals = dual_waveguide_sweep(
        cfg.mode, cfg.inclusions[0], cfg.substrate, seps, cfg.dual_relative_sign, cfg.quad
    )
    ratios = [r.suppression_ratio for r in duals]
    rows = [
        (float(d_um), r.pair.total_rate, r.suppression_ratio, r.pair.q_factor, r.q_gain)
        for d_um, r in zip(cfg.values, duals)
    ]
    report = [
        f"relative sign {cfg.dual_relative_sign:+d}, direction "
        f"{np.array2string(cfg.dual_direction, precision=3)}",
        _wavelength_line(cfg),
    ]
    report += _slope_line(cfg.values, ratios, "suppression ratio vs separation_um")
    if ratios and min(ratios) > 0:
        report.append(f"best interference Q gain: {1.0 / min(ratios):.3e}")
    report += _diag_lines([duals[0].single] + [r.pair for r in duals])
    return RunTable(
        ["separation_um", "Gamma_pair_rad_s", "suppression_ratio", "Q_pair", "q_gain"],
        rows,
        report,
    )


def _run_bragg(cfg: RunConfig) -> RunTable:
    base = refined_rate(cfg.mode, cfg.inclusions, cfg.substrate, cfg.quad)
    _require_nonzero(base.total_rate, "the unmitigated rate", "the Q gain is undefined")
    counts = [int(n) for n in cfg.values]
    rows = []
    for n, (refl, trans) in zip(counts, _bragg_sweep(cfg.mirror, cfg.mode.omega0, counts)):
        mit = mitigated_rate(base, trans)
        rows.append(
            (n, refl, trans, mit.total_rate, mit.q_factor, mit.q_factor / base.q_factor)
        )
    report = [
        "mirror model: 1D normal-incidence transfer matrix; the emitted rate is "
        "scaled by the transmittance at f0 (an approximation that collapses the "
        "angular emission pattern onto the stack normal)",
        f"mirror center frequency: {cfg.bragg_center_ghz:g} GHz; unmitigated Q: {base.q_factor:.4e}",
    ] + _diag_lines([base])
    for layer in cfg.mirror.period:
        report.append(
            f"layer {layer.name}: Z = {layer.impedance:.4e} Pa s/m, "
            f"v = {layer.speed:.1f} m/s, quarter-wave thickness = {layer.thickness / _UM:.4f} um"
        )
    gains = [row[5] for row in rows]
    report.append(f"max Q gain in swept range: {max(gains):.3e}")
    return RunTable(
        ["n_periods", "reflectance", "transmittance", "Gamma_rad_s", "Q", "q_gain"],
        rows,
        report,
    )


def _run_figure_of_merit(cfg: RunConfig) -> RunTable:
    # g_MO depends on the mode volume only, which no sweep axis changes
    g_hz = cfg.eo.g_mo(cfg.mode.mode_volume) / (2 * np.pi)
    results = _sweep(cfg).results
    col0 = _COLUMNS[cfg.axis]
    for v, r in zip(cfg.values, results):
        _require_nonzero(r.total_rate, f"the rate at {col0} = {v:g}", "the figure of merit is unbounded")
    rows = [
        (float(v), r.total_rate, r.q_factor, g_hz, figure_of_merit(cfg.eo, cfg.mode, r))
        for v, r in zip(cfg.values, results)
    ]
    etas = np.array([row[4] for row in rows])
    best = int(np.argmax(etas))
    report = [
        f"peak figure of merit: {etas[best]:.4e} Hz^2 at {col0} = {cfg.values[best]:g}",
        _wavelength_line(cfg),
    ] + _diag_lines(results)
    return RunTable([col0, "Gamma_rad_s", "Q", "g_mo_Hz", "eta_Hz2"], rows, report)


def _run_orientation(cfg: RunConfig) -> RunTable:
    scan = sweep_orientation(
        cfg.mode,
        cfg.inclusions[0],
        cfg.substrate,
        np.deg2rad(cfg.values),
        axis=cfg.orientation_axis,
        quad=cfg.quad,
    )
    rows = [
        (float(a), g, r.total_rate, r.q_factor)
        for a, g, r in zip(cfg.values, scan.overlaps, scan.results)
    ]
    qs = scan.q_factors
    report = [
        f"rotation axis: {np.array2string(cfg.orientation_axis, precision=3)}",
    ]
    if np.all(np.isfinite(qs)) and qs.min() > 0:
        report.append(f"Q max/min over the angle grid: {qs.max() / qs.min():.3f}")
    report += _diag_lines(scan.results)
    return RunTable(["angle_deg", "G", "Gamma_rad_s", "Q"], rows, report)


def _run_oracle_check(cfg: RunConfig) -> RunTable:
    results = _sweep(cfg).results
    for f_ghz, r in zip(cfg.values, results):
        _require_nonzero(
            r.total_rate, f"the mie rate at {f_ghz:g} GHz", "the relative deviation is undefined"
        )
    rows = []
    for f_ghz, r in zip(cfg.values, results):
        mode = dataclasses.replace(cfg.mode, omega0=r.omega0)
        brute = brute_force_rate(mode, cfg.inclusions, cfg.substrate)
        rows.append((float(f_ghz), r.total_rate, brute, abs(r.total_rate - brute) / r.total_rate))
    worst = max(row[3] for row in rows)
    verdict = "within threshold" if worst < ORACLE_RTOL else "EXCEEDS threshold"
    report = [
        f"mie vs brute-force relative deviation: max {worst:.3e} (threshold {ORACLE_RTOL:.0e}): {verdict}"
    ] + _diag_lines(results)
    return RunTable(["f_GHz", "Gamma_mie_rad_s", "Gamma_brute_rad_s", "rel_deviation"], rows, report)


# Every scenario -> (runner, the sweep axes it accepts), in the order error
# messages list them.
_SCENARIOS = {
    "rayleigh": (_run_rate_sweep, ("frequency_GHz", "height_um", "thickness_um")),
    "mie": (_run_rate_sweep, ("frequency_GHz", "height_um", "thickness_um")),
    "dual_waveguide": (_run_dual, ("separation_um",)),
    "bragg": (_run_bragg, ("n_periods",)),
    "figure_of_merit": (_run_figure_of_merit, ("height_um", "frequency_GHz")),
    "orientation": (_run_orientation, ("angle_deg",)),
    "oracle_check": (_run_oracle_check, ("frequency_GHz",)),
}


def execute(cfg: RunConfig) -> RunTable:
    runner, _ = _SCENARIOS[cfg.scenario]
    return runner(cfg)


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: str, table: RunTable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_format_cell(v) for v in row])


def _print_report(cfg: RunConfig, table: RunTable) -> None:
    print(f"scenario: {cfg.scenario}")
    print(f"substrate: {cfg.substrate.name} ({'isotropic' if cfg.substrate.isotropic else 'anisotropic'})")
    incs = ", ".join(sorted({inc.material.name for inc in cfg.inclusions}))
    print(f"inclusions: {len(cfg.inclusions)} ({incs})")
    print(f"mode: f0 = {cfg.mode.omega0 / (2 * np.pi * 1e9):g} GHz, "
          f"V_E = {cfg.mode.mode_volume / _UM3:g} um^3")
    print(f"sweep: {cfg.axis}, {cfg.values.size} points "
          f"[{cfg.values.min():g} .. {cfg.values.max():g}]")
    for line in table.report:
        print(line)
    print(f"csv: {cfg.output} ({len(table.rows)} rows)")


# ---------------------------------------------------------------------------
# entry points


def _cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    if args.out is not None:
        cfg.output = args.out
    if not cfg.output:
        raise ConfigError("output: expected a non-empty path")
    if not os.path.isdir(os.path.dirname(cfg.output) or "."):
        raise ConfigError(f"output: no such directory for '{cfg.output}'")
    if os.path.isdir(cfg.output):
        raise ConfigError(f"output: '{cfg.output}' is a directory")
    table = execute(cfg)
    try:
        write_csv(cfg.output, table)
    except OSError as e:
        raise ConfigError(f"output: {e}") from None
    _print_report(cfg, table)
    return 0


def _cmd_materials_validate(args) -> int:
    db = load_materials(args.db)
    for name, m in sorted(db.items()):
        flags = []
        flags.append("isotropic" if m.isotropic else "anisotropic")
        flags.append("piezoelectric" if m.piezoelectric else "non-piezoelectric")
        print(f"  {name}: rho = {m.rho:g} kg/m^3, {', '.join(flags)}")
    print(f"ok: {len(db)} material(s) validated")
    return 0


def _cmd_selftest(_args) -> int:
    from .selftest import run_all  # a run never needs the checks
    results = run_all()
    for r in results:
        print(f"  {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    failed = sum(not r.passed for r in results)
    if failed:
        raise NumericFailure(f"selftest: {failed} of {len(results)} checks failed")
    print(f"selftest: all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonoscat",
        description="Phonon-radiation loss rates of piezoelectric inclusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run configuration")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--out", help="CSV output path (overrides the config)")
    p_run.set_defaults(func=_cmd_run)

    p_mat = sub.add_parser("materials", help="material database utilities")
    mat_sub = p_mat.add_subparsers(dest="materials_command", required=True)
    p_val = mat_sub.add_parser("validate", help="validate a materials JSON database")
    p_val.add_argument("db", help="path to the materials JSON file")
    p_val.set_defaults(func=_cmd_materials_validate)

    p_self = sub.add_parser("selftest", help="run the built-in consistency checks")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error it raises becomes an exit code here.

    A ValueError (a ConfigError, or a library check of an input value) or
    an OSError (a path that cannot be read or written, or a closed standard
    output) exits 2; a NumericFailure (a non-finite rate among them) or a
    MemoryError exits 3.  No np.errstate wraps the run.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        # a bare MemoryError has no message
        print(f"numeric failure: out of memory: {e}".removesuffix(": "), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
