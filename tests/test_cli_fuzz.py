"""Input fuzz: whatever a config file holds, ``phonoscat run`` ends with a
documented exit code (0 success, 2 configuration error, 3 numeric failure)
and never with a traceback, and a run that succeeds writes no ``nan`` cell
and no ``inf`` outside the columns where the README documents one;
whatever a materials file holds, ``phonoscat materials validate`` ends with
0 or 2.

Each config example takes a valid small config of one scenario and mutates
one or two of its fields: a value of the wrong type, a non-finite, negative
or zero number, an integer beyond the float range, a finite integer beyond
every size bound, a field removed, a sweep axis that belongs to another
scenario, or the name of a stock material that is not piezoelectric
(``sapphire``), whose inclusion radiates exactly nothing.  Grids stay at
8x16 nodes or fewer and sweeps at three points or fewer, so every example
runs in a fraction of a second.  Two sweeps of their own set each number
of each valid config, one at a time, to 1e300 and to 1e-310, and check that
a configuration error names that number's field.  Each materials
example is random bytes, a truncated copy of the bundled database, or a copy
with one or two of its fields mutated the same way.
"""

import copy
import csv
import json
import re
import warnings
from importlib import resources

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phonoscat.cli import main

QUAD = {"n_theta": 4, "n_phi": 8}
CUBE = {
    "material": "lithium_niobate",
    "dimensions_um": [0.01, 0.01, 0.01],
    "center_um": [0.0, 0.0, 0.0],
    "orientation": {"matrix": [[0, 0, -1], [0, 1, 0], [1, 0, 0]]},
    "sign": 1,
}


def _config(scenario, axis, start, stop, count, **extra):
    cfg = {
        "scenario": scenario,
        "substrate": "sapphire_iso",
        "mode": {"frequency_GHz": 10.0, "mode_volume_um3": 8000.0, "field_direction": [0, 1, 0], "eps_eff": 10.0},
        "inclusions": [copy.deepcopy(CUBE)],
        "sweep": {"axis": axis, "grid": "linear", "start": start, "stop": stop, "count": count},
        "quadrature": dict(QUAD, tolerance=1e-3, threads=1),
    }
    cfg.update(extra)
    return cfg


BASES = [
    _config("rayleigh", "frequency_GHz", 1.0, 10.0, 3),
    _config("mie", "thickness_um", 0.005, 0.01, 2),
    _config("dual_waveguide", "separation_um", 0.02, 0.04, 2, dual={"direction": [1, 0, 0], "relative_sign": -1}),
    _config(
        "bragg", "n_periods", 0, 2, 3,
        bragg={"low": "silicon", "high": "sapphire", "center_frequency_GHz": 11.0, "normal": [0, 0, 1]},
    ),
    _config("figure_of_merit", "height_um", 0.01, 0.02, 2, eo={"g0_Hz": 2000.0, "v_ref_um3": 8000.0, "overlap": 1.0}),
    _config("orientation", "angle_deg", 0.0, 90.0, 3, orientation_axis=[0, 0, 1]),
    _config("oracle_check", "frequency_GHz", 1.0, 1.0, 1),
]

AXES = ["frequency_GHz", "height_um", "thickness_um", "separation_um", "n_periods", "angle_deg", "width"]
BAD = [
    None, True, "abc", "", [], {}, [1.0, 2.0], ["a", "b", "c"], [float("nan"), 0.0, 0.0],
    [-1.0, -1.0, -1.0], [0, 0, 0], float("nan"), float("inf"), float("-inf"), -1, -2.5, 0, 0.0,
    10**400, 4 * 10**18, "sapphire",
] + AXES


def _paths(value, prefix=()):
    """Every (container path, key) in a nested config."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _mutate(cfg, path, key, action, value):
    node = cfg
    for step in path:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            return  # an earlier mutation removed or replaced the container
    fits = isinstance(node, dict) or (isinstance(node, list) and isinstance(key, int) and key < len(node))
    if not fits:
        return
    if action == "delete" and isinstance(node, dict):
        node.pop(key, None)
    else:
        node[key] = copy.deepcopy(value)


@st.composite
def fuzzed_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    paths = list(_paths(cfg))
    for _ in range(draw(st.integers(1, 2))):
        path, key = draw(st.sampled_from(paths))
        action = draw(st.sampled_from(["delete", "replace"]))
        _mutate(cfg, path, key, action, draw(st.sampled_from(BAD)))
    return cfg


def _nan_cells(path):
    """The ``nan`` cells of a written CSV; none if nothing was written."""
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return [cell for row in csv.reader(fh) for cell in row if cell == "nan"]


def test_every_base_config_runs(tmp_path):
    for i, cfg in enumerate(BASES):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / f"{i}.csv")]) == 0, cfg["scenario"]


def _inf_cells(path):
    """The ``inf`` cells of a written CSV outside the columns where the README
    documents one: a Q of an exactly-zero rate, and the q_gain of an exactly
    cancelling pair."""
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [
        (name, cell)
        for row in rows[1:]
        for name, cell in zip(rows[0], row)
        if cell in ("inf", "-inf") and name not in ("Q", "Q_pair", "q_gain")
    ]


def test_zero_rate_in_every_scenario(tmp_path):
    """A non-piezoelectric inclusion radiates exactly nothing.  Each scenario
    reports the zero rate (exit 0) or a ratio it leaves undefined (exit 3),
    and writes no nan and no inf outside the documented columns."""
    for i, base in enumerate(BASES):
        cfg = copy.deepcopy(base)
        cfg["inclusions"][0]["material"] = "sapphire"
        path, out = tmp_path / f"{i}.json", tmp_path / f"{i}.csv"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(out)]) in (0, 3), cfg["scenario"]
        assert _nan_cells(out) == [], cfg["scenario"]
        assert _inf_cells(out) == [], cfg["scenario"]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_configs())
def test_fuzzed_config_exits_0_2_or_3(tmp_path, cfg):
    path, out = tmp_path / "fuzz.json", tmp_path / "fuzz.csv"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path), "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        assert _nan_cells(out) == []
        assert _inf_cells(out) == []


def _numeric_leaves(cfg):
    """The (container path, key) of every number in a config, booleans aside."""
    for path, key in _paths(cfg):
        node = cfg
        for step in path:
            node = node[step]
        if isinstance(node[key], (int, float)) and not isinstance(node[key], bool):
            yield path, key


def _config_path(path, key):
    """The config path of a number as a config error names it: dotted keys
    and [i] list indices, down to the last named field, so a vector or
    matrix component is blamed on its whole field."""
    steps = [*path, key]
    while isinstance(steps[-1], int):
        steps.pop()
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" if i else s for i, s in enumerate(steps))


def _names(err, field):
    """Whether ``err`` names the config path ``field`` as a whole token: not
    as the tail of a longer dotted path (``config.orientation_axis``), nor
    as the head of one (``sweep.start`` in ``sweep.start.x``)."""
    return re.search(rf"(?<![\w.\]]){re.escape(field)}(?![\w.\[])", err) is not None


def _every_number_at(value, tmp_path, capsys):
    """Set each number of each base config, one at a time, to ``value``.
    Every run ends with 0, 2 or 3, prints no numpy warning, and writes no
    nan and no inf outside the documented columns; an exit-2 run prints one
    line, which names the config path of the number it was given as a whole token."""
    runs = 0
    for i, base in enumerate(BASES):
        for path, key in _numeric_leaves(base):
            cfg = copy.deepcopy(base)
            _mutate(cfg, path, key, "replace", value)
            where = (base["scenario"], *path, key)
            config, out = tmp_path / f"{i}-{runs}.json", tmp_path / f"{i}-{runs}.csv"
            config.write_text(json.dumps(cfg))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["run", str(config), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3), where
            if code == 2:
                assert err.count("\n") == 1 and _names(err, _config_path(path, key)), (where, err)
            assert [str(w.message) for w in caught] == [], where
            assert _nan_cells(out) == [], where
            assert _inf_cells(out) == [], where
            runs += 1
    assert runs == 217


def test_every_number_at_1e300(tmp_path, capsys):
    """Finite, but past the float range once squared or converted to SI."""
    _every_number_at(1e300, tmp_path, capsys)


def test_every_number_at_1e_310(tmp_path, capsys):
    """Subnormal: zero once multiplied by a unit factor such as 1e-18 um^3
    in m^3, or by another small number, as in 2 eps0 eps_eff V."""
    _every_number_at(1e-310, tmp_path, capsys)


MATERIALS = (resources.files("phonoscat") / "data" / "materials.json").read_bytes()


@st.composite
def fuzzed_databases(draw):
    kind = draw(st.sampled_from(["bytes", "truncated", "mutated"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "truncated":
        return MATERIALS[: draw(st.integers(0, len(MATERIALS) - 1))]
    records = json.loads(MATERIALS)
    paths = list(_paths(records))
    for _ in range(draw(st.integers(1, 2))):
        path, key = draw(st.sampled_from(paths))
        action = draw(st.sampled_from(["delete", "replace"]))
        _mutate(records, path, key, action, draw(st.sampled_from(BAD)))
    return json.dumps(records).encode()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_databases())
def test_fuzzed_database_validates_with_0_or_2(tmp_path, data):
    path = tmp_path / "materials.json"
    path.write_bytes(data)
    assert main(["materials", "validate", str(path)]) in (0, 2)
