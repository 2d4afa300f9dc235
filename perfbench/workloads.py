"""The benchmark's workloads: which configs each one runs and how a seed picks them.

A workload is a list of slots.  Each slot is one CLI config whose shape
(scenario, substrate, grid, point count) is fixed, so every seed does the
same amount of work; its values (ranges, orientations, dimensions,
frequencies) come from a candidate generator.  ``freeze.py`` draws
candidates, keeps the first ``VARIANTS`` that pass its checks and stores
them, with this commit's exit code and CSV, in ``reference/<workload>.json``.
A run's seed then picks one stored variant per slot.  Every config a seed can
produce therefore has a stored reference output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Accepted variants stored per slot.
VARIANTS = 16

XCUT = {"matrix": [[0, 0, -1], [0, 1, 0], [1, 0, 0]]}


@dataclass(frozen=True)
class Slot:
    """One config position in a workload.

    ``mie_calls`` is the exact number of ``mie_rate`` calls every accepted
    variant makes; it pins refinement reruns, so the work per seed is fixed.
    ``converged`` demands that every ``mie_rate`` result converged, for
    scenarios that accept a result without the refinement path.
    """

    name: str
    make: Callable[[random.Random], dict]
    mie_calls: int
    converged: bool = False


def _u(r: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(r.uniform(lo, hi), digits)


def _mode(r: random.Random, lo: float = 8.0, hi: float = 12.0) -> dict:
    return {"frequency_GHz": _u(r, lo, hi), "mode_volume_um3": 8000.0, "field_direction": [0, 1, 0]}


def _about_y(r: random.Random) -> dict:
    """An x-cut-like orientation: rotation about the lab y axis by 60-120 deg."""
    return {"axis": [0, 1, 0], "angle_deg": _u(r, 60.0, 120.0, 2)}


def _any_orientation(r: random.Random) -> dict:
    return {"axis": [_u(r, -1, 1), _u(r, -1, 1), 1.0], "angle_deg": _u(r, 0.0, 180.0, 2)}


def _cuboid(r: random.Random, lo: float, hi: float, orientation: dict) -> dict:
    return {
        "material": "lithium_niobate",
        "dimensions_um": [_u(r, lo, hi, 4) for _ in range(3)],
        "orientation": orientation,
    }


# ---------------------------------------------------------------------------
# sweep_hot: long sweeps on one substrate at the default 64x128 grid.


def _height_sweep(r: random.Random) -> dict:
    start = _u(r, 0.3, 0.6)
    return {
        "scenario": "mie",
        "substrate": "sapphire_iso",
        "mode": _mode(r),
        "inclusions": [
            {"material": "lithium_niobate", "dimensions_um": [0.5, 1.0, _u(r, 3.0, 7.0)], "orientation": _about_y(r)}
        ],
        "sweep": {"axis": "height_um", "grid": "linear", "start": start, "stop": round(start + _u(r, 0.9, 1.5), 3), "count": 12},
    }


def _pair_sweep(r: random.Random) -> dict:
    width = _u(r, 0.005, 0.008, 5)
    return {
        "scenario": "dual_waveguide",
        "substrate": "sapphire_iso",
        "mode": _mode(r),
        "inclusions": [
            {"material": "lithium_niobate", "dimensions_um": [width, 0.02, 0.02], "orientation": _about_y(r)}
        ],
        "dual": {"direction": [1, 0, 0], "relative_sign": -1},
        "sweep": {
            "axis": "separation_um",
            "grid": "log",
            "start": round(width * _u(r, 1.05, 1.5), 5),
            "stop": _u(r, 0.2, 0.4),
            "count": 4,
        },
    }


# ---------------------------------------------------------------------------
# orientation: crystal-rotation scans at 32x64.


def _orientation_scan(axis: Callable[[random.Random], list]) -> Callable[[random.Random], dict]:
    def make(r: random.Random) -> dict:
        h = _u(r, 0.3, 0.7)
        start = _u(r, 0.0, 30.0, 2)
        return {
            "scenario": "orientation",
            "substrate": "sapphire_iso",
            "mode": _mode(r),
            "inclusions": [
                {"material": "lithium_niobate", "dimensions_um": [h, round(2 * h, 3), _u(r, 3.0, 6.0)], "orientation": _about_y(r)}
            ],
            "orientation_axis": axis(r),
            "sweep": {"axis": "angle_deg", "grid": "linear", "start": start, "stop": round(start + _u(r, 120.0, 180.0, 2), 2), "count": 12},
            "quadrature": {"n_theta": 32, "n_phi": 64},
        }

    return make


# ---------------------------------------------------------------------------
# mixed_cold: many short configs over three substrates and several grids.


def _rayleigh(axis: str) -> Callable[[random.Random], dict]:
    def make(r: random.Random) -> dict:
        if axis == "frequency_GHz":
            inc = _cuboid(r, 0.005, 0.012, _any_orientation(r))
            mode = _mode(r)
            sweep = {"axis": axis, "grid": "log", "start": 1.0, "stop": _u(r, 5.0, 10.0), "count": 3}
        elif axis == "height_um":
            inc = {"material": "lithium_niobate", "dimensions_um": [0.003, 0.006, _u(r, 0.01, 0.02, 4)], "orientation": XCUT}
            mode = _mode(r, 1.0, 3.0)
            sweep = {"axis": axis, "grid": "log", "start": _u(r, 0.002, 0.004, 4), "stop": _u(r, 0.006, 0.01, 4), "count": 2}
        else:
            inc = {"material": "lithium_niobate", "dimensions_um": [0.15, 0.15, 0.001], "orientation": _about_y(r)}
            mode = _mode(r, 0.5, 2.0)
            sweep = {"axis": axis, "grid": "log", "start": 0.001, "stop": _u(r, 0.004, 0.01, 4), "count": 3}
        return {"scenario": "rayleigh", "substrate": "sapphire_iso", "mode": mode, "inclusions": [inc], "sweep": sweep}

    return make


def _bragg(substrate: str, quad: list) -> Callable[[random.Random], dict]:
    def make(r: random.Random) -> dict:
        mode = _mode(r, 9.0, 12.0)
        return {
            "scenario": "bragg",
            "substrate": substrate,
            "mode": mode,
            "inclusions": [_cuboid(r, 0.05, 0.3, _any_orientation(r))],
            "bragg": {"low": "silicon", "high": "sapphire", "center_frequency_GHz": mode["frequency_GHz"]},
            "sweep": {"axis": "n_periods", "grid": "linear", "start": 0, "stop": 2, "count": 3},
            "quadrature": {"n_theta": quad[0], "n_phi": quad[1]},
        }

    return make


def _mie(substrate: str, quad: list, count: int, tolerance: float | None = None) -> Callable[[random.Random], dict]:
    def make(r: random.Random) -> dict:
        f0 = _u(r, 2.0, 6.0)
        q = {"n_theta": quad[0], "n_phi": quad[1]}
        if tolerance is not None:
            q["tolerance"] = tolerance
        return {
            "scenario": "mie",
            "substrate": substrate,
            "mode": _mode(r),
            "inclusions": [_cuboid(r, 0.05, 0.3, _any_orientation(r))],
            "sweep": {"axis": "frequency_GHz", "grid": "log", "start": f0, "stop": round(f0 * _u(r, 1.2, 2.0), 3), "count": count},
            "quadrature": q,
        }

    return make


def _oracle(substrate: str) -> Callable[[random.Random], dict]:
    def make(r: random.Random) -> dict:
        return {
            "scenario": "oracle_check",
            "substrate": substrate,
            "mode": _mode(r),
            "inclusions": [_cuboid(r, 0.006, 0.012, _any_orientation(r))],
            "sweep": {"axis": "frequency_GHz", "grid": "log", "start": _u(r, 2.0, 8.0), "count": 1},
            "quadrature": {"n_theta": 16, "n_phi": 32},
        }

    return make


WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "sweep_hot": (
        Slot("height", _height_sweep, mie_calls=12, converged=True),
        Slot("pair", _pair_sweep, mie_calls=8, converged=True),
    ),
    "orientation": (
        Slot("scan_z", _orientation_scan(lambda r: [0, 0, 1]), mie_calls=12, converged=True),
        Slot("scan_tilted", _orientation_scan(lambda r: [_u(r, -1, 1), _u(r, -1, 1), 1.0]), mie_calls=12, converged=True),
    ),
    "mixed_cold": (
        Slot("rayleigh_freq", _rayleigh("frequency_GHz"), mie_calls=0),
        Slot("rayleigh_height", _rayleigh("height_um"), mie_calls=0),
        Slot("rayleigh_thickness", _rayleigh("thickness_um"), mie_calls=0),
        Slot("rayleigh_freq_2", _rayleigh("frequency_GHz"), mie_calls=0),
        Slot("bragg_iso", _bragg("sapphire_iso", [16, 32]), mie_calls=1),
        Slot("bragg_sapphire", _bragg("sapphire", [12, 24]), mie_calls=1),
        Slot("bragg_silicon", _bragg("silicon", [16, 32]), mie_calls=1),
        Slot("mie_iso", _mie("sapphire_iso", [40, 80], 1), mie_calls=1),
        Slot("mie_iso_pair", _mie("sapphire_iso", [24, 48], 2), mie_calls=2),
        Slot("mie_iso_refined", _mie("sapphire_iso", [4, 8], 2, tolerance=1e-6), mie_calls=4),
        Slot("mie_sapphire", _mie("sapphire", [16, 32], 1), mie_calls=1),
        Slot("mie_sapphire_refined", _mie("sapphire", [4, 8], 1, tolerance=1e-5), mie_calls=3),
        Slot("mie_silicon", _mie("silicon", [24, 48], 1), mie_calls=1),
        Slot("mie_silicon_pair", _mie("silicon", [20, 40], 2), mie_calls=2),
        Slot("mie_silicon_refined", _mie("silicon", [6, 12], 1, tolerance=1e-4), mie_calls=2),
        Slot("oracle_iso", _oracle("sapphire_iso"), mie_calls=1),
        Slot("oracle_sapphire", _oracle("sapphire"), mie_calls=1),
        Slot("oracle_silicon", _oracle("silicon"), mie_calls=1),
    ),
}


def candidate(workload: str, slot: Slot, index: int) -> dict:
    """Candidate ``index`` of a slot; string seeds make it independent of hash seeding."""
    return slot.make(random.Random(f"{workload}/{slot.name}/{index}"))


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, indent=1, sort_keys=True) + "\n").encode()


def load_pool(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def pick(workload: str, seed: int) -> list[dict]:
    """The variants a seed selects, one per slot, in slot order.

    Each entry holds the slot name, the config and its stored exit code and CSV.
    """
    pool = load_pool(workload)
    rng = random.Random(seed)
    chosen = []
    for slot in pool["slots"]:
        variant = slot["variants"][rng.randrange(len(slot["variants"]))]
        chosen.append({"slot": slot["name"], **variant})
    return chosen
