"""Outside-in tracer for phonoscat's public functions.

phonoscat modules import these functions by name (``from .radiation import
mie_rate``), so a wrapper on the defining module alone misses most calls.
``Tracer`` replaces every binding of each traced function in every loaded
``phonoscat`` module, records one span per call in memory and puts the
original bindings back on exit.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, config, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``config`` the id of the
config being run, and ``extra`` a per-layer count taken from the call.
Spans nest by a call stack, so they assume one thread; the benchmark's
configs keep ``quadrature.threads`` = 1.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _nodes_solved(args, kwargs, out):
    return int(out[0].shape[0])


def _mie_extra(args, kwargs, out):
    substrate = args[2] if len(args) > 2 else kwargs["substrate"]
    d = out.diagnostics
    return (substrate.name, d.n_theta, d.n_phi, d.nodes, bool(d.converged))


# (module, function, extra): every span name is "module.function".
TRACED = (
    ("cli", "load_run_config", None),
    ("cli", "execute", None),
    ("cli", "write_csv", None),
    ("materials", "default_materials", None),
    ("materials", "piezo_voigt_to_tensor", None),
    ("elastodynamics", "christoffel_many", _nodes_solved),
    ("radiation", "mie_rate", _mie_extra),
    ("radiation", "regime_label", None),
    ("radiation", "rayleigh_rate", None),
    ("radiation", "brute_force_rate", None),
    ("coupling", "geometry_factor", None),
    ("transducer", "emission_weighted_overlap", None),
    ("transducer", "sweep_orientation", None),
    ("mitigation", "dual_waveguide_rate", None),
    ("mitigation", "bragg_transmission", None),
)


class Tracer:
    """Context manager that traces ``TRACED`` while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.config = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, extra):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.config, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "phonoscat" or n.startswith("phonoscat.")]
        for short, func, extra in TRACED:
            original = getattr(importlib.import_module(f"phonoscat.{short}"), func)
            wrapper = self._wrap(f"{short}.{func}", original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def write(self, path) -> None:
        """Write the spans as one JSON object with column names and rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "config", "extra"], "rows": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``.calls``, ``.s`` and ``.self_s`` exist for every traced function.
    ``radiation.mie_rate`` adds ``.nodes`` (quadrature nodes its results
    report), ``.calls_per_point`` (calls per converged result, so refinement
    reruns count as waste) and ``.repeat_share`` (share of calls whose
    (substrate, n_theta, n_phi) an earlier call of the pass already used).
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for short, func, _ in TRACED:
        out[f"{short}.{func}.calls"] = 0
        out[f"{short}.{func}.s"] = 0.0
        out[f"{short}.{func}.self_s"] = 0.0
    nodes = 0
    mie_nodes = 0
    converged = 0
    repeats = 0
    seen = set()
    for s, self_s in zip(spans, selfs):
        name = s[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += s[2] - s[1]
        out[f"{name}.self_s"] += self_s
        if name == "elastodynamics.christoffel_many":
            nodes += s[5]
        elif name == "radiation.mie_rate":
            substrate, n_theta, n_phi, n, ok = s[5]
            mie_nodes += n
            converged += ok
            key = (substrate, n_theta, n_phi)
            repeats += key in seen
            seen.add(key)
    calls = out["radiation.mie_rate.calls"]
    out["elastodynamics.christoffel_many.nodes"] = nodes
    out["radiation.mie_rate.nodes"] = mie_nodes
    out["radiation.mie_rate.calls_per_point"] = calls / converged if converged else 0.0
    out["radiation.mie_rate.repeat_share"] = repeats / calls if calls else 0.0
    out["trace.spans"] = len(spans)
    # Spans without a traced parent: in a CLI pass, load_run_config, execute and write_csv.
    out["trace.top_level_s"] = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return out
