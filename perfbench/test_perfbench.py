"""Self-checks of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import workloads
from tracer import TRACED, Tracer, layer_metrics, self_times

cli = harness.import_cli()

HERE = Path(__file__).resolve().parent
SEEDS = range(6)
COUNTS = (".calls", ".nodes", ".calls_per_point", ".repeat_share", "trace.spans")

_DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import workloads
for name in sorted(workloads.WORKLOADS):
    for seed in range(int(sys.argv[2])):
        blob = b"".join(workloads.config_bytes(v["config"]) for v in workloads.pick(name, seed))
        print(name, seed, hashlib.sha256(blob).hexdigest())
"""


def _digests(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, "-c", _DIGEST, str(HERE), str(len(SEEDS))],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def _pool():
    for name in workloads.WORKLOADS:
        for slot in workloads.load_pool(name)["slots"]:
            for variant in slot["variants"]:
                yield name, slot, variant


def test_same_seed_gives_byte_identical_configs():
    first = _digests("1")
    assert first == _digests("2")
    # distinct seeds really vary the inputs
    per_workload = {}
    for line in first.splitlines():
        name, _, digest = line.split()
        per_workload.setdefault(name, set()).add(digest)
    assert all(len(d) == len(SEEDS) for d in per_workload.values())


def test_stored_variants_come_from_the_generators():
    for name, slots in workloads.WORKLOADS.items():
        stored = workloads.load_pool(name)["slots"]
        assert [s.name for s in slots] == [s["name"] for s in stored]
        for slot, entry in zip(slots, stored):
            assert entry["mie_calls"] == slot.mie_calls
            assert len(entry["variants"]) == workloads.VARIANTS
            for v in entry["variants"]:
                assert workloads.candidate(name, slot, v["candidate"]) == v["config"]
                assert v["exit"] == 0


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def test_every_stored_config_passes_load_run_config(tmp_path):
    path = tmp_path / "config.json"
    for name, slot, variant in _pool():
        config = variant["config"]
        assert all(math.isfinite(x) for x in _numbers(config)), (name, slot["name"])
        path.write_bytes(workloads.config_bytes(config))
        cfg = cli.load_run_config(str(path))
        assert cfg.quad.threads == 1
        if cfg.scenario in ("dual_waveguide", "orientation"):
            # coarse, refinable grids stay in scenarios that use the refinement path
            assert (cfg.quad.n_theta, cfg.quad.n_phi) >= (32, 64), (name, slot["name"])


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_csv_comparison_uses_relative_tolerance():
    want = "f_GHz,Q,regime\n1.0,100.0,mie\n"
    assert harness.csv_matches(want, want)
    assert harness.csv_matches("f_GHz,Q,regime\n1.0,100.00000000005,mie\n", want)
    assert not harness.csv_matches("f_GHz,Q,regime\n1.0,100.0000000005,mie\n", want)
    assert not harness.csv_matches("f_GHz,Q,regime\n1.0,100.0,rayleigh\n", want)
    assert not harness.csv_matches("f_GHz,Q,regime\n1.0,nan,mie\n", "f_GHz,Q,regime\n1.0,1.0,mie\n")
    assert not harness.csv_matches(want + "2.0,1.0,mie\n", want)
    assert not harness.csv_matches(None, want)


def test_tracer_sees_by_name_imports_and_restores_them():
    import phonoscat.radiation as radiation
    import phonoscat.transducer as transducer
    from phonoscat import default_materials

    originals = {
        (m.__name__, attr): getattr(m, attr)
        for m in (radiation, transducer)
        for attr in ("christoffel_many", "mie_rate")
        if hasattr(m, attr)
    }
    substrate = default_materials()["sapphire_iso"]
    cube = _cube()
    with Tracer() as tracer:
        assert radiation.christoffel_many is not originals[("phonoscat.radiation", "christoffel_many")]
        radiation.regime_label(1e10, [cube], substrate)
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
    names = [s[0] for s in tracer.spans]
    assert names == ["radiation.regime_label", "elastodynamics.christoffel_many"]
    parent, child = tracer.spans
    assert child[3] == 0 and parent[3] == -1
    assert child[5] == 16 * 32  # min_phase_velocity's direction grid
    selfs = self_times(tracer.spans)
    assert selfs[0] == pytest.approx((parent[2] - parent[1]) - (child[2] - child[1]))
    metrics = layer_metrics(tracer.spans)
    assert metrics["elastodynamics.christoffel_many.nodes"] == 512
    assert all(f"{m}.{f}.calls" in metrics for m, f, _ in TRACED)


def test_traced_pass_reproduces_untraced_outputs_and_counts(tmp_path):
    chosen = workloads.pick("mixed_cold", 0)
    jobs = []
    for i, variant in enumerate(chosen):
        cfg = tmp_path / f"{i}.json"
        cfg.write_bytes(workloads.config_bytes(variant["config"]))
        jobs.append((cfg, tmp_path / f"{i}.csv"))
    *_, untraced = run.run_pass(cli, jobs)
    assert run.count_failures(chosen, untraced) == 0
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            *_, traced = run.run_pass(cli, jobs, tracer)
        assert run.count_failures(chosen, traced, same_as=untraced) == 0
        metrics = layer_metrics(tracer.spans)
        counts.append({k: v for k, v in metrics.items() if k.endswith(COUNTS)})
    assert counts[0] == counts[1]
    assert counts[0]["radiation.mie_rate.calls_per_point"] > 1  # refinement reruns happen
    assert {s[4] for s in tracer.spans} == set(range(len(jobs)))


def test_probe_scaling_uses_the_groups_on_both_sides_of_each_config():
    ref = run.REF_PROBE_S
    times = [(1.0, 2.0), (3.0, 3.0)]
    assert run.scaled_pass(times, [[ref], [ref], [ref]]) == pytest.approx((4.0, 5.0))
    # The machine slows down after the first config: the second config's
    # groups hold [ref] and [2 ref, 2 ref], whose median is 2 ref.
    wall, cpu = run.scaled_pass(times, [[ref], [ref], [2 * ref, 2 * ref]])
    assert (wall, cpu) == pytest.approx((1.0 + 1.5, 2.0 + 1.5))


def _cube():
    import numpy as np
    from phonoscat import Inclusion, Orientation, default_materials

    return Inclusion(
        dimensions=np.full(3, 1e-8),
        center=np.zeros(3),
        material=default_materials()["lithium_niobate"],
        orientation=Orientation.identity(),
    )
