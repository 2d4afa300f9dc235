#!/usr/bin/env python3
"""phonoscat benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed picks one stored config variant per slot of the workload (see
workloads.py).  The run then
  1. runs every config once through ``phonoscat.cli.main(["run", ...])`` to
     warm up,
  2. repeats untraced passes over all configs for S seconds, timing the
     reference probe (probe.py) between configs, and reports the median pass
     with each config's time scaled by ``REF_PROBE_S / probe time`` around it
     (``--trace 0``); after each pass it times set-up (import, materials
     database, first config parse) in a fresh process between probes and
     reports the median scaled sample,
  3. with ``--trace 1``, adds three traced passes and reports the per-layer
     metrics of the median one instead, plus the tracing overhead (median
     traced minus median untraced pass, both unscaled).
The probe scaling cancels the shared machine's speed swings, which move the
program and the probe alike; every raw time and probe sample is kept in the
record.
Every execution's exit code and CSV is checked against the stored
reference; a traced pass must also reproduce the untraced CSV and report
bytes.  The last stdout line is the JSON result.  Configs, CSVs, spans and
the machine/input record go to ``.perfbench_work/<workload>/seed<N>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import workloads
from probe import REF_PROBE_S, Probe
from tracer import Tracer, layer_metrics

WORK = harness.ROOT / ".perfbench_work"

# Fewest fresh processes timed for setup_s, after one that warms the bytecode cache.
SETUP_REPEATS = 11

# After each config the probe runs for this share of the config's time, and at least once.
PROBE_SHARE = 0.1

# Probe samples taken just before and just after each set-up process.
SETUP_PROBES = 2

# Traced passes per --trace 1 run; per-layer metrics come from the median one.
TRACED_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("elastodynamics.christoffel_many.calls", "count"),
    ("elastodynamics.christoffel_many.nodes", "count"),
    ("elastodynamics.christoffel_many.s", "s"),
    ("radiation.mie_rate.calls", "count"),
    ("radiation.mie_rate.nodes", "count"),
    ("radiation.mie_rate.s", "s"),
    ("radiation.mie_rate.self_s", "s"),
    ("radiation.mie_rate.calls_per_point", "ratio"),
    ("radiation.mie_rate.repeat_share", "ratio"),
    ("radiation.regime_label.calls", "count"),
    ("radiation.regime_label.s", "s"),
    ("radiation.rayleigh_rate.calls", "count"),
    ("radiation.rayleigh_rate.s", "s"),
    ("radiation.brute_force_rate.calls", "count"),
    ("radiation.brute_force_rate.s", "s"),
    ("radiation.brute_force_rate.self_s", "s"),
    ("transducer.emission_weighted_overlap.calls", "count"),
    ("transducer.emission_weighted_overlap.s", "s"),
    ("transducer.emission_weighted_overlap.self_s", "s"),
    ("transducer.sweep_orientation.calls", "count"),
    ("transducer.sweep_orientation.s", "s"),
    ("coupling.geometry_factor.calls", "count"),
    ("coupling.geometry_factor.s", "s"),
    ("materials.piezo_voigt_to_tensor.calls", "count"),
    ("mitigation.dual_waveguide_rate.calls", "count"),
    ("mitigation.dual_waveguide_rate.s", "s"),
    ("mitigation.bragg_transmission.calls", "count"),
    ("mitigation.bragg_transmission.s", "s"),
    ("cli.load_run_config.s", "s"),
    ("cli.execute.s", "s"),
    ("cli.write_csv.s", "s"),
    ("materials.default_materials.calls", "count"),
    ("materials.default_materials.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_level_s", "s"),
    ("trace.spans", "count"),
    ("workload.configs", "count"),
    ("workload.points", "count"),
    ("workload.nodes_per_point", "count"),
)

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import phonoscat
from phonoscat.cli import load_run_config
phonoscat.default_materials()
load_run_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def measure_setup(config_path: Path) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(harness.SRC), str(config_path)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def probed_setup(config_path: Path, probe: Probe) -> tuple[float, list[float]]:
    """Set-up time of one fresh process and the probe samples around it."""
    before = [probe() for _ in range(SETUP_PROBES)]
    raw = measure_setup(config_path)
    return raw, before + [probe() for _ in range(SETUP_PROBES)]


def probe_group(probe: Probe, budget: float) -> list[float]:
    """Probe samples for ``budget`` seconds, and at least one."""
    samples = [probe()]
    while sum(samples) < budget:
        samples.append(probe())
    return samples


def scale(seconds: float, probes: list[float]) -> float:
    """A time at the reference machine speed, given the probe samples taken around it."""
    return seconds * REF_PROBE_S / statistics.median(probes)


def run_pass(cli, jobs: list[tuple[Path, Path]], tracer: Tracer | None = None, probe: Probe | None = None):
    """Run every config once.

    Returns the wall and process CPU time of the whole pass, the (wall, cpu)
    time of each config, the probe groups (one before the first config and
    one after each, empty without a probe) and (exit, report, csv) per config.
    """
    for _, out in jobs:
        out.unlink(missing_ok=True)
    runs, times = [], []
    groups = [probe_group(probe, 0.0)] if probe else []
    w0, c0 = time.perf_counter(), time.process_time()
    for i, (cfg, out) in enumerate(jobs):
        if tracer is not None:
            tracer.config = i
        w, c = time.perf_counter(), time.process_time()
        runs.append(harness.run_config(cli, cfg, out))
        times.append((time.perf_counter() - w, time.process_time() - c))
        if probe:
            groups.append(probe_group(probe, PROBE_SHARE * times[-1][0]))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    results = [(code, report, out.read_text() if out.exists() else None) for (code, report), (_, out) in zip(runs, jobs)]
    return wall, cpu, times, groups, results


def scaled_pass(times: list[tuple[float, float]], groups: list[list[float]]) -> tuple[float, float]:
    """Wall and CPU time of a pass, each config scaled by the probe groups on both sides of it."""
    wall = cpu = 0.0
    for i, (w, c) in enumerate(times):
        around = groups[i] + groups[i + 1]
        wall += scale(w, around)
        cpu += scale(c, around)
    return wall, cpu


def count_failures(chosen: list[dict], results, same_as=None) -> int:
    """Executions whose exit code or CSV differs from the stored reference,
    or, given ``same_as``, whose exit code, report or CSV bytes differ from that pass."""
    failed = 0
    for i, (ref, (code, report, text)) in enumerate(zip(chosen, results)):
        wrong = code != ref["exit"] or not harness.csv_matches(text, ref["csv"])
        failed += wrong or (same_as is not None and (code, report, text) != same_as[i])
    return failed


def _read_sys(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _blas_threads() -> int | None:
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_sys(index / f) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = size
    model = None
    cpuinfo = _read_sys(Path("/proc/cpuinfo")) or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def source_record() -> dict:
    """The git commit when the checkout is a repository, and a digest of the sources either way."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(harness.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    package = harness.SRC / "phonoscat"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="untraced measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        cli = harness.import_cli()
        chosen = workloads.pick(args.workload, args.seed)
    except (harness.SourceMissing, FileNotFoundError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    work = WORK / args.workload / f"seed{args.seed}"
    (work / "out").mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, variant in enumerate(chosen):
        cfg = work / f"{i:02d}_{variant['slot']}.json"
        cfg.write_bytes(workloads.config_bytes(variant["config"]))
        jobs.append((cfg, work / "out" / f"{i:02d}_{variant['slot']}.csv"))
    points = sum(len(v["csv"].splitlines()) - 1 for v in chosen)

    measure_setup(jobs[0][0])  # warms the bytecode cache
    probe = Probe()
    for _ in range(10):
        probe()
    attempted = failed = 0

    *_, results = run_pass(cli, jobs)
    attempted += len(jobs)
    failed += count_failures(chosen, results)

    # Set-up samples alternate with the passes, so a slow spell cannot hold all of them.
    raw_walls, walls, cpus, raw_setup, setup, probes = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        _, _, times, groups, results = run_pass(cli, jobs, probe=probe)
        wall, cpu = scaled_pass(times, groups)
        raw_walls.append(sum(w for w, _ in times))
        walls.append(wall)
        cpus.append(cpu)
        probes.append(groups)
        attempted += len(jobs)
        failed += count_failures(chosen, results)
        raw, around = probed_setup(jobs[0][0], probe)
        raw_setup.append(raw)
        setup.append(scale(raw, around))
    while len(setup) < SETUP_REPEATS:
        raw, around = probed_setup(jobs[0][0], probe)
        raw_setup.append(raw)
        setup.append(scale(raw, around))
    wall_s = statistics.median_low(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "workload": args.workload,
        "seed": args.seed,
        **source_record(),
        "machine": machine_record(),
        "configs": len(jobs),
        "points": points,
        "slots": {v["slot"]: v["candidate"] for v in chosen},
        "ref_probe_s": REF_PROBE_S,
        "setup_s_samples": setup,
        "setup_raw_s_samples": raw_setup,
        "wall_s_samples": walls,
        "wall_raw_s_samples": raw_walls,
        "cpu_s_samples": cpus,
        "probe_s_samples": probes,
    }

    if args.trace:
        traced_passes = []
        for _ in range(TRACED_PASSES):
            with Tracer() as tracer:
                traced_wall, _, _, _, traced = run_pass(cli, jobs, tracer)
            attempted += len(jobs)
            failed += count_failures(chosen, traced, same_as=results)
            traced_passes.append((traced_wall, tracer))
        traced_passes.sort(key=lambda p: p[0])
        traced_wall, tracer = traced_passes[TRACED_PASSES // 2]
        tracer.write(work / "spans.json")
        layers = layer_metrics(tracer.spans)
        layers.update({
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - statistics.median(raw_walls),
            "workload.configs": len(jobs),
            "workload.points": points,
            "workload.nodes_per_point": layers["radiation.mie_rate.nodes"] / points,
        })
        record["repeat_share"] = layers["radiation.mie_rate.repeat_share"]
        record["nodes_per_point"] = layers["workload.nodes_per_point"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "cpu_s": cpus[walls.index(wall_s)],
            "points_per_s": points / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} configs, {points} points, "
          f"{len(walls)} timed passes (median {statistics.median(raw_walls):.4f} s unscaled, "
          f"probe median {statistics.median(p for groups in probes for g in groups for p in g) * 1e3:.2f} ms); "
          f"record in {work.relative_to(harness.ROOT)}/record.json")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  top-level spans cover {layers['trace.top_level_s']:.4f} s of the {traced_wall:.4f} s traced pass; "
              f"tracing overhead {layers['trace.overhead_s']:+.4f} s over the median untraced pass")
    print(f"  {'failed_share':45s} {failed / attempted:.6g} ratio ({failed} of {attempted} config runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
