#!/usr/bin/env python3
"""Regenerate the benchmark's stored variants and reference outputs.

For every slot of every workload, draw candidate configs in order, run each
through the CLI with the tracer on, and keep the first ``VARIANTS`` that
  - exit 0,
  - make exactly the slot's number of ``mie_rate`` calls (so refinement
    reruns, and with them the work per seed, are the same for every variant),
  - and, where the slot demands it, return only converged results.
The kept configs and their exit codes and CSVs go to
``reference/<workload>.json``.  Regenerate only when the program's numbers
are meant to change, and say why in CHANGES.md.

Usage:
    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import harness
import workloads
from tracer import Tracer

# Candidates tried per slot before giving up.
MAX_CANDIDATES = 8 * workloads.VARIANTS


def _vet(cli, workload: str, slot: workloads.Slot, tmp: Path) -> list[dict]:
    accepted = []
    for index in range(MAX_CANDIDATES):
        config = workloads.candidate(workload, slot, index)
        path = tmp / "config.json"
        path.write_bytes(workloads.config_bytes(config))
        out = tmp / "out.csv"
        out.unlink(missing_ok=True)
        with Tracer() as tracer:
            code, report = harness.run_config(cli, path, out)
        mie = [s[5] for s in tracer.spans if s[0] == "radiation.mie_rate"]
        reasons = []
        if code != 0:
            reasons.append(f"exit {code}: {report.strip().splitlines()[-1:]}")
        if len(mie) != slot.mie_calls:
            reasons.append(f"{len(mie)} mie_rate calls, want {slot.mie_calls}")
        if slot.converged and not all(m[4] for m in mie):
            reasons.append("unconverged mie_rate result")
        if reasons:
            print(f"  {slot.name}[{index}] rejected: {'; '.join(reasons)}", file=sys.stderr)
            continue
        accepted.append({"candidate": index, "config": config, "exit": code, "csv": out.read_text()})
        if len(accepted) == workloads.VARIANTS:
            return accepted
    raise SystemExit(f"{workload}/{slot.name}: only {len(accepted)} of {MAX_CANDIDATES} candidates passed")


def main() -> int:
    cli = harness.import_cli()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        slots = []
        with tempfile.TemporaryDirectory(dir=harness.ROOT) as tmp:
            for slot in workloads.WORKLOADS[workload]:
                variants = _vet(cli, workload, slot, Path(tmp))
                print(f"{workload}/{slot.name}: kept candidates {[v['candidate'] for v in variants]}", file=sys.stderr)
                slots.append({"name": slot.name, "mie_calls": slot.mie_calls, "variants": variants})
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"workload": workload, "slots": slots}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(harness.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
