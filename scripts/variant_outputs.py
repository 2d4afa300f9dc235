#!/usr/bin/env python3
"""Record what the CLI gives for every stored benchmark variant and probe.

Each variant stored in ``perfbench/reference/*.json`` is run through
``phonoscat.cli.main(["run", CONFIG, "--out", CSV])`` in this one process, by
the benchmark's own ``harness.run_config``, and ``{variant: [exit code,
report, csv]}`` is written to OUT as JSON, with the variants named
``workload/slot/index``.  The report is stdout and stderr together, with the
temporary directory that holds the config and the CSV replaced by ``<tmp>``,
so two runs compare as bytes.  The reference directory is only read.
phonoscat is imported from the path, not from this checkout.

Run it once on each of two source trees and compare the files; equal files
mean the same exit code, report and CSV bytes on every variant:

    PYTHONPATH=../old/src python scripts/variant_outputs.py old.json
    PYTHONPATH=src python scripts/variant_outputs.py new.json
    cmp old.json new.json

``--compare OLD.json`` also names each variant whose exit code, report or
CSV differs from OLD.json, or that only one of the two files has, and exits
1 if there is any.  ``--check-references`` names each variant whose exit
code or CSV misses the reference stored beside its config, judged as the
benchmark judges a run (``harness.csv_matches``), and exits 1 if there is
any; OUT is then optional:

    PYTHONPATH=src python scripts/variant_outputs.py --check-references

Every run also records each committed probe config in ``scripts/probes/``
as ``probe/<name>``, after its file name.  The probes reach paths that no
stored variant does: off-axis phases in the engine and in the brute-force
oracle, ``lithium_niobate`` as the substrate, and refinement reruns.  They have no stored reference, so
``--check-references`` does not judge them; ``--compare`` does.

``--only`` runs the slots named ``workload/slot`` and the probes named
``probe/<name>`` alone, and compares and checks only their variants.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import phonoscat.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402
import workloads  # noqa: E402

PROBE_DIR = Path(__file__).resolve().parent / "probes"


def _chosen(name: str, only) -> bool:
    """Whether ``only`` (None: everything) holds the slot of the variant
    ``workload/slot/index`` or the name of the probe ``probe/<name>``."""
    return only is None or (name if name.startswith("probe/") else name.rsplit("/", 1)[0]) in only


def stored_variants(only=None):
    """(name, variant) of each stored variant, in file order."""
    for path in sorted(workloads.REFERENCE_DIR.glob("*.json")):
        pool = json.loads(path.read_text(encoding="utf-8"))
        for slot in pool["slots"]:
            for index, variant in enumerate(slot["variants"]):
                name = f"{pool['workload']}/{slot['name']}/{index}"
                if _chosen(name, only):
                    yield name, variant


def probe_configs(only=None):
    """(name, config bytes) of each committed probe, in file order."""
    for path in sorted(PROBE_DIR.glob("*.json")):
        if _chosen(f"probe/{path.stem}", only):
            yield f"probe/{path.stem}", path.read_bytes()


def variant_outputs(only=None) -> dict[str, list]:
    """The [exit code, report, csv] of each stored variant and probe, by
    name; csv is None when the run wrote none."""
    outputs = {}
    configs = [(name, workloads.config_bytes(variant["config"])) for name, variant in stored_variants(only)]
    os.environ.pop("PHONOSCAT_MATERIALS", None)  # the bundled database, as the references used
    with tempfile.TemporaryDirectory() as tmp:
        config, csv = Path(tmp) / "config.json", Path(tmp) / "out.csv"
        for name, data in configs + list(probe_configs(only)):
            config.write_bytes(data)
            csv.unlink(missing_ok=True)
            code, report = harness.run_config(cli, config, csv)
            text = csv.read_text(encoding="utf-8") if csv.exists() else None
            outputs[name] = [code, report.replace(tmp, "<tmp>"), text]
    return outputs


def reference_failures(outputs: dict[str, list], only=None) -> list[str]:
    """One line per stored variant whose exit code or CSV misses its stored
    reference, as the benchmark judges it (``harness.csv_matches``)."""
    lines = []
    for name, variant in stored_variants(only):
        code, _, text = outputs[name]
        parts = []
        if code != variant["exit"]:
            parts.append("exit code")
        if not harness.csv_matches(text, variant["csv"]):
            parts.append("csv")
        if parts:
            lines.append(f"{name}: misses its reference in {', '.join(parts)}")
    return lines


def differences(old: dict[str, list], new: dict[str, list]) -> list[str]:
    """One line per variant whose outputs differ, naming what differs."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            lines.append(f"{name}: only in the {'old' if name in old else 'new'} outputs")
            continue
        parts = [part for part, a, b in zip(("exit code", "report", "csv"), old[name], new[name]) if a != b]
        if parts:
            lines.append(f"{name}: differs in {', '.join(parts)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write (optional with --check-references)")
    parser.add_argument(
        "--only", nargs="+", metavar="WORKLOAD/SLOT", help="run only these slots and probe/<name> probes"
    )
    parser.add_argument("--compare", metavar="OLD.json", help="name every variant that differs from OLD.json")
    parser.add_argument(
        "--check-references", action="store_true",
        help="name every variant whose exit code or CSV misses its stored reference",
    )
    args = parser.parse_args(argv)
    if args.out is None and not args.check_references:
        parser.error("OUT is required unless --check-references is given")
    only = set(args.only) if args.only else None
    old = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else None
    if old is not None:
        old = {name: value for name, value in old.items() if _chosen(name, only)}
    outputs = variant_outputs(only)
    if not outputs:
        parser.error(f"no stored variant or probe matches {args.only}")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        failed = sum(code != 0 for code, _, _ in outputs.values())
        print(f"{len(outputs)} variants and probes written to {args.out}, {failed} with a non-zero exit")
    lines = []
    if old is not None:
        diffs = differences(old, outputs)
        compared = len(old.keys() | outputs.keys())
        print("\n".join(diffs + [f"{len(diffs)} of {compared} variants differ from {args.compare}"]))
        lines += diffs
    if args.check_references:
        misses = reference_failures(outputs, only)
        judged = sum(not name.startswith("probe/") for name in outputs)
        print("\n".join(misses + [f"{len(misses)} of {judged} variants miss their stored reference"]))
        lines += misses
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
