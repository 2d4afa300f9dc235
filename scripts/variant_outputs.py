#!/usr/bin/env python3
"""Record what the CLI gives for every stored benchmark variant.

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

    PYTHONPATH=src python scripts/variant_outputs.py new.json
    PYTHONPATH=../old/src python scripts/variant_outputs.py old.json
    cmp old.json new.json

``--only`` runs the slots named ``workload/slot`` alone.
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


def variant_outputs(only=None) -> dict[str, list]:
    """The [exit code, report, csv] of each stored variant, by name; csv is
    None when the run wrote none."""
    outputs = {}
    os.environ.pop("PHONOSCAT_MATERIALS", None)  # the bundled database, as the references used
    with tempfile.TemporaryDirectory() as tmp:
        config, csv = Path(tmp) / "config.json", Path(tmp) / "out.csv"
        for path in sorted(workloads.REFERENCE_DIR.glob("*.json")):
            pool = json.loads(path.read_text(encoding="utf-8"))
            for slot in pool["slots"]:
                if only is not None and f"{pool['workload']}/{slot['name']}" not in only:
                    continue
                for index, variant in enumerate(slot["variants"]):
                    config.write_bytes(workloads.config_bytes(variant["config"]))
                    csv.unlink(missing_ok=True)
                    code, report = harness.run_config(cli, config, csv)
                    text = csv.read_text(encoding="utf-8") if csv.exists() else None
                    outputs[f"{pool['workload']}/{slot['name']}/{index}"] = [code, report.replace(tmp, "<tmp>"), text]
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--only", nargs="+", metavar="WORKLOAD/SLOT", help="run only these slots")
    args = parser.parse_args(argv)
    outputs = variant_outputs(set(args.only) if args.only else None)
    if not outputs:
        parser.error(f"no stored variant matches {args.only}")
    Path(args.out).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = sum(code != 0 for code, _, _ in outputs.values())
    print(f"{len(outputs)} variants written to {args.out}, {failed} with a non-zero exit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
