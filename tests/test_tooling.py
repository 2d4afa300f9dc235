"""The names the benchmark tooling, the package surface and the README rely on.

``perfbench/tracer.py`` rebinds the functions listed in its ``TRACED`` table
inside every loaded phonoscat module, and reads the substrate of each
``mie_rate`` call from its third positional argument.  Renaming or deleting
one of those functions breaks a traced benchmark run, so the names are
checked here.  The tracer file is only read, never imported as a module.
The README's "Scenarios" table is checked against the CLI's scenario table,
the options the README names for ``phonoscat run`` against its parser, and
the README's "Selftest" output against the checks ``run_all`` returns, and
the record keys its materials-file paragraph names against the loader's.
"""

import argparse
import importlib
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import phonoscat
from phonoscat.cli import _SCENARIOS, build_parser, load_run_config
from phonoscat.materials import _RECORD_KEYS
from phonoscat.selftest import run_all

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    traced = runpy.run_path(str(TRACER))["TRACED"]
    assert traced
    for module, function, _ in traced:
        target = getattr(importlib.import_module(f"phonoscat.{module}"), function, None)
        assert callable(target), f"phonoscat.{module}.{function}"


def test_mie_rate_takes_the_substrate_third():
    params = list(inspect.signature(phonoscat.mie_rate).parameters)
    assert params[2] == "substrate"


def test_every_exported_name_resolves():
    missing = [name for name in phonoscat.__all__ if not hasattr(phonoscat, name)]
    assert missing == []
    assert len(set(phonoscat.__all__)) == len(phonoscat.__all__)


def test_readme_scenarios_table_matches_the_cli():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Scenarios\n", 1)[1]
    rows = [line for line in section.split("\n\n", 1)[0].splitlines() if line.startswith("| `")]
    documented = {}
    for row in rows:
        name, _, axes = (cell.strip() for cell in row.strip("|").split("|"))
        documented[name.strip("`")] = tuple(re.findall(r"`([^`]+)`", axes))
    assert documented == {name: axes for name, (_, axes) in _SCENARIOS.items()}


def test_readme_names_exactly_the_run_options():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for a in commands.choices["run"]._actions for flag in a.option_strings}
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    assert set(re.findall(r"`(--[a-z][a-z-]*)", prose)) == options - {"-h", "--help"}


def test_readme_selftest_block_names_exactly_the_checks():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Selftest\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    names = [check.name for check in run_all()]
    assert re.findall(r"^  PASS (.+?): ", block, flags=re.M) == names
    assert block.splitlines()[-1] == f"selftest: all {len(names)} checks passed"


def test_readme_materials_file_names_exactly_the_record_keys():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Materials\n", 1)[1]
    paragraph = next(p for p in section.split("\n\n") if p.startswith("A materials file is"))
    assert set(re.findall(r"`([^`]+)`", paragraph)) == _RECORD_KEYS


def test_variant_outputs_records_a_slot_as_the_references_store_it(tmp_path):
    """``scripts/variant_outputs.py`` runs each stored variant of the chosen
    slot through the CLI, writes exit code, report and CSV per variant with
    its temporary paths normalised, and leaves the references untouched."""
    references = sorted((ROOT / "perfbench" / "reference").iterdir())
    before = {path: path.read_bytes() for path in references}
    out = tmp_path / "outputs.json"
    script = [sys.executable, str(ROOT / "scripts" / "variant_outputs.py"), str(out), "--only", "mixed_cold/mie_iso_pair"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run(script, env=env, capture_output=True, timeout=300).returncode == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    pool = json.loads(before[ROOT / "perfbench" / "reference" / "mixed_cold.json"])
    slot = next(s for s in pool["slots"] if s["name"] == "mie_iso_pair")
    assert set(got) == {f"mixed_cold/mie_iso_pair/{i}" for i in range(len(slot["variants"]))}
    for i, variant in enumerate(slot["variants"]):
        code, report, csv = got[f"mixed_cold/mie_iso_pair/{i}"]
        assert [code, csv] == [variant["exit"], variant["csv"]]
        assert report.endswith("csv: <tmp>/out.csv (2 rows)\n")
    assert sorted((ROOT / "perfbench" / "reference").iterdir()) == references
    assert all(path.read_bytes() == data for path, data in before.items())


def test_variant_outputs_compare_names_each_differing_variant(tmp_path):
    """``--compare OLD.json`` exits 0 on equal outputs, and otherwise exits 1
    and names each variant that differs, with what differs; with ``--only``
    the variants of other slots in OLD.json are not compared."""
    script = [sys.executable, str(ROOT / "scripts" / "variant_outputs.py")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    first = tmp_path / "first.json"
    only = ["--only", "mixed_cold/mie_iso_pair"]
    assert subprocess.run([*script, str(first), *only], env=env, capture_output=True, timeout=300).returncode == 0
    old = json.loads(first.read_text(encoding="utf-8"))
    old["sweep_hot/elsewhere/0"] = [0, "", None]  # another slot: not compared under --only
    changed = dict(old)
    changed["mixed_cold/mie_iso_pair/3"] = [2, *old["mixed_cold/mie_iso_pair/3"][1:]]
    changed["mixed_cold/mie_iso_pair/7"] = [0, "report\n", "csv\n"]
    del changed["mixed_cold/mie_iso_pair/11"]
    for path, data in [(tmp_path / "same.json", old), (tmp_path / "changed.json", changed)]:
        path.write_text(json.dumps(data), encoding="utf-8")

    def compare(path):
        run = subprocess.run(
            [*script, str(tmp_path / "new.json"), *only, "--compare", str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        return run.returncode, run.stdout.splitlines()[1:]

    assert compare(tmp_path / "same.json") == (0, [f"0 of 16 variants differ from {tmp_path / 'same.json'}"])
    assert compare(tmp_path / "changed.json") == (
        1,
        [
            "mixed_cold/mie_iso_pair/11: only in the new outputs",
            "mixed_cold/mie_iso_pair/3: differs in exit code",
            "mixed_cold/mie_iso_pair/7: differs in report, csv",
            f"3 of 16 variants differ from {tmp_path / 'changed.json'}",
        ],
    )


def test_variant_outputs_check_references_names_each_failing_variant(tmp_path):
    """``--check-references`` exits 0 when every variant gives its stored
    exit code and CSV, and otherwise exits 1 and names each one that does
    not; it needs no OUT file and leaves the references untouched."""
    references = sorted((ROOT / "perfbench" / "reference").iterdir())
    before = {path: path.read_bytes() for path in references}
    script = ROOT / "scripts" / "variant_outputs.py"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--check-references", "--only", "mixed_cold/mie_iso_pair"]
    # variant 3 writes no CSV and variant 7 exits 3 with its CSV intact
    broken = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("variant_outputs", {str(script)!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
run, calls = tool.harness.run_config, []
def run_config(cli, config, csv):
    calls.append(config)
    code, report = run(cli, config, csv)
    if len(calls) == 4:
        csv.unlink()
    return (3 if len(calls) == 8 else code), report
tool.harness.run_config = run_config
sys.exit(tool.main(sys.argv[1:]))
"""
    runs = [
        subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        for command in ([sys.executable, str(script), *args], [sys.executable, "-c", broken, *args])
    ]
    assert [run.returncode for run in runs] == [0, 1]
    assert runs[0].stdout.splitlines() == ["0 of 16 variants miss their stored reference"]
    assert runs[1].stdout.splitlines() == [
        "mixed_cold/mie_iso_pair/3: misses its reference in csv",
        "mixed_cold/mie_iso_pair/7: misses its reference in exit code",
        "2 of 16 variants miss their stored reference",
    ]
    assert sorted((ROOT / "perfbench" / "reference").iterdir()) == references
    assert all(path.read_bytes() == data for path, data in before.items())


def test_variant_outputs_records_a_probe_that_check_references_does_not_judge(tmp_path):
    """A config in ``scripts/probes/`` is recorded as ``probe/<name>`` beside
    the stored variants.  It has no stored reference, so
    ``--check-references`` judges the variants alone."""
    out = tmp_path / "outputs.json"
    script = [sys.executable, str(ROOT / "scripts" / "variant_outputs.py"), str(out), "--check-references"]
    only = ["--only", "mixed_cold/mie_iso_pair", "probe/bragg_silicon"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([*script, *only], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0
    assert run.stdout.splitlines()[-1] == "0 of 16 variants miss their stored reference"
    got = json.loads(out.read_text(encoding="utf-8"))
    assert set(got) == {"probe/bragg_silicon"} | {f"mixed_cold/mie_iso_pair/{i}" for i in range(16)}
    code, report, csv = got["probe/bragg_silicon"]
    assert code == 0 and csv.startswith("n_periods,")
    assert report.endswith("csv: <tmp>/out.csv (3 rows)\n")


def test_every_probe_config_loads():
    """A probe that exits 2 would compare equal on any two trees and cover nothing."""
    probes = sorted((ROOT / "scripts" / "probes").glob("*.json"))
    assert probes
    for path in probes:
        load_run_config(str(path))


def test_code_lines_counts_code_outside_comments_and_docstrings():
    """``scripts/code_lines.py`` counts a line that holds code, a string that
    is not a docstring among them, and skips blank, comment and docstring lines."""
    count = runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))["count"]
    source = '''"""Module
docstring."""

# a comment
X = 1  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """One line."""
        return """not a
docstring"""
'''
    assert count(source) == (5, 14)
