"""Golden guard: the quick-mode study tables must not move.

``tests/golden/`` holds the CSVs of ``scripts/run_sweeps.py --quick``.  Each
fresh table must have the golden header and row count, equal text cells and
numeric cells within a relative 1e-12.  The studies run cold, from an
empty angular-table memo, and a second time warm, on the tables the first
run left (the brute-force oracle's among them); the warm CSVs must be
byte-identical to the cold ones.  A change that really moves the
numbers regenerates the golden files in a change of its own that says why;
the tolerance is never loosened to let one through.  ``--only`` is checked
here too: a named study writes its one table, and an unknown name exits 2.
"""

import csv
import math
import runpy
from pathlib import Path

import pytest

import phonoscat.elastodynamics as elastodynamics

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-12

run_sweeps = runpy.run_path(str(ROOT / "scripts" / "run_sweeps.py"))
STUDIES = sorted(run_sweeps["studies"](quick=True))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The quick studies run twice in this process: cold, from an empty
    angular-table memo, then warm, reading what the cold run left."""
    dirs, built = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elastodynamics, "_TABLES", {})
        for run in ("cold", "warm"):
            dirs[run] = tmp_path_factory.mktemp(f"quick_studies_{run}")
            assert run_sweeps["main"](["--quick", "--outdir", str(dirs[run])]) == 0
            built[run] = set(elastodynamics._TABLES)
    assert built["warm"] == built["cold"]  # the warm run built no table
    assert {key[2:] for key in built["cold"]} >= {(16, 32), ("oracle",)}  # engine and oracle tables
    return dirs


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def cell_matches(got, want):
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(w) and abs(g - w) <= RTOL * abs(w)


def test_every_study_has_a_golden_table():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == STUDIES


def assert_matches_golden(path, study):
    got = read_rows(path)
    want = read_rows(GOLDEN / f"{study}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (row_got, row_want) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row_got) == len(row_want), f"row {i}"
        bad = [(g, w) for g, w in zip(row_got, row_want) if not cell_matches(g, w)]
        assert bad == [], f"row {i}: (got, golden) {bad}"


@pytest.mark.parametrize("study", STUDIES)
def test_quick_study_matches_golden(runs, study):
    assert_matches_golden(runs["cold"] / f"{study}.csv", study)


@pytest.mark.parametrize("study", STUDIES)
def test_warm_tables_write_the_same_bytes(runs, study):
    assert (runs["warm"] / f"{study}.csv").read_bytes() == (runs["cold"] / f"{study}.csv").read_bytes()


def test_only_runs_the_named_study(tmp_path):
    assert run_sweeps["main"](["--only", "bragg_mirror", "--quick", "--outdir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.glob("*.csv")] == ["bragg_mirror.csv"]
    assert_matches_golden(tmp_path / "bragg_mirror.csv", "bragg_mirror")


def test_only_rejects_an_unknown_study(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_sweeps["main"](["--only", "no_such_study", "--quick", "--outdir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unknown study names ['no_such_study']" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []
