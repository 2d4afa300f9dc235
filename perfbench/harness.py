"""Shared pieces of the benchmark: locating the program and running one config."""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# ROADMAP's golden-guard tolerance for numeric CSV cells.
RTOL = 1e-12


class SourceMissing(Exception):
    """The checkout holds no phonoscat sources to benchmark."""


def import_cli():
    """Import ``phonoscat.cli`` from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "phonoscat"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no phonoscat package under {SRC}")
    # The bundled materials database is part of the workload definition.
    os.environ.pop("PHONOSCAT_MATERIALS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import phonoscat.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"phonoscat was imported from {cli.__file__}, not {package}")
    return cli


def run_config(cli, config_path: Path, csv_path: Path) -> tuple[int, str]:
    """Run one config through the public CLI entry point; return (exit code, stdout + stderr)."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            code = cli.main(["run", str(config_path), "--out", str(csv_path)])
        except Exception:
            # A traceback is a failed config, not a crashed benchmark.
            traceback.print_exc()
            code = 1
    return code, sink.getvalue()


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(g) and math.isfinite(w)):
        return False
    return abs(g - w) <= RTOL * abs(w)


def csv_matches(got: str | None, want: str) -> bool:
    """True when two CSV texts have the same shape, equal text cells and numeric cells within RTOL."""
    if got is None:
        return False
    rows_got = list(csv.reader(io.StringIO(got)))
    rows_want = list(csv.reader(io.StringIO(want)))
    if len(rows_got) != len(rows_want):
        return False
    for rg, rw in zip(rows_got, rows_want):
        if len(rg) != len(rw) or not all(_cell_matches(g, w) for g, w in zip(rg, rw)):
            return False
    return True
