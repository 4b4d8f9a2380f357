"""Shared infrastructure for the performance benches.

The benches here time the simulator kernel and the campaign engine;
paper results and their shape checks live in ``dozznoc repro-all`` and
its claims (:mod:`repro.experiments.claims`).  Reports go to
``benchmarks/out/<name>.txt``; ``REPRO_BENCH_QUICK=1`` selects the
smaller bench profile.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.exists() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


@pytest.fixture(scope="session")
def report_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def artifact_out() -> Path:
    """The repo-root ``out/`` tree bench datapoints share with repro-all.

    Overridable with ``REPRO_BENCH_ARTIFACT_OUT`` so CI can point bench
    artifacts at the same directory a ``repro-all`` job populated.
    """
    return Path(
        os.environ.get("REPRO_BENCH_ARTIFACT_OUT", BENCH_DIR.parent / "out")
    )


def write_report(report_dir: Path, name: str, text: str) -> None:
    """Write (and echo) one experiment's report."""
    path = report_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report written to {path}]")
