"""Doc-rot guard: every CLI command the docs and CI spell out must exist.

Scans each line that begins with ``dozznoc `` or ``python -m repro ``
(optionally after ``PYTHONPATH=src`` or a one-line CI ``run:``) and
asserts its first word is a subcommand :func:`repro.cli.build_parser`
accepts, so retiring a command fails here until every mention of it is
rewritten.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

#: Where commands are documented (globs relative to the repo root).
DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/*.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
)

#: A command line and its first word; placeholders such as ``<cmd>`` and
#: Python lines such as ``dozznoc = run_simulation(...)`` do not match.
_COMMAND = re.compile(
    r"^\s*(?:run:\s*)?(?:PYTHONPATH=src\s+)?"
    r"(?:dozznoc|python -m repro(?:\.cli)?)\s+([A-Za-z][\w-]*)"
)


def _subcommands() -> set[str]:
    (action,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return set(action.choices)


def _command_lines() -> list[tuple[str, str]]:
    """``(path:line, first word)`` for every documented command line."""
    found = []
    for pattern in DOCUMENTS:
        for path in sorted(ROOT.glob(pattern)):
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, 1):
                match = _COMMAND.match(line)
                if match:
                    where = f"{path.relative_to(ROOT)}:{lineno}"
                    found.append((where, match.group(1)))
    return found


def test_documented_commands_parse():
    lines = _command_lines()
    assert len(lines) > 50, "the scan found almost no commands"
    subcommands = _subcommands()
    unknown = [f"{where}: {word}" for where, word in lines
               if word not in subcommands]
    assert not unknown, (
        "documented commands the CLI no longer accepts:\n"
        + "\n".join(unknown)
    )


def test_pattern_matches_every_documented_form():
    forms = {
        "dozznoc repro-all --only fig5": "repro-all",
        "  PYTHONPATH=src python -m repro list   # smoke": "list",
        "PYTHONPATH=src python -m repro.cli serve --store r.db": "serve",
        "        run: dozznoc telemetry a b": "telemetry",
    }
    for line, word in forms.items():
        assert _COMMAND.match(line).group(1) == word, line
    for line in ("dozznoc = run_simulation(config)", "python -m repro <cmd>",
                 "see `dozznoc figure` below"):
        assert _COMMAND.match(line) is None, line
