"""Every ``python -m repro …`` command the docs and CI quote still parses.

A renamed flag or subcommand would leave README recipes, EXPERIMENTS
reproductions and CI steps that fail on first use.  These checks are
pure: each command goes through ``build_parser()`` and nothing runs;
a quoted ``--inject-faults`` value also goes through the fault grammar.
"""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser
from repro.engine.faults import FaultPlan
from repro.errors import SweepConfigError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)
_START = re.compile(r"python -m repro\b")
#: Tokens that end the command (pipes, redirects, chaining).
_SHELL = re.compile(r"^(\||\|\||&&?|;|[0-9]?>>?|<)")


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Join shell ``\\`` continuations and YAML folded option lines."""
    lines = text.splitlines()
    joined: list[tuple[int, str]] = []
    index = 0
    while index < len(lines):
        number, line = index + 1, lines[index]
        while index + 1 < len(lines) and (
            line.rstrip().endswith("\\")
            or (
                _START.search(line)
                and lines[index + 1].strip().startswith("-")
                and not lines[index + 1].strip().startswith("- ")
            )
        ):
            index += 1
            line = line.rstrip().rstrip("\\") + " " + lines[index].strip()
        joined.append((number, line))
        index += 1
    return joined


def _argv(command: str) -> list[str]:
    """The arguments after ``python -m repro``, shell syntax stripped."""
    command = command.split("`", 1)[0]  # inline code ends at a backtick
    command = re.sub(r"\s#.*$", "", command)  # trailing comment
    argv: list[str] = []
    for token in shlex.split(command):
        if _SHELL.match(token):
            break
        argv.append(token.rstrip(")"))  # closes a $( ... )
    return argv


def _doc_commands() -> list[tuple[str, list[str]]]:
    found = []
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text()
        for number, line in _logical_lines(text):
            match = _START.search(line)
            if match:
                argv = _argv(line[match.end():])
                found.append((f"{doc}:{number}", argv))
    return found


_COMMANDS = _doc_commands()


def test_every_doc_quotes_commands():
    quoted = {where.split(":")[0] for where, _ in _COMMANDS}
    assert quoted == set(DOCS)


@pytest.mark.parametrize(
    "argv", [argv for _, argv in _COMMANDS],
    ids=[where for where, _ in _COMMANDS],
)
def test_doc_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as done:  # --help exits 0; a parse error exits 2
        assert done.code == 0, argv


def test_doc_fault_plans_parse():
    plans = [
        (where, build_parser().parse_args(argv).inject_faults)
        for where, argv in _COMMANDS
        if "--inject-faults" in argv
    ]
    assert plans
    for where, text in plans:
        try:
            FaultPlan.parse(text)
        except SweepConfigError as error:
            pytest.fail(f"{where}: {error}")
