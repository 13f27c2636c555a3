"""CLI help, usage and argument-error output pinned byte for byte.

Every case runs ``roleforge`` in-process at a terminal width of 80 columns
and compares its standard output, standard error and exit code with the
capture stored in ``tests/data/cli_help.json``.

To capture them afresh (only when a change is meant to alter the output):

    PYTHONPATH=src python tests/test_cli_help.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CAPTURES = REPO / "tests" / "data" / "cli_help.json"
FRAME = "frames/nonmonotonic.frame"
COMMANDS = ("validate", "positions", "rsr", "lattice", "interp", "eval", "entails",
            "nmms", "trace", "check", "compare", "morphism")

CASES = {
    "help": ["--help"],
    "version": ["--version"],
    "no-arguments": [],
    "unknown-command": ["frobnicate", FRAME],
    "help-before-command": ["-h", "entails"],
    "option-before-command": ["--format", "json", "entails", FRAME, "a |- a"],
    **{f"{cmd}-help": [cmd, "--help"] for cmd in COMMANDS},
    "bad-format": ["validate", FRAME, "--format", "xml"],
    "bad-property": ["check", FRAME, "bogus"],
    "missing-positional": ["entails", FRAME],
    "extra-argument": ["entails", FRAME, "a |- a", "surplus"],
    "non-integer-samples": ["check", FRAME, "supralinear", "--samples", "many"],
}


def run_case(argv):
    from roleforge.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_help_is_pinned(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(REPO)
    expected = json.loads(CAPTURES.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name]) == expected


def capture():
    os.environ["COLUMNS"] = "80"
    os.chdir(REPO)
    captures = {name: run_case(argv) for name, argv in CASES.items()}
    CAPTURES.write_text(json.dumps(captures, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    sys.exit(capture())
