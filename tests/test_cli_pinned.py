"""CLI output pinned byte for byte.

Every case runs ``roleforge`` in-process from the repository root and
compares its standard output and exit code with the capture stored under
``tests/data/cli_pinned/``.  The captures pin role order, ``R<i>`` labels,
table layout and JSON for the commands that read the role lattice.

To capture them afresh (only when a change is meant to alter the output):

    PYTHONPATH=src python tests/test_cli_pinned.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data" / "cli_pinned"
EXIT_CODES = DATA / "exit_codes.json"

NONMONOTONIC = "frames/nonmonotonic.frame"
NONTRANSITIVE = "frames/nontransitive.frame"
CONTAINMENT3 = "tests/data/containment3.frame"
# 68 roles: above check_gq_laws' exhaustive limit, so the laws are sampled.
CONTAINMENT3_SAMPLED = "tests/data/containment3_sampled.frame"

# (frame, atom, classical formula or None on multiset frames, linear formula)
FRAMES = (
    ("nonmonotonic", NONMONOTONIC, "a", "a /\\ (b \\/ ~a)", "~a * b | (a & ~b)"),
    ("nontransitive", NONTRANSITIVE, "x", None, "x * ~x | (x + x)"),
    ("containment3", CONTAINMENT3, "b", "(a -> b) /\\ ~c", "(a * b) + ~c & a"),
)


def _cases():
    cases = []
    for name, path, atom, classical, linear in FRAMES:
        for fmt in ("plain", "markdown", "csv", "json", "dot"):
            cases.append((f"{name}-lattice-{fmt}", ["lattice", path, "--format", fmt]))
        for fmt in ("plain", "json"):
            cases.append((f"{name}-interp-{fmt}", ["interp", path, atom, "--format", fmt]))
            if classical is not None:
                cases.append((f"{name}-eval-classical-{fmt}",
                              ["eval", path, classical, "--format", fmt]))
            cases.append((f"{name}-eval-linear-{fmt}",
                          ["eval", path, linear, "--clauses", "linear", "--format", fmt]))
            cases.append((f"{name}-gq-laws-{fmt}", ["check", path, "gq-laws", "--format", fmt]))
    for fmt in ("plain", "json"):
        cases.append((f"containment3_sampled-gq-laws-{fmt}",
                      ["check", CONTAINMENT3_SAMPLED, "gq-laws", "--format", fmt]))
    return cases


CASES = _cases()


def run_case(argv):
    from roleforge.cli import main
    from roleforge.semantics import interpretation

    interpretation.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_is_pinned(name, argv, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out = run_case(argv)
    expected = (DATA / f"{name}.out").read_bytes()
    assert out.encode("utf-8") == expected
    assert code == json.loads(EXIT_CODES.read_text())[name]


def capture():
    os.chdir(REPO)
    DATA.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in CASES:
        code, out = run_case(argv)
        (DATA / f"{name}.out").write_bytes(out.encode("utf-8"))
        codes[name] = code
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(capture())
