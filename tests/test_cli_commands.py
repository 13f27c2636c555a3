"""Every command's output pinned byte for byte.

Every case runs ``roleforge`` in-process from the repository root, at a
terminal width of 80 columns, and compares its standard output, standard
error and exit code with the capture stored in
``tests/data/cli_commands.json``.  The cases cover each command in plain and
JSON form, ``interp`` and ``eval --cap-stability`` on multiset frames (a
changed extension included), a morphism verdict truncated at the target's
range, and usage errors (exit 2): those a handler raises, and one from
argparse.
``tests/test_cli_pinned.py`` pins the commands that read the role lattice,
``tests/test_cli_help.py`` help and argument errors.

To capture them afresh (only when a change is meant to alter the output):

    PYTHONPATH=src python tests/test_cli_commands.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CAPTURES = REPO / "tests" / "data" / "cli_commands.json"

NONMONOTONIC = "frames/nonmonotonic.frame"
NONTRANSITIVE = "frames/nontransitive.frame"
CONTAINMENT3 = "tests/data/containment3.frame"
LABELS = "tests/data/nonmonotonic_labels.json"
MISSING = "tests/data/missing.frame"
# One atom at cap 1 whose conclusory role loses x |- x at cap 3.
STABILITY_CHANGED = "tests/data/stability_changed.frame"
# x, y -> z at cap 2 into a target where every encodable position is
# incoherent: image sums leave the target's range.
MERGE_SOURCE = "tests/data/merge_source.frame"
MERGE_TARGET = "tests/data/merge_target.frame"

# name -> argv; each runs once in plain form and once with --format json.
COMMANDS = {
    "validate-nonmonotonic": ["validate", NONMONOTONIC],
    "validate-nontransitive": ["validate", NONTRANSITIVE],
    "validate-containment3": ["validate", CONTAINMENT3],
    "positions-nonmonotonic": ["positions", NONMONOTONIC],
    "positions-nontransitive": ["positions", NONTRANSITIVE],
    "rsr-nonmonotonic": ["rsr", NONMONOTONIC, "a |-"],
    "rsr-containment3": ["rsr", CONTAINMENT3, "a |- b; |- c"],
    "rsr-nontransitive": ["rsr", NONTRANSITIVE, "|- x"],
    "rsr-nontransitive-two-sided": ["rsr", NONTRANSITIVE, "x |- x"],
    # Its rsr holds positions on the edge of the cap-8 window (a count of 8).
    "rsr-nontransitive-window-edge": ["rsr", NONTRANSITIVE, "x, x, x, x, x, x, x |-"],
    "lattice-labels": ["lattice", NONMONOTONIC, "--labels", LABELS],
    "interp-labels": ["interp", NONMONOTONIC, "a", "--labels", LABELS],
    "eval-labels": ["eval", NONMONOTONIC, "a /\\ ~a", "--labels", LABELS],
    "interp-nontransitive-stability": ["interp", NONTRANSITIVE, "x", "--cap-stability"],
    "interp-nonmonotonic-stability": ["interp", NONMONOTONIC, "b", "--cap-stability"],
    "interp-stability-changed": ["interp", STABILITY_CHANGED, "x", "--cap-stability"],
    "eval-nontransitive-stability": [
        "eval", NONTRANSITIVE, "x * ~x | (x + x)", "--clauses", "linear", "--cap-stability"],
    "eval-nontransitive-stability-tensor": [
        "eval", NONTRANSITIVE, "x * x * x * x", "--clauses", "linear", "--cap-stability"],
    "entails-true": ["entails", NONMONOTONIC, "a |- a, b"],
    "entails-false": ["entails", NONMONOTONIC, "b |- a"],
    "entails-empty": ["entails", NONMONOTONIC, ""],
    "entails-linear": ["entails", NONTRANSITIVE, "x, ~x | x |- x", "--clauses", "linear"],
    "entails-containment3": ["entails", CONTAINMENT3, "a -> b, a |- b \\/ c"],
    "nmms-true": ["nmms", NONMONOTONIC, "a, b |- a /\\ b"],
    "nmms-false": ["nmms", NONMONOTONIC, "b |- a"],
    "nmms-noncontractive": [
        "nmms", NONTRANSITIVE, "x /\\ x |- x \\/ ~x", "--variant", "noncontractive"],
    "trace-true": ["trace", NONMONOTONIC, "a, b |- a /\\ b"],
    "trace-false": ["trace", NONMONOTONIC, "~(a /\\ b) |- a \\/ b"],
    "trace-implication": ["trace", CONTAINMENT3, "a -> b, ~c |- ~(a /\\ ~b) /\\ c"],
    "trace-noncontractive": [
        "trace", NONTRANSITIVE, "x /\\ ~x |- x \\/ x", "--variant", "noncontractive"],
    "trace-out-of-range": [
        "trace", NONTRANSITIVE, " /\\ ".join(["x"] * 17) + " \\/ x |-",
        "--variant", "noncontractive"],
    "check-gq-laws": ["check", NONMONOTONIC, "gq-laws"],
    "check-gq-laws-violated": ["check", NONTRANSITIVE, "gq-laws"],
    "check-reflexive": ["check", NONMONOTONIC, "reflexive"],
    "check-reflexive-nontransitive": ["check", NONTRANSITIVE, "reflexive"],
    "check-containment": ["check", CONTAINMENT3, "containment"],
    "check-conservativity": ["check", NONMONOTONIC, "conservativity"],
    "check-supraclassical": ["check", NONMONOTONIC, "supraclassical", "--samples", "300"],
    "check-supraclassical-containment3": [
        "check", CONTAINMENT3, "supraclassical", "--samples", "200", "--depth", "1",
        "--seed", "5"],
    "check-supralinear": ["check", NONTRANSITIVE, "supralinear", "--samples", "150",
                          "--depth", "1"],
    "check-clause-agreement": ["check", NONMONOTONIC, "clause-agreement"],
    "check-cap-stability": ["check", NONTRANSITIVE, "cap-stability"],
    "compare-depth-0": ["compare", NONMONOTONIC, "--depth", "0"],
    "compare-containment3": ["compare", CONTAINMENT3, "--samples", "200", "--seed", "3"],
    "morphism-identity": ["morphism", NONMONOTONIC, NONMONOTONIC, "a->a,b->b"],
    "morphism-collapse": ["morphism", NONMONOTONIC, NONMONOTONIC, "a->a,b->a"],
    "morphism-conservative": ["morphism", NONMONOTONIC, CONTAINMENT3, "a->a,b->b",
                              "--kind", "conservative"],
    "morphism-continuous": ["morphism", CONTAINMENT3, CONTAINMENT3, "a->a,b->b,c->c",
                            "--kind", "continuous"],
    "morphism-merge-truncated": ["morphism", MERGE_SOURCE, MERGE_TARGET, "x->z,y->z"],
    # Usage errors raised after parsing: exit 2, nothing on stdout.
    "error-unknown-atom-interp": ["interp", NONMONOTONIC, "z"],
    "error-unknown-atom-eval": ["eval", NONMONOTONIC, "a /\\ z"],
    "error-unknown-atom-rsr": ["rsr", NONMONOTONIC, "z |-"],
    "error-unknown-atom-nmms": ["nmms", NONMONOTONIC, "z |- a"],
    "error-unknown-atom-trace": ["trace", NONMONOTONIC, "a |- z"],
    "error-classical-multiset-eval": ["eval", NONTRANSITIVE, "x /\\ x"],
    "error-classical-multiset-entails": ["entails", NONTRANSITIVE, "x |- x"],
    # compare has no --clauses option: an argparse error, exit 2.
    "error-compare-linear": ["compare", NONMONOTONIC, "--clauses", "linear"],
    "error-cap-stability-set": ["check", NONMONOTONIC, "cap-stability"],
    "error-containment-multiset": ["check", NONTRANSITIVE, "containment"],
    "error-missing-frame": ["validate", MISSING],
    "error-missing-frame-check": ["check", MISSING, "gq-laws"],
    "error-missing-morphism-target": ["morphism", NONMONOTONIC, MISSING, "a->a"],
    "error-morphism-modes": ["morphism", NONMONOTONIC, NONTRANSITIVE, "a->x,b->x"],
    "error-morphism-mapping": ["morphism", NONMONOTONIC, NONMONOTONIC, "a=>a"],
    "error-missing-labels": ["interp", NONMONOTONIC, "a", "--labels", MISSING],
    "error-unknown-atom-before-labels": ["interp", NONMONOTONIC, "z", "--labels", MISSING],
    "error-formula-syntax": ["eval", NONMONOTONIC, "a /\\"],
    "error-position-syntax": ["rsr", NONMONOTONIC, "a |- |- b"],
}

CASES = {
    f"{name}-{fmt}": argv + (["--format", "json"] if fmt == "json" else [])
    for name, argv in COMMANDS.items()
    for fmt in ("plain", "json")
}


def run_case(argv):
    from roleforge.cli import main
    from roleforge.semantics import interpretation

    interpretation.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_command_is_pinned(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(REPO)
    expected = json.loads(CAPTURES.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name]) == expected


def test_captures_cover_every_command():
    from roleforge.cli import COMMANDS as TABLE

    assert {argv[0] for argv in COMMANDS.values()} == set(TABLE)
    assert set(json.loads(CAPTURES.read_text(encoding="utf-8"))) == set(CASES)


def capture():
    os.environ["COLUMNS"] = "80"
    os.chdir(REPO)
    captures = {name: run_case(argv) for name, argv in CASES.items()}
    CAPTURES.write_text(json.dumps(captures, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    sys.exit(capture())
