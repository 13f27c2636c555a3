import argparse
import contextlib
import importlib
import io
import json
import re
import time

import pytest

from roleforge.cli import COMMANDS, _build_parser, main
from roleforge.formulas import Atom, render_sequent
from roleforge.nmms import FormulaSequent, decide

from conftest import FRAMES_DIR, REPO, seeded
from test_lazy_roles import random_formula

GOLDEN = str(FRAMES_DIR / "nonmonotonic.frame")
COUNTING = str(FRAMES_DIR / "nontransitive.frame")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", GOLDEN)
    assert code == 0
    assert "mode = set" in out and "window = 16" in out and "containment = True" in out


def test_validate_json_schema(capsys):
    code, out, _ = run(capsys, "validate", GOLDEN, "--format", "json")
    payload = json.loads(out)
    assert payload["kind"] == "check"
    assert set(payload) == {"kind", "frame", "result", "witnesses", "meta"}
    assert {"versions", "seed", "cap"} <= set(payload["meta"])


def test_positions_order(capsys):
    code, out, _ = run(capsys, "positions", GOLDEN)
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 16
    assert lines[0] == "|-" and lines[1] == "a |-" and lines[2] == "b |-"


def test_rsr_command(capsys):
    code, out, _ = run(capsys, "rsr", GOLDEN, "a |-")
    assert code == 0
    rendered = {p.strip() for p in out.strip().strip("{}").split(";")}
    excluded = {"|-", "a |-", "|- b", "a |- b"}
    assert rendered.isdisjoint(excluded)
    assert len(rendered) == 12 and "a |- a" in rendered


def test_rsr_takes_no_cap_stability_option(capsys):
    """rsr of window positions cannot change at a wider cap (see
    test_rsr.py::test_multiset_rsr_does_not_change_at_a_wider_cap)."""
    with pytest.raises(SystemExit) as exit_info:
        main(["rsr", COUNTING, "|- x", "--cap-stability"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --cap-stability\n")


def test_lattice_plain_and_determinism(capsys):
    code, out1, _ = run(capsys, "lattice", GOLDEN)
    code2, out2, _ = run(capsys, "lattice", GOLDEN)
    assert code == code2 == 0
    assert out1 == out2
    assert "6 roles" in out1 and "join" in out1 and "tensor" in out1


def test_lattice_markdown_csv_json_dot(capsys):
    _, md, _ = run(capsys, "lattice", GOLDEN, "--format", "markdown")
    assert "| join |" in md
    _, csv_text, _ = run(capsys, "lattice", GOLDEN, "--format", "csv")
    assert csv_text.splitlines()[-1].count(",") == 6
    _, js, _ = run(capsys, "lattice", GOLDEN, "--format", "json")
    payload = json.loads(js)
    assert len(payload["result"]["roles"]) == 6
    assert payload["result"]["unit"] != payload["result"]["dualizer"]
    _, dot, _ = run(capsys, "lattice", GOLDEN, "--format", "dot")
    assert dot.startswith("digraph") and "->" in dot


def test_lattice_labels(capsys, tmp_path):
    # alias the dualizer role by its extension
    _, js, _ = run(capsys, "lattice", GOLDEN, "--format", "json")
    payload = json.loads(js)
    dualizer_alias = payload["result"]["dualizer"]
    extension = next(
        r["positions"] for r in payload["result"]["roles"] if r["alias"] == dualizer_alias
    )
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"Incoherent": extension}))
    _, out, _ = run(capsys, "lattice", GOLDEN, "--labels", str(labels), "--format", "json")
    relabeled = json.loads(out)
    assert relabeled["result"]["dualizer"] == "Incoherent"
    # relabeling never changes table structure
    assert [
        [cell == dualizer_alias for cell in row] for row in payload["result"]["tensor_table"]
    ] == [
        [cell == "Incoherent" for cell in row] for row in relabeled["result"]["tensor_table"]
    ]


def test_interp_and_eval(capsys):
    code, out, _ = run(capsys, "interp", GOLDEN, "a")
    assert code == 0 and "premisory" in out and "conclusory" in out
    code, out, _ = run(capsys, "eval", GOLDEN, "a /\\ b")
    assert code == 0
    code, out, _ = run(capsys, "eval", COUNTING, "~x | x", "--clauses", "linear", "--cap-stability")
    assert code == 0 and "no changes" in out


def test_entails_exit_codes(capsys):
    assert run(capsys, "entails", GOLDEN, "a |- a, b")[0] == 0
    assert run(capsys, "entails", GOLDEN, "b |- a")[0] == 1
    assert run(capsys, "entails", GOLDEN, "")[0] == 1  # unit not below dualizer
    assert run(capsys, "entails", COUNTING, "x, ~x | x |- x", "--clauses", "linear")[0] == 0


def test_nmms_and_trace(capsys):
    assert run(capsys, "nmms", GOLDEN, "a, b |- a /\\ b")[0] == 0
    assert run(capsys, "nmms", GOLDEN, "b |- a")[0] == 1
    code, out, _ = run(capsys, "trace", GOLDEN, "a, b |- a /\\ b", "--format", "json")
    payload = json.loads(out)
    assert payload["result"]["rule"] == "andRc"
    code, out, _ = run(capsys, "trace", GOLDEN, "~(a /\\ b) |-")
    assert code == 1 and "negL" in out


def test_trace_shows_out_of_range_leaf(capsys):
    """A leaf above 2*cap is shown, not raised, when a failing leaf settles
    the verdict; trace then answers as nmms does."""
    many = " /\\ ".join(["x"] * 17)
    argv = (COUNTING, f"{many} \\/ x |-", "--variant", "noncontractive")
    assert run(capsys, "nmms", *argv)[0] == 1
    code, out, _ = run(capsys, "trace", *argv)
    assert code == 1 and "(out of range)" in out and "x |-  (FAIL)" in out
    code, out, _ = run(capsys, "trace", *argv, "--format", "json")
    children = json.loads(out)["result"]["children"]
    assert code == 1 and [c["verdict"] for c in children] == [None, False]


def _containment_frame(tmp_path, n: int) -> str:
    names = " ".join(f"a{i}" for i in range(n))
    path = tmp_path / f"c{n}.frame"
    path.write_text(f"atoms = {names}\nmode = set\ngenerators {{ containment }}\n"
                    "incoherent {\n  a0 |- a1\n}\n")
    return str(path)


def _recording_loads(monkeypatch) -> list:
    """Every frame the CLI loads from now on, in load order."""
    cli = importlib.import_module("roleforge.cli")
    original, loaded = cli._load_frame, []

    def load(path):
        loaded.append(original(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_frame", load)
    return loaded


@pytest.mark.parametrize("sequent, clauses, cap, message", [
    ("x |- x", "classical", 61, "classical clauses require a set-mode frame"),
    ("x |- x /\\ x", "linear", 62, "not part of the linear clause set"),
])
def test_entails_clause_error_builds_no_kernel(capsys, tmp_path, monkeypatch,
                                               sequent, clauses, cap, message):
    """Each case has its own cap: interpretations are shared between equal frames."""
    cli = importlib.import_module("roleforge.cli")
    loaded = _recording_loads(monkeypatch)
    path = tmp_path / "wide.frame"
    path.write_text(f"atoms = x\nmode = multiset\ncap = {cap}\n"
                    "generators { diagonal }\nincoherent {\n  x, x |- x\n}\n")
    code, out, err = run(capsys, "entails", str(path), sequent, "--clauses", clauses)
    assert (code, out) == (2, "") and message in err
    (frame,) = loaded
    assert frame._rsr_cache is None
    assert cli.interpretation(frame).frame._rsr_cache is None


@pytest.mark.parametrize("n", [8, 10, 16])
def test_classical_entails_builds_no_window_or_kernel(capsys, tmp_path, monkeypatch, n):
    """Classical formula sequents are decided on NMMS leaf families, so
    entails answers past the kernel's 7 set-mode atoms and the window's 10,
    as nmms does."""
    cli = importlib.import_module("roleforge.cli")
    loaded = _recording_loads(monkeypatch)
    names = [f"a{i}" for i in range(n)]
    path = _containment_frame(tmp_path, n)
    rng = seeded(n)
    sequents = [((), ()), ((Atom("a0"),), (Atom("a1"),)), ((Atom("a1"),), (Atom("a0"),))]
    for _ in range(20):
        sequents.append(tuple(
            tuple(random_formula(rng, names, 3, ("and", "or", "imp"))
                  for _ in range(rng.randint(0, 2)))
            for _side in range(2)))
    verdicts = set()
    for lhs, rhs in sequents:
        code, out, _ = run(capsys, "entails", path, render_sequent(lhs, rhs))
        want = decide(loaded[-1], FormulaSequent(lhs, rhs, "contractive"))
        assert (code, out) == (0 if want else 1, f"{str(want).lower()}\n"), (lhs, rhs)
        verdicts.add(want)
    assert verdicts == {True, False}
    for frame in loaded + [cli.interpretation(loaded[0]).frame]:
        assert frame._window is None and frame._rsr_cache is None


@pytest.mark.parametrize("argv", [
    ["interp", COUNTING, "x", "--cap-stability"],
    ["eval", COUNTING, "x * ~x", "--clauses", "linear", "--cap-stability"],
])
def test_cap_stability_builds_one_wide_frame(capsys, monkeypatch, argv):
    cli = importlib.import_module("roleforge.cli")
    original, caps = cli.Frame.with_cap, []

    def with_cap(frame, cap):
        caps.append(cap)
        return original(frame, cap)

    monkeypatch.setattr(cli.Frame, "with_cap", with_cap)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "no changes" in out
    assert caps == [10]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_main_loads_each_frame_once(capsys, monkeypatch, command):
    """Handlers get the frame from main; only morphism loads its own two."""
    cli = importlib.import_module("roleforge.cli")
    original, loaded = cli._load_frame, []

    def load(path):
        loaded.append(path)
        return original(path)

    monkeypatch.setattr(cli, "_load_frame", load)
    argv = {
        "rsr": [GOLDEN, "a |-"], "interp": [GOLDEN, "a"], "eval": [GOLDEN, "a"],
        "entails": [GOLDEN, "a |- a"], "nmms": [GOLDEN, "a |- a"], "trace": [GOLDEN, "a |- a"],
        "check": [GOLDEN, "reflexive"], "compare": [GOLDEN, "--depth", "0"],
        "morphism": [GOLDEN, GOLDEN, "a->a,b->b"],
    }.get(command, [GOLDEN])
    code, out, _ = run(capsys, command, *argv, "--format", "json")
    assert code in (0, 1)
    assert loaded == ([GOLDEN, GOLDEN] if command == "morphism" else [GOLDEN])
    payload = json.loads(out)
    assert payload["frame"] == " -> ".join(loaded)
    assert payload["meta"]["cap"] is None


def test_check_commands(capsys):
    assert run(capsys, "check", GOLDEN, "reflexive")[0] == 0
    assert run(capsys, "check", GOLDEN, "containment")[0] == 0
    assert run(capsys, "check", GOLDEN, "gq-laws")[0] == 0
    assert run(capsys, "check", GOLDEN, "conservativity")[0] == 0
    assert run(capsys, "check", GOLDEN, "clause-agreement")[0] == 0
    assert run(capsys, "check", COUNTING, "cap-stability")[0] == 0
    code, out, _ = run(capsys, "check", GOLDEN, "supraclassical", "--samples", "300")
    assert code == 0
    code, out, _ = run(capsys, "check", GOLDEN, "supralinear", "--samples", "150", "--depth", "1")
    assert code == 0


def test_check_failure_exit_code(capsys, tmp_path):
    bare = tmp_path / "bare.frame"
    bare.write_text("atoms = a\nmode = set\nincoherent { }\n")
    code, out, _ = run(capsys, "check", str(bare), "containment")
    assert code == 3
    assert "not containment" in out


def test_compare(capsys, tmp_path):
    one = tmp_path / "one.frame"
    one.write_text("atoms = a\nmode = set\ngenerators { containment }\nincoherent { }\n")
    code, out, _ = run(capsys, "compare", str(one), "--depth", "1")
    assert code == 0
    assert "checked 961" in out


def test_compare_depth_zero_atomic(capsys):
    code, out, _ = run(capsys, "compare", GOLDEN, "--depth", "0")
    assert code == 0
    assert "checked 49" in out  # (1 + 2 + 4)^2 atomic sequents


def test_compare_rejects_linear_clauses(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["compare", GOLDEN, "--clauses", "linear"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --clauses linear" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--variant", "contractive"], ["--clauses", "classical"]])
def test_compare_takes_no_variant_or_clauses(capsys, option):
    """compare pairs contractive NMMS with classical clauses only, so it
    offers no option to choose either."""
    with pytest.raises(SystemExit) as exit_:
        main(["compare", GOLDEN, "--depth", "0", *option])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# A valid invocation of every command but lattice, after the command name.
VALID_ARGS = {
    "validate": [GOLDEN], "positions": [GOLDEN], "rsr": [GOLDEN, "a |-"],
    "interp": [GOLDEN, "a"], "eval": [GOLDEN, "a"], "entails": [GOLDEN, "a |- a"],
    "nmms": [GOLDEN, "a |- a"], "trace": [GOLDEN, "a |- a"],
    "check": [GOLDEN, "reflexive"], "compare": [GOLDEN, "--depth", "0"],
    "morphism": [GOLDEN, GOLDEN, "a->a,b->b"],
}


@pytest.mark.parametrize("fmt", ["markdown", "csv", "dot"])
@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "lattice"])
def test_table_formats_are_lattice_only(capsys, command, fmt):
    """Only lattice's tables read markdown, csv and dot; every other
    command would print its plain lines under them."""
    assert set(VALID_ARGS) | {"lattice"} == set(COMMANDS)
    with pytest.raises(SystemExit) as exit_:
        main([command, *VALID_ARGS[command], "--format", fmt])
    assert exit_.value.code == 2
    assert "argument --format: invalid choice" in capsys.readouterr().err


def test_morphism_command(capsys, tmp_path):
    one = tmp_path / "one.frame"
    one.write_text(
        "atoms = a\nmode = set\nincoherent {\n  |- a\n  a |- a\n}\n"
    )
    code, out, _ = run(capsys, "morphism", GOLDEN, str(one), "a->a,b->a")
    assert code == 1
    assert "not conservative" in out
    code, out, _ = run(capsys, "morphism", GOLDEN, GOLDEN, "a->a,b->b")
    assert code == 0
    assert "conservative" in out and "continuous" in out


def test_morphism_refuses_an_atom_mapped_twice(capsys):
    code, out, err = run(capsys, "morphism", GOLDEN, GOLDEN, "a->a,a->b,b->b",
                         "--kind", "conservative")
    assert (code, out) == (2, "")
    assert err == "roleforge: error: atom 'a' is mapped twice\n"


def test_usage_errors(capsys):
    assert run(capsys, "entails", "/nonexistent.frame", "a |- a")[0] == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["definitely-not-a-command"])
    assert exit_info.value.code == 2


def test_parse_error_is_usage_error(capsys, tmp_path):
    broken = tmp_path / "broken.frame"
    broken.write_text("atoms = a\nmode = set\nincoherent {\n a |- q\n}\n")
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert "unknown atom" in err


def test_entails_formula_error(capsys):
    code, _, err = run(capsys, "entails", GOLDEN, "a |- (b")
    assert code == 2


@pytest.mark.parametrize("command", ["entails", "nmms", "trace"])
def test_unknown_atom_in_sequent_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, GOLDEN, "c |- a")
    assert (code, out) == (2, "")
    assert err == "roleforge: error: unknown atom 'c'\n"


def test_window_limits_are_usage_errors(capsys, tmp_path):
    eleven = tmp_path / "eleven.frame"
    eleven.write_text("atoms = a b c d e f g h i j k\nmode = set\nincoherent { }\n")
    code, out, err = run(capsys, "positions", str(eleven))
    assert (code, out) == (2, "")
    assert "window too large" in err
    for names in ("a b c d e f g h", "a b c d e f g h i"):
        big = tmp_path / f"{len(names.split())}.frame"
        big.write_text(f"atoms = {names}\nmode = set\nincoherent {{ }}\n")
        code, out, err = run(capsys, "rsr", str(big), "a |-")
        assert (code, out) == (2, "")
        assert "too large for principal blockers" in err


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("argv", [
    ["lattice"], ["interp", "a0"], ["eval", "a0"],
    ["entails", "a0 |- a0", "--clauses", "linear"],
    ["check", "conservativity"], ["check", "gq-laws"],
], ids=["lattice", "interp", "eval", "entails-linear", "conservativity", "gq-laws"])
def test_kernel_commands_refuse_oversized_frames_before_the_window(
        capsys, tmp_path, monkeypatch, argv, n):
    """Past 7 set-mode atoms the kernel refuses the frame, and it does so
    before any window is built."""
    loaded = _recording_loads(monkeypatch)
    path = _containment_frame(tmp_path, n)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert "too large for principal blockers" in err
    cli = importlib.import_module("roleforge.cli")
    for frame in loaded + [cli.interpretation(loaded[0]).frame]:
        assert frame._window is None


@pytest.mark.parametrize("n", [10, 16])
@pytest.mark.parametrize("generators, verdict, witness", [
    ("containment", True, None),
    ("diagonal", False, "a0, a1 |- a0"),
])
def test_containment_is_decided_without_the_window(
        capsys, tmp_path, monkeypatch, n, generators, verdict, witness):
    """Set-mode containment reads position codes, so check containment
    and validate answer at every set-mode size."""
    loaded = _recording_loads(monkeypatch)
    path = tmp_path / f"{generators}{n}.frame"
    path.write_text(f"atoms = {' '.join(f'a{i}' for i in range(n))}\nmode = set\n"
                    f"generators {{ {generators} }}\nincoherent {{\n  a0 |- a1\n}}\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path), "containment", "--format", "json")
    assert json.loads(out)["result"] == {"containment": verdict, "witness": witness}
    assert code == (0 if verdict else 3)
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["result"]["containment"] is verdict
    assert time.perf_counter() - start < 1
    assert [f._window for f in loaded] == [None, None]


@pytest.mark.parametrize("kind", ["continuous", "both"])
def test_continuity_refuses_an_oversized_source_before_the_window(
        capsys, tmp_path, monkeypatch, kind):
    loaded = _recording_loads(monkeypatch)
    source = _containment_frame(tmp_path, 8)
    mapping = ",".join(f"a{i}->a" for i in range(8))
    start = time.perf_counter()
    code, out, err = run(capsys, "morphism", source, GOLDEN, mapping, "--kind", kind)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "too large for principal blockers" in err
    assert [f._window for f in loaded] == [None, None]


@pytest.mark.parametrize("text, message", [
    ("a |- |- b", "expected exactly one '|-' in position 'a |- |- b'"),
    ("a |- b; a, , b |-", "empty atom between commas in position ' a, , b |-'"),
])
def test_rsr_position_errors_name_the_position_not_a_line(capsys, text, message):
    code, out, err = run(capsys, "rsr", GOLDEN, text)
    assert (code, out, err) == (2, "", f"roleforge: error: {message}\n")


def test_labels_file_positions_use_the_frame_reader(capsys, tmp_path):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"Bad": ["a |- |- b"]}))
    code, out, err = run(capsys, "interp", GOLDEN, "a", "--labels", str(labels))
    assert (code, out) == (2, "")
    assert err == "roleforge: error: expected exactly one '|-' in position 'a |- |- b'\n"


@pytest.mark.parametrize("table", [{"X": [1]}, ["a |-"], {"X": "a |-"}],
                         ids=["non-string-position", "list-not-object", "string-not-list"])
def test_labels_file_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path, table):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(table))
    code, out, err = run(capsys, "interp", GOLDEN, "a", "--labels", str(labels))
    assert (code, out) == (2, "")
    assert err == (f"roleforge: error: labels file {labels}: expected a JSON object "
                   "mapping each alias to a list of position strings\n")


def test_conservativity_on_a_five_atom_frame(capsys, tmp_path):
    """1024 atom-level sequents, each tensoring role contents over the
    1024-position window."""
    code, out, _ = run(capsys, "check", _containment_frame(tmp_path, 5), "conservativity",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"conservativity": {"checked": 1024, "violations": []}}


def test_rsr_rejects_a_repeated_atom_in_a_set_mode_position(capsys):
    code, out, err = run(capsys, "rsr", GOLDEN, "a, a |- b")
    assert (code, out) == (2, "")
    assert err == "roleforge: error: repeated atom on one side in set mode: 'a, a |- b'\n"


def test_morphism_into_a_relation_too_large_to_compile(capsys, tmp_path):
    """Morphism checks read the target's compiled relation: 4^13 codes at
    13 set-mode atoms, above the limit, fail before compiling."""
    names = " ".join(f"a{i}" for i in range(13))
    big = tmp_path / "thirteen.frame"
    big.write_text(f"atoms = {names}\nmode = set\ngenerators {{ containment }}\nincoherent {{ }}\n")
    for kind in ("conservative", "continuous"):
        code, out, err = run(capsys, "morphism", GOLDEN, str(big), "a->a0,b->a1", "--kind", kind)
        assert (code, out) == (2, "")
        assert "too large to compile" in err


@pytest.mark.parametrize("argv,message", [
    (["check", GOLDEN, "supralinear", "--samples", "-5"], "argument --samples: must be at least 1, got -5"),
    (["check", GOLDEN, "supraclassical", "--samples", "0"], "argument --samples: must be at least 1, got 0"),
    (["check", GOLDEN, "supralinear", "--depth", "-1"], "argument --depth: must be at least 0, got -1"),
    (["compare", GOLDEN, "--depth", "-1"], "argument --depth: must be at least 0, got -1"),
    (["compare", GOLDEN, "--samples", "0"], "argument --samples: must be at least 1, got 0"),
])
def test_vacuous_suite_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: roleforge {argv[0]} ")
    assert captured.err.endswith(f"roleforge {argv[0]}: error: {message}\n")


def _subparsers(parser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(COMMANDS))
def test_named_command_builds_one_subparser(command):
    assert list(_subparsers(_build_parser([command, GOLDEN]))) == [command]


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["frobnicate"], ["-h", "entails"]])
def test_unnamed_command_builds_every_subparser(argv):
    assert list(_subparsers(_build_parser(argv))) == list(COMMANDS)


# Arguments after the command name; every command also gets NARROWING_COMMON.
NARROWING_COMMON = ([], ["--help"], ["--format", "xml"], ["--bogus"], [GOLDEN, "--format"])
NARROWING_CASES = {
    "validate": [[GOLDEN], [GOLDEN, "--format", "json"], [GOLDEN, "surplus"]],
    "positions": [[GOLDEN, "--format", "csv"], [GOLDEN, "--labels", "l.json"]],
    "rsr": [[GOLDEN, "a |-", "--format", "json"], [GOLDEN]],
    "lattice": [[GOLDEN, "--labels", "l.json", "--format", "dot"], [GOLDEN, "--labels"]],
    "interp": [[GOLDEN, "a", "--labels", "l.json", "--cap-stability"], [GOLDEN, "a", "b"]],
    "eval": [[GOLDEN, "a", "--clauses", "linear", "--labels", "l.json"],
             [GOLDEN, "a", "--clauses", "modal"]],
    "entails": [[GOLDEN, "a |- a", "--clauses", "linear"],
                [GOLDEN, "a |- a", "--variant", "contractive"]],
    "nmms": [[GOLDEN, "a |- a", "--variant", "noncontractive"], [GOLDEN, "a |- a", "--variant", "x"]],
    "trace": [[GOLDEN, "a |- a", "--format", "json"], [GOLDEN, "--variant", "contractive"]],
    "check": [[GOLDEN, "supralinear", "--seed", "3", "--depth", "0", "--samples", "1"],
              [GOLDEN, "bogus"], [GOLDEN, "gq-laws", "--samples", "0"],
              [GOLDEN, "gq-laws", "--depth", "-1"], [GOLDEN, "gq-laws", "--seed", "x"],
              [GOLDEN, "gq-laws", "--samples", "many"]],
    "compare": [[GOLDEN, "--depth", "0", "--clauses", "linear"], [GOLDEN, "--variant", "noncontractive"],
                [GOLDEN, "--samples", "-5"], [GOLDEN, "--depth", "2", "--seed", "7"]],
    "morphism": [[GOLDEN, GOLDEN, "a->a", "--kind", "continuous"], [GOLDEN, GOLDEN],
                 [GOLDEN, GOLDEN, "a->a", "--kind", "neither"]],
}


def _parse_outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_narrowed_parser_matches_full_parser(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _build_parser([])
    for rest in NARROWING_COMMON + tuple(NARROWING_CASES[command]):
        argv = [command, *rest]
        assert _parse_outcome(_build_parser(argv), argv) == _parse_outcome(full, argv), argv


def test_readme_synopsis_lists_each_commands_options():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented: dict[str, str] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("roleforge "):
            command = line.split()[1]
            documented[command] = line
        else:
            documented[command] += line
    assert list(documented) == list(COMMANDS)
    for command, text in documented.items():
        declared = {opt: a for a in _subparsers(_build_parser([command]))[command]._actions
                    for opt in a.option_strings if opt not in ("-h", "--help")}
        shown = dict(re.findall(r"\[(--[a-z-]+)(?: ([^\]]+))?\]", text))
        assert set(shown) == set(declared), command
        for opt, value in shown.items():
            choices = declared[opt].choices
            if choices and opt != "--format":
                assert value == "|".join(choices), (command, opt)
