"""Fuzzing through the command line.

Every generated invocation of ``cli.main`` must end in exit code 0, 1, 2 or
3 -- argparse's own ``SystemExit(2)`` included -- and never in any other
exception; a JSON report must parse.  The inputs are frame files for set
frames on 1-2 atoms and multiset frames on 1-2 atoms at caps 1-3; formulas,
sequents and position lists over their atoms plus one unknown atom; atom
maps between two such frames; and ``--labels`` files, some of them not JSON
or not UTF-8.  One text argument in ten is arbitrary text over the formula
alphabet.  Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from roleforge.cli import _CHECKS, FORMATS, LATTICE_FORMATS, main
from roleforge.formulas import Atom, Bin, Neg, render, render_sequent
from roleforge.frames import GENERATOR_NAMES

NAMES = ("a", "b")
CLASSICAL_OPS = ("and", "or", "imp")
LINEAR_OPS = ("tensor", "plus", "parr", "with")
UNKNOWN = "z"
NOISE = st.text(alphabet="ab z~()*&+|-/\\>,;", max_size=12)


def _side(names, counts) -> str:
    return ", ".join(name for name, k in zip(names, counts) for _ in range(k))


def positions(names, top):
    """Position text with each atom counted 0..top on each side."""
    n = len(names)
    counts = st.lists(st.integers(0, top), min_size=2 * n, max_size=2 * n)
    return counts.map(lambda c: f"{_side(names, c[:n])} |- {_side(names, c[n:])}".strip())


def mostly(usual, other):
    """``usual`` nine times in ten, else ``other``."""
    return st.integers(0, 9).flatmap(lambda i: other if i == 0 else usual)


def formulas(names, ops):
    """Formulas of up to three leaves whose connectives are mostly ``ops``."""
    atoms = mostly(st.sampled_from(names), st.just(UNKNOWN)).map(Atom)
    connective = mostly(st.sampled_from(ops), st.sampled_from(CLASSICAL_OPS + LINEAR_OPS))
    return st.recursive(
        atoms,
        lambda sub: st.one_of(st.builds(Neg, sub), st.builds(Bin, connective, sub, sub)),
        max_leaves=3,
    )


def noisy(strategy):
    return mostly(strategy, NOISE)


@st.composite
def frames(draw):
    """(atom names, cap or None, frame file text)."""
    names = NAMES[:draw(st.integers(1, 2))]
    multiset = draw(st.booleans())
    cap = draw(st.integers(1, 3)) if multiset else None
    # A multiset count above 2*cap is a parse error.
    top = 2 * cap + draw(mostly(st.just(0), st.just(1))) if multiset else 1
    explicit = draw(st.lists(positions(names, top), max_size=6))
    lines = [f"atoms = {' '.join(names)}", f"mode = {'multiset' if multiset else 'set'}"]
    if multiset:
        lines.append(f"cap = {cap}")
    generators = draw(st.lists(st.sampled_from(GENERATOR_NAMES), max_size=2, unique=True))
    if generators:
        lines.append("generators { " + " ".join(generators) + " }")
    lines += ["incoherent {", *(f"  {p}" for p in explicit), "}"]
    return names, cap, "\n".join(lines) + "\n"


@st.composite
def labels_files(draw, names, top):
    table = draw(st.dictionaries(
        st.one_of(st.sampled_from(["Top", "Unit", "R0", "R3"]), st.text(max_size=3)),
        st.lists(positions(names, top), max_size=6),
        max_size=3,
    ))
    broken = [json.dumps(list(table)).encode(), b"{", b'{"A\xff": []}']
    return draw(mostly(st.just(json.dumps(table).encode()), st.sampled_from(broken)))


@st.composite
def invocations(draw):
    """(argv with FRAME/TARGET/LABELS placeholders, {placeholder: file bytes})."""
    names, cap, frame_text = draw(frames())
    top = 2 * cap if cap else 1
    files = {"FRAME": frame_text.encode()}
    # Classical clauses and contractive unfolding need a set frame.
    clauses = draw(mostly(st.just("linear" if cap else "classical"),
                          st.sampled_from(["classical", "linear"])))
    variant = draw(mostly(st.just("noncontractive" if cap else "contractive"),
                          st.sampled_from(["contractive", "noncontractive"])))
    ops = LINEAR_OPS if clauses == "linear" else CLASSICAL_OPS

    def sequent(ops):
        side = st.lists(formulas(names, ops), max_size=2)
        return noisy(st.tuples(side, side).map(lambda s: render_sequent(tuple(s[0]), tuple(s[1]))))

    def labels():
        if not draw(st.booleans()):
            return []
        files["LABELS"] = draw(labels_files(names, top))
        return ["--labels", "LABELS"]

    def sampling(max_depth):
        return ["--depth", str(draw(st.integers(0, max_depth))),
                "--samples", str(draw(st.integers(0, 20))), "--seed", str(draw(st.integers(0, 3)))]

    command = draw(st.sampled_from(["validate", "positions", "rsr", "lattice", "interp", "eval",
                                    "entails", "nmms", "trace", "check", "compare", "morphism"]))
    formats = LATTICE_FORMATS if command == "lattice" else FORMATS
    argv = [command, "FRAME", "--format", draw(st.sampled_from(formats))]
    if command == "rsr":
        argv.append(draw(noisy(st.lists(positions(names, top), max_size=3).map("; ".join))))
    elif command == "lattice":
        argv += labels()
    elif command in ("interp", "eval"):
        if command == "interp":
            argv.append(draw(mostly(st.sampled_from(names), st.just(UNKNOWN))))
        else:
            argv += [draw(noisy(formulas(names, ops).map(render))), "--clauses", clauses]
        argv += labels()
        if draw(st.booleans()):
            argv.append("--cap-stability")
    elif command == "entails":
        argv += [draw(sequent(ops)), "--clauses", clauses]
    elif command in ("nmms", "trace"):
        argv += [draw(sequent(CLASSICAL_OPS)), "--variant", variant]
    elif command == "check":
        argv += [draw(st.sampled_from(_CHECKS)), *sampling(1)]
    elif command == "compare":
        # compare is exhaustive on these frames: 4-6 s at depth 1 on two atoms.
        argv += sampling(0)
    elif command == "morphism":
        target_names, _, target_text = draw(frames())
        files["TARGET"] = target_text.encode()
        pairs = draw(st.lists(st.tuples(st.sampled_from(names + (UNKNOWN,)),
                                        st.sampled_from(target_names)), max_size=3))
        argv[1:2] = ["FRAME", "TARGET", ",".join(f"{s}->{t}" for s, t in pairs)]
        argv += ["--kind", draw(st.sampled_from(["conservative", "continuous", "both"]))]
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocations())
def test_cli_exits_with_a_documented_code(workdir, invocation):
    argv, files = invocation
    for placeholder, data in files.items():
        (workdir / placeholder).write_bytes(data)
    argv = [str(workdir / a) if a in files else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
    if code != 2 and argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue())
