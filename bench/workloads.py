"""Seeded inputs and op streams for the benchmark's workloads.

A workload's set-up builds everything from the seed: the frames and queries
and, for ``warm_set``, the prepared frames.  The op stream comes as rounds.
Every round has the same fixed list of op templates (command, frame shape,
size); the seed picks the frame contents, queries and maps.  A run measures
whole rounds, so every run has the same op mix whatever its length.

Each op carries its timed ``run`` and an untimed ``check`` that compares the
answer with a reference (see ``refs.py``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import refs

NAMES = "abcdefgh"
CLASSICAL_OPS = ("and", "or", "imp")
LINEAR_OPS = ("tensor", "plus", "parr", "with")
NMMS_OPS = ("and", "or")

# Rounds generated per cold run.  A run that outgrows them starts over from
# the first round; the ops stay cold, because each one parses its frame from
# its file and the interpretation cache is cleared before it.
COLD_ROUNDS = 24

# The atom ladder: one cold ``entails`` per rung, n = 2 .. LADDER_TOP atoms,
# each under the same deadline.
LADDER_TOP = 7
LADDER_DEADLINE_S = 2.0


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    cold: bool = True
    files: tuple = ()  # (path, text) pairs written just before the op


class Raised(Exception):
    """The CLI reported an error (exit 2) on a query the benchmark built valid."""


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """``roleforge`` in-process with output captured; returns (exit, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code == 2:
        message = err.getvalue().strip()
        raise Raised(message.splitlines()[-1] if message else "exit 2")
    return code, out.getvalue()


def cli_op(rf, kind: str, label: str, argv: list[str], check, files=()) -> Op:
    """An op running ``roleforge <argv>``; ``check(code, stdout)``."""
    return Op(kind, label, lambda: run_cli(rf.cli.main, argv),
              lambda outcome: check(*outcome), files=tuple(files))


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def random_formula(rf, rng, names, depth: int, ops):
    F = rf.formulas
    if depth == 0 or rng.random() < 0.3:
        return F.Atom(rng.choice(names))
    if rng.random() < 0.25:
        return F.Neg(random_formula(rf, rng, names, depth - 1, ops))
    return F.Bin(rng.choice(ops), random_formula(rf, rng, names, depth - 1, ops),
                 random_formula(rf, rng, names, depth - 1, ops))


def random_sequent(rf, rng, names, ops, depth: int = 2):
    """Up to two formulas a side; a quarter of the sequents are atomic."""
    F = rf.formulas
    if rng.random() < 0.25:
        make = lambda: F.Atom(rng.choice(names))
    else:
        make = lambda: random_formula(rf, rng, names, depth, ops)
    lhs = tuple(make() for _ in range(rng.randint(0, 2)))
    rhs = tuple(make() for _ in range(rng.randint(0, 2)))
    return lhs, rhs


class FrameMaker:
    """Distinct seeded frames (no serialized text repeats) and their ops.

    ``path`` assigns a frame one of a few reused file paths; ``op`` attaches
    the frames assigned since the last op to the new op, whose files are
    written just before it runs.  Creating hundreds of files during set-up
    would make set-up time a measure of the filesystem."""

    def __init__(self, rf, rng: random.Random, workdir: Path):
        self.rf = rf
        self.rng = rng
        self.workdir = workdir
        self.seen: set[str] = set()
        self._pools: dict = {}
        self._pending: list[tuple[Path, str]] = []

    def _pool(self, names, mode, cap):
        """The positions a frame may declare explicitly: those its generator
        does not already make incoherent."""
        key = (names, mode, cap)
        if key not in self._pools:
            base = self.rf.frames.Frame(names, mode, cap=cap)
            if mode == "set":
                pool = [p for p in base.window() if not p.has_overlap()]
            else:
                pool = [p for p in base.window() if p.left != p.right]
            self._pools[key] = pool
        return self._pools[key]

    def _distinct(self, names, mode, cap, generator, k: tuple[int, int], extra):
        pool = self._pool(names, mode, cap)
        for _ in range(200):
            chosen = self.rng.sample(pool, self.rng.randint(*k))
            frame = self.rf.frames.Frame(names, mode, cap=cap,
                                         explicit=list(chosen) + list(extra),
                                         generators=(generator,))
            text = self.rf.frames.serialize_frame(frame)
            if text not in self.seen:
                self.seen.add(text)
                return frame, text
        raise RuntimeError(f"no new distinct {mode} frame over {names} in 200 draws")

    def containment(self, names, k: tuple[int, int], extra=()):
        return self._distinct(tuple(names), "set", None, "containment", k, extra)

    def diagonal(self, names, cap: int, k: tuple[int, int], extra=()):
        return self._distinct(tuple(names), "multiset", cap, "diagonal", k, extra)

    def path(self, text: str) -> str:
        path = self.workdir / f"slot{len(self._pending)}.frame"
        self._pending.append((path, text))
        return str(path)

    def op(self, kind: str, label: str, argv: list[str], check) -> Op:
        files, self._pending = self._pending, []
        return cli_op(self.rf, kind, label, argv, check, files)


def verdict_is(expected: bool):
    """Check for a golden answer read from the CLI's JSON output."""
    def check(code, out):
        verdict = json.loads(out)["result"]["verdict"]
        if verdict != expected or code != (0 if expected else 1):
            return f"golden answer {expected}, got {verdict} (exit {code})"
        return None
    return check


# ---------------------------------------------------------------------------
# cold_set
# ---------------------------------------------------------------------------

SET3 = NAMES[:3]
SET2 = NAMES[:2]
K3 = (3, 3)  # explicit positions on 3-atom frames: lattices of 10^2-10^3 roles
K2 = (1, 6)


def golden_set_ops(rf, root: Path) -> list[Op]:
    """README answers for the bundled two-atom frame."""
    path = str(root / "frames" / "nonmonotonic.frame")

    def lattice_check(code, out):
        result = json.loads(out)["result"]
        shape = (len(result["roles"]), result["unit"], result["dualizer"], result["bottom"])
        if shape != (6, "R1", "R4", "R5"):
            return f"golden lattice 6 roles (unit R1, dualizer R4, bottom R5), got {shape}"
        return None

    return [
        cli_op(rf, "entails", "golden |- a", ["entails", path, "|- a", "--format", "json"],
               verdict_is(True)),
        cli_op(rf, "entails", "golden b |- a", ["entails", path, "b |- a", "--format", "json"],
               verdict_is(False)),
        cli_op(rf, "lattice", "golden lattice", ["lattice", path, "--format", "json"],
               lattice_check),
        cli_op(rf, "trace", "golden trace", ["trace", path, "~(a /\\ b) |-", "--format", "json"],
               verdict_is(False)),
    ]


def setup_cold_set(rf, seed: int, workdir: Path, root: Path) -> list[list[Op]]:
    rng = rng_for(seed, "cold_set")
    maker = FrameMaker(rf, rng, workdir)
    parse = rf.frames.parse_frame
    render = rf.formulas.render

    def sequent_op(kind, names, k):
        _, text = maker.containment(names, k)
        path = maker.path(text)
        lhs, rhs = random_sequent(rf, rng, names, CLASSICAL_OPS)
        seq = rf.formulas.render_sequent(lhs, rhs)
        if kind == "entails":
            check = lambda code, out: refs.check_entails(
                rf, parse(text), lhs, rhs, "classical", code, out)
        else:
            check = lambda code, out: refs.check_nmms(
                rf, parse(text), lhs, rhs, True, code, out)
        return maker.op(kind, f"{kind} n={len(names)} {seq!r}",
                        [kind, path, seq, "--format", "json"], check)

    def eval_op():
        _, text = maker.containment(SET3, K3)
        path = maker.path(text)
        formula = render(random_formula(rf, rng, SET3, 2, CLASSICAL_OPS))
        return maker.op("eval", f"eval n=3 {formula!r}",
                        ["eval", path, formula, "--format", "json"],
                        lambda code, out: refs.check_content(rf, parse(text), code, out))

    def rsr_op():
        frame, text = maker.containment(SET3, K3)
        path = maker.path(text)
        members = rng.sample(frame.window(), rng.randint(1, 3))
        spec = "; ".join(p.render(frame.atoms) for p in members)
        return maker.op("rsr", f"rsr n=3 {spec!r}", ["rsr", path, spec, "--format", "json"],
                        lambda code, out: refs.check_rsr(rf, parse(text), spec, code, out))

    def conservativity_op():
        _, text = maker.containment(SET3, K3)
        path = maker.path(text)
        return maker.op("conservativity", "check conservativity n=3",
                        ["check", path, "conservativity", "--format", "json"],
                        lambda code, out: refs.check_suite_ok("conservativity", code, out, 64))

    def lattice_op():
        _, text = maker.containment(SET2, K2)
        path = maker.path(text)
        return maker.op("lattice", "lattice n=2", ["lattice", path, "--format", "json"],
                        lambda code, out: refs.check_lattice(rf, parse(text), code, out))

    def gq_laws_op():
        _, text = maker.containment(SET2, K2)
        path = maker.path(text)
        return maker.op("gq-laws", "check gq-laws n=2",
                        ["check", path, "gq-laws", "--format", "json"], refs.check_gq_laws)

    def morphism_op(merge: bool):
        """A map from a two-atom frame that preserves incoherence (the target
        declares every image of an explicit source position), so continuity
        is decided in full.  A merging map sends both atoms to one."""
        source, s_text = maker.containment(SET2, K2)
        t_names = ("p", "q") if merge else ("p", "q", "r")
        mapping = {"a": "p", "b": "p"} if merge else {"a": "p", "b": "q"}
        probe = rf.frames.Frame(t_names, "set")
        images = [q for q in (refs.image(mapping, source, probe, p) for p in source.explicit)
                  if not q.has_overlap()]
        _, t_text = maker.containment(t_names, (0, 3), extra=images)
        s_path, t_path = maker.path(s_text), maker.path(t_text)
        spec = ",".join(f"{a}->{b}" for a, b in mapping.items())
        return maker.op("morphism", f"morphism set {spec}",
                        ["morphism", s_path, t_path, spec, "--format", "json"],
                        lambda code, out: refs.check_morphism(
                            rf, parse(s_text), parse(t_text), mapping, code, out))

    rounds = []
    for r in range(COLD_ROUNDS):
        # Ten ops that prepare a 3-atom frame (the bulk of the time) and six
        # light ones, so the median falls inside the preparation cluster.
        ops = [sequent_op("entails", SET3, K3) for _ in range(4)]
        for _ in range(2):
            ops += [eval_op(), rsr_op(), conservativity_op()]
        ops += [sequent_op("entails", SET2, K2), sequent_op("nmms", SET3, K3),
                sequent_op("trace", SET3, K3), morphism_op(merge=r % 2 == 1),
                lattice_op(), gq_laws_op()]
        rounds.append(ops)
    rounds[0] = golden_set_ops(rf, root) + rounds[0]
    return rounds


# ---------------------------------------------------------------------------
# cold_multiset
# ---------------------------------------------------------------------------

X = ("x",)
XY = ("x", "y")
KM = (1, 4)


def golden_multiset_ops(rf, root: Path) -> list[Op]:
    """README answers for the bundled one-atom multiset frame."""
    path = str(root / "frames" / "nontransitive.frame")
    return [cli_op(rf, "entails", f"golden {seq}",
                   ["entails", path, seq, "--clauses", "linear", "--format", "json"],
                   verdict_is(expected))
            for seq, expected in (("|- x", True), ("x |- x, x", True), ("|- x, x", False))]


def setup_cold_multiset(rf, seed: int, workdir: Path, root: Path) -> list[list[Op]]:
    rng = rng_for(seed, "cold_multiset")
    maker = FrameMaker(rf, rng, workdir)
    parse = rf.frames.parse_frame

    def entails_op(names, cap):
        _, text = maker.diagonal(names, cap, KM)
        path = maker.path(text)
        lhs, rhs = random_sequent(rf, rng, names, LINEAR_OPS)
        seq = rf.formulas.render_sequent(lhs, rhs)
        return maker.op(
            "entails", f"entails linear {len(names)} atoms cap {cap} {seq!r}",
            ["entails", path, seq, "--clauses", "linear", "--format", "json"],
            lambda code, out: refs.check_entails(rf, parse(text), lhs, rhs, "linear",
                                                 code, out))

    def eval_op(names, cap, stability: bool):
        _, text = maker.diagonal(names, cap, KM)
        path = maker.path(text)
        formula = rf.formulas.render(random_formula(rf, rng, names, 2, LINEAR_OPS))
        flags = ["--cap-stability"] if stability else []
        return maker.op(
            "eval", f"eval {' '.join(flags)} {len(names)} atoms cap {cap} {formula!r}",
            ["eval", path, formula, "--clauses", "linear", *flags, "--format", "json"],
            lambda code, out: refs.check_content(rf, parse(text), code, out))

    def conservativity_op(names, cap):
        frame, text = maker.diagonal(names, cap, KM)
        path = maker.path(text)
        positions = frame.window_cardinality()
        return maker.op(
            "conservativity", f"check conservativity {len(names)} atoms cap {cap}",
            ["check", path, "conservativity", "--format", "json"],
            lambda code, out: refs.check_suite_ok("conservativity", code, out, positions))

    def nmms_op(names, cap):
        _, text = maker.diagonal(names, cap, KM)
        path = maker.path(text)
        lhs, rhs = random_sequent(rf, rng, names, NMMS_OPS, depth=1)
        seq = rf.formulas.render_sequent(lhs, rhs)
        return maker.op(
            "nmms", f"nmms noncontractive {len(names)} atoms cap {cap} {seq!r}",
            ["nmms", path, seq, "--variant", "noncontractive", "--format", "json"],
            lambda code, out: refs.check_nmms(rf, parse(text), lhs, rhs, False, code, out))

    def interp_op(names, cap):
        _, text = maker.diagonal(names, cap, KM)
        path = maker.path(text)
        atom = rng.choice(names)
        return maker.op(
            "interp", f"interp {atom} {len(names)} atoms cap {cap}",
            ["interp", path, atom, "--format", "json"],
            lambda code, out: refs.check_content(
                rf, parse(text), code, out, refs.atom_content_reference(rf, parse(text), atom)))

    def morphism_op(names, cap, mapping):
        """An equal-cap map that preserves incoherence (the target declares
        every image of an explicit source position)."""
        source, s_text = maker.diagonal(names, cap, KM)
        probe = rf.frames.Frame(("z",), "multiset", cap=cap)
        images = [q for q in (refs.image(mapping, source, probe, p) for p in source.explicit)
                  if q.left != q.right]
        _, t_text = maker.diagonal(("z",), cap, (0, 2), extra=images)
        s_path, t_path = maker.path(s_text), maker.path(t_text)
        spec = ",".join(f"{a}->{b}" for a, b in mapping.items())
        return maker.op(
            "morphism", f"morphism multiset cap {cap} {spec}",
            ["morphism", s_path, t_path, spec, "--format", "json"],
            lambda code, out: refs.check_morphism(rf, parse(s_text), parse(t_text), mapping,
                                                  code, out))

    rounds = []
    for _ in range(COLD_ROUNDS):
        # One-atom frames at caps 10-16: a large window, few roles.  The five
        # that prepare a frame cost about the same, so the tail falls inside
        # their cluster.
        ops = [entails_op(X, 13), eval_op(X, 10, True), conservativity_op(X, 13),
               interp_op(X, 13), interp_op(X, 13), nmms_op(X, 16)]
        # Two-atom frames at cap 2, and small-cap maps, merging ones included.
        ops += [entails_op(XY, 2), entails_op(XY, 2), eval_op(XY, 2, False),
                conservativity_op(XY, 2), interp_op(XY, 2), nmms_op(XY, 2),
                morphism_op(XY, 2, {"x": "z", "y": "z"}),
                morphism_op(X, 3, {"x": "z"}), morphism_op(X, 4, {"x": "z"})]
        rounds.append(ops)
    rounds[0] = golden_multiset_ops(rf, root) + rounds[0]
    return rounds


# ---------------------------------------------------------------------------
# warm_set
# ---------------------------------------------------------------------------

WARM_FRAMES = 8
# Formulas per frame: an even spread over the depth-2 classical pool in its
# generation order, the same for every seed.  The content and tensor memos
# fill early in a run, so a run's figures do not depend on how many ops it
# got through; and every seed queries formulas of the same shapes, so the
# cost of NMMS unfolding does not depend on which formulas a seed drew.
WARM_FORMULAS = 120


@dataclass
class Prepared:
    label: str
    frame: object
    interp: object
    formulas: list


def setup_warm_set(rf, seed: int, workdir: Path, root: Path) -> list[Prepared]:
    """The bundled frame plus three-atom containment frames, each parsed from
    its file and prepared (roles and quantale) once.

    The frames' shapes are fixed and the seed relabels their atoms, so every
    seed prepares lattices of the same sizes: seeded lattices of 64 to 444
    roles made the memo-fill ops, and with them the tail, depend on the seed."""
    shapes = FrameMaker(rf, rng_for(0, "warm_set shapes"), workdir)
    rng = rng_for(seed, "warm_set")
    F = rf.frames
    paths = [("nonmonotonic.frame", root / "frames" / "nonmonotonic.frame")]
    for i in range(WARM_FRAMES):
        shape, _ = shapes.containment(SET3, K3)
        relabel = dict(zip(SET3, rng.sample(SET3, len(SET3))))

        def names(counts):
            return [relabel[a] for a, c in zip(SET3, counts) if c]

        explicit = [F.Position.of(shape.atoms, names(p.left), names(p.right))
                    for p in shape.explicit]
        frame = F.Frame(SET3, "set", explicit=explicit, generators=("containment",))
        path = workdir / f"warm{i}.frame"
        path.write_text(F.serialize_frame(frame), encoding="utf-8")
        paths.append((f"frame {i}", path))
    prepared = []
    pools = {}
    for label, path in paths:
        frame = rf.frames.parse_frame(path.read_text(encoding="utf-8"))
        names = frame.atoms.names
        if names not in pools:
            pools[names] = rf.suites.formula_pool(names, 2)
        pool = pools[names]
        formulas = pool[::len(pool) // WARM_FORMULAS][:WARM_FORMULAS]
        prepared.append(Prepared(label, frame, rf.semantics.Interpretation(frame), formulas))
    return prepared


def warm_op(rf, p: Prepared, lhs, rhs, golden: Optional[bool] = None) -> Op:
    """One sequent decided by NMMS unfolding and by semantic consequence."""
    sequent = rf.nmms.FormulaSequent(lhs, rhs, "contractive")

    def run():
        return (rf.nmms.decide(p.frame, sequent),
                p.interp.entails(lhs, rhs, "classical"))

    def check(outcome):
        syntactic, semantic = outcome
        if syntactic != semantic:
            return f"nmms.decide {syntactic}, entails {semantic}"
        if golden is not None and semantic != golden:
            return f"golden answer {golden}, got {semantic}"
        if rf.oracles.classical_valid(p.frame.atoms.names, (lhs, rhs)) and not semantic:
            return "classically valid sequent not entailed"
        return None

    seq = rf.formulas.render_sequent(lhs, rhs)
    return Op("compare", f"{p.label}: {seq!r}", run, check, cold=False)


def warm_rounds(rf, prepared: list[Prepared], seed: int) -> Iterator[list[Op]]:
    """Golden sequents on the bundled frame, then one depth-2 pool sequent
    per prepared frame per round."""
    rng = rng_for(seed, "warm_set sequents")
    F = rf.formulas
    golden = [((), (F.Atom("a"),), True), ((F.Atom("b"),), (F.Atom("a"),), False)]
    yield [warm_op(rf, prepared[0], lhs, rhs, want) for lhs, rhs, want in golden]
    while True:
        ops = []
        for p in prepared:
            lhs = tuple(rng.choice(p.formulas) for _ in range(rng.randint(0, 2)))
            rhs = tuple(rng.choice(p.formulas) for _ in range(rng.randint(0, 2)))
            ops.append(warm_op(rf, p, lhs, rhs))
        yield ops


# ---------------------------------------------------------------------------
# The atom ladder
# ---------------------------------------------------------------------------


def ladder_frames(seed: int, workdir: Path) -> list[tuple[int, str]]:
    """One containment frame per rung with one seeded explicit position."""
    rng = rng_for(seed, "ladder")
    out = []
    for n in range(2, LADDER_TOP + 1):
        names = NAMES[:n]
        left = [a for a in names if rng.random() < 0.3]
        right = [a for a in names if a not in left and rng.random() < 0.3]
        explicit = f"{', '.join(left)} |- {', '.join(right)}".strip()
        text = (f"atoms = {' '.join(names)}\nmode = set\n"
                f"generators {{ containment }}\nincoherent {{\n  {explicit}\n}}\n")
        path = workdir / f"ladder{n}.frame"
        path.write_text(text, encoding="utf-8")
        out.append((n, str(path)))
    return out


WORKLOADS = {
    "cold_set": setup_cold_set,
    "warm_set": setup_warm_set,
    "cold_multiset": setup_cold_multiset,
}


def rounds_for(rf, workload: str, state, seed: int) -> Iterator[list[Op]]:
    if workload == "warm_set":
        return warm_rounds(rf, state, seed)
    return itertools.cycle(state)
