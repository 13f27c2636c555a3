"""Command-line surface.

Subcommands cover frame validation, window listing, rsr queries, lattice and
operation-table reports, atom/formula interpretation, entailment and NMMS
queries with traces, property suites, engine comparison, and morphism checks.

Exit codes: 0 success or true verdict; 1 false verdict on a query; 2 usage or
parse errors; 3 property-suite failures.  Reports are deterministic for fixed
inputs and seed.

A new command goes in the ``COMMANDS`` table: its handler, help text and a
function adding its arguments.  Each call parses with a parser holding only
the subparser its first argument names.

A handler takes ``(args, frame)`` and returns its exit code and ``Report``.
``main`` loads the frame named by ``args.frame`` (``morphism`` loads its two
frames itself and gets None), turns a usage error into exit 2, and fills the
report's ``frame`` and ``meta`` (``cap``, ``seed``) before rendering it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import __version__
from .formulas import FormulaSyntaxError, parse_formula, parse_sequent, render
from .frames import Frame, FrameError, Position, parse_frame
from .morphisms import FrameMorphism, check_conservative, check_continuous
from .nmms import FormulaSequent, decide, reduction_trace
from .quantale import QuantaleOps, check_gq_laws, is_join_idempotent
from .rsr import PositionSet, kernel_window, rsr
from .semantics import Content, interpretation
from .suites import (
    cap_stability_suite, clause_agreement_suite, compare_suite, conservativity_suite,
    positions_within, robbins_suite, supraclassical_suite, supralinear_suite,
)

FORMATS = ("plain", "json")
# markdown, csv and dot change only lattice's tables.
LATTICE_FORMATS = ("plain", "markdown", "csv", "json", "dot")

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_SUITE = 3


@dataclass
class Report:
    """A command's answer.  Handlers fill kind, result, lines, witnesses and
    any meta of their own; ``main`` fills frame, ``meta.cap`` and ``meta.seed``."""

    kind: str
    result: object
    lines: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    frame: str = ""

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {
                "kind": self.kind,
                "frame": self.frame,
                "result": self.result,
                "witnesses": self.witnesses,
                "meta": {"versions": {"roleforge": __version__}, **self.meta},
            }
            return json.dumps(payload, sort_keys=True, indent=2)
        return "\n".join(self.lines)


def _load_frame(path: str) -> Frame:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_frame(fh.read())


class _Labels:
    """Extension-stable display aliases for roles.

    A role without an alias is labeled ``R<i>`` by its rank in the role
    lattice, which is enumerated the first time such a label is needed."""

    def __init__(self, frame: Frame, q: QuantaleOps, labels_path: Optional[str]):
        self.frame = frame
        self.quantale = q
        self.by_mask: dict[int, str] = {}
        if labels_path:
            with open(labels_path, "r", encoding="utf-8") as fh:
                table = json.load(fh)
            if not (isinstance(table, dict) and all(
                isinstance(texts, list) and all(isinstance(t, str) for t in texts)
                for texts in table.values()
            )):
                raise FrameError(
                    f"labels file {labels_path}: expected a JSON object mapping "
                    "each alias to a list of position strings"
                )
            for alias, position_texts in table.items():
                ps = PositionSet.from_positions(
                    frame, [frame.parse_position(t) for t in position_texts]
                )
                self.by_mask[ps.mask] = alias

    def alias(self, role) -> str:
        mask = role.mask if hasattr(role, "mask") else role
        hit = self.by_mask.get(mask)
        if hit is not None:
            return hit
        return f"R{self.quantale.lattice.index_of(mask)}"


def _positions_text(frame: Frame, ps) -> str:
    return "{" + "; ".join(p.render(frame.atoms) for p in ps.positions()) + "}"


def _table_lines(fmt: str, title: str, headers: list[str], rows: list[list[str]]) -> list[str]:
    if fmt == "markdown":
        out = [f"| {title} | " + " | ".join(headers) + " |"]
        out.append("|" + " --- |" * (len(headers) + 1))
        for name, row in zip(headers, rows):
            out.append(f"| {name} | " + " | ".join(row) + " |")
        return out
    if fmt == "csv":
        out = [",".join([title] + headers)]
        for name, row in zip(headers, rows):
            out.append(",".join([name] + row))
        return out
    widths = [max(len(title), max((len(h) for h in headers), default=0))]
    for col in range(len(headers)):
        widths.append(max(len(headers[col]), max((len(r[col]) for r in rows), default=0)))
    out = ["  ".join([title.ljust(widths[0])] + [h.ljust(w) for h, w in zip(headers, widths[1:])])]
    for name, row in zip(headers, rows):
        out.append("  ".join([name.ljust(widths[0])] + [c.ljust(w) for c, w in zip(row, widths[1:])]))
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _verdict(ok: bool, report: Report, fail: int = EXIT_FALSE) -> tuple[int, Report]:
    return (EXIT_OK if ok else fail), report


def _cmd_validate(args, frame: Frame) -> tuple[int, Report]:
    result = {
        "atoms": list(frame.atoms.names),
        "mode": frame.mode,
        "cap": frame.cap,
        "explicit": len(frame.explicit),
        "generators": sorted(frame.generators),
        "window": frame.window_cardinality(),
        "reflexive": frame.is_reflexive().ok,
    }
    if frame.mode == "set":
        result["containment"] = frame.is_containment().ok
    return EXIT_OK, Report("check", result, [f"{k} = {v}" for k, v in result.items()])


def _cmd_positions(args, frame: Frame) -> tuple[int, Report]:
    rendered = [p.render(frame.atoms) for p in frame.window()]
    return EXIT_OK, Report("check", rendered, rendered)


def _cmd_rsr(args, frame: Frame) -> tuple[int, Report]:
    members = [frame.parse_position(c) for c in args.positions.split(";") if c.strip()]
    out = rsr(frame, members)
    rendered = sorted(p.render(frame.atoms) for p in out.positions())
    return EXIT_OK, Report("check", {"input": args.positions, "rsr": rendered},
                           [_positions_text(frame, out)])


def _cmd_lattice(args, frame: Frame) -> tuple[int, Report]:
    q = interpretation(frame).quantale
    lattice = q.lattice
    labels = _Labels(frame, q, args.labels)
    aliases = [labels.alias(r) for r in lattice]

    join, tensor = q.tables()
    join_rows = [[aliases[k] for k in row] for row in join]
    tensor_rows = [[aliases[k] for k in row] for row in tensor]
    n = len(lattice)

    roles_payload = [
        {
            "alias": aliases[i],
            "size": len(lattice[i]),
            "positions": sorted(p.render(frame.atoms) for p in lattice[i].positions()),
        }
        for i in range(n)
    ]
    result = {
        "roles": roles_payload,
        "unit": aliases[lattice.index_of(q.unit_mask)],
        "dualizer": aliases[lattice.index_of(q.dualizer_mask)],
        "bottom": aliases[lattice.bottom_index],
        "join_table": join_rows,
        "tensor_table": tensor_rows,
        "window_relative": q.window_relative,
    }
    if args.format == "dot":
        return EXIT_OK, Report("lattice", result, _hasse_dot(lattice, aliases))
    lines = [f"{n} roles (unit {result['unit']}, dualizer {result['dualizer']}, "
             f"bottom {result['bottom']})"]
    for entry in roles_payload:
        lines.append(f"{entry['alias']} ({entry['size']}): "
                     + "{" + "; ".join(entry["positions"]) + "}")
    lines.append("")
    lines += _table_lines(args.format, "join", aliases, join_rows)
    lines.append("")
    lines += _table_lines(args.format, "tensor", aliases, tensor_rows)
    return EXIT_OK, Report("lattice", result, lines)


def _hasse_dot(lattice, aliases: list[str]) -> list[str]:
    n = len(lattice)
    below = [[i != j and lattice[i].mask | lattice[j].mask == lattice[j].mask
              for j in range(n)] for i in range(n)]
    lines = ["digraph role_lattice {", "  rankdir=BT;"]
    for alias in aliases:
        lines.append(f'  "{alias}";')
    for i in range(n):
        for j in range(n):
            if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n)):
                lines.append(f'  "{aliases[i]}" -> "{aliases[j]}";')
    lines.append("}")
    return lines


_SIDES = ("premisory", "conclusory")


def _stability_note(frame: Frame, small, big) -> dict:
    """Diff an extension at the frame's cap with the same extension
    recomputed at cap+2, on the frame's window."""
    small = frozenset(small)
    big = positions_within(frame, big)
    return {
        "stable": small == big,
        "recheck_cap": frame.cap + 2,
        "only_at_cap": sorted(p.render(frame.atoms) for p in small - big),
        "only_at_recheck": sorted(p.render(frame.atoms) for p in big - small),
    }


def _content_report(args, frame: Frame, head: dict,
                    content_of: Callable[[Frame], Content]) -> tuple[int, Report]:
    """``interp`` and ``eval``: report the content ``content_of(frame)``
    after the result fields in ``head``."""
    c = content_of(frame)
    labels = _Labels(frame, interpretation(frame).quantale, args.labels)
    result, lines = dict(head), []
    for side in _SIDES:
        role = getattr(c, side)
        alias = labels.alias(role)
        result[side] = {
            "alias": alias,
            "positions": sorted(p.render(frame.atoms) for p in role.positions()),
        }
        lines.append(f"{side:<10} = {alias} {_positions_text(frame, role)}")
    if args.cap_stability and frame.mode == "multiset":
        wide = content_of(frame.with_cap(frame.cap + 2))
        note = {side: _stability_note(frame, getattr(c, side).positions(),
                                      getattr(wide, side).positions())
                for side in _SIDES}
        note["stable"] = all(note[side]["stable"] for side in _SIDES)
        result["stability"] = note
        lines.append("stability: " + ("no changes" if note["stable"] else "CHANGED"))
    return EXIT_OK, Report("interp", result, lines)


def _cmd_interp(args, frame: Frame) -> tuple[int, Report]:
    return _content_report(args, frame, {"atom": args.atom},
                           lambda f: interpretation(f).atom(args.atom))


def _cmd_eval(args, frame: Frame) -> tuple[int, Report]:
    formula = parse_formula(args.formula)
    return _content_report(args, frame,
                           {"formula": render(formula), "clauses": args.clauses},
                           lambda f: interpretation(f).eval(formula, args.clauses))


def _cmd_entails(args, frame: Frame) -> tuple[int, Report]:
    lhs, rhs = parse_sequent(args.sequent)
    verdict = interpretation(frame).entails(lhs, rhs, args.clauses)
    result = {"sequent": args.sequent, "clauses": args.clauses, "verdict": verdict}
    return _verdict(verdict, Report("entails", result, ["true" if verdict else "false"]))


def _cmd_nmms(args, frame: Frame) -> tuple[int, Report]:
    verdict = decide(frame, FormulaSequent.parse(args.sequent, args.variant))
    result = {"sequent": args.sequent, "variant": args.variant, "verdict": verdict}
    return _verdict(verdict, Report("entails", result, ["true" if verdict else "false"]))


def _cmd_trace(args, frame: Frame) -> tuple[int, Report]:
    tree = reduction_trace(frame, FormulaSequent.parse(args.sequent, args.variant))
    return _verdict(tree.verdict, Report("trace", tree.as_dict(), tree.render().splitlines()))


_CHECKS = (
    "gq-laws", "reflexive", "containment", "conservativity",
    "supraclassical", "supralinear", "clause-agreement", "cap-stability",
)


def _cmd_check(args, frame: Frame) -> tuple[int, Report]:
    def from_suite(*suites):
        result = {
            s.name: {"checked": s.checked, "violations": s.violations, **s.notes}
            for s in suites
        }
        report = Report("check", result, [s.summary() for s in suites],
                        [v for s in suites for v in s.violations])
        return _verdict(all(s.ok for s in suites), report, EXIT_SUITE)

    if args.property == "gq-laws":
        q = interpretation(frame).quantale
        law_report = check_gq_laws(q, seed=args.seed)
        result = {
            "exhaustive": law_report.exhaustive,
            "laws": [
                {"law": c.law, "ok": c.ok, "counterexample": c.counterexample}
                for c in law_report.checks
            ],
            "join_idempotent": is_join_idempotent(q),
        }
        report = Report("check", result, law_report.summary().splitlines(),
                        [c.counterexample for c in law_report.violations()])
        return _verdict(law_report.ok, report, EXIT_SUITE)
    if args.property == "reflexive":
        verdict = frame.is_reflexive()
        report = Report("check", {"reflexive": verdict.ok, "witness": verdict.witness},
                        ["reflexive" if verdict.ok else f"not reflexive: atom {verdict.witness}"])
        return _verdict(verdict.ok, report, EXIT_SUITE)
    if args.property == "containment":
        verdict = frame.is_containment()
        witness = verdict.witness.render(frame.atoms) if verdict.witness else None
        report = Report("check", {"containment": verdict.ok, "witness": witness},
                        ["containment" if verdict.ok else f"not containment: {witness}"])
        return _verdict(verdict.ok, report, EXIT_SUITE)
    if args.property == "conservativity":
        return from_suite(conservativity_suite(frame))
    if args.property == "supraclassical":
        return from_suite(
            supraclassical_suite(frame, depth=args.depth, seed=args.seed, samples=args.samples),
            robbins_suite(frame, depth=args.depth),
        )
    if args.property == "supralinear":
        return from_suite(
            supralinear_suite(frame, depth=args.depth, seed=args.seed, samples=args.samples)
        )
    if args.property == "clause-agreement":
        return from_suite(clause_agreement_suite(frame))
    assert args.property == "cap-stability"
    if frame.mode != "multiset":
        raise FrameError("cap-stability applies to multiset frames")
    return from_suite(cap_stability_suite(frame))


def _cmd_compare(args, frame: Frame) -> tuple[int, Report]:
    suite = compare_suite(
        frame, depth=args.depth, seed=args.seed, samples=args.samples
    )
    result = {"checked": suite.checked, "disagreements": suite.violations}
    report = Report("compare", result, [suite.summary()], suite.violations,
                    meta={"depth": args.depth})
    return _verdict(suite.ok, report, EXIT_SUITE)


def _cmd_morphism(args, _frame) -> tuple[int, Report]:
    source = _load_frame(args.source)
    target = _load_frame(args.target)
    mapping = {}
    for chunk in args.mapping.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise FrameError(f"bad mapping entry {chunk!r}; expected 'atom->atom'")
        src, tgt = (part.strip() for part in chunk.split("->", 1))
        if src in mapping:
            raise FrameError(f"atom {src!r} is mapped twice")
        mapping[src] = tgt
    m = FrameMorphism(source, target, mapping)
    if args.kind == "both":
        # Refuse a source too large for continuity before the conservative check.
        kernel_window(source)

    result = {}
    lines = []

    def record(key: str, verdict, witness, failed: str):
        result[key] = {"ok": verdict.ok, "witness": witness}
        line = key if verdict.ok else f"{failed}: {witness}"
        if verdict.truncated:
            result[key]["truncated"] = True
            line += f" (truncated: counts above 2*cap={2 * target.cap} read as coherent)"
        lines.append(line)

    if args.kind in ("conservative", "both"):
        verdict = check_conservative(m)
        witness = verdict.witness.render(source.atoms) if verdict.witness else None
        record("conservative", verdict, witness, "not conservative")
    if args.kind in ("continuous", "both"):
        verdict = check_continuous(m)
        witness = None
        if verdict.witness:
            # The target position is rendered in the target's atoms.
            witness = {
                k: v.render((target if k == "target_position" else source).atoms)
                if isinstance(v, Position) else str(v)
                for k, v in verdict.witness.items()
            }
        record("continuous", verdict, witness, "not continuous")
    return _verdict(all(v["ok"] for v in result.values()), Report("check", result, lines))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(minimum: int):
    """An argparse type: an int no smaller than ``minimum``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return convert


_CLAUSES = ("classical", "linear")
_VARIANTS = ("contractive", "noncontractive")


def _frame_args(p):
    p.add_argument("frame")


def _rsr_args(p):
    p.add_argument("frame")
    p.add_argument("positions", help="semicolon-separated positions, e.g. 'a |- b; |- a'")


def _lattice_args(p):
    p.add_argument("frame")
    p.add_argument("--labels")


def _interp_args(p):
    p.add_argument("frame")
    p.add_argument("atom")
    p.add_argument("--labels")
    p.add_argument("--cap-stability", action="store_true")


def _eval_args(p):
    p.add_argument("frame")
    p.add_argument("formula")
    p.add_argument("--clauses", choices=_CLAUSES, default="classical")
    p.add_argument("--labels")
    p.add_argument("--cap-stability", action="store_true")


def _entails_args(p):
    p.add_argument("frame")
    p.add_argument("sequent")
    p.add_argument("--clauses", choices=_CLAUSES, default="classical")


def _unfolding_args(p):
    p.add_argument("frame")
    p.add_argument("sequent")
    p.add_argument("--variant", choices=_VARIANTS, default="contractive")


def _check_args(p):
    p.add_argument("frame")
    p.add_argument("property", choices=_CHECKS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=_int_at_least(0), default=2)
    p.add_argument("--samples", type=_int_at_least(1), default=2000)


def _compare_args(p):
    p.add_argument("frame")
    p.add_argument("--depth", type=_int_at_least(0), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_int_at_least(1), default=2000)


def _morphism_args(p):
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("mapping", help="comma-separated atom map, e.g. 'a->x,b->x'")
    p.add_argument("--kind", choices=("conservative", "continuous", "both"), default="both")


# name -> (handler, help text, function adding the command's arguments);
# every command also takes --format (see LATTICE_FORMATS).  Help lists the
# commands in this order.
COMMANDS = {
    "validate": (_cmd_validate, "parse a frame file and report its shape", _frame_args),
    "positions": (_cmd_positions, "list the window in canonical order", _frame_args),
    "rsr": (_cmd_rsr, "range of subjunctive robustness of a position set", _rsr_args),
    "lattice": (_cmd_lattice, "role lattice and operation tables", _lattice_args),
    "interp": (_cmd_interp, "interpret an atom as a content", _interp_args),
    "eval": (_cmd_eval, "evaluate a formula to a content", _eval_args),
    "entails": (_cmd_entails, "semantic consequence of a sequent", _entails_args),
    "nmms": (_cmd_nmms, "decide a sequent by rule unfolding", _unfolding_args),
    "trace": (_cmd_trace, "full rule-unfolding tree of a sequent", _unfolding_args),
    "check": (_cmd_check, "run a property suite", _check_args),
    "compare": (_cmd_compare, "NMMS unfolding vs semantic consequence", _compare_args),
    "morphism": (_cmd_morphism, "check an atom map between two frames", _morphism_args),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``.

    When the first token of ``argv`` names a command, only that command's
    subparser is built.  Otherwise (help, version, no or an unknown command)
    every command's is, so top-level help and errors list them all."""
    parser = argparse.ArgumentParser(
        prog="roleforge",
        description="Implication-space semantics engine over signed incompatibility frames.",
    )
    parser.add_argument("--version", action="version", version=f"roleforge {__version__}")
    named = argv[0] if argv and argv[0] in COMMANDS else None
    # A narrowed parser still names every command in its usage line, which
    # top-level errors such as "unrecognized arguments" print.  The metavar
    # would also rename the command argument in "invalid choice" and
    # "required" errors, which only the full parser can raise.
    metavar = "{" + ",".join(COMMANDS) + "}" if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (fn, help_text, add_arguments) in COMMANDS.items():
        if named in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(fn=fn)
            formats = LATTICE_FORMATS if name == "lattice" else FORMATS
            p.add_argument("--format", choices=formats, default="plain")
            add_arguments(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        # morphism names two frame files and loads them itself.
        frame = _load_frame(args.frame) if "frame" in args else None
        code, report = args.fn(args, frame)
    except (FrameError, FormulaSyntaxError, OSError, json.JSONDecodeError) as exc:
        print(f"roleforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if frame is None:
        report.frame, report.meta["cap"] = f"{args.source} -> {args.target}", None
    else:
        report.frame, report.meta["cap"] = args.frame, frame.cap
    report.meta["seed"] = getattr(args, "seed", None)
    text = report.render(args.format)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
