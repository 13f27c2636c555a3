"""Sequent goodness in NMMS, the invertible sequent rules over a frame.

A sequent is good exactly when every atomic leaf of its rule unfolding is
in the frame's incoherence relation:

* negation moves a formula to the other side;
* a conjunction on the left (or disjunction on the right) merges in place;
* a conjunction on the right splits into premises for each conjunct -- plus,
  in the contractive variant, a third premise carrying both conjuncts
  side by side; disjunction on the left is dual.

The contractive variant lives on set-mode frames, the non-contractive one on
multiset frames.  Implication is unfolded as ~A \\/ B on entry.  ``decide``
does not walk the unfolding: a leaf is a pointwise sum of one leaf per formula
(``max`` per count when contractive, ``+`` otherwise), so it sums the leaf
families of all formulas.  It checks in-range leaves first: a multiset sequent
with a failing leaf is false even if another leaf exceeds 2*cap.
``reduction_trace`` builds the unfolding and shows an overflowing leaf as
out of range; it raises only when such a leaf leaves the verdict open.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from .formulas import Atom, Bin, Formula, Neg, atoms_of, parse_sequent, render_sequent
from .frames import Frame, FrameError, ModeMismatchError, Position, PositionRangeError

NMMS_OPS = frozenset({"and", "or"})
VARIANTS = ("contractive", "noncontractive")

Side = tuple[Formula, ...]
Leaf = tuple[int, ...]  # left counts, then right counts


class NmmsFragmentError(FrameError):
    """Formula outside the negation / conjunction / disjunction fragment."""


@dataclass(frozen=True)
class FormulaSequent:
    lhs: Side
    rhs: Side
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise FrameError(f"unknown variant {self.variant!r}")

    @classmethod
    def parse(cls, text: str, variant: str) -> "FormulaSequent":
        lhs, rhs = parse_sequent(text)
        return cls(lhs, rhs, variant)

    def render(self) -> str:
        return render_sequent(self.lhs, self.rhs)


def _desugar(f: Formula) -> Formula:
    """Unfold -> as ~A \\/ B; reject connectives outside the rule set."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Neg):
        return Neg(_desugar(f.sub))
    assert isinstance(f, Bin)
    if f.op == "imp":
        return Bin("or", Neg(_desugar(f.left)), _desugar(f.right))
    if f.op not in NMMS_OPS:
        raise NmmsFragmentError(f"connective {f.op!r} has no sequent rule")
    return Bin(f.op, _desugar(f.left), _desugar(f.right))


def _prepared(frame: Frame, sequent: FormulaSequent) -> tuple[bool, Side, Side]:
    """Mode check, then desugaring, then the atom check."""
    contractive = sequent.variant == "contractive"
    if contractive and frame.mode != "set":
        raise ModeMismatchError("contractive unfolding requires a set-mode frame")
    if not contractive and frame.mode != "multiset":
        raise ModeMismatchError("non-contractive unfolding requires a multiset frame")
    lhs = tuple(_desugar(f) for f in sequent.lhs)
    rhs = tuple(_desugar(f) for f in sequent.rhs)
    unknown = [a for f in lhs + rhs for a in sorted(atoms_of(f)) if a not in frame.atoms]
    if unknown:
        raise FrameError(f"unknown atom {unknown[0]!r}")
    return contractive, lhs, rhs


def _atomic_verdict(frame: Frame, lhs: Side, rhs: Side) -> bool:
    left = [f.name for f in lhs]
    right = [f.name for f in rhs]
    return frame.bot_member(frame.position(left, right))


def _reduce(
    lhs: Side, rhs: Side, side: str, k: int, contractive: bool
) -> tuple[str, list[tuple[Side, Side]]]:
    """Apply the rule matching the complex formula at (side, k).  Each rule
    is written once, over the formula's own side ``here`` and the opposite
    side ``there``; for a formula on the right the two trade places."""
    left = side == "lhs"
    here, there = (lhs, rhs) if left else (rhs, lhs)
    f = here[k]
    suffix = "L" if left else "R"

    def premise(*parts: Formula, moved: Side = ()) -> tuple[Side, Side]:
        mine, other = here[:k] + parts + here[k + 1:], there + moved
        return (mine, other) if left else (other, mine)

    if isinstance(f, Neg):
        return "neg" + suffix, [premise(moved=(f.sub,))]
    assert isinstance(f, Bin) and f.op in NMMS_OPS
    if (f.op == "and") == left:  # andL, orR: one premise holding both
        return f.op + suffix, [premise(f.left, f.right)]
    premises = [premise(f.left), premise(f.right)]  # orL, andR
    if not contractive:
        return f.op + suffix, premises
    # orLc, andRc: the third premise holds both
    return f.op + suffix + "c", premises + [premise(f.left, f.right)]


def _targets(lhs: Side, rhs: Side) -> list[tuple[str, int]]:
    out = [("lhs", i) for i, f in enumerate(lhs) if not isinstance(f, Atom)]
    out += [("rhs", i) for i, f in enumerate(rhs) if not isinstance(f, Atom)]
    return out


def _leaf_sum(xs: set[Leaf], ys: set[Leaf], contractive: bool) -> set[Leaf]:
    """Every pointwise sum of a leaf of xs and a leaf of ys."""
    plus = max if contractive else operator.add
    return {tuple(map(plus, x, y)) for x in xs for y in ys}


def _leaf_family(f: Formula, left: bool, index: dict[str, int], contractive: bool) -> set[Leaf]:
    """The atomic leaves of f's unfolding alone on one side.  Contractive
    families are union-closed, so repeated formulas need no deduplication."""
    if isinstance(f, Atom):
        leaf = [0] * (2 * len(index))
        leaf[index[f.name] + (0 if left else len(index))] = 1
        return {tuple(leaf)}
    if isinstance(f, Neg):
        return _leaf_family(f.sub, not left, index, contractive)
    xs = _leaf_family(f.left, left, index, contractive)
    ys = _leaf_family(f.right, left, index, contractive)
    if (f.op == "and") == left:  # andL, orR: one premise holding both
        return _leaf_sum(xs, ys, contractive)
    if contractive:  # orLc, andRc: the third premise holds both
        return xs | ys | _leaf_sum(xs, ys, True)
    return xs | ys  # orL, andR


def decide(frame: Frame, sequent: FormulaSequent) -> bool:
    """Goodness of the sequent: every atomic leaf of its unfolding is incoherent."""
    contractive, lhs, rhs = _prepared(frame, sequent)
    index, n = frame.atoms.index, frame.n
    leaves = {(0,) * (2 * n)}
    for side, formulas in ((True, lhs), (False, rhs)):
        for f in formulas:
            leaves = _leaf_sum(leaves, _leaf_family(f, side, index, contractive), contractive)
    bound = 1 if contractive else 2 * frame.cap
    # In-range leaves first: bot_member raises on the first overflowing one.
    for leaf in sorted(leaves, key=lambda leaf: max(leaf) > bound):
        if not frame.bot_member(Position(leaf[:n], leaf[n:])):
            return False
    return True


@dataclass(frozen=True)
class TraceNode:
    """A node of the unfolding.  A leaf above 2*cap is out of range and its
    verdict is None; an inner node is false if a premise is, else None if a
    premise is, else true."""

    lhs: Side
    rhs: Side
    rule: Optional[str]
    verdict: Optional[bool]
    children: tuple["TraceNode", ...]

    def leaves(self) -> list["TraceNode"]:
        if not self.children:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def as_dict(self) -> dict:
        return {
            "sequent": render_sequent(self.lhs, self.rhs),
            "rule": self.rule,
            "verdict": self.verdict,
            "children": [c.as_dict() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        if self.verdict is None:
            mark = "undetermined" if self.children else "out of range"
        else:
            mark = "ok" if self.verdict else "FAIL"
        rule = f" [{self.rule}]" if self.rule else ""
        line = "  " * indent + f"{render_sequent(self.lhs, self.rhs)}{rule}  ({mark})"
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])


def reduction_trace(frame: Frame, sequent: FormulaSequent) -> TraceNode:
    """Full unfolding tree; its root verdict equals decide().  Raises the
    first out-of-range leaf's PositionRangeError when no leaf fails and
    the root is undetermined."""
    contractive, lhs, rhs = _prepared(frame, sequent)
    overflow: list[PositionRangeError] = []

    def go(l: Side, r: Side) -> TraceNode:
        if contractive:
            l, r = tuple(dict.fromkeys(l)), tuple(dict.fromkeys(r))
        targets = _targets(l, r)
        if not targets:
            try:
                verdict = _atomic_verdict(frame, l, r)
            except PositionRangeError as exc:
                overflow.append(exc)
                verdict = None
            return TraceNode(l, r, None, verdict, ())
        side, i = targets[0]
        rule, premises = _reduce(l, r, side, i, contractive)
        children = tuple(go(pl, pr) for pl, pr in premises)
        verdicts = {c.verdict for c in children}
        verdict = False if False in verdicts else None if None in verdicts else True
        return TraceNode(l, r, rule, verdict, children)

    root = go(lhs, rhs)
    if root.verdict is None:
        raise overflow[0]
    return root
