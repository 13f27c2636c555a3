"""Conceptual contents and semantic consequence.

A formula denotes a *content*: a pair of roles, the premisory role (what it
contributes on the left of a turnstile) and the conclusory role (its
contribution on the right).  Atoms are interpreted by the closures of their
two signed singleton positions; connectives act on contents through the
quantale operations, with two clause families:

* ``classical`` (set mode only): negation swaps the pair, conjunction is
  tensor on the premisory side and tilde-join on the conclusory side, and
  or / -> are the De Morgan combinations of those.
* ``linear``: tensor, plus, parr, with act as the twisted-quantale pairs
  (tensor x parr), (join x meet), (parr x tensor), (meet x join); negation
  swaps.

A sequent of contents holds when the tensor of all left premisory roles and
all right conclusory roles lands inside the dualizer role.

A role is computed as its closed mask: contents are evaluated and sequents
decided with the quantale's mask operations, which need only the frame's
kernel (``rsr``).  The role lattice is enumerated only by callers that number
roles (``QuantaleOps.lattice``), never by evaluation or consequence.

Classical formulas skip the clauses.  Girard's phase-semantics identity
``cl(cl(A) + cl(B)) = cl(A + B)`` holds on every set frame, so a tensor of
closures is the closure of the position sums of its generators.  The
classical clauses generate a formula's premisory and conclusory roles from
its contractive NMMS leaf families ``L`` and ``R`` (``nmms._leaf_family``),
which are union-closed; hence the content is ``(closure(L), closure(R))``,
and since the dualizer is closed, a formula sequent holds iff every leaf of
the summed families is incoherent.  A set-mode leaf is its 2n-bit position
code, which is also its window index, and leaves sum by OR, so
consequence reads the relation at codes (``Frame.bot_code``) and needs
neither the window nor the kernel.  ``_classical_bin`` keeps the clauses on
masks as the reference the suites compare against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .formulas import (
    Atom, Bin, CLASSICAL_OPS, Formula, LINEAR_OPS, Neg, binary_ops, parse_formula,
)
from .frames import Frame, FrameError, ModeMismatchError
from .nmms import _desugar, _leaf_family
from .quantale import IdempotenceError, QuantaleOps, quantale
from .rsr import Role, blocker_masks, closure, closure_mask, is_role

CLAUSE_SETS = ("classical", "linear")


class ClauseError(FrameError):
    """Formula/clause-set combination outside the sanctioned semantics."""


@dataclass(frozen=True)
class Content:
    """Semantic value of a formula: a premisory and a conclusory role."""

    premisory: Role
    conclusory: Role


class ContentSequent(NamedTuple):
    """A two-sided sequent whose entries are contents or formulas."""

    lhs: tuple
    rhs: tuple


FormulaLike = Union[Formula, str]
EntryLike = Union[Content, Formula, str]
# A content as the closed masks of its premisory and conclusory roles.
MaskContent = tuple[int, int]


class Interpretation:
    """Evaluation context for one frame: its quantale and content caches.

    Contents are evaluated as pairs of closed masks, memoized per formula,
    so evaluation and consequence never enumerate the role lattice.  The
    quantale, and with it the frame's kernel, is built on first use.
    Classical leaf families are memoized per formula and side as sets of
    set-mode position codes.
    """

    def __init__(self, frame: Frame):
        self.frame = frame
        self._eval_cache: dict[tuple[Formula, str], MaskContent] = {}
        self._leaf_cache: dict[tuple[Formula, bool], frozenset[int]] = {}

    @functools.cached_property
    def quantale(self) -> QuantaleOps:
        return quantale(self.frame)

    # -- atoms ----------------------------------------------------------------

    def _atom_masks(self, name: str) -> MaskContent:
        if name not in self.frame.atoms:
            raise FrameError(f"unknown atom {name!r}")
        key = (Atom(name), "atom")
        hit = self._eval_cache.get(key)
        if hit is None:
            frame = self.frame
            hit = (
                closure(frame, [frame.position([name], [])]).mask,
                closure(frame, [frame.position([], [name])]).mask,
            )
            self._eval_cache[key] = hit
        return hit

    def atom(self, name: str) -> Content:
        return self._content(self._atom_masks(name))

    # -- formula evaluation -----------------------------------------------------

    def _check_fragment(self, f: Formula, clauses: str):
        if clauses not in CLAUSE_SETS:
            raise ClauseError(f"unknown clause set {clauses!r}")
        if clauses == "classical" and self.frame.mode != "set":
            raise ClauseError("classical clauses require a set-mode frame")
        ops = binary_ops(f)
        allowed = CLASSICAL_OPS if clauses == "classical" else LINEAR_OPS
        stray = ops - allowed
        if stray:
            raise ClauseError(
                f"connectives {sorted(stray)} are not part of the {clauses} clause set"
            )

    def _leaf_codes(self, f: Formula, left: bool) -> frozenset[int]:
        """The contractive NMMS leaf family of f alone on one side, as
        set-mode position codes."""
        key = (f, left)
        hit = self._leaf_cache.get(key)
        if hit is None:
            index = self.frame.atoms.index
            try:
                leaves = _leaf_family(_desugar(f), left, index, True)
            except KeyError as exc:  # the first unknown atom, left to right
                raise FrameError(f"unknown atom {exc.args[0]!r}") from None
            hit = frozenset(sum(bit << k for k, bit in enumerate(leaf)) for leaf in leaves)
            self._leaf_cache[key] = hit
        return hit

    def _eval_masks(self, f: Formula, clauses: str) -> MaskContent:
        key = (f, clauses)
        hit = self._eval_cache.get(key)
        if hit is not None:
            return hit
        if isinstance(f, Atom):
            out = self._atom_masks(f.name)
        elif isinstance(f, Neg):
            plus, minus = self._eval_masks(f.sub, clauses)
            out = (minus, plus)
        elif clauses == "classical":
            # A set-mode window index is the position code.
            out = tuple(
                closure_mask(self.frame, sum(1 << c for c in self._leaf_codes(f, left)))
                for left in (True, False)
            )
        else:
            assert isinstance(f, Bin)
            a = self._eval_masks(f.left, clauses)
            b = self._eval_masks(f.right, clauses)
            out = connective_clause(self.quantale, f.op, a, b)
        self._eval_cache[key] = out
        return out

    def _and_clause(self, a: MaskContent, b: MaskContent) -> MaskContent:
        try:
            return connective_clause(self.quantale, "and", a, b)
        except IdempotenceError as exc:
            raise ClauseError(f"and-clause on a non-idempotent conclusory role: {exc}") from exc

    def _classical_bin(self, op, a: MaskContent, b: MaskContent) -> MaskContent:
        """The classical clause of a binary connective on masks: the
        reference that ``compare_suite`` and ``robbins_suite`` fold."""
        if op == "and":
            return self._and_clause(a, b)
        if op == "or":
            plus, minus = self._and_clause((a[1], a[0]), (b[1], b[0]))
            return (minus, plus)
        assert op == "imp"
        plus, minus = self._and_clause(a, (b[1], b[0]))
        return (minus, plus)

    def eval(self, f: FormulaLike, clauses: str = "classical") -> Content:
        if isinstance(f, str):
            f = parse_formula(f)
        self._check_fragment(f, clauses)
        return self._content(self._eval_masks(f, clauses))

    def _content(self, masks: MaskContent) -> Content:
        return Content(Role(self.frame, masks[0]), Role(self.frame, masks[1]))

    def _role_mask(self, role: Role) -> int:
        if not is_role(self.frame, role):
            raise FrameError("set is not a role of this frame")
        return role.mask

    # -- consequence -------------------------------------------------------------

    def entails(
        self,
        lhs: Sequence[EntryLike],
        rhs: Sequence[EntryLike],
        clauses: str = "classical",
    ) -> bool:
        """Semantic consequence.

        Tensor of all left premisory roles with all right conclusory roles,
        contained in the dualizer.  The empty tensor is the quantale unit,
        so the empty sequent holds exactly when unit <= dualizer.  In set
        mode the sides are read as content *sets* (duplicates collapse); in
        multiset mode multiplicity counts.  Every formula entry is checked
        against the clause set before any entry is evaluated.

        Classical sequents of formulas alone go by leaf families: by
        ``cl(cl(A) + cl(B)) = cl(A + B)`` the tensor is the closure of the
        sum of the left formulas' left families and the right formulas'
        right families, and it lies in the closed dualizer iff every summed
        leaf is incoherent.  That builds neither the window nor the kernel.
        """
        entries = [parse_formula(e) if isinstance(e, str) else e for e in (*lhs, *rhs)]
        for e in entries:
            if not isinstance(e, Content):
                self._check_fragment(e, clauses)
        if (clauses == "classical" and self.frame.mode == "set"
                and not any(isinstance(e, Content) for e in entries)):
            return self._entails_leaves(entries[:len(lhs)], entries[len(lhs):])
        masks = [
            (self._role_mask(e.premisory), self._role_mask(e.conclusory))
            if isinstance(e, Content) else self._eval_masks(e, clauses)
            for e in entries
        ]
        return self._entails_masks(masks[:len(lhs)], masks[len(lhs):])

    def _entails_leaves(self, lhs: Sequence[Formula], rhs: Sequence[Formula]) -> bool:
        sides = dict.fromkeys([(f, True) for f in lhs] + [(f, False) for f in rhs])
        leaves = {0}
        for f, left in sides:
            family = self._leaf_codes(f, left)
            leaves = {x | y for x in leaves for y in family}
        return all(map(self.frame.bot_code, leaves))

    def _entails_masks(self, left: Sequence[MaskContent], right: Sequence[MaskContent]) -> bool:
        q = self.quantale
        if self.frame.mode == "set":
            left = list(dict.fromkeys(left))
            right = list(dict.fromkeys(right))
        acc = q.unit_mask
        for plus, _ in left:
            acc = q.tensor_mask(acc, plus)
        for _, minus in right:
            acc = q.tensor_mask(acc, minus)
        return q.leq_mask(acc, q.dualizer_mask)

    def entails_sequent(self, sequent: Union[str, ContentSequent], clauses: str = "classical") -> bool:
        if isinstance(sequent, str):
            from .formulas import parse_sequent

            lhs, rhs = parse_sequent(sequent)
        else:
            lhs, rhs = sequent.lhs, sequent.rhs
        return self.entails(lhs, rhs, clauses)

    # -- structural properties of contents ----------------------------------------

    def is_reflexive_content(self, c: Content) -> bool:
        """Whether c entails itself: premisory x conclusory lands in the dualizer."""
        q = self.quantale
        prod = q.tensor_mask(self._role_mask(c.premisory), self._role_mask(c.conclusory))
        return q.leq_mask(prod, q.dualizer_mask)

    def satisfies_cut_condition(self, c: Content) -> bool:
        """Whether the dual of the conclusory role is contained in the premisory role."""
        q = self.quantale
        return q.leq_mask(q.neg_mask(self._role_mask(c.conclusory)), self._role_mask(c.premisory))


@functools.lru_cache(maxsize=1)
def interpretation(frame: Frame) -> Interpretation:
    """Shared per-frame evaluation context (frames are immutable values).

    Only the most recent frame's is kept: an interpretation holds its
    frame's blocker kernel, which at 7 atoms takes tens of megabytes, so a
    caller that moves between frames keeps its own ``Interpretation``."""
    return Interpretation(frame)


# -- spec-level convenience functions ----------------------------------------


def interpret_atom(frame: Frame, name: str) -> Content:
    return interpretation(frame).atom(name)


def eval_formula(frame: Frame, f: FormulaLike, clauses: str = "classical") -> Content:
    return interpretation(frame).eval(f, clauses)


def entails(
    frame: Frame,
    lhs: Sequence[EntryLike],
    rhs: Sequence[EntryLike],
    clauses: str = "classical",
) -> bool:
    return interpretation(frame).entails(lhs, rhs, clauses)


def is_reflexive_content(frame: Frame, c: Content) -> bool:
    return interpretation(frame).is_reflexive_content(c)


def satisfies_cut_condition(frame: Frame, c: Content) -> bool:
    return interpretation(frame).satisfies_cut_condition(c)


# ---------------------------------------------------------------------------
# Clause families in their two published shapes
# ---------------------------------------------------------------------------


def connective_clause(q: QuantaleOps, op: str, a: MaskContent, b: MaskContent) -> MaskContent:
    """Twisted/mixed-quantale shape of the connective clauses, on closed masks."""
    if op == "tensor":
        return (q.tensor_mask(a[0], b[0]), q.parr_mask(a[1], b[1]))
    if op == "plus":
        return (q.join_mask(a[0], b[0]), q.meet_mask(a[1], b[1]))
    if op == "parr":
        return (q.parr_mask(a[0], b[0]), q.tensor_mask(a[1], b[1]))
    if op == "with":
        return (q.meet_mask(a[0], b[0]), q.join_mask(a[1], b[1]))
    if op == "and":
        return (q.tensor_mask(a[0], b[0]), q.tilde_join_mask(a[1], b[1]))
    raise ValueError(f"no clause for {op!r}")


def symjunction_clause(q: QuantaleOps, op: str, a: MaskContent, b: MaskContent) -> MaskContent:
    """The same clauses written with adjunction/symjunction and rsr only.

    Adjunction of roles is tensor, symjunction is join; negations are spelled
    out instead of using meet/parr directly, so this is an independent route
    for the clause-agreement check.
    """
    tensor, join, neg = q.tensor_mask, q.join_mask, q.neg_mask
    if op == "tensor":
        return (tensor(a[0], b[0]), neg(tensor(neg(a[1]), neg(b[1]))))
    if op == "plus":
        return (join(a[0], b[0]), neg(join(neg(a[1]), neg(b[1]))))
    if op == "parr":
        plus, minus = symjunction_clause(q, "tensor", (a[1], a[0]), (b[1], b[0]))
        return (minus, plus)
    if op == "with":
        plus, minus = symjunction_clause(q, "plus", (a[1], a[0]), (b[1], b[0]))
        return (minus, plus)
    if op == "and":
        return (tensor(a[0], b[0]), join(join(a[1], b[1]), tensor(a[1], b[1])))
    raise ValueError(f"no clause for {op!r}")


# ---------------------------------------------------------------------------
# Expressibility probes
# ---------------------------------------------------------------------------

EXPLICIT_KINDS = ("negation", "conj", "disj")
_NEGATION_SEARCH_LIMIT = 10 ** 6


def find_explicit_connective(frame: Frame, kind: str):
    """Search the atom vocabulary for an explicit connective.

    * ``negation`` -- a function g on atoms with (a |-)^bot = (|- g(a))^bot
      and (g(a) |-)^bot = (|- a)^bot for every atom; returns the function as
      a dict, or None.
    * ``conj`` -- per atom pair (a, b), an atom c with (a, b |-)^bot =
      (c |-)^bot; returns a dict mapping each pair to its witness or None.
    * ``disj`` -- per atom pair, an atom c with (c |-)^bot =
      (a |-)^bot intersect (b |-)^bot.
    """
    if frame.mode != "set":
        raise ModeMismatchError("explicit-connective search needs a finite set-mode frame")
    if kind not in EXPLICIT_KINDS:
        raise ValueError(f"unknown connective kind {kind!r}")

    blockers = blocker_masks(frame)
    names = frame.atoms.names

    def left_mask(*atom_names: str) -> int:
        idx = frame.window_index(frame.position(atom_names, []))
        return blockers[idx]

    def right_mask(atom_name: str) -> int:
        idx = frame.window_index(frame.position([], [atom_name]))
        return blockers[idx]

    if kind == "negation":
        if len(names) ** len(names) > _NEGATION_SEARCH_LIMIT:
            raise FrameError("negation search space too large")
        for images in itertools.product(names, repeat=len(names)):
            g = dict(zip(names, images))
            if all(
                left_mask(a) == right_mask(g[a]) and left_mask(g[a]) == right_mask(a)
                for a in names
            ):
                return g
        return None

    table: dict[tuple[str, str], Optional[str]] = {}
    for a, b in itertools.product(names, repeat=2):
        if kind == "conj":
            target = left_mask(a, b)
        else:
            target = left_mask(a) & left_mask(b)
        witness = None
        for c in names:
            if left_mask(c) == target:
                witness = c
                break
        table[(a, b)] = witness
    return table
