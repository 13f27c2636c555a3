"""Independent reference implementations for tests and acceptance.

Nothing here shares a code path with the engines it checks: classical
validity is decided by truth tables, MALL provability by exhaustive cut-free
backward search, rsr by a literal definition-chasing scan, and morphism
continuity by the pairwise robustness-transport form quantified over all
subsets.  All of it is deliberately naive and bounded.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence, Union

from .formulas import Atom, Bin, Formula, Neg
from .frames import Frame, FrameError, ModeMismatchError, Position, Verdict
from .morphisms import FrameMorphism
from .rsr import PositionSet, PositionSetLike, _as_mask

MAX_VALUATION_ATOMS = 20
MAX_NAIVE_WINDOW = 4096
DEFAULT_MALL_BOUND = 14


class OracleFragmentError(FrameError):
    """Formula outside the fragment the oracle understands."""


class MallBoundError(FrameError):
    """Sequent exceeds the configured MALL search bound."""


Sides = tuple[tuple[Formula, ...], tuple[Formula, ...]]


def _sides(sequent: Union[Sides, object]) -> Sides:
    if hasattr(sequent, "lhs") and hasattr(sequent, "rhs"):
        return tuple(sequent.lhs), tuple(sequent.rhs)
    lhs, rhs = sequent
    return tuple(lhs), tuple(rhs)


# ---------------------------------------------------------------------------
# Classical multisuccedent validity by truth tables
# ---------------------------------------------------------------------------


def _truth(f: Formula, val: dict[str, bool]) -> bool:
    if isinstance(f, Atom):
        return val[f.name]
    if isinstance(f, Neg):
        return not _truth(f.sub, val)
    assert isinstance(f, Bin)
    if f.op == "and":
        return _truth(f.left, val) and _truth(f.right, val)
    if f.op == "or":
        return _truth(f.left, val) or _truth(f.right, val)
    if f.op == "imp":
        return (not _truth(f.left, val)) or _truth(f.right, val)
    raise OracleFragmentError(f"connective {f.op!r} is not Boolean")


def classical_valid(atom_names: Sequence[str], sequent) -> bool:
    """Every valuation making all premises true makes some conclusion true."""
    names = list(atom_names)
    if len(names) > MAX_VALUATION_ATOMS:
        raise FrameError(f"too many atoms for valuation enumeration ({len(names)})")
    lhs, rhs = _sides(sequent)
    for bits in itertools.product((False, True), repeat=len(names)):
        val = dict(zip(names, bits))
        if all(_truth(f, val) for f in lhs) and not any(_truth(f, val) for f in rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# Bounded cut-free MALL provability
# ---------------------------------------------------------------------------
#
# Two-sided sequents are translated to one-sided form (left formulas negated)
# and negation is pushed to the literals, so the search handles exactly four
# rules plus the identity axiom on literal pairs.

_DUAL = {"tensor": "parr", "parr": "tensor", "plus": "with", "with": "plus"}


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, Atom):
        return f if positive else Neg(f)
    if isinstance(f, Neg):
        return _nnf(f.sub, not positive)
    assert isinstance(f, Bin)
    if f.op not in _DUAL:
        raise OracleFragmentError(f"connective {f.op!r} is not in the MALL fragment")
    op = f.op if positive else _DUAL[f.op]
    return Bin(op, _nnf(f.left, positive), _nnf(f.right, positive))


def _is_literal(f: Formula) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Neg) and isinstance(f.sub, Atom))


def _count_binary(f: Formula) -> int:
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Neg):
        return _count_binary(f.sub)
    assert isinstance(f, Bin)
    return 1 + _count_binary(f.left) + _count_binary(f.right)


def mall_provable(sequent, bound: int = DEFAULT_MALL_BOUND) -> bool:
    """Cut-free provability with identity axioms on literals only.

    Backward search: parr and with premises are applied eagerly (they are
    invertible), then plus branches and tensor context splits are exhausted.
    Complete below the connective bound; above it, raises MallBoundError.
    """
    lhs, rhs = _sides(sequent)
    forms = [_nnf(f, False) for f in lhs] + [_nnf(f, True) for f in rhs]
    total = sum(_count_binary(f) for f in forms)
    if total > bound:
        raise MallBoundError(f"{total} connectives exceed the search bound {bound}")

    memo: dict[frozenset, bool] = {}

    def key(ms: list[Formula]):
        return frozenset(Counter(ms).items())

    def prove(ms: list[Formula]) -> bool:
        k = key(ms)
        hit = memo.get(k)
        if hit is not None:
            return hit
        memo[k] = result = _search(ms)
        return result

    def _search(ms: list[Formula]) -> bool:
        for i, f in enumerate(ms):
            if isinstance(f, Bin) and f.op == "parr":
                rest = ms[:i] + ms[i + 1:]
                return prove(rest + [f.left, f.right])
        for i, f in enumerate(ms):
            if isinstance(f, Bin) and f.op == "with":
                rest = ms[:i] + ms[i + 1:]
                return prove(rest + [f.left]) and prove(rest + [f.right])
        if all(_is_literal(f) for f in ms):
            if len(ms) != 2:
                return False
            a, b = ms
            if isinstance(a, Neg):
                a, b = b, a
            return isinstance(a, Atom) and isinstance(b, Neg) and b.sub == a
        for i, f in enumerate(ms):
            if isinstance(f, Bin) and f.op == "plus":
                rest = ms[:i] + ms[i + 1:]
                if prove(rest + [f.left]) or prove(rest + [f.right]):
                    return True
        for i, f in enumerate(ms):
            if isinstance(f, Bin) and f.op == "tensor":
                rest = ms[:i] + ms[i + 1:]
                for bits in range(1 << len(rest)):
                    part_l = [g for j, g in enumerate(rest) if bits >> j & 1]
                    part_r = [g for j, g in enumerate(rest) if not bits >> j & 1]
                    if prove(part_l + [f.left]) and prove(part_r + [f.right]):
                        return True
        return False

    return prove(forms)


# ---------------------------------------------------------------------------
# Definition-chasing rsr
# ---------------------------------------------------------------------------


def rsr_naive(frame: Frame, A: PositionSetLike) -> PositionSet:
    """Literal scan of the window against the defining condition.

    No blocker precomputation, no sharing with the engine path; the central
    anti-bug oracle for rsr.
    """
    window = frame.window()
    if len(window) > MAX_NAIVE_WINDOW:
        raise FrameError(f"window of {len(window)} positions is too large for the naive scan")
    mask = _as_mask(frame, A)
    members = [p for i, p in enumerate(window) if mask >> i & 1]
    out = []
    for q in window:
        if all(frame.bot_member(frame.position_sum(a, q)) for a in members):
            out.append(q)
    return PositionSet.from_positions(frame, out)


# ---------------------------------------------------------------------------
# Continuity by pairwise robustness transport
# ---------------------------------------------------------------------------


def continuity_condition4(m: FrameMorphism) -> Verdict:
    """Continuity in the form: A^bot inside B^bot implies f(A)^bot inside
    f(B)^bot, brute-forced over all subsets of the source window.

    Blockers are recomputed here by direct membership scans, independent of
    the engine caches.  Set mode only; the subset space must stay small.
    """
    if m.source.mode != "set":
        raise ModeMismatchError("the subset brute force is a set-mode oracle")
    src, tgt = m.source, m.target
    s_window = src.window()
    t_window = tgt.window()
    if len(s_window) > 16:
        raise FrameError("source window too large for subset enumeration")

    def blocker(frame: Frame, window, p: Position) -> int:
        out = 0
        for j, q in enumerate(window):
            if frame.bot_member(p.union(q)):
                out |= 1 << j
        return out

    src_blockers = [blocker(src, s_window, p) for p in s_window]
    img_blockers = [blocker(tgt, t_window, m.apply(p)) for p in s_window]

    size = len(s_window)
    full_src = (1 << size) - 1
    full_tgt = (1 << len(t_window)) - 1
    n_subsets = 1 << size
    a_perp = [0] * n_subsets
    fa_perp = [0] * n_subsets
    a_perp[0] = full_src
    fa_perp[0] = full_tgt
    for s in range(1, n_subsets):
        low = s & -s
        i = low.bit_length() - 1
        a_perp[s] = a_perp[s ^ low] & src_blockers[i]
        fa_perp[s] = fa_perp[s ^ low] & img_blockers[i]

    distinct = {}
    for s in range(n_subsets):
        distinct.setdefault((a_perp[s], fa_perp[s]), s)
    pairs = list(distinct.items())
    for (r1, s1), wit1 in pairs:
        for (r2, s2), wit2 in pairs:
            if r1 | r2 == r2 and s1 | s2 != s2:
                return Verdict(False, {"A_mask": wit1, "B_mask": wit2})
    return Verdict(True)
